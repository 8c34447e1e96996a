//! Two-level configuration data (paper §2.1).
//!
//! *Local* configuration data programs one physical object. *Global*
//! configuration data chains objects: each element names a **sink** object
//! and its **source** objects, so the stream *is* the dependency graph of
//! the application, expressed in object IDs.
//!
//! §2.4 connects the stream to caching: the distance between a request for
//! an object and the previous request that brought it on chip — the
//! **dependency distance** — equals the stack distance of the CACHE model,
//! and a hit is guaranteed exactly when that distance is at most the array
//! capacity `C`. [`GlobalConfigStream::dependency_distances`] computes those
//! distances so workloads can be characterised before they run.

use crate::id::ObjectId;
use crate::op::Operation;
use crate::value::Word;
use std::collections::HashMap;

/// Local configuration data: what one physical object is programmed to do.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LocalConfig {
    /// The operation the execution fabric performs.
    pub op: Operation,
    /// Immediate operand for `Const`/`AddImm`/`MulImm`/`FMulAddImm`.
    pub imm: Word,
}

impl LocalConfig {
    /// Configuration for an operation without an immediate.
    pub fn op(op: Operation) -> LocalConfig {
        LocalConfig {
            op,
            imm: Word::ZERO,
        }
    }

    /// Configuration for an operation with an immediate.
    pub fn with_imm(op: Operation, imm: Word) -> LocalConfig {
        LocalConfig { op, imm }
    }
}

/// One element of the global configuration data stream.
///
/// "Chaining between operators is defined through the global configuration
/// data which consists of a sink object ID and source IDs" (§2.1). The
/// fabric supports at most two value sources plus an optional predicate
/// source for steering objects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GlobalConfigElement {
    /// The object whose inputs are being chained.
    pub sink: ObjectId,
    /// Source feeding the sink's first value port, if any.
    pub src_lhs: Option<ObjectId>,
    /// Source feeding the sink's second value port, if any.
    pub src_rhs: Option<ObjectId>,
    /// Source feeding the sink's predicate port, if any.
    pub src_pred: Option<ObjectId>,
}

impl GlobalConfigElement {
    /// Element with no sources (an input/constant object entering the
    /// working set).
    pub fn nullary(sink: ObjectId) -> GlobalConfigElement {
        GlobalConfigElement {
            sink,
            src_lhs: None,
            src_rhs: None,
            src_pred: None,
        }
    }

    /// One-source element (the model evaluated in Figure 3).
    pub fn unary(sink: ObjectId, src: ObjectId) -> GlobalConfigElement {
        GlobalConfigElement {
            sink,
            src_lhs: Some(src),
            src_rhs: None,
            src_pred: None,
        }
    }

    /// Two-source element.
    pub fn binary(sink: ObjectId, lhs: ObjectId, rhs: ObjectId) -> GlobalConfigElement {
        GlobalConfigElement {
            sink,
            src_lhs: Some(lhs),
            src_rhs: Some(rhs),
            src_pred: None,
        }
    }

    /// Adds a predicate source (for steering sinks).
    pub fn with_pred(mut self, pred: ObjectId) -> GlobalConfigElement {
        self.src_pred = Some(pred);
        self
    }

    /// Iterates over the element's source IDs in port order.
    pub fn sources(&self) -> impl Iterator<Item = ObjectId> + '_ {
        [self.src_lhs, self.src_rhs, self.src_pred]
            .into_iter()
            .flatten()
    }

    /// All object IDs the element references (sink first, then sources) —
    /// the request order of the AP pipeline.
    pub fn referenced(&self) -> impl Iterator<Item = ObjectId> + '_ {
        std::iter::once(self.sink).chain(self.sources())
    }
}

/// The global configuration data stream for one application datapath.
///
/// ```
/// use vlsi_object::{GlobalConfigElement, GlobalConfigStream, ObjectId};
///
/// // A 3-stage chain: 0 -> 1 -> 2, then 0 is reused.
/// let stream: GlobalConfigStream = [
///     GlobalConfigElement::unary(ObjectId(1), ObjectId(0)),
///     GlobalConfigElement::unary(ObjectId(2), ObjectId(1)),
///     GlobalConfigElement::unary(ObjectId(3), ObjectId(0)),
/// ]
/// .into_iter()
/// .collect();
/// assert_eq!(stream.working_set().len(), 4);
/// // The reuse of object 0 has a finite stack distance; an array of that
/// // capacity streams the datapath without object-cache misses.
/// let c = stream.min_streaming_capacity();
/// let (hits, total) = stream.hit_count(c);
/// assert_eq!(total - hits, stream.working_set().len()); // only compulsory misses
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GlobalConfigStream {
    elements: Vec<GlobalConfigElement>,
}

impl GlobalConfigStream {
    /// Creates an empty stream.
    pub fn new() -> GlobalConfigStream {
        GlobalConfigStream::default()
    }

    /// Creates a stream from elements.
    pub fn from_elements(elements: Vec<GlobalConfigElement>) -> GlobalConfigStream {
        GlobalConfigStream { elements }
    }

    /// Appends an element.
    pub fn push(&mut self, e: GlobalConfigElement) {
        self.elements.push(e);
    }

    /// The elements in stream order.
    pub fn elements(&self) -> &[GlobalConfigElement] {
        &self.elements
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The set of distinct object IDs referenced by the stream — the
    /// application's working set in the sense of Denning, which must fit the
    /// array capacity `C` for streaming operation (§2.5).
    pub fn working_set(&self) -> Vec<ObjectId> {
        let mut seen = HashMap::new();
        let mut out = Vec::new();
        for e in &self.elements {
            for id in e.referenced() {
                seen.entry(id).or_insert_with(|| out.push(id));
            }
        }
        out
    }

    /// Dependency distances of every object reference in request order.
    ///
    /// For each reference to an object, the distance is the number of
    /// *distinct* other objects referenced since the previous reference to
    /// the same object — i.e. the Mattson stack distance under LRU. The
    /// first reference to an object has no finite distance and is reported
    /// as `None` (a compulsory object-cache miss).
    ///
    /// §2.4: "To make a hit always occur, the stack distance has to be less
    /// than or equal to C" — so `max` of the finite distances is the minimum
    /// array capacity at which the datapath streams without object misses.
    pub fn dependency_distances(&self) -> Vec<(ObjectId, Option<usize>)> {
        // LRU stack: most recent at the front.
        let mut stack: Vec<ObjectId> = Vec::new();
        let mut out = Vec::new();
        for e in &self.elements {
            for id in e.referenced() {
                let pos = stack.iter().position(|&x| x == id);
                match pos {
                    Some(p) => {
                        out.push((id, Some(p)));
                        stack.remove(p);
                    }
                    None => out.push((id, None)),
                }
                stack.insert(0, id);
            }
        }
        out
    }

    /// The smallest array capacity `C` such that every non-compulsory
    /// reference hits (max finite dependency distance + 1), or 0 for an
    /// empty stream.
    pub fn min_streaming_capacity(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        match self
            .dependency_distances()
            .iter()
            .filter_map(|(_, d)| *d)
            .max()
        {
            Some(d) => d + 1,
            None => 1, // only compulsory misses: one slot suffices
        }
    }

    /// Denning's working-set curve (the paper cites the working-set model
    /// \[9\]): for each window length `tau`, the average number of distinct
    /// objects referenced in any `tau` consecutive references. Returns
    /// `ws(tau)` for `tau` in `1..=max_tau`.
    ///
    /// The curve's knee tells an application designer "the optimal amount
    /// of resources" (§1) to request for this datapath.
    pub fn working_set_curve(&self, max_tau: usize) -> Vec<f64> {
        let refs: Vec<ObjectId> = self
            .elements
            .iter()
            .flat_map(|e| e.referenced().collect::<Vec<_>>())
            .collect();
        let n = refs.len();
        let mut curve = Vec::with_capacity(max_tau);
        for tau in 1..=max_tau {
            if n == 0 {
                curve.push(0.0);
                continue;
            }
            let mut total = 0usize;
            let mut windows = 0usize;
            let mut counts: HashMap<ObjectId, usize> = HashMap::new();
            let mut distinct = 0usize;
            for i in 0..n {
                let c = counts.entry(refs[i]).or_insert(0);
                if *c == 0 {
                    distinct += 1;
                }
                *c += 1;
                if i + 1 >= tau {
                    total += distinct;
                    windows += 1;
                    let out = refs[i + 1 - tau];
                    // `out` entered the window `tau` references ago, so
                    // its count is always present.
                    if let Some(c) = counts.get_mut(&out) {
                        *c -= 1;
                        if *c == 0 {
                            distinct -= 1;
                        }
                    }
                }
            }
            if windows == 0 {
                // Stream shorter than the window: one partial window.
                curve.push(self.working_set().len() as f64);
            } else {
                curve.push(total as f64 / windows as f64);
            }
        }
        curve
    }

    /// Counts object-cache hits for a given capacity using the stack
    /// distances (hit iff distance < capacity). Returns `(hits, total)`.
    pub fn hit_count(&self, capacity: usize) -> (usize, usize) {
        let d = self.dependency_distances();
        let hits = d
            .iter()
            .filter(|(_, dist)| matches!(dist, Some(p) if *p < capacity))
            .count();
        (hits, d.len())
    }
}

impl FromIterator<GlobalConfigElement> for GlobalConfigStream {
    fn from_iter<T: IntoIterator<Item = GlobalConfigElement>>(iter: T) -> Self {
        GlobalConfigStream {
            elements: iter.into_iter().collect(),
        }
    }
}

/// Fluent construction of global configuration streams.
///
/// ```
/// use vlsi_object::{ObjectId, StreamBuilder};
///
/// let id = ObjectId;
/// let stream = StreamBuilder::new()
///     .chain(id(1), id(0))            // 0 -> 1
///     .chain2(id(3), id(1), id(2))    // (1, 2) -> 3
///     .steer(id(4), id(3), id(2))     // 3 -> 4 gated by predicate 2
///     .store(id(1001), id(4))         // data-port write
///     .build();
/// assert_eq!(stream.len(), 4);
/// assert_eq!(stream.elements()[3].src_rhs, Some(id(4)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct StreamBuilder {
    elements: Vec<GlobalConfigElement>,
}

impl StreamBuilder {
    /// An empty builder.
    pub fn new() -> StreamBuilder {
        StreamBuilder::default()
    }

    /// Adds a source-less element (requests the object into the working
    /// set).
    pub fn request(mut self, sink: ObjectId) -> StreamBuilder {
        self.elements.push(GlobalConfigElement::nullary(sink));
        self
    }

    /// Chains `src -> sink` (one-source element).
    pub fn chain(mut self, sink: ObjectId, src: ObjectId) -> StreamBuilder {
        self.elements.push(GlobalConfigElement::unary(sink, src));
        self
    }

    /// Chains `(lhs, rhs) -> sink` (two-source element).
    pub fn chain2(mut self, sink: ObjectId, lhs: ObjectId, rhs: ObjectId) -> StreamBuilder {
        self.elements
            .push(GlobalConfigElement::binary(sink, lhs, rhs));
        self
    }

    /// Chains a steering sink: `value -> sink` gated by `pred`.
    pub fn steer(mut self, sink: ObjectId, value: ObjectId, pred: ObjectId) -> StreamBuilder {
        self.elements
            .push(GlobalConfigElement::unary(sink, value).with_pred(pred));
        self
    }

    /// Chains a store-stream sink: `data` into the memory object's data
    /// (rhs) port, leaving the address port to the auto-increment stream.
    pub fn store(mut self, sink: ObjectId, data: ObjectId) -> StreamBuilder {
        self.elements.push(GlobalConfigElement {
            sink,
            src_lhs: None,
            src_rhs: Some(data),
            src_pred: None,
        });
        self
    }

    /// Finishes the stream.
    pub fn build(self) -> GlobalConfigStream {
        GlobalConfigStream {
            elements: self.elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u32) -> ObjectId {
        ObjectId(v)
    }

    #[test]
    fn element_constructors() {
        let e = GlobalConfigElement::binary(id(3), id(1), id(2)).with_pred(id(0));
        assert_eq!(e.sources().collect::<Vec<_>>(), vec![id(1), id(2), id(0)]);
        assert_eq!(
            e.referenced().collect::<Vec<_>>(),
            vec![id(3), id(1), id(2), id(0)]
        );
    }

    #[test]
    fn working_set_is_distinct_in_first_reference_order() {
        let s: GlobalConfigStream = [
            GlobalConfigElement::unary(id(1), id(0)),
            GlobalConfigElement::unary(id(2), id(1)),
            GlobalConfigElement::unary(id(1), id(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.working_set(), vec![id(1), id(0), id(2)]);
    }

    #[test]
    fn first_reference_is_compulsory_miss() {
        let s: GlobalConfigStream = [GlobalConfigElement::unary(id(1), id(0))]
            .into_iter()
            .collect();
        let d = s.dependency_distances();
        assert_eq!(d, vec![(id(1), None), (id(0), None)]);
    }

    #[test]
    fn repeated_reference_has_stack_distance() {
        // Reference order: 1, 0, 2, 1  -> when 1 recurs, {0, 2} intervene.
        let s: GlobalConfigStream = [
            GlobalConfigElement::unary(id(1), id(0)),
            GlobalConfigElement::unary(id(2), id(1)),
        ]
        .into_iter()
        .collect();
        let d = s.dependency_distances();
        assert_eq!(d[0], (id(1), None));
        assert_eq!(d[1], (id(0), None));
        assert_eq!(d[2], (id(2), None));
        assert_eq!(d[3], (id(1), Some(2)));
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let s: GlobalConfigStream = [GlobalConfigElement::unary(id(5), id(5))]
            .into_iter()
            .collect();
        let d = s.dependency_distances();
        assert_eq!(d[1], (id(5), Some(0)));
    }

    #[test]
    fn min_streaming_capacity_bounds_hits() {
        let s: GlobalConfigStream = [
            GlobalConfigElement::unary(id(1), id(0)),
            GlobalConfigElement::unary(id(2), id(1)),
            GlobalConfigElement::unary(id(0), id(2)),
            GlobalConfigElement::unary(id(1), id(0)),
        ]
        .into_iter()
        .collect();
        let c = s.min_streaming_capacity();
        let (hits, total) = s.hit_count(c);
        // At capacity C every non-compulsory reference hits.
        let compulsory = s.working_set().len();
        assert_eq!(hits, total - compulsory);
        // At a smaller capacity, some reuse must miss.
        if c > 1 {
            let (hits_small, _) = s.hit_count(c - 1);
            assert!(hits_small < hits);
        }
    }

    #[test]
    fn hit_count_monotone_in_capacity() {
        let s: GlobalConfigStream = (0..32)
            .map(|i| GlobalConfigElement::unary(id(i % 7), id((i + 3) % 7)))
            .collect();
        let mut last = 0;
        for c in 0..8 {
            let (h, _) = s.hit_count(c);
            assert!(h >= last, "hits must be monotone in capacity (inclusion)");
            last = h;
        }
    }

    #[test]
    fn working_set_curve_is_monotone_and_saturates() {
        let s: GlobalConfigStream = (0..40)
            .map(|i| GlobalConfigElement::unary(id(i % 5), id((i + 1) % 5)))
            .collect();
        let curve = s.working_set_curve(30);
        // Monotone non-decreasing in the window length.
        for w in curve.windows(2) {
            assert!(w[1] + 1e-9 >= w[0], "{curve:?}");
        }
        // Saturates at the total working set (5 distinct objects).
        assert!((curve[29] - 5.0).abs() < 0.5);
        // A window of 1 sees exactly one object.
        assert!((curve[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_curve_of_empty_stream() {
        assert_eq!(GlobalConfigStream::new().working_set_curve(3), vec![0.0; 3]);
    }

    #[test]
    fn local_config_builders() {
        let c = LocalConfig::with_imm(Operation::AddImm, Word(9));
        assert_eq!(c.op, Operation::AddImm);
        assert_eq!(c.imm, Word(9));
        assert_eq!(LocalConfig::op(Operation::Pass).imm, Word::ZERO);
    }
}
