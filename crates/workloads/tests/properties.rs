//! Property-based tests for the workload toolchain.

use proptest::prelude::*;
use std::collections::HashMap;
use vlsi_object::{GlobalConfigElement, GlobalConfigStream, ObjectId};
use vlsi_prng::Prng;
use vlsi_workloads::{assemble, disassemble, optimize_stream, RandomDatapath};

/// The optimizer as it stood before the slot tables — dependencies,
/// readers and recency in `HashMap`s keyed by `ObjectId`, every ready
/// element re-scored through the map on every pick. Kept verbatim as the
/// oracle for `slot_tables_match_the_hashmap_reference`.
fn reference_optimize_stream(stream: &GlobalConfigStream) -> GlobalConfigStream {
    fn pick(
        ready: &[usize],
        elements: &[GlobalConfigElement],
        recency: &HashMap<ObjectId, usize>,
    ) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        let score = |j: usize| -> usize {
            elements[j]
                .referenced()
                .filter_map(|id| recency.get(&id).copied())
                .max()
                .unwrap_or(0)
        };
        let mut best = 0;
        let mut best_score = score(ready[0]);
        for (p, &j) in ready.iter().enumerate().skip(1) {
            let s = score(j);
            if s > best_score {
                best = p;
                best_score = s;
            }
        }
        Some(best)
    }
    let elements = stream.elements();
    let n = elements.len();
    if n <= 1 {
        return stream.clone();
    }
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut last_write: HashMap<ObjectId, usize> = HashMap::new();
    let mut readers_since_write: HashMap<ObjectId, Vec<usize>> = HashMap::new();
    for (j, e) in elements.iter().enumerate() {
        for src in e.sources() {
            if let Some(&i) = last_write.get(&src) {
                deps[j].push(i);
            }
            readers_since_write.entry(src).or_default().push(j);
        }
        if let Some(&i) = last_write.get(&e.sink) {
            deps[j].push(i);
        }
        if let Some(readers) = readers_since_write.remove(&e.sink) {
            for i in readers {
                if i != j {
                    deps[j].push(i);
                }
            }
        }
        last_write.insert(e.sink, j);
    }
    let mut pending: Vec<usize> = deps.iter().map(|d| d.len()).collect();
    let mut dependants: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (j, d) in deps.iter().enumerate() {
        for &i in d {
            dependants[i].push(j);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&j| pending[j] == 0).collect();
    let mut out = Vec::with_capacity(n);
    let mut recency: HashMap<ObjectId, usize> = HashMap::new();
    let mut clock = 0usize;
    while let Some(pos) = pick(&ready, elements, &recency) {
        let j = ready.remove(pos);
        out.push(elements[j]);
        for id in elements[j].referenced() {
            clock += 1;
            recency.insert(id, clock);
        }
        for &k in &dependants[j] {
            pending[k] -= 1;
            if pending[k] == 0 {
                ready.push(k);
            }
        }
    }
    assert_eq!(out.len(), n);
    GlobalConfigStream::from_elements(out)
}

/// A `RandomDatapath` stream dressed up with everything an element can
/// carry: second sources (one time in three the *same* source again),
/// predicate sources, and ids spread by `id(k)`. Sinks repeat, so
/// redefinitions — and elements reading their own sink — come for free.
fn dressed_stream(gen: &RandomDatapath, id: impl Fn(u32) -> ObjectId) -> GlobalConfigStream {
    let mut rng = Prng::seed_from_u64(gen.seed ^ 0x0d7e_55ed);
    gen.stream()
        .elements()
        .iter()
        .map(|e| {
            let lhs = e.src_lhs.expect("RandomDatapath emits unary elements").0;
            let mut any = || rng.gen_range(0..gen.n_objects);
            let rhs = match any() % 3 {
                0 => None,
                1 => Some(lhs),
                _ => Some(any()),
            };
            let pred = (any() % 4 == 0).then(&mut any);
            GlobalConfigElement {
                sink: id(e.sink.0),
                src_lhs: Some(id(lhs)),
                src_rhs: rhs.map(&id),
                src_pred: pred.map(&id),
            }
        })
        .collect()
}

/// Reference semantics of a stream under scalar evaluation, abstracted to
/// "which write does each read observe": replay the stream, recording for
/// every element the index of the producing element of each source.
fn read_write_pairs(stream: &GlobalConfigStream) -> Vec<(usize, ObjectId, Option<usize>)> {
    let mut last_write: HashMap<ObjectId, usize> = HashMap::new();
    let mut pairs = Vec::new();
    // Pair each element with a stable identity: its (sink, occurrence #).
    let mut occurrence: HashMap<ObjectId, usize> = HashMap::new();
    for e in stream.elements() {
        let occ = occurrence.entry(e.sink).or_insert(0);
        let my_id = *occ;
        *occ += 1;
        for src in e.sources() {
            pairs.push((my_id, src, last_write.get(&src).copied()));
        }
        let idx = pairs.len(); // unique, increasing
        last_write.insert(e.sink, idx);
    }
    pairs
}

proptest! {
    /// The optimizer never changes which write each read observes —
    /// the dataflow semantics are order-independent beyond that.
    #[test]
    fn optimizer_preserves_read_write_matching(
        elems in prop::collection::vec((0u32..8, 0u32..8), 1..50)
    ) {
        let stream: GlobalConfigStream = elems
            .iter()
            .map(|&(sink, src)| GlobalConfigElement::unary(ObjectId(sink), ObjectId(src)))
            .collect();
        let optimized = optimize_stream(&stream);
        prop_assert_eq!(optimized.len(), stream.len());
        // The abstract read-matching must agree element-for-element when
        // elements are keyed by (sink, occurrence).
        let mut a = read_write_pairs(&stream);
        let mut b = read_write_pairs(&optimized);
        // Writes are renumbered by position; compare only the *presence*
        // pattern: for each (sink-occurrence, source), whether it read an
        // initial value (None) or some prior write (Some). A full check
        // (equality of producing occurrence) runs in the integration
        // tests against the live scalar engine.
        let collapse = |v: &mut Vec<(usize, ObjectId, Option<usize>)>| {
            v.iter()
                .map(|&(o, s, w)| (o, s, w.is_some()))
                .collect::<Vec<_>>()
        };
        let mut ca = collapse(&mut a);
        let mut cb = collapse(&mut b);
        ca.sort();
        cb.sort();
        prop_assert_eq!(ca, cb);
    }

    /// The slot-table optimizer emits the stream the `HashMap` optimizer
    /// emitted, element for element — same dependencies, same ready-list
    /// order, same strict-greater tie rule — at every locality, with
    /// redefinitions, predicate sources and repeated sources, whether the
    /// ids are the dense `0..n` or sparse.
    #[test]
    fn slot_tables_match_the_hashmap_reference(
        seed: u64,
        n_objects in 2u32..24,
        n_elements in 0usize..90,
        locality_pct in 0u32..=100,
    ) {
        let gen = RandomDatapath {
            n_objects,
            n_elements,
            locality: f64::from(locality_pct) / 100.0,
            seed,
        };
        let spreads: [fn(u32) -> ObjectId; 3] = [
            ObjectId,
            |k| ObjectId(1000 + k),
            |k| ObjectId(1000 + 97 * k),
        ];
        for id in spreads {
            let stream = dressed_stream(&gen, id);
            let got = optimize_stream(&stream);
            prop_assert_eq!(got.elements(), reference_optimize_stream(&stream).elements());
        }
    }

    /// Optimization is idempotent in effect: a second pass never makes
    /// the mean dependency distance worse.
    #[test]
    fn optimizer_is_stable(seed: u64) {
        let gen = RandomDatapath {
            n_objects: 12,
            n_elements: 60,
            locality: 0.4,
            seed,
        };
        let once = optimize_stream(&gen.stream());
        let twice = optimize_stream(&once);
        let d1 = RandomDatapath::mean_dependency_distance(&once);
        let d2 = RandomDatapath::mean_dependency_distance(&twice);
        prop_assert!(d2 <= d1 + 1e-9, "second pass regressed: {d2} > {d1}");
    }

    /// Any generated workload disassembles to text that reassembles to
    /// the identical program.
    #[test]
    fn ocode_roundtrip(seed: u64, n in 2u32..20, len in 1usize..60) {
        let gen = RandomDatapath {
            n_objects: n,
            n_elements: len,
            locality: 0.5,
            seed,
        };
        let objects = gen.objects();
        let stream = gen.stream();
        let text = disassemble(&objects, &stream);
        let (objects2, stream2) = assemble(&text).unwrap();
        prop_assert_eq!(objects, objects2);
        prop_assert_eq!(stream, stream2);
    }

    /// The assembler never panics on arbitrary input — it returns a
    /// structured error with a line number.
    #[test]
    fn assembler_is_total(text in "[ -~\n]{0,200}") {
        match assemble(&text) {
            Ok(_) => {}
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}
