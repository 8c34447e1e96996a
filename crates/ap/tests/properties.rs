//! Cross-layer property tests for the adaptive processor.

use proptest::prelude::*;
use vlsi_ap::{AdaptiveProcessor, ApConfig, ObjectStack, ReferenceOutcome};
use vlsi_object::{
    BoundObject, GlobalConfigElement, GlobalConfigStream, LocalConfig, LogicalObject, ObjectId,
    Operation, Word,
};

fn bound(id: u32) -> BoundObject {
    BoundObject::bind(LogicalObject::compute(
        ObjectId(id),
        LocalConfig::op(Operation::Pass),
    ))
}

proptest! {
    /// The hardware stack reports exactly the Mattson stack distances that
    /// the analytic model (`GlobalConfigStream::dependency_distances`)
    /// predicts for the same reference trace.
    #[test]
    fn stack_matches_mattson_distances(trace in prop::collection::vec(0u32..10, 1..100)) {
        // Analytic: build a degenerate stream with one reference per element.
        // referenced() yields sink then source; use self-loops to make each
        // element contribute its sink reference first, then drop the
        // duplicate by using nullary elements instead.
        let stream: GlobalConfigStream = trace
            .iter()
            .map(|&id| GlobalConfigElement::nullary(ObjectId(id)))
            .collect();
        let analytic = stream.dependency_distances();

        // Hardware: unbounded stack (capacity >= distinct IDs).
        let mut stack = ObjectStack::new(16);
        for (i, &id) in trace.iter().enumerate() {
            match stack.reference(ObjectId(id)) {
                ReferenceOutcome::Hit { distance } => {
                    prop_assert_eq!(analytic[i], (ObjectId(id), Some(distance)));
                }
                ReferenceOutcome::Miss => {
                    prop_assert_eq!(analytic[i], (ObjectId(id), None));
                    stack.insert_top(bound(id));
                }
            }
        }
    }

    /// Inclusion property at the processor level: a bigger array never
    /// misses more in scalar (virtual-hardware) mode.
    #[test]
    fn scalar_misses_monotone_in_capacity(
        chain in prop::collection::vec((0u32..12, 0u32..12), 1..60)
    ) {
        let stream: GlobalConfigStream = chain
            .iter()
            .map(|&(a, b)| GlobalConfigElement::unary(ObjectId(a), ObjectId(b)))
            .collect();
        let mut misses = Vec::new();
        for capacity in [2usize, 4, 8, 16] {
            let mut p = AdaptiveProcessor::new(ApConfig {
                compute_objects: capacity,
                ..ApConfig::default()
            });
            p.install((0..12u32).map(|i| {
                LogicalObject::compute(ObjectId(i), LocalConfig::op(Operation::Pass))
            }))
            .unwrap();
            p.execute_scalar(&stream).unwrap();
            misses.push(p.metrics().object_misses);
        }
        for w in misses.windows(2) {
            prop_assert!(w[1] <= w[0], "misses must not grow with capacity: {misses:?}");
        }
    }

    /// Streaming execution and scalar execution — two evaluators that
    /// share no code — compute the same value at every tap of a
    /// generated DAG: constants, a random mix of unary and binary
    /// operations whose sources are any earlier nodes (so nodes fan out
    /// to several consumers and several taps survive), then one
    /// `SteerTrue`/`SteerFalse`/`Merge` diamond over three of those
    /// nodes and a consumer of the merged value.
    #[test]
    fn streaming_equals_scalar_on_dags(
        consts in prop::collection::vec(0u64..1000, 2..4),
        ops in prop::collection::vec((0usize..10, 0usize..64, 0usize..64, 1u64..10), 1..8),
        diamond in (0usize..64, 0usize..64, 0usize..64, 0usize..64),
    ) {
        let unary = [Operation::AddImm, Operation::MulImm, Operation::INot, Operation::Pass];
        let binary = [
            Operation::IAdd, Operation::ISub, Operation::IMul,
            Operation::IXor, Operation::IMin, Operation::ICmpLt,
        ];
        let mut objects: Vec<LogicalObject> = Vec::new();
        let mut elements: Vec<GlobalConfigElement> = Vec::new();
        let mut node = |op: Operation, imm: u64| {
            objects.push(LogicalObject::compute(
                ObjectId(objects.len() as u32),
                LocalConfig::with_imm(op, Word(imm)),
            ));
            ObjectId(objects.len() as u32 - 1)
        };
        for &v in &consts {
            node(Operation::Const, v);
        }
        for &(op_idx, a, b, imm) in &ops {
            // Sources are any of the nodes built so far.
            let n = consts.len() + elements.len();
            let (a, b) = (ObjectId((a % n) as u32), ObjectId((b % n) as u32));
            if op_idx < unary.len() {
                let sink = node(unary[op_idx], imm);
                elements.push(GlobalConfigElement::unary(sink, a));
            } else {
                let sink = node(binary[op_idx - unary.len()], 0);
                elements.push(GlobalConfigElement::binary(sink, a, b));
            }
        }
        // if (p > q) merged = x else merged = y; out = merged + 1.
        let n = consts.len() + ops.len();
        let pick = |k: usize| ObjectId((k % n) as u32);
        let (x, y, p, q) = (pick(diamond.0), pick(diamond.1), pick(diamond.2), pick(diamond.3));
        let cmp = node(Operation::ICmpGt, 0);
        let taken = node(Operation::SteerTrue, 0);
        let other = node(Operation::SteerFalse, 0);
        let merged = node(Operation::Merge, 0);
        let out = node(Operation::AddImm, 1);
        elements.extend([
            GlobalConfigElement::binary(cmp, p, q),
            GlobalConfigElement::unary(taken, x).with_pred(cmp),
            GlobalConfigElement::unary(other, y).with_pred(cmp),
            GlobalConfigElement::binary(merged, taken, other),
            GlobalConfigElement::unary(out, merged),
        ]);
        let stream: GlobalConfigStream = elements.into_iter().collect();

        // Streaming run (channels to spare: routing is not under test).
        let mut p1 = AdaptiveProcessor::new(ApConfig { channels: 64, ..ApConfig::default() });
        p1.install(objects.clone()).unwrap();
        p1.configure(stream.clone()).unwrap();
        let report = p1.execute(1, 1_000_000).unwrap();

        // Scalar run.
        let mut p2 = AdaptiveProcessor::new(ApConfig::default());
        p2.install(objects).unwrap();
        let values = p2.execute_scalar(&stream).unwrap();
        prop_assert!(report.taps.contains_key(&out));
        for (tap, streamed) in &report.taps {
            prop_assert_eq!(streamed, &vec![values[tap]], "tap {}", tap);
        }
    }

    /// Configure → release → configure is stable: the second configuration
    /// never misses (objects stay cached) and establishes the same routes.
    #[test]
    fn reconfiguration_hits_cache(n in 2usize..10) {
        let mut p = AdaptiveProcessor::new(ApConfig::default());
        p.install((0..n as u32).map(|i| {
            LogicalObject::compute(
                ObjectId(i),
                LocalConfig::with_imm(
                    if i == 0 { Operation::Const } else { Operation::AddImm },
                    Word(1),
                ),
            )
        }))
        .unwrap();
        let stream: GlobalConfigStream = (1..n as u32)
            .map(|i| GlobalConfigElement::unary(ObjectId(i), ObjectId(i - 1)))
            .collect();
        let first = p.configure(stream.clone()).unwrap();
        prop_assert_eq!(first.misses as usize, n);
        let second = p.configure(stream).unwrap();
        prop_assert_eq!(second.misses, 0);
        prop_assert_eq!(second.routes, first.routes);
    }
}
