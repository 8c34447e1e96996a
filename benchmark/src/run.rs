//! The measurement harness: set-up, rounds for the time budget, the
//! untraced/traced split, and the assembly of every metric by name.
//!
//! # How a host rate is estimated
//!
//! The sandbox this runs in shares cores and caches with other tenants:
//! for seconds at a time — sometimes for a whole run — throughput-bound
//! code runs 1.2–1.6× slower, while latency-bound chains do not (so it is
//! contention, not clock speed, and a calibration loop cannot divide it
//! out). A median over rounds then describes the neighbours.
//!
//! Every round of a workload repeats the same work, and marks the same
//! points of it ([`Laps`]). Segment `k` is therefore the same computation
//! in every round, and interference only ever adds time to it. The time a
//! round takes on an undisturbed machine is estimated as the sum over
//! segments of each segment's **fastest replay**; a run gives every
//! segment as many chances to run undisturbed as it has rounds.
//! `ops_per_s` is a round's operations over that time. The estimate is
//! made twice more, from the even and from the odd rounds alone, and the
//! distance between those two is recorded as its uncertainty. The plain
//! per-round durations (n, min, median, p90, MAD) are recorded too.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Domain, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, summarize};
use crate::trace::{attribute, spans_to_json, Attribution, Laps, Tracer};
use crate::workloads::{peak_rss_kb, Fingerprint, Round, Workload};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where the traced run writes `trace_<workload>.json`.
    pub out_dir: std::path::PathBuf,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds every phase runs even when the budget is already spent (two per
/// half, so both halves of the uncertainty estimate see a replay).
const MIN_ROUNDS: usize = 4;

/// The rounds of one phase (untraced, or traced).
struct Phase {
    first: Round,
    round_s: Vec<f64>,
    /// Per segment, the fastest replay over all rounds, over the even
    /// rounds and over the odd rounds.
    fastest: [Vec<f64>; 3],
    /// Spans recorded when round 0 ended (the trace file stops there).
    spans_after_first: usize,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Estimated duration of a round on an undisturbed machine, from all
    /// rounds and from each half of them.
    fn undisturbed_s(&self) -> [f64; 3] {
        [0, 1, 2].map(|i| self.fastest[i].iter().sum())
    }
}

fn fold_fastest(fastest: &mut Vec<f64>, segments: &[f64]) {
    if fastest.is_empty() {
        fastest.extend_from_slice(segments);
        return;
    }
    assert_eq!(
        fastest.len(),
        segments.len(),
        "a round marked a different number of segments than the one before"
    );
    for (best, s) in fastest.iter_mut().zip(segments) {
        *best = best.min(*s);
    }
}

fn measure<W: Workload>(w: &mut W, seconds: f64, tracer: &Tracer) -> Phase {
    let start = Instant::now();
    let mut phase = Phase {
        first: Round::default(),
        round_s: Vec::new(),
        fastest: [Vec::new(), Vec::new(), Vec::new()],
        spans_after_first: 0,
        attempted: 0,
        failed: 0,
    };
    loop {
        let index = phase.round_s.len();
        let mut laps = Laps::start();
        let round = w.round(index as u64, tracer, &mut laps);
        let segments = laps.finish();
        phase.round_s.push(segments.iter().sum());
        fold_fastest(&mut phase.fastest[0], &segments);
        fold_fastest(&mut phase.fastest[1 + index % 2], &segments);
        phase.attempted += round.attempted;
        phase.failed += round.failed;
        if index == 0 {
            phase.spans_after_first = tracer.len();
            phase.first = round;
        } else {
            // Every round replays round 0, so this is a free exactness
            // check: the simulator must be a pure function of its inputs.
            assert_eq!(
                round.exact(),
                phase.first.exact(),
                "round {index} diverged from round 0"
            );
        }
        if start.elapsed().as_secs_f64() >= seconds && index + 1 >= MIN_ROUNDS {
            return phase;
        }
    }
}

/// One finished run: what the driver's last line needs, plus everything
/// `results.json` records.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of this mode, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// The full record for `results.json`.
    pub record: Json,
    /// Simulated-domain results, counts and digest of round 0, for
    /// `--repeat` comparisons.
    pub fingerprint: Fingerprint,
}

pub fn run<W: Workload>(args: &Args) -> Outcome {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

fn end_to_end(first: &Round, setup_s: f64, ops_per_s: f64) -> Vec<(&'static MetricDef, f64)> {
    END_TO_END
        .iter()
        .map(|def| {
            let value = match def.name {
                "setup_s" => setup_s,
                "peak_rss_mb" => peak_rss_kb() as f64 / 1024.0,
                "ops_per_s" => ops_per_s,
                "goodput_milli" => first.goodput_milli as f64,
                "sim_cycles_per_dataset" => first.sim_cycles as f64 / first.datasets.max(1) as f64,
                other => unreachable!("no source for end-to-end metric {other}"),
            };
            (def, value)
        })
        .collect()
}

fn run_untraced<W: Workload>(args: &Args) -> Outcome {
    let off = Tracer::disabled();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take()); // one instance alive at a time, as in a real start
        let t = Instant::now();
        w = Some(W::setup(args.seed, args.smoke, &off));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUPS > 0");
    let phase = measure(&mut w, args.seconds, &off);

    let ops_per_round = phase.first.attempted as f64;
    let [rate, rate_even, rate_odd] = phase.undisturbed_s().map(|s| ops_per_round / s);
    let metrics = end_to_end(&phase.first, median(&setups), rate);

    let mut record = base_record(args, &phase, &metrics);
    let halves = Json::Arr(vec![Json::Num(rate_even), Json::Num(rate_odd)]);
    push(&mut record, "ops_per_s_halves", halves);
    let samples = setups.iter().map(|s| Json::Num(*s)).collect();
    push(&mut record, "setup_s_samples", Json::Arr(samples));
    Outcome {
        correct: phase.failed == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
        record,
        fingerprint: phase.first.fingerprint(),
    }
}

fn run_traced<W: Workload>(args: &Args) -> Outcome {
    // Phase A: untraced rounds in the same process, so the cost of
    // looking is a ratio of two estimates made seconds apart.
    let off = Tracer::disabled();
    let mut plain = W::setup(args.seed, args.smoke, &off);
    let a = measure(&mut plain, args.seconds / 2.0, &off);
    drop(plain);

    // Phase B: the same work with spans and crate telemetry on.
    let tracer = Tracer::enabled(1 << 20);
    let mut traced = W::setup(args.seed, args.smoke, &tracer);
    let setup_spans = tracer.len();
    let b = measure(&mut traced, args.seconds / 2.0, &tracer);
    drop(traced);

    // The traced run must reproduce every simulated-domain figure of the
    // untraced run exactly (it only adds the counts telemetry carries).
    for (name, value) in &a.first.sim {
        assert_eq!(
            b.first.sim.get(name),
            Some(value),
            "traced run moved sim metric {name}"
        );
    }
    assert_eq!(
        a.first.exact().1,
        b.first.exact().1,
        "traced run moved the outputs"
    );

    let spans = tracer.spans();
    let in_setup = attribute(&spans, 0..setup_spans);
    let in_rounds = attribute(&spans, setup_spans..spans.len());
    let rounds = b.round_s.len() as f64;
    let wall_ns: f64 = b.round_s.iter().sum::<f64>() * 1e9;
    let residual_milli = (wall_ns - in_rounds.covered_ns as f64).max(0.0) * 1000.0 / wall_ns;
    let (plain_s, traced_s) = (a.undisturbed_s()[0], b.undisturbed_s()[0]);
    let overhead_milli = (traced_s - plain_s) * 1000.0 / plain_s;

    // `_ns` = busy time in one set-up plus one average traced round.
    let busy = |span: &str, own: bool| {
        let of = |a: &Attribution| if own { a.self_ns(span) } else { a.total_ns(span) } as f64;
        of(&in_setup) + of(&in_rounds) / rounds
    };
    let mut values: BTreeMap<&'static str, f64> = b.first.sim.clone();
    values.extend(b.first.host.iter().map(|(k, v)| (*k, *v)));
    values.insert("telemetry.overhead_milli", overhead_milli);
    values.insert("telemetry.spans", spans.len() as f64);
    values.insert("trace.residual_milli", residual_milli);
    let firings = values.get("ap.firings").copied().unwrap_or(0.0);
    if firings > 0.0 {
        let per_firing = busy("ap.execute_batch", false) / firings;
        values.insert("ap.ns_per_firing", per_firing);
    }
    let metrics: Vec<(&'static MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|def| {
            let value = match (values.get(def.name), def.name.strip_suffix("_ns")) {
                (Some(v), _) => *v,
                (None, Some("ingest.service_tick_self")) => busy("ingest.service_tick", true),
                (None, Some(span)) if def.domain == Domain::Host => busy(span, false),
                _ => 0.0,
            };
            (def, value)
        })
        .collect();

    let total_self: u64 = in_rounds.by_layer.iter().map(|(_, ns)| ns).sum();
    let layers = in_rounds.by_layer.iter().map(|(layer, ns)| {
        Json::obj([
            ("layer", Json::str(layer.as_str())),
            ("self_ns_per_round", Json::Num(*ns as f64 / rounds)),
            (
                "share_milli",
                Json::Num((*ns * 1000 / total_self.max(1)) as f64),
            ),
        ])
    });
    let span_rows = |a: &Attribution, per: f64| {
        let row = |(name, calls, total, own): &(&'static str, u64, u64, u64)| {
            Json::obj([
                ("span", Json::str(*name)),
                ("calls", Json::Num(*calls as f64 / per)),
                ("total_ns", Json::Num(*total as f64 / per)),
                ("self_ns", Json::Num(*own as f64 / per)),
            ])
        };
        Json::Arr(a.by_name.iter().map(row).collect())
    };
    let bounding = in_rounds.by_layer.first().map_or("", |(l, _)| l.as_str());

    let mut record = base_record(args, &b, &metrics);
    push(&mut record, "untraced_round_s", summary_json(&a.round_s));
    push(
        &mut record,
        "untraced_undisturbed_round_s",
        Json::Num(plain_s),
    );
    push(&mut record, "bounding_layer", Json::str(bounding));
    push(&mut record, "layers", Json::Arr(layers.collect()));
    push(
        &mut record,
        "spans_per_round",
        span_rows(&in_rounds, rounds),
    );
    push(&mut record, "spans_in_setup", span_rows(&in_setup, 1.0));

    // The file holds the set-up and the first traced round: later rounds
    // repeat it, and the tables above already average over all of them.
    let path = args.out_dir.join(format!("trace_{}.json", args.workload));
    let file = spans_to_json(&args.workload, &spans[..b.spans_after_first]);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, file.to_line()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));

    Outcome {
        correct: a.failed + b.failed == 0,
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        metrics,
        record,
        fingerprint: a.first.fingerprint(),
    }
}

fn summary_json(values: &[f64]) -> Json {
    let s = summarize(values);
    let (q1, q3) = quartiles(values);
    Json::obj([
        ("n", Json::from(s.n as u64)),
        ("min", Json::Num(s.min)),
        ("median", Json::Num(s.median)),
        ("p90", Json::Num(s.p90)),
        ("mad", Json::Num(s.mad)),
        ("tail_permille", Json::from(s.tail_permille)),
        ("tail", Json::Num(s.tail)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
    ])
}

fn push(record: &mut Json, key: &str, value: Json) {
    if let Json::Obj(pairs) = record {
        pairs.push((key.to_string(), value));
    }
}

pub fn metrics_json(metrics: &[(&'static MetricDef, f64)], with_domain: bool) -> Json {
    let entry = |(def, value): &(&'static MetricDef, f64)| {
        let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(def.unit))];
        if with_domain {
            fields.push(("domain", Json::str(def.domain.label())));
        }
        (def.name.to_string(), Json::obj(fields))
    };
    Json::Obj(metrics.iter().map(entry).collect())
}

fn base_record(args: &Args, phase: &Phase, metrics: &[(&'static MetricDef, f64)]) -> Json {
    let sim = phase.first.sim.iter();
    Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("traced", Json::Bool(args.trace)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("rounds", Json::from(phase.round_s.len() as u64)),
        (
            "segments_per_round",
            Json::from(phase.fastest[0].len() as u64),
        ),
        ("ops_attempted", Json::from(phase.attempted)),
        ("ops_failed", Json::from(phase.failed)),
        ("metrics", metrics_json(metrics, true)),
        ("round_s", summary_json(&phase.round_s)),
        ("undisturbed_round_s", Json::Num(phase.undisturbed_s()[0])),
        (
            "sim",
            Json::Obj(sim.map(|(k, v)| (k.to_string(), Json::Num(*v))).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", phase.first.digest))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_replay_is_kept_per_segment() {
        let mut fastest = Vec::new();
        fold_fastest(&mut fastest, &[3.0, 1.0, 2.0]);
        fold_fastest(&mut fastest, &[2.0, 5.0, 2.5]);
        fold_fastest(&mut fastest, &[4.0, 0.5, 9.0]);
        assert_eq!(fastest, [2.0, 0.5, 2.0]);
        // The estimate (4.5) undercuts every single round (6, 9.5, 13.5):
        // no round had all three segments undisturbed, the run did.
        assert_eq!(fastest.iter().sum::<f64>(), 4.5);
    }

    #[test]
    #[should_panic(expected = "different number of segments")]
    fn rounds_must_mark_the_same_segments() {
        let mut fastest = vec![1.0, 2.0];
        fold_fastest(&mut fastest, &[1.0]);
    }
}
