//! `benchmark compare A.json B.json` — applies the benchmark's own bounds
//! to two `results.json` files (A = parent, B = change).
//!
//! * Simulated-domain metrics, counts and digests must be **equal**.
//! * A host-domain end-to-end metric may be worse in B by at most its
//!   bound — unless its spread within a run (for `ops_per_s`, the
//!   distance between the estimates from the even and from the odd
//!   rounds; for `setup_s`, the interquartile range of its set-ups; in
//!   either file) is wider than the bound, in which case it is reported
//!   as **unresolved**, not as unchanged: the data cannot tell. The one
//!   exception is when every sample of B beats every sample of A.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, Domain, MetricDef, END_TO_END};
use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Within,
    Better,
    Unresolved,
    Regression,
    Mismatch,
}

/// One host metric in one file: its value and what is known of its
/// scatter.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    pub value: f64,
    /// Distance between the samples over the value; 0 when only one
    /// sample exists.
    pub spread: f64,
    pub min: f64,
    pub max: f64,
}

pub fn judge_host(def: &MetricDef, a: HostSample, b: HostSample) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (worse_by, b_dominates) = match def.better {
        Better::Higher => ((a.value - b.value) / a.value, b.min > a.max),
        Better::Lower => ((b.value - a.value) / a.value, b.max < a.min),
    };
    if a.spread.max(b.spread) > bound {
        return if b_dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn num(j: Option<&Json>) -> f64 {
    j.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Value and scatter of `def` in one untraced run record.
fn host_sample(run: &Json, def: &MetricDef) -> HostSample {
    let value = num(run
        .get("metrics")
        .and_then(|m| m.get(def.name)?.get("value")));
    let single = HostSample {
        value,
        spread: 0.0,
        min: value,
        max: value,
    };
    let samples = |key: &str| -> Vec<f64> {
        let arr = run.get(key).and_then(Json::as_arr).unwrap_or(&[]);
        arr.iter().filter_map(Json::as_f64).collect()
    };
    match def.name {
        "ops_per_s" => {
            let [even, odd] = samples("ops_per_s_halves")[..] else {
                return single;
            };
            HostSample {
                value,
                spread: (even - odd).abs() / value,
                min: even.min(odd),
                max: even.max(odd),
            }
        }
        "setup_s" => {
            let samples = samples("setup_s_samples");
            if samples.len() < 2 {
                return single;
            }
            let (q1, q3) = quartiles(&samples);
            HostSample {
                value,
                spread: (q3 - q1) / value,
                min: samples.iter().copied().fold(f64::INFINITY, f64::min),
                max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            }
        }
        _ => single,
    }
}

/// Every simulated-domain figure of a run record: the `sim` map, the
/// sim-domain metrics, the digest and the per-round operation counts.
fn exact_figures(run: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (k, v) in run.get("sim").and_then(Json::as_obj).unwrap_or(&[]) {
        out.push((format!("sim:{k}"), v.to_line()));
    }
    for (k, v) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        if v.get("domain").and_then(Json::as_str) == Some(Domain::Sim.label()) {
            out.push((format!("metric:{k}"), num(v.get("value")).to_string()));
        }
    }
    out.push((
        "digest".into(),
        run.get("digest").map_or_else(String::new, Json::to_line),
    ));
    let rounds = num(run.get("rounds"));
    out.push((
        "ops_per_round".into(),
        (num(run.get("ops_attempted")) / rounds).to_string(),
    ));
    out.push(("ops_failed".into(), num(run.get("ops_failed")).to_string()));
    out.sort();
    out
}

/// Compares two parsed results files; returns the printed rows and the
/// worst verdict.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, Verdict) {
    let mut rows = Vec::new();
    let mut worst = Verdict::Equal;
    let mut note = |rows: &mut Vec<String>, v: Verdict, line: String| {
        rows.push(format!("{:<11} {line}", format!("{v:?}").to_lowercase()));
        let rank = |v: Verdict| match v {
            Verdict::Equal | Verdict::Within | Verdict::Better => 0,
            Verdict::Unresolved => 1,
            Verdict::Regression | Verdict::Mismatch => 2,
        };
        if rank(v) > rank(worst) {
            worst = v;
        }
    };
    for (key, run_a) in a.as_obj().unwrap_or(&[]) {
        let Some(run_b) = b.get(key) else {
            note(
                &mut rows,
                Verdict::Mismatch,
                format!("{key}: missing from B"),
            );
            continue;
        };
        let (fa, fb) = (exact_figures(run_a), exact_figures(run_b));
        let moved: Vec<String> = fa
            .iter()
            .filter(|(k, v)| fb.iter().find(|(kb, _)| kb == k).map(|(_, vb)| vb) != Some(v))
            .map(|(k, _)| k.clone())
            .chain(
                fb.iter()
                    .filter(|(k, _)| !fa.iter().any(|(ka, _)| ka == k))
                    .map(|(k, _)| format!("{k} (new)")),
            )
            .collect();
        if moved.is_empty() {
            let line = format!("{key}: {} simulated-domain figures identical", fa.len());
            note(&mut rows, Verdict::Equal, line);
        } else {
            let line = format!(
                "{key}: simulated-domain figures moved: {}",
                moved.join(", ")
            );
            note(&mut rows, Verdict::Mismatch, line);
        }
        if run_a.get("traced") == Some(&Json::Bool(true)) {
            continue; // per-layer host times carry no bound
        }
        for def in END_TO_END.iter().filter(|d| d.domain == Domain::Host) {
            let (sa, sb) = (host_sample(run_a, def), host_sample(run_b, def));
            let verdict = judge_host(def, sa, sb);
            let line = format!(
                "{key}: {} {:.5} -> {:.5} {} ({:+.1} %, bound {:.0} %, spread {:.1} % / {:.1} %)",
                def.name,
                sa.value,
                sb.value,
                def.unit,
                (sb.value - sa.value) * 100.0 / sa.value,
                def.bound.unwrap_or(0.0) * 100.0,
                sa.spread * 100.0,
                sb.spread * 100.0,
            );
            note(&mut rows, verdict, line);
        }
    }
    (rows, worst)
}

pub fn compare_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (ja, jb) = match (load(a), load(b)) {
        (Ok(ja), Ok(jb)) => (ja, jb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (rows, worst) = compare(&ja, &jb);
    for row in rows {
        println!("{row}");
    }
    match worst {
        Verdict::Regression | Verdict::Mismatch => {
            println!("result: FAIL");
            ExitCode::from(1)
        }
        Verdict::Unresolved => {
            println!("result: no regression shown, but some host metrics are unresolved");
            ExitCode::SUCCESS
        }
        _ => {
            println!("result: ok");
            ExitCode::SUCCESS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops() -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == "ops_per_s").unwrap()
    }

    fn sample(value: f64, spread: f64) -> HostSample {
        HostSample {
            value,
            spread,
            min: value * (1.0 - spread),
            max: value * (1.0 + spread),
        }
    }

    #[test]
    fn host_metrics_get_their_bound() {
        // ops_per_s: higher is better, bound 10 %.
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.02), sample(95.0, 0.02)),
            Verdict::Within
        );
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.02), sample(85.0, 0.02)),
            Verdict::Regression
        );
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.02), sample(120.0, 0.02)),
            Verdict::Better
        );
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(
            judge_host(setup, sample(1.0, 0.05), sample(1.2, 0.05)),
            Verdict::Within
        );
        assert_eq!(
            judge_host(setup, sample(1.0, 0.05), sample(1.3, 0.05)),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.20), sample(99.0, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.02), sample(70.0, 0.30)),
            Verdict::Unresolved,
            "not even a big drop counts when the data cannot resolve it"
        );
        // ... unless every round of B beats every round of A.
        assert_eq!(
            judge_host(ops(), sample(100.0, 0.15), sample(200.0, 0.15)),
            Verdict::Better
        );
    }

    fn run(rate: f64, sojourn: f64, digest: &str) -> Json {
        Json::obj([
            ("traced", Json::Bool(false)),
            ("rounds", Json::from(4u64)),
            ("ops_attempted", Json::from(4096u64)),
            ("ops_failed", Json::from(0u64)),
            ("digest", Json::str(digest)),
            (
                "sim",
                Json::obj([("sim.sojourn_p99_ticks", Json::Num(sojourn))]),
            ),
            (
                "metrics",
                Json::obj([
                    (
                        "ops_per_s",
                        Json::obj([("value", Json::Num(rate)), ("domain", Json::str("host"))]),
                    ),
                    (
                        "goodput_milli",
                        Json::obj([("value", Json::Num(1000.0)), ("domain", Json::str("sim"))]),
                    ),
                ]),
            ),
            (
                "ops_per_s_halves",
                Json::Arr(vec![Json::Num(rate * 0.99), Json::Num(rate * 0.995)]),
            ),
        ])
    }

    #[test]
    fn sim_figures_must_be_equal() {
        let file = |r: Json| Json::obj([("serve_closed.untraced", r)]);
        let a = file(run(640.0, 143.0, "aa"));
        assert_eq!(
            compare(&a, &file(run(650.0, 143.0, "aa"))).1,
            Verdict::Equal
        );
        assert_eq!(
            compare(&a, &file(run(640.0, 144.0, "aa"))).1,
            Verdict::Mismatch
        );
        assert_eq!(
            compare(&a, &file(run(640.0, 143.0, "ab"))).1,
            Verdict::Mismatch
        );
        assert_eq!(
            compare(&a, &file(run(500.0, 143.0, "aa"))).1,
            Verdict::Regression
        );
        assert_eq!(compare(&a, &Json::obj::<&str>([])).1, Verdict::Mismatch);
    }
}
