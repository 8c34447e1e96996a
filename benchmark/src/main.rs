//! The repo's end-to-end benchmark. One process runs one workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--repeat <n>] [--out <dir>]
//! benchmark compare <A.json> <B.json>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every instrument off;
//! `--trace 1` repeats the workload with spans (recorded here, around the
//! calls into each crate) and crate telemetry on, and reports the
//! per-layer metrics. The last line of stdout is one JSON object for the
//! driver; everything above it is for people. See README.md.

mod compare;
mod json;
mod loadgen;
mod metrics;
mod run;
mod sink;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Args, Outcome};
use workloads::{
    compile_large::CompileLarge, exec_stream::ExecStream, lane_sweep::LaneSweep,
    serve_closed::ServeClosed, serve_overload::ServeOverload,
};

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--repeat N] [--out DIR]\n       benchmark compare A.json B.json";

struct Cli {
    args: Args,
    repeat: u32,
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        args: Args {
            workload: String::new(),
            seed: 2012,
            seconds: 10.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::from("benchmark/out"),
        },
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.args.workload = value()?.clone(),
            "--seed" => cli.args.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad(flag))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                cli.args.seconds = s;
            }
            "--trace" => {
                cli.args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => cli.args.smoke = true,
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|_| bad(flag))?;
                if !(1..=16).contains(&cli.repeat) {
                    return Err("--repeat must be within 1..=16".into());
                }
            }
            "--out" => cli.args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&cli.args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(cli)
}

fn run_once(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "serve_closed" => run::run::<ServeClosed>(args),
        "serve_overload" => run::run::<ServeOverload>(args),
        "compile_large" => run::run::<CompileLarge>(args),
        "exec_stream" => run::run::<ExecStream>(args),
        "lane_sweep" => run::run::<LaneSweep>(args),
        other => unreachable!("parse_cli admitted workload {other}"),
    }
}

fn print_report(args: &Args, out: &Outcome) {
    let mode = if args.trace { "traced" } else { "untraced" };
    println!(
        "== {} ({mode}, seed {}, {} s{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.smoke { ", smoke" } else { "" }
    );
    let field = |k: &str| out.record.get(k).cloned().unwrap_or(Json::Null);
    println!(
        "rounds {}  ops_attempted {}  ops_failed {}  digest {}",
        field("rounds").to_line(),
        out.attempted,
        out.failed,
        field("digest").as_str().unwrap_or("")
    );
    println!("round_s {}", field("round_s").to_line());
    for (def, value) in &out.metrics {
        println!(
            "{:<34} {:>16.4} {:<10} [{}]",
            def.name,
            value,
            def.unit,
            def.domain.label()
        );
    }
    if !args.trace {
        // The workload's own simulated-domain results, so the untraced
        // run shows what the modelled machine did without a second run.
        if let Some(sim) = field("sim").as_obj() {
            for (k, v) in sim.iter().filter(|(k, _)| k.starts_with("sim.")) {
                let unit = metrics::lookup(k).map_or("", |d| d.unit);
                println!(
                    "{k:<34} {:>16.4} {unit:<10} [sim]",
                    v.as_f64().unwrap_or(0.0)
                );
            }
        }
        return;
    }
    println!(
        "layers by self time (fabric.tick contains the runtime/core/ap work of served jobs, \
         which runs inside the sink's tick):"
    );
    for row in field("layers").as_arr().unwrap_or(&[]) {
        println!(
            "  {:<10} {:>14.0} ns/round {:>5} permille",
            row.get("layer").and_then(Json::as_str).unwrap_or(""),
            row.get("self_ns_per_round")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            row.get("share_milli").and_then(Json::as_f64).unwrap_or(0.0),
        );
    }
    println!(
        "bounding_layer {}",
        field("bounding_layer").as_str().unwrap_or("")
    );
}

/// Replaces this run's entry in `<out>/results.json` (read, update, write
/// back — runs are sequential, one process each).
fn merge_results(args: &Args, record: Json) -> Result<(), String> {
    let path = args.out_dir.join("results.json");
    let mut runs = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text)? {
            Json::Obj(pairs) => pairs,
            _ => return Err(format!("{} is not a JSON object", path.display())),
        },
        Err(_) => Vec::new(),
    };
    let key = format!(
        "{}.{}",
        args.workload,
        if args.trace { "traced" } else { "untraced" }
    );
    match runs.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = record,
        None => runs.push((key, record)),
    }
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    std::fs::write(&path, Json::Obj(runs).to_pretty()).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let out = run_once(&cli.args);
    // Exactness self-check: the same seed again must give the same
    // simulated-domain results, counts and sampled digests.
    for again in 1..cli.repeat {
        let next = run_once(&cli.args);
        assert_eq!(
            next.fingerprint, out.fingerprint,
            "repeat {again} of seed {} is not identical",
            cli.args.seed
        );
        println!("repeat {again}: simulated-domain results and digests identical");
    }
    print_report(&cli.args, &out);
    if let Err(e) = merge_results(&cli.args, out.record.clone()) {
        eprintln!(
            "cannot update results.json in {}: {e}",
            cli.args.out_dir.display()
        );
        return ExitCode::from(1);
    }
    let line = Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", run::metrics_json(&out.metrics, false)),
    ]);
    println!("{}", line.to_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
