//! Benchmark of the tsq query service: four wire-level workloads driven
//! through `tsq_lang::serve` over the binary protocol, every reply
//! checked against an in-process oracle, plus a traced run that times
//! each layer's public functions on the same generated inputs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload point --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`
//! runs the benchmark's own unit tests (stream reproducibility, span
//! self times, agreement with `BENCHMARK.json`).
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). The line
//! before it, prefixed `report:`, records the seed, the source
//! revision, `nproc` and the figures the gated metrics leave out.

mod e2e;
mod layers;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: tsq-perfbench --workload point|analytic|ingest|paged \
                     --seed <n> --seconds <n> --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The source revision, read from `.git` in the working directory
/// without running git; "unknown" outside a repository.
fn revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The stream is a pure function of (workload, seed): checked here,
    // on every run, before anything else.
    let reproducible = workload::self_test(args.workload, args.seed);
    if !reproducible {
        eprintln!("self-test: the statement stream is not a pure function of the seed");
    }
    let work = e2e::work_dir();
    let outcome = if args.trace {
        layers::run(args.workload, args.seed, args.seconds, &work)
    } else {
        e2e::run(args.workload, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);

    let mut report = vec![
        ("workload".to_string(), args.workload.name().to_string()),
        ("seed".to_string(), args.seed.to_string()),
        ("rev".to_string(), revision()),
        ("nproc".to_string(), nproc.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
    ];
    report.extend(outcome.report);
    let body: Vec<String> = report
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('"', "'")))
        .collect();
    println!("report: {{{}}}", body.join(", "));
    for m in &outcome.metrics {
        println!("  {:<34} {:>16} {}", m.name, stats::num(m.value), m.unit);
    }
    let correct = reproducible && outcome.failed == 0;
    println!(
        "{}",
        stats::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
