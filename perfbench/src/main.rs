//! Command line:
//!
//! ```text
//! perfbench --workload <route-250k|churn-2k|inflight-10k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host fingerprint, one outcome digest per kind, and as its
//! last line one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). Exits 1 if an output check
//! failed, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::{result_json, run, Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <route-250k|churn-2k|inflight-10k> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into());
    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into());
    println!(
        "fingerprint workload={} seed={} nproc={nproc} rustc=\"{rustc}\" rev={rev}",
        args.workload.name(),
        args.seed
    );
    let report = run(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &Sizes::full(),
    );
    for line in &report.log {
        println!("{line}");
    }
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if !report.correct() {
        eprintln!("perfbench: {} output check(s) failed", report.failed);
    }
    println!("{}", result_json(&report, args.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
