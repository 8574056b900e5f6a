//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one line per metric, then the result object as the last line
//! of standard output. Failed checks, the guard line and (traced) the
//! spans with their per-name totals go to standard error.

use std::process::ExitCode;

use perfbench::spans::{summary, to_json_lines};
use perfbench::workloads::{Sizes, Workload};
use perfbench::Config;

const USAGE: &str = "usage: perfbench --workload <talos|switchless_loop|fleet|campaign> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                seconds = Some(v);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
        ledger_work: 1.0,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    if cfg.trace {
        eprint!("{}", to_json_lines(&outcome.spans));
        eprint!("{}", summary(&outcome.spans));
    }
    eprintln!("guard: {}", outcome.guard_line(cfg.workload, cfg.seed));
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    for m in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
