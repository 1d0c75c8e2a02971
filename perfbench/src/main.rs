//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if
//! any operation failed and 2 on bad arguments.

use std::process::ExitCode;

use perfbench::bench;
use perfbench::gen::Workload;
use perfbench::report::json_line;

const USAGE: &str = "usage: perfbench --workload <read-uniform|read-hot|write-dynamic> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| (1..=60).contains(s));
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
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
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = bench::run(args.workload, args.seed, args.seconds, args.trace);
    for line in &outcome.notes {
        println!("{line}");
    }
    println!("{}", json_line(&outcome.tallies, &outcome.metrics));
    let total = outcome.tallies.total();
    if total.failed > 0 || outcome.metrics.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
