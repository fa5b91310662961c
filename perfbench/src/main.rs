//! `perfbench`: the wall-clock benchmark of the DBTF pipeline.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload (see `README.md`) and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A failed correctness gate prints the result
//! with `"correct": false` and exits with status 1.
//!
//! `perfbench worker --connect ADDR --id N --incarnation K` is the
//! networked backend's worker process; the benchmark re-runs itself that
//! way for the `cp-proxy-mmap-net` workload.

mod affinity;
mod backend;
mod gates;
mod host;
mod pipeline;
mod report;
mod sampler;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
                     workloads: cp-planted-ram, cp-proxy-mmap-net, serve-zipf-reload";

/// Value of `--name` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<pipeline::Options, String> {
    let get = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let name = get("--workload")?;
    let workload = workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(pipeline::Options {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn worker(args: &[String]) -> ExitCode {
    let parsed = (|| -> Result<_, String> {
        let addr = flag(args, "--connect").ok_or("missing --connect")?;
        let addr = addr.parse().map_err(|e| format!("--connect: {e}"))?;
        let id = flag(args, "--id")
            .ok_or("missing --id")?
            .parse()
            .map_err(|e| format!("--id: {e}"))?;
        let incarnation = flag(args, "--incarnation")
            .unwrap_or("0")
            .parse()
            .map_err(|e| format!("--incarnation: {e}"))?;
        Ok((addr, id, incarnation))
    })();
    let result = parsed.and_then(|(addr, id, incarnation)| {
        dbtf_cluster::worker_main(addr, id, incarnation, dbtf::net_tasks::build_registry())
            .map_err(|e| e.to_string())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        return worker(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mib) = opts.workload.spill_budget_mib {
        // Read by the out-of-core driver when it spills; set before any
        // thread starts.
        std::env::set_var(dbtf::SPILL_BUDGET_ENV, mib.to_string());
    }
    match pipeline::run(&opts) {
        Ok((outcome, detail)) => {
            let table = if opts.trace {
                &report::PER_LAYER[..]
            } else {
                &report::END_TO_END[..]
            };
            println!("{detail}");
            println!("{}", outcome.to_json(table));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
