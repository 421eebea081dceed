//! The repository's benchmark. One run measures one workload:
//!
//! ```text
//! mqobench --workload <stream|warm|optimize> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with
//! `--trace 1` it replays the same traffic with a span around each
//! layer's entry point and reports the per-layer metrics. The last line
//! of standard output is the JSON result; see README.md.

mod layers;
mod optimize;
mod reference;
mod replay;
mod report;
mod tcp;
mod trace;
mod workload;

use report::{result_line, Metrics, Outcome};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: mqobench --workload <stream|warm|optimize> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["stream", "warm", "optimize"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stream = args.workload == "stream";
    let (outcome, metrics): (Outcome, Metrics) = match (args.workload.as_str(), args.trace) {
        ("optimize", false) => optimize::run(args.seed, args.seconds),
        (_, false) => tcp::run(stream, args.seed, args.seconds),
        (w, true) => {
            let (outcome, metrics, tracer) = if w == "optimize" {
                optimize::run_traced(args.seed, args.seconds)
            } else {
                replay::run_traced(stream, args.seed, args.seconds)
            };
            tracer.print_table(&format!("per-layer self time, {w} (seed {})", args.seed));
            tracer.write(w, args.seed);
            (outcome, metrics)
        }
    };
    println!("{}", result_line(outcome, &metrics));
}
