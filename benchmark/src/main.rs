//! `lpvs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  [--scratch DIR] [--serve-bin PATH]`
//!
//! Prints the host record, a readable table of every metric with its
//! unit and sample count, and last a one-line JSON result. Exits 1 when
//! a correctness check failed and 2 when the run could not be measured.

use lpvs_benchmark::host::HostRecord;
use lpvs_benchmark::{run, Params};
use std::path::PathBuf;

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: lpvs-benchmark --workload <{}> --seed N --seconds S --trace 0|1 \
         [--scratch DIR] [--serve-bin PATH]",
        lpvs_benchmark::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value {value:?} for {flag}")))
}

fn main() {
    let mut workload: Option<String> = None;
    let mut params = Params {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/scratch"),
        serve_bin: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => params.seed = parse(&flag, &value),
            "--seconds" => params.seconds = parse(&flag, &value),
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad value {value:?} for --trace")),
                }
            }
            "--scratch" => params.scratch = PathBuf::from(&value),
            "--serve-bin" => params.serve_bin = Some(PathBuf::from(&value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if params.seconds.is_nan() || params.seconds <= 0.0 {
        usage("--seconds must be positive");
    }

    let host = HostRecord::start();
    params.scratch = params
        .scratch
        .join(format!("{workload}-{}", std::process::id()));
    let result = run(&workload, &params);
    let _ = std::fs::remove_dir_all(&params.scratch);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{workload}: run could not be measured: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        params.seed, params.seconds, params.trace
    );
    println!("{}", host.line());
    print!("{}", outcome.table());
    if params.trace {
        println!("per-layer metric → the end-to-end metric it should move:");
        for l in lpvs_benchmark::PER_LAYER {
            println!("  {:<26} {}", l.name, l.moves);
        }
    }
    println!("{}", outcome.json_line());
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}
