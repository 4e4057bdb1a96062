//! The TWE runtime benchmark. See README.md for the workloads, metrics and
//! reference figures.
//!
//! ```text
//! twebench --workload <fine-grain|coarse-grain|dynamic|service> --seed N --seconds S --trace 0|1
//! twebench selftest     # feeds every checker a corrupted output
//! twebench faults       # reproduces the known faults
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod apps;
mod faults;
mod layers;
mod service;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: twebench --workload <{}> --seed N --seconds S --trace 0|1\n       \
         twebench selftest\n       twebench faults",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1)?.parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("selftest") => return workloads::selftest(),
        Some("faults") => return faults::run(),
        Some("fault-child") => return faults::child(),
        _ => {}
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag::<String>(&args, "--workload"),
        flag::<u64>(&args, "--seed"),
        flag::<f64>(&args, "--seconds"),
        flag::<u8>(&args, "--trace"),
    ) else {
        return usage();
    };
    if !workloads::NAMES.contains(&workload.as_str()) || trace > 1 || seconds <= 0.0 {
        return usage();
    }
    let line = workloads::run(&workload, seed, seconds, trace == 1);
    println!("{line}");
    ExitCode::SUCCESS
}
