//! Reproduction of the runtime faults the benchmark keeps out of its
//! workloads (README.md, "Faults"). Separate from every workload and
//! metric:
//!
//! * (A) k-means with one point per task at 20 000 points overflows the
//!   stack of a thread that waits in `ThreadPool::help_until`; run in a
//!   child process, since the overflow aborts it.
//! * (B) naive-scheduler k-means now and then loses an `accumulate`
//!   update, and Monte Carlo an `mcReduce` one; run repeatedly and
//!   compared with the sequential oracle.
//! * (C) tree-scheduler Monte Carlo run times swing widely; run
//!   repeatedly, next to the naive scheduler.
//! * (D) under saturation the tree scheduler now and then runs two writes
//!   to one key out of submission order; the service workload's capacity
//!   window, run with writes and checked against the in-order oracle.

use crate::stats::{median, quantile, Tally};
use crate::workloads::{nproc, store_schedule, CAPACITY_POLICY, CAPACITY_REQUESTS, KEYS, TENANTS};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use twe_apps::service::{sequential_trace, OpMix, ServiceOp};
use twe_apps::{kmeans, montecarlo};
use twe_runtime::{Runtime, SchedulerKind};

fn kmeans_input(points: usize, seed: u64) -> kmeans::KMeansInput {
    kmeans::generate(&kmeans::KMeansConfig {
        n_points: points,
        n_clusters: 1_000,
        n_features: 8,
        seed,
        points_per_task: 1,
    })
}

/// Longest a child of fault (A) may run before it counts as a hang.
const CHILD_LIMIT: Duration = Duration::from_secs(300);

/// Points of the k-means run that overflows its stack (fault A).
const A_POINTS: usize = 20_000;

/// The child of fault (A): naive k-means at [`A_POINTS`] points.
pub fn child() -> ExitCode {
    let points = A_POINTS;
    let input = kmeans_input(points, 1);
    let rt = Runtime::new(nproc(), SchedulerKind::Naive);
    let got = kmeans::run_twe(&rt, &input);
    let ok = kmeans::outputs_match(&got, &kmeans::run_sequential(&input));
    println!("k-means at {points} points completed; output matches: {ok}");
    ExitCode::SUCCESS
}

/// Runs one child of fault (A); returns whether it failed and how.
fn fault_a_attempt() -> (bool, String) {
    let exe = std::env::current_exe().expect("own executable");
    let start = Instant::now();
    let mut child = Command::new(exe)
        .arg("fault-child")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fault child");
    loop {
        if let Some(status) = child.try_wait().expect("wait for fault child") {
            let mut err = String::new();
            if let Some(mut e) = child.stderr.take() {
                use std::io::Read;
                let _ = e.read_to_string(&mut err);
            }
            let overflow = err.contains("overflowed its stack");
            let how = format!(
                "{status} after {:.1} s{}",
                start.elapsed().as_secs_f64(),
                if overflow { ", stack overflow" } else { "" }
            );
            return (!status.success(), how);
        }
        if start.elapsed() > CHILD_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            return (true, format!("killed after {} s", CHILD_LIMIT.as_secs()));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Attempts or runs of each fault.
const ATTEMPTS_A: usize = 3;
const RUNS_B: usize = 200;
const RUNS_C: usize = 10;
const RUNS_D: usize = 20;

pub fn run() -> ExitCode {
    let threads = nproc();
    println!("host_cpus={threads}");

    // (A)
    let mut failed_a = 0;
    for i in 0..ATTEMPTS_A {
        let (failed, how) = fault_a_attempt();
        failed_a += usize::from(failed);
        println!(
            "A attempt {}: naive k-means, {A_POINTS} points: {how}",
            i + 1
        );
    }
    println!("A: {failed_a}/{ATTEMPTS_A} attempts failed");

    // (B)
    let input = kmeans_input(5_000, 5);
    let oracle = kmeans::run_sequential(&input);
    let mut failed_b = 0;
    for i in 0..RUNS_B {
        let rt = Runtime::new(threads, SchedulerKind::Naive);
        let got = kmeans::run_twe(&rt, &input);
        if !kmeans::outputs_match(&got, &oracle) {
            failed_b += 1;
            let lost: Vec<usize> = (0..got.counts.len())
                .filter(|&c| got.counts[c] != oracle.counts[c])
                .collect();
            println!(
                "B run {}: output differs from the oracle (clusters with wrong counts: {lost:?})",
                i + 1
            );
        }
    }
    println!("B: {failed_b}/{RUNS_B} naive k-means runs at 5000 points lost an update");
    // The same nested-reduction shape in Monte Carlo (`mcReduce` on Global).
    let cfg = montecarlo::MonteCarloConfig {
        n_paths: 8_000,
        n_steps: 40,
        seed: 7,
        paths_per_task: 4,
    };
    let oracle = montecarlo::run_sequential(&cfg);
    let failed_b_mc = (0..RUNS_B)
        .filter(|_| {
            let rt = Runtime::new(threads, SchedulerKind::Naive);
            !montecarlo::outputs_match(&montecarlo::run_twe(&rt, &cfg), &oracle)
        })
        .count();
    println!("B: {failed_b_mc}/{RUNS_B} naive Monte Carlo runs at 8000 paths lost an update");

    // (C)
    let cfg = montecarlo::MonteCarloConfig {
        n_paths: 30_000,
        n_steps: 60,
        seed: 99,
        paths_per_task: 16,
    };
    let oracle = montecarlo::run_sequential(&cfg);
    let mut spread = Vec::new();
    for kind in [SchedulerKind::Naive, SchedulerKind::Tree] {
        let mut times = Vec::new();
        let mut wrong = 0;
        for _ in 0..RUNS_C {
            let rt = Runtime::new(threads, kind);
            let start = Instant::now();
            let got = montecarlo::run_twe(&rt, &cfg);
            times.push(start.elapsed().as_secs_f64());
            wrong += usize::from(!montecarlo::outputs_match(&got, &oracle));
        }
        let (q1, q3) = (quantile(&times, 0.25), quantile(&times, 0.75));
        let med = median(&times);
        println!(
            "C {kind:?}: {RUNS_C} runs of Monte Carlo at 30000 paths: min {:.3} s, median {med:.3} s, max {:.3} s, IQR/median {:.2}, wrong outputs {wrong}",
            times.iter().cloned().fold(f64::MAX, f64::min),
            times.iter().cloned().fold(0.0, f64::max),
            (q3 - q1) / med
        );
        spread.push((q3 - q1) / med);
    }
    // (D)
    let worker_threads = threads.saturating_sub(1).max(1);
    let mut failed_d = 0;
    for i in 0..RUNS_D {
        let rt = Runtime::with_policy(worker_threads, SchedulerKind::Tree, CAPACITY_POLICY);
        let schedule = store_schedule(i as u64, CAPACITY_REQUESTS, 1e9, OpMix::READ_HEAVY);
        let d = crate::service::drive(&rt, &schedule, TENANTS, KEYS);
        let trace: Vec<ServiceOp> = schedule.iter().map(|a| a.op).collect();
        let oracle = sequential_trace(TENANTS, KEYS, &trace);
        let mut tally = Tally::default();
        crate::service::check(SchedulerKind::Tree, &trace, &oracle, KEYS, &d, &mut tally);
        if tally.failed > 0 {
            failed_d += 1;
        }
        println!(
            "D window {}: {} of {} checks failed",
            i + 1,
            tally.failed,
            tally.attempted
        );
    }
    println!("D: {failed_d}/{RUNS_D} tree capacity windows with writes failed a check");
    println!(
        "{{\"host_cpus\": {threads}, \"a_attempts\": {ATTEMPTS_A}, \"a_failed\": {failed_a}, \"b_runs\": {RUNS_B}, \"b_failed\": {failed_b}, \"b_mc_failed\": {failed_b_mc}, \"c_runs\": {RUNS_C}, \"c_naive_iqr_share\": {:.3}, \"c_tree_iqr_share\": {:.3}, \"d_runs\": {RUNS_D}, \"d_failed\": {failed_d}}}",
        spread[0], spread[1]
    );
    ExitCode::SUCCESS
}
