//! The four workloads, the checker self-test, and the metrics each run
//! prints.

use crate::apps::{self, App, Sizes};
use crate::layers;
use crate::service::{self, Driven};
use crate::stats::{cpu_ticks, median, quantile, Metrics, RssSampler, Tally};
use crate::trace::Tracer;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use twe_apps::imageedit::Filter;
use twe_apps::service::{generate_schedule, sequential_trace, OpMix, ServiceConfig, ServiceOp};
use twe_runtime::{AdmissionPolicy, Runtime, RuntimeStats, SchedulerKind};

pub const NAMES: &[&str] = &["fine-grain", "coarse-grain", "dynamic", "service"];

/// The keyed store every open-loop schedule runs against.
pub const TENANTS: usize = 16;
pub const KEYS: usize = 64;

/// Service fixed-rate windows: 0.5 s at 20k requests/s.
const FIXED_RATE: f64 = 20_000.0;
const FIXED_REQUESTS: usize = 10_500;
/// Service capacity windows: everything due at once, backpressured.
pub const CAPACITY_REQUESTS: usize = 50_000;
pub const CAPACITY_POLICY: AdmissionPolicy = AdmissionPolicy::BoundedBlock { max_queued: 256 };
/// The open-loop probe a traced batch pass ends with, on each runtime.
const PROBE_RATE: f64 = 20_000.0;
const PROBE_REQUESTS: usize = 2_500;
/// Requests at the start of every open-loop schedule that are checked
/// but left out of the figures: a fresh runtime's first requests wait
/// for its threads to start.
const WARMUP_REQUESTS: usize = 500;

const KINDS: [SchedulerKind; 2] = [SchedulerKind::Naive, SchedulerKind::Tree];

fn label(kind: SchedulerKind) -> &'static str {
    match kind {
        SchedulerKind::Naive => "naive",
        SchedulerKind::Tree => "tree",
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers of every measured runtime: one fewer than the CPUs, because
/// the thread driving a run keeps a core busy too (it builds and submits
/// the tasks, help-runs bodies while it waits, or generates the load).
/// With a worker on every CPU as well, the run measures how the host
/// schedules one thread too many, not the runtime.
fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

pub fn make_apps(workload: &str, seed: u64, s: &Sizes) -> Vec<Box<dyn App>> {
    match workload {
        // Monte Carlo is left out: it loses an update now and then on the
        // naive scheduler and its run time swings on the tree scheduler
        // (README.md, faults B and C).
        "fine-grain" => vec![
            Box::new(apps::Ssca2::new(seed, s)),
            Box::new(apps::KMeans::new(seed, s)),
        ],
        "coarse-grain" => vec![
            Box::new(apps::BarnesHut::new(seed, s)),
            Box::new(apps::ImageEdit::new(seed, s, Filter::EdgeDetect)),
            Box::new(apps::ImageEdit::new(seed, s, Filter::Sharpen)),
            Box::new(apps::FourWins::new(seed, s)),
            Box::new(apps::Tsp::new(seed, s)),
        ],
        "dynamic" => vec![
            Box::new(apps::Refine::new(seed, s)),
            Box::new(apps::Coloring::new(seed, s)),
        ],
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// The capacity windows' mix: the read-heavy mix without its writes.
/// Under saturation the tree scheduler now and then runs two writes to one
/// key out of submission order (README.md, fault D; `twebench faults`
/// reproduces it), which the checks rightly count as failures; writes
/// stay in the fixed-rate windows.
const CAPACITY_MIX: OpMix = OpMix {
    read_pct: 99,
    write_pct: 0,
    scan_pct: 1,
};

/// An open-loop schedule against the keyed store, one tenant retired
/// every 500 requests.
pub fn store_schedule(
    seed: u64,
    requests: usize,
    rate: f64,
    mix: OpMix,
) -> Vec<twe_apps::service::Arrival> {
    generate_schedule(&ServiceConfig {
        tenants: TENANTS,
        keys_per_tenant: KEYS,
        requests,
        rate_per_sec: rate,
        mix,
        seed,
        retire_every: Some(500),
        reapers: 1,
        policy: AdmissionPolicy::Unbounded,
    })
}

/// Drives `schedule` on `rt` and checks every result against
/// `service::sequential_trace` (see `service::check`).
fn drive_checked(
    rt: &Runtime,
    schedule: &[twe_apps::service::Arrival],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Driven {
    let d = service::drive(rt, schedule, TENANTS, KEYS);
    let trace: Vec<ServiceOp> = schedule.iter().map(|a| a.op).collect();
    t.span("check", |t| {
        let seq = Instant::now();
        let oracle = sequential_trace(TENANTS, KEYS, &trace);
        t.field("seq_s", seq.elapsed().as_secs_f64());
        let unresolved = service::check(rt.scheduler_kind(), &trace, &oracle, KEYS, &d, tally);
        t.field("scans_unresolved", unresolved as f64);
    });
    d
}

/// Runtime counters of a pass or round, summed over its runtimes.
#[derive(Default)]
struct Counts {
    tasks: u64,
    retries: u64,
    acquires: u64,
    conflicts: u64,
    queue_peak: usize,
}

impl Counts {
    /// Adds what `rt` did since `before`.
    fn add(&mut self, rt: &Runtime, before: RuntimeStats) {
        let after = rt.stats();
        self.tasks += after.tasks_executed - before.tasks_executed;
        self.retries += after.task_retries - before.task_retries;
        self.acquires += after.dynamic.acquires - before.dynamic.acquires;
        self.conflicts += after.dynamic.conflicts - before.dynamic.conflicts;
        self.queue_peak = self.queue_peak.max(rt.admission_stats().peak_depth);
    }

    /// Attaches the counts to the open span.
    fn record(&self, t: &mut Tracer) {
        t.field("tasks", self.tasks as f64);
        t.field("retries", self.retries as f64);
        t.field("acquires", self.acquires as f64);
        t.field("conflicts", self.conflicts as f64);
        t.field("queue_peak", self.queue_peak as f64);
    }
}

/// Latency figures of one open-loop schedule, in µs.
struct Lat {
    /// Due→complete of every request after the warm-up.
    total: Vec<f64>,
    late_p99: f64,
    enable_p50: f64,
    enable_p99: f64,
    exec_p50: f64,
    achieved_rps: f64,
}

impl Lat {
    /// Figures of the requests after the first `warmup`.
    fn of(d: &Driven, warmup: usize) -> Lat {
        let stamps = &d.stamps[warmup..];
        let us = |v: Vec<u64>| -> Vec<f64> { v.into_iter().map(|x| x as f64 / 1e3).collect() };
        let total = us(stamps.iter().map(|s| s.done - s.due).collect());
        let late = us(stamps
            .iter()
            .map(|s| s.submit.saturating_sub(s.due))
            .collect());
        let enable = us(stamps.iter().map(|s| s.enable - s.submit).collect());
        let exec = us(stamps.iter().map(|s| s.done - s.enable).collect());
        let first = stamps.iter().map(|s| s.submit).min().unwrap_or(0);
        let last = stamps.iter().map(|s| s.submit).max().unwrap_or(0);
        Lat {
            total,
            late_p99: quantile(&late, 0.99),
            enable_p50: quantile(&enable, 0.5),
            enable_p99: quantile(&enable, 0.99),
            exec_p50: quantile(&exec, 0.5),
            achieved_rps: (stamps.len() as f64 - 1.0) / ((last - first) as f64 / 1e9),
        }
    }

    /// Attaches the figures to the open span.
    fn record(&self, t: &mut Tracer) {
        t.field("p50_us", quantile(&self.total, 0.5));
        t.field("p90_us", quantile(&self.total, 0.9));
        t.field("p99_us", quantile(&self.total, 0.99));
        t.field("enable_p50_us", self.enable_p50);
        t.field("enable_p99_us", self.enable_p99);
        t.field("exec_p50_us", self.exec_p50);
        t.field("late_p99_us", self.late_p99);
        t.field("achieved_rps", self.achieved_rps);
    }
}

/// End-to-end figures collected over a run, one entry per pass or
/// window; each metric is their median, so a disturbance of the host
/// that hits a few windows does not move it.
#[derive(Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Peak resident set of each pass or round.
    rss_mb: Vec<f64>,
    run_s: [Vec<f64>; 2],
    capacity_rps: [Vec<f64>; 2],
}

impl EndToEnd {
    fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("peak_rss_mb", median(&self.rss_mb), "MB");
        for (k, kind) in KINDS.iter().enumerate() {
            let l = label(*kind);
            m.put(&format!("{l}.run_s"), median(&self.run_s[k]), "s");
            m.put(
                &format!("{l}.capacity_rps"),
                median(&self.capacity_rps[k]),
                "1/s",
            );
        }
        m
    }
}

/// Runs one workload for `seconds` and returns the result line.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let ticks_before = cpu_ticks();
    let mut t = Tracer::new(trace);
    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    // Pass (or round) times with tracing on and off, for the overhead.
    let mut timed: [Vec<f64>; 2] = Default::default();
    let rss = RssSampler::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_rounds = if trace { 2 } else { 1 };
    let mut round = 0usize;
    while round < min_rounds || Instant::now() < deadline {
        // A traced run alternates traced and untraced rounds; the first
        // traced round also measures the layers one by one.
        let traced = trace && round.is_multiple_of(2);
        t.set_on(traced);
        let total = if workload == "service" {
            service_round(seed, round, traced, &mut t, &mut tally, &mut e2e)
        } else {
            batch_pass(workload, seed, round, traced, &mut t, &mut tally, &mut e2e)
        };
        timed[usize::from(traced)].push(total);
        e2e.rss_mb.push(rss.take_mb());
        round += 1;
    }
    t.set_on(trace);
    // Host CPU time stolen during the run, in % (explains a slow run).
    let steal_pct = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64 * 100.0,
        _ => 0.0,
    };
    let metrics = if trace {
        let overhead = (median(&timed[1]) / median(&timed[0]) - 1.0) * 100.0;
        let mut m = layer_metrics(&t, overhead);
        m.put("host.steal_pct", steal_pct, "%");
        let path = format!("twebench/traces/{workload}-seed{seed}.jsonl");
        match std::fs::create_dir_all("twebench/traces")
            .and_then(|_| std::fs::write(&path, t.to_jsonl()))
        {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("spans not written to {path}: {e}"),
        }
        m
    } else {
        e2e.metrics()
    };
    eprintln!(
        "{workload}: {round} rounds, {} operations checked, {} failed, host steal {steal_pct:.1} %",
        tally.attempted, tally.failed
    );
    metrics.result_line(tally.attempted, tally.failed)
}

/// One pass of a batch workload: set up, run every application
/// sequentially and on each scheduler, and check. A traced pass then
/// probes each runtime open loop, and the first one also measures the
/// layers one by one. Returns the pass's time on the runtimes.
fn batch_pass(
    workload: &str,
    seed: u64,
    pass: usize,
    traced: bool,
    t: &mut Tracer,
    tally: &mut Tally,
    e2e: &mut EndToEnd,
) -> f64 {
    let threads = workers();
    let span = t.enter("pass");
    let setup = Instant::now();
    // Every pass draws fresh inputs, so a run's medians do not hang on
    // one instance (TSP's branch and bound, for one, varies threefold).
    let pass_seed = seed ^ (pass as u64) << 32;
    let (mut apps, rts) = t.span("setup", |_| {
        let apps = make_apps(workload, pass_seed, &Sizes::FULL);
        let rts = KINDS.map(|k| Runtime::new(threads, k));
        (apps, rts)
    });
    e2e.setup_s.push(setup.elapsed().as_secs_f64());

    let mut seq_s = 0.0;
    for app in apps.iter_mut() {
        t.span("prepare", |_| app.prepare());
        let start = Instant::now();
        t.span(format!("seq.{}", app.name()), |_| app.run_seq());
        let secs = start.elapsed().as_secs_f64();
        eprintln!("pass {pass}: seq {} {secs:.4} s", app.name());
        seq_s += secs;
    }
    t.field("seq_s", seq_s);

    // Alternate which scheduler goes first, so drift hits both alike.
    let order = if pass.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    };
    let mut pass_total = 0.0;
    let mut counts = Counts::default();
    for k in order {
        let rt = &rts[k];
        let l = label(KINDS[k]);
        let before = rt.stats();
        let mut run_s = 0.0;
        for app in apps.iter_mut().filter(|a| a.kinds().contains(&KINDS[k])) {
            t.span("prepare", |_| app.prepare());
            let start = Instant::now();
            let out = t.span(format!("{l}.{}", app.name()), |_| app.run_twe(rt));
            let secs = start.elapsed().as_secs_f64();
            eprintln!("pass {pass}: {l} {} {secs:.4} s", app.name());
            run_s += secs;
            t.span("check", |_| {
                tally.check(&format!("{l} {}", app.name()), app.check(&out))
            });
        }
        let done = rt.stats().tasks_executed - before.tasks_executed;
        counts.add(rt, before);
        e2e.run_s[k].push(run_s);
        e2e.capacity_rps[k].push(done as f64 / run_s);
        pass_total += run_s;

        if traced {
            // Open-loop probe of the runtime the pass ran on, for the
            // per-layer latency figures.
            let schedule = store_schedule(pass_seed, PROBE_REQUESTS, PROBE_RATE, OpMix::READ_HEAVY);
            let probe = t.enter(format!("{l}.probe"));
            let d = drive_checked(rt, &schedule, t, tally);
            Lat::of(&d, WARMUP_REQUESTS).record(t);
            t.field("retired", d.retired as f64);
            t.exit(probe, d.stamps.len() as u64);
        }
    }
    t.field("run_s", pass_total);
    counts.record(t);

    if traced && pass == 0 {
        let stream: Vec<_> = apps.iter().flat_map(|a| a.stream()).collect();
        let stream = first_tasks(stream, REPLAY_TASKS);
        measure_layer_calls(t, &stream, seed, threads);
    }
    t.exit(span, 1);
    drop(rts);
    pass_total
}

/// Most tasks of a workload's stream the scheduler replay submits.
const REPLAY_TASKS: usize = 20_000;

/// The leading batches of `stream` holding at most `max` tasks.
fn first_tasks(
    stream: Vec<Vec<twe_effects::EffectSet>>,
    max: usize,
) -> Vec<Vec<twe_effects::EffectSet>> {
    let mut total = 0;
    stream
        .into_iter()
        .take_while(|b| {
            total += b.len();
            total <= max
        })
        .collect()
}

/// The layer-by-layer calls of the traced run, with the pass's runtimes
/// still alive (so region retirement notifies them, as in a real run).
fn measure_layer_calls(
    t: &mut Tracer,
    stream: &[Vec<twe_effects::EffectSet>],
    seed: u64,
    threads: usize,
) {
    let span = t.enter("layers");
    layers::effects(t, stream, seed);
    layers::schedulers(t, stream);
    layers::dynamics(t);
    layers::reclaim(t);
    layers::pool(t, threads);
    t.exit(span, 1);
}

/// One round of the service workload: a fixed-rate window and a
/// capacity window on each scheduler. Returns the round's time in the
/// capacity windows.
fn service_round(
    seed: u64,
    round: usize,
    traced: bool,
    t: &mut Tracer,
    tally: &mut Tally,
    e2e: &mut EndToEnd,
) -> f64 {
    let threads = workers();
    let span = t.enter("pass");
    let window_seed = seed ^ (round as u64) << 32;
    let order = if round.is_multiple_of(2) {
        [0, 1]
    } else {
        [1, 0]
    };
    let mut total = 0.0;
    let mut counts = Counts::default();
    for k in order {
        let l = label(KINDS[k]);
        // Fixed rate.
        let setup = Instant::now();
        let (rt, schedule) = t.span("setup", |_| {
            (
                Runtime::new(threads, KINDS[k]),
                store_schedule(window_seed, FIXED_REQUESTS, FIXED_RATE, OpMix::READ_HEAVY),
            )
        });
        e2e.setup_s.push(setup.elapsed().as_secs_f64());
        let w = t.enter(format!("{l}.fixed"));
        let d = drive_checked(&rt, &schedule, t, tally);
        let lat = Lat::of(&d, WARMUP_REQUESTS);
        lat.record(t);
        t.field("retired", d.retired as f64);
        t.exit(w, d.stamps.len() as u64);
        eprintln!(
            "round {round}: {l} fixed rate p50 {:.1} us, p99 {:.1} us",
            quantile(&lat.total, 0.5),
            quantile(&lat.total, 0.99)
        );
        counts.add(&rt, RuntimeStats::default());
        drop(rt);

        // Capacity: far more offered than drains, under backpressure.
        let rt = Runtime::with_policy(threads, KINDS[k], CAPACITY_POLICY);
        let schedule = store_schedule(window_seed ^ 1, CAPACITY_REQUESTS, 1e9, CAPACITY_MIX);
        let w = t.enter(format!("{l}.capacity"));
        let d = drive_checked(&rt, &schedule, t, tally);
        t.field("retired", d.retired as f64);
        t.exit(w, d.stamps.len() as u64);
        // Completions per second after the warm-up requests finished.
        let mut done: Vec<u64> = d.stamps.iter().map(|s| s.done).collect();
        done.sort_unstable();
        let secs = (done[done.len() - 1] - done[WARMUP_REQUESTS]) as f64 / 1e9;
        e2e.run_s[k].push(secs);
        let rps = (done.len() - WARMUP_REQUESTS - 1) as f64 / secs;
        eprintln!("round {round}: {l} capacity {rps:.0} req/s");
        e2e.capacity_rps[k].push(rps);
        total += secs;
        counts.add(&rt, RuntimeStats::default());
    }
    t.field("run_s", total);
    counts.record(t);
    if traced && round == 0 {
        // A live runtime, so region retirement notifies one, as in a run.
        let rt = Runtime::new(threads, SchedulerKind::Tree);
        let cells: Vec<_> = (0..TENANTS)
            .map(|_| twe_apps::service::fresh_tenant(KEYS))
            .collect();
        let stream: Vec<Vec<twe_effects::EffectSet>> =
            store_schedule(window_seed, 4_000, FIXED_RATE, OpMix::READ_HEAVY)
                .iter()
                .filter(|a| !matches!(a.op, ServiceOp::Retire { .. }))
                .map(|a| vec![service::effects_of(&cells[a.op.tenant()], a.op)])
                .collect();
        measure_layer_calls(t, &stream, seed, threads);
        drop(rt);
    }
    t.exit(span, 1);
    total
}

/// Per-layer metrics, all derived from the recorded spans.
fn layer_metrics(t: &Tracer, overhead_pct: f64) -> Metrics {
    let mut m = Metrics::default();
    let field = |name: &str, key: &str| median(&t.field_values(name, key));
    let sum = |name: &str, key: &str| t.field_values(name, key).iter().sum::<f64>();
    let probes = ["naive.probe", "tree.probe", "naive.fixed", "tree.fixed"];
    let probe_field = |key: &str| {
        let v: Vec<f64> = probes.iter().flat_map(|p| t.field_values(p, key)).collect();
        median(&v)
    };

    m.put("effects.parse_ns", t.ns_per_op("effects.parse"), "ns");
    m.put(
        "effects.interfere_ns",
        t.ns_per_op("effects.interfere"),
        "ns",
    );
    m.put(
        "effects.summary_reject",
        field("effects.summary", "reject_share"),
        "share",
    );
    m.put("effects.intern_ns", t.ns_per_op("effects.intern"), "ns");
    for l in ["naive", "tree"] {
        m.put(
            &format!("{l}.submit_ns"),
            t.ns_per_op(&format!("{l}.submit")),
            "ns",
        );
        m.put(
            &format!("{l}.done_ns"),
            t.ns_per_op(&format!("{l}.done")),
            "ns",
        );
    }
    for l in ["naive", "tree"] {
        for q in ["p50_us", "p90_us", "p99_us"] {
            let v: Vec<f64> = [format!("{l}.probe"), format!("{l}.fixed")]
                .iter()
                .flat_map(|p| t.field_values(p, q))
                .collect();
            m.put(&format!("{l}.{q}"), median(&v), "us");
        }
    }
    m.put(
        "naive.scan_per_done",
        field("naive.replay", "scan_per_done"),
        "count",
    );
    m.put(
        "tree.nodes_peak",
        field("tree.replay", "nodes_peak"),
        "count",
    );
    m.put(
        "tree.records_peak",
        field("tree.replay", "records_peak"),
        "count",
    );

    let tasks = field("pass", "tasks");
    let retries = field("pass", "retries");
    m.put("rt.tasks", tasks, "count");
    m.put("rt.us_per_task", field("pass", "run_s") / tasks * 1e6, "us");
    m.put("rt.enable_p50_us", probe_field("enable_p50_us"), "us");
    m.put("rt.enable_p99_us", probe_field("enable_p99_us"), "us");
    m.put("rt.exec_p50_us", probe_field("exec_p50_us"), "us");
    m.put("rt.queue_peak", field("pass", "queue_peak"), "count");

    m.put("dyn.acquires", field("pass", "acquires"), "count");
    m.put("dyn.conflicts", field("pass", "conflicts"), "count");
    m.put("dyn.retries", retries, "count");
    m.put("dyn.useful_ratio", tasks / (tasks + retries), "share");
    m.put("dyn.acquire_ns", t.ns_per_op("dyn.acquire"), "ns");

    m.put("reclaim.cell_new_ns", t.ns_per_op("reclaim.cell_new"), "ns");
    m.put(
        "reclaim.cell_drop_ns",
        t.ns_per_op("reclaim.cell_drop"),
        "ns",
    );
    let retired: f64 = [
        "naive.probe",
        "tree.probe",
        "naive.fixed",
        "tree.fixed",
        "naive.capacity",
        "tree.capacity",
    ]
    .iter()
    .map(|p| sum(p, "retired"))
    .sum();
    m.put("reclaim.retired", retired, "count");

    let handoff: Vec<f64> = t
        .durations("pool.handoff")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    m.put("pool.handoff_p50_us", quantile(&handoff, 0.5), "us");
    m.put("pool.handoff_p99_us", quantile(&handoff, 0.99), "us");

    let seq: Vec<f64> = t.field_values("pass", "seq_s");
    let seq = if seq.is_empty() {
        sum("check", "seq_s")
    } else {
        median(&seq)
    };
    m.put("body.seq_s", seq, "s");

    m.put("svc.late_p99_us", probe_field("late_p99_us"), "us");
    m.put("svc.achieved_rps", probe_field("achieved_rps"), "1/s");
    m.put(
        "svc.scans_unresolved",
        sum("check", "scans_unresolved"),
        "count",
    );
    m.put("trace.overhead_pct", overhead_pct, "%");
    m
}

/// Feeds every checker one correct and one deliberately corrupted output.
/// Each corrupted output must count as a failed operation while the run
/// goes on; exits 0 when exactly the corrupted ones failed.
pub fn selftest() -> ExitCode {
    let mut tally = Tally::default();
    let mut corrupted = 0u64;
    let rts = KINDS.map(|k| Runtime::new(nproc(), k));
    for workload in ["fine-grain", "coarse-grain", "dynamic"] {
        for mut app in make_apps(workload, 7, &Sizes::SMALL) {
            app.prepare();
            app.run_seq();
            app.prepare();
            let rt = &rts[KINDS
                .iter()
                .position(|k| *k == app.kinds()[0])
                .expect("a kind")];
            let mut out = app.run_twe(rt);
            tally.check(&format!("{} as produced", app.name()), app.check(&out));
            app.corrupt(&mut out);
            tally.check(
                &format!("{} corrupted (expected)", app.name()),
                app.check(&out),
            );
            corrupted += 1;
        }
    }
    let schedule = store_schedule(7, 2_000, PROBE_RATE, OpMix::READ_HEAVY);
    let trace: Vec<ServiceOp> = schedule.iter().map(|a| a.op).collect();
    let oracle = sequential_trace(TENANTS, KEYS, &trace);
    let read_at = trace
        .iter()
        .filter(|op| !matches!(op, ServiceOp::Retire { .. }))
        .position(|op| matches!(op, ServiceOp::Read { .. }))
        .expect("a read");
    for rt in &rts {
        let mut d = service::drive(rt, &schedule, TENANTS, KEYS);
        for pass in 0..2 {
            if pass == 1 {
                d.results[read_at] = d.results[read_at].wrapping_add(1);
                corrupted += 1;
                eprintln!("service read {read_at} corrupted (expected to fail):");
            }
            service::check(rt.scheduler_kind(), &trace, &oracle, KEYS, &d, &mut tally);
        }
    }
    let ok = tally.failed == corrupted;
    let mut m = Metrics::default();
    m.put("selftest.corrupted", corrupted as f64, "count");
    println!("{}", m.result_line(tally.attempted, tally.failed));
    eprintln!(
        "selftest: {corrupted} corrupted outputs, {} counted as failed of {} checked: {}",
        tally.failed,
        tally.attempted,
        if ok { "ok" } else { "MISMATCH" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
