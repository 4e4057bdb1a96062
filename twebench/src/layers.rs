//! Per-layer measurements of the traced run, each taken by calling one
//! layer's public functions directly, inside spans.

use crate::trace::Tracer;
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use twe_apps::util::SplitMix64;
use twe_effects::{EffectSet, Rpl};
use twe_pool::ThreadPool;
use twe_runtime::naive::NaiveScheduler;
use twe_runtime::scheduler::Scheduler;
use twe_runtime::task::probe_now_ns;
use twe_runtime::tree::TreeScheduler;
use twe_runtime::{DynCell, DynamicEffectTable, TaskRecord};

/// Repeats `f` in spans of `ops` operations until at least `budget_ms`
/// has been spent (and at least once).
fn repeat(t: &mut Tracer, name: &str, ops: u64, budget_ms: u64, mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        t.span_n(name, ops, |_| f());
        if start.elapsed().as_millis() as u64 >= budget_ms {
            break;
        }
    }
}

/// `effects.parse`, `effects.interfere`, `effects.intern` on the
/// workload's own effect sets.
pub fn effects(t: &mut Tracer, stream: &[Vec<EffectSet>], seed: u64) {
    let sets: Vec<&EffectSet> = stream.iter().flatten().collect();
    let mut rng = SplitMix64::new(seed ^ 0xEFFEC7);
    let sample = |rng: &mut SplitMix64| sets[rng.next_below(sets.len() as u64) as usize];

    let texts: Vec<String> = (0..2_000).map(|_| sample(&mut rng).to_string()).collect();
    repeat(t, "effects.parse", texts.len() as u64, 30, || {
        for s in &texts {
            black_box(EffectSet::parse(black_box(s)));
        }
    });

    let pairs: Vec<(&EffectSet, &EffectSet)> = (0..20_000)
        .map(|_| (sample(&mut rng), sample(&mut rng)))
        .collect();
    let rejected = pairs
        .iter()
        .filter(|(a, b)| a.certainly_non_interfering(b))
        .count();
    t.span("effects.summary", |t| {
        t.field("reject_share", rejected as f64 / pairs.len() as f64)
    });
    repeat(t, "effects.interfere", pairs.len() as u64, 30, || {
        for (a, b) in &pairs {
            black_box(a.non_interfering(b));
        }
    });

    // Paths never seen before in this process, so each parse interns.
    static FRESH: AtomicU64 = AtomicU64::new(0);
    let round = FRESH.fetch_add(1, Ordering::Relaxed);
    let fresh: Vec<String> = (0..2_000)
        .map(|i| format!("Fresh{seed}x{round}:Part{}:[{i}]", i % 16))
        .collect();
    t.span_n("effects.intern", fresh.len() as u64, |_| {
        for s in &fresh {
            black_box(Rpl::parse(s));
        }
    });
}

/// Enabled tasks, in the order the scheduler enabled them.
#[derive(Clone, Default)]
struct EnabledQueue(Arc<Mutex<VecDeque<Arc<TaskRecord>>>>);

impl EnabledQueue {
    fn push(&self, t: Arc<TaskRecord>) {
        self.0.lock().expect("queue lock").push_back(t);
    }
    fn pop(&self) -> Option<Arc<TaskRecord>> {
        self.0.lock().expect("queue lock").pop_front()
    }
}

/// Most tasks the replay keeps submitted and not yet done.
const WINDOW: usize = 256;

/// Replays the task stream through one scheduler with no pool: batches
/// go in through `submit_batch` while fewer than [`WINDOW`] tasks are
/// outstanding; otherwise the oldest enabled task completes through
/// `task_done`.
fn replay(
    t: &mut Tracer,
    label: &str,
    sched: &dyn Scheduler,
    q: &EnabledQueue,
    stream: &[Vec<EffectSet>],
    naive: Option<&NaiveScheduler>,
) {
    let submit_name = format!("{label}.submit");
    let done_name = format!("{label}.done");
    let span = t.enter(format!("{label}.replay"));
    let scan_before = naive.map_or(0, |n| n.wake_scan_work());
    let (mut outstanding, mut id, mut done, mut samples) = (0usize, 0u64, 0u64, 0u64);
    let (mut nodes_peak, mut records_peak) = (0usize, 0usize);
    // The scheduler holds tasks weakly (a task owns its effect records),
    // so the replay keeps every record alive, as the runtime's futures do.
    let mut alive: Vec<Arc<TaskRecord>> = Vec::new();
    let mut batches = stream.iter();
    let mut pending = batches.next();
    while pending.is_some() || outstanding > 0 {
        if let Some(batch) = pending.filter(|_| outstanding < WINDOW) {
            let records: Vec<Arc<TaskRecord>> = batch
                .iter()
                .map(|e| {
                    id += 1;
                    TaskRecord::new(id, "replay", e.clone(), false)
                })
                .collect();
            outstanding += records.len();
            alive.extend(records.iter().cloned());
            t.span_n(submit_name.as_str(), batch.len() as u64, |_| {
                sched.submit_batch(records)
            });
            pending = batches.next();
            samples += 1;
            if naive.is_none() && samples % 16 == 0 {
                let d = sched.diagnostics();
                nodes_peak = nodes_peak.max(d.tree_nodes);
                records_peak = records_peak.max(d.recorded_effects);
            }
        } else {
            let task = q.pop().expect("an outstanding task is enabled");
            task.mark_done();
            t.span(done_name.as_str(), |_| sched.task_done(&task));
            outstanding -= 1;
            done += 1;
        }
    }
    if let Some(n) = naive {
        t.field(
            "scan_per_done",
            (n.wake_scan_work() - scan_before) as f64 / done.max(1) as f64,
        );
    } else {
        t.field("nodes_peak", nodes_peak as f64);
        t.field("records_peak", records_peak as f64);
    }
    t.exit(span, done);
}

pub fn schedulers(t: &mut Tracer, stream: &[Vec<EffectSet>]) {
    let q = EnabledQueue::default();
    let q2 = q.clone();
    let naive = NaiveScheduler::new(Box::new(move |task| q2.push(task)));
    replay(t, "naive", &naive, &q, stream, Some(&naive));
    let q2 = q.clone();
    let tree = TreeScheduler::new(Box::new(move |task| q2.push(task)));
    replay(t, "tree", &tree, &q, stream, None);
}

/// `dyn.acquire`: an uncontended `acquire_write` plus its release.
pub fn dynamics(t: &mut Tracer) {
    let table = DynamicEffectTable::new();
    let cell = DynCell::new(0u8);
    let region = cell.region_id();
    repeat(t, "dyn.acquire", 10_000, 20, || {
        for task in 1..=10_000u64 {
            table.acquire_write(task, region).expect("uncontended");
            table.release_all(task, &[region]);
        }
    });
}

/// `reclaim.cell_new` and `reclaim.cell_drop`: region allocation and
/// retirement through `DynCell`.
pub fn reclaim(t: &mut Tracer) {
    for _ in 0..5 {
        let cells = t.span_n("reclaim.cell_new", 2_000, |_| {
            (0..2_000)
                .map(|i| DynCell::new(i as u64))
                .collect::<Vec<_>>()
        });
        t.span_n("reclaim.cell_drop", 2_000, |_| drop(cells));
    }
}

/// `pool.handoff`: an empty `ThreadPool::execute` until the job runs.
pub fn pool(t: &mut Tracer, threads: usize) {
    let pool = ThreadPool::new(threads);
    let ran = Arc::new(AtomicU64::new(0));
    for i in 1..=2_000u64 {
        let ran2 = Arc::clone(&ran);
        t.span("pool.handoff", |_| {
            pool.execute(Box::new(move || ran2.store(i, Ordering::Release)));
            while ran.load(Ordering::Acquire) != i {
                std::hint::spin_loop();
            }
        });
        // Let the worker go idle again, as between sparse requests.
        let until = probe_now_ns() + 20_000;
        while probe_now_ns() < until {
            std::hint::spin_loop();
        }
    }
}
