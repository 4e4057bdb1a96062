//! The open-loop load generator and the checks of its results.
//!
//! One thread walks a precomputed arrival schedule: it submits every
//! request that has fallen due as one `Runtime::submit_all` wave, reaps
//! finished requests by polling their futures (it never blocks on one),
//! and drops a retired tenant's store only once every request that
//! names it is done. Latency counts from each request's due time, on
//! the runtime's own probe clock, so a stall of the generator shows up
//! as latency of the requests it delayed.

use crate::stats::Tally;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use twe_apps::service::{
    fresh_tenant, key_rpl, scan_rpl, Arrival, ServiceOp, TenantCell, TraceOutcome,
};
use twe_effects::EffectSet;
use twe_runtime::task::probe_now_ns;
use twe_runtime::{Runtime, SchedulerKind, TaskFuture, TaskRecord};

/// Most requests one wave carries.
const MAX_WAVE: usize = 256;

/// Probe-clock stamps of one request.
#[derive(Clone, Copy, Default)]
pub struct Stamp {
    pub due: u64,
    pub submit: u64,
    pub enable: u64,
    pub done: u64,
}

/// What one schedule produced.
pub struct Driven {
    /// Result of each request (retires excluded), in schedule order.
    pub results: Vec<u64>,
    pub stamps: Vec<Stamp>,
    /// Store contents once everything drained.
    pub final_state: Vec<Vec<u64>>,
    /// Tenant stores dropped after retirement.
    pub retired: usize,
}

/// The effect set a request declares.
pub fn effects_of(cell: &TenantCell, op: ServiceOp) -> EffectSet {
    match op {
        ServiceOp::Read { key, .. } => EffectSet::read(key_rpl(cell, key)),
        ServiceOp::Write { key, .. } => EffectSet::write(key_rpl(cell, key)),
        ServiceOp::Scan { .. } => EffectSet::read(scan_rpl(cell)),
        ServiceOp::Retire { .. } => unreachable!("retire is not a request"),
    }
}

fn request(
    cell: &TenantCell,
    op: ServiceOp,
) -> (
    &'static str,
    EffectSet,
    impl FnOnce(&twe_runtime::TaskCtx<'_>) -> u64 + Send + 'static,
) {
    let effects = effects_of(cell, op);
    let cell = Arc::clone(cell);
    let body = move |_: &twe_runtime::TaskCtx<'_>| {
        let data = cell.read();
        match op {
            ServiceOp::Read { key, .. } => *data[key].get(),
            ServiceOp::Write { key, value, .. } => {
                *data[key].get_mut() = value;
                value
            }
            ServiceOp::Scan { .. } => data.iter().fold(0u64, |acc, c| acc.wrapping_add(*c.get())),
            ServiceOp::Retire { .. } => unreachable!("retire is not a request"),
        }
    };
    ("svc", effects, body)
}

/// Runs `schedule` open loop against a fresh store on `rt`.
pub fn drive(rt: &Runtime, schedule: &[Arrival], tenants: usize, keys: usize) -> Driven {
    rt.set_latency_probe(true);
    let n_req = schedule
        .iter()
        .filter(|a| !matches!(a.op, ServiceOp::Retire { .. }))
        .count();
    let mut slots: Vec<TenantCell> = (0..tenants).map(|_| fresh_tenant(keys)).collect();
    let mut outstanding: Vec<Vec<Arc<TaskRecord>>> = vec![Vec::new(); tenants];
    let mut retiring: Vec<(TenantCell, Vec<Arc<TaskRecord>>)> = Vec::new();
    let mut inflight: Vec<(usize, TaskFuture<u64>)> = Vec::new();
    let mut results = vec![0u64; n_req];
    let mut stamps = vec![Stamp::default(); n_req];
    let mut retired = 0usize;
    let mut wave = Vec::with_capacity(MAX_WAVE);
    let mut wave_meta: Vec<(usize, usize)> = Vec::with_capacity(MAX_WAVE);
    let t0 = probe_now_ns();

    let flush = |wave: &mut Vec<_>,
                 wave_meta: &mut Vec<(usize, usize)>,
                 inflight: &mut Vec<(usize, TaskFuture<u64>)>,
                 outstanding: &mut [Vec<Arc<TaskRecord>>]| {
        if wave.is_empty() {
            return;
        }
        let futures = rt.submit_all(wave.drain(..));
        for (f, &(ord, tenant)) in futures.into_iter().zip(wave_meta.iter()) {
            let list = &mut outstanding[tenant];
            list.push(Arc::clone(f.record()));
            if list.len() > 256 {
                list.retain(|r| !r.is_done());
            }
            inflight.push((ord, f));
        }
        wave_meta.clear();
    };

    let mut next = 0usize;
    let mut ord = 0usize;
    loop {
        // Submit everything that has fallen due.
        let now = probe_now_ns();
        while next < schedule.len() && t0 + schedule[next].at_ns <= now {
            let op = schedule[next].op;
            if let ServiceOp::Retire { tenant } = op {
                flush(&mut wave, &mut wave_meta, &mut inflight, &mut outstanding);
                let old = std::mem::replace(&mut slots[tenant], fresh_tenant(keys));
                retiring.push((old, std::mem::take(&mut outstanding[tenant])));
            } else {
                stamps[ord].due = t0 + schedule[next].at_ns;
                wave.push(request(&slots[op.tenant()], op));
                wave_meta.push((ord, op.tenant()));
                ord += 1;
                if wave.len() == MAX_WAVE {
                    flush(&mut wave, &mut wave_meta, &mut inflight, &mut outstanding);
                }
            }
            next += 1;
        }
        flush(&mut wave, &mut wave_meta, &mut inflight, &mut outstanding);

        // Reap what has finished, without waiting.
        let mut i = 0;
        while i < inflight.len() {
            // The record's done flag is set after its done stamp (the
            // future completes before both).
            if inflight[i].1.record().is_done() {
                let (o, f) = inflight.swap_remove(i);
                results[o] = f.wait();
                let rec = f.record();
                let s = &mut stamps[o];
                s.submit = rec.submitted_at_ns.load(Ordering::Relaxed);
                s.enable = rec.enabled_at_ns.load(Ordering::Relaxed);
                s.done = rec.done_at_ns.load(Ordering::Relaxed);
            } else {
                i += 1;
            }
        }
        // Drop retired stores whose requests have all finished.
        retiring.retain(|(_, recs)| {
            let drained = recs.iter().all(|r| r.is_done());
            if drained {
                retired += 1;
            }
            !drained
        });
        if next == schedule.len() && inflight.is_empty() && retiring.is_empty() {
            break;
        }
        // Yield rather than spin: a woken worker may be queued on this CPU.
        std::thread::yield_now();
    }
    let final_state = slots
        .iter()
        .map(|cell| cell.read().iter().map(|c| *c.get()).collect())
        .collect();
    Driven {
        results,
        stamps,
        final_state,
        retired,
    }
}

/// Checks every result of `d` against the in-order oracle of `trace`
/// and counts each request (and the final store) as one operation.
/// Returns the number of tree scans too wide to check.
pub fn check(
    kind: SchedulerKind,
    trace: &[ServiceOp],
    oracle: &TraceOutcome,
    keys: usize,
    d: &Driven,
    tally: &mut Tally,
) -> u64 {
    match kind {
        SchedulerKind::Naive => {
            check_exact(oracle, d, tally);
            0
        }
        SchedulerKind::Tree => check_allowed(trace, oracle, keys, d, tally),
    }
}

/// Checks a naive-scheduler run: the single FIFO queue runs conflicting
/// requests in submission order, so every result and the final store
/// must equal the in-order oracle.
fn check_exact(oracle: &TraceOutcome, d: &Driven, tally: &mut Tally) {
    for (i, (got, want)) in d.results.iter().zip(&oracle.results).enumerate() {
        tally.check(&format!("naive service request {i}"), got == want);
    }
    tally.check(
        "naive service final store",
        d.final_state == oracle.final_state,
    );
}

/// A write as the allowed-values check sees it.
struct WriteRec {
    value: u64,
    submit: u64,
    done: u64,
    enable: u64,
}

/// Prints one key's writes, for a failed check.
fn log_writes(writes: &[WriteRec]) {
    for w in writes {
        eprintln!(
            "  write {} submitted {} ns, enabled {} ns, done {} ns",
            w.value, w.submit, w.enable, w.done
        );
    }
}

/// Values key `key`'s slot could hold at some instant in `[from, to]`:
/// writes to one key run in submission order, so the slot holds the value
/// of the last write finished before `from` (or 0), or of a later write
/// submitted by `to`.
fn allowed(writes: &[WriteRec], from: u64, to: u64) -> Vec<u64> {
    let first = writes.iter().rposition(|w| w.done < from);
    let last = writes.iter().rposition(|w| w.submit <= to);
    let mut out = Vec::new();
    if first.is_none() {
        out.push(0);
    }
    let lo = first.unwrap_or(0);
    if let Some(hi) = last {
        for w in writes.iter().take(hi + 1).skip(lo) {
            out.push(w.value);
        }
    }
    out
}

/// Most partial sums the scan check enumerates before it gives up on a
/// scan and counts it as unresolved.
const SCAN_SUMS_CAP: usize = 1 << 14;

/// Checks a tree-scheduler run. The tree scheduler may let a read pass a
/// still-pending writer (`apply_trace` documents this), so reads and scans
/// are checked against every value the store could hold while the request
/// was in flight; writes must echo their value, and the per-key final
/// store must equal the oracle's. Returns the number of scans whose
/// allowed sums exceeded the enumeration cap (passed unchecked).
fn check_allowed(
    trace: &[ServiceOp],
    oracle: &TraceOutcome,
    keys: usize,
    d: &Driven,
    tally: &mut Tally,
) -> u64 {
    let tenants = d.final_state.len();
    // Writes per (tenant, generation, key), in submission order.
    let mut gen = vec![0u32; tenants];
    let mut req_gen = Vec::with_capacity(d.results.len());
    let mut writes: HashMap<(usize, u32, usize), Vec<WriteRec>> = HashMap::new();
    let mut ord = 0usize;
    for &op in trace {
        match op {
            ServiceOp::Retire { tenant } => gen[tenant] += 1,
            ServiceOp::Write { tenant, key, value } => {
                let s = d.stamps[ord];
                writes
                    .entry((tenant, gen[tenant], key))
                    .or_default()
                    .push(WriteRec {
                        value,
                        submit: s.submit,
                        done: s.done,
                        enable: s.enable,
                    });
                req_gen.push(gen[tenant]);
                ord += 1;
            }
            _ => {
                req_gen.push(gen[op.tenant()]);
                ord += 1;
            }
        }
    }
    let empty: Vec<WriteRec> = Vec::new();
    let mut unresolved = 0;
    let mut ord = 0usize;
    for &op in trace {
        if matches!(op, ServiceOp::Retire { .. }) {
            continue;
        }
        let got = d.results[ord];
        let s = d.stamps[ord];
        let g = req_gen[ord];
        let ok = match op {
            ServiceOp::Write { value, .. } => got == value,
            ServiceOp::Read { tenant, key } => {
                let w = writes.get(&(tenant, g, key)).unwrap_or(&empty);
                allowed(w, s.submit, s.done).contains(&got)
            }
            ServiceOp::Scan { tenant } => {
                let mut sums = vec![0u64];
                let mut capped = false;
                for key in 0..keys {
                    let Some(w) = writes.get(&(tenant, g, key)) else {
                        continue;
                    };
                    let vals = allowed(w, s.submit, s.done);
                    let mut next: Vec<u64> = sums
                        .iter()
                        .flat_map(|a| vals.iter().map(move |v| a.wrapping_add(*v)))
                        .collect();
                    next.sort_unstable();
                    next.dedup();
                    if next.len() > SCAN_SUMS_CAP {
                        capped = true;
                        break;
                    }
                    sums = next;
                }
                if capped {
                    unresolved += 1;
                    true
                } else {
                    sums.binary_search(&got).is_ok()
                }
            }
            ServiceOp::Retire { .. } => unreachable!(),
        };
        if !ok {
            eprintln!(
                "tree request {ord} {op:?} returned {got}; in-order oracle {}; submitted {} ns, done {} ns",
                oracle.results[ord], s.submit, s.done
            );
            if let ServiceOp::Read { tenant, key } | ServiceOp::Write { tenant, key, .. } = op {
                log_writes(writes.get(&(tenant, g, key)).unwrap_or(&empty));
            }
        }
        tally.check(&format!("tree service request {ord}"), ok);
        ord += 1;
    }
    for (t, (got, want)) in d.final_state.iter().zip(&oracle.final_state).enumerate() {
        for k in (0..keys).filter(|&k| got[k] != want[k]) {
            eprintln!(
                "tree final store: tenant {t} key {k} holds {}, oracle {}",
                got[k], want[k]
            );
            log_writes(writes.get(&(t, gen[t], k)).unwrap_or(&empty));
        }
    }
    tally.check(
        "tree service final store",
        d.final_state == oracle.final_state,
    );
    unresolved
}
