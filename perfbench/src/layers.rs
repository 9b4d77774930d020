//! Per-layer figures of the traced run: counter deltas from
//! `Runtime::metrics()`, and the timing table's view of the shared core
//! table and the coordinators.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dws_rt::{
    jain_fairness, CoreTable, InProcessTable, LedgerSnapshot, LedgerTable, MetricsSnapshot, Runtime,
};

use crate::report::Report;
use crate::spans::{now_ns, Spans};
use crate::table::TimingTable;

/// The table the co-running programs share: a ledger over the in-process
/// table, wrapped in the timing decorator when the run is traced.
pub struct Shared {
    pub table: Arc<dyn CoreTable>,
    pub timing: Option<Arc<TimingTable>>,
}

impl Shared {
    pub fn new(nproc: usize, spans: Option<&Arc<Spans>>) -> Shared {
        let base: Arc<dyn CoreTable> =
            Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(nproc, 2))));
        match spans {
            Some(spans) => {
                let timing = Arc::new(TimingTable::new(base, Arc::clone(spans)));
                Shared { table: timing.clone(), timing: Some(timing) }
            }
            None => Shared { table: base, timing: None },
        }
    }
}

/// Field-wise `after - before` of the counters the per-layer record uses.
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        steals_ok: after.steals_ok - before.steals_ok,
        steals_failed: after.steals_failed - before.steals_failed,
        steals_contended: after.steals_contended - before.steals_contended,
        tasks_stolen: after.tasks_stolen - before.tasks_stolen,
        sleeps: after.sleeps - before.sleeps,
        wakes: after.wakes - before.wakes,
        yields: after.yields - before.yields,
        jobs_executed: after.jobs_executed - before.jobs_executed,
        coordinator_runs: after.coordinator_runs - before.coordinator_runs,
        doorbell_wakes: after.doorbell_wakes - before.doorbell_wakes,
        requests_admitted: after.requests_admitted - before.requests_admitted,
        ..MetricsSnapshot::default()
    }
}

/// Accumulates runtime counter deltas over the measured window.
#[derive(Debug, Default)]
pub struct Counters {
    total: MetricsSnapshot,
    /// `block_on` calls: each pushes one job into the injector.
    pub block_ons: u64,
}

impl Counters {
    pub fn add(&mut self, d: &MetricsSnapshot) {
        let t = &mut self.total;
        t.steals_ok += d.steals_ok;
        t.steals_failed += d.steals_failed;
        t.steals_contended += d.steals_contended;
        t.tasks_stolen += d.tasks_stolen;
        t.sleeps += d.sleeps;
        t.wakes += d.wakes;
        t.yields += d.yields;
        t.jobs_executed += d.jobs_executed;
        t.coordinator_runs += d.coordinator_runs;
        t.doorbell_wakes += d.doorbell_wakes;
        t.requests_admitted += d.requests_admitted;
    }

    pub fn report(&self, r: &mut Report) {
        let t = &self.total;
        let attempts = t.steals_ok + t.steals_failed + t.steals_contended;
        r.set("chase_lev.steals_ok", t.steals_ok as f64, 1);
        r.set("chase_lev.steals_failed", t.steals_failed as f64, 1);
        r.set("chase_lev.steals_contended", t.steals_contended as f64, 1);
        r.set("chase_lev.tasks_stolen", t.tasks_stolen as f64, 1);
        r.set("chase_lev.steal_success", ratio(t.steals_ok, attempts), attempts as usize);
        r.set("injector.jobs_in", (self.block_ons + t.requests_admitted) as f64, 1);
        r.set("sleep.sleeps", t.sleeps as f64, 1);
        r.set("sleep.wakes", t.wakes as f64, 1);
        r.set("sleep.wakes_per_job", ratio(t.wakes, t.jobs_executed), t.jobs_executed as usize);
        r.set("registry.jobs_executed", t.jobs_executed as f64, 1);
        r.set("registry.yields", t.yields as f64, 1);
        r.set("coordinator.passes", t.coordinator_runs as f64, 1);
        r.set("coordinator.doorbell_wakes", t.doorbell_wakes as f64, 1);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A window over a group of co-running runtimes and their shared table.
pub struct Window {
    before: Vec<MetricsSnapshot>,
    ledger: Option<LedgerSnapshot>,
}

impl Window {
    pub fn open(rts: &[&Runtime], shared: &Shared) -> Window {
        Window {
            before: rts.iter().map(|rt| rt.metrics()).collect(),
            ledger: shared.table.alloc_ledger().map(|l| l.snapshot()),
        }
    }

    /// Adds the runtimes' counter deltas to `counters` and, for a timed
    /// table, the table's figures to `r`.
    pub fn close(self, rts: &[&Runtime], shared: &Shared, counters: &mut Counters, r: &mut Report) {
        for (rt, before) in rts.iter().zip(&self.before) {
            counters.add(&delta(before, &rt.metrics()));
        }
        let Some(timing) = &shared.timing else { return };
        let s = timing.stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let (acq, acq_fail) = (load(&s.acquire_calls), load(&s.acquire_fails));
        let (rec, rec_fail) = (load(&s.reclaim_calls), load(&s.reclaim_fails));
        r.set("alloc_table.acquire_calls", acq as f64, 1);
        r.set("alloc_table.acquire_fail_ratio", ratio(acq_fail, acq), acq as usize);
        r.set("alloc_table.reclaim_calls", rec as f64, 1);
        r.set("alloc_table.reclaim_fail_ratio", ratio(rec_fail, rec), rec as usize);
        r.set("alloc_table.release_calls", load(&s.release_calls) as f64, 1);
        r.set("alloc_table.doorbell_rings", load(&s.doorbell_rings) as f64, 1);
        let mut calls = s.call_ns.lock().expect("stats poisoned").clone();
        r.quantile("alloc_table.call_ns.p50", &mut calls, 0.5);
        r.quantile("alloc_table.call_ns.p99", &mut calls, 0.99);
        let mut passes = s.pass_ns.lock().expect("stats poisoned").clone();
        r.quantile_scaled("coordinator.pass_us.p50", &mut passes, 0.5, 1e3);
        r.quantile_scaled("coordinator.pass_us.p99", &mut passes, 0.99, 1e3);
        let (wait, pass) = (load(&s.wait_ns), load(&s.pass_ns_total));
        r.set("coordinator.idle_frac", ratio(wait, wait + pass), passes.len());
        if let (Some(before), Some(ledger)) = (self.ledger, shared.table.alloc_ledger()) {
            let after = ledger.snapshot();
            let core_us: Vec<f64> =
                after.core_us.iter().zip(&before.core_us).map(|(a, b)| (a - b) as f64).collect();
            let free_us = (after.free_us - before.free_us) as f64;
            let total = core_us.iter().sum::<f64>() + free_us;
            r.set("alloc_table.free_core_frac", if total > 0.0 { free_us / total } else { 0.0 }, 1);
            r.set("alloc_table.jain", jain_fairness(&core_us), core_us.len());
        }
    }
}

/// Times one `block_on` call, recording a span named `name` under trace
/// id `run` when spans are on. Returns the result and the elapsed ns.
pub fn timed_block_on<R: Send>(
    rt: &Runtime,
    spans: Option<&Arc<Spans>>,
    name: &'static str,
    run: u64,
    f: impl FnOnce() -> R + Send,
) -> (R, u64) {
    let t0 = now_ns();
    let out = rt.block_on(f);
    let t1 = now_ns();
    if let Some(spans) = spans {
        spans.record(name, run, t0, t1);
    }
    (out, t1 - t0)
}
