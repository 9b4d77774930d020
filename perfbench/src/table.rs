//! A timing [`CoreTable`] decorator for the traced run.
//!
//! It wraps the shared table and sees every call the co-running
//! runtimes make into it, so coordinator passes and table CAS outcomes
//! are measured from outside `dws-rt`. Every trait method is forwarded
//! explicitly: a method left to its trait default would silently change
//! behaviour (a defaulted `wait_doorbell` turns doorbells into polling, a
//! defaulted `alloc_ledger` hides the ledger). The forwarding test below
//! fails if any method falls through.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dws_deque::SubmitRing;
use dws_rt::{AllocLedger, CoreTable};

use crate::spans::{now_ns, Spans};
use crate::stats::Samples;

/// What the decorator counted and timed.
#[derive(Debug, Default)]
pub struct TableStats {
    pub acquire_calls: AtomicU64,
    pub acquire_fails: AtomicU64,
    pub reclaim_calls: AtomicU64,
    pub reclaim_fails: AtomicU64,
    pub release_calls: AtomicU64,
    pub release_fails: AtomicU64,
    pub doorbell_rings: AtomicU64,
    /// Time coordinators spent parked in `wait_doorbell`.
    pub wait_ns: AtomicU64,
    /// Time between a `wait_doorbell` return and the next call: one pass.
    pub pass_ns_total: AtomicU64,
    /// Latency of each mutating CAS call (acquire, reclaim, release).
    pub call_ns: Mutex<Samples>,
    /// Duration of each coordinator pass.
    pub pass_ns: Mutex<Samples>,
}

pub struct TimingTable {
    inner: Arc<dyn CoreTable>,
    spans: Arc<Spans>,
    stats: TableStats,
    /// Per program: when its last `wait_doorbell` returned (0 = never).
    woke_at: Vec<AtomicU64>,
}

impl TimingTable {
    pub fn new(inner: Arc<dyn CoreTable>, spans: Arc<Spans>) -> Self {
        let woke_at = (0..inner.max_programs()).map(|_| AtomicU64::new(0)).collect();
        TimingTable { inner, spans, stats: TableStats::default(), woke_at }
    }

    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    fn cas(
        &self,
        name: &'static str,
        calls: &AtomicU64,
        fails: &AtomicU64,
        f: impl FnOnce() -> bool,
    ) -> bool {
        let t0 = now_ns();
        let ok = f();
        let t1 = now_ns();
        calls.fetch_add(1, Ordering::Relaxed);
        if !ok {
            fails.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.call_ns.lock().expect("stats poisoned").push((t1 - t0) as f64);
        self.spans.record(name, 0, t0, t1);
        ok
    }
}

impl CoreTable for TimingTable {
    fn cores(&self) -> usize {
        self.inner.cores()
    }

    fn max_programs(&self) -> usize {
        self.inner.max_programs()
    }

    fn home(&self, core: usize) -> usize {
        self.inner.home(core)
    }

    fn current(&self, core: usize) -> Option<usize> {
        self.inner.current(core)
    }

    fn release(&self, core: usize, prog: usize) -> bool {
        let s = &self.stats;
        self.cas("table.release", &s.release_calls, &s.release_fails, || {
            self.inner.release(core, prog)
        })
    }

    fn try_acquire_free(&self, core: usize, prog: usize) -> bool {
        let s = &self.stats;
        self.cas("table.acquire", &s.acquire_calls, &s.acquire_fails, || {
            self.inner.try_acquire_free(core, prog)
        })
    }

    fn try_reclaim(&self, core: usize, prog: usize) -> bool {
        let s = &self.stats;
        self.cas("table.reclaim", &s.reclaim_calls, &s.reclaim_fails, || {
            self.inner.try_reclaim(core, prog)
        })
    }

    fn free_cores(&self) -> Vec<usize> {
        self.inner.free_cores()
    }

    fn reclaimable_cores(&self, prog: usize) -> Vec<usize> {
        self.inner.reclaimable_cores(prog)
    }

    fn used_by(&self, prog: usize) -> Vec<usize> {
        self.inner.used_by(prog)
    }

    fn owners(&self) -> Vec<i64> {
        self.inner.owners()
    }

    fn heartbeat(&self, prog: usize) {
        self.inner.heartbeat(prog);
    }

    fn mark_dead(&self, prog: usize) {
        self.inner.mark_dead(prog);
    }

    fn reapable_programs(&self, caller: usize, timeout: Duration) -> Vec<usize> {
        self.inner.reapable_programs(caller, timeout)
    }

    fn fence_expired(&self, prog: usize) -> bool {
        self.inner.fence_expired(prog)
    }

    fn try_reap(&self, core: usize, dead: usize) -> bool {
        self.inner.try_reap(core, dead)
    }

    fn finish_reap(&self, dead: usize) -> bool {
        self.inner.finish_reap(dead)
    }

    fn check_health(&self) -> bool {
        self.inner.check_health()
    }

    fn degraded(&self) -> bool {
        self.inner.degraded()
    }

    fn submit_ring(&self, prog: usize) -> Option<&SubmitRing> {
        self.inner.submit_ring(prog)
    }

    fn alloc_ledger(&self) -> Option<&AllocLedger> {
        self.inner.alloc_ledger()
    }

    fn bind_self(&self, prog: usize) {
        self.inner.bind_self(prog);
    }

    fn zombie_fenced(&self) -> bool {
        self.inner.zombie_fenced()
    }

    fn try_rearm(&self, prog: usize) -> bool {
        self.inner.try_rearm(prog)
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.inner.set_stall_timeout(timeout);
    }

    fn degrade_now(&self) {
        self.inner.degrade_now();
    }

    fn ring_doorbell(&self, prog: usize, reason: u32) {
        self.stats.doorbell_rings.fetch_add(1, Ordering::Relaxed);
        self.inner.ring_doorbell(prog, reason);
    }

    fn wait_doorbell(&self, prog: usize, timeout: Duration) -> u32 {
        let t0 = now_ns();
        let woke = self.woke_at.get(prog).map_or(0, |w| w.load(Ordering::Relaxed));
        if woke != 0 {
            let pass = t0.saturating_sub(woke);
            self.stats.pass_ns_total.fetch_add(pass, Ordering::Relaxed);
            self.stats.pass_ns.lock().expect("stats poisoned").push(pass as f64);
            self.spans.record("coordinator.pass", 0, woke, t0);
        }
        let rung = self.inner.wait_doorbell(prog, timeout);
        let t1 = now_ns();
        self.stats.wait_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        if let Some(w) = self.woke_at.get(prog) {
            w.store(t1, Ordering::Relaxed);
        }
        rung
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dws_rt::{InProcessTable, LedgerTable};

    use super::*;

    /// Every `CoreTable` method, by name.
    const METHODS: [&str; 28] = [
        "cores",
        "max_programs",
        "home",
        "current",
        "release",
        "try_acquire_free",
        "try_reclaim",
        "free_cores",
        "reclaimable_cores",
        "used_by",
        "owners",
        "heartbeat",
        "mark_dead",
        "reapable_programs",
        "fence_expired",
        "try_reap",
        "finish_reap",
        "check_health",
        "degraded",
        "submit_ring",
        "alloc_ledger",
        "bind_self",
        "zombie_fenced",
        "try_rearm",
        "set_stall_timeout",
        "degrade_now",
        "ring_doorbell",
        "wait_doorbell",
    ];

    /// A table that overrides every method and logs which were reached.
    struct Probe {
        seen: Mutex<BTreeSet<&'static str>>,
        ring: SubmitRing,
        ledger: AllocLedger,
    }

    impl Probe {
        fn hit(&self, m: &'static str) {
            self.seen.lock().unwrap().insert(m);
        }
    }

    impl CoreTable for Probe {
        fn cores(&self) -> usize {
            self.hit("cores");
            2
        }
        fn max_programs(&self) -> usize {
            self.hit("max_programs");
            2
        }
        fn home(&self, core: usize) -> usize {
            self.hit("home");
            core % 2
        }
        fn current(&self, core: usize) -> Option<usize> {
            self.hit("current");
            Some(core % 2)
        }
        fn release(&self, _: usize, _: usize) -> bool {
            self.hit("release");
            true
        }
        fn try_acquire_free(&self, _: usize, _: usize) -> bool {
            self.hit("try_acquire_free");
            true
        }
        fn try_reclaim(&self, _: usize, _: usize) -> bool {
            self.hit("try_reclaim");
            true
        }
        fn free_cores(&self) -> Vec<usize> {
            self.hit("free_cores");
            vec![]
        }
        fn reclaimable_cores(&self, _: usize) -> Vec<usize> {
            self.hit("reclaimable_cores");
            vec![]
        }
        fn used_by(&self, _: usize) -> Vec<usize> {
            self.hit("used_by");
            vec![]
        }
        fn owners(&self) -> Vec<i64> {
            self.hit("owners");
            vec![0, 1]
        }
        fn heartbeat(&self, _: usize) {
            self.hit("heartbeat");
        }
        fn mark_dead(&self, _: usize) {
            self.hit("mark_dead");
        }
        fn reapable_programs(&self, _: usize, _: Duration) -> Vec<usize> {
            self.hit("reapable_programs");
            vec![]
        }
        fn fence_expired(&self, _: usize) -> bool {
            self.hit("fence_expired");
            false
        }
        fn try_reap(&self, _: usize, _: usize) -> bool {
            self.hit("try_reap");
            false
        }
        fn finish_reap(&self, _: usize) -> bool {
            self.hit("finish_reap");
            false
        }
        fn check_health(&self) -> bool {
            self.hit("check_health");
            true
        }
        fn degraded(&self) -> bool {
            self.hit("degraded");
            false
        }
        fn submit_ring(&self, _: usize) -> Option<&SubmitRing> {
            self.hit("submit_ring");
            Some(&self.ring)
        }
        fn alloc_ledger(&self) -> Option<&AllocLedger> {
            self.hit("alloc_ledger");
            Some(&self.ledger)
        }
        fn bind_self(&self, _: usize) {
            self.hit("bind_self");
        }
        fn zombie_fenced(&self) -> bool {
            self.hit("zombie_fenced");
            false
        }
        fn try_rearm(&self, _: usize) -> bool {
            self.hit("try_rearm");
            false
        }
        fn set_stall_timeout(&self, _: Option<Duration>) {
            self.hit("set_stall_timeout");
        }
        fn degrade_now(&self) {
            self.hit("degrade_now");
        }
        fn ring_doorbell(&self, _: usize, _: u32) {
            self.hit("ring_doorbell");
        }
        fn wait_doorbell(&self, _: usize, _: Duration) -> u32 {
            self.hit("wait_doorbell");
            1
        }
    }

    #[test]
    fn every_method_is_forwarded_not_defaulted() {
        let ledger = AllocLedger::new(&InProcessTable::new(2, 2));
        let probe = Arc::new(Probe {
            seen: Mutex::new(BTreeSet::new()),
            ring: SubmitRing::with_capacity(4),
            ledger,
        });
        let t = TimingTable::new(probe.clone(), Arc::new(Spans::with_capacity(64)));
        probe.seen.lock().unwrap().clear();
        let d = Duration::from_millis(1);
        t.cores();
        t.max_programs();
        t.home(0);
        t.current(0);
        t.release(0, 0);
        t.try_acquire_free(0, 0);
        t.try_reclaim(0, 0);
        t.free_cores();
        t.reclaimable_cores(0);
        t.used_by(0);
        t.owners();
        t.heartbeat(0);
        t.mark_dead(0);
        t.reapable_programs(0, d);
        t.fence_expired(0);
        t.try_reap(0, 0);
        t.finish_reap(0);
        t.check_health();
        t.degraded();
        assert!(t.submit_ring(0).is_some());
        assert!(t.alloc_ledger().is_some());
        t.bind_self(0);
        t.zombie_fenced();
        t.try_rearm(0);
        t.set_stall_timeout(None);
        t.degrade_now();
        t.ring_doorbell(0, 1);
        assert_eq!(t.wait_doorbell(0, d), 1);
        let seen = probe.seen.lock().unwrap().clone();
        let missing: Vec<_> = METHODS.iter().filter(|m| !seen.contains(*m)).collect();
        assert!(missing.is_empty(), "methods fell through to trait defaults: {missing:?}");
        assert_eq!(seen.len(), METHODS.len());
    }

    #[test]
    fn counts_cas_outcomes_and_doorbell_passes() {
        let inner: Arc<dyn CoreTable> =
            Arc::new(LedgerTable::new(Arc::new(InProcessTable::new(2, 2))));
        let t = TimingTable::new(inner, Arc::new(Spans::with_capacity(64)));
        assert!(t.release(0, 0));
        assert!(!t.release(0, 0));
        assert!(t.try_acquire_free(0, 1));
        assert!(t.try_reclaim(0, 0));
        assert!(!t.try_reclaim(0, 0));
        t.ring_doorbell(0, 1);
        assert_eq!(t.wait_doorbell(0, Duration::from_millis(1)), 1);
        assert_eq!(t.wait_doorbell(0, Duration::from_millis(1)), 0);
        let s = t.stats();
        assert_eq!(s.release_calls.load(Ordering::Relaxed), 2);
        assert_eq!(s.release_fails.load(Ordering::Relaxed), 1);
        assert_eq!(s.acquire_calls.load(Ordering::Relaxed), 1);
        assert_eq!(s.reclaim_fails.load(Ordering::Relaxed), 1);
        assert_eq!(s.doorbell_rings.load(Ordering::Relaxed), 1);
        assert_eq!(s.call_ns.lock().unwrap().len(), 5);
        assert_eq!(s.pass_ns.lock().unwrap().len(), 1);
        assert!(t.alloc_ledger().is_some(), "the wrapped ledger stays reachable");
    }
}
