//! Deterministic regression tests for the *production* [`dws_rt::Sleeper`]
//! under the dws-check scheduler. These promote the wall-clock races in
//! `sleep.rs`'s unit tests (wake-before-sleep, timeout-vs-wake) to
//! exhaustive / seed-replayable explorations: every interleaving of the
//! permit protocol is driven explicitly instead of waited for.
//!
//! Build with `RUSTFLAGS="--cfg dws_check" cargo test -p dws-rt --test
//! check_sleep` — without the cfg this file compiles to nothing (the real
//! parking_lot primitives cannot participate in the virtual-time
//! scheduler).
#![cfg(dws_check)]

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

use dws_check::{explore_dfs, explore_random, CheckOptions, Env, FaultPlan, Outcome, PostCheck};
use dws_rt::{Doorbell, Sleeper, WakeReason, DOORBELL_DEMAND, DOORBELL_RELEASE, DOORBELL_SUBMIT};

/// Spawns the two-thread wake/sleep race from `sleep.rs` and records the
/// sleeper's outcome(s). A first-timeout path re-sleeps once: the permit
/// protocol owes it the wake.
fn sleeper_race(
    env: &Env,
    waker_delay_ns: u64,
    first_timeout_ns: u64,
    outcomes: &Arc<StdMutex<Vec<WakeReason>>>,
) {
    let s = Arc::new(Sleeper::new());
    {
        let s2 = Arc::clone(&s);
        env.spawn("waker", move || {
            if waker_delay_ns > 0 {
                dws_check::sync::sleep(Duration::from_nanos(waker_delay_ns));
            }
            s2.wake();
        });
    }
    let out = Arc::clone(outcomes);
    env.spawn("sleeper", move || {
        let r1 = s.sleep(Some(Duration::from_nanos(first_timeout_ns)));
        out.lock().unwrap().push(r1);
        if r1 == WakeReason::TimedOut {
            let r2 = s.sleep(Some(Duration::from_nanos(500_000)));
            out.lock().unwrap().push(r2);
        }
    });
}

#[test]
fn real_sleeper_wake_before_sleep_is_never_lost() {
    // Immediate waker, generous first timeout: in every schedule the
    // sleeper must see the wake on its first sleep. DFS exhausts the
    // whole space.
    let report = explore_dfs(&CheckOptions::default(), 5_000, |env, _seed| {
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let out = Arc::clone(&outcomes);
        sleeper_race(env, 0, 300_000, &outcomes);
        move |clean: bool| {
            let o = out.lock().unwrap();
            let error = if !clean || o.first() == Some(&WakeReason::Woken) {
                None
            } else {
                Some(format!("wake was lost: sleeper saw {:?}", *o))
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
    assert!(report.schedules < 5_000, "schedule space unexpectedly large");
}

#[test]
fn real_sleeper_timeout_vs_wake_resolves_exactly_once() {
    // Short first timeout racing a delayed waker: the sleeper either gets
    // the wake directly or times out and then receives it on the next
    // sleep — never lost, never duplicated. Both paths must be reached.
    let timed_out = Arc::new(StdAtomicUsize::new(0));
    let woken = Arc::new(StdAtomicUsize::new(0));
    let (to2, wo2) = (Arc::clone(&timed_out), Arc::clone(&woken));
    // Delay ≈ timeout so the winner is decided purely by which thread
    // the scheduler runs first — both outcomes live in the space.
    let report = explore_random(&CheckOptions::default(), 0x51EE, 400, move |env, _seed| {
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let out = Arc::clone(&outcomes);
        let (to, wo) = (Arc::clone(&to2), Arc::clone(&wo2));
        sleeper_race(env, 700, 700, &outcomes);
        move |clean: bool| {
            let o = out.lock().unwrap();
            let error = if !clean {
                None
            } else {
                match o.as_slice() {
                    [WakeReason::Woken] => {
                        wo.fetch_add(1, StdOrdering::Relaxed);
                        None
                    }
                    [WakeReason::TimedOut, WakeReason::Woken] => {
                        to.fetch_add(1, StdOrdering::Relaxed);
                        None
                    }
                    other => Some(format!("wake lost or duplicated: {other:?}")),
                }
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
    assert!(timed_out.load(StdOrdering::Relaxed) > 0, "timeout path never explored");
    assert!(woken.load(StdOrdering::Relaxed) > 0, "direct-wake path never explored");
}

#[test]
fn real_sleeper_stay_awake_recheck_never_strands_work() {
    // A publisher pushes work and then wakes the worker only if it sees
    // it asleep; the worker re-checks for work after flagging itself
    // asleep. In every schedule one of the two must notice the other:
    // the sleep ends Woken, never by the timeout. Both resolutions (the
    // re-check finds the work; the publisher's wake lands) must be
    // reached. Exhaustive.
    let rechecked = Arc::new(StdAtomicUsize::new(0));
    let woken = Arc::new(StdAtomicUsize::new(0));
    let (rc2, wo2) = (Arc::clone(&rechecked), Arc::clone(&woken));
    let report = explore_dfs(&CheckOptions::default(), 5_000, move |env: &Env, _seed| {
        let s = Arc::new(Sleeper::new());
        let work = Arc::new(dws_check::sync::AtomicBool::new(false));
        {
            let (s2, work2) = (Arc::clone(&s), Arc::clone(&work));
            env.spawn("publisher", move || {
                work2.store(true, StdOrdering::SeqCst);
                if s2.is_sleeping() {
                    s2.wake();
                }
            });
        }
        let outcome = Arc::new(StdMutex::new(None));
        {
            let out = Arc::clone(&outcome);
            env.spawn("sleeper", move || {
                let mut saw_work = false;
                let r = s.sleep_unless(Some(Duration::from_nanos(400_000)), || {
                    saw_work = work.load(StdOrdering::SeqCst);
                    saw_work
                });
                *out.lock().unwrap() = Some((r, saw_work));
            });
        }
        let (rc, wo) = (Arc::clone(&rc2), Arc::clone(&wo2));
        move |clean: bool| {
            let error = match *outcome.lock().unwrap() {
                _ if !clean => None,
                Some((WakeReason::Woken, saw_work)) => {
                    let hits = if saw_work { &rc } else { &wo };
                    hits.fetch_add(1, StdOrdering::Relaxed);
                    None
                }
                other => Some(format!("published work stranded a sleeper: {other:?}")),
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
    assert!(rechecked.load(StdOrdering::Relaxed) > 0, "re-check path never explored");
    assert!(woken.load(StdOrdering::Relaxed) > 0, "publisher-wake path never explored");
}

#[test]
fn real_sleeper_survives_fault_injection() {
    // Delayed and spurious wake delivery must not break the permit
    // protocol: a spurious wake without a permit re-sleeps, a delayed
    // wake still lands (or the 500 µs re-sleep collects it).
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let report = explore_random(&opts, 0xFA57, 300, |env, _seed| {
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        let out = Arc::clone(&outcomes);
        sleeper_race(env, 1_000, 2_000, &outcomes);
        move |clean: bool| {
            let o = out.lock().unwrap();
            let error = if !clean || o.last() == Some(&WakeReason::Woken) {
                None
            } else {
                Some(format!("wake lost under faults: sleeper saw {:?}", *o))
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
}

#[test]
fn real_doorbell_rings_are_never_lost_and_reasons_accumulate() {
    // Two ringers race one waiter over the *production* Doorbell (the
    // event-driven control plane's wake edge, DESIGN §16). Whatever the
    // interleaving — both rings before the wait, one during, one after a
    // timeout — the waiter must eventually observe BOTH reason bits:
    // the pending word survives until consumed, so the check-then-park
    // window that loses wakes in naive condvar code does not exist.
    // DFS exhausts the whole schedule space.
    let report = explore_dfs(&CheckOptions::default(), 5_000, |env: &Env, _seed| {
        let d = Arc::new(Doorbell::new());
        for (name, reason) in [("ring-release", DOORBELL_RELEASE), ("ring-submit", DOORBELL_SUBMIT)]
        {
            let d2 = Arc::clone(&d);
            env.spawn(name, move || d2.ring(reason));
        }
        let got = Arc::new(StdMutex::new(0u32));
        {
            let (d2, got2) = (Arc::clone(&d), Arc::clone(&got));
            env.spawn("waiter", move || {
                let mut acc = d2.wait(Duration::from_nanos(300_000));
                if acc != DOORBELL_RELEASE | DOORBELL_SUBMIT {
                    // One ring raced past the first wait: the second wait
                    // owes us the other bit.
                    acc |= d2.wait(Duration::from_nanos(300_000));
                }
                *got2.lock().unwrap() = acc;
            });
        }
        move |clean: bool| {
            let acc = *got.lock().unwrap();
            let error = if !clean || acc == DOORBELL_RELEASE | DOORBELL_SUBMIT {
                None
            } else {
                Some(format!("doorbell ring lost: waiter accumulated {acc:#x}"))
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
    assert!(report.schedules < 5_000, "schedule space unexpectedly large");
}

#[test]
fn real_doorbell_survives_fault_injection() {
    // Delayed notification delivery and spurious wake-ups must not break
    // the pending-word protocol: a spurious wake with nothing pending
    // re-waits, and a notification delayed past the first timeout still
    // lands because the word itself persists for the next wait.
    let opts = CheckOptions { faults: FaultPlan::aggressive(), ..CheckOptions::default() };
    let report = explore_random(&opts, 0xBE11, 300, |env: &Env, _seed| {
        let d = Arc::new(Doorbell::new());
        {
            let d2 = Arc::clone(&d);
            env.spawn("ringer", move || {
                dws_check::sync::sleep(Duration::from_nanos(1_000));
                d2.ring(DOORBELL_DEMAND);
            });
        }
        let got = Arc::new(StdMutex::new(0u32));
        {
            let (d2, got2) = (Arc::clone(&d), Arc::clone(&got));
            env.spawn("waiter", move || {
                // Short first wait racing the ring, generous second wait
                // as the fallback heartbeat.
                let mut acc = d2.wait(Duration::from_nanos(2_000));
                if acc == 0 {
                    acc = d2.wait(Duration::from_nanos(500_000));
                }
                *got2.lock().unwrap() = acc;
            });
        }
        move |clean: bool| {
            let acc = *got.lock().unwrap();
            let error = if !clean || acc == DOORBELL_DEMAND {
                None
            } else {
                Some(format!("doorbell ring lost under faults: waiter accumulated {acc:#x}"))
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
}

#[test]
fn real_sleeper_double_wake_single_permit() {
    // Two wakers race one sleeper. Whatever the interleaving, the first
    // sleep must be Woken (a permit is never lost), and when both wakes
    // land before it, they collapse into one permit so the second sleep
    // times out. Exhaustive over all waker orderings; both second-sleep
    // outcomes must be reached.
    let timed_out = Arc::new(StdAtomicUsize::new(0));
    let woken = Arc::new(StdAtomicUsize::new(0));
    let (to2, wo2) = (Arc::clone(&timed_out), Arc::clone(&woken));
    let report = explore_dfs(&CheckOptions::default(), 5_000, move |env: &Env, _seed| {
        let s = Arc::new(Sleeper::new());
        let outcomes = Arc::new(StdMutex::new(Vec::new()));
        for name in ["waker-a", "waker-b"] {
            let s2 = Arc::clone(&s);
            env.spawn(name, move || s2.wake());
        }
        {
            let out = Arc::clone(&outcomes);
            env.spawn("sleeper", move || {
                let r1 = s.sleep(Some(Duration::from_nanos(400_000)));
                let r2 = s.sleep(Some(Duration::from_nanos(1_000)));
                let mut o = out.lock().unwrap();
                o.push(r1);
                o.push(r2);
            });
        }
        let out = Arc::clone(&outcomes);
        let (to, wo) = (Arc::clone(&to2), Arc::clone(&wo2));
        move |clean: bool| {
            let o = out.lock().unwrap();
            let error = if !clean {
                None
            } else {
                match o.as_slice() {
                    [WakeReason::Woken, r2] => {
                        match r2 {
                            WakeReason::TimedOut => to.fetch_add(1, StdOrdering::Relaxed),
                            WakeReason::Woken => wo.fetch_add(1, StdOrdering::Relaxed),
                        };
                        None
                    }
                    other => Some(format!("first wake was lost: {other:?}")),
                }
            };
            PostCheck { events: Vec::new(), error }
        }
    });
    assert!(matches!(report.outcome, Outcome::Pass), "{:?}", report.failing());
    // Both "wakes collapse into one permit" and "second wake arrives
    // after the first sleep" must appear somewhere in the space.
    assert!(timed_out.load(StdOrdering::Relaxed) > 0, "permit-collapse path never explored");
    assert!(woken.load(StdOrdering::Relaxed) > 0, "late-second-wake path never explored");
}
