//! Per-worker sleep/wake machinery.
//!
//! Algorithm 1 line 15-16: a worker "goes to sleep; waits to be woken
//! up". Each worker owns a mutex+condvar pair; the coordinator (or the
//! shutdown path) wakes a *specific* worker — the one affined to the core
//! being granted — matching the paper's "wake up the workers on the
//! correspondence cores".

use std::time::Duration;

use crate::sync::{AtomicBool, Condvar, Mutex, Ordering};

/// Why a sleeping worker resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// A wake was delivered (coordinator grant or shutdown).
    Woken,
    /// The safety timeout elapsed without a wake.
    TimedOut,
}

/// One worker's sleep slot.
#[derive(Debug, Default)]
pub struct Sleeper {
    /// True while the worker is asleep (read by the coordinator to count
    /// `N_a` and pick wake targets without locking).
    sleeping: AtomicBool,
    /// Wake permit: set by `wake`, consumed by the sleeper. Guards against
    /// the wake-before-sleep race (a permit delivered while the worker is
    /// still draining makes the next `sleep` return immediately).
    permit: Mutex<bool>,
    cond: Condvar,
}

impl Sleeper {
    /// Creates a slot in the awake state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the worker is currently asleep.
    pub fn is_sleeping(&self) -> bool {
        self.sleeping.load(Ordering::Acquire)
    }

    /// Blocks the calling worker until woken or until `timeout` elapses
    /// (if provided). Returns why it resumed.
    pub fn sleep(&self, timeout: Option<Duration>) -> WakeReason {
        self.sleep_unless(timeout, || false)
    }

    /// As [`Sleeper::sleep`], but once the worker is flagged asleep it
    /// asks `stay_awake` whether to skip the sleep after all (returning
    /// [`WakeReason::Woken`] without blocking).
    ///
    /// This closes the lost-wake window between a worker's last look for
    /// work and its sleep: a waker that publishes work and *then* scans
    /// for sleepers behind a `SeqCst` fence (as the runtime's
    /// `Registry::sleeping_workers` does) either sees this worker asleep
    /// and wakes it, or `stay_awake` — called after the flag store and a
    /// `SeqCst` fence — sees the work.
    pub fn sleep_unless(
        &self,
        timeout: Option<Duration>,
        stay_awake: impl FnOnce() -> bool,
    ) -> WakeReason {
        let mut permit = self.permit.lock();
        if *permit {
            // A wake raced ahead of us; consume it and do not block.
            *permit = false;
            return WakeReason::Woken;
        }
        self.sleeping.store(true, Ordering::SeqCst);
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        if stay_awake() {
            self.sleeping.store(false, Ordering::Release);
            return WakeReason::Woken;
        }
        let reason = loop {
            match timeout {
                Some(t) => {
                    if self.cond.wait_for(&mut permit, t).timed_out() {
                        break if *permit { WakeReason::Woken } else { WakeReason::TimedOut };
                    }
                }
                None => self.cond.wait(&mut permit),
            }
            if *permit {
                break WakeReason::Woken;
            }
            // Spurious wake-up: sleep again.
        };
        *permit = false;
        self.sleeping.store(false, Ordering::Release);
        reason
    }

    /// As [`Sleeper::sleep_unless`], also measuring how long the call blocked
    /// (for the sleep-duration histogram; a consumed pre-delivered permit
    /// reports a near-zero duration).
    pub fn sleep_timed(
        &self,
        timeout: Option<Duration>,
        stay_awake: impl FnOnce() -> bool,
    ) -> (WakeReason, Duration) {
        let t0 = std::time::Instant::now();
        let reason = self.sleep_unless(timeout, stay_awake);
        (reason, t0.elapsed())
    }

    /// Delivers a wake permit. Idempotent; safe to call whether or not the
    /// worker is currently asleep.
    pub fn wake(&self) {
        let mut permit = self.permit.lock();
        *permit = true;
        self.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn wake_releases_sleeper() {
        let s = Arc::new(Sleeper::new());
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || s2.sleep(None));
        // Wait until it is actually asleep, then wake.
        while !s.is_sleeping() {
            std::thread::yield_now();
        }
        s.wake();
        assert_eq!(h.join().unwrap(), WakeReason::Woken);
        assert!(!s.is_sleeping());
    }

    #[test]
    fn stay_awake_skips_the_sleep_after_flagging_it() {
        let s = Sleeper::new();
        let t0 = Instant::now();
        let reason = s.sleep_unless(Some(Duration::from_secs(5)), || {
            assert!(s.is_sleeping(), "re-check must run with the flag up");
            true
        });
        assert_eq!(reason, WakeReason::Woken);
        assert!(t0.elapsed() < Duration::from_millis(500), "must not block");
        assert!(!s.is_sleeping());
    }

    #[test]
    fn timeout_fires_without_wake() {
        let s = Sleeper::new();
        let t0 = Instant::now();
        let reason = s.sleep(Some(Duration::from_millis(20)));
        assert_eq!(reason, WakeReason::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn wake_before_sleep_is_not_lost() {
        let s = Sleeper::new();
        s.wake();
        let t0 = Instant::now();
        let reason = s.sleep(Some(Duration::from_secs(5)));
        assert_eq!(reason, WakeReason::Woken);
        assert!(t0.elapsed() < Duration::from_millis(500), "must not block");
    }

    #[test]
    fn repeated_cycles() {
        let s = Arc::new(Sleeper::new());
        for _ in 0..20 {
            let s2 = Arc::clone(&s);
            let h = std::thread::spawn(move || s2.sleep(Some(Duration::from_secs(2))));
            while !s.is_sleeping() {
                std::thread::yield_now();
            }
            s.wake();
            assert_eq!(h.join().unwrap(), WakeReason::Woken);
        }
    }

    #[test]
    fn sleep_timed_reports_duration() {
        let s = Sleeper::new();
        let (reason, dur) = s.sleep_timed(Some(Duration::from_millis(20)), || false);
        assert_eq!(reason, WakeReason::TimedOut);
        assert!(dur >= Duration::from_millis(15));
        s.wake();
        let (reason, dur) = s.sleep_timed(Some(Duration::from_secs(5)), || false);
        assert_eq!(reason, WakeReason::Woken);
        assert!(dur < Duration::from_millis(500));
    }

    #[test]
    fn double_wake_is_idempotent() {
        let s = Sleeper::new();
        s.wake();
        s.wake();
        assert_eq!(s.sleep(Some(Duration::from_secs(1))), WakeReason::Woken);
        // The permit was consumed: the next sleep times out.
        assert_eq!(s.sleep(Some(Duration::from_millis(10))), WakeReason::TimedOut);
    }
}
