//! Telemetry frames for simulated runs — the field-for-field mirror of
//! `dws_rt::telemetry`.
//!
//! The simulator samples the same [`TelemetryFrame`] schema the real
//! runtime's sampler thread emits, so `dws-top`, the JSONL sink and any
//! downstream tooling consume simulated and real co-runs
//! interchangeably. **Field names, types and declaration order here must
//! stay byte-identical to `dws_rt::telemetry`** — the `telemetry_mirror`
//! integration test in `dws-harness` enforces it by comparing serialized
//! schemas and cross-deserializing frames between the two crates.
//!
//! Differences of substance, not of schema:
//!
//! * `t_us` is the simulated clock, not wall time;
//! * [`LatencySample`] is all zeros — the simulator's µs-resolution event
//!   model has no nanosecond steal/sleep/wake histograms;
//! * `events_dropped` is the *global* sim trace drop count (one shared
//!   trace for all programs), repeated in every program's frame.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// Owner of one core at sample time (`-1` = free).
pub type CoreOwner = i64;

/// One core's slot in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreSample {
    /// Core index.
    pub core: usize,
    /// Home program under the initial equipartition.
    pub home: usize,
    /// Current owner, or `-1` when free.
    pub owner: CoreOwner,
}

/// One worker's state in a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerSample {
    /// Worker index.
    pub worker: usize,
    /// Is the worker asleep right now?
    pub asleep: bool,
    /// Jobs queued in the worker's deque.
    pub queue: usize,
}

/// The coordinator's most recent §3.3 evaluation: Eq. 1 inputs, the plan,
/// and what actually happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoordSample {
    /// Queued jobs observed (`N_b`).
    pub n_b: u64,
    /// Active workers observed (`N_a`).
    pub n_a: u64,
    /// Free cores observed (`N_f`).
    pub n_f: u64,
    /// Reclaimable home cores observed (`N_r`).
    pub n_r: u64,
    /// Eq. 1 wake target (`N_w`, clamped to sleepers).
    pub n_w: u64,
    /// Cores the plan takes from the free pool.
    pub planned_free: u64,
    /// Cores the plan reclaims.
    pub planned_reclaim: u64,
    /// Wakes actually delivered (CAS races can lose grants).
    pub woken: u64,
    /// Total coordinator evaluations so far (monotone).
    pub decisions: u64,
}

/// Monotone counters at sample time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CounterSample {
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steal attempts.
    pub steals_failed: u64,
    /// Jobs executed to completion.
    pub jobs_executed: u64,
    /// Worker sleeps.
    pub sleeps: u64,
    /// Worker wakes.
    pub wakes: u64,
    /// Idle yields.
    pub yields: u64,
    /// Coordinator invocations.
    pub coordinator_runs: u64,
    /// Free cores acquired from the table.
    pub cores_acquired: u64,
    /// Home cores reclaimed from co-runners.
    pub cores_reclaimed: u64,
    /// Cores released to the table on sleep.
    pub cores_released: u64,
    /// Trace events dropped on ring overflow (0 with tracing off).
    pub events_dropped: u64,
    /// Telemetry frames evicted from the frame ring to admit newer ones.
    pub frames_evicted: u64,
    /// Stranded cores reaped back from dead co-runners.
    pub cores_reaped: u64,
    /// Dead-program leases fenced by this runtime's reaper pass.
    pub leases_expired: u64,
    /// 1 when the allocation table has degraded to in-process mode
    /// (shared shm file lost or corrupted), else 0. Always 0 in
    /// simulation: the simulated table has no backing file to lose.
    pub degraded: u64,
    /// Tasks moved by successful steals. One batched steal bumps
    /// `steals_ok` once but can move several tasks; the ratio is the
    /// mean steal batch size.
    pub tasks_stolen: u64,
    /// Steal attempts that lost every CAS race against a non-empty deque.
    /// Always 0 in simulation: the discrete-event model serializes steal
    /// attempts, so no CAS race exists to lose.
    pub steals_contended: u64,
    /// External requests admitted from the submission ring. Always 0 in
    /// simulation: the sim has no cross-process ring — its arrival model
    /// ([`crate::arrival`]) drives the harness generator instead.
    pub requests_admitted: u64,
    /// External requests dropped on a full submission ring. Always 0 in
    /// simulation.
    pub requests_dropped: u64,
    /// External requests refused for a stale client epoch. Always 0 in
    /// simulation: the simulated ring has no cross-process clients to
    /// fence.
    pub requests_fenced: u64,
    /// Ring reservations abandoned by the consumer (client died between
    /// reserve and publish). Always 0 in simulation.
    pub requests_abandoned: u64,
    /// Times the program found its own lease fenced/recycled while
    /// stalled (zombie fencing). Always 0 in simulation: the checker
    /// models zombies separately in virtual time.
    pub zombies_fenced: u64,
    /// Zombie recoveries (own lease re-armed under a bumped epoch).
    /// Always 0 in simulation.
    pub leases_rearmed: u64,
    /// Coordinator passes triggered by a doorbell edge. Always 0 in
    /// simulation: the sim coordinator runs on virtual-time ticks, not
    /// futex wakes.
    pub doorbell_wakes: u64,
    /// This program's settled core-µs integral from the allocation ledger
    /// (DESIGN §14). Filled in simulation too: the simulator keeps an
    /// exact virtual-time ledger over its core table.
    pub core_us_total: u64,
}

/// Rolling latency percentiles in nanoseconds (always zero in simulation:
/// the discrete-event model has no sub-µs latency histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySample {
    /// Steal-attempt latency p50 over the last interval.
    pub steal_p50_ns: u64,
    /// Steal-attempt latency p99 over the last interval.
    pub steal_p99_ns: u64,
    /// Sleep duration p50 over the last interval.
    pub sleep_p50_ns: u64,
    /// Sleep duration p99 over the last interval.
    pub sleep_p99_ns: u64,
    /// Wake→first-task p50 over the last interval.
    pub wake_p50_ns: u64,
    /// Wake→first-task p99 over the last interval.
    pub wake_p99_ns: u64,
    /// Steal batch-size p50 over the last interval, as the upper
    /// power-of-two bucket bound (tasks, not ns; 0 when no steals landed
    /// — or, in `dws-rt`, when tracing is off).
    pub batch_p50_tasks: u64,
    /// Steal batch-size p99 over the last interval (tasks, not ns).
    pub batch_p99_tasks: u64,
    /// Task sojourn (spawn→exec-begin) p50 over the last interval.
    pub sojourn_p50_ns: u64,
    /// Task sojourn p99 over the last interval.
    pub sojourn_p99_ns: u64,
    /// Task sojourn p99.9 over the last interval.
    pub sojourn_p999_ns: u64,
    /// End-to-end request sojourn (client submit→exec-begin) p50 over the
    /// last interval. Always 0 in simulation, like the other latency
    /// percentiles.
    pub request_p50_ns: u64,
    /// Request sojourn p99 over the last interval.
    pub request_p99_ns: u64,
    /// Request sojourn p99.9 over the last interval.
    pub request_p999_ns: u64,
    /// Demand-satisfaction latency (Eq. 1 demand rise → core grant) p50
    /// over the last interval. Filled in simulation (µs-resolution demand
    /// clock, reported in ns), unlike the sub-µs histograms above.
    pub alloc_p50_ns: u64,
    /// Demand-satisfaction latency p99 over the last interval.
    pub alloc_p99_ns: u64,
    /// Demand-release latency (demand fall → core released) p50 over the
    /// last interval. Filled in simulation.
    pub release_p50_ns: u64,
    /// Demand-release latency p99 over the last interval.
    pub release_p99_ns: u64,
}

/// One time-series frame: everything an observer needs to render the
/// instant — core occupancy, worker states, demand/supply, counters and
/// rolling latency percentiles.
///
/// Field order is part of the wire format: `dws_rt::telemetry` declares
/// the identical struct and the two serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryFrame {
    /// Microseconds since the process trace epoch (real time) or the
    /// simulated clock (sim).
    pub t_us: u64,
    /// Emitting program id.
    pub prog: usize,
    /// Frame sequence number (monotone per program).
    pub seq: u64,
    /// Per-core occupancy, one entry per table core.
    pub cores: Vec<CoreSample>,
    /// Per-worker state, one entry per worker.
    pub workers: Vec<WorkerSample>,
    /// Latest coordinator decision.
    pub coord: CoordSample,
    /// Monotone counters.
    pub counters: CounterSample,
    /// Rolling latency percentiles.
    pub latency: LatencySample,
}

impl TelemetryFrame {
    /// Cores currently owned by the emitting program.
    pub fn cores_owned(&self) -> usize {
        self.cores.iter().filter(|c| c.owner == self.prog as i64).count()
    }

    /// Workers currently asleep.
    pub fn workers_asleep(&self) -> usize {
        self.workers.iter().filter(|w| w.asleep).count()
    }

    /// Total queued jobs across worker deques.
    pub fn queued_jobs(&self) -> usize {
        self.workers.iter().map(|w| w.queue).sum()
    }
}

/// Serializes frames as JSON Lines, one frame per line — the same
/// `--telemetry-out` sink format `dws_rt::frames_to_jsonl` produces.
pub fn frames_to_jsonl(frames: &[TelemetryFrame]) -> String {
    let mut out = String::new();
    for frame in frames {
        out.push_str(&serde_json::to_string(frame).expect("frame serialization"));
        out.push('\n');
    }
    out
}

/// Per-program sampling state: the bounded frame ring plus the last
/// coordinator decision (the sim analogue of `dws_rt`'s `DecisionCell` —
/// no seqlock needed, the simulator is single-threaded).
#[derive(Debug)]
pub(crate) struct ProgTelemetry {
    frames: VecDeque<TelemetryFrame>,
    seq: u64,
    evicted: u64,
    /// Last §3.3 evaluation for this program (`decisions` field unused
    /// here; the running count lives in [`ProgTelemetry::decisions`]).
    pub(crate) last_coord: CoordSample,
    /// Coordinator evaluations captured so far.
    pub(crate) decisions: u64,
    /// Demand-latency samples already folded into earlier frames, so each
    /// frame's percentiles cover only its own sampling window (the sim
    /// analogue of the rt side's rolling histogram diff).
    pub(crate) alloc_seen: usize,
    /// Same, for demand-release samples.
    pub(crate) release_seen: usize,
}

impl ProgTelemetry {
    fn new() -> Self {
        ProgTelemetry {
            frames: VecDeque::new(),
            seq: 0,
            evicted: 0,
            last_coord: CoordSample::default(),
            decisions: 0,
            alloc_seen: 0,
            release_seen: 0,
        }
    }

    pub(crate) fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// Sampler state for the whole machine: one ring per program plus the
/// sampling schedule.
#[derive(Debug)]
pub(crate) struct SimTelemetry {
    pub(crate) period_us: u64,
    pub(crate) next_sample_us: u64,
    capacity: usize,
    pub(crate) progs: Vec<ProgTelemetry>,
}

impl SimTelemetry {
    pub(crate) fn new(programs: usize, period_us: u64, capacity: usize, now_us: u64) -> Self {
        assert!(period_us > 0, "telemetry period must be nonzero");
        assert!(capacity > 0, "telemetry capacity must be nonzero");
        SimTelemetry {
            period_us,
            next_sample_us: now_us + period_us,
            capacity,
            progs: (0..programs).map(|_| ProgTelemetry::new()).collect(),
        }
    }

    /// Pushes a frame into `prog`'s ring, assigning its sequence number
    /// and evicting the oldest frame when full (mirroring the rt ring's
    /// evict-oldest policy).
    pub(crate) fn push(&mut self, prog: usize, mut frame: TelemetryFrame) {
        let capacity = self.capacity;
        let pt = &mut self.progs[prog];
        frame.seq = pt.seq;
        pt.seq += 1;
        if pt.frames.len() == capacity {
            pt.frames.pop_front();
            pt.evicted += 1;
        }
        pt.frames.push_back(frame);
    }

    pub(crate) fn frames(&self, prog: usize) -> Vec<TelemetryFrame> {
        self.progs[prog].frames.iter().cloned().collect()
    }

    pub(crate) fn latest(&self, prog: usize) -> Option<TelemetryFrame> {
        self.progs[prog].frames.back().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t_us: u64) -> TelemetryFrame {
        TelemetryFrame {
            t_us,
            prog: 0,
            seq: 0,
            cores: vec![CoreSample { core: 0, home: 0, owner: -1 }],
            workers: vec![WorkerSample { worker: 0, asleep: false, queue: 2 }],
            coord: CoordSample::default(),
            counters: CounterSample::default(),
            latency: LatencySample::default(),
        }
    }

    #[test]
    fn ring_assigns_monotone_seq_and_evicts_oldest() {
        let mut tel = SimTelemetry::new(1, 10, 2, 0);
        for t in 0..5 {
            tel.push(0, frame(t));
        }
        let frames = tel.frames(0);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 3);
        assert_eq!(frames[1].seq, 4);
        assert_eq!(tel.progs[0].evicted(), 3);
        assert_eq!(tel.latest(0).unwrap().t_us, 4);
    }

    #[test]
    fn jsonl_round_trips() {
        let text = frames_to_jsonl(&[frame(7), frame(8)]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: TelemetryFrame = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(back, frame(8));
    }
}
