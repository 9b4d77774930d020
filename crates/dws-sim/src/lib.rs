//! # dws-sim — deterministic multicore simulator for the DWS reproduction
//!
//! The paper *"DWS: Demand-aware Work-Stealing in Multi-programmed
//! Multi-core Architectures"* (Chen, Zheng, Guo — PMAM'14 / PPoPP 2014)
//! evaluates its scheduler on a 16-core, 2-socket Xeon testbed. This crate
//! is a discrete-event model of that setup, faithful to the mechanisms the
//! paper's arguments rest on:
//!
//! * per-core OS run queues with quantum preemption, `sched_yield`
//!   semantics and sleep/wake ([`os`]);
//! * a cache-interference model charging cold-cache, shared-LLC and
//!   socket-spread penalties to memory-intensive work ([`cache`]);
//! * work-stealing programs with per-worker deques executing fork-join
//!   workloads whose parallelism varies over time ([`program`],
//!   [`workload`]);
//! * the paper's Algorithm 1 worker loop, the shared core-allocation
//!   table (Table 1) and the §3.3 coordinator with Eq. 1 and its three
//!   constraint cases ([`alloc_table`], [`coordinator`]);
//! * the five compared schedulers — WS, ABP, EP, DWS, DWS-NC
//!   ([`policy`]).
//!
//! Simulations are pure functions of their configuration and seed, so
//! every figure of the paper can be regenerated deterministically
//! (see the `dws-harness` crate).
//!
//! ```
//! use dws_sim::{
//!     run_pair, Policy, ProgramSpec, RunOptions, SchedConfig, SimConfig,
//!     PhaseSpec, WorkloadSpec,
//! };
//!
//! let wl = |name: &str| WorkloadSpec {
//!     name: name.into(),
//!     phases: vec![PhaseSpec::Recursive {
//!         depth: 6, branch: 2, leaf_work_us: 50.0, node_work_us: 1.0,
//!         merge_work_us: 4.0, merge_grows: true, mem: 0.4, jitter: 0.1,
//!     }],
//! };
//! let cfg = SimConfig::default(); // 16 cores, 2 sockets
//! let report = run_pair(
//!     cfg,
//!     ProgramSpec { workload: wl("a"), sched: SchedConfig::for_policy(Policy::Dws, 16) },
//!     ProgramSpec { workload: wl("b"), sched: SchedConfig::for_policy(Policy::Dws, 16) },
//!     RunOptions::default(),
//! );
//! assert!(report.programs[0].mean_run_time_us.unwrap() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod alloc_table;
pub mod arrival;
pub mod cache;
pub mod config;
pub mod coordinator;
pub mod machine;
pub mod metrics;
pub mod os;
pub mod policy;
pub mod program;
pub mod rng;
pub mod trace;
pub mod workload;

pub use alloc_table::{AllocTable, ProgId, Slot};
pub use arrival::{ArrivalProcess, ArrivalSampler, BoundedPareto};
pub use config::{CacheConfig, MachineConfig, Placement, SchedConfig, SimConfig, SimTime};
pub use coordinator::{
    decide_dws, decide_nc, eq1_wake_target, CoordCase, CoordDecision, CoordObservation,
};
pub use machine::{
    quantile_nearest, run_pair, run_solo, ProgramReport, ProgramSpec, RunOptions, SimLedger,
    SimReport, Simulator,
};
pub use metrics::ProgramMetrics;
pub use policy::Policy;
pub use rng::XorShift64Star;
pub use trace::{SchedEvent, Trace, TraceEvent};
pub use workload::{PhaseSpec, WorkloadSpec};
