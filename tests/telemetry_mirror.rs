//! Cross-crate telemetry schema equality: `dws_rt::telemetry` and
//! `dws_sim::telemetry` declare the frame schema independently (the sim
//! must not depend on the runtime crate), so this test is what actually
//! holds the two mirrors together:
//!
//! 1. identically-populated frames serialize to byte-identical JSON;
//! 2. the structural signature (field names, order, value classes)
//!    matches, with `I64`/`U64` collapsed into one integer class — the
//!    vendored serde serializes non-negative signed ints as `U64`;
//! 3. frames cross-deserialize between the crates, both from synthetic
//!    content and from a *real* traced co-run / a real simulation.

use serde::value::Value;

fn rt_frame() -> dws_rt::TelemetryFrame {
    dws_rt::TelemetryFrame {
        t_us: 123_456,
        prog: 1,
        seq: 42,
        cores: vec![
            dws_rt::CoreSample { core: 0, home: 0, owner: -1 },
            dws_rt::CoreSample { core: 1, home: 1, owner: 1 },
        ],
        workers: vec![
            dws_rt::WorkerSample { worker: 0, asleep: true, queue: 0 },
            dws_rt::WorkerSample { worker: 1, asleep: false, queue: 7 },
        ],
        coord: dws_rt::CoordSample {
            n_b: 9,
            n_a: 3,
            n_f: 1,
            n_r: 2,
            n_w: 3,
            planned_free: 1,
            planned_reclaim: 2,
            woken: 2,
            decisions: 17,
        },
        counters: dws_rt::CounterSample {
            steals_ok: 100,
            steals_failed: 20,
            jobs_executed: 3000,
            sleeps: 5,
            wakes: 4,
            yields: 6,
            coordinator_runs: 50,
            cores_acquired: 3,
            cores_reclaimed: 2,
            cores_released: 5,
            events_dropped: 1,
            frames_evicted: 8,
            cores_reaped: 2,
            leases_expired: 1,
            degraded: 1,
            tasks_stolen: 340,
            steals_contended: 12,
            requests_admitted: 900,
            requests_dropped: 11,
            requests_fenced: 2,
            requests_abandoned: 1,
            zombies_fenced: 1,
            leases_rearmed: 1,
            doorbell_wakes: 23,
            core_us_total: 654_321,
        },
        latency: dws_rt::LatencySample {
            steal_p50_ns: 1_024,
            steal_p99_ns: 65_536,
            sleep_p50_ns: 2_048,
            sleep_p99_ns: 131_072,
            wake_p50_ns: 4_096,
            wake_p99_ns: 262_144,
            batch_p50_tasks: 4,
            batch_p99_tasks: 16,
            sojourn_p50_ns: 8_192,
            sojourn_p99_ns: 524_288,
            sojourn_p999_ns: 1_048_576,
            request_p50_ns: 16_384,
            request_p99_ns: 2_097_152,
            request_p999_ns: 4_194_304,
            alloc_p50_ns: 32_768,
            alloc_p99_ns: 8_388_608,
            release_p50_ns: 65_536,
            release_p99_ns: 16_777_216,
        },
    }
}

fn sim_frame() -> dws_sim::TelemetryFrame {
    dws_sim::TelemetryFrame {
        t_us: 123_456,
        prog: 1,
        seq: 42,
        cores: vec![
            dws_sim::CoreSample { core: 0, home: 0, owner: -1 },
            dws_sim::CoreSample { core: 1, home: 1, owner: 1 },
        ],
        workers: vec![
            dws_sim::WorkerSample { worker: 0, asleep: true, queue: 0 },
            dws_sim::WorkerSample { worker: 1, asleep: false, queue: 7 },
        ],
        coord: dws_sim::CoordSample {
            n_b: 9,
            n_a: 3,
            n_f: 1,
            n_r: 2,
            n_w: 3,
            planned_free: 1,
            planned_reclaim: 2,
            woken: 2,
            decisions: 17,
        },
        counters: dws_sim::CounterSample {
            steals_ok: 100,
            steals_failed: 20,
            jobs_executed: 3000,
            sleeps: 5,
            wakes: 4,
            yields: 6,
            coordinator_runs: 50,
            cores_acquired: 3,
            cores_reclaimed: 2,
            cores_released: 5,
            events_dropped: 1,
            frames_evicted: 8,
            cores_reaped: 2,
            leases_expired: 1,
            degraded: 1,
            tasks_stolen: 340,
            steals_contended: 12,
            requests_admitted: 900,
            requests_dropped: 11,
            requests_fenced: 2,
            requests_abandoned: 1,
            zombies_fenced: 1,
            leases_rearmed: 1,
            doorbell_wakes: 23,
            core_us_total: 654_321,
        },
        latency: dws_sim::LatencySample {
            steal_p50_ns: 1_024,
            steal_p99_ns: 65_536,
            sleep_p50_ns: 2_048,
            sleep_p99_ns: 131_072,
            wake_p50_ns: 4_096,
            wake_p99_ns: 262_144,
            batch_p50_tasks: 4,
            batch_p99_tasks: 16,
            sojourn_p50_ns: 8_192,
            sojourn_p99_ns: 524_288,
            sojourn_p999_ns: 1_048_576,
            request_p50_ns: 16_384,
            request_p99_ns: 2_097_152,
            request_p999_ns: 4_194_304,
            alloc_p50_ns: 32_768,
            alloc_p99_ns: 8_388_608,
            release_p50_ns: 65_536,
            release_p99_ns: 16_777_216,
        },
    }
}

/// Structural signature of a JSON value: object keys in declaration
/// order, arrays by element signatures, scalars by class. `I64` and `U64`
/// collapse into `int` — which of the two a field lands in depends only
/// on its runtime sign under the vendored serde's collapsed data model.
fn signature(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(_) => "bool".into(),
        Value::I64(_) | Value::U64(_) => "int".into(),
        Value::F64(_) => "float".into(),
        Value::String(_) => "string".into(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(signature).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(pairs) => {
            let inner: Vec<String> =
                pairs.iter().map(|(k, v)| format!("{k}:{}", signature(v))).collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[test]
fn identical_content_serializes_byte_identically() {
    let rt = serde_json::to_string(&rt_frame()).unwrap();
    let sim = serde_json::to_string(&sim_frame()).unwrap();
    assert_eq!(rt, sim, "rt and sim frame JSON must be byte-identical");
}

#[test]
fn schema_signatures_match() {
    let rt = serde::ser::Serialize::to_value(&rt_frame());
    let sim = serde::ser::Serialize::to_value(&sim_frame());
    assert_eq!(signature(&rt), signature(&sim));
}

#[test]
fn frames_cross_deserialize_between_crates() {
    let rt_json = serde_json::to_string(&rt_frame()).unwrap();
    let as_sim: dws_sim::TelemetryFrame = serde_json::from_str(&rt_json).unwrap();
    assert_eq!(serde_json::to_string(&as_sim).unwrap(), rt_json);

    let sim_json = serde_json::to_string(&sim_frame()).unwrap();
    let as_rt: dws_rt::TelemetryFrame = serde_json::from_str(&sim_json).unwrap();
    assert_eq!(serde_json::to_string(&as_rt).unwrap(), sim_json);
}

#[test]
fn jsonl_sinks_agree_line_for_line() {
    let rt_text = dws_rt::frames_to_jsonl(&[rt_frame(), rt_frame()]);
    let sim_text = dws_sim::frames_to_jsonl(&[sim_frame(), sim_frame()]);
    assert_eq!(rt_text, sim_text);
}

/// A frame sampled from a *real* two-program co-run round-trips through
/// the sim's declaration (and vice versa from a real simulation), so the
/// guarantee covers live output, not just hand-built values.
#[test]
fn real_runtime_and_simulator_frames_cross_deserialize() {
    use std::sync::Arc;
    use std::time::Duration;

    // Real runtime co-run with the sampler on.
    let table: Arc<dyn dws_rt::CoreTable> = Arc::new(dws_rt::InProcessTable::new(2, 2));
    let mk = || {
        let mut cfg = dws_rt::RuntimeConfig::new(2, dws_rt::Policy::Dws)
            .with_telemetry()
            .with_telemetry_tick(Duration::from_millis(2));
        cfg.coordinator_period = Duration::from_millis(2);
        cfg.sleep_timeout = Some(Duration::from_millis(4));
        cfg
    };
    // p0 additionally serves external requests, so the request counters
    // appear in real frames, not just the synthetic ones above.
    let p0 = dws_rt::Runtime::serve_with_table(mk(), Arc::clone(&table), 0, |req| {
        std::hint::black_box(req.demand_us);
    });
    let p1 = dws_rt::Runtime::with_table(mk(), table, 1);
    for i in 0..32 {
        p0.submit(i, 10).unwrap();
    }
    // Pump until the ring is empty (the coordinator also drains; either
    // path bumps the same admission counter).
    while !p0.submission_ring().unwrap().is_empty() {
        p0.drain_submissions();
        std::thread::yield_now();
    }
    let sum = p0.block_on(|| (1..=2000u64).sum::<u64>());
    let prod = p1.block_on(|| (1..=10u64).product::<u64>());
    assert_eq!((sum, prod), (2_001_000, 3_628_800));
    let handle = p0.telemetry("p0");
    drop(p0); // shutdown flushes a final frame
    drop(p1);
    let frames = handle.frames();
    assert!(!frames.is_empty(), "sampler left no frames");
    let last = frames.last().unwrap();
    assert_eq!(last.counters.requests_admitted, 32, "every submitted request admitted");
    for f in &frames {
        let line = serde_json::to_string(f).unwrap();
        let as_sim: dws_sim::TelemetryFrame = serde_json::from_str(&line).unwrap();
        assert_eq!(serde_json::to_string(&as_sim).unwrap(), line);
    }

    // Real simulation with frame sampling on.
    let wl = |name: &str| dws_sim::WorkloadSpec {
        name: name.into(),
        phases: vec![dws_sim::PhaseSpec::Recursive {
            depth: 5,
            branch: 2,
            leaf_work_us: 80.0,
            node_work_us: 1.0,
            merge_work_us: 4.0,
            merge_grows: true,
            mem: 0.3,
            jitter: 0.1,
        }],
    };
    let cfg = dws_sim::SimConfig {
        machine: dws_sim::MachineConfig { cores: 4, sockets: 2, ..Default::default() },
        ..Default::default()
    };
    let spec = |w| dws_sim::ProgramSpec {
        workload: w,
        sched: dws_sim::SchedConfig::for_policy(dws_sim::Policy::Dws, 4),
    };
    let mut sim = dws_sim::Simulator::new(cfg, vec![spec(wl("a")), spec(wl("b"))]);
    sim.enable_telemetry(10_000, 256);
    while sim.now() < 200_000 {
        sim.tick();
    }
    let frames = sim.telemetry_frames(1);
    assert!(!frames.is_empty(), "simulator left no frames");
    for f in &frames {
        let line = serde_json::to_string(f).unwrap();
        let as_rt: dws_rt::TelemetryFrame = serde_json::from_str(&line).unwrap();
        assert_eq!(serde_json::to_string(&as_rt).unwrap(), line);
    }
}
