//! Per-op probes of the public hot functions, on at most `nproc`
//! threads. Each probe repeats a fixed batch several times and reports
//! the median batch's cost per operation.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dws_deque::{deque, Injector, Request, SubmitRing};
use dws_rt::{CoreTable, InProcessTable, Sleeper};

use crate::report::Report;
use crate::stats::Samples;

const REPEATS: usize = 7;
const BATCH: usize = 1024;

/// Runs `batch` `REPEATS` times; records the median ns per op under `name`.
fn probe(r: &mut Report, name: &str, ops_per_batch: usize, mut batch: impl FnMut() -> u64) {
    let mut per_op = Samples::new();
    for _ in 0..REPEATS {
        per_op.push(batch() as f64 / ops_per_batch as f64);
    }
    r.quantile(name, &mut per_op, 0.5);
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

pub fn run(r: &mut Report, nproc: usize) {
    const ROUNDS: usize = 64;

    probe(r, "chase_lev.push_pop_ns", ROUNDS * BATCH, || {
        let (w, _s) = deque::<u64>();
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for i in 0..BATCH as u64 {
                w.push(black_box(i));
            }
            while let Some(v) = w.pop() {
                black_box(v);
            }
        }
        elapsed_ns(t0)
    });

    probe(r, "chase_lev.steal_batch_ns_per_task", ROUNDS * BATCH, || {
        let (src, stealer) = deque::<u64>();
        let (dst, _) = deque::<u64>();
        let mut ns = 0;
        for _ in 0..ROUNDS {
            for i in 0..BATCH as u64 {
                src.push(i);
            }
            loop {
                let t0 = Instant::now();
                let got = stealer.steal_batch(&dst, 8);
                ns += elapsed_ns(t0);
                if got.is_empty() {
                    break;
                }
                while let Some(v) = dst.pop() {
                    black_box(v);
                }
            }
        }
        ns
    });

    probe(r, "injector.push_steal_ns", ROUNDS * BATCH, || {
        let inj = Injector::new();
        let (dst, _) = deque::<u64>();
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for i in 0..BATCH as u64 {
                inj.push(black_box(i));
            }
            while inj.steal_batch(&dst, 8) > 0 {
                while let Some(v) = dst.pop() {
                    black_box(v);
                }
            }
        }
        elapsed_ns(t0)
    });

    probe(r, "submit_ring.submit_drain_ns", ROUNDS * BATCH / 2, || {
        let ring = SubmitRing::with_capacity(BATCH);
        let epoch = ring.epoch();
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            for i in 0..(BATCH / 2) as u64 {
                let req = Request { req_id: i, submit_us: i, demand_us: 1 };
                ring.submit(black_box(req), epoch).expect("ring sized for the batch");
            }
            ring.drain(BATCH, &mut |req| {
                black_box(req);
            });
        }
        elapsed_ns(t0)
    });

    probe(r, "alloc_table.acquire_release_ns", ROUNDS * BATCH, || {
        let table = InProcessTable::new(nproc, 2);
        let home = table.home(0);
        let t0 = Instant::now();
        for _ in 0..ROUNDS * BATCH {
            assert!(table.release(0, home), "probe owns the core");
            assert!(table.try_acquire_free(0, home), "the core is free");
        }
        elapsed_ns(t0)
    });

    // Sleep/wake round trip: two threads hand a wake back and forth, so
    // each round trip is two wakes and two sleeps.
    const TRIPS: usize = 200;
    let mut trip_us = Samples::new();
    for _ in 0..REPEATS {
        let (ping, pong) = (Arc::new(Sleeper::new()), Arc::new(Sleeper::new()));
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..TRIPS {
                    pong2.sleep(None);
                    ping2.wake();
                }
            });
            for _ in 0..TRIPS {
                pong.wake();
                ping.sleep(None);
            }
        });
        trip_us.push(t0.elapsed().as_secs_f64() * 1e6 / TRIPS as f64);
    }
    r.quantile("sleep.wake_roundtrip_us", &mut trip_us, 0.5);
}
