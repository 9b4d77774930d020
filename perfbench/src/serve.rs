//! `serve-openloop`: two serving programs fed by one open-loop generator.
//!
//! The generator merges two seeded bursty MMPP schedules (two thirds of
//! the traffic to p0, one third to p1) and walks a fixed rate ladder,
//! several times over. Each request carries a bounded-Pareto demand that
//! the benchmark's own handler burns. A request is timed from the
//! instant it was due to the return of its handler, so a late generator
//! or a stalled drain shows in the latency, and the generator's own
//! lateness is reported beside it. Latency is named at two rates, `low`
//! and `high`; the rates above `high` locate `capacity_rps`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dws_rt::{Policy, Request, Runtime, RuntimeConfig, SubmitError};
use dws_sim::{ArrivalProcess, ArrivalSampler, BoundedPareto, XorShift64Star};

use crate::layers::{Counters, Shared, Window};
use crate::report::{Report, REQ_QUANTILES};
use crate::spans::{now_ns, Spans};
use crate::stats::Samples;

/// The rate ladder: offered req/s with each rate's share of one pass.
/// The shares give every rate well over a thousand requests per pass, so
/// a per-pass p99 has more than ten samples beyond it.
const LADDER: [(f64, f64); 6] =
    [(500.0, 0.4), (2000.0, 0.12), (5000.0, 0.12), (6000.0, 0.12), (7000.0, 0.12), (8000.0, 0.12)];
/// The ladder rates that carry named latency metrics: `low` and `high`.
/// The rates above `high` run close enough to saturation that their
/// latency swings with host speed from run to run (on a shared 2-CPU
/// host, p50 at 3000 req/s already moves by 40% between runs of one
/// seed); they serve to locate `capacity_rps`.
const LOW: usize = 0;
const HIGH: usize = 1;
/// The ladder is walked this many times, interleaving the rates so a
/// drift in host speed touches every rate alike. A rate's quantile is the
/// median of its per-pass quantiles, so one disturbed pass cannot move it.
const PASSES: usize = 5;
/// The latency limit on a rate's p90 that `capacity_rps` is judged by.
/// p90, not p99: the p99 of a rate swings by several times from run to
/// run on a shared host, which would make capacity a coin toss.
const LIMIT_US: f64 = 5_000.0;
const LIMIT_Q: f64 = 0.9;
/// A rung whose backlog takes longer than this share of the rung to
/// clear after its last arrival is growing a backlog.
const BACKLOG_SHARE: f64 = 0.1;
/// Traffic split between the two programs.
const SPLIT: [f64; 2] = [2.0 / 3.0, 1.0 / 3.0];
/// MMPP burst factor: bursts run at this multiple of the base rate,
/// calm stretches at its inverse.
const BURSTINESS: f64 = 2.0;
/// Mean MMPP dwell times, µs. Short dwells put many bursts in every
/// pass, so the tail a pass sees does not hang on one long burst.
const CALM_DWELL_US: f64 = 10_000.0;
const BURST_DWELL_US: f64 = 2_000.0;
const DEMAND_MIN_US: f64 = 50.0;
const DEMAND_MAX_US: f64 = 1000.0;
const DEMAND_ALPHA: f64 = 1.1;
/// How long the generator waits for a rung's accepted requests to finish.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);
const WARMUP_RATE: f64 = 2000.0;
const WARMUP: Duration = Duration::from_millis(100);
/// Length of the serving probe the traced runs of other workloads make.
const PROBE_SECONDS: f64 = 4.0;

#[derive(Debug, Clone, Copy)]
struct Item {
    /// Offset from the rung's start, ns.
    due_ns: u64,
    prog: u8,
    demand_us: u32,
}

/// One rung of the schedule: its rate, length and requests.
struct Rung {
    /// Index into `LADDER`.
    level: usize,
    duration: Duration,
    first_id: usize,
    items: Vec<Item>,
}

fn rung(level: usize, rate: f64, duration: Duration, seed: u64, first_id: usize) -> Rung {
    let demand = BoundedPareto::new(DEMAND_MIN_US, DEMAND_MAX_US, DEMAND_ALPHA);
    let span_ns = duration.as_nanos() as f64;
    let mut items = Vec::new();
    for (p, share) in SPLIT.iter().enumerate() {
        let stream_seed = seed ^ (p as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mmpp = ArrivalProcess::Mmpp {
            calm_rate_per_sec: rate * share / BURSTINESS,
            burst_rate_per_sec: rate * share * BURSTINESS,
            calm_dwell_us: CALM_DWELL_US,
            burst_dwell_us: BURST_DWELL_US,
        };
        let mut arrivals = ArrivalSampler::new(mmpp, stream_seed);
        let mut demand_rng = XorShift64Star::new(stream_seed ^ 0xd1b5_4a32_d192_ed03);
        // Exactly the nominal count, its MMPP timing stretched to span
        // the rung: the bursts stay, but every seed offers the same load.
        let n = (rate * share * duration.as_secs_f64()).round() as usize;
        let times: Vec<u64> = (0..n).map(|_| arrivals.next_arrival_us()).collect();
        let last = times.last().copied().unwrap_or(1).max(1) as f64;
        for t in times {
            let d = demand.sample_us(&mut demand_rng) as u32;
            items.push(Item {
                due_ns: (t as f64 / last * span_ns) as u64,
                prog: p as u8,
                demand_us: d,
            });
        }
    }
    items.sort_by_key(|i| (i.due_ns, i.prog));
    Rung { level, duration, first_id, items }
}

/// What the handler and generator record per request id.
struct Slots {
    demand_us: Vec<u32>,
    due_ns: Vec<AtomicU64>,
    late_ns: Vec<AtomicU64>,
    start_ns: Vec<AtomicU64>,
    end_ns: Vec<AtomicU64>,
    /// Handler start (trace-epoch µs) minus `Request::submit_us`.
    admit_wait_us: Vec<AtomicU64>,
    execs: Vec<AtomicU32>,
    /// 0 = accepted, 1 = shed, 2 = fenced, 3 = abandoned.
    outcome: Vec<AtomicU32>,
    completed: AtomicU64,
    mismatched: AtomicU64,
    spans: Option<Arc<Spans>>,
}

impl Slots {
    fn new(demand_us: Vec<u32>, spans: Option<Arc<Spans>>) -> Slots {
        let n = demand_us.len();
        let atomics = || (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Slots {
            due_ns: atomics(),
            late_ns: atomics(),
            start_ns: atomics(),
            end_ns: atomics(),
            admit_wait_us: atomics(),
            execs: (0..n).map(|_| AtomicU32::new(0)).collect(),
            outcome: (0..n).map(|_| AtomicU32::new(0)).collect(),
            completed: AtomicU64::new(0),
            mismatched: AtomicU64::new(0),
            demand_us,
            spans,
        }
    }

    /// The benchmark's request handler: checks the request against the
    /// schedule, burns its demand, and records when it ran.
    fn handle(&self, req: Request) {
        let t0 = now_ns();
        let t0_us = dws_rt::trace::now_us();
        let id = req.req_id as usize;
        if self.demand_us.get(id).map(|&d| u64::from(d)) != Some(req.demand_us) {
            self.mismatched.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let budget = Duration::from_micros(req.demand_us);
        let burn = Instant::now();
        while burn.elapsed() < budget {
            std::hint::spin_loop();
        }
        let t1 = now_ns();
        self.start_ns[id].store(t0, Ordering::Relaxed);
        self.admit_wait_us[id].store(t0_us.saturating_sub(req.submit_us), Ordering::Relaxed);
        self.end_ns[id].store(t1, Ordering::Relaxed);
        self.execs[id].fetch_add(1, Ordering::AcqRel);
        self.completed.fetch_add(1, Ordering::AcqRel);
        if let Some(spans) = &self.spans {
            spans.record("serve.handler", req.req_id + 1, t0, t1);
        }
    }
}

pub struct Setup {
    rungs: Vec<Rung>,
    warmup: Rung,
    slots: Arc<Slots>,
    shared: Shared,
    pair: [Runtime; 2],
}

pub fn setup(seed: u64, nproc: usize, seconds: f64, spans: Option<&Arc<Spans>>) -> Setup {
    let mut rungs = Vec::new();
    let mut next_id = 0;
    for pass in 0..PASSES {
        for (i, &(rate, share)) in LADDER.iter().enumerate() {
            let d = Duration::from_secs_f64(seconds * share / PASSES as f64);
            let r = rung(
                i,
                rate,
                d,
                seed.wrapping_add((pass * LADDER.len() + i) as u64 * 7919),
                next_id,
            );
            next_id += r.items.len();
            rungs.push(r);
        }
    }
    let warmup = rung(0, WARMUP_RATE, WARMUP, seed ^ 0x77, next_id);
    let demand: Vec<u32> = rungs
        .iter()
        .chain(std::iter::once(&warmup))
        .flat_map(|r| r.items.iter().map(|i| i.demand_us))
        .collect();
    let slots = Arc::new(Slots::new(demand, spans.cloned()));
    let shared = Shared::new(nproc, spans);
    let pair = [0, 1].map(|p| {
        let slots = Arc::clone(&slots);
        Runtime::serve_with_table(
            RuntimeConfig::new(nproc, Policy::Dws),
            Arc::clone(&shared.table),
            p,
            move |req| slots.handle(req),
        )
    });
    let s = Setup { rungs, warmup, slots, shared, pair };
    offer(&s, &s.warmup, None);
    s
}

/// Waits until `now_ns() >= target`: sleeps toward the instant, leaving
/// a timer-slack margin, then spins the last stretch. Sleeping most of
/// each gap keeps the generator off the CPUs the workers need.
fn wait_until(target: u64) {
    const SPIN_NS: u64 = 150_000;
    const SLACK_NS: u64 = 80_000;
    loop {
        let now = now_ns();
        if now >= target {
            return;
        }
        let remaining = target - now;
        if remaining > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SLACK_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Offers one rung open-loop, then waits for its accepted requests to
/// finish. Returns the ns from the rung's last due instant until then.
fn offer(s: &Setup, rung: &Rung, submit_ns: Option<&mut Samples>) -> u64 {
    let slots = &s.slots;
    let mut submit_ns = submit_ns;
    let base = now_ns() + 1_000_000;
    let mut accepted = 0u64;
    let done_before = slots.completed.load(Ordering::Acquire);
    for (k, item) in rung.items.iter().enumerate() {
        let id = rung.first_id + k;
        let due = base + item.due_ns;
        wait_until(due);
        let t0 = now_ns();
        let res = s.pair[item.prog as usize].submit(id as u64, u64::from(item.demand_us));
        let t1 = now_ns();
        slots.due_ns[id].store(due, Ordering::Relaxed);
        slots.late_ns[id].store(t0 - due, Ordering::Relaxed);
        if let Some(samples) = submit_ns.as_deref_mut() {
            samples.push((t1 - t0) as f64);
        }
        if let Some(spans) = &slots.spans {
            spans.record("ring.submit", id as u64 + 1, t0, t1);
        }
        let outcome = match res {
            Ok(()) => {
                accepted += 1;
                0
            }
            Err(SubmitError::Full) => 1,
            Err(SubmitError::Fenced) => 2,
            Err(SubmitError::Abandoned) => 3,
        };
        slots.outcome[id].store(outcome, Ordering::Relaxed);
    }
    let last_due = base + rung.items.last().map_or(0, |i| i.due_ns);
    let give_up = Instant::now() + DRAIN_TIMEOUT;
    while slots.completed.load(Ordering::Acquire) - done_before < accepted
        && Instant::now() < give_up
    {
        std::thread::sleep(Duration::from_micros(200));
    }
    let last_end = (rung.first_id..rung.first_id + rung.items.len())
        .map(|id| slots.end_ns[id].load(Ordering::Acquire))
        .max()
        .unwrap_or(last_due);
    last_end.saturating_sub(last_due)
}

/// One rate's samples, kept per pass.
struct Rate {
    rate: f64,
    /// Request latency per pass, both programs pooled.
    passes: Vec<Samples>,
    /// Request latency per pass and program.
    per_prog: Vec<[Samples; 2]>,
    late_us: Samples,
    failed: u64,
    backlog_growing: bool,
}

impl Rate {
    /// Median over passes of the per-pass `q` quantile of `pick`.
    fn quantile(&mut self, q: f64, pick: impl Fn(&mut Rate, usize) -> &mut Samples) -> Option<f64> {
        let mut per_pass = Samples::new();
        for i in 0..self.passes.len() {
            if let Some(v) = pick(self, i).quantile(q) {
                per_pass.push(v);
            }
        }
        per_pass.median()
    }

    fn all(&self) -> usize {
        self.passes.iter().map(Samples::len).sum()
    }

    /// Fewest samples lying beyond the per-pass `q` quantile.
    fn beyond(&self, q: f64) -> usize {
        self.passes.iter().map(|s| s.beyond(q)).min().unwrap_or(0)
    }
}

/// The rate at which the tail (`LIMIT_Q`) reaches `LIMIT_US`: the
/// crossing of the piecewise log-log line through the rates' tails,
/// extended from the nearest two rates when the crossing lies outside
/// the ladder (by at most half the end rate). A rate that failed
/// requests or grew a backlog counts as over the limit.
fn capacity(tails: &[(f64, f64, bool)]) -> f64 {
    let over = |&(_, t, ok): &(f64, f64, bool)| !ok || t > LIMIT_US;
    let b = tails.iter().position(over).unwrap_or(tails.len() - 1).max(1);
    let ((ra, ta, _), (rb, tb, okb)) = (tails[b - 1], tails[b]);
    let tb = if okb { tb } else { tb.max(LIMIT_US * 2.0) };
    if !(ta > 0.0 && tb > ta && tb.is_finite()) {
        return if over(&tails[b]) { ra } else { rb };
    }
    let f = (LIMIT_US.ln() - ta.ln()) / (tb.ln() - ta.ln());
    let rate = (ra.ln() + f * (rb.ln() - ra.ln())).exp();
    rate.clamp(tails[0].0 / 1.5, tails[tails.len() - 1].0 * 1.5)
}

pub fn measure(s: Setup, spans: Option<&Arc<Spans>>, r: &mut Report) -> f64 {
    let traced = spans.is_some();
    let mut counters = Counters::default();
    let window = Window::open(&[&s.pair[0], &s.pair[1]], &s.shared);
    let mut submit_ns = Samples::new();
    let mut drains = Vec::new();
    for rung in &s.rungs {
        drains.push(offer(&s, rung, traced.then_some(&mut submit_ns)));
    }
    window.close(&[&s.pair[0], &s.pair[1]], &s.shared, &mut counters, r);
    if traced {
        counters.report(r);
    }

    let slots = &s.slots;
    let load = |v: &Vec<AtomicU64>, id: usize| v[id].load(Ordering::Acquire);
    let mut late_us = Samples::new();
    let mut admit_us = Samples::new();
    let mut exec_us = Samples::new();
    let (mut exec_total, mut demand_total) = (0.0, 0.0);
    let mut outcomes = [0u64; 4];
    let mut completed = 0u64;
    let mut wrong_execs = 0u64;
    let mut rates: Vec<Rate> = LADDER
        .iter()
        .map(|&(rate, _)| Rate {
            rate,
            passes: Vec::new(),
            per_prog: Vec::new(),
            late_us: Samples::new(),
            failed: 0,
            backlog_growing: false,
        })
        .collect();
    let (mut first_due, mut last_end) = (u64::MAX, 0u64);
    for (rung, &drain_ns) in s.rungs.iter().zip(&drains) {
        let st = &mut rates[rung.level];
        st.backlog_growing |= drain_ns as f64 > BACKLOG_SHARE * rung.duration.as_nanos() as f64;
        let mut pass = Samples::new();
        let mut per_prog = [Samples::new(), Samples::new()];
        for (k, item) in rung.items.iter().enumerate() {
            let id = rung.first_id + k;
            let outcome = slots.outcome[id].load(Ordering::Acquire) as usize;
            let execs = slots.execs[id].load(Ordering::Acquire);
            outcomes[outcome] += 1;
            let late = load(&slots.late_ns, id) as f64 / 1e3;
            late_us.push(late);
            st.late_us.push(late);
            if execs != u32::from(outcome == 0) {
                st.failed += 1;
                wrong_execs += 1;
            }
            if outcome != 0 {
                st.failed += 1;
                continue;
            }
            if execs == 0 {
                continue;
            }
            completed += 1;
            let (due, start, end) =
                (load(&slots.due_ns, id), load(&slots.start_ns, id), load(&slots.end_ns, id));
            first_due = first_due.min(due);
            last_end = last_end.max(end);
            let lat = (end - due) as f64 / 1e3;
            pass.push(lat);
            per_prog[item.prog as usize].push(lat);
            admit_us.push(load(&slots.admit_wait_us, id) as f64);
            exec_us.push((end - start) as f64 / 1e3);
            exec_total += (end - start) as f64 / 1e3;
            demand_total += f64::from(item.demand_us);
        }
        st.passes.push(pass);
        st.per_prog.push(per_prog);
    }
    let offered: u64 = outcomes.iter().sum();
    let mismatched = slots.mismatched.load(Ordering::Acquire);
    r.attempted += offered;
    r.failed += rates.iter().map(|s| s.failed).sum::<u64>() + mismatched;
    r.check(offered == completed + outcomes[1] + outcomes[2] + outcomes[3], || {
        format!(
            "offered {offered} != completed {completed} + shed {} + fenced {} + abandoned {}",
            outcomes[1], outcomes[2], outcomes[3]
        )
    });
    r.check(wrong_execs == 0, || {
        format!("{wrong_execs} requests did not run exactly once if accepted, never if refused")
    });
    r.check(mismatched == 0, || {
        format!("{mismatched} requests reached a handler with the wrong id or demand")
    });

    let mut tails = Vec::new();
    for st in rates.iter_mut() {
        let p50 = st.quantile(0.5, |s, i| &mut s.passes[i]).unwrap_or(f64::INFINITY);
        let tail = st.quantile(0.99, |s, i| &mut s.passes[i]).unwrap_or(f64::INFINITY);
        let p90 = st.quantile(0.9, |s, i| &mut s.passes[i]).unwrap_or(f64::INFINITY);
        r.fact(format!(
            "serve rate {} req/s: n={} over {PASSES} passes, median per-pass p50={p50:.0} us p90={p90:.0} us p99={tail:.0} us, failed={}{}, generator late p99={:.0} us",
            st.rate,
            st.all(),
            st.failed,
            if st.backlog_growing { " backlog-growing" } else { "" },
            st.late_us.quantile(0.99).unwrap_or(0.0),
        ));
        let limit_tail = st.quantile(LIMIT_Q, |s, i| &mut s.passes[i]).unwrap_or(f64::INFINITY);
        tails.push((st.rate, limit_tail, st.failed == 0 && !st.backlog_growing));
    }
    let (low, high) = (LOW, HIGH);
    for (level, i) in [("low", low), ("high", high)] {
        for (p, q) in REQ_QUANTILES {
            let name = format!("req_us.{p}.{level}");
            if let Some(v) = rates[i].quantile(q, |s, pass| &mut s.passes[pass]) {
                r.set(&name, v, rates[i].all());
            }
            if q > 0.5 && rates[i].beyond(q) < 10 {
                r.fact(format!(
                    "{name}: a pass has only {} samples beyond this percentile",
                    rates[i].beyond(q)
                ));
            }
        }
    }
    let mut slow = Vec::new();
    for p in 0..2 {
        let l = rates[low].quantile(0.5, |s, i| &mut s.per_prog[i][p]);
        let h = rates[high].quantile(0.5, |s, i| &mut s.per_prog[i][p]);
        if let (Some(l), Some(h)) = (l, h) {
            slow.push(h / l);
        }
    }
    if slow.len() == 2 {
        r.set("slowdown", (slow[0] + slow[1]) / 2.0, rates[high].all());
    }
    if last_end > first_due {
        r.set("makespan_s", (last_end - first_due) as f64 / 1e9, completed as usize);
    }
    r.set("capacity_rps", capacity(&tails), rates.len());
    r.quantile("gen.late_us.p50", &mut late_us, 0.5);
    r.quantile("gen.late_us.p99", &mut late_us, 0.99);
    r.quantile("serve.admit_wait_us.p50", &mut admit_us, 0.5);
    r.quantile("serve.admit_wait_us.p99", &mut admit_us, 0.99);
    r.quantile("serve.exec_us.p50", &mut exec_us, 0.5);
    r.quantile("serve.exec_us.p99", &mut exec_us, 0.99);
    if demand_total > 0.0 {
        r.set("serve.exec_inflation", exec_total / demand_total, exec_us.len());
    }
    r.set("submit_ring.shed", outcomes[1] as f64, 1);
    r.set("submit_ring.fenced", outcomes[2] as f64, 1);
    r.set("submit_ring.abandoned", outcomes[3] as f64, 1);
    if traced {
        r.quantile("submit_ring.submit_ns.p50", &mut submit_ns, 0.5);
        r.quantile("submit_ring.submit_ns.p99", &mut submit_ns, 0.99);
    }
    r.fact(format!(
        "serve-openloop: ladder {:?} req/s, {PASSES} passes, split {SPLIT:?}, MMPP burstiness {BURSTINESS}, demand bounded-Pareto {DEMAND_MIN_US}-{DEMAND_MAX_US} us alpha {DEMAND_ALPHA}, capacity limit p90 <= {LIMIT_US} us",
        LADDER.map(|l| l.0)
    ));
    rates[low].quantile(0.5, |s, i| &mut s.passes[i]).unwrap_or(0.0)
}

/// The serving layers' per-layer figures for a workload that does not
/// serve: a short traced ladder whose `serve.*`, `submit_ring.*` and
/// `gen.*` values join `r`, with its operations, failures and checks.
pub fn probe(seed: u64, nproc: usize, r: &mut Report) {
    let spans = Arc::new(Spans::with_capacity(1 << 20));
    let mut p = Report::default();
    measure(setup(seed, nproc, PROBE_SECONDS, Some(&spans)), Some(&spans), &mut p);
    for (name, v) in std::mem::take(&mut p.values) {
        if ["serve.", "submit_ring.", "gen."].iter().any(|layer| name.starts_with(layer)) {
            r.set(&name, v.value, v.n);
        }
    }
    p.facts.clear();
    r.absorb(p, "serving probe");
}
