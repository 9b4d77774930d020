//! The co-run workloads: a Fig. 4 mix of two real kernels.
//!
//! - `corun-forkjoin` is mix (1,8): p0 loops a parallel mergesort, p1 a
//!   parallel FFT — recursive fork-join spawning.
//! - `corun-loops` is mix (4,5): p0 loops a parallel LU decomposition, p1
//!   a parallel Gaussian elimination — one short row-banded parallel loop
//!   per pivot, so every run opens and closes hundreds of parallel regions.
//!
//! Two DWS programs share one core table, each driven from its own
//! thread (a closed loop: the next run starts when the previous
//! returns). Work is cut into rounds that start together; inside a round
//! the program that finishes first restarts until the other's run is
//! done, so every sampled run overlaps its co-runner fully (paper Fig. 3
//! / Eq. 2). Runs that outlast the co-runner's are not sampled.
//! Afterwards each kernel runs alone in a solo runtime for the Eq. 2
//! baselines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dws_apps::common::Matrix;
use dws_apps::fft::{fft_parallel, fft_sequential, Complex};
use dws_apps::ge::{ge_parallel, ge_sequential};
use dws_apps::lu::{dominant_matrix, lu_parallel, lu_sequential};
use dws_apps::mergesort::{mergesort_parallel, mergesort_sequential};
use dws_rt::{Policy, Runtime, RuntimeConfig};

use crate::layers::{timed_block_on, Counters, Shared, Window};
use crate::report::{Report, REQ_QUANTILES};
use crate::spans::{now_ns, Spans};
use crate::stats::Samples;

/// Elements sorted per mergesort run.
const SORT_N: usize = 1 << 15;
/// Points per FFT run.
const FFT_N: usize = 1 << 14;
/// Rows (and columns) of the LU and GE matrices.
const MATRIX_N: usize = 160;
const SORT_GRAIN: usize = dws_apps::mergesort::DEFAULT_GRAIN;
const FFT_GRAIN: usize = dws_apps::fft::DEFAULT_GRAIN;
const LU_BAND: usize = dws_apps::lu::DEFAULT_BAND;
const GE_BAND: usize = dws_apps::ge::DEFAULT_BAND;
/// Largest tolerated deviation from the sequential result, relative to
/// the largest reference magnitude.
const TOLERANCE: f64 = 1e-9;
/// Share of each block spent co-running; the rest is split between the
/// two solo baselines.
const CORUN_SHARE: f64 = 0.6;
/// Co-run/solo blocks per measurement. Each co-run phase settles into a
/// core-sharing pattern of its own, so many short blocks average over
/// more of them than a few long ones would.
const BLOCKS: usize = 30;
/// Warm-up runs of each kernel during set-up.
const WARMUP_RUNS: usize = 20;

/// The two co-run mixes.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Fig. 4 mix (1,8): FFT + Mergesort.
    ForkJoin,
    /// Fig. 4 mix (4,5): LU + GE.
    Loops,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::ForkJoin => "corun-forkjoin",
            Mix::Loops => "corun-loops",
        }
    }

    fn describe(self) -> String {
        match self {
            Mix::ForkJoin => {
                format!("mergesort n={SORT_N} grain={SORT_GRAIN}, fft n={FFT_N} grain={FFT_GRAIN}")
            }
            Mix::Loops => format!("lu n={MATRIX_N} band={LU_BAND}, ge n={MATRIX_N} band={GE_BAND}"),
        }
    }
}

/// Largest magnitude in `values`, at least 1: the scale a tolerance is
/// relative to.
fn scale(values: impl Iterator<Item = f64>) -> f64 {
    values.map(f64::abs).fold(1.0, f64::max)
}

/// Largest element-wise distance between two equally long sequences.
fn max_diff(a: impl Iterator<Item = f64>, b: impl Iterator<Item = f64>) -> f64 {
    a.zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// The real and imaginary parts of `v`, in order.
fn flat(v: &[Complex]) -> impl Iterator<Item = f64> + '_ {
    v.iter().flat_map(|c| [c.0, c.1])
}

/// One program's kernel: its seeded input and sequential reference.
pub enum Kernel {
    Mergesort { input: Vec<u64>, reference: Vec<u64> },
    Fft { input: Vec<Complex>, reference: Vec<Complex>, scale: f64 },
    Lu { a: Matrix, reference: Matrix, scale: f64 },
    Ge { a: Matrix, b: Vec<f64>, reference: Vec<f64>, scale: f64 },
}

impl Kernel {
    /// The two kernels of `mix`, p0 first, with inputs drawn from `seed`.
    pub fn pair(mix: Mix, seed: u64) -> [Kernel; 2] {
        match mix {
            Mix::ForkJoin => {
                let input = dws_apps::common::random_u64s(SORT_N, seed);
                let mut reference = input.clone();
                mergesort_sequential(&mut reference);
                let re = dws_apps::common::random_vec(FFT_N, seed ^ 0x5151);
                let im = dws_apps::common::random_vec(FFT_N, seed ^ 0xa3a3);
                let fft_in: Vec<Complex> = re.into_iter().zip(im).collect();
                let fft_ref = fft_sequential(&fft_in);
                let s = scale(flat(&fft_ref));
                [
                    Kernel::Mergesort { input, reference },
                    Kernel::Fft { input: fft_in, reference: fft_ref, scale: s },
                ]
            }
            Mix::Loops => {
                let a = dominant_matrix(MATRIX_N, seed);
                let reference = lu_sequential(&a);
                let s = scale(reference.data().iter().copied());
                let ge_a = dominant_matrix(MATRIX_N, seed ^ 0x5151);
                let b = dws_apps::common::random_vec(MATRIX_N, seed ^ 0xa3a3);
                let x = ge_sequential(&ge_a, &b);
                let ge_scale = scale(x.iter().copied());
                [
                    Kernel::Lu { a, reference, scale: s },
                    Kernel::Ge { a: ge_a, b, reference: x, scale: ge_scale },
                ]
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Mergesort { .. } => "mergesort",
            Kernel::Fft { .. } => "fft",
            Kernel::Lu { .. } => "lu",
            Kernel::Ge { .. } => "ge",
        }
    }

    /// Runs the kernel once on `rt`; returns its time in ns and whether
    /// the output matched the reference.
    fn run(
        &self,
        rt: &Runtime,
        buf: &mut Vec<u64>,
        spans: Option<&Arc<Spans>>,
        id: u64,
    ) -> (u64, bool) {
        match self {
            Kernel::Mergesort { input, reference } => {
                buf.clear();
                buf.extend_from_slice(input);
                let (_, ns) = timed_block_on(rt, spans, "apps.mergesort", id, || {
                    mergesort_parallel(buf, SORT_GRAIN)
                });
                (ns, buf == reference)
            }
            Kernel::Fft { input, reference, scale } => {
                let (out, ns) =
                    timed_block_on(rt, spans, "apps.fft", id, || fft_parallel(input, FFT_GRAIN));
                let ok = out.len() == reference.len()
                    && max_diff(flat(&out), flat(reference)) <= TOLERANCE * scale;
                (ns, ok)
            }
            Kernel::Lu { a, reference, scale } => {
                let (out, ns) =
                    timed_block_on(rt, spans, "apps.lu", id, || lu_parallel(a, LU_BAND));
                let ok = out.data().len() == reference.data().len()
                    && max_diff(out.data().iter().copied(), reference.data().iter().copied())
                        <= TOLERANCE * scale;
                (ns, ok)
            }
            Kernel::Ge { a, b, reference, scale } => {
                let (x, ns) =
                    timed_block_on(rt, spans, "apps.ge", id, || ge_parallel(a, b, GE_BAND));
                let ok = x.len() == reference.len()
                    && max_diff(x.iter().copied(), reference.iter().copied()) <= TOLERANCE * scale;
                (ns, ok)
            }
        }
    }
}

fn config(nproc: usize) -> RuntimeConfig {
    RuntimeConfig::new(nproc, Policy::Dws)
}

/// Everything set-up builds: inputs, references, the co-running pair.
pub struct Setup {
    mix: Mix,
    kernels: [Kernel; 2],
    shared: Shared,
    pair: [Runtime; 2],
}

pub fn setup(mix: Mix, seed: u64, nproc: usize, spans: Option<&Arc<Spans>>) -> Setup {
    let kernels = Kernel::pair(mix, seed);
    let shared = Shared::new(nproc, spans);
    let pair = [0, 1].map(|p| Runtime::with_table(config(nproc), Arc::clone(&shared.table), p));
    // Warm-up: a few runs of each kernel on its program.
    let mut buf = Vec::with_capacity(SORT_N);
    for (kernel, rt) in kernels.iter().zip(&pair) {
        for _ in 0..WARMUP_RUNS {
            kernel.run(rt, &mut buf, None, 0);
        }
    }
    Setup { mix, kernels, shared, pair }
}

/// Per-kernel samples of one measurement.
#[derive(Default)]
struct Tally {
    corun_ns: Samples,
    solo_ns: Samples,
    runs: u64,
    wrong: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.runs += 1;
        self.wrong += u64::from(!ok);
    }
}

/// Co-runs both programs in rounds until `until`. Adds each kernel's
/// fully overlapped runs to `kernels` and returns the round makespans, ns.
fn corun_phase(
    kernels: &[Kernel; 2],
    pair: &[Runtime; 2],
    until: Instant,
    spans: Option<&Arc<Spans>>,
    tallies: &mut [Tally; 2],
) -> Samples {
    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let done_at = [AtomicU64::new(0), AtomicU64::new(0)];
    let done_round = [AtomicU64::new(0), AtomicU64::new(0)];
    let mut makespans = Samples::new();
    std::thread::scope(|sc| {
        let mut ms = Some(&mut makespans);
        let handles: Vec<_> = tallies
            .iter_mut()
            .enumerate()
            .map(|(p, tally)| {
                let (kernel, rt, barrier, stop, done_at, done_round) =
                    (&kernels[p], &pair[p], &barrier, &stop, &done_at, &done_round);
                let mut makespans = if p == 0 { ms.take() } else { None };
                sc.spawn(move || {
                    let mut buf = Vec::with_capacity(SORT_N);
                    let other = 1 - p;
                    for round in 1u64.. {
                        barrier.wait();
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let start = now_ns();
                        // (end, duration) of each run this round.
                        let mut runs: Vec<(u64, u64)> = Vec::new();
                        loop {
                            let id = round << 1 | p as u64;
                            let (ns, ok) = kernel.run(rt, &mut buf, spans, id);
                            tally.record(ok);
                            runs.push((now_ns(), ns));
                            if runs.len() == 1 {
                                done_at[p].store(runs[0].0, Ordering::Release);
                                done_round[p].store(round, Ordering::Release);
                            }
                            if done_round[other].load(Ordering::Acquire) == round {
                                break;
                            }
                        }
                        barrier.wait();
                        let other_done = done_at[other].load(Ordering::Acquire);
                        for (i, &(end, ns)) in runs.iter().enumerate() {
                            if i == 0 || end <= other_done {
                                tally.corun_ns.push(ns as f64);
                            }
                        }
                        if let Some(m) = makespans.as_deref_mut() {
                            m.push((runs[0].0.max(other_done) - start) as f64);
                            stop.store(Instant::now() >= until, Ordering::Release);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("driver thread panicked");
        }
    });
    makespans
}

/// Runs `kernel` alone in a fresh solo runtime until `until`.
fn solo_phase(
    kernel: &Kernel,
    nproc: usize,
    until: Instant,
    spans: Option<&Arc<Spans>>,
    tally: &mut Tally,
    counters: &mut Counters,
) {
    let rt = Runtime::new(config(nproc));
    let mut buf = Vec::with_capacity(SORT_N);
    kernel.run(&rt, &mut buf, None, 0);
    let before = rt.metrics();
    while Instant::now() < until {
        let (ns, ok) = kernel.run(&rt, &mut buf, spans, 0);
        tally.solo_ns.push(ns as f64);
        tally.record(ok);
        counters.block_ons += 1;
    }
    counters.add(&crate::layers::delta(&before, &rt.metrics()));
}

/// Measures `BLOCKS` blocks, each a co-run phase then the two solo
/// baselines, so a drift in host speed touches both sides of Eq. 2
/// alike. Returns the figure the traced run's overhead is judged on:
/// the kernels' mean median co-run time, ns.
pub fn measure(s: Setup, seconds: f64, spans: Option<&Arc<Spans>>, r: &mut Report) -> f64 {
    let Setup { mix, kernels, shared, pair } = s;
    let nproc = pair[0].workers();
    let block = seconds / BLOCKS as f64;
    let mut counters = Counters::default();
    let mut tallies = [Tally::default(), Tally::default()];
    let mut makespans = Samples::new();
    let (mut corun_ns, mut corun_runs) = (0u64, 0u64);
    let window = Window::open(&[&pair[0], &pair[1]], &shared);
    for _ in 0..BLOCKS {
        let t0 = now_ns();
        let runs_before: u64 = tallies.iter().map(|t| t.runs).sum();
        let until = Instant::now() + Duration::from_secs_f64(block * CORUN_SHARE);
        makespans.extend(&corun_phase(&kernels, &pair, until, spans, &mut tallies));
        corun_ns += now_ns() - t0;
        corun_runs += tallies.iter().map(|t| t.runs).sum::<u64>() - runs_before;
        for (kernel, tally) in kernels.iter().zip(tallies.iter_mut()) {
            let until = Instant::now() + Duration::from_secs_f64(block * (1.0 - CORUN_SHARE) / 2.0);
            solo_phase(kernel, nproc, until, spans, tally, &mut counters);
        }
    }
    window.close(&[&pair[0], &pair[1]], &shared, &mut counters, r);
    counters.block_ons += corun_runs;
    if spans.is_some() {
        counters.report(r);
    }

    let mut ratios = Vec::new();
    let mut corun_medians = Vec::new();
    for (kernel, tally) in kernels.iter().zip(tallies.iter_mut()) {
        let name = kernel.name();
        let (co, solo) = (tally.corun_ns.median(), tally.solo_ns.median());
        if let (Some(co), Some(solo)) = (co, solo) {
            ratios.push(co / solo);
            corun_medians.push(co);
            r.set(&format!("apps.{name}_ms.corun"), co / 1e6, tally.corun_ns.len());
            r.set(&format!("apps.{name}_ms.solo"), solo / 1e6, tally.solo_ns.len());
        }
        r.attempted += tally.runs;
        r.failed += tally.wrong;
        r.check(tally.wrong == 0, || {
            format!("{name} output differs from the reference in {} runs", tally.wrong)
        });
        r.check(!tally.corun_ns.is_empty() && !tally.solo_ns.is_empty(), || {
            format!("{name}: no co-run or solo sample")
        });
    }
    if let Some(m) = makespans.median() {
        r.set("makespan_s", m / 1e9, makespans.len());
    }
    let [p0, p1] = &mut tallies;
    if ratios.len() == 2 {
        let n = p0.corun_ns.len() + p1.corun_ns.len();
        r.set("slowdown", (ratios[0] + ratios[1]) / 2.0, n);
    }
    // Each quantile is taken per kernel and averaged over the two, so it
    // does not hinge on how many runs of each kernel a run happened to
    // hold (the kernels' run times differ by up to 2x).
    for (p, q) in REQ_QUANTILES {
        r.mean_quantile(
            &format!("req_us.{p}.low"),
            &mut [&mut p0.solo_ns, &mut p1.solo_ns],
            q,
            1e3,
        );
        r.mean_quantile(
            &format!("req_us.{p}.high"),
            &mut [&mut p0.corun_ns, &mut p1.corun_ns],
            q,
            1e3,
        );
    }
    let corun_s = corun_ns as f64 / 1e9;
    r.set("capacity_rps", corun_runs as f64 / corun_s, corun_runs as usize);
    r.fact(format!(
        "{}: {}, {BLOCKS} blocks, {} rounds in {corun_s:.2} s of co-run",
        mix.name(),
        mix.describe(),
        makespans.len()
    ));
    corun_medians.iter().sum::<f64>() / corun_medians.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel of both mixes passes its output check, and fails it
    /// once its reference is off by one unit in one place.
    #[test]
    fn kernel_checks_accept_right_and_reject_wrong_output() {
        let rt = Runtime::new(config(2));
        let mut buf = Vec::new();
        for mix in [Mix::ForkJoin, Mix::Loops] {
            for mut kernel in Kernel::pair(mix, 7) {
                assert!(kernel.run(&rt, &mut buf, None, 0).1, "{} failed its check", kernel.name());
                match &mut kernel {
                    Kernel::Mergesort { reference, .. } => reference[0] += 1,
                    Kernel::Fft { reference, .. } => reference[0].0 += 1.0,
                    Kernel::Lu { reference, .. } => reference.data_mut()[0] += 1.0,
                    Kernel::Ge { reference, .. } => reference[0] += 1.0,
                }
                assert!(
                    !kernel.run(&rt, &mut buf, None, 0).1,
                    "{} passed a wrong output",
                    kernel.name()
                );
            }
        }
    }
}
