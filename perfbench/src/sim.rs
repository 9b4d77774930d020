//! `sim-fig4`: regenerate the paper's Fig. 4 table on the deterministic
//! simulator and check it byte for byte.
//!
//! The table is built cell by cell from the public functions
//! `dws_harness::fig4` composes — the eight solo baselines, then every
//! mix under ABP, EP and DWS — so its two phases are timed apart: the
//! solo phase is this workload's `low` operation, the co-run phase its
//! `high` one. A test keeps this composition identical to `fig4`'s
//! output.

use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;
use std::time::Instant;

use dws_apps::{Benchmark, FIG4_MIXES};
use dws_harness::report::render_fig4;
use dws_harness::{run_mix, solo_baseline, Effort, Fig4, MixResult, MixRow};
use dws_sim::{Policy, SimConfig};

use crate::report::Report;
use crate::spans::{now_ns, Spans};
use crate::stats::Samples;

/// Run length of every simulation: `fig4 --quick --runs 1`, so one
/// measured run holds about ten tables and their median is steady.
fn effort() -> Effort {
    Effort { min_runs: 1, ..Effort::quick() }
}

/// The Fig. 4 table as `fig4 --quick --runs 1` renders it at the default
/// configuration, captured when this benchmark was defined.
const GOLDEN: &str = include_str!("../fig4_table.txt");

/// Wall time and simulated time of one table's cells.
#[derive(Default)]
pub struct Cells {
    /// Wall µs of the solo-baseline simulations.
    pub solo_us: f64,
    /// Wall µs of the co-run mix simulations.
    pub mix_us: f64,
    /// Simulated µs the mix simulations covered.
    pub simulated_us: f64,
    /// Simulations run.
    pub count: usize,
}

fn row(r: &MixResult) -> MixRow {
    let name =
        |id| Benchmark::from_paper_id(id).expect("paper id of a Fig. 4 mix").name().to_string();
    MixRow {
        mix: r.mix,
        names: (name(r.mix.0), name(r.mix.1)),
        norm_i: r.norm_i,
        norm_j: r.norm_j,
        t_i_us: r.t_i_us,
        t_j_us: r.t_j_us,
    }
}

/// Builds the Fig. 4 table the way `fig4` does, timing every cell.
pub fn table(
    cfg: &SimConfig,
    effort: Effort,
    cells: &mut Cells,
    spans: Option<&Arc<Spans>>,
) -> String {
    // The simulator is single-threaded, and on a shared host one CPU can
    // run markedly slower than another. Moving to the next CPU before
    // each cell makes every table sample every CPU alike, so a run's
    // time does not hinge on where the scheduler first placed it.
    let cpus = dws_rt::affinity::available_cores();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        dws_rt::affinity::pin_current_thread(cells.count % cpus);
        cells.count += 1;
        let t0 = now_ns();
        f();
        let t1 = now_ns();
        if let Some(spans) = spans {
            spans.record(name, cells.count as u64, t0, t1);
        }
        (t1 - t0) as f64 / 1e3
    };
    // Mix by mix, each preceded by any baseline it still needs, so solo
    // and co-run simulations interleave in time; rows are assembled per
    // policy afterwards, as `fig4` lays them out.
    const POLICIES: [Policy; 3] = [Policy::Abp, Policy::Ep, Policy::Dws];
    let mut base = BTreeMap::new();
    let mut per_policy: BTreeMap<&str, Vec<MixResult>> = BTreeMap::new();
    for (i, j) in FIG4_MIXES {
        for id in [i, j] {
            if let Entry::Vacant(slot) = base.entry(id) {
                let b = Benchmark::from_paper_id(id).expect("paper id of a Fig. 4 mix");
                let mut us = 0.0;
                cells.solo_us += timed("sim.solo", &mut || us = solo_baseline(b, cfg, effort));
                slot.insert(us);
            }
        }
        for policy in POLICIES {
            let mut result = None;
            cells.mix_us += timed("sim.mix", &mut || {
                result = Some(run_mix((i, j), policy, None, (base[&i], base[&j]), cfg, effort));
            });
            let result = result.expect("the mix ran");
            cells.simulated_us += result.report.elapsed_us as f64;
            per_policy.entry(policy.label()).or_default().push(result);
        }
    }
    let rows = POLICIES
        .map(|p| (p.label().to_string(), per_policy[p.label()].iter().map(row).collect()))
        .to_vec();
    let reduction = |other: &str| {
        per_policy["DWS"]
            .iter()
            .zip(&per_policy[other])
            .flat_map(|(d, o)| [1.0 - d.t_i_us / o.t_i_us, 1.0 - d.t_j_us / o.t_j_us])
            .fold(f64::MIN, f64::max)
    };
    let fig = Fig4 {
        baselines_us: base.into_iter().collect(),
        rows,
        best_reduction_vs_abp: reduction("ABP"),
        best_reduction_vs_ep: reduction("EP"),
    };
    dws_rt::affinity::pin_current_thread_to_set(&(0..cpus).collect::<Vec<_>>());
    render_fig4(&fig)
}

pub struct Setup {
    cfg: SimConfig,
}

pub fn setup() -> Setup {
    let cfg = SimConfig::default();
    // Warm-up: the solo baselines of mix (1,8), one on each CPU in turn
    // (as the cells of a table run), long enough that `setup_s` is not a
    // single scheduler quantum.
    let cpus = dws_rt::affinity::available_cores();
    for (k, b) in
        [Benchmark::Fft, Benchmark::Mergesort].into_iter().cycle().take(2 * cpus).enumerate()
    {
        dws_rt::affinity::pin_current_thread(k % cpus);
        std::hint::black_box(solo_baseline(b, &cfg, effort()));
    }
    dws_rt::affinity::pin_current_thread_to_set(&(0..cpus).collect::<Vec<_>>());
    Setup { cfg }
}

/// Simulated seconds per wall second of one cheap co-run simulation —
/// the simulator probe of workloads that do not run the simulator.
pub fn probe(r: &mut Report) {
    let cfg = SimConfig::default();
    let t0 = Instant::now();
    let m = run_mix((1, 8), Policy::Dws, None, (1.0, 1.0), &cfg, Effort::quick());
    r.set("sim.sim_s_per_wall_s", m.report.elapsed_us as f64 / 1e6 / t0.elapsed().as_secs_f64(), 1);
}

/// Regenerates tables until `seconds` would be overrun (at least one).
/// Returns the figure the traced run's overhead is judged on: median
/// co-run phase time, µs.
pub fn measure(s: Setup, seconds: f64, spans: Option<&Arc<Spans>>, r: &mut Report) -> f64 {
    let t0 = Instant::now();
    let (mut tables, mut low, mut high) = (Samples::new(), Samples::new(), Samples::new());
    let (mut simulated_us, mut count) = (0.0, 0);
    loop {
        let start = Instant::now();
        let mut cells = Cells::default();
        let text = table(&s.cfg, effort(), &mut cells, spans);
        let took = start.elapsed().as_secs_f64();
        tables.push(took);
        low.push(cells.solo_us);
        high.push(cells.mix_us);
        simulated_us += cells.simulated_us;
        count += cells.count;
        r.attempted += 1 + cells.count as u64;
        if text != GOLDEN {
            r.failed += 1;
            r.check(false, || format!("Fig. 4 table differs from the stored copy:\n{text}"));
        }
        if t0.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    if let Some(m) = tables.median() {
        r.set("makespan_s", m, tables.len());
    }
    if let (Some(l), Some(h)) = (low.median(), high.median()) {
        r.set("slowdown", h / l, tables.len());
    }
    r.req_latency(&mut low, &mut high, 1.0);
    r.set("capacity_rps", count as f64 / (low.sum() + high.sum()) * 1e6, count);
    r.set("sim.sim_s_per_wall_s", simulated_us / high.sum(), tables.len());
    r.fact(format!(
        "sim-fig4: default SimConfig (seed {}), effort --quick --runs 1, {} tables of {} simulations",
        s.cfg.seed,
        tables.len(),
        count / tables.len()
    ));
    high.median().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cell-by-cell composition renders exactly what `fig4` renders.
    #[test]
    fn composition_matches_fig4() {
        let cfg = SimConfig::default();
        let mine = table(&cfg, effort(), &mut Cells::default(), None);
        let theirs = render_fig4(&dws_harness::fig4(&cfg, effort()));
        assert_eq!(mine, theirs);
    }
}
