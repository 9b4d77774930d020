//! The metric catalogue and the result a run prints.
//!
//! `E2E` and `LAYER` are the two lists `BENCHMARK.json` declares; the
//! test at the bottom keeps them identical. A run prints every metric it
//! measured as a human-readable line with its sample count, then, as its
//! last line, one JSON object carrying exactly the list for its mode.

use std::collections::BTreeMap;

use crate::stats::Samples;

/// One declared metric: name, unit, and which direction is better.
pub type Spec = (&'static str, &'static str, &'static str);

/// End-to-end metrics, measured with all tracing and telemetry off.
pub const E2E: [Spec; 9] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("makespan_s", "s", "lower"),
    ("slowdown", "ratio", "lower"),
    ("req_us.p50.low", "us", "lower"),
    ("req_us.p90.low", "us", "lower"),
    ("req_us.p50.high", "us", "lower"),
    ("req_us.p90.high", "us", "lower"),
    ("capacity_rps", "1/s", "higher"),
];

/// The quantiles every workload reports for its `low` and `high`
/// operations. p99 is a traced-run diagnostic only: on a shared 2-CPU
/// host it swings with scheduler hiccups far beyond any usable bound.
pub const REQ_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

/// Per-layer metrics, from the traced run and the per-op probes.
pub const LAYER: [Spec; 57] = [
    ("chase_lev.steals_ok", "count", "higher"),
    ("chase_lev.steals_failed", "count", "lower"),
    ("chase_lev.steals_contended", "count", "lower"),
    ("chase_lev.tasks_stolen", "count", "higher"),
    ("chase_lev.steal_success", "ratio", "higher"),
    ("chase_lev.push_pop_ns", "ns", "lower"),
    ("chase_lev.steal_batch_ns_per_task", "ns", "lower"),
    ("injector.jobs_in", "count", "higher"),
    ("injector.push_steal_ns", "ns", "lower"),
    ("submit_ring.submit_ns.p50", "ns", "lower"),
    ("submit_ring.submit_ns.p99", "ns", "lower"),
    ("submit_ring.shed", "count", "lower"),
    ("submit_ring.fenced", "count", "lower"),
    ("submit_ring.abandoned", "count", "lower"),
    ("submit_ring.submit_drain_ns", "ns", "lower"),
    ("serve.admit_wait_us.p50", "us", "lower"),
    ("serve.admit_wait_us.p99", "us", "lower"),
    ("serve.exec_us.p50", "us", "lower"),
    ("serve.exec_us.p99", "us", "lower"),
    ("serve.exec_inflation", "ratio", "lower"),
    ("coordinator.passes", "count", "lower"),
    ("coordinator.doorbell_wakes", "count", "lower"),
    ("coordinator.pass_us.p50", "us", "lower"),
    ("coordinator.pass_us.p99", "us", "lower"),
    ("coordinator.idle_frac", "ratio", "higher"),
    ("alloc_table.acquire_calls", "count", "lower"),
    ("alloc_table.acquire_fail_ratio", "ratio", "lower"),
    ("alloc_table.reclaim_calls", "count", "lower"),
    ("alloc_table.reclaim_fail_ratio", "ratio", "lower"),
    ("alloc_table.release_calls", "count", "lower"),
    ("alloc_table.call_ns.p50", "ns", "lower"),
    ("alloc_table.call_ns.p99", "ns", "lower"),
    ("alloc_table.doorbell_rings", "count", "lower"),
    ("alloc_table.free_core_frac", "ratio", "lower"),
    ("alloc_table.jain", "ratio", "higher"),
    ("alloc_table.acquire_release_ns", "ns", "lower"),
    ("sleep.sleeps", "count", "lower"),
    ("sleep.wakes", "count", "lower"),
    ("sleep.wakes_per_job", "ratio", "lower"),
    ("sleep.wake_roundtrip_us", "us", "lower"),
    ("registry.jobs_executed", "count", "higher"),
    ("registry.yields", "count", "lower"),
    ("apps.mergesort_ms.corun", "ms", "lower"),
    ("apps.mergesort_ms.solo", "ms", "lower"),
    ("apps.fft_ms.corun", "ms", "lower"),
    ("apps.fft_ms.solo", "ms", "lower"),
    ("apps.lu_ms.corun", "ms", "lower"),
    ("apps.lu_ms.solo", "ms", "lower"),
    ("apps.ge_ms.corun", "ms", "lower"),
    ("apps.ge_ms.solo", "ms", "lower"),
    ("sim.sim_s_per_wall_s", "s/s", "higher"),
    ("req_us.p99.low", "us", "lower"),
    ("req_us.p99.high", "us", "lower"),
    ("gen.late_us.p50", "us", "lower"),
    ("gen.late_us.p99", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
];

fn unit_of(name: &str) -> &'static str {
    E2E.iter().chain(LAYER.iter()).find(|s| s.0 == name).map_or("", |s| s.1)
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<String, Value>,
    /// Operations attempted (kernel runs, requests, simulation cells).
    pub attempted: u64,
    /// Operations that failed: refused, lost, or wrong.
    pub failed: u64,
    /// Output checks that did not hold, one line each.
    pub violations: Vec<String>,
    /// Free-form facts printed before the result (host, inputs, rates).
    pub facts: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), Value { value, n });
    }

    /// Records the exact `q` quantile of `samples` (nothing when empty).
    pub fn quantile(&mut self, name: &str, samples: &mut Samples, q: f64) {
        self.quantile_scaled(name, samples, q, 1.0);
    }

    /// Records the exact `q` quantile of `samples` divided by `div`, and
    /// notes a tail percentile that fewer than ten samples lie beyond.
    pub fn quantile_scaled(&mut self, name: &str, samples: &mut Samples, q: f64, div: f64) {
        let Some(v) = samples.quantile(q) else { return };
        self.set(name, v / div, samples.len());
        if q > 0.5 && samples.beyond(q) < 10 {
            self.fact(format!(
                "{name}: only {} samples lie beyond this percentile",
                samples.beyond(q)
            ));
        }
    }

    /// Records the mean over `groups` of each group's exact `q` quantile,
    /// divided by `div`: a percentile over several kinds of operation
    /// that does not hinge on how many of each kind a run held. Nothing
    /// when a group is empty.
    pub fn mean_quantile(&mut self, name: &str, groups: &mut [&mut Samples], q: f64, div: f64) {
        let values: Option<Vec<f64>> = groups.iter_mut().map(|g| g.quantile(q)).collect();
        let Some(values) = values.filter(|v| !v.is_empty()) else { return };
        let n = groups.iter().map(|g| g.len()).sum();
        self.set(name, values.iter().sum::<f64>() / values.len() as f64 / div, n);
        let beyond = groups.iter().map(|g| g.beyond(q)).min().unwrap_or(0);
        if q > 0.5 && beyond < 10 {
            self.fact(format!(
                "{name}: only {beyond} samples of a group lie beyond this percentile"
            ));
        }
    }

    /// Sets `req_us.{p50,p90,p99}.{low,high}` from per-op times held in
    /// units of `1/per_us` µs (1e3 for ns samples, 1 for µs).
    pub fn req_latency(&mut self, low: &mut Samples, high: &mut Samples, per_us: f64) {
        for (level, s) in [("low", low), ("high", high)] {
            for (p, q) in REQ_QUANTILES {
                self.quantile_scaled(&format!("req_us.{p}.{level}"), s, q, per_us);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.value)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn fact(&mut self, fact: impl Into<String>) {
        self.facts.push(fact.into());
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Folds another run's counts, checks and facts into this one (the
    /// traced run's untimed and timed halves).
    pub fn absorb(&mut self, other: Report, prefix: &str) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations.extend(other.violations.into_iter().map(|v| format!("{prefix}: {v}")));
        self.facts.extend(other.facts.into_iter().map(|f| format!("{prefix}: {f}")));
    }

    /// Prints every measured value, then the result line with exactly
    /// the declared `specs` (a missing one reads 0).
    pub fn print(&self, specs: &[Spec]) {
        for f in &self.facts {
            println!("# {f}");
        }
        for (name, v) in &self.values {
            println!("{name} = {} {} (n={})", fmt_num(v.value), unit_of(name), v.n);
        }
        let fail_frac =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "fail_frac = {} (failed {} of {} attempted)",
            fmt_num(fail_frac),
            self.failed,
            self.attempted
        );
        for v in &self.violations {
            println!("CHECK FAILED: {v}");
        }
        let metrics: Vec<String> = specs
            .iter()
            .map(|(name, unit, _)| {
                let value = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", fmt_num(value))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with all its digits.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one `BENCHMARK.json` declares must not
    /// drift apart: the result line is built from these lists.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (list, key) in [(&E2E[..], "\"end_to_end\""), (&LAYER[..], "\"per_layer\"")] {
            let section = &text[text.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let declared = section.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: count differs");
            for (name, unit, better) in list {
                let entry =
                    format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
                assert!(section.contains(&entry), "{key}: missing {entry}");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = E2E.iter().chain(LAYER.iter()).map(|s| s.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
