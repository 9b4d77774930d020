//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corun-forkjoin|corun-loops|serve-openloop|sim-fig4> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with all runtime tracing
//! and telemetry off. `--trace 1` runs the workload twice for half the
//! time each — untimed, then with spans and the timing table — and
//! reports the per-layer metrics, the simulator and serving probes, the
//! per-op probes and the tracing overhead; spans are written to
//! `perfbench/out/`. `BENCHMARK.json` gates `corun-forkjoin` and
//! `corun-loops`; `serve-openloop` and `sim-fig4` run the same way but
//! are not gated (see `README.md`). The last line of
//! standard output is the JSON result; every line before it is a
//! human-readable metric with its sample count.

mod corun;
mod layers;
mod probes;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;
mod table;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use report::{Report, E2E, LAYER};
use spans::Spans;
use stats::Samples;

const WORKLOADS: [&str; 4] = ["corun-forkjoin", "corun-loops", "serve-openloop", "sim-fig4"];
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
const SPAN_CAPACITY: usize = 4 << 20;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload =
        WORKLOADS.iter().find(|w| **w == name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A set-up workload, ready to measure.
enum Ready {
    Corun(corun::Setup),
    Serve(serve::Setup),
    Sim(sim::Setup),
}

fn setup(a: &Args, seconds: f64, nproc: usize, spans: Option<&Arc<Spans>>) -> Ready {
    match a.workload {
        "corun-forkjoin" => Ready::Corun(corun::setup(corun::Mix::ForkJoin, a.seed, nproc, spans)),
        "corun-loops" => Ready::Corun(corun::setup(corun::Mix::Loops, a.seed, nproc, spans)),
        "serve-openloop" => Ready::Serve(serve::setup(a.seed, nproc, seconds, spans)),
        _ => Ready::Sim(sim::setup()),
    }
}

/// Measures for `seconds`; returns the figure tracing overhead is
/// judged on (median co-run kernel time, low-rate request latency, or
/// median mix-simulation time).
fn measure(ready: Ready, seconds: f64, spans: Option<&Arc<Spans>>, r: &mut Report) -> f64 {
    match ready {
        Ready::Corun(s) => corun::measure(s, seconds, spans, r),
        Ready::Serve(s) => serve::measure(s, spans, r),
        Ready::Sim(s) => sim::measure(s, seconds, spans, r),
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit the benchmark was built from, when built in a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(reference)).map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut r = Report::default();
    r.fact(format!(
        "host: nproc={nproc} workload={} seed={} seconds={} trace={} git={} policy=DWS (RuntimeConfig::new defaults)",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        git_revision(&root)
    ));

    if !a.trace {
        let mut setups = Samples::new();
        let mut ready = None;
        for _ in 0..SETUPS {
            drop(ready.take());
            let t0 = Instant::now();
            ready = Some(setup(&a, a.seconds, nproc, None));
            setups.push(t0.elapsed().as_secs_f64());
        }
        measure(ready.expect("set up at least once"), a.seconds, None, &mut r);
        r.quantile("setup_s", &mut setups, 0.5);
        if let Some(mb) = peak_rss_mb() {
            r.set("peak_rss_mb", mb, 1);
        }
        r.print(&E2E);
        return ExitCode::SUCCESS;
    }

    let half = a.seconds / 2.0;
    let mut untimed = Report::default();
    let plain = measure(setup(&a, half, nproc, None), half, None, &mut untimed);
    let spans = Arc::new(Spans::with_capacity(SPAN_CAPACITY));
    let traced = measure(setup(&a, half, nproc, Some(&spans)), half, Some(&spans), &mut r);
    r.absorb(untimed, "untimed run");
    probes::run(&mut r, nproc);
    if a.workload != "sim-fig4" {
        sim::probe(&mut r);
    }
    if a.workload != "serve-openloop" {
        serve::probe(a.seed, nproc, &mut r);
    }
    if plain > 0.0 {
        r.set("trace.overhead_pct", 100.0 * (traced / plain - 1.0), 2);
    }
    r.set("trace.spans", spans.len() as f64, 1);
    let out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", a.workload));
    match spans.write_jsonl(&out) {
        Ok(()) => r.fact(format!(
            "spans: {} written to {} ({} dropped)",
            spans.len(),
            out.display(),
            spans.dropped()
        )),
        Err(e) => r.fact(format!("spans: not written to {}: {e}", out.display())),
    }
    r.print(&LAYER);
    ExitCode::SUCCESS
}
