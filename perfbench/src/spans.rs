//! In-memory spans for the traced run, written out once at the end.
//!
//! A span is a name, a trace id (the request id for serving spans, the
//! kernel-run id for fork-join spans, 0 for table calls), the recording
//! thread, and a start and end on the benchmark's monotonic clock. The
//! parent is not stored while recording — it is resolved when the spans
//! are written: the innermost span of the same thread that encloses it,
//! else the earliest span of the same trace.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the benchmark's clock epoch (set on first use).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A bounded span buffer shared by every instrumented call site.
#[derive(Debug)]
pub struct Spans {
    buf: Mutex<Vec<Span>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Spans {
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            buf: Mutex::new(Vec::with_capacity(capacity.min(1 << 20))),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    pub fn record(&self, name: &'static str, trace: u64, start_ns: u64, end_ns: u64) {
        let thread = THREAD.with(|t| *t);
        let mut buf = self.buf.lock().expect("span buffer poisoned");
        if buf.len() < self.capacity {
            buf.push(Span { name, trace, thread, start_ns, end_ns });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn len(&self) -> usize {
        self.buf.lock().expect("span buffer poisoned").len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.buf.lock().expect("span buffer poisoned").clone()
    }

    /// Writes one JSON object per span, with its resolved parent index
    /// (`-1` for a root), to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let parents = resolve_parents(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, p)) in spans.iter().zip(&parents).enumerate() {
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"trace\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.trace,
                s.thread,
                s.start_ns,
                s.end_ns,
                p.map_or(-1, |p| p as i64)
            )?;
        }
        out.flush()
    }
}

/// Parent of each span: the innermost enclosing span on the same thread,
/// else the earliest-starting other span of the same (non-zero) trace.
pub fn resolve_parents(spans: &[Span]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order
        .sort_by_key(|&i| (spans[i].thread, spans[i].start_ns, std::cmp::Reverse(spans[i].end_ns)));
    let mut parents = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut thread = None;
    for &i in &order {
        let s = spans[i];
        if thread != Some(s.thread) {
            stack.clear();
            thread = Some(s.thread);
        }
        while let Some(&top) = stack.last() {
            if spans[top].end_ns >= s.end_ns && spans[top].start_ns <= s.start_ns {
                break;
            }
            stack.pop();
        }
        parents[i] = stack.last().copied();
        stack.push(i);
    }
    let mut root_of_trace: HashMap<u64, usize> = HashMap::new();
    for &i in &order {
        let t = spans[i].trace;
        if t == 0 {
            continue;
        }
        let root = root_of_trace.entry(t).or_insert(i);
        if spans[i].start_ns < spans[*root].start_ns {
            *root = i;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if parents[i].is_none() && s.trace != 0 {
            let root = root_of_trace[&s.trace];
            if root != i {
                parents[i] = Some(root);
            }
        }
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, trace: u64, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name, trace, thread, start_ns, end_ns }
    }

    #[test]
    fn nesting_on_one_thread_and_linking_across_threads() {
        let spans = [
            span("submit", 7, 1, 10, 20),
            span("handler", 7, 2, 30, 90),
            span("table.release", 0, 2, 40, 50),
            span("pass", 0, 3, 0, 100),
            span("table.acquire", 0, 3, 5, 6),
        ];
        let p = resolve_parents(&spans);
        assert_eq!(p, vec![None, Some(0), Some(1), None, Some(3)]);
    }
}
