//! The traced run's instruments: spans around calls into the library,
//! their per-layer self time, and a gated allocation counter.
//!
//! Spans are recorded from the benchmark's own code, around public
//! library calls; nothing inside the engine is instrumented.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name without the last component.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(l, _)| l)
    }

    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder, shared by the threads of a run.
pub struct Tracer {
    t0: Instant,
    workload: &'static str,
    rep: AtomicU32,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            t0: Instant::now(),
            workload,
            rep: AtomicU32::new(0),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Tag the spans recorded from now on with operation number `rep`.
    pub fn set_rep(&self, rep: u32) {
        self.rep.store(rep, Ordering::Relaxed);
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives the
    /// span's id, to pass as the parent of spans it opens.
    pub fn span<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.t0.elapsed().as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            rep: self.rep.load(Ordering::Relaxed),
            start_ns: start,
            end_ns: end,
        };
        self.spans.lock().expect("span list lock").push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"workload\":\"{}\",\"rep\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, self.workload, s.rep
            )?;
        }
        out.flush()
    }
}

/// Optional span: runs `f` bare when tracing is off, so the timed and the
/// traced runs make the same library calls.
pub fn span<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    f: impl FnOnce(Option<u32>) -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, parent, |id| f(Some(id))),
        None => f(None),
    }
}

/// Durations in ns of the spans named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time per layer, in ns: each span's duration minus the part of its
/// interval that its children cover (children on other threads may
/// overlap each other, so the covered part is their union).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |iv| union_within(iv, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `iv`, clipped to `[lo, hi]`.
fn union_within(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// System allocator that counts allocations while [`count_allocs`] is on.
/// Off, it costs one relaxed load per allocation; only the traced run
/// turns it on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Turn allocation counting on or off for the whole process; returns
/// whether it was on. The benchmark runs no threads besides the sweep
/// lanes, whose allocations belong to the measured work.
pub fn count_allocs(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from `System` with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(l) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rep: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(0, None, "ensemble.run_sweep", 0, 100),
            sp(1, Some(0), "ensemble.build", 10, 40),
            sp(2, Some(0), "ensemble.build", 30, 50),
            sp(3, Some(1), "lss.parse", 10, 20),
        ];
        let st = self_time_by_layer(&spans);
        // Sweep: 100 - |[10, 50]|; builds: (30 - 10) + 20; parse: 10.
        assert_eq!(st["ensemble"], 60 + 40);
        assert_eq!(st["lss"], 10);
    }

    #[test]
    fn layer_is_the_name_prefix() {
        assert_eq!(sp(0, None, "core.exec.step", 0, 1).layer(), "core.exec");
        assert_eq!(sp(0, None, "lss.parse", 0, 1).layer(), "lss");
    }
}
