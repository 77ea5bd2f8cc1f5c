//! Ready-made trace sinks: a human-readable event log, an in-memory
//! recording, and a JSONL structured-event stream.
//!
//! The paper positions LSE as "an effective educational tool when
//! integrated with an interactive system visualizer" — the kernel's
//! [`crate::probe::Probe`] hook is that integration point. These sinks
//! cover the common needs; waveforms live in [`crate::vcd`] and hot-spot
//! attribution in [`crate::profile`].

use crate::netlist::{EdgeId, InstanceId};
use crate::probe::{JsonEsc, Probe, ResolvedBy};
use crate::signal::Wire;
use crate::topology::Topology;
use crate::value::Value;
use parking_lot_free::Mutex;
use std::io::Write;
use std::sync::Arc;

// The core crate avoids external deps beyond serde; std::sync::Mutex is
// fine at tracing rates.
mod parking_lot_free {
    pub use std::sync::Mutex;
}

/// Writes one line per transfer: `@cycle src -> dst: value`.
pub struct TextTracer<W: Write + Send> {
    out: W,
    /// Stop writing after this many events (0 = unbounded) so a
    /// long-running simulation cannot fill the disk by accident.
    limit: u64,
    written: u64,
    truncated: bool,
}

impl<W: Write + Send> TextTracer<W> {
    /// Trace to any writer; `limit` caps the number of events
    /// (0 = unbounded).
    pub fn new(out: W, limit: u64) -> Self {
        TextTracer {
            out,
            limit,
            written: 0,
            truncated: false,
        }
    }
}

impl<W: Write + Send> Probe for TextTracer<W> {
    fn transfer(&mut self, now: u64, _edge: EdgeId, src: &str, dst: &str, value: &Value) {
        if self.limit > 0 && self.written >= self.limit {
            // Say so once instead of silently dropping the tail.
            if !self.truncated {
                self.truncated = true;
                let _ = writeln!(self.out, "... trace truncated at {} events", self.limit);
                let _ = self.out.flush();
            }
            return;
        }
        self.written += 1;
        let _ = writeln!(self.out, "@{now} {src} -> {dst}: {value}");
    }
}

impl<W: Write + Send> Drop for TextTracer<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// One recorded transfer event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Time-step of the transfer.
    pub now: u64,
    /// Sender instance name.
    pub src: String,
    /// Receiver instance name.
    pub dst: String,
    /// A rendering of the value (values themselves are not kept to avoid
    /// retaining payload memory).
    pub value: String,
}

/// Records transfers into a shared buffer for programmatic inspection
/// (tests, visualizer front ends).
#[derive(Default)]
pub struct RecordingTracer {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl RecordingTracer {
    /// Create a tracer and the handle its events can be read through.
    pub fn new() -> (Self, TraceHandle) {
        let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
        (
            RecordingTracer {
                events: events.clone(),
            },
            TraceHandle { events },
        )
    }
}

/// Shared read handle for a [`RecordingTracer`].
#[derive(Clone)]
pub struct TraceHandle {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl TraceHandle {
    /// Snapshot of all recorded events (clones the buffer; prefer
    /// [`TraceHandle::take`] when draining a long run).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace lock").clone()
    }

    /// Drain the recording buffer: returns everything recorded since the
    /// last drain and leaves the buffer empty, so a long run can be
    /// consumed incrementally without cloning an ever-growing `Vec`.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace lock"))
    }

    /// Discard everything recorded so far.
    pub fn clear(&self) {
        self.events.lock().expect("trace lock").clear();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace lock").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Probe for RecordingTracer {
    fn transfer(&mut self, now: u64, _edge: EdgeId, src: &str, dst: &str, value: &Value) {
        self.events.lock().expect("trace lock").push(TraceEvent {
            now,
            src: src.to_owned(),
            dst: dst.to_owned(),
            value: value.to_string(),
        });
    }
}

/// Structured-event sink: one JSON object per line, for programmatic
/// analysis (`jq`, notebooks, visualizer front ends).
///
/// Event kinds: `attach` (header: instance/edge census and the instance
/// name table), `step` / `step_end`, `resolve` (per-wire resolution with
/// polarity, payload rendering and source — module vs. default
/// semantics), `transfer`, `fault` / `inst_fault` (active fault-plan
/// injections), `quarantine` (instance isolation), `checkpoint` /
/// `restore` / `rollback` (the recovery machinery of `crate::snapshot`),
/// `cancel` (a governed run observed its cancellation token, see
/// `crate::supervisor`), and — when enabled with
/// [`JsonlProbe::with_handlers`] — `react` / `commit` handler brackets.
///
/// When the consumer may be slower than the producer, wrap the writer in
/// a [`crate::supervisor::BackpressureWriter`]: the stream is
/// line-oriented, so its bounded buffer sheds or stalls on whole-record
/// boundaries and the surviving output stays parseable.
///
/// [`JsonlProbe::canonical`] restricts the stream to the
/// scheduler-independent subset (everything except `resolve` and the
/// handler brackets, whose ordering depends on the reaction schedule):
/// two runs of the same netlist under the same fault plan produce
/// byte-identical canonical streams regardless of scheduler — the
/// deterministic-replay oracle the chaos harness asserts on.
pub struct JsonlProbe<W: Write + Send> {
    out: W,
    handlers: bool,
    canonical: bool,
}

impl<W: Write + Send> JsonlProbe<W> {
    /// Stream events to any writer.
    pub fn new(out: W) -> Self {
        JsonlProbe {
            out,
            handlers: false,
            canonical: false,
        }
    }

    /// Also emit per-handler `react` / `commit` enter events (verbose:
    /// one line per handler invocation).
    pub fn with_handlers(mut self) -> Self {
        self.handlers = true;
        self
    }

    /// Emit only the scheduler-independent event subset (drops `resolve`
    /// and handler brackets), so equal seeds yield byte-identical
    /// streams across schedulers.
    pub fn canonical(mut self) -> Self {
        self.canonical = true;
        self.handlers = false;
        self
    }
}

fn wire_name(w: Wire) -> &'static str {
    match w {
        Wire::Data => "data",
        Wire::Enable => "enable",
        Wire::Ack => "ack",
    }
}

impl<W: Write + Send> Probe for JsonlProbe<W> {
    fn attach(&mut self, topo: &Topology) {
        let _ = write!(
            self.out,
            "{{\"t\":\"attach\",\"instances\":{},\"edges\":{},\"names\":[",
            topo.instance_count(),
            topo.edge_count(),
        );
        for (i, n) in topo.instance_names().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(self.out, "{sep}\"{}\"", JsonEsc(n));
        }
        let _ = writeln!(self.out, "]}}");
    }

    fn step_begin(&mut self, now: u64) {
        let _ = writeln!(self.out, "{{\"t\":\"step\",\"now\":{now}}}");
    }

    fn step_end(&mut self, now: u64) {
        let _ = writeln!(self.out, "{{\"t\":\"step_end\",\"now\":{now}}}");
    }

    fn react_enter(&mut self, now: u64, inst: InstanceId) {
        if self.handlers {
            let _ = writeln!(
                self.out,
                "{{\"t\":\"react\",\"now\":{now},\"inst\":{}}}",
                inst.0
            );
        }
    }

    fn commit_enter(&mut self, now: u64, inst: InstanceId) {
        if self.handlers {
            let _ = writeln!(
                self.out,
                "{{\"t\":\"commit\",\"now\":{now},\"inst\":{}}}",
                inst.0
            );
        }
    }

    fn signal_resolved(
        &mut self,
        now: u64,
        edge: EdgeId,
        wire: Wire,
        yes: bool,
        value: Option<&Value>,
        by: ResolvedBy,
    ) {
        if self.canonical {
            return;
        }
        let _ = write!(
            self.out,
            "{{\"t\":\"resolve\",\"now\":{now},\"edge\":{},\"wire\":\"{}\",\"yes\":{yes}",
            edge.0,
            wire_name(wire),
        );
        if let Some(v) = value {
            let _ = write!(self.out, ",\"value\":\"{}\"", JsonEsc(v));
        }
        let _ = match by {
            ResolvedBy::Module(i) => writeln!(self.out, ",\"by\":{}}}", i.0),
            ResolvedBy::Default => writeln!(self.out, ",\"by\":\"default\"}}"),
        };
    }

    fn transfer(&mut self, now: u64, edge: EdgeId, src: &str, dst: &str, value: &Value) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"transfer\",\"now\":{now},\"edge\":{},\"src\":\"{}\",\"dst\":\"{}\",\"value\":\"{}\"}}",
            edge.0,
            JsonEsc(src),
            JsonEsc(dst),
            JsonEsc(value),
        );
    }

    fn fault_injected(
        &mut self,
        now: u64,
        edge: EdgeId,
        wire: Wire,
        kind: crate::fault::FaultKind,
    ) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"fault\",\"now\":{now},\"edge\":{},\"wire\":\"{}\",\"kind\":\"{}\"}}",
            edge.0,
            wire_name(wire),
            kind.label(),
        );
    }

    fn instance_fault(&mut self, now: u64, inst: InstanceId, kind: &str) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"inst_fault\",\"now\":{now},\"inst\":{},\"kind\":\"{}\"}}",
            inst.0,
            JsonEsc(kind),
        );
    }

    fn quarantined(&mut self, now: u64, inst: InstanceId, reason: &str) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"quarantine\",\"now\":{now},\"inst\":{},\"reason\":\"{}\"}}",
            inst.0,
            JsonEsc(reason),
        );
    }

    fn checkpointed(&mut self, now: u64) {
        let _ = writeln!(self.out, "{{\"t\":\"checkpoint\",\"now\":{now}}}");
    }

    fn restored(&mut self, now: u64) {
        let _ = writeln!(self.out, "{{\"t\":\"restore\",\"now\":{now}}}");
    }

    fn rolled_back(&mut self, now: u64, to: u64, reason: &str) {
        let _ = writeln!(
            self.out,
            "{{\"t\":\"rollback\",\"now\":{now},\"to\":{to},\"reason\":\"{}\"}}",
            JsonEsc(reason),
        );
    }

    fn run_cancelled(&mut self, now: u64) {
        let _ = writeln!(self.out, "{{\"t\":\"cancel\",\"now\":{now}}}");
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

impl<W: Write + Send> Drop for JsonlProbe<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::exec::{CommitCtx, ReactCtx, SchedKind, Simulator};
    use crate::module::{Module, ModuleSpec, PortId};
    use crate::netlist::NetlistBuilder;
    use crate::signal::Res;

    struct Src;
    impl Module for Src {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }
    struct Snk;
    impl Module for Snk {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, true)
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            let _ = matches!(ctx.data(PortId(0), 0), Res::Yes(_));
            Ok(())
        }
    }

    fn tiny_sim() -> Simulator {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 1, 1),
                Box::new(Src),
            )
            .unwrap();
        let k = b
            .add("k", ModuleSpec::new("snk").input("in", 1, 1), Box::new(Snk))
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        Simulator::new(b.build().unwrap(), SchedKind::Dynamic)
    }

    /// Shared byte buffer implementing Write, for reading sink output
    /// back out of a moved-in writer.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn text_tracer_formats_and_limits() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(TextTracer::new(store.clone(), 2)));
        sim.run(5).unwrap();
        let text = store.text();
        let lines: Vec<&str> = text.lines().collect();
        // Two events, then a single truncation marker — not silence.
        assert_eq!(lines.len(), 3, "2 events + marker: {text}");
        assert_eq!(lines[0], "@0 s -> k: 0");
        assert_eq!(lines[1], "@1 s -> k: 1");
        assert_eq!(lines[2], "... trace truncated at 2 events");
    }

    #[test]
    fn text_tracer_unbounded_has_no_marker() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(TextTracer::new(store.clone(), 0)));
        sim.run(4).unwrap();
        let text = store.text();
        assert_eq!(text.lines().count(), 4);
        assert!(!text.contains("truncated"));
    }

    #[test]
    fn recording_tracer_captures_events() {
        let mut sim = tiny_sim();
        let (tracer, handle) = RecordingTracer::new();
        sim.set_probe(Box::new(tracer));
        assert!(handle.is_empty());
        sim.run(3).unwrap();
        let ev = handle.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[2].now, 2);
        assert_eq!(ev[2].src, "s");
        assert_eq!(ev[2].dst, "k");
        assert_eq!(ev[2].value, "2");
    }

    #[test]
    fn trace_handle_take_drains_and_clear_discards() {
        let mut sim = tiny_sim();
        let (tracer, handle) = RecordingTracer::new();
        sim.set_probe(Box::new(tracer));
        sim.run(3).unwrap();
        let first = handle.take();
        assert_eq!(first.len(), 3);
        assert!(handle.is_empty(), "take drains the buffer");
        sim.run(2).unwrap();
        let second = handle.take();
        assert_eq!(second.len(), 2);
        assert_eq!(second[0].now, 3, "drained runs resume where they left");
        sim.run(1).unwrap();
        handle.clear();
        assert!(handle.is_empty());
    }

    #[test]
    fn jsonl_probe_streams_structured_events() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(JsonlProbe::new(store.clone())));
        sim.run(2).unwrap();
        drop(sim); // flush
        let text = store.text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("{\"t\":\"attach\",\"instances\":2,\"edges\":1"),
            "{text}"
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        // Per step: step + 3 resolutions + 1 transfer + step_end = 6.
        assert_eq!(lines.len(), 1 + 2 * 6, "{text}");
        assert!(text.contains("\"wire\":\"data\""));
        assert!(text.contains("\"t\":\"transfer\""));
        assert!(!text.contains("\"t\":\"react\""), "handlers off by default");
    }

    #[test]
    fn jsonl_probe_handler_events_opt_in() {
        let mut sim = tiny_sim();
        let store = Shared::default();
        sim.set_probe(Box::new(JsonlProbe::new(store.clone()).with_handlers()));
        sim.run(1).unwrap();
        let text = store.text();
        assert!(text.contains("\"t\":\"react\""), "{text}");
        assert!(text.contains("\"t\":\"commit\""), "{text}");
    }
}
