//! Handler-specialization microbenchmark shapes (E19).
//!
//! Homogeneous netlists, each dominated by one `pcl` template, used by
//! `benches/handler.rs` and the report binary's E19 section to measure
//! per-react dispatch + contract-check cost with handler specialization
//! off (`Module::react` over the signal store) vs on (the same bodies on
//! lanes).
//!
//! The `inverter` shape doubles as the *minimal-handler control*: its
//! body is a single word flip, so its per-react cost is, to first order,
//! the engine floor each path pays (plan walk, handshake bookkeeping,
//! commit sweep, one stat). Subtracting it from another shape's cost
//! isolates that handler's *body* — the quantity E11 identified as the
//! remaining structural tax.

use crate::kernel::{build as build_workload, W_PCL};
use liberty_core::prelude::*;
use liberty_pcl::{alu, delay, inverter, queue, register, sink, source, tee};
use std::time::Instant;

/// Handler shapes measured by E19, in table order. `inverter` is the
/// minimal-handler control row.
pub const SHAPES: &[&str] = &[
    "queue (depth 2)",
    "register",
    "delay (latency 2)",
    "inverter",
    "queue 4-wide contended (ROB shape)",
    "tee (32-way)",
    "alu (tuple in)",
    "E19 pipeline (mixed)",
];

/// The minimal-handler control row of [`SHAPES`].
pub const CONTROL_SHAPE: &str = "inverter";

fn seq_src(b: &mut NetlistBuilder, name: &str) -> InstanceId {
    let (spec, m) = source::seq(&Params::new().with("start", 1i64)).unwrap();
    b.add(name, spec, m).unwrap()
}

fn counting_sink(b: &mut NetlistBuilder, name: &str) -> InstanceId {
    let (spec, m) = sink::counting(&Params::new()).unwrap();
    b.add(name, spec, m).unwrap()
}

/// seq -> `stages` x template -> sink, for the unary word handlers.
fn chain(stages: usize, make: impl Fn() -> (ModuleSpec, Box<dyn Module>)) -> Simulator {
    let mut b = NetlistBuilder::new();
    let mut prev = seq_src(&mut b, "src");
    for i in 0..stages {
        let (spec, m) = make();
        let inst = b.add(format!("h{i}"), spec, m).unwrap();
        b.connect(prev, "out", inst, "in").unwrap();
        prev = inst;
    }
    let k = counting_sink(&mut b, "k");
    b.connect(prev, "out", k, "in").unwrap();
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

/// seq -> tee -> `stages` sinks (the fan-out handler).
fn tee_fanout(stages: usize) -> Simulator {
    let mut b = NetlistBuilder::new();
    let s = seq_src(&mut b, "src");
    let (spec, m) = tee::tee(&Params::new()).unwrap();
    let t = b.add("tee", spec, m).unwrap();
    b.connect(s, "out", t, "in").unwrap();
    for i in 0..stages {
        let k = counting_sink(&mut b, format!("k{i}").as_str());
        b.connect(t, "out", k, "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

/// `stages` independent (repeating tuple -> alu -> sink) lanes.
fn alu_lanes(stages: usize) -> Simulator {
    let mut b = NetlistBuilder::new();
    for i in 0..stages {
        let (s_spec, s_mod) = source::repeating(alu::op_value(0, 40, 2));
        let s = b.add(format!("ops{i}"), s_spec, s_mod).unwrap();
        let (a_spec, a_mod) = alu::alu(&Params::new()).unwrap();
        let a = b.add(format!("alu{i}"), a_spec, a_mod).unwrap();
        b.connect(s, "out", a, "in").unwrap();
        let k = counting_sink(&mut b, format!("k{i}").as_str());
        b.connect(a, "out", k, "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

/// The paper's §2.1 instruction-window/ROB shape: 4 sources contending
/// for 4-wide queues chained 4-wide, drained 1/cycle at the tail. Steady
/// state keeps every queue full, so every dynamic react takes the
/// contended arbitration path (per-offer resolution, priority budget,
/// a worklist allocation); the kernel runs the same arbitration over
/// lane bytes without allocating.
fn wide_queue_chain(stages: usize) -> Simulator {
    const W: usize = 4;
    let mut b = NetlistBuilder::new();
    let mut feeders: Vec<(InstanceId, &str)> = (0..W)
        .map(|i| {
            let (spec, m) = source::seq(&Params::new().with("start", 1 + i as i64)).unwrap();
            (b.add(format!("src{i}"), spec, m).unwrap(), "out")
        })
        .collect();
    for s in 0..stages {
        let (spec, m) = queue::queue(&Params::new().with("depth", W as i64)).unwrap();
        let q = b.add(format!("q{s}"), spec, m).unwrap();
        for &(inst, port) in &feeders {
            b.connect(inst, port, q, "in").unwrap();
        }
        feeders = vec![(q, "out"); W];
    }
    let k = counting_sink(&mut b, "k");
    b.connect(feeders[0].0, "out", k, "in").unwrap();
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

/// Build one of [`SHAPES`] at the given chain depth / lane count (the
/// mixed pipeline ignores `stages`; panics on an unknown name).
pub fn build_shape(shape: &str, stages: usize) -> Simulator {
    match shape {
        "queue (depth 2)" => chain(stages, || {
            queue::queue(&Params::new().with("depth", 2i64)).unwrap()
        }),
        "register" => chain(stages, || register::reg(&Params::new()).unwrap()),
        "delay (latency 2)" => chain(stages, || {
            delay::delay(&Params::new().with("latency", 2i64)).unwrap()
        }),
        "inverter" => chain(stages, || inverter::inverter(&Params::new()).unwrap()),
        "queue 4-wide contended (ROB shape)" => wide_queue_chain(stages),
        "tee (32-way)" => tee_fanout(stages),
        "alu (tuple in)" => alu_lanes(stages),
        "E19 pipeline (mixed)" => build_workload(W_PCL, SchedKind::Compiled),
        other => panic!("unknown handler shape {other:?}"),
    }
}

/// One measured cell of the E19 table.
#[derive(Clone, Copy, Debug)]
pub struct HandlerRun {
    /// Host seconds for the measured window.
    pub secs: f64,
    /// `react` invocations in the measured window.
    pub reacts: u64,
    /// Steps in the measured window.
    pub cycles: u64,
}

impl HandlerRun {
    /// Nanoseconds of host time per react.
    pub fn ns_per_react(&self) -> f64 {
        self.secs * 1e9 / self.reacts as f64
    }
    /// Simulated steps per host second.
    pub fn steps_per_sec(&self) -> f64 {
        self.cycles as f64 / self.secs
    }
}

/// Measure one shape once: warm a tenth of the window, then time `cycles`.
pub fn measure_shape(shape: &str, stages: usize, specialize: bool, cycles: u64) -> HandlerRun {
    let mut sim = build_shape(shape, stages);
    sim.set_specialization(specialize);
    sim.run(cycles / 10).unwrap(); // warm caches + lazy plan state
    let r0 = sim.metrics().reacts;
    let t = Instant::now();
    sim.run(cycles).unwrap();
    HandlerRun {
        secs: t.elapsed().as_secs_f64(),
        reacts: sim.metrics().reacts - r0,
        cycles,
    }
}

/// Best (least-interfered) of `n` measurements of a shape.
pub fn best_of(n: u32, shape: &str, stages: usize, specialize: bool, cycles: u64) -> HandlerRun {
    (0..n.max(1))
        .map(|_| measure_shape(shape, stages, specialize, cycles))
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("n >= 1")
}
