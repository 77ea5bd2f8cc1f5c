//! Allocation discipline of the kernel hot path: a steady-state run
//! moving *scalar* values must not touch the heap at all.
//!
//! `Value`'s hand-written `Clone` copies the scalar variants (`Unit`,
//! `Bool`, `Word`, `Int`, `Float`) without `Arc` refcount traffic or
//! allocation, and the kernel's per-step structures (signal slots,
//! transfer list, worklists, wake buffer, stats entries) all reach fixed
//! capacity after warm-up. This test holds the whole stack to that
//! contract with a counting global allocator: one million word transfers
//! through a 64-stage forwarding chain, zero allocations.
//!
//! Kept as its own integration test binary, and counted *per thread*:
//! the simulator runs entirely on the test thread, while libtest's main
//! thread waits the test out with timed channel receives that allocate
//! now and then — a process-wide counter flakes on that background
//! noise.

use liberty_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

std::thread_local! {
    // Const-initialized and Drop-free, so the allocator never recurses
    // into lazy TLS setup and teardown access stays safe (`try_with`).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations charged to the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(p, l, n) }
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(l) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);
/// The source's only port ("out") is its port 0.
const SRC_OUT: PortId = PortId(0);

/// Sends the current cycle number every step.
struct WordSrc;
impl Module for WordSrc {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send(SRC_OUT, 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Forwards its input's data wire and accepts unconditionally.
struct Forward;
impl Module for Forward {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_IN, 0, true)?;
        match ctx.data(P_IN, 0) {
            Res::Yes(v) => ctx.send(P_OUT, 0, v),
            Res::No => ctx.send_nothing(P_OUT, 0),
            Res::Unknown => Ok(()), // producer not settled yet
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Accepts and counts everything it receives.
struct CountingSink;
impl Module for CountingSink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_IN, 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if let Some(Value::Word(_)) = ctx.transferred_in(P_IN, 0) {
            ctx.count("received", 1);
        }
        Ok(())
    }
}

/// A source, `stages - 1` forwarders, and a sink: `stages` edges total.
fn chain(stages: usize, sched: SchedKind) -> Simulator {
    let mut b = NetlistBuilder::new();
    let src_spec = ModuleSpec::new("wsrc").output("out", 1, 1);
    let fwd_spec = ModuleSpec::new("fwd").input("in", 1, 1).output("out", 1, 1);
    let sink_spec = ModuleSpec::new("wsink").input("in", 1, 1);
    let mut prev = b.add("src", src_spec, Box::new(WordSrc)).unwrap();
    for i in 1..stages {
        let f = b
            .add(format!("f{i}"), fwd_spec.clone(), Box::new(Forward))
            .unwrap();
        b.connect(prev, "out", f, "in").unwrap();
        prev = f;
    }
    let k = b.add("sink", sink_spec, Box::new(CountingSink)).unwrap();
    b.connect(prev, "out", k, "in").unwrap();
    Simulator::new(b.build().unwrap(), sched)
}

#[test]
fn a_million_word_transfers_allocate_nothing() {
    const STAGES: usize = 64;
    const STEPS: u64 = 16_384; // 64 transfers/step * 16384 = 2^20 > 1e6
    let mut sim = chain(STAGES, SchedKind::Compiled);
    // Warm-up: let every lazily grown structure (transfer list, wake
    // buffer, stats entries, plan-order scratch) reach steady capacity.
    sim.run(4).unwrap();
    let before = allocs();
    sim.run(STEPS).unwrap();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state scalar transfers must not allocate"
    );
    let k = sim.instance_by_name("sink").unwrap();
    assert_eq!(sim.stats().counter(k, "received"), 4 + STEPS);
    let transfers: u64 = sim.transfer_counts().iter().sum();
    assert!(transfers >= 1_000_000, "moved {transfers} values");
}

/// Observes every event and does nothing with it.
struct SilentProbe;
impl Probe for SilentProbe {}

#[test]
fn jsonl_encoding_adds_no_allocations() {
    const STEPS: u64 = 1024;
    // Allocations over STEPS warmed steps of the chain with `probe`
    // attached (the probed, despecialized path).
    let measure = |probe: Box<dyn Probe>| {
        let mut sim = chain(16, SchedKind::Compiled);
        sim.set_probe(probe);
        sim.run(4).unwrap();
        let before = allocs();
        sim.run(STEPS).unwrap();
        allocs() - before
    };
    let silent = measure(Box::new(SilentProbe));
    let canonical = measure(Box::new(JsonlProbe::new(std::io::sink()).canonical()));
    let full = measure(Box::new(JsonlProbe::new(std::io::sink())));
    assert_eq!(
        canonical, silent,
        "canonical JSONL encoding must not allocate"
    );
    assert_eq!(
        full, silent,
        "JSONL resolve and transfer encoding must not allocate"
    );
    assert_eq!(silent, 0, "the probed step loop must not allocate");
}

#[test]
fn dynamic_arbiter_and_queue_allocate_nothing() {
    const STEPS: u64 = 4096;
    // Two word sources contend at a round-robin arbiter that feeds a
    // depth-1 queue: the queue is full on every other step, so its react
    // takes the contended (two-pass) branch and the arbiter stalls.
    let mut b = NetlistBuilder::new();
    let src_spec = ModuleSpec::new("wsrc").output("out", 1, 1);
    let s0 = b.add("s0", src_spec.clone(), Box::new(WordSrc)).unwrap();
    let s1 = b.add("s1", src_spec, Box::new(WordSrc)).unwrap();
    let (a_spec, a_mod) =
        liberty_pcl::arbiter::arbiter(&Params::new().with("policy", "round_robin")).unwrap();
    let arb = b.add("arb", a_spec, a_mod).unwrap();
    let (q_spec, q_mod) = liberty_pcl::queue::queue(&Params::new().with("depth", 1i64)).unwrap();
    let q = b.add("q", q_spec, q_mod).unwrap();
    let (k_spec, k_mod) = liberty_pcl::sink::counting(&Params::new()).unwrap();
    let k = b.add("k", k_spec, k_mod).unwrap();
    b.connect(s0, "out", arb, "in").unwrap();
    b.connect(s1, "out", arb, "in").unwrap();
    b.connect(arb, "out", q, "in").unwrap();
    b.connect(q, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_specialization(false);
    sim.run(16).unwrap();
    let before = allocs();
    sim.run(STEPS).unwrap();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state dynamic arbiter/queue handlers must not allocate"
    );
    let stats = sim.stats();
    assert!(stats.counter(q, "full_cycles") >= STEPS / 2);
    assert!(stats.counter(arb, "stalled") >= STEPS / 2);
    let received = stats.counter(k, "received");
    assert!(received >= STEPS / 2, "received {received}");
    assert_eq!(stats.counter(arb, "grants"), stats.counter(q, "enq"));
}

#[test]
fn the_lane_path_allocates_nothing() {
    const STEPS: u64 = 4096;
    // W_PCL is stock `pcl` templates only, so every instance runs its
    // handlers on lanes; its sinks count rather than collect.
    let mut sim = liberty_bench::kernel::build(liberty_bench::kernel::W_PCL, SchedKind::Compiled);
    let plan = sim.plan_summary().expect("compiled plan");
    assert_eq!(plan.dynamic, 0, "dynamic stragglers in W_PCL:\n{plan}");
    sim.run(64).unwrap();
    let before = allocs();
    sim.run(STEPS).unwrap();
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state lane handlers must not allocate"
    );
    let transfers: u64 = sim.transfer_counts().iter().sum();
    assert!(transfers >= STEPS * 20, "moved {transfers} values");
}
