//! `lir_sort`: one structural `upl` core (the E8 stage-4 configuration)
//! running a bubble sort of seed-generated data to halt. None of its
//! instances specialize, so dynamic `upl` handler bodies do the work and
//! the kernel layer is bypassed; there is no LSS front end.

use crate::control::{HostClock, Secs};
use crate::driver::{Op, Workload};
use crate::trace::{self, span, Tracer};
use crate::Opts;
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_ensemble::derive_seed;
use liberty_upl::core::{build_core, CoreConfig, CoreHandles};
use liberty_upl::emu::Machine;
use liberty_upl::isa::Program;
use liberty_upl::program;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds per operation; their median is the set-up time.
const SETUP_BUILDS: usize = 5;
/// Steps per timed chunk (about 30 ms).
const CHUNK: u64 = 8192;
/// A traced run times one `step()` call in this many.
const STEP_SAMPLE: u64 = 64;
/// Cycle limit of a run; the sorts here halt far sooner.
const MAX_CYCLES: u64 = 50_000_000;
/// Steps `run_to_halt` takes after the halt, to drain stores.
const DRAIN: u64 = 16;

pub struct LirSort {
    prog: Program,
    cfg: CoreConfig,
    /// The functional emulator's final state: registers, memory, retired.
    reference: Machine,
}

/// `program::sort(n)` over `n` words whose values come from `seed`. The
/// values' relative order is the fixed one `program::sort` uses, so every
/// seed takes the same control flow and cycle count: seeds vary the data
/// the engine moves, not the amount of simulated work.
pub fn seeded_sort(n: u64, seed: u64) -> Program {
    let mut p = program::sort(n);
    let mut by_value: Vec<(u64, u64)> = p.init_mem.iter().map(|&(a, v)| (v, a)).collect();
    by_value.sort_unstable();
    let mut value = 0u64;
    for (i, &(_, addr)) in by_value.iter().enumerate() {
        value += 1 + derive_seed(seed, i as u64) % 1024;
        p.init_mem[addr as usize] = (addr, value);
    }
    p
}

/// E8 stage 4: deeper buffers, bimodal predictor, D-cache, slow DRAM.
fn stage4() -> CoreConfig {
    CoreConfig {
        fetch_q: 4,
        iw: 4,
        rob: 8,
        predictor: Some(Params::new().with("kind", "bimodal")),
        cache: Some(Params::new()),
        mem_latency: 12,
        ..CoreConfig::default()
    }
}

impl LirSort {
    pub fn new(opts: &Opts) -> Result<LirSort, String> {
        let n = if opts.smoke { 12 } else { 96 };
        let prog = seeded_sort(n, opts.seed);
        let mut reference = Machine::new(&prog);
        reference
            .run(&prog, MAX_CYCLES)
            .map_err(|e| format!("emulator: {e}"))?;
        if !reference.halted {
            return Err("emulator did not halt".into());
        }
        Ok(LirSort {
            prog,
            cfg: stage4(),
            reference,
        })
    }

    /// Program plus configuration to a simulator ready to step (the
    /// calls `core_simulator` makes, one span per layer).
    fn build(&self, tr: Option<&Tracer>) -> Result<(Simulator, CoreHandles), String> {
        let prog = Arc::new(self.prog.clone());
        let (b, handles) = span(tr, "upl.build_core", None, |_| {
            let mut b = NetlistBuilder::new();
            build_core(&mut b, "", prog, &self.cfg).map(|(h, _)| (b, h))
        })
        .map_err(|e| format!("build core: {e}"))?;
        let (topo, modules) = span(tr, "core.topology.build", None, |_| {
            b.build().map(|net| net.into_parts())
        })
        .map_err(|e| format!("netlist: {e}"))?;
        let topo = Arc::new(topo);
        span(tr, "core.compile.plan", None, |_| {
            topo.plan();
        });
        let sim = span(tr, "core.kernel.from_parts", None, |_| {
            Simulator::from_parts(topo, modules, SchedKind::Compiled)
        });
        Ok((sim, handles))
    }

    /// What `run_to_halt` does, in chunks timed between control samples:
    /// step until the program halts, then drain [`DRAIN`] steps. Traced,
    /// each chunk is a `core.exec.run` span with one sampled `step` span
    /// in every [`STEP_SAMPLE`] steps. Returns the cycles to halt and the
    /// chunks.
    fn run(
        sim: &mut Simulator,
        h: &CoreHandles,
        clock: &mut HostClock,
        tr: Option<&Tracer>,
    ) -> Result<(u64, Vec<(u64, Secs)>), SimError> {
        let halted = || h.arch.is_halted();
        let mut cycles = 0;
        let mut chunks = Vec::new();
        loop {
            let n = CHUNK.min(MAX_CYCLES - cycles);
            let (ran, secs) = clock.time(|| {
                let k = match tr {
                    None => sim.run_until(n, |_| halted())?,
                    Some(t) => t.span("core.exec.run", None, |id| {
                        let mut k = 0;
                        while k < n && !halted() {
                            if (cycles + k) % STEP_SAMPLE == 0 {
                                t.span("core.exec.step", Some(id), |_| sim.step())?;
                            } else {
                                sim.step()?;
                            }
                            k += 1;
                        }
                        Ok::<_, SimError>(k)
                    })?,
                };
                let done = halted() || cycles + k >= MAX_CYCLES;
                if done {
                    sim.run(DRAIN)?;
                }
                Ok::<_, SimError>((k, done))
            });
            let (k, done) = ran?;
            cycles += k;
            chunks.push((if done { k + DRAIN } else { k }, secs));
            if done {
                return Ok((cycles, chunks));
            }
        }
    }
}

impl Workload for LirSort {
    const NAME: &'static str = "lir_sort";

    fn op(&mut self, clock: &mut HostClock, tr: Option<&Tracer>) -> Result<Op, String> {
        let mut op = Op::default();
        let mut built = None;
        for _ in 0..SETUP_BUILDS {
            let (b, secs) = clock.time(|| self.build(tr));
            op.setup.push(secs);
            built = Some(b?);
        }
        let (mut sim, h) = built.expect("at least one build");

        let allocs0 = trace::allocs();
        trace::count_allocs(tr.is_some());
        let ran = Self::run(&mut sim, &h, clock, tr);
        trace::count_allocs(false);
        let (cycles, run) = ran.map_err(|e| format!("run: {e}"))?;
        let allocs = trace::allocs() - allocs0;
        op.run = run;
        op.wall = op.run_secs();
        op.wall += *op.setup.last().expect("at least one build");

        let regs = *h.arch.regs.lock();
        let mem = h
            .mem
            .as_ref()
            .ok_or("core has no DRAM handle")?
            .lock()
            .clone();
        let stats = sim.stats();
        let counter =
            |inst: Option<InstanceId>, name: &str| inst.map_or(0, |i| stats.counter(i, name));
        let retired = stats.counter(h.ids.decode, "retired");
        let upl = [
            ("upl.cycles", cycles),
            ("upl.retired", retired),
            ("upl.branches", stats.counter(h.ids.execute, "branches")),
            (
                "upl.mispredicts",
                stats.counter(h.ids.execute, "mispredicts"),
            ),
            ("upl.dcache_read_hits", counter(h.ids.cache, "read_hits")),
            (
                "upl.dcache_read_misses",
                counter(h.ids.cache, "read_misses"),
            ),
            ("upl.dcache_write_hits", counter(h.ids.cache, "write_hits")),
            (
                "upl.dcache_write_misses",
                counter(h.ids.cache, "write_misses"),
            ),
        ];
        let r = &self.reference;
        op.ok = h.arch.is_halted() && regs == r.regs && mem == r.mem && retired == r.retired;
        if !op.ok {
            eprintln!("lir_sort: architectural state differs from the emulator's");
        }
        let mut digest = Vec::new();
        for v in regs.iter().chain(&mem).chain([&retired]) {
            digest.extend_from_slice(&v.to_le_bytes());
        }
        let m = sim.metrics();
        op.counts = BTreeMap::from([
            ("digest".to_owned(), format!("{:08x}", crc32(&digest))),
            ("steps".to_owned(), m.steps.to_string()),
            ("reacts".to_owned(), m.reacts.to_string()),
            ("commits".to_owned(), m.commits.to_string()),
            ("defaults".to_owned(), m.defaults.to_string()),
        ]);
        op.counts
            .extend(upl.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        op.steps = m.steps;
        op.items = retired;
        op.runs = 1;

        if let Some(t) = tr {
            let steps = m.steps as f64;
            let summary = t
                .span("core.kernel.plan_summary", None, |_| sim.plan_summary())
                .ok_or("no plan summary on Compiled")?;
            t.span("core.stats.report", None, |_| sim.report());
            let topo = sim.topology();
            op.layer = BTreeMap::from([
                ("core.compile.plan_nodes", topo.plan().nodes().len() as f64),
                (
                    "core.kernel.specialized_frac",
                    summary.specialized as f64 / summary.instances.len().max(1) as f64,
                ),
                (
                    "core.kernel.fast_edge_frac",
                    summary.fast_edges as f64 / summary.total_edges.max(1) as f64,
                ),
                ("core.exec.reacts_per_step", m.reacts as f64 / steps),
                ("core.exec.commits_per_step", m.commits as f64 / steps),
                ("core.exec.defaults_per_step", m.defaults as f64 / steps),
                (
                    "core.exec.ns_per_react",
                    op.run_secs().raw * 1e9 / m.reacts.max(1) as f64,
                ),
                ("core.exec.allocs_per_step", allocs as f64 / steps),
                ("upl.ipc", retired as f64 / cycles.max(1) as f64),
            ]);
            op.layer.extend(upl.iter().map(|&(k, v)| (k, v as f64)));
        }
        Ok(op)
    }
}
