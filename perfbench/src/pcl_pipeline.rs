//! `pcl_pipeline`: LSS text for a long `queue -> register` pipeline plus a
//! `tee -> inverter -> delay -> sink` side channel, on the compiled
//! scheduler. Every instance specializes, so kernels and the engine floor
//! (plan walk, store, commit) do all the work; no I/O, no dynamic handler.

use crate::control::{HostClock, Secs};
use crate::driver::{Op, Workload};
use crate::trace::{self, span, Tracer};
use crate::{out_dir, Opts};
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_ensemble::derive_seed;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds per operation; their median is the set-up time.
const SETUP_BUILDS: usize = 5;
/// Steps per timed chunk (about 20 ms).
const CHUNK: u64 = 1024;
/// A traced run times one `step()` call in this many.
const STEP_SAMPLE: u64 = 64;

pub struct PclPipeline {
    src: String,
    registry: Registry,
    steps: u64,
    /// Sink counts and state digest of a specialization-off run.
    reference: String,
    ckpt_file: std::path::PathBuf,
}

/// The LSS source: `stages` hierarchical `queue -> register` stages fed by
/// a `seq_source` whose start and step come from the seed.
pub fn lss_source(stages: usize, start: u64, step: u64) -> String {
    let last = stages - 1;
    format!(
        r#"
module stage {{
    port in rx;
    port out tx;
    instance q : queue {{ depth = 2; }};
    instance r : register;
    connect self.rx -> q.in;
    connect q.out -> r.in;
    connect r.out -> self.tx;
}}
module main {{
    instance gen : seq_source {{ start = {start}; step = {step}; }};
    instance split : tee;
    instance st[{stages}] : stage;
    instance k0 : sink;
    instance inv : inverter;
    instance dly : delay {{ latency = 2; }};
    instance k1 : sink;
    connect gen.out -> split.in;
    connect split.out -> st[0].rx;
    for i in 0..{last} {{
        connect st[i].tx -> st[i + 1].rx;
    }}
    connect st[{last}].tx -> k0.in;
    connect split.out -> inv.in;
    connect inv.out -> dly.in;
    connect dly.out -> k1.in;
}}
"#
    )
}

/// Sink counts, the final state hash and the snapshot size.
struct Outputs {
    digest: String,
    items: u64,
    snapshot: Snapshot,
}

fn outputs(sim: &Simulator, tr: Option<&Tracer>) -> Result<Outputs, String> {
    let mut s = String::new();
    let mut items = 0;
    for k in ["k0", "k1"] {
        let id = sim.instance_by_name(k).ok_or(format!("no instance {k}"))?;
        let received = sim.stats().counter(id, "received");
        items += received;
        s.push_str(&format!(
            "{k}.received={received};{k}.sum={};",
            sim.stats().counter(id, "sum")
        ));
    }
    let snapshot = span(tr, "core.snapshot.save", None, |_| sim.snapshot())
        .map_err(|e| format!("snapshot: {e}"))?;
    s.push_str(&format!("state={:08x}", snapshot.state_hash()));
    Ok(Outputs {
        digest: format!("{:08x}", crc32(s.as_bytes())),
        items,
        snapshot,
    })
}

impl PclPipeline {
    pub fn new(opts: &Opts) -> Result<PclPipeline, String> {
        let (stages, steps) = if opts.smoke { (8, 256) } else { (256, 16_384) };
        let start = derive_seed(opts.seed, 0) % (1 << 20);
        let step = 1 + derive_seed(opts.seed, 1) % 1000;
        let mut registry = Registry::new();
        liberty_pcl::register_all(&mut registry);
        let mut w = PclPipeline {
            src: lss_source(stages, start, step),
            registry,
            steps,
            reference: String::new(),
            ckpt_file: out_dir().join(format!("pcl_pipeline-seed{}.ckpt", opts.seed)),
        };
        let mut sim = w.build(None)?;
        sim.set_specialization(false);
        sim.run(steps).map_err(|e| format!("reference run: {e}"))?;
        w.reference = outputs(&sim, None)?.digest;
        Ok(w)
    }

    /// LSS text to a simulator ready to step, one span per layer.
    fn build(&self, tr: Option<&Tracer>) -> Result<Simulator, String> {
        let ast = span(tr, "lss.parse", None, |_| liberty_lss::parse(&self.src))
            .map_err(|e| format!("parse: {e}"))?;
        let (net, _) = span(tr, "lss.elaborate", None, |_| {
            liberty_lss::elaborate(&ast, &self.registry, "main", &Params::new())
        })
        .map_err(|e| format!("elaborate: {e}"))?;
        let (topo, modules) = span(tr, "core.topology.build", None, |_| net.into_parts());
        let topo = Arc::new(topo);
        span(tr, "core.compile.plan", None, |_| {
            topo.plan();
        });
        Ok(span(tr, "core.kernel.from_parts", None, |_| {
            Simulator::from_parts(topo, modules, SchedKind::Compiled)
        }))
    }

    /// Run the steps in chunks timed between control samples: one `run`
    /// call per chunk, or (traced) a `core.exec.run` span per chunk with
    /// one sampled `step` span in every [`STEP_SAMPLE`] steps.
    fn run(
        &self,
        sim: &mut Simulator,
        clock: &mut HostClock,
        tr: Option<&Tracer>,
    ) -> Result<Vec<(u64, Secs)>, SimError> {
        let mut chunks = Vec::new();
        let mut left = self.steps;
        while left > 0 {
            let n = CHUNK.min(left);
            let (ran, secs) = clock.time(|| match tr {
                None => sim.run(n),
                Some(t) => t.span("core.exec.run", None, |id| {
                    let mut k = n;
                    while k > 0 {
                        t.span("core.exec.step", Some(id), |_| sim.step())?;
                        let burst = (STEP_SAMPLE - 1).min(k - 1);
                        sim.run(burst)?;
                        k -= burst + 1;
                    }
                    Ok(())
                }),
            });
            ran?;
            chunks.push((n, secs));
            left -= n;
        }
        Ok(chunks)
    }
}

impl Workload for PclPipeline {
    const NAME: &'static str = "pcl_pipeline";

    fn op(&mut self, clock: &mut HostClock, tr: Option<&Tracer>) -> Result<Op, String> {
        let mut op = Op::default();
        let mut sim = None;
        for _ in 0..SETUP_BUILDS {
            let (built, secs) = clock.time(|| self.build(tr));
            op.setup.push(secs);
            sim = Some(built?);
        }
        let mut sim = sim.expect("at least one build");

        let allocs0 = trace::allocs();
        trace::count_allocs(tr.is_some());
        let ran = self.run(&mut sim, clock, tr);
        trace::count_allocs(false);
        op.run = ran.map_err(|e| format!("run: {e}"))?;
        let allocs = trace::allocs() - allocs0;
        op.wall = op.run_secs();
        op.wall += *op.setup.last().expect("at least one build");

        let out = outputs(&sim, tr)?;
        let m = sim.metrics();
        let summary = span(tr, "core.kernel.plan_summary", None, |_| sim.plan_summary())
            .ok_or("no plan summary on Compiled")?;
        op.ok = out.digest == self.reference;
        if !op.ok {
            eprintln!(
                "pcl_pipeline: digest {} != reference {}",
                out.digest, self.reference
            );
        }
        let bytes = out.snapshot.to_bytes().len();
        op.counts = BTreeMap::from([
            ("digest".to_owned(), out.digest.clone()),
            ("steps".to_owned(), m.steps.to_string()),
            ("reacts".to_owned(), m.reacts.to_string()),
            ("commits".to_owned(), m.commits.to_string()),
            ("defaults".to_owned(), m.defaults.to_string()),
            ("specialized".to_owned(), summary.specialized.to_string()),
            ("snapshot_bytes".to_owned(), bytes.to_string()),
        ]);
        op.steps = m.steps;
        op.items = out.items;
        op.runs = 1;

        if let Some(t) = tr {
            let steps = m.steps as f64;
            t.span("core.stats.report", None, |_| sim.report());
            let snap = &out.snapshot;
            t.span("core.snapshot.to_bytes", None, |_| snap.to_bytes());
            t.span("core.snapshot.write_file", None, |_| {
                snap.write_file(&self.ckpt_file)
            })
            .map_err(|e| format!("write checkpoint: {e}"))?;
            let mut restored = self.build(None)?;
            t.span("core.snapshot.restore", None, |_| restored.restore(snap))
                .map_err(|e| format!("restore: {e}"))?;
            let again = restored.snapshot().map_err(|e| format!("snapshot: {e}"))?;
            if again.state_hash() != snap.state_hash() {
                op.ok = false;
                eprintln!("pcl_pipeline: restored state differs from the saved one");
            }
            let _ = std::fs::remove_file(&self.ckpt_file);
            let topo = sim.topology();
            op.layer = BTreeMap::from([
                ("lss.instances", topo.instance_count() as f64),
                ("lss.edges", topo.edge_count() as f64),
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
                ("core.snapshot.bytes", bytes as f64),
            ]);
        }
        Ok(op)
    }
}
