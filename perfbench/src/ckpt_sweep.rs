//! `ckpt_sweep`: a supervised replica sweep (`run_sweep`) of an
//! arbiter/queue/delay LSS spec over a `depth` grid times seeds, on two
//! lanes. Every replica auto-checkpoints to disk and streams canonical
//! JSONL, so the probe-attached, despecialized exec path runs beside file
//! writes; each replica pays one parse/elaborate and one `TopoCache`
//! lookup.

use crate::control::{HostClock, Secs};
use crate::driver::{Op, Workload};
use crate::measure;
use crate::trace::{self, span, Tracer};
use crate::{out_dir, Opts};
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_ensemble::{
    derive_seed, run_sweep, ParamSweep, ReplicaFactory, ReplicaSpec, SweepConfig, TopoCache,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sweep lanes: one per vCPU of the 2-vCPU hosts the sizes were set on.
const LANES: usize = 2;

pub struct CkptSweep {
    src: String,
    registry: Registry,
    config: SweepConfig,
    dir: PathBuf,
    /// Per replica: final state hash and tokens delivered, from a plain
    /// (unprobed, specialized, checkpoint-free) run of the same build.
    reference: Vec<(u32, u64)>,
    /// `metrics.csv` of the first sweep: every later one must match it.
    first_csv: Option<Vec<u8>>,
}

/// The swept spec: two seeded sequence sources through a round-robin
/// arbiter into a queue of the swept `depth`, a delay and a sink.
pub fn lss_source(seed: u64) -> String {
    let start = |i| derive_seed(seed, i) % (1 << 20);
    let step = |i| 1 + derive_seed(seed, i) % 1000;
    format!(
        r#"
module main {{
    param depth = 4;
    instance a : seq_source {{ start = {}; step = {}; }};
    instance b : seq_source {{ start = {}; step = {}; }};
    instance arb : arbiter {{ policy = "round_robin"; }};
    instance q : queue {{ depth = depth; }};
    instance d : delay {{ latency = 2; }};
    instance dst : sink;
    connect a.out -> arb.in;
    connect b.out -> arb.in;
    connect arb.out -> q.in;
    connect q.out -> d.in;
    connect d.out -> dst.in;
}}
"#,
        start(0),
        step(1),
        start(2),
        step(3)
    )
}

/// The benchmark's replica factory: LSS text to a simulator over the
/// parameter point's shared topology, timing each build.
struct Factory<'a> {
    src: &'a str,
    registry: &'a Registry,
    cache: TopoCache,
    tracer: Option<&'a Tracer>,
    /// Span id of the enclosing `run_sweep` call.
    parent: AtomicU32,
    builds_s: Mutex<Vec<f64>>,
    points_seen: Mutex<BTreeSet<String>>,
}

impl<'a> Factory<'a> {
    fn new(src: &'a str, registry: &'a Registry, tracer: Option<&'a Tracer>) -> Self {
        Factory {
            src,
            registry,
            cache: TopoCache::new(),
            tracer,
            parent: AtomicU32::new(0),
            builds_s: Mutex::new(Vec::new()),
            points_seen: Mutex::new(BTreeSet::new()),
        }
    }

    fn try_build(&self, spec: &ReplicaSpec, parent: Option<u32>) -> Result<Simulator, SimError> {
        let tr = self.tracer;
        let ast = span(tr, "lss.parse", parent, |_| liberty_lss::parse(self.src))?;
        let (net, _) = span(tr, "lss.elaborate", parent, |_| {
            liberty_lss::elaborate(&ast, self.registry, "main", &spec.params(&Params::new()))
        })?;
        let (topo, modules) = span(tr, "core.topology.build", parent, |_| net.into_parts());
        let key = spec.point_label();
        let shared = span(tr, "ensemble.topo_cache", parent, |_| {
            self.cache.unify(&key, topo)
        });
        self.points_seen.lock().expect("points lock").insert(key);
        span(tr, "core.compile.plan", parent, |_| {
            shared.plan();
        });
        Ok(span(tr, "core.kernel.from_parts", parent, |_| {
            Simulator::from_parts(Arc::clone(&shared), modules, SchedKind::Compiled)
        }))
    }
}

impl ReplicaFactory for Factory<'_> {
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        let parent = self.tracer.map(|_| self.parent.load(Ordering::Relaxed));
        let t0 = Instant::now();
        let sim = span(self.tracer, "ensemble.build", parent, |id| {
            self.try_build(spec, id)
        });
        self.builds_s
            .lock()
            .expect("build times lock")
            .push(t0.elapsed().as_secs_f64());
        sim
    }
}

/// Files of a finished sweep directory, summed per kind.
#[derive(Default)]
struct DiskUse {
    jsonl_bytes: u64,
    ckpt_files: u64,
    ckpt_bytes: u64,
    /// Newest checkpoint of each replica directory.
    latest: Vec<PathBuf>,
}

fn disk_use(dir: &Path) -> std::io::Result<DiskUse> {
    let mut u = DiskUse::default();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.ends_with(".jsonl") {
            u.jsonl_bytes += std::fs::metadata(&path)?.len();
        } else if name.ends_with(".ckpt") && path.is_dir() {
            let mut newest: Option<(u64, PathBuf)> = None;
            for f in std::fs::read_dir(&path)? {
                let f = f?.path();
                let step = f
                    .file_name()
                    .and_then(|n| n.to_str())
                    .and_then(|n| n.strip_prefix("step-")?.strip_suffix(".ckpt"))
                    .and_then(|n| n.parse::<u64>().ok());
                if let Some(step) = step {
                    u.ckpt_files += 1;
                    u.ckpt_bytes += std::fs::metadata(&f)?.len();
                    if newest.as_ref().is_none_or(|(s, _)| step > *s) {
                        newest = Some((step, f));
                    }
                }
            }
            u.latest.extend(newest.map(|(_, f)| f));
        }
    }
    Ok(u)
}

impl CkptSweep {
    pub fn new(opts: &Opts) -> Result<CkptSweep, String> {
        let (sweep, seeds, cycles, every) = if opts.smoke {
            ("depth=2..3", 2, 512, 128)
        } else {
            ("depth=2..5", 4, 2048, 256)
        };
        let mut config = SweepConfig::new(cycles);
        config.sweep = Some(ParamSweep::parse(sweep)?);
        config.seeds = seeds;
        config.base_seed = derive_seed(opts.seed, 4);
        config.threads = LANES;
        config.checkpoint_every = every;
        let mut registry = Registry::new();
        liberty_pcl::register_all(&mut registry);
        let src = lss_source(opts.seed);
        let factory = Factory::new(&src, &registry, None);
        let mut reference = Vec::new();
        for spec in config.replicas() {
            let mut sim = factory
                .build(&spec)
                .map_err(|e| format!("reference build: {e}"))?;
            sim.run(cycles).map_err(|e| format!("reference run: {e}"))?;
            let dst = sim.instance_by_name("dst").ok_or("no instance dst")?;
            let hash = sim
                .snapshot()
                .map_err(|e| format!("snapshot: {e}"))?
                .state_hash();
            reference.push((hash, sim.stats().counter(dst, "received")));
        }
        Ok(CkptSweep {
            src,
            registry,
            config,
            dir: out_dir().join(format!("sweep-{}", std::process::id())),
            reference,
            first_csv: None,
        })
    }

    /// Check the aggregate CSV: every replica `done` with the reference
    /// state hash, and the bytes equal to the first sweep's.
    fn check_csv(&mut self, csv: &[u8]) -> bool {
        let text = String::from_utf8_lossy(csv);
        let rows: Vec<Vec<&str>> = text
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        let mut ok = rows.len() == self.reference.len();
        for (row, (hash, _)) in rows.iter().zip(&self.reference) {
            let expect = format!("{hash:08x}");
            if row.get(3) != Some(&"completed") || row.get(6) != Some(&expect.as_str()) {
                eprintln!("ckpt_sweep: replica row {row:?} does not match state {expect}");
                ok = false;
            }
        }
        let first = self.first_csv.get_or_insert_with(|| csv.to_vec());
        ok && first == csv
    }
}

impl Workload for CkptSweep {
    const NAME: &'static str = "ckpt_sweep";

    fn op(&mut self, clock: &mut HostClock, tr: Option<&Tracer>) -> Result<Op, String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let factory = Factory::new(&self.src, &self.registry, tr);
        let allocs0 = trace::allocs();
        trace::count_allocs(tr.is_some());
        let (report, sweep) = clock.time(|| {
            span(tr, "ensemble.run_sweep", None, |id| {
                if let Some(id) = id {
                    factory.parent.store(id, Ordering::Relaxed);
                }
                run_sweep(&self.dir, &self.config, &CancelToken::new(), &factory)
            })
        });
        trace::count_allocs(false);
        let report = report.map_err(|e| format!("sweep: {e}"))?;
        let allocs = trace::allocs() - allocs0;

        let points = factory.points_seen.into_inner().expect("points lock").len();
        // Builds run on the lanes, inside the sweep: they share its
        // normalization factor.
        let scale = sweep.norm / sweep.raw;
        let setup = factory
            .builds_s
            .into_inner()
            .expect("build times lock")
            .into_iter()
            .map(|raw| Secs {
                raw,
                norm: raw * scale,
            })
            .collect();
        let csv = std::fs::read(self.dir.join("metrics.csv")).map_err(|e| format!("csv: {e}"))?;
        let mut op = Op {
            ok: report.done == report.total && self.check_csv(&csv),
            setup,
            wall: sweep,
            ..Op::default()
        };
        let disk = disk_use(&self.dir).map_err(|e| format!("sweep directory: {e}"))?;
        let mut engine = EngineMetrics::default();
        for path in &disk.latest {
            let m = Snapshot::read_file(path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .metrics();
            engine.steps += m.steps;
            engine.reacts += m.reacts;
            engine.commits += m.commits;
            engine.defaults += m.defaults;
        }
        let replicas = report.total as u64;
        let steps = replicas * self.config.cycles;
        let items: u64 = self.reference.iter().map(|r| r.1).sum();
        op.counts = BTreeMap::from([
            ("csv_crc".to_owned(), format!("{:08x}", crc32(&csv))),
            ("replicas_done".to_owned(), report.done.to_string()),
            ("jsonl_bytes".to_owned(), disk.jsonl_bytes.to_string()),
            ("ckpt_files".to_owned(), disk.ckpt_files.to_string()),
            ("ckpt_bytes".to_owned(), disk.ckpt_bytes.to_string()),
            ("ckpt_steps".to_owned(), engine.steps.to_string()),
            ("reacts".to_owned(), engine.reacts.to_string()),
            ("commits".to_owned(), engine.commits.to_string()),
            ("defaults".to_owned(), engine.defaults.to_string()),
        ]);
        op.run = vec![(steps, sweep)];
        op.steps = steps;
        op.items = items;
        op.runs = replicas;

        if let Some(t) = tr {
            let runs: Vec<&RunReport> = report
                .replicas
                .iter()
                .filter_map(|r| r.report.as_ref())
                .collect();
            let run_s: Vec<f64> = runs.iter().map(|r| r.elapsed.as_secs_f64()).collect();
            let step_ns: Vec<f64> = runs
                .iter()
                .map(|r| r.elapsed.as_nanos() as f64 / r.steps_executed.max(1) as f64)
                .collect();
            let build_s: f64 = op.setup.iter().map(|s| s.raw).sum();
            let lanes = self.config.threads.min(report.total) as f64;
            let manifest = std::fs::read_to_string(self.dir.join(liberty_ensemble::MANIFEST_FILE))
                .map_err(|e| format!("manifest: {e}"))?;
            let retries: u64 = runs.iter().flat_map(|r| r.retries.values()).sum();
            let quarantines: usize = runs.iter().map(|r| r.quarantined.len()).sum();

            // The resume path, from outside: rebuild replica 0 and restore
            // its newest checkpoint.
            let first = self.config.replicas().remove(0);
            let newest = disk.latest.first().ok_or("no checkpoint written")?;
            let snap = t
                .span("core.snapshot.read_file", None, |_| {
                    Snapshot::read_file(newest)
                })
                .map_err(|e| format!("read checkpoint: {e}"))?;
            let mut sim = Factory::new(&self.src, &self.registry, None)
                .build(&first)
                .map_err(|e| format!("build: {e}"))?;
            t.span("core.snapshot.restore", None, |_| sim.restore(&snap))
                .map_err(|e| format!("restore: {e}"))?;
            let again = t
                .span("core.snapshot.save", None, |_| sim.snapshot())
                .map_err(|e| format!("snapshot: {e}"))?;
            if again.state_hash() != snap.state_hash() {
                op.ok = false;
                eprintln!("ckpt_sweep: restored state differs from the checkpoint");
            }
            let bytes = t
                .span("core.snapshot.to_bytes", None, |_| again.to_bytes())
                .len();
            let topo = sim.topology();
            let es = engine.steps.max(1) as f64;
            // The newest checkpoints cover `engine.steps` of the steps run.
            let reacts_total = (engine.reacts as f64 / es * steps as f64).max(1.0);
            op.layer = BTreeMap::from([
                ("lss.instances", topo.instance_count() as f64),
                ("lss.edges", topo.edge_count() as f64),
                ("core.compile.plan_nodes", topo.plan().nodes().len() as f64),
                ("core.exec.ns_per_step_p50", measure::median(&step_ns)),
                (
                    "core.exec.ns_per_step_p99",
                    measure::quantile(&step_ns, 0.99),
                ),
                ("core.exec.reacts_per_step", engine.reacts as f64 / es),
                ("core.exec.commits_per_step", engine.commits as f64 / es),
                ("core.exec.defaults_per_step", engine.defaults as f64 / es),
                (
                    "core.exec.ns_per_react",
                    run_s.iter().sum::<f64>() * 1e9 / reacts_total,
                ),
                ("core.exec.allocs_per_step", allocs as f64 / steps as f64),
                ("core.snapshot.bytes", bytes as f64),
                (
                    "core.snapshot.files_per_replica",
                    disk.ckpt_files as f64 / replicas as f64,
                ),
                (
                    "core.snapshot.disk_bytes_per_replica",
                    disk.ckpt_bytes as f64 / replicas as f64,
                ),
                (
                    "core.trace.jsonl_bytes_per_step",
                    disk.jsonl_bytes as f64 / steps as f64,
                ),
                ("core.supervisor.retries", retries as f64),
                ("core.supervisor.quarantines", quarantines as f64),
                (
                    "ensemble.topo_cache_hit_frac",
                    1.0 - points as f64 / replicas as f64,
                ),
                ("ensemble.replica_s_p50", measure::median(&run_s)),
                ("ensemble.replica_s_max", measure::quantile(&run_s, 1.0)),
                (
                    "ensemble.lane_busy_frac",
                    (run_s.iter().sum::<f64>() + build_s) / (lanes * sweep.raw),
                ),
                ("ensemble.manifest_records", manifest.lines().count() as f64),
            ]);
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(op)
    }
}

impl Drop for CkptSweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
