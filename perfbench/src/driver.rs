//! The closed loop shared by every workload: warm up, repeat the
//! workload's operation until the time is up, check each operation, and
//! reduce the samples to the printed metrics.

use crate::control::{HostClock, Secs};
use crate::measure::{self, Samples, Tally, END_TO_END, LAYERS, PER_LAYER};
use crate::trace::{self, Tracer};
use crate::{out_dir, Opts};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One workload: a repeatable, self-checking operation.
pub trait Workload {
    const NAME: &'static str;
    /// Run one operation, timing its work with `clock`; `tr` is set on
    /// traced operations.
    fn op(&mut self, clock: &mut HostClock, tr: Option<&Tracer>) -> Result<Op, String>;
}

/// What one operation measured and found.
#[derive(Default)]
pub struct Op {
    /// Set-up time of each simulator this operation built.
    pub setup: Vec<Secs>,
    /// Timed chunks of the step loop (the whole sweep, on `ckpt_sweep`):
    /// simulated steps and time of each.
    pub run: Vec<(u64, Secs)>,
    /// Time of one complete run, set-up included.
    pub wall: Secs,
    /// Simulated steps, work items and runs (or replicas) completed.
    pub steps: u64,
    pub items: u64,
    pub runs: u64,
    /// False when an output differed from its reference.
    pub ok: bool,
    /// Work counts and correctness digests that must repeat exactly from
    /// operation to operation.
    pub counts: BTreeMap<String, String>,
    /// Per-layer values measured by a traced operation.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Op {
    /// Total time of the step loop.
    pub fn run_secs(&self) -> Secs {
        let mut t = Secs::default();
        for (_, s) in &self.run {
            t += *s;
        }
        t
    }
}

/// The two lines the benchmark prints.
pub struct Report {
    /// Exact counts and digests of the run (the self-test compares them).
    pub detail: String,
    /// The result line.
    pub result: String,
    pub failed: u64,
}

/// Timed operations a run makes at least, whatever `--seconds` says
/// (more in a traced run, which alternates plain and traced ones).
const MIN_OPS: u32 = 3;
const MIN_OPS_TRACED: u32 = 4;

/// The static name of a per-layer metric.
pub fn layer_metric(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
        .0
}

pub fn drive<W: Workload>(opts: &Opts, mut w: W) -> Result<Report, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("output directory: {e}"))?;
    let tracer = Tracer::new(W::NAME);
    let min_ops = match (opts.smoke, opts.trace) {
        (true, _) => 2,
        (false, false) => MIN_OPS,
        (false, true) => MIN_OPS_TRACED,
    };
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut plain, mut traced, mut raw) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut clock = HostClock::new();
    let mut layer_vals: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first_counts: Option<BTreeMap<String, String>> = None;
    // Operation 0 warms caches and lazy set-up: checked, never timed.
    let mut rep = 0u32;
    loop {
        let timed = rep.saturating_sub(1);
        let time_up = opts.smoke || start.elapsed() >= budget;
        if rep > 0 && timed >= min_ops && time_up {
            break;
        }
        let traced_op = opts.trace && rep % 2 == 1;
        tracer.set_rep(rep);
        let ok = match w.op(&mut clock, traced_op.then_some(&tracer)) {
            Ok(op) => {
                let first = first_counts.get_or_insert_with(|| op.counts.clone());
                let same = *first == op.counts;
                if !same {
                    eprintln!("perfbench: operation {rep}: counts differ from operation 0");
                    for (k, v) in &op.counts {
                        if first.get(k) != Some(v) {
                            eprintln!("  {k}: {:?} != {v}", first.get(k));
                        }
                    }
                }
                if rep > 0 {
                    if traced_op {
                        traced.push(&op, |t| t.norm);
                        for (k, v) in op.layer {
                            layer_vals.entry(k).or_default().push(v);
                        }
                    } else {
                        plain.push(&op, |t| t.norm);
                        raw.push(&op, |t| t.raw);
                    }
                }
                op.ok && same
            }
            Err(e) => {
                eprintln!("perfbench: operation {rep} failed: {e}");
                false
            }
        };
        tally.record(ok);
        rep += 1;
    }

    let metrics = if opts.trace {
        let spans_file = out_dir().join(format!("spans-{}-seed{}.jsonl", W::NAME, opts.seed));
        tracer
            .write(&spans_file)
            .map_err(|e| format!("write {}: {e}", spans_file.display()))?;
        let mut vals = span_metrics(&tracer.spans());
        let overhead =
            1.0 - measure::median(&traced.steps_per_s) / measure::median(&plain.steps_per_s);
        vals.insert(layer_metric("trace.overhead_frac"), overhead);
        for (k, vs) in &layer_vals {
            vals.insert(layer_metric(k), measure::median(vs));
        }
        measure::metrics_json(PER_LAYER, &vals)
    } else {
        measure::metrics_json(END_TO_END, &measure::end_to_end(&plain, tally))
    };
    let counts = first_counts.unwrap_or_default();
    Ok(Report {
        detail: format!(
            "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \
             \"operations\": {rep}, \"counts\": {}, \"raw\": {}}}}}",
            W::NAME,
            opts.seed,
            u8::from(opts.trace),
            opts.smoke,
            measure::counts_json(&counts),
            measure::metrics_json(&END_TO_END[..4], &measure::end_to_end(&raw, tally)),
        ),
        result: format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            tally.failed == 0,
            tally.attempted,
            tally.failed,
        ),
        failed: tally.failed,
    })
}

/// The per-layer metrics that come straight from the spans: call
/// latencies (medians), sampled step latencies, and self time by layer.
fn span_metrics(spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    let med_us = |name: &str| measure::median(&trace::durations_ns(spans, name)) / 1e3;
    let steps = trace::durations_ns(spans, "core.exec.step");
    let mut vals = BTreeMap::from([
        ("lss.parse_us", med_us("lss.parse")),
        ("lss.elaborate_us", med_us("lss.elaborate")),
        ("core.topology.build_us", med_us("core.topology.build")),
        ("core.compile.plan_us", med_us("core.compile.plan")),
        ("core.kernel.construct_us", med_us("core.kernel.from_parts")),
        ("core.snapshot.save_us", med_us("core.snapshot.save")),
        ("core.snapshot.restore_us", med_us("core.snapshot.restore")),
        ("core.stats.report_us", med_us("core.stats.report")),
        ("ensemble.build_us", med_us("ensemble.build")),
        ("core.exec.ns_per_step_p50", measure::median(&steps)),
        ("core.exec.ns_per_step_p99", measure::quantile(&steps, 0.99)),
        ("trace.spans", spans.len() as f64),
    ]);
    let self_ns = trace::self_time_by_layer(spans);
    let total = self_ns.values().sum::<u64>().max(1) as f64;
    for layer in LAYERS {
        let v = self_ns.get(layer).copied().unwrap_or(0) as f64 / total;
        vals.insert(layer_metric(&format!("{layer}.self_frac")), v);
    }
    vals
}
