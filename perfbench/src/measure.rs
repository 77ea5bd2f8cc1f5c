//! Metric names, sample statistics and the result line.

use crate::control::Secs;
use crate::driver::Op;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (printed with `--trace 0`), name and unit. Every
/// workload prints every one of them, and none of them is ever 0 on a
/// healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("steps_per_s", "1/s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (printed with `--trace 1`), name and unit. A metric
/// of a layer that a workload does not exercise reads 0 on it; the
/// README's layer table says which apply where.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lss.parse_us", "us"),
    ("lss.elaborate_us", "us"),
    ("lss.instances", "count"),
    ("lss.edges", "count"),
    ("core.topology.build_us", "us"),
    ("core.compile.plan_us", "us"),
    ("core.compile.plan_nodes", "count"),
    ("core.kernel.construct_us", "us"),
    ("core.kernel.specialized_frac", "frac"),
    ("core.kernel.fast_edge_frac", "frac"),
    ("core.exec.ns_per_step_p50", "ns"),
    ("core.exec.ns_per_step_p99", "ns"),
    ("core.exec.reacts_per_step", "count"),
    ("core.exec.commits_per_step", "count"),
    ("core.exec.defaults_per_step", "count"),
    ("core.exec.ns_per_react", "ns"),
    ("core.exec.allocs_per_step", "count"),
    ("core.snapshot.save_us", "us"),
    ("core.snapshot.restore_us", "us"),
    ("core.snapshot.bytes", "B"),
    ("core.snapshot.files_per_replica", "count"),
    ("core.snapshot.disk_bytes_per_replica", "B"),
    ("core.trace.jsonl_bytes_per_step", "B"),
    ("core.supervisor.retries", "count"),
    ("core.supervisor.quarantines", "count"),
    ("core.stats.report_us", "us"),
    ("upl.cycles", "count"),
    ("upl.retired", "count"),
    ("upl.ipc", "instr/cycle"),
    ("upl.branches", "count"),
    ("upl.mispredicts", "count"),
    ("upl.dcache_read_hits", "count"),
    ("upl.dcache_read_misses", "count"),
    ("upl.dcache_write_hits", "count"),
    ("upl.dcache_write_misses", "count"),
    ("ensemble.build_us", "us"),
    ("ensemble.topo_cache_hit_frac", "frac"),
    ("ensemble.replica_s_p50", "s"),
    ("ensemble.replica_s_max", "s"),
    ("ensemble.lane_busy_frac", "frac"),
    ("ensemble.manifest_records", "count"),
    ("lss.self_frac", "frac"),
    ("upl.self_frac", "frac"),
    ("core.topology.self_frac", "frac"),
    ("core.compile.self_frac", "frac"),
    ("core.kernel.self_frac", "frac"),
    ("core.exec.self_frac", "frac"),
    ("core.snapshot.self_frac", "frac"),
    ("core.stats.self_frac", "frac"),
    ("ensemble.self_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// The layers whose self time the traced run reports, as span-name
/// prefixes (a span `core.exec.step` belongs to layer `core.exec`).
pub const LAYERS: &[&str] = &[
    "lss",
    "upl",
    "core.topology",
    "core.compile",
    "core.kernel",
    "core.exec",
    "core.snapshot",
    "core.stats",
    "ensemble",
];

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Rates of the timed operations of one run.
#[derive(Default)]
pub struct Samples {
    /// Set-up times (input to a simulator ready to step), seconds.
    pub setup_s: Vec<f64>,
    /// Simulated steps per host second, one per timed chunk.
    pub steps_per_s: Vec<f64>,
    /// Completed work items per host second, one per timed chunk.
    pub items_per_s: Vec<f64>,
    /// Completed runs (or replicas) per wall second, one per operation.
    pub runs_per_s: Vec<f64>,
}

impl Samples {
    /// Add one operation's rates, reading its times with `secs` (raw or
    /// normalized).
    pub fn push(&mut self, op: &Op, secs: impl Fn(&Secs) -> f64) {
        self.setup_s.extend(op.setup.iter().map(&secs));
        let items_per_step = op.items as f64 / op.steps.max(1) as f64;
        for (steps, t) in &op.run {
            let rate = *steps as f64 / secs(t);
            self.steps_per_s.push(rate);
            self.items_per_s.push(rate * items_per_step);
        }
        self.runs_per_s.push(op.runs as f64 / secs(&op.wall));
    }
}

/// Operations tried and failed over a whole run, warm-up included.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is false on an error or a mismatch.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The end-to-end metric values of a run.
pub fn end_to_end(s: &Samples, tally: Tally) -> BTreeMap<&'static str, f64> {
    let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    BTreeMap::from([
        ("steps_per_s", median(&s.steps_per_s)),
        ("setup_s", median(&s.setup_s)),
        ("items_per_s", median(&s.items_per_s)),
        ("runs_per_s", median(&s.runs_per_s)),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_frac", ok),
    ])
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Render `{"name": {"value": v, "unit": u}, ...}` for the metrics of
/// `table`, taking each value from `values` (absent ones read 0).
pub fn metrics_json(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

/// Render a JSON object of exact counts (digests included as strings).
pub fn counts_json(counts: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.self_frac");
            assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        }
    }
}
