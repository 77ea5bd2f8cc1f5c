//! Static-schedule compilation throughput (experiment E18): all four
//! schedulers on the three kernel workloads.
//!
//! The table answers the headline question: how much does compiling
//! the port-connection graph into a fixed SCC-condensed plan buy over
//! the dynamic worklist schedulers? The `vs best dynamic` column is
//! `Compiled` steps/sec divided by the better of `Dynamic` and `Static`
//! on the same workload (the E18 acceptance bar is 1.5x on the acyclic
//! workloads).
//!
//! Flags (after `--`):
//!
//! ```text
//! --smoke       quick 200-cycle iterations — the CI guard
//! --cycles N    override measured cycles per run
//! --best-of N   keep the best of N runs per cell (default 3)
//! ```

use liberty_bench::kernel::{run_workload, KernelRun, WORKLOADS};
use liberty_bench::table;
use liberty_core::prelude::SchedKind;

const ALL_SCHEDS: &[SchedKind] = &[
    SchedKind::Sweep,
    SchedKind::Dynamic,
    SchedKind::Static,
    SchedKind::Compiled,
];

/// Best (least-interfered) of `n` measurements.
fn best_of(n: u32, workload: &'static str, sched: SchedKind, cycles: u64) -> KernelRun {
    (0..n.max(1))
        .map(|_| run_workload(workload, sched, cycles))
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("n >= 1")
}

fn main() {
    let mut cycles: u64 = 2000;
    let mut best: u32 = 3;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cycles = 200,
            "--cycles" => {
                cycles = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--cycles N")
            }
            "--best-of" => {
                best = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--best-of N")
            }
            // Ignore the harness arguments `cargo bench` forwards.
            _ => {}
        }
    }

    // --- All four schedulers on every kernel workload ---
    let mut rows = Vec::new();
    for &w in WORKLOADS {
        let runs: Vec<KernelRun> = ALL_SCHEDS
            .iter()
            .map(|&s| best_of(best, w, s, cycles))
            .collect();
        let best_dynamic = runs
            .iter()
            .filter(|r| matches!(r.sched, SchedKind::Dynamic | SchedKind::Static))
            .map(|r| r.steps_per_sec())
            .fold(f64::MIN, f64::max);
        for r in &runs {
            let speedup = if r.sched == SchedKind::Compiled {
                format!("{:.2}x", r.steps_per_sec() / best_dynamic)
            } else {
                String::new()
            };
            rows.push(vec![
                r.workload.to_string(),
                format!("{:?}", r.sched),
                format!("{:.0}", r.steps_per_sec()),
                speedup,
            ]);
        }
    }
    println!(
        "{}",
        table(
            &["workload", "scheduler", "steps/sec", "vs best dynamic"],
            &rows
        )
    );
}
