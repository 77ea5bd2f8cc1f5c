//! Handler-body microbenchmark: per-react dispatch + contract-check cost,
//! `Module::react` over the signal store vs the same bodies on lanes (E19's
//! denominator and numerator).
//!
//! Each row is a homogeneous netlist dominated by one `pcl` template, run
//! under the serial compiled scheduler twice — specialization off (writes
//! through `ReactCtx` into the store, contracts re-checked on every
//! `send`/`recv`) and on (per-edge lanes, contracts verified once at
//! plan-compile time). The host-time delta divided by the react count
//! isolates what one handler invocation pays for dynamic dispatch and
//! per-call checking, template by template; the `inverter` row is the
//! minimal-handler control (engine floor), and subtracting it isolates
//! the handler *body* — the E11 gap this work closes.
//!
//! Flags (after `--`):
//!
//! ```text
//! --smoke        quick 200-cycle iterations — the CI guard
//! --cycles N     override measured cycles per run (default 2000)
//! --best-of N    keep the best of N runs per cell (default 3)
//! --stages N     chain depth / lane count per netlist (default 32)
//! ```

use liberty_bench::handler::{best_of, build_shape, CONTROL_SHAPE, SHAPES};
use liberty_bench::table;

fn main() {
    let mut cycles: u64 = 2000;
    let mut best: u32 = 3;
    let mut stages: usize = 32;
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
            "--stages" => {
                stages = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--stages N")
            }
            // Ignore the harness arguments `cargo bench` forwards.
            _ => {}
        }
    }

    let mut rows = Vec::new();
    let mut control: Option<(f64, f64)> = None;
    for &shape in SHAPES {
        // A dynamic straggler would dilute the cell into a blend of both
        // paths — refuse to report a muddled number.
        let s = build_shape(shape, stages)
            .plan_summary()
            .expect("compiled plan");
        assert_eq!(s.dynamic, 0, "{shape}: not fully specialized\n{s}");
        let d = best_of(best, shape, stages, false, cycles);
        let p = best_of(best, shape, stages, true, cycles);
        assert_eq!(d.reacts, p.reacts, "{shape}: react counts split");
        let (dyn_ns, spec_ns) = (d.ns_per_react(), p.ns_per_react());
        if shape == CONTROL_SHAPE {
            control = Some((dyn_ns, spec_ns));
        }
        rows.push(vec![
            shape.to_string(),
            d.reacts.to_string(),
            format!("{dyn_ns:.1}"),
            format!("{spec_ns:.1}"),
            format!("{:.2}x", dyn_ns / spec_ns),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "handler (Compiled)",
                "reacts",
                "dynamic ns/react",
                "specialized ns/react",
                "speedup",
            ],
            &rows
        )
    );
    if let Some((fd, fs)) = control {
        println!(
            "engine floor (minimal-handler control `{CONTROL_SHAPE}`): \
             dynamic {fd:.1} ns/react, specialized {fs:.1} ns/react"
        );
    }
}
