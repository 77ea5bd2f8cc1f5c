//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pcl_pipeline|lir_sort|ckpt_sweep> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each workload is one closed-loop client: it repeats one operation (a
//! whole build-and-run, or a whole sweep) until `--seconds` have passed,
//! checks every operation's outputs, and prints the metrics as the last
//! line of standard output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` alternates plain and traced operations and prints the
//! per-layer metrics, including the tracing overhead. See `README.md`.

mod ckpt_sweep;
mod control;
mod driver;
mod lir_sort;
mod measure;
mod pcl_pipeline;
mod trace;

use std::path::PathBuf;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Command-line options.
#[derive(Clone, Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes and two operations: a quick check that everything runs.
    pub smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <pcl_pipeline|lir_sort|ckpt_sweep> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = val()?.clone(),
            "--seed" => o.seed = val()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                o.seconds = val()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => o.smoke = true,
            _ => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(o)
}

/// Where the benchmark writes its files (spans, sweep directories): a
/// directory of its own package, inside the checkout it was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match opts.workload.as_str() {
        "pcl_pipeline" => {
            pcl_pipeline::PclPipeline::new(&opts).and_then(|w| driver::drive(&opts, w))
        }
        "lir_sort" => lir_sort::LirSort::new(&opts).and_then(|w| driver::drive(&opts, w)),
        "ckpt_sweep" => ckpt_sweep::CkptSweep::new(&opts).and_then(|w| driver::drive(&opts, w)),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            println!("{}", report.detail);
            println!("{}", report.result);
            if report.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
