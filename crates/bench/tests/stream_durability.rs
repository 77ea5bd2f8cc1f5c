//! The durability ordering of a buffered event stream, checked without
//! depending on timing.
//!
//! A replica streams canonical JSONL through a `BufWriter` and writes a
//! checkpoint file every few steps. Resume trims the stream to the
//! events strictly before the newest checkpoint's step and appends the
//! replay, so the stream on disk must never lag a checkpoint on disk.
//! The kernel guarantees this by flushing the probe before it writes
//! each checkpoint file.
//!
//! The real `kill -9` test in `ensemble_resume.rs` can only hit that
//! window by chance. Here the window is opened on purpose. After every
//! step that lands a checkpoint, the stream file is read from disk while
//! the probe and its buffer are still live, which is exactly what a
//! crash at that moment leaves behind. It must hold exactly the
//! uninterrupted control stream's lines with `now` below the checkpoint
//! step.

use liberty_bench::ensemble::ENSEMBLE_SPEC;
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

const STEPS: u64 = 200;
const EVERY: u64 = 16;
/// Larger than a checkpoint interval's worth of events, so without the
/// flush nothing of an interval would reach the file by itself.
const BUF: usize = 64 * 1024;

fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lse-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("temp dir");
    d
}

/// Builds the probe under test around the buffered stream file.
type MakeProbe = fn(BufWriter<File>) -> Box<dyn Probe>;

fn jsonl(out: BufWriter<File>) -> Box<dyn Probe> {
    Box::new(JsonlProbe::new(out).canonical())
}

fn jsonl_in_fanout(out: BufWriter<File>) -> Box<dyn Probe> {
    let mut m = MultiProbe::new();
    // The stream is not the first sink: the flush must reach every one.
    m.push(Box::new(CountingProbe::new().0));
    m.push(jsonl(out));
    Box::new(m)
}

/// A simulator streaming into `dir/stream.jsonl` and checkpointing into
/// `dir/ckpt` every [`EVERY`] steps.
fn armed(dir: &Path, make: MakeProbe) -> Simulator {
    let (mut sim, _) = build_simulator(
        ENSEMBLE_SPEC,
        &full_registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .expect("fixture builds");
    let file = File::create(dir.join("stream.jsonl")).expect("stream file");
    sim.set_probe(make(BufWriter::with_capacity(BUF, file)));
    sim.set_checkpoint_dir(dir.join("ckpt"));
    sim.set_auto_checkpoint(EVERY);
    sim
}

/// The `"now":N` field of an event line; `None` for the `attach`
/// header.
fn line_now(line: &str) -> Option<u64> {
    let at = line.find("\"now\":")? + "\"now\":".len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The control's lines with `now` below `step` (plus the header).
fn before(control: &str, step: u64) -> String {
    control
        .split_inclusive('\n')
        .filter(|l| line_now(l).is_none_or(|n| n < step))
        .collect()
}

fn check_stream_never_lags_a_checkpoint(tag: &str, make: MakeProbe) {
    let control_dir = tdir(&format!("{tag}-control"));
    let mut control = armed(&control_dir, make);
    control.run(STEPS).expect("control runs");
    control
        .take_probe()
        .expect("probe attached")
        .flush()
        .expect("flush control stream");
    let control =
        std::fs::read_to_string(control_dir.join("stream.jsonl")).expect("control stream");

    let dir = tdir(tag);
    let mut sim = armed(&dir, make);
    let mut landed = 0;
    while sim.now() < STEPS {
        sim.run(1).expect("step");
        let step = sim.now();
        if !dir.join(format!("ckpt/step-{step:08}.ckpt")).exists() {
            continue;
        }
        landed += 1;
        // No flush, no drop: this is what a crash right now would leave.
        let on_disk = std::fs::read_to_string(dir.join("stream.jsonl")).expect("stream");
        let want = before(&control, step);
        assert!(
            on_disk == want,
            "{tag}: when checkpoint {step} landed the stream on disk held {} bytes, \
             not the control's {} bytes before step {step}",
            on_disk.len(),
            want.len()
        );
    }
    assert_eq!(landed, STEPS / EVERY, "{tag}: checkpoints landed");
    drop(sim);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn buffered_jsonl_stream_is_on_disk_before_each_checkpoint() {
    check_stream_never_lags_a_checkpoint("jsonl", jsonl);
}

#[test]
fn multi_probe_forwards_the_flush_before_each_checkpoint() {
    check_stream_never_lags_a_checkpoint("multi", jsonl_in_fanout);
}
