//! Host-speed normalization by an in-run control.
//!
//! The small shared hosts this benchmark runs on change speed by 20-60%
//! over seconds (other tenants' load), which swamps any change worth
//! measuring. A fixed control loop, timed right beside every timed chunk
//! of work, slows down with the host; dividing each chunk's time by the
//! control's speed at that moment cancels most of the drift. The control
//! is benchmark-owned code: heap churn (small `Vec`s and a `BTreeMap` node
//! per iteration) over a seeded sequence. Of the controls tried on a
//! 2-vCPU KVM guest, it tracked the simulators best: over 40 s of 20-30 ms
//! chunks, the standard deviation of 64-chunk medians (about 2 s each)
//! fell from 6.4% raw to 1.1% normalized on `pcl_pipeline` and from 14.4%
//! to 2.9% on `lir_sort` (a pure arithmetic loop left 3.9% and 10.2%; a
//! boxed-cell loop shaped like a simulation step 3.1% and 5.8%).
//!
//! `ckpt_sweep`, which writes files from two threads, tracks the control
//! less well: over ten seeds its run-to-run spread is 10-16%. Neither a
//! second control making the sweep's kind of file writes nor the control
//! sampled on both threads narrowed it in shorter trials.
//!
//! Normalized seconds are the seconds the work would take on a host
//! where the control runs [`CONTROL_NOMINAL`] iterations per second.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Control iterations per second that normalized times refer to: about
/// the control's median rate on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
pub const CONTROL_NOMINAL: f64 = 20_000_000.0;
/// Iterations per control sample (about 1.5 ms at the nominal rate).
const CONTROL_ITERS: u64 = 30_000;
/// Live vectors the control keeps.
const LIVE: usize = 32;

/// The control loop and the heap state it churns.
pub struct Control {
    live: Vec<Vec<u64>>,
    x: u64,
}

impl Control {
    pub fn new() -> Control {
        Control {
            live: Vec::with_capacity(LIVE + 1),
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Run one sample; returns the control's iterations per second.
    pub fn rate(&mut self) -> f64 {
        let t0 = Instant::now();
        for i in 0..CONTROL_ITERS {
            let x = &mut self.x;
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let mut v = Vec::with_capacity((*x % 8) as usize + 1);
            v.push(i);
            self.live.push(v);
            if self.live.len() > LIVE {
                let k = (*x >> 20) as usize % self.live.len();
                self.live.swap_remove(k);
            }
            let mut m = BTreeMap::new();
            m.insert(*x & 15, i);
            black_box(&m);
        }
        black_box(&self.live);
        CONTROL_ITERS as f64 / t0.elapsed().as_secs_f64()
    }
}

/// Seconds of one timed piece of work.
#[derive(Clone, Copy, Default, Debug)]
pub struct Secs {
    /// Wall-clock seconds.
    pub raw: f64,
    /// Seconds at the nominal host speed.
    pub norm: f64,
}

impl std::ops::AddAssign for Secs {
    fn add_assign(&mut self, o: Secs) {
        self.raw += o.raw;
        self.norm += o.norm;
    }
}

/// Times work between control samples: each piece is normalized by the
/// mean of the control rates measured just before and just after it.
pub struct HostClock {
    control: Control,
    last: f64,
}

impl HostClock {
    pub fn new() -> HostClock {
        let mut control = Control::new();
        control.rate(); // fill the live set
        let last = control.rate();
        HostClock { control, last }
    }

    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Secs) {
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        // The control's allocations are not the measured work's, and
        // counting them would slow the control.
        let counting = crate::trace::count_allocs(false);
        let now = self.control.rate();
        crate::trace::count_allocs(counting);
        let norm = raw * (self.last + now) / 2.0 / CONTROL_NOMINAL;
        self.last = now;
        (out, Secs { raw, norm })
    }
}
