//! Host speed, sampled alongside the work.
//!
//! The benchmark runs on shared virtual CPUs whose speed swings by up to
//! 1.7x for tens of seconds at a time as other tenants load the host. A
//! fixed reference kernel — benchmark code the program never touches — is
//! timed between instances, and every end-to-end time is scaled by
//! `REFERENCE_S / kernel time`: the time the work would have taken at the
//! reference speed. A slower program still reads slower; a slower host does
//! not.
//!
//! The kernel fills a `std` hash map from pseudo-random keys: hashing and
//! probing, like the program's own hot paths. Over 150 s of
//! interleaved samples, 10 s medians of the raw work time (pipeline, `A_*`
//! and quotient) spanned 1.5–1.7x; scaled by this kernel they spanned
//! 1.04–1.06x. A pure ALU loop was not slowed at all, and a pointer chase
//! through 256 KiB tracked the work to within 1.2–1.3x only.
//!
//! The speed also changes within a second. Scaling each 90 ms piece of work
//! by the median of the five samples nearest to it left an interquartile
//! spread of 5% over the pieces; scaling it by the mean sample of the
//! surrounding 3 s left 10%. So every workload samples after each instance,
//! and its latencies are scaled by [`local_factors`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::time::{Duration, Instant};

/// Entry operations of one kernel run.
const OPS: u64 = 4_000;

/// Distinct keys the operations draw from.
const KEYS: u64 = 30_000;

/// Median kernel time on the reference host (2 shared vCPUs, Xeon).
pub const REFERENCE_S: f64 = 72e-6;

thread_local! {
    /// The kernel's table, kept across runs: a run allocates nothing, so its
    /// time does not depend on the state the work left the allocator in.
    /// (A fresh table per run read up to 30% slower after some inputs'
    /// passes than after others' that did the same work.) The hasher has
    /// fixed keys, so every run does the same probes.
    static TABLE: RefCell<HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>> =
        RefCell::default();
}

fn kernel() {
    TABLE.with_borrow_mut(|map| {
        map.clear();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *map.entry(x % KEYS).or_default() += i;
        }
        std::hint::black_box(&*map);
    });
}

/// One sample: the kernel's time once its code and table are warm, and the
/// time the sample took in all.
pub fn sample() -> (f64, Duration) {
    let start = Instant::now();
    kernel();
    let timed = Instant::now();
    kernel();
    (timed.elapsed().as_secs_f64(), start.elapsed())
}

/// The factor for work that has just ended, with no per-instance samples:
/// `REFERENCE_S` over the median of several samples, so that one disturbed
/// sample does not set it.
pub fn factor_now() -> f64 {
    let mut kernels: Vec<f64> = (0..8).map(|_| sample().0).collect();
    REFERENCE_S / crate::percentile(&mut kernels, 0.5)
}

/// Samples on either side of an instance that set its factor.
const WINDOW: usize = 2;

/// One factor per instance from the kernel times sampled after each
/// instance, in instance order: `REFERENCE_S` over the median of the
/// finite samples within [`WINDOW`] instances; 1 where there are none.
pub fn local_factors(kernels: &[f64]) -> Vec<f64> {
    (0..kernels.len())
        .map(|i| {
            let window = &kernels[i.saturating_sub(WINDOW)..kernels.len().min(i + WINDOW + 1)];
            let mut finite: Vec<f64> = window.iter().copied().filter(|k| k.is_finite()).collect();
            match crate::percentile(&mut finite, 0.5) {
                kernel if kernel > 0.0 => REFERENCE_S / kernel,
                _ => 1.0,
            }
        })
        .collect()
}
