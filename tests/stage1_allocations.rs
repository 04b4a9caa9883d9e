//! Heap allocations of stage 1, per node-step.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread while one `TwoHopColoring` execution runs on each
//! `stage1_golden` case. Counting per thread keeps the tally exact while
//! other tests of this binary run in parallel. An engine round should cost
//! its live messages and steps: the relay tables are refilled in place, so
//! an execution must allocate less than once per node-step.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::runtime::{run, ExecConfig, Oblivious, RngSource, Status};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot may be gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a thread-local `Cell` that needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn stage1_allocates_less_than_once_per_node_step() {
    let mut report = Vec::new();
    let mut worst = 0.0f64;
    for (name, g, seed) in common::stage1_cases() {
        let net = g.with_uniform_label(());
        let mut source = RngSource::seeded(seed);
        let config = ExecConfig::default();
        let before = allocations();
        let exec = run(&Oblivious(TwoHopColoring::new()), &net, &mut source, &config)
            .expect("stage 1 runs on connected graphs");
        let allocated = allocations() - before;
        assert_eq!(exec.status(), Status::Completed);
        let steps = exec.bits_consumed();
        let per_step = allocated as f64 / steps as f64;
        worst = worst.max(per_step);
        report
            .push(format!("{name}: {allocated} allocations / {steps} node-steps = {per_step:.2}"));
    }
    let report = report.join("\n");
    println!("{report}");
    assert!(worst < 1.0, "allocations per node-step reach {worst:.2}:\n{report}");
}
