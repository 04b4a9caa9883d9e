//! Heap allocations of stage 1, per node-step.
//!
//! The counting global allocator of `common/alloc.rs` tallies the
//! allocations made on the calling thread while one `TwoHopColoring`
//! execution runs on each `stage1_golden` case. An engine round should cost
//! its live messages and steps: the relay tables are refilled in place, so
//! an execution must allocate less than once per node-step.

mod common;
#[path = "common/alloc.rs"]
mod counting;

use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::runtime::{run, ExecConfig, Oblivious, RngSource, Status};

#[test]
fn stage1_allocates_less_than_once_per_node_step() {
    let mut report = Vec::new();
    let mut worst = 0.0f64;
    for (name, g, seed) in common::stage1_cases() {
        let net = g.with_uniform_label(());
        let mut source = RngSource::seeded(seed);
        let config = ExecConfig::default();
        let (exec, allocated) = counting::counted(|| {
            run(&Oblivious(TwoHopColoring::new()), &net, &mut source, &config)
        });
        let exec = exec.expect("stage 1 runs on connected graphs");
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
