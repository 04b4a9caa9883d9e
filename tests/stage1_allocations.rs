//! Heap allocations of stage 1, per node-step.
//!
//! The counting global allocator of `common/alloc.rs` tallies the
//! allocations made on the calling thread while one `TwoHopColoring`
//! execution runs on each `stage1_golden` case. An engine round should cost
//! its live messages and steps: the relay tables are refilled in place, so
//! an execution must allocate less than once per node-step.
//!
//! The engine itself allocates per execution, not per round: a run of
//! `2R` rounds may allocate only a few times more than a run of `R`, for
//! the growth of its per-round counters.

mod common;
#[path = "common/alloc.rs"]
mod counting;

use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::graph::generators;
use anonet::runtime::{run, ExecConfig, Oblivious, RngSource, Status, ZeroSource};

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

#[test]
fn engine_rounds_do_not_allocate() {
    // Under all-zero coins no MIS node ever joins, so every node stays
    // live until the round cap.
    let net = generators::cycle(256).expect("valid").with_uniform_label(());
    let counted_run = |rounds: usize| {
        let config = ExecConfig::with_max_rounds(rounds);
        let (exec, allocated) = counting::counted(|| {
            run(&Oblivious(RandomizedMis::new()), &net, &mut ZeroSource, &config)
        });
        let exec = exec.expect("cycles are connected");
        assert_eq!((exec.status(), exec.rounds()), (Status::MaxRounds, rounds));
        assert!(exec.active_per_round().iter().all(|&a| a == 256));
        allocated
    };
    let once = counted_run(64);
    let twice = counted_run(128);
    assert!(twice <= once + 4, "64 rounds allocated {once} times, 128 rounds {twice}");
}
