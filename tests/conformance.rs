//! The metamorphic conformance suites — the testkit's whole repertoire
//! (view-graph/replay/cache/pipeline differentials, renumbering and port
//! metamorphics, lift projections, adversarial schedules, round-cap
//! negatives) over the seeded generator stream, one suite per algorithm.
//!
//! Knobs: `ANONET_TESTKIT_SEED`, `ANONET_TESTKIT_CASES`,
//! `ANONET_ADVERSARY` (`fair`/`reverse`/`skewed`/`shuffled`/`mixed`), and
//! `ANONET_TESTKIT_REPLAY='tc1:…'` to re-run a printed failure.

use anonet::algorithms::coloring::RandomizedColoring;
use anonet::algorithms::matching::{MatchingProblem, RandomizedMatching};
use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::problems::{GreedyColoringProblem, MisProblem};
use anonet::testkit::{run_leader_suite, Suite};

#[test]
fn mis_conformance() {
    Suite::new("mis", RandomizedMis::new(), MisProblem, |_| ()).with_astar().run(18);
}

#[test]
fn coloring_conformance() {
    // RandomizedColoring draws 16-bit candidates, so the exhaustive A_∞
    // enumeration is out of reach — the view-graph oracle covers it.
    Suite::new("coloring", RandomizedColoring::new(), GreedyColoringProblem, |_| ()).run(18);
}

#[test]
fn matching_conformance() {
    // The matching algorithm's input *is* its color. Matching draws a
    // proposal direction and an acceptance bit per phase, so its literal
    // A_* enumeration is only feasible on two-class quotients.
    Suite::new("matching", RandomizedMatching::<u32>::new(), MatchingProblem, |c| c)
        .with_astar_tiny()
        .run(18);
}

#[test]
fn leader_conformance() {
    run_leader_suite(30);
}
