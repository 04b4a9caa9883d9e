//! Golden values for the paper's exhaustive canonical search.
//!
//! The eight bases of the `derand_lifts` benchmark workload are rebuilt
//! here exactly as the benchmark builds them: `gnp_connected(n, 0.5)`
//! drawn from `ChaCha8Rng::seed_from_u64(1)`, kept only with more edges
//! than nodes, greedily 2-hop colored. For each base the minimal
//! successful assignment of `RandomizedMis` under
//! `Exhaustive { max_total_bits: 24 }`, the number of simulations the
//! search attempted, and the outputs are pinned. The values were captured
//! from the literal search, which built every assignment and ran the
//! whole execution from round 1.
//!
//! The checkpointed kernel must also save work on these searches: it may
//! make at most 0.8× the literal loop's `step` calls on every base.
//! Re-simulating each code from round 1 would make exactly as many.

use std::cell::Cell;
use std::rc::Rc;

use anonet::algorithms::mis::{MisMessage, MisState, RandomizedMis};
use anonet::core::{Derandomizer, SearchStrategy};
use anonet::graph::coloring::greedy_two_hop_coloring;
use anonet::graph::{generators, LabeledGraph, NodeId};
use anonet::runtime::{
    first_successful_extension, run, Actions, BitAssignment, ExecConfig, Oblivious,
    ObliviousAlgorithm, TapeSource,
};
use anonet::views::{canonical_order, quotient, ViewMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const STRATEGY: SearchStrategy = SearchStrategy::Exhaustive { max_total_bits: 24 };

/// The `derand_lifts` bases, in the benchmark's order.
fn bases() -> Vec<LabeledGraph<((), u32)>> {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    [5, 5, 6, 6, 6, 7, 7, 7]
        .iter()
        .map(|&n| {
            let g = loop {
                let g = generators::gnp_connected(n, 0.5, &mut rng).unwrap();
                if g.edge_count() > n {
                    break g;
                }
            };
            let colors = greedy_two_hop_coloring(&g);
            g.with_labels(colors.labels().iter().map(|&c| ((), c)).collect()).unwrap()
        })
        .collect()
}

/// `(assignment, attempts, outputs)` per base: the tapes in node-id
/// order, and the MIS membership of each node as `0`/`1`.
const GOLDEN: [(&str, usize, &str); 8] = [
    ("[000, 000, 100, 100, 000]", 1345, "00110"),
    ("[000, 000, 100, 000, 100]", 1317, "00101"),
    ("[000, 000, 100, 100, 000, 000]", 6465, "011000"),
    ("[000, 000, 000, 100, 100, 000]", 4449, "000110"),
    ("[000, 000, 000, 100, 000, 100]", 4421, "001001"),
    ("[000, 000, 000, 000, 000, 100, 000]", 16545, "0000010"),
    ("[000, 000, 000, 000, 100, 100, 000]", 16801, "0000110"),
    ("[000, 000, 100, 000, 000, 100, 100]", 32933, "0001011"),
];

#[test]
fn exhaustive_search_matches_the_golden_values() {
    let derandomizer = Derandomizer::new(RandomizedMis::new())
        .with_strategy(STRATEGY)
        .with_config(ExecConfig::default());
    let got: Vec<(String, usize, String)> = bases()
        .iter()
        .map(|base| {
            let run = derandomizer.run(base).unwrap();
            assert_eq!(run.quotient_nodes, base.node_count(), "the bases are their own quotients");
            let outputs = run.outputs.iter().map(|&b| if b { '1' } else { '0' }).collect();
            (run.assignment.to_string(), run.attempts, outputs)
        })
        .collect();
    let want: Vec<(String, usize, String)> =
        GOLDEN.iter().map(|&(a, n, o)| (a.to_string(), n, o.to_string())).collect();
    assert_eq!(got, want);
}

/// `RandomizedMis`, counting its `step` calls; clones share the count.
#[derive(Clone, Debug, Default)]
struct CountedMis(Rc<Cell<usize>>);

impl ObliviousAlgorithm for CountedMis {
    type Input = ();
    type Message = MisMessage;
    type Output = bool;
    type State = MisState;

    fn init(&self, input: &(), degree: usize) -> MisState {
        RandomizedMis.init(input, degree)
    }
    fn broadcast(&self, state: &MisState) -> Option<MisMessage> {
        RandomizedMis.broadcast(state)
    }
    fn step(
        &self,
        state: MisState,
        round: usize,
        received: &[&MisMessage],
        bit: bool,
        actions: &mut Actions<bool>,
    ) -> MisState {
        self.0.set(self.0.get() + 1);
        RandomizedMis.step(state, round, received, bit, actions)
    }
}

/// The literal search on `j`: every uniform assignment, length first,
/// built and run from round 1. Returns the winner and the attempts.
fn literal_search(alg: &CountedMis, j: &LabeledGraph<()>, order: &[NodeId]) -> (String, usize) {
    let n = j.node_count();
    let mut attempts = 0;
    for t in 1..=24 / n {
        for code in 0u64..1 << (n * t) {
            attempts += 1;
            let mut tapes = vec![anonet::graph::BitString::new(); n];
            let mut shift = n * t;
            for &v in order {
                for _ in 0..t {
                    shift -= 1;
                    tapes[v.index()].push((code >> shift) & 1 == 1);
                }
            }
            let assignment = BitAssignment::new(tapes);
            let mut src = TapeSource::new(assignment.clone());
            if run(&Oblivious(alg.clone()), j, &mut src, &ExecConfig::default())
                .unwrap()
                .is_successful()
            {
                return (assignment.to_string(), attempts);
            }
        }
    }
    panic!("no successful assignment within the budget");
}

/// The same search, one kernel call per length.
fn kernel_search(alg: &CountedMis, j: &LabeledGraph<()>, order: &[NodeId]) -> (String, usize) {
    let n = j.node_count();
    let mut attempts = 0;
    for t in 1..=24 / n {
        let empty = BitAssignment::empty(n);
        match first_successful_extension(alg, j, &empty, t, order, &ExecConfig::default()).unwrap()
        {
            Some((assignment, tried)) => return (assignment.to_string(), attempts + tried),
            None => attempts += 1 << (n * t),
        }
    }
    panic!("no successful assignment within the budget");
}

#[test]
fn the_kernel_makes_at_most_0_8_of_the_literal_step_calls() {
    for (base, golden) in bases().iter().zip(GOLDEN) {
        let q = quotient(base, ViewMode::Portless).unwrap();
        let order = canonical_order(q.graph(), ViewMode::Portless).unwrap();
        let j = q.graph().map_labels(|_| ());
        let alg = CountedMis::default();
        let literal = literal_search(&alg, &j, &order);
        let literal_steps = alg.0.replace(0);
        let kernel = kernel_search(&alg, &j, &order);
        let kernel_steps = alg.0.replace(0);
        assert_eq!(literal, kernel);
        assert_eq!(kernel.1, golden.1);
        assert!(
            kernel_steps * 10 <= literal_steps * 8,
            "kernel {kernel_steps} vs literal {literal_steps} step calls"
        );
    }
}
