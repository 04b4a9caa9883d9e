//! Deterministic distance-2 palette reduction: turns any 2-hop coloring
//! (e.g. the long-bitstring output of the Las-Vegas stage) into a 2-hop
//! coloring with **small integer colors** (at most `Δ² + 1`), with no
//! further randomness — the distributed counterpart of the greedy
//! compression used in radio-network frequency assignment.
//!
//! # Protocol
//!
//! The input colors totally order every 2-ball (that is what a 2-hop
//! coloring *is*), inducing a DAG over distance-≤2 pairs. Each round every
//! node broadcasts its `(input color, output)` state plus the last-seen
//! table of its neighbors' states — the same 2-hop relay channel as the
//! Las-Vegas colorer. A node commits once every node within 2 hops with a
//! *smaller* input color has committed (per its possibly-stale knowledge —
//! staleness only delays, never unblocks), picking the smallest integer
//! not yet used within its 2-ball. The global minimum is never blocked, so
//! the DAG drains deterministically.
//!
//! Self-exclusion needs no care here: a node's own (stale) table entry
//! carries its own input color, which is never *smaller* than itself, and
//! contributes no committed output while it matters.

use std::collections::BTreeSet;
use std::marker::PhantomData;

use anonet_graph::{coloring, distance, Label, LabeledGraph};
use anonet_runtime::{Actions, ObliviousAlgorithm, Problem};

/// A peer's state in messages: `(input color, committed output)`.
type Peer<C> = (C, Option<u32>);

/// Message: own state plus the relayed neighbor table (2-hop channel).
pub type ReductionMessage<C> = (Peer<C>, Vec<Peer<C>>);

/// Local state of [`TwoHopReduction`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReductionState<C> {
    input: C,
    output: Option<u32>,
    /// Last round's fresh neighbor states (relayed next round).
    table: Vec<Peer<C>>,
    /// Committed outputs seen anywhere in the 2-ball.
    taken: BTreeSet<u32>,
}

/// Deterministic distance-2 palette reduction on 2-hop colored inputs.
///
/// * **Input**: the node's color under a 2-hop coloring (any ordered
///   [`Label`] — bitstrings from the Las-Vegas stage qualify).
/// * **Output**: a `u32` color; the output labeling is again a 2-hop
///   coloring, using at most `Δ² + 1` colors.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopReduction<C> {
    _marker: PhantomData<fn() -> C>,
}

impl<C> TwoHopReduction<C> {
    /// Creates the algorithm.
    pub fn new() -> Self {
        TwoHopReduction { _marker: PhantomData }
    }
}

impl<C: Label> ObliviousAlgorithm for TwoHopReduction<C> {
    type Input = C;
    type Message = ReductionMessage<C>;
    type Output = u32;
    type State = ReductionState<C>;

    fn init(&self, input: &C, _degree: usize) -> Self::State {
        ReductionState {
            input: input.clone(),
            output: None,
            table: Vec::new(),
            taken: BTreeSet::new(),
        }
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        Some(((state.input.clone(), state.output), state.table.clone()))
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&Self::Message],
        _bit: bool,
        actions: &mut Actions<u32>,
    ) -> Self::State {
        // Collect committed outputs and check for smaller-colored
        // uncommitted peers across the (stale) 2-ball picture.
        let mut blocked = round == 1; // tables warm up in round 1
        for (peer, table) in received {
            for (color, output) in std::iter::once(peer).chain(table.iter()) {
                match output {
                    Some(c) => {
                        state.taken.insert(*c);
                    }
                    None => {
                        if *color < state.input {
                            blocked = true;
                        }
                    }
                }
            }
        }

        if state.output.is_none() && !blocked {
            let color = (0u32..).find(|c| !state.taken.contains(c)).expect("colors are unbounded");
            state.output = Some(color);
            actions.output(color);
        }

        // Refresh the relay table.
        state.table = received.iter().map(|(peer, _)| peer.clone()).collect();
        state.table.sort();

        // Halt once the whole (visible) 2-ball has committed.
        if state.output.is_some() {
            let all_done = received
                .iter()
                .all(|(peer, table)| peer.1.is_some() && table.iter().all(|(_, o)| o.is_some()));
            if all_done && round > 1 {
                actions.halt();
            }
        }
        state
    }
}

/// The distance-2 palette-reduction problem: instances are 2-hop colored
/// graphs; outputs must again 2-hop color the graph with every color at
/// most `Δ²` (so at most `Δ² + 1` colors).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopReductionProblem;

impl Problem for TwoHopReductionProblem {
    type Input = u32;
    type Output = u32;

    fn is_instance(&self, instance: &LabeledGraph<u32>) -> bool {
        coloring::is_two_hop_coloring(instance)
    }

    fn is_valid_output(&self, instance: &LabeledGraph<u32>, output: &[u32]) -> bool {
        let g = instance.graph();
        if output.len() != g.node_count() {
            return false;
        }
        let Ok(colored) = g.with_labels(output.to_vec()) else { return false };
        if !coloring::is_two_hop_coloring(&colored) {
            return false;
        }
        // Ball bound: each node's color is below its 2-ball size.
        // anonet-lint: allow(anonymity, reason = "is_valid_output is a global-observer verifier, not node-local algorithm code")
        g.nodes().all(|v| (output[v.index()] as usize) < distance::ball(g, v, 2).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{generators, BitString, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, RngSource, Status, ZeroSource};

    fn reduce(net: &LabeledGraph<u32>) -> Vec<u32> {
        let exec = run(
            &Oblivious(TwoHopReduction::<u32>::new()),
            net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed);
        exec.outputs_unwrapped()
    }

    #[test]
    fn reduces_wide_palettes_on_families() {
        for g in [
            generators::cycle(9).unwrap(),
            generators::path(8).unwrap(),
            generators::petersen(),
            generators::grid(3, 4, false).unwrap(),
            generators::wheel(7).unwrap(),
        ] {
            // A valid but wasteful input: huge distinct colors.
            let wide: Vec<u32> = (0..g.node_count() as u32).map(|i| 1000 + 37 * i).collect();
            let net = g.with_labels(wide).unwrap();
            let reduced = reduce(&net);
            assert!(
                TwoHopReductionProblem.is_valid_output(&net, &reduced),
                "invalid reduction on {g}: {reduced:?}"
            );
            let palette = g.with_labels(reduced).unwrap().distinct_label_count();
            assert!(palette <= g.max_degree().pow(2) + 1);
        }
    }

    #[test]
    fn is_deterministic() {
        let g = generators::petersen();
        let net = anonet_graph::coloring::greedy_two_hop_coloring(&g);
        assert_eq!(reduce(&net), reduce(&net));
    }

    #[test]
    fn end_to_end_from_las_vegas_bitstrings() {
        // The real pipeline: Las-Vegas bitstring colors → order-preserving
        // rank conversion → deterministic distance-2 reduction.
        let g = generators::grid(4, 3, false).unwrap();
        let exec = run(
            &Oblivious(crate::two_hop_coloring::TwoHopColoring::new()),
            &g.with_uniform_label(()),
            &mut RngSource::seeded(6),
            &ExecConfig::default(),
        )
        .unwrap();
        let tokens: Vec<BitString> = exec.outputs_unwrapped();
        let mut sorted = tokens.clone();
        sorted.sort();
        sorted.dedup();
        let ranks: Vec<u32> =
            tokens.iter().map(|t| sorted.binary_search(t).expect("present") as u32).collect();
        let net = g.with_labels(ranks).unwrap();
        let reduced = reduce(&net);
        assert!(TwoHopReductionProblem.is_valid_output(&net, &reduced));
    }

    #[test]
    fn single_node_gets_zero() {
        let g = Graph::builder(1).build().unwrap();
        let net = g.with_labels(vec![99u32]).unwrap();
        assert_eq!(reduce(&net), vec![0]);
    }

    #[test]
    fn problem_enforces_ball_bound() {
        let g = generators::path(3).unwrap();
        let net = g.with_labels(vec![0u32, 1, 2]).unwrap();
        // Color 5 exceeds the 2-ball bound (ball sizes are 3 here).
        assert!(!TwoHopReductionProblem.is_valid_output(&net, &[5, 1, 0]));
        assert!(TwoHopReductionProblem.is_valid_output(&net, &[0, 1, 2]));
    }
}
