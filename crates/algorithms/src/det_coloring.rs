//! Deterministic anonymous greedy coloring **given a proper coloring** —
//! color reduction: turns an arbitrary (possibly huge-palette) coloring,
//! such as the bitstring output of the randomized 2-hop coloring stage,
//! into a small-palette `o(v) ≤ deg(v)` coloring, deterministically.
//!
//! The input colors totally order each neighborhood (adjacent nodes have
//! distinct colors), inducing a local DAG: point each edge toward the
//! larger color. A node commits once all its in-neighbors (smaller-colored
//! neighbors) have committed, picking the smallest value not used by
//! committed neighbors. Chain length is bounded by the number of distinct
//! input colors, so the algorithm terminates deterministically.

use std::collections::BTreeSet;
use std::marker::PhantomData;

use anonet_graph::Label;
use anonet_runtime::{Actions, ObliviousAlgorithm};

/// Messages of [`DeterministicColoring`]: the sender's input color plus
/// its committed output color, if any.
pub type DetColoringMessage<C> = (C, Option<u32>);

/// Local state of [`DeterministicColoring`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DetColoringState<C> {
    input_color: C,
    output: Option<u32>,
    /// Output colors committed by neighbors, as last seen.
    neighbor_outputs: BTreeSet<u32>,
}

/// Deterministic anonymous color reduction.
///
/// * **Input**: the node's color under a proper 1-hop coloring (e.g. a
///   2-hop coloring computed by the randomized stage).
/// * **Output**: a `u32` color with `o(v) ≤ deg(v)`, adjacent nodes
///   distinct.
///
/// Deterministic: ignores its random bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeterministicColoring<C> {
    _marker: PhantomData<fn() -> C>,
}

impl<C> DeterministicColoring<C> {
    /// Creates the algorithm.
    pub fn new() -> Self {
        DeterministicColoring { _marker: PhantomData }
    }
}

impl<C: Label> ObliviousAlgorithm for DeterministicColoring<C> {
    type Input = C;
    type Message = DetColoringMessage<C>;
    type Output = u32;
    type State = DetColoringState<C>;

    fn init(&self, input: &C, _degree: usize) -> DetColoringState<C> {
        DetColoringState {
            input_color: input.clone(),
            output: None,
            neighbor_outputs: BTreeSet::new(),
        }
    }

    fn broadcast(&self, state: &DetColoringState<C>) -> Option<DetColoringMessage<C>> {
        Some((state.input_color.clone(), state.output))
    }

    fn step(
        &self,
        mut state: DetColoringState<C>,
        _round: usize,
        received: &[&DetColoringMessage<C>],
        _bit: bool,
        actions: &mut Actions<u32>,
    ) -> DetColoringState<C> {
        for (_, out) in received {
            if let Some(c) = out {
                state.neighbor_outputs.insert(*c);
            }
        }

        if state.output.is_none() {
            let blocked = received.iter().any(|(c, out)| out.is_none() && *c < state.input_color);
            if !blocked {
                let color = (0u32..)
                    .find(|c| !state.neighbor_outputs.contains(c))
                    .expect("colors are unbounded");
                state.output = Some(color);
                actions.output(color);
            }
        }

        // Halt once this node and every (still audible) neighbor committed.
        if state.output.is_some() && received.iter().all(|(_, out)| out.is_some()) {
            actions.halt();
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::GreedyColoringProblem;
    use anonet_graph::{coloring, generators, BitString, Graph, LabeledGraph};
    use anonet_runtime::{run, ExecConfig, Oblivious, Problem, Status, ZeroSource};

    fn solve(net: &LabeledGraph<u32>) -> Vec<u32> {
        let exec = run(
            &Oblivious(DeterministicColoring::<u32>::new()),
            net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed);
        exec.outputs_unwrapped()
    }

    fn assert_valid(g: &Graph, colors: &[u32]) {
        let net = g.with_uniform_label(());
        assert!(
            GreedyColoringProblem.is_valid_output(&net, colors),
            "invalid reduced coloring: {colors:?}"
        );
    }

    #[test]
    fn reduces_wide_palettes() {
        let graphs = vec![
            generators::cycle(9).unwrap(),
            generators::path(8).unwrap(),
            generators::petersen(),
            generators::grid(3, 4, false).unwrap(),
        ];
        for g in graphs {
            // Wide input palette: distinct labels 100, 200, ...
            let wide: Vec<u32> = (0..g.node_count() as u32).map(|i| 100 * (i + 1)).collect();
            let net = g.with_labels(wide).unwrap();
            let reduced = solve(&net);
            assert_valid(&g, &reduced);
            // Palette is now at most Δ + 1.
            let max = *reduced.iter().max().unwrap();
            assert!(max as usize <= g.max_degree());
        }
    }

    #[test]
    fn works_from_greedy_two_hop_coloring() {
        let g = generators::grid(4, 4, false).unwrap();
        let colored = coloring::greedy_two_hop_coloring(&g);
        let reduced = solve(&colored);
        assert_valid(&g, &reduced);
    }

    #[test]
    fn is_deterministic() {
        let g = generators::petersen();
        let net = g.with_labels((0..10u32).collect()).unwrap();
        assert_eq!(solve(&net), solve(&net));
    }

    #[test]
    fn chain_commits_in_order() {
        // Path colored 0 < 1 < 2 < 3: strictly increasing chain, the worst
        // case for sequential commitment.
        let g = generators::path(4).unwrap();
        let net = g.with_labels(vec![0u32, 1, 2, 3]).unwrap();
        let out = solve(&net);
        assert_valid(&g, &out);
        assert_eq!(out, vec![0, 1, 0, 1]);
    }

    #[test]
    fn works_with_bitstring_inputs() {
        let g = generators::cycle(5).unwrap();
        let labels: Vec<BitString> = (0..5).map(|i| BitString::from_value(i as u64, 3)).collect();
        let net = g.with_labels(labels).unwrap();
        let exec = run(
            &Oblivious(DeterministicColoring::<BitString>::new()),
            &net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(exec.is_successful());
        assert_valid(&g, &exec.outputs_unwrapped());
    }
}
