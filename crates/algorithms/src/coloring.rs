//! Las-Vegas anonymous greedy graph coloring (1-hop), a second classic
//! GRAN member (paper, Section 1.3, citing [33]).
//!
//! # Protocol
//!
//! Iterations of `B + 1` rounds (`B = 16`): every active node spends `B`
//! rounds collecting one random bit per round (the paper's normalization)
//! into a candidate color `value mod (deg + 1)`, broadcasts the proposal,
//! and commits iff the proposal differs from every decided neighbor color
//! and every active neighbor's simultaneous proposal. Decided nodes keep
//! announcing their color; each node caches the decided colors it has
//! seen. Every iteration commits with positive probability (there is
//! always a free color in `0..=deg` by pigeonhole), so the algorithm is
//! Las-Vegas; committed colors are proper by construction.
//!
//! The output satisfies the *greedy bound* `o(v) ≤ deg(v)` — at most
//! `Δ + 1` colors overall.

use std::collections::BTreeSet;

use anonet_runtime::{Actions, ObliviousAlgorithm};

/// Bits per candidate draw; supports degrees below `2^16 - 1`.
const BITS: usize = 16;

/// Messages exchanged by [`RandomizedColoring`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ColoringMessage {
    /// Still undecided (keeps neighbors from halting).
    Active,
    /// Proposal for this iteration's commit round.
    Propose(u32),
    /// Final color announcement.
    Decided(u32),
}

/// Local state of [`RandomizedColoring`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColoringState {
    degree: usize,
    color: Option<u32>,
    /// Bits collected toward the current candidate.
    buffer: u32,
    bits_collected: usize,
    /// This iteration's proposal (valid in the commit round).
    proposal: u32,
    /// Decided neighbor colors seen so far.
    taken: BTreeSet<u32>,
    /// Message to send next round.
    outgoing: ColoringMessage,
}

impl ColoringState {
    /// The committed color, if any.
    pub fn color(&self) -> Option<u32> {
        self.color
    }
}

/// The Las-Vegas anonymous greedy coloring algorithm.
///
/// * **Input**: ignored (`()`).
/// * **Output**: a `u32` color with `o(v) ≤ deg(v)` such that adjacent
///   nodes receive different colors.
///
/// # Panics
///
/// Node degrees must be below `2^16 - 1`; larger graphs exceed the
/// candidate space of the fixed 16-bit draw (an implementation limit far
/// beyond simulator scale).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedColoring;

impl RandomizedColoring {
    /// Creates the algorithm.
    pub fn new() -> Self {
        RandomizedColoring
    }
}

impl ObliviousAlgorithm for RandomizedColoring {
    type Input = ();
    type Message = ColoringMessage;
    type Output = u32;
    type State = ColoringState;

    fn init(&self, _input: &(), degree: usize) -> ColoringState {
        assert!(degree < (1 << BITS) - 1, "degree {degree} exceeds the {BITS}-bit candidate space");
        ColoringState {
            degree,
            color: None,
            buffer: 0,
            bits_collected: 0,
            proposal: 0,
            taken: BTreeSet::new(),
            outgoing: ColoringMessage::Active,
        }
    }

    fn broadcast(&self, state: &ColoringState) -> Option<ColoringMessage> {
        Some(state.outgoing.clone())
    }

    fn step(
        &self,
        mut state: ColoringState,
        round: usize,
        received: &[&ColoringMessage],
        bit: bool,
        actions: &mut Actions<u32>,
    ) -> ColoringState {
        // Cache decided neighbor colors whenever we see them.
        for m in received {
            if let ColoringMessage::Decided(c) = m {
                state.taken.insert(*c);
            }
        }

        let phase = round % (BITS + 1); // 1..=BITS collect, 0 commit

        if state.color.is_none() {
            if phase == 0 {
                // Commit round: `received` holds neighbors' proposals.
                let conflicting = received
                    .iter()
                    .any(|m| matches!(m, ColoringMessage::Propose(p) if *p == state.proposal))
                    || state.taken.contains(&state.proposal);
                if !conflicting {
                    state.color = Some(state.proposal);
                    actions.output(state.proposal);
                }
                state.outgoing = match state.color {
                    Some(c) => ColoringMessage::Decided(c),
                    None => ColoringMessage::Active,
                };
                state.buffer = 0;
                state.bits_collected = 0;
            } else {
                // Collect a bit toward the candidate.
                state.buffer = (state.buffer << 1) | u32::from(bit);
                state.bits_collected += 1;
                if state.bits_collected == BITS {
                    state.proposal = state.buffer % (state.degree as u32 + 1);
                    state.outgoing = ColoringMessage::Propose(state.proposal);
                } else {
                    state.outgoing = ColoringMessage::Active;
                }
            }
        } else if let Some(c) = state.color {
            state.outgoing = ColoringMessage::Decided(c);
        }

        // Halting: decided, and every message this round came from a
        // decided node (silent ports belong to already-halted, hence
        // decided, neighbors). Checked outside commit rounds so proposals
        // don't mask decidedness.
        if phase != 0 && state.color.is_some() {
            let all_decided = received.iter().all(|m| matches!(m, ColoringMessage::Decided(_)));
            if all_decided {
                actions.halt();
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::GreedyColoringProblem;
    use anonet_graph::{generators, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, Problem, RngSource, Status};

    fn solve(g: &Graph, seed: u64) -> Vec<u32> {
        let net = g.with_uniform_label(());
        let exec = run(
            &Oblivious(RandomizedColoring::new()),
            &net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(exec.status(), Status::Completed, "did not complete on {g}");
        assert!(exec.is_successful());
        exec.outputs_unwrapped()
    }

    fn assert_valid(g: &Graph, colors: &[u32]) {
        let net = g.with_uniform_label(());
        assert!(
            GreedyColoringProblem.is_valid_output(&net, colors),
            "invalid coloring on {g}: {colors:?}"
        );
    }

    #[test]
    fn colors_cycles_and_paths() {
        for g in [generators::cycle(7).unwrap(), generators::path(9).unwrap()] {
            for seed in 0..4 {
                assert_valid(&g, &solve(&g, seed));
            }
        }
    }

    #[test]
    fn colors_dense_graphs() {
        for g in [generators::complete(5).unwrap(), generators::petersen()] {
            for seed in 0..3 {
                let colors = solve(&g, seed);
                assert_valid(&g, &colors);
            }
        }
    }

    #[test]
    fn respects_greedy_bound() {
        let g = generators::star(10).unwrap();
        let colors = solve(&g, 2);
        assert_valid(&g, &colors);
        // Leaves have degree 1: colors in {0, 1}.
        for &leaf_color in &colors[1..10] {
            assert!(leaf_color <= 1);
        }
    }

    #[test]
    fn single_node_gets_color_zero() {
        let g = Graph::builder(1).build().unwrap();
        assert_eq!(solve(&g, 0), vec![0]);
    }

    #[test]
    fn reproducible_per_seed() {
        let g = generators::grid(3, 3, false).unwrap();
        assert_eq!(solve(&g, 5), solve(&g, 5));
    }
}
