//! Monte-Carlo leader election — the contrast class the paper draws
//! (Section 1.3, citing Itai–Rodeh and Métivier–Robson–Zemmari [36]):
//! leader election is **not** Las-Vegas solvable in anonymous networks
//! (no algorithm may ever err, and products force errors), but it *is*
//! solvable by a Monte-Carlo algorithm that fails with small probability.
//!
//! # Protocol
//!
//! Each node draws `id_bits` random bits as a tentative identifier, then
//! floods the maximum identifier for `bound` rounds (`bound ≥ diameter`
//! suffices; an upper bound on `n` does). A node outputs "leader" iff its
//! own identifier equals the flooded maximum. The election fails iff the
//! maximum is drawn by more than one node — probability at most
//! `n² / 2^{id_bits+1}` by a union bound — which no node can detect:
//! exactly the Monte-Carlo/Las-Vegas gap, and the reason this algorithm
//! does not contradict the paper (GRAN requires probability-1 validity).

use anonet_graph::BitString;
use anonet_runtime::{Actions, ObliviousAlgorithm};

/// Local state of [`MonteCarloLeader`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct McLeaderState {
    id: BitString,
    max_seen: BitString,
    bits_drawn: usize,
}

/// The Monte-Carlo leader election algorithm.
///
/// * **Input**: the round bound (prior knowledge: any value ≥ the
///   diameter, e.g. an upper bound on `n`).
/// * **Output**: `true` iff this node believes it is the leader. With
///   probability ≥ `1 - n²/2^{id_bits+1}` exactly one node outputs `true`.
#[derive(Clone, Copy, Debug)]
pub struct MonteCarloLeader {
    id_bits: usize,
}

impl MonteCarloLeader {
    /// Creates the algorithm drawing `id_bits`-bit identifiers.
    ///
    /// # Panics
    ///
    /// Panics for `id_bits = 0`.
    pub fn new(id_bits: usize) -> Self {
        assert!(id_bits > 0, "identifiers need at least one bit");
        MonteCarloLeader { id_bits }
    }
}

impl ObliviousAlgorithm for MonteCarloLeader {
    type Input = usize; // the round bound
    type Message = BitString;
    type Output = bool;
    type State = (McLeaderState, usize);

    fn init(&self, input: &usize, _degree: usize) -> Self::State {
        (McLeaderState { id: BitString::new(), max_seen: BitString::new(), bits_drawn: 0 }, *input)
    }

    fn broadcast(&self, state: &Self::State) -> Option<BitString> {
        (state.0.bits_drawn >= self.id_bits).then(|| state.0.max_seen.clone())
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&BitString],
        bit: bool,
        actions: &mut Actions<bool>,
    ) -> Self::State {
        let (st, bound) = &mut state;
        if st.bits_drawn < self.id_bits {
            // Identifier-drawing phase: one bit per round (the paper's
            // normalization of randomness).
            st.id.push(bit);
            st.bits_drawn += 1;
            if st.bits_drawn == self.id_bits {
                st.max_seen = st.id.clone();
            }
        } else {
            // Flooding phase.
            for m in received {
                if m.cmp_lex(&st.max_seen).is_gt() {
                    st.max_seen = (*m).clone();
                }
            }
            if round >= self.id_bits + *bound {
                actions.output(st.max_seen == st.id);
                actions.halt();
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{generators, Graph};
    use anonet_runtime::{run, ExecConfig, Oblivious, RngSource};

    fn elect(g: &Graph, id_bits: usize, seed: u64) -> Vec<bool> {
        let bound = g.node_count();
        let net = g.with_uniform_label(bound);
        let exec = run(
            &Oblivious(MonteCarloLeader::new(id_bits)),
            &net,
            &mut RngSource::seeded(seed),
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(exec.is_successful());
        exec.outputs_unwrapped()
    }

    #[test]
    fn wide_ids_elect_exactly_one_leader() {
        // 48-bit ids on ≤ 16 nodes: collision probability ~ 2^-40.
        for g in [
            generators::cycle(8).unwrap(),
            generators::petersen(),
            generators::grid(4, 4, true).unwrap(),
        ] {
            for seed in 0..10 {
                let leaders = elect(&g, 48, seed).iter().filter(|&&b| b).count();
                assert_eq!(leaders, 1, "seed {seed} on {g}");
            }
        }
    }

    #[test]
    fn narrow_ids_eventually_fail() {
        // 2-bit ids on a 10-node graph: collisions of the maximum are
        // frequent — this *is* the Monte-Carlo failure mode, and exactly
        // what a Las-Vegas algorithm is never allowed to do.
        let g = generators::petersen();
        let mut saw_failure = false;
        let mut saw_success = false;
        for seed in 0..40 {
            let leaders = elect(&g, 2, seed).iter().filter(|&&b| b).count();
            assert!(leaders >= 1, "the maximum always exists");
            if leaders > 1 {
                saw_failure = true;
            } else {
                saw_success = true;
            }
        }
        assert!(saw_failure, "2-bit ids should collide somewhere in 40 seeds");
        assert!(saw_success, "2-bit ids should also sometimes succeed");
    }

    #[test]
    fn single_node_is_its_own_leader() {
        let g = Graph::builder(1).build().unwrap();
        assert_eq!(elect(&g, 8, 0), vec![true]);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::cycle(6).unwrap();
        assert_eq!(elect(&g, 16, 7), elect(&g, 16, 7));
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bit_ids_rejected() {
        let _ = MonteCarloLeader::new(0);
    }
}
