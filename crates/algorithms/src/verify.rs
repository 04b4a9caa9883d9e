//! Distributed verifiers — the decision-algorithm half of genuine
//! solvability (paper, Section 1.1, *Genuine Solvability*).
//!
//! GRAN membership requires not only a solver for `Π` but also an
//! anonymous algorithm for the decision problem `Δ_Π`. For the labeling
//! problems in this crate, instance membership is trivial (every connected
//! graph is an instance), and the interesting decisions are about
//! *candidate outputs*: these verifiers check a proposed solution
//! distributively — every node inspects its neighborhood and outputs
//! [`DecisionOutput::Yes`]/[`DecisionOutput::No`] such that a global "all
//! Yes" certifies validity.
//!
//! All verifiers are deterministic and port-oblivious.

use anonet_graph::Label;
use anonet_runtime::{Actions, DecisionOutput, ObliviousAlgorithm};

/// Distributed MIS verifier: input is `(in_mis,)` per node; round 1
/// exchanges membership; a node says **No** iff it is in the set next to
/// another member (independence) or outside the set with no member
/// neighbor (maximality).
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_runtime::{run, DecisionOutput, ExecConfig, Oblivious, ZeroSource};
/// use anonet_algorithms::verify::MisVerifier;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::cycle(4)?.with_labels(vec![true, false, true, false])?;
/// let exec = run(&Oblivious(MisVerifier), &net, &mut ZeroSource, &ExecConfig::default())?;
/// assert!(exec.outputs_unwrapped().iter().all(|o| *o == DecisionOutput::Yes));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct MisVerifier;

impl ObliviousAlgorithm for MisVerifier {
    type Input = bool;
    type Message = bool;
    type Output = DecisionOutput;
    type State = bool;

    fn init(&self, input: &bool, _degree: usize) -> bool {
        *input
    }

    fn broadcast(&self, state: &bool) -> Option<bool> {
        Some(*state)
    }

    fn step(
        &self,
        state: bool,
        _round: usize,
        received: &[&bool],
        _bit: bool,
        actions: &mut Actions<DecisionOutput>,
    ) -> bool {
        let member_neighbor = received.iter().any(|&&m| m);
        let ok = if state {
            !member_neighbor // independence
        } else {
            member_neighbor // maximality (isolated nodes must be members)
        };
        actions.output(if ok { DecisionOutput::Yes } else { DecisionOutput::No });
        actions.halt();
        state
    }
}

/// Distributed proper-coloring (1-hop) verifier: a node says **No** iff a
/// neighbor shares its color. One round, deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColoringVerifier<C> {
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<C> ColoringVerifier<C> {
    /// Creates the verifier.
    pub fn new() -> Self {
        ColoringVerifier { _marker: std::marker::PhantomData }
    }
}

impl<C: Label> ObliviousAlgorithm for ColoringVerifier<C> {
    type Input = C;
    type Message = C;
    type Output = DecisionOutput;
    type State = C;

    fn init(&self, input: &C, _degree: usize) -> C {
        input.clone()
    }

    fn broadcast(&self, state: &C) -> Option<C> {
        Some(state.clone())
    }

    fn step(
        &self,
        state: C,
        _round: usize,
        received: &[&C],
        _bit: bool,
        actions: &mut Actions<DecisionOutput>,
    ) -> C {
        let clash = received.contains(&&state);
        actions.output(if clash { DecisionOutput::No } else { DecisionOutput::Yes });
        actions.halt();
        state
    }
}

/// State of [`TwoHopColoringVerifier`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwoHopVerifierState<C> {
    color: C,
    /// Sorted colors of the direct neighborhood (relayed in round 2).
    table: Vec<C>,
    verdict: Option<DecisionOutput>,
}

/// Distributed 2-hop coloring verifier. Two rounds:
///
/// 1. exchange colors — a direct clash is a **No**;
/// 2. exchange neighborhood tables — a node says **No** if its own color
///    appears **at least twice** in some neighbor's table (it accounts for
///    exactly one entry itself: the multiplicity argument of the paper's
///    "no port numbers needed" remark).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoHopColoringVerifier<C> {
    _marker: std::marker::PhantomData<fn() -> C>,
}

impl<C> TwoHopColoringVerifier<C> {
    /// Creates the verifier.
    pub fn new() -> Self {
        TwoHopColoringVerifier { _marker: std::marker::PhantomData }
    }
}

/// Messages of [`TwoHopColoringVerifier`].
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TwoHopVerifierMessage<C> {
    /// Round 1: my color.
    Color(C),
    /// Round 2: my neighborhood's colors (sorted).
    Table(Vec<C>),
}

impl<C: Label> ObliviousAlgorithm for TwoHopColoringVerifier<C> {
    type Input = C;
    type Message = TwoHopVerifierMessage<C>;
    type Output = DecisionOutput;
    type State = TwoHopVerifierState<C>;

    fn init(&self, input: &C, _degree: usize) -> Self::State {
        TwoHopVerifierState { color: input.clone(), table: Vec::new(), verdict: None }
    }

    fn broadcast(&self, state: &Self::State) -> Option<Self::Message> {
        if state.table.is_empty() && state.verdict.is_none() {
            Some(TwoHopVerifierMessage::Color(state.color.clone()))
        } else {
            Some(TwoHopVerifierMessage::Table(state.table.clone()))
        }
    }

    fn step(
        &self,
        mut state: Self::State,
        round: usize,
        received: &[&Self::Message],
        _bit: bool,
        actions: &mut Actions<DecisionOutput>,
    ) -> Self::State {
        match round {
            1 => {
                let mut clash = false;
                let mut table = Vec::with_capacity(received.len());
                for m in received {
                    if let TwoHopVerifierMessage::Color(c) = m {
                        clash |= *c == state.color;
                        table.push(c.clone());
                    }
                }
                table.sort();
                state.table = table;
                if clash {
                    state.verdict = Some(DecisionOutput::No);
                }
            }
            2 => {
                let mut clash = state.verdict == Some(DecisionOutput::No);
                for m in received {
                    if let TwoHopVerifierMessage::Table(t) = m {
                        let occurrences = t.iter().filter(|c| **c == state.color).count();
                        clash |= occurrences >= 2;
                    }
                }
                let verdict = if clash { DecisionOutput::No } else { DecisionOutput::Yes };
                actions.output(verdict);
                actions.halt();
                state.verdict = Some(verdict);
            }
            _ => unreachable!("verifier halts in round 2"),
        }
        state
    }
}

/// Aggregates distributed verdicts: valid iff **all** nodes said Yes.
pub fn accepted(outputs: &[DecisionOutput]) -> bool {
    outputs.iter().all(|o| *o == DecisionOutput::Yes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_graph::{coloring, generators, Graph, LabeledGraph};
    use anonet_runtime::{run, ExecConfig, Oblivious, RngSource, ZeroSource};

    fn verdicts_mis(g: &Graph, membership: Vec<bool>) -> bool {
        let net = g.with_labels(membership).unwrap();
        let exec =
            run(&Oblivious(MisVerifier), &net, &mut ZeroSource, &ExecConfig::default()).unwrap();
        accepted(&exec.outputs_unwrapped())
    }

    #[test]
    fn mis_verifier_accepts_valid_sets() {
        let g = generators::cycle(6).unwrap();
        assert!(verdicts_mis(&g, vec![true, false, true, false, true, false]));
        assert!(verdicts_mis(&g, vec![true, false, false, true, false, false]));
    }

    #[test]
    fn mis_verifier_rejects_dependence_and_nonmaximality() {
        let g = generators::cycle(6).unwrap();
        // Adjacent members.
        assert!(!verdicts_mis(&g, vec![true, true, false, false, true, false]));
        // Uncovered node (1 and its neighbors all out... node 3 far from any member).
        assert!(!verdicts_mis(&g, vec![true, false, false, false, false, false]));
        // Empty set on a non-empty graph.
        assert!(!verdicts_mis(&g, vec![false; 6]));
    }

    #[test]
    fn coloring_verifier_matches_centralized_check() {
        let g = generators::petersen();
        let good = coloring::greedy_k_hop_coloring(&g, 1);
        let exec = run(
            &Oblivious(ColoringVerifier::<u32>::new()),
            &good,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(accepted(&exec.outputs_unwrapped()));

        let bad = g.with_uniform_label(1u32);
        let exec = run(
            &Oblivious(ColoringVerifier::<u32>::new()),
            &bad,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(!accepted(&exec.outputs_unwrapped()));
    }

    fn two_hop_accepts(net: &LabeledGraph<u32>) -> bool {
        let exec = run(
            &Oblivious(TwoHopColoringVerifier::<u32>::new()),
            net,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        accepted(&exec.outputs_unwrapped())
    }

    #[test]
    fn two_hop_verifier_agrees_with_centralized_check_on_many_graphs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let mut graphs = vec![
            generators::cycle(6).unwrap(),
            generators::path(7).unwrap(),
            generators::petersen(),
            generators::grid(3, 3, false).unwrap(),
        ];
        for _ in 0..3 {
            graphs.push(generators::gnp_connected(10, 0.3, &mut rng).unwrap());
        }
        for g in graphs {
            // A valid 2-hop coloring must be accepted.
            let good = coloring::greedy_two_hop_coloring(&g);
            assert!(two_hop_accepts(&good), "rejected a valid coloring on {g}");
            // Copying one node's color onto a random distance-2 node must
            // be rejected.
            let pairs = anonet_graph::distance::pairs_within(&g, 2);
            let (u, v) = pairs[0];
            let bad = good.with_label_at(v, *good.label(u));
            assert!(!two_hop_accepts(&bad), "accepted an invalid coloring on {g}");
        }
    }

    #[test]
    fn two_hop_verifier_accepts_las_vegas_outputs() {
        let g = generators::grid(3, 4, false).unwrap();
        let net = g.with_uniform_label(());
        let exec = run(
            &Oblivious(crate::two_hop_coloring::TwoHopColoring::new()),
            &net,
            &mut RngSource::seeded(8),
            &ExecConfig::default(),
        )
        .unwrap();
        let colored = g.with_labels(exec.outputs_unwrapped()).unwrap();
        let exec = run(
            &Oblivious(TwoHopColoringVerifier::<anonet_graph::BitString>::new()),
            &colored,
            &mut ZeroSource,
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(accepted(&exec.outputs_unwrapped()));
    }
}
