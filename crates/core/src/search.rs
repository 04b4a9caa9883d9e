//! Canonical successful-assignment search (paper, Section 2.2).
//!
//! All nodes must select the **same** simulation of `A_R` on the quotient
//! `J`. The paper achieves this by totally ordering bit assignments
//! (length first, then lexicographically in the canonical node order) and
//! picking the minimal successful one. [`SearchStrategy::Exhaustive`]
//! implements exactly that; [`SearchStrategy::Seeded`] is an
//! engineering-grade alternative that replays deterministic pseudorandom
//! tapes derived from the quotient's canonical encoding — still a
//! function of the view alone, hence still agreed upon by all nodes, but
//! scaling to quotients far beyond the exhaustive search's reach. (Its
//! caveat: a Las-Vegas guarantee quantifies over random tapes, and a fixed
//! pseudorandom family could in principle miss every terminating tape; in
//! practice the first seed almost always succeeds.)

use anonet_graph::{BitString, Label, LabeledGraph, NodeId};
use anonet_runtime::{
    first_successful_extension, run, Algorithm, BitAssignment, ExecConfig, Execution, Oblivious,
    ObliviousAlgorithm, RandomSource, RuntimeError, Status, TapeSource,
};

use crate::error::CoreError;
use crate::Result;

/// How to pick the canonical successful simulation on the quotient.
#[derive(Clone, Copy, Debug)]
pub enum SearchStrategy {
    /// The paper's rule: the minimal successful assignment under the
    /// canonical total order — iterative deepening over the uniform tape
    /// length `t`, enumerating all `2^(|V_*|·t)` assignments per level.
    /// Fails with [`CoreError::SearchBudgetExceeded`] once `|V_*|·t`
    /// exceeds `max_total_bits`, or reaches 64 whatever the budget.
    Exhaustive {
        /// Budget on `|V_*| · t` (enumeration is `2^this`); ~24 is sane.
        max_total_bits: usize,
    },
    /// Deterministic seeded replay: for `seed = 0, 1, …` derive per-node
    /// tapes from a hash of `(quotient encoding, seed, canonical node
    /// position, round)` and accept the first seed whose execution
    /// completes successfully within the round cap.
    Seeded {
        /// Number of seeds to try before giving up.
        max_attempts: usize,
    },
}

impl Default for SearchStrategy {
    fn default() -> Self {
        SearchStrategy::Seeded { max_attempts: 64 }
    }
}

/// A successful canonical simulation on the quotient.
#[derive(Debug)]
pub struct CanonicalSimulation<A: Algorithm> {
    /// The execution (successful: every quotient node produced an output).
    pub execution: Execution<A>,
    /// The bit assignment that induced it (reconstructed tapes for the
    /// seeded strategy).
    pub assignment: BitAssignment,
    /// How many simulations were attempted before this one succeeded.
    pub attempts: usize,
}

/// Finds the canonical successful simulation of `alg` on the quotient
/// instance `j`, using `order` as the canonical node order.
///
/// # Errors
///
/// Budget errors per strategy; runtime errors from simulations.
pub fn canonical_successful_simulation<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    order: &[NodeId],
    strategy: SearchStrategy,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<Oblivious<A>>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    match strategy {
        SearchStrategy::Exhaustive { max_total_bits } => {
            exhaustive(alg, j, order, max_total_bits, config)
        }
        SearchStrategy::Seeded { max_attempts } => {
            seeded(&Oblivious(alg.clone()), j, order, max_attempts, config)
        }
    }
}

/// Iterative deepening over the uniform tape length `t`: the minimal
/// successful assignment of each length comes from the canonical-search
/// kernel, and only the winner is replayed for its execution.
fn exhaustive<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    order: &[NodeId],
    max_total_bits: usize,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<Oblivious<A>>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let n = j.node_count();
    let empty = BitAssignment::empty(n);
    let mut attempts = 0usize;
    for t in 1.. {
        if n * t > max_total_bits {
            return Err(CoreError::SearchBudgetExceeded { quotient_nodes: n, max_total_bits });
        }
        match first_extension(alg, j, &empty, t, order, config, max_total_bits)? {
            Some((assignment, tried)) => {
                let mut src = TapeSource::new(assignment.clone());
                let execution = run(&Oblivious(alg.clone()), j, &mut src, config)?;
                attempts += tried;
                return Ok(CanonicalSimulation { execution, assignment, attempts });
            }
            None => attempts += 1 << (n * t),
        }
    }
    unreachable!("the loop over t only exits via return")
}

/// [`first_successful_extension`] with a code space of 64 or more bits
/// reported as exceeding the caller's budget `max_total_bits`.
pub(crate) fn first_extension<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    config: &ExecConfig,
    max_total_bits: usize,
) -> Result<Option<(BitAssignment, usize)>>
where
    A: ObliviousAlgorithm,
    A::Input: Label,
{
    first_successful_extension(alg, j, base, target, order, config).map_err(|e| match e {
        RuntimeError::SearchSpaceTooLarge { .. } => {
            CoreError::SearchBudgetExceeded { quotient_nodes: j.node_count(), max_total_bits }
        }
        e => e.into(),
    })
}

/// Deterministic bit source keyed on `(key, canonical position, round)`,
/// SplitMix64-based. Never exhausts.
#[derive(Clone, Debug)]
pub struct KeyedSource {
    key: u64,
    position: Vec<u64>,
}

impl KeyedSource {
    /// Creates a source for the given key and canonical node order.
    pub fn new(key: u64, order: &[NodeId]) -> Self {
        let mut position = vec![0u64; order.len()];
        for (pos, &v) in order.iter().enumerate() {
            position[v.index()] = pos as u64;
        }
        KeyedSource { key, position }
    }
}

impl RandomSource for KeyedSource {
    fn bit(&mut self, node: NodeId, round: usize) -> Option<bool> {
        let pos = self.position.get(node.index()).copied()?;
        Some(splitmix(self.key ^ pos.wrapping_mul(0x9E3779B97F4A7C15) ^ (round as u64)) & 1 == 1)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hashes a quotient's canonical encoding into the base key, so the seed
/// family itself is a function of the (view-derived) quotient.
pub fn encoding_key(encoding: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64; // FNV-1a
    for &b in encoding {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn seeded<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    order: &[NodeId],
    max_attempts: usize,
    config: &ExecConfig,
) -> Result<CanonicalSimulation<A>>
where
    A: Algorithm,
    A::Input: Label,
{
    let base = encoding_key(&canonical_input_encoding(j, order));
    for attempt in 0..max_attempts {
        let key = splitmix(base ^ (attempt as u64).wrapping_mul(0xD1B54A32D192ED03));
        let mut src = KeyedSource::new(key, order);
        let exec = run(alg, j, &mut src, config)?;
        if exec.status() == Status::Completed && exec.is_successful() {
            // Reconstruct the tapes actually consumed (per node: one bit
            // per active round until it halted).
            let mut replay = KeyedSource::new(key, order);
            let tapes: Vec<BitString> = j
                .graph()
                .nodes()
                .map(|v| {
                    let rounds = exec.halt_rounds()[v.index()].unwrap_or(exec.rounds());
                    (1..=rounds)
                        .map(|r| replay.bit(v, r).expect("keyed source never exhausts"))
                        .collect()
                })
                .collect();
            return Ok(CanonicalSimulation {
                execution: exec,
                assignment: BitAssignment::new(tapes),
                attempts: attempt + 1,
            });
        }
    }
    Err(CoreError::SeedsExhausted { attempts: max_attempts })
}

/// Encodes the quotient instance under the canonical order (the `s(·)` of
/// the paper, applied to the input-labeled quotient).
fn canonical_input_encoding<L: Label>(j: &LabeledGraph<L>, order: &[NodeId]) -> Vec<u8> {
    anonet_graph::canonical::encode_with_order(j, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_graph::generators;
    use anonet_views::{canonical_order, ViewMode};

    fn c3_instance() -> (LabeledGraph<()>, Vec<NodeId>) {
        // A prime 3-cycle as "quotient": canonical order needs distinct
        // views, so order by the colored version but simulate on unit
        // inputs (exactly what the derandomizer does).
        let colored = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let order = canonical_order(&colored, ViewMode::Portless).unwrap();
        (colored.map_labels(|_| ()), order)
    }

    #[test]
    fn exhaustive_finds_minimal_mis_assignment() {
        let (j, order) = c3_instance();
        let sim = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            SearchStrategy::Exhaustive { max_total_bits: 24 },
            &ExecConfig::default(),
        )
        .unwrap();
        assert!(sim.execution.is_successful());
        // The outputs form a valid MIS of C3: exactly one member.
        let outs = sim.execution.outputs_unwrapped();
        assert_eq!(outs.iter().filter(|&&b| b).count(), 1);
        // Minimality: no shorter uniform length can succeed (MIS needs at
        // least one full 3-round iteration → t >= 3).
        assert!(sim.assignment.simulation_length() >= 3);
    }

    #[test]
    fn exhaustive_is_deterministic() {
        let (j, order) = c3_instance();
        let strategy = SearchStrategy::Exhaustive { max_total_bits: 24 };
        let a = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        let b = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.execution.outputs(), b.execution.outputs());
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn exhaustive_respects_budget() {
        let (j, order) = c3_instance();
        let err = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            SearchStrategy::Exhaustive { max_total_bits: 5 }, // < 3 nodes × 3 rounds
            &ExecConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::SearchBudgetExceeded { .. }));
    }

    #[test]
    fn seeded_succeeds_and_is_deterministic() {
        let (j, order) = c3_instance();
        let strategy = SearchStrategy::Seeded { max_attempts: 64 };
        let a = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        let b = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            strategy,
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(a.execution.outputs(), b.execution.outputs());
        assert_eq!(a.attempts, b.attempts);
        // Replayed tapes really induce the same successful execution.
        let mut src = TapeSource::new(a.assignment.clone());
        let replay =
            run(&Oblivious(RandomizedMis::new()), &j, &mut src, &ExecConfig::default()).unwrap();
        assert_eq!(replay.outputs(), a.execution.outputs());
    }

    #[test]
    fn exhaustive_rejects_code_spaces_of_64_bits() {
        let j = generators::cycle(64).unwrap().with_uniform_label(());
        let order: Vec<NodeId> = j.graph().nodes().collect();
        let err = canonical_successful_simulation(
            &RandomizedMis::new(),
            &j,
            &order,
            SearchStrategy::Exhaustive { max_total_bits: 100 },
            &ExecConfig::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            CoreError::SearchBudgetExceeded { quotient_nodes: 64, max_total_bits: 100 }
        );
    }

    #[test]
    fn keyed_source_is_a_pure_function() {
        let order: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut a = KeyedSource::new(7, &order);
        let mut b = KeyedSource::new(7, &order);
        for r in 1..50 {
            for v in 0..4 {
                assert_eq!(a.bit(NodeId::new(v), r), b.bit(NodeId::new(v), r));
            }
        }
        // Different keys give different streams somewhere.
        let mut c = KeyedSource::new(8, &order);
        let differs = (1..200).any(|r| c.bit(NodeId::new(0), r) != b.bit(NodeId::new(0), r));
        assert!(differs);
    }
}
