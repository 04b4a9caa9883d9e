//! The canonical-search kernel: the first successful extension of a bit
//! assignment, in the paper's total order (Section 2.2).
//!
//! The derandomization's deterministic stage, `A_*`'s `Update-Bits` and
//! the derandomized `C3` decider all ask one question: of the extensions
//! of a base assignment to length `target`, enumerated in canonical order,
//! which is the first whose induced simulation is successful?
//! [`first_successful_extension`] answers it with the verdict, attempt
//! count and error of the literal loop that builds every assignment and
//! [`run`](crate::run)s it from round 1, at a fraction of the cost:
//!
//! * the code space is set up once per call (non-generic [`Plan`]): the
//!   `(round, node) → bit` table, the round of each code bit, the
//!   prefix-min of those rounds, a CSR neighbour list, the budget and the
//!   connectivity check;
//! * states after every round `r ≤ target` are kept as checkpoints, and
//!   each code resumes from the checkpoint just before the first round
//!   whose bits differ from the previous simulation's;
//! * a code whose bits differ only in rounds the previous simulation never
//!   executed gets its verdict without simulating.

use anonet_graph::{Graph, Label, LabeledGraph, NodeId};

use crate::algorithm::Actions;
use crate::assignment::BitAssignment;
use crate::engine::ExecConfig;
use crate::error::RuntimeError;
use crate::oblivious::ObliviousAlgorithm;
use crate::{recycle, Result};

/// A round's bit for a node: past the node's tape.
const NO_BIT: u8 = u8::MAX;
/// ...a base bit `0` or `1`; any other value `v` is code bit `v − CODE`.
const CODE: u8 = 2;
/// Node or round not reached yet.
const NEVER: usize = usize::MAX;

/// Enumerates the extensions of `base` in which every tape shorter than
/// `target` is extended to length `target`, in the canonical assignment
/// order of `order` (earlier nodes' bits are more significant; a node's
/// earlier rounds are more significant), and returns the first whose
/// induced simulation of `alg` on `j` is successful, with the number of
/// extensions attempted up to and including it. `None` means no
/// extension succeeded after all `2^bits` were attempted.
///
/// The result, the attempt count and any error are those of the literal
/// loop that, for each extension in order, runs
/// [`run`](crate::run)`(&Oblivious(alg), j, &mut TapeSource::new(ext), config)`
/// and stops at the first successful execution. Tapes longer than
/// `target` are kept as they are, and their rounds past `target` are
/// simulated like any other. `config`'s recording flags are ignored:
/// replay the winner through `run` for its [`Execution`](crate::Execution).
///
/// # Errors
///
/// * [`RuntimeError::AssignmentMismatch`] if `base` does not cover `j`;
/// * [`RuntimeError::InvalidOrder`] if `order` is not a permutation of
///   `j`'s nodes;
/// * [`RuntimeError::SearchSpaceTooLarge`] if the extension needs 64 or
///   more bits;
/// * [`RuntimeError::InvalidNetwork`] if `j` is not connected;
/// * [`RuntimeError::OutputConflict`] from the first extension whose
///   simulation overwrites an output, as `run` reports it.
pub fn first_successful_extension<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    config: &ExecConfig,
) -> Result<Option<(BitAssignment, usize)>>
where
    A: ObliviousAlgorithm,
    A::Input: Label,
{
    let plan = Plan::new(j.graph(), base, target, order)?;
    let mut sim = Checkpoints::new(alg, j, &plan);
    let found = plan.search(&mut |code, from| sim.simulate(alg, &plan, code, from, config))?;
    Ok(found.map(|(code, attempts)| (plan.extension(base, code), attempts)))
}

/// How one simulation ended: whether every node output, and how many
/// rounds it executed.
struct Verdict {
    successful: bool,
    rounds: usize,
}

/// The non-generic part of a search: the code space and the network.
struct Plan {
    n: usize,
    target: usize,
    /// Number of code bits.
    bits: usize,
    /// `tape[(r − 1)·n + v]`: node `v`'s bit in round `r`, for rounds up to
    /// the longest tape ([`NO_BIT`], a base bit, or `CODE + shift`).
    tape: Vec<u8>,
    /// `first_round[k]`: the earliest round among code bits `0..=k`, the
    /// first round that changes when code bits `0..=k` do.
    first_round: Vec<usize>,
    /// The network (a shared handle, not a copy).
    graph: Graph,
}

impl Plan {
    fn new(g: &Graph, base: &BitAssignment, target: usize, order: &[NodeId]) -> Result<Plan> {
        let n = g.node_count();
        if base.len() != n {
            return Err(RuntimeError::AssignmentMismatch {
                assignment_nodes: base.len(),
                graph_nodes: n,
            });
        }
        let mut seen = vec![false; n];
        if order.len() != n
            || order.iter().any(|v| v.index() >= n || std::mem::replace(&mut seen[v.index()], true))
        {
            return Err(RuntimeError::InvalidOrder {
                reason: format!("{order:?} is not a permutation of the {n} nodes"),
            });
        }
        let len = |v: NodeId| base.tapes()[v.index()].len();
        let bits: usize = order.iter().map(|&v| target.saturating_sub(len(v))).sum();
        if bits >= 64 {
            return Err(RuntimeError::SearchSpaceTooLarge { bits });
        }
        if !g.is_connected() {
            return Err(RuntimeError::InvalidNetwork { reason: "graph is not connected".into() });
        }

        // Code bits are node-major in `order`, the last node's last round
        // least significant: node v's round-r bit sits at `low[v] + target − r`.
        let mut low = vec![0usize; n];
        let mut next = 0;
        for &v in order.iter().rev() {
            low[v.index()] = next;
            next += target.saturating_sub(len(v));
        }
        let rounds = g.nodes().map(|v| len(v).max(target)).max().unwrap_or(0);
        let mut tape = vec![NO_BIT; rounds * n];
        let mut round_of = vec![0usize; bits];
        for v in g.nodes() {
            for (i, bit) in base.tapes()[v.index()].iter().enumerate() {
                tape[i * n + v.index()] = u8::from(bit);
            }
            for r in len(v) + 1..=target {
                let shift = low[v.index()] + target - r;
                tape[(r - 1) * n + v.index()] = CODE + shift as u8;
                round_of[shift] = r;
            }
        }
        let first_round = round_of
            .iter()
            .scan(NEVER, |min, &r| {
                *min = (*min).min(r);
                Some(*min)
            })
            .collect();
        Ok(Plan { n, target, bits, tape, first_round, graph: g.clone() })
    }

    /// Node `v`'s bit in `round` under `code`, or `None` past its tape.
    fn bit(&self, code: u64, round: usize, v: usize) -> Option<bool> {
        match self.tape.get((round - 1) * self.n + v).copied().unwrap_or(NO_BIT) {
            NO_BIT => None,
            b if b < CODE => Some(b == 1),
            c => Some((code >> (c - CODE)) & 1 == 1),
        }
    }

    /// Enumerates the codes in order and returns the first successful one
    /// with the attempt count. `simulate(code, from)` resumes from the
    /// state after round `from − 1`, which it must hold for every round
    /// before the first one the code changes.
    fn search(
        &self,
        simulate: &mut dyn FnMut(u64, usize) -> Result<Verdict>,
    ) -> Result<Option<(u64, usize)>> {
        // Earliest round changed since the last simulation, and the rounds
        // that simulation executed.
        let mut changed = 1;
        let mut executed = 0;
        for code in 0..1u64 << self.bits {
            if code > 0 {
                changed = changed.min(self.first_round[code.trailing_zeros() as usize]);
                if changed > executed {
                    // Same bits in every executed round, and the next
                    // round's fate depends only on which nodes have bits:
                    // the previous (unsuccessful) verdict stands.
                    continue;
                }
            }
            let verdict = simulate(code, changed)?;
            if verdict.successful {
                return Ok(Some((code, code as usize + 1)));
            }
            (changed, executed) = (NEVER, verdict.rounds);
        }
        Ok(None)
    }

    /// `base` extended by `code`'s bits.
    fn extension(&self, base: &BitAssignment, code: u64) -> BitAssignment {
        let tapes = base
            .tapes()
            .iter()
            .enumerate()
            .map(|(v, tape)| {
                let mut tape = tape.clone();
                for r in tape.len() + 1..=self.target {
                    tape.push(self.bit(code, r, v) == Some(true));
                }
                tape
            })
            .collect();
        BitAssignment::new(tapes)
    }
}

/// The generic part of a search: checkpointed node states and the round
/// loop.
struct Checkpoints<A: ObliviousAlgorithm> {
    /// `states[r·n + v]`: node `v`'s state after round `r ≤ target`. Rounds
    /// past `target` step the last slot in place. A node's slots after
    /// its halting round are stale and never read.
    states: Vec<A::State>,
    outputs: Vec<Option<A::Output>>,
    /// The round each node output in, or [`NEVER`].
    output_round: Vec<usize>,
    /// The round each node halted in, or [`NEVER`].
    halt_round: Vec<usize>,
    bits: Vec<bool>,
    messages: Vec<Option<A::Message>>,
    /// Spare capacity for one node's received references.
    received: Vec<&'static ()>,
}

impl<A: ObliviousAlgorithm> Checkpoints<A> {
    fn new(alg: &A, j: &LabeledGraph<A::Input>, plan: &Plan) -> Self
    where
        A::Input: Label,
    {
        let g = j.graph();
        let init: Vec<A::State> = g.nodes().map(|v| alg.init(j.label(v), g.degree(v))).collect();
        let max_degree = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0);
        Checkpoints {
            states: (0..=plan.target).flat_map(|_| init.iter().cloned()).collect(),
            outputs: vec![None; plan.n],
            output_round: vec![NEVER; plan.n],
            halt_round: vec![NEVER; plan.n],
            bits: vec![false; plan.n],
            messages: vec![None; plan.n],
            received: Vec::with_capacity(max_degree),
        }
    }

    /// Simulates `code` from round `from`, the checkpoint after round
    /// `from − 1` being valid for it, exactly as `run` would.
    fn simulate(
        &mut self,
        alg: &A,
        plan: &Plan,
        code: u64,
        from: usize,
        config: &ExecConfig,
    ) -> Result<Verdict> {
        let n = plan.n;
        for v in 0..n {
            if self.halt_round[v] >= from {
                self.halt_round[v] = NEVER;
            }
            if self.output_round[v] >= from {
                self.output_round[v] = NEVER;
                self.outputs[v] = None;
            }
        }
        let mut rounds = from - 1;
        loop {
            if self.halt_round.iter().all(|&h| h != NEVER) {
                break;
            }
            let round = rounds + 1;
            if round > config.max_rounds {
                break;
            }
            let mut exhausted = false;
            for v in 0..n {
                if self.halt_round[v] == NEVER {
                    match plan.bit(code, round, v) {
                        Some(b) => self.bits[v] = b,
                        None => {
                            exhausted = true;
                            break;
                        }
                    }
                }
            }
            if exhausted {
                break;
            }

            let prev = (round - 1).min(plan.target) * n;
            let cur = round.min(plan.target) * n;
            for v in 0..n {
                self.messages[v] = if self.halt_round[v] == NEVER {
                    alg.broadcast(&self.states[prev + v])
                } else {
                    None
                };
            }
            let mut received = recycle(std::mem::take(&mut self.received));
            for v in 0..n {
                if self.halt_round[v] != NEVER {
                    continue;
                }
                received.clear();
                received.extend(
                    plan.graph
                        .neighbors(NodeId::new(v))
                        .iter()
                        .filter_map(|u| self.messages[u.index()].as_ref()),
                );
                received.sort();
                let state = self.states[prev + v].clone();
                let mut actions = Actions::new(self.outputs[v].take());
                self.states[cur + v] =
                    alg.step(state, round, &received, self.bits[v], &mut actions);
                if actions.output_written {
                    return Err(RuntimeError::OutputConflict { node: NodeId::new(v), round });
                }
                if self.output_round[v] == NEVER && actions.output.is_some() {
                    self.output_round[v] = round;
                }
                self.outputs[v] = actions.output;
                if actions.halt {
                    self.halt_round[v] = round;
                }
            }
            self.received = recycle(received);
            rounds = round;
        }
        Ok(Verdict { successful: self.outputs.iter().all(Option::is_some), rounds })
    }
}
