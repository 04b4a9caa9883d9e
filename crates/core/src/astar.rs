//! `A_*` — the paper's Figure 3, faithfully.
//!
//! The deterministic algorithm proving Theorem 1 proceeds in phases
//! `p = 1, 2, …`; in phase `p` every node `v` independently runs:
//!
//! * **Update-Graph** — gather `L_p(v, I^p)` (the depth-`p` view of the
//!   instance augmented with the evolving bitstring labels `b^p`), build
//!   the set `𝓕` of *candidates* (graphs with ≤ `p` nodes, a matching
//!   view, and a legal `Π^c` part — see [`crate::candidates`] for why the
//!   enumeration over view labels is complete), and select the smallest
//!   finite view graph `Ĝ_*` under the `(|V̂_*|, s(Ĝ_*))` order;
//! * **Update-Output** — simulate `A_R` on `(V̂_*, Ê_*, î_*)` with the
//!   tapes `b̂_*`; on success adopt `v̊`'s output;
//! * **Update-Bits** — find the lexicographically smallest `p`-extension
//!   of `b̂_*` inducing a successful simulation and extend `b(v)`
//!   accordingly.
//!
//! Phase `p` of the real message-passing algorithm costs `p` rounds of
//! communication (gathering the view); these drivers compute each node's
//! phase from its view — the reference from the explicit [`ViewTree`],
//! the fast path from a view id equal exactly when the views are — so
//! every quantity is a function of the view, which is the model-theoretic
//! requirement, and report the equivalent round count.
//!
//! ## Engines
//!
//! Two engines compute the *same function*:
//!
//! * [`run_astar`] / [`run_astar_observed`] — the **fast path** (default):
//!   `Update-Graph` runs against the [`crate::astar_cache`] memo —
//!   candidate pools built once per `(p_capped, universe)` over 2-hop
//!   colored labelings only, one per labeled-isomorphism class, the C2
//!   scan replaced by one hash lookup of
//!   the node's layered view id in a per-depth selection index, and
//!   each phase's label universes built once per distinct universe from
//!   bitset sweeps; `Update-Output` and
//!   `Update-Bits` run once per distinct candidate selected in a phase,
//!   since they depend on the node only through its image `v̊` (DESIGN
//!   §8.4);
//! * [`run_astar_reference`] — the literal per-node enumeration, kept as
//!   the semantic baseline (no spans: only the fast path is traced). The
//!   testkit's differential oracle pins `fast ≡ reference` byte-for-byte
//!   (outputs, output phases, final bits, phase counts) across problem
//!   families and adversarial schedules.
//!
//! On *successful* runs the engines agree exactly. On runs that abort with
//! a budget or view error the fast path may surface a different (equally
//! legitimate) error than the reference: it prepares pools for the whole
//! phase before building any node view, while the reference interleaves
//! the two per node — the reference is authoritative for error-order
//! fidelity. The candidate enumeration is doubly exponential by design (it
//! is in the paper, too); even the fast path is meant for the small
//! instances of experiments E3/E9/E17, with the engineering-grade path
//! provided by [`crate::derandomizer`].

use std::collections::HashMap;

use anonet_graph::{distance, BitString, Label, LabeledGraph, NodeId};
use anonet_obs::{names, NoopRecorder, Recorder, Span};
use anonet_runtime::{
    run, BitAssignment, ExecConfig, Oblivious, ObliviousAlgorithm, Problem, TapeSource,
};
use anonet_views::{
    canonical_order, quotient, update_graph_cmp, FastHash, ViewMode, ViewQuotient, ViewTree,
};

use crate::astar_cache::{AstarCache, CandidateLabel, CandidateQuotient, PhaseViews, PoolKey};
use crate::candidates::candidate_pool;
use crate::error::CoreError;
use crate::search::first_extension;
use crate::Result;

/// Budgets and knobs for [`run_astar`].
#[derive(Clone, Copy, Debug)]
pub struct AStarConfig {
    /// Hard cap on phases (the paper's `z + 1` must fall below it).
    pub max_phases: usize,
    /// Cap on candidate node counts (the paper's C1 allows up to `p`;
    /// enumeration beyond 4–5 nodes is infeasible). Must be at least the
    /// instance's quotient size for convergence.
    pub max_candidate_nodes: usize,
    /// Cap on total extension bits searched per `Update-Bits` call; 64 or
    /// more bits exceed any cap.
    pub max_extension_bits: usize,
    /// Execution config for the quotient simulations.
    pub sim_config: ExecConfig,
}

impl Default for AStarConfig {
    fn default() -> Self {
        AStarConfig {
            max_phases: 12,
            max_candidate_nodes: 4,
            max_extension_bits: 18,
            sim_config: ExecConfig::default(),
        }
    }
}

/// The outcome of running `A_*`.
#[derive(Clone, Debug)]
pub struct AStarRun<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// The phase in which the last node output (the paper's `z + 1`).
    pub phases_used: usize,
    /// Communication rounds of the message-level realization
    /// (`Σ_{p=1..phases} p`).
    pub equivalent_rounds: usize,
    /// Phase in which each node first output.
    pub output_phase: Vec<usize>,
    /// Final bitstring labels `b`.
    pub final_bits: Vec<BitString>,
}

/// Runs the faithful `A_*` for problem `problem`, randomized solver
/// `alg`, on the 2-hop colored instance `instance` (labels `(input,
/// color)`) — fast path.
///
/// # Errors
///
/// Budget errors ([`CoreError::PhaseBudgetExceeded`],
/// [`CoreError::EnumerationTooLarge`],
/// [`CoreError::SearchBudgetExceeded`]); view errors for oversized
/// explicit views; [`CoreError::InconsistentOutput`] if two phases
/// disagree on a node's output (impossible per Lemma 9 — a bug trap).
pub fn run_astar<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    run_astar_observed(alg, problem, instance, cfg, &NoopRecorder)
}

/// [`run_astar`] under an observability [`Recorder`]. Each phase reports
/// an `astar/prepare` span (candidate pools, selection indexes and the
/// instance's view ids), one `update_graph` span per node (its C2
/// lookup), and one `update_output` plus one
/// `update_bits` span per *distinct selected candidate* — every node that
/// selected the same candidate reads its output and tape from that one
/// step — all nested under an `astar` parent, so aggregating backends
/// expose the wall-time breakdown of the paper's three Update-* rules.
/// The memo additionally reports `astar.pool.hit` / `astar.pool.miss`,
/// the size of each pool it builds (`astar.pool.candidates`), the
/// candidate quotients its selection indexes build
/// (`astar.pool.quotients`) and the per-node C2 lookup counters. With the
/// no-op recorder this is exactly [`run_astar`].
///
/// # Errors
///
/// See [`run_astar`].
pub fn run_astar_observed<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let _astar_span = Span::new(rec, names::SPAN_ASTAR);
    let g = instance.graph();
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut state = AStarState::new(nodes.len());
    let mut cache: AstarCache<A::Input, C> = AstarCache::new();

    for p in 1..=cfg.max_phases {
        state.equivalent_rounds += p;
        let ip = augment(instance, &state.bits)?;
        let prepare_span = Span::new(rec, names::SPAN_ASTAR_PREPARE);
        let plan = prepare_phase(&mut cache, problem, &ip, p, cfg, rec)?;
        drop(prepare_span);
        let phase = astar_phase(alg, &nodes, p, &plan, &cache, cfg, rec);
        if let Some(done) = state.commit_phase(phase, p)? {
            return Ok(done);
        }
    }
    Err(CoreError::PhaseBudgetExceeded { phases: cfg.max_phases })
}

/// `I^p`: the instance augmented with the current bitstring labels.
fn augment<I: Label, C: Label>(
    instance: &LabeledGraph<(I, C)>,
    bits: &[BitString],
) -> Result<LabeledGraph<CandidateLabel<I, C>>> {
    let g = instance.graph();
    let full_labels: Vec<CandidateLabel<I, C>> =
        g.nodes().map(|v| (instance.label(v).clone(), bits[v.index()].clone())).collect();
    Ok(g.with_labels(full_labels)?)
}

/// Phase `p`'s Update-Graph inputs, per node: the key of its candidate
/// pool and its depth-`p` view id (see [`AstarCache::view_ids`]).
pub(crate) struct PhasePlan {
    pub(crate) keys: Vec<PoolKey>,
    pub(crate) views: PhaseViews,
}

/// Phase-`p` setup against the memo: the radius-`(p − 1)` universes,
/// built once per distinct universe, the instance's depth-`p` view ids,
/// interned, and then one [`AstarCache::ensure_pool`] per node — a hash
/// lookup for every node after the first in its universe class — whose
/// index builds look the candidates' views up against those ids.
pub(crate) fn prepare_phase<I, C, P>(
    cache: &mut AstarCache<I, C>,
    problem: &P,
    ip: &LabeledGraph<CandidateLabel<I, C>>,
    p: usize,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> Result<PhasePlan>
where
    I: Label,
    C: Label,
    P: Problem<Input = I>,
{
    let universes = cache.phase_universes(ip, p - 1);
    let views = cache.view_ids(ip, p);
    let p_capped = p.min(cfg.max_candidate_nodes);
    let keys = ip
        .graph()
        .nodes()
        .map(|v| cache.ensure_pool(problem, p_capped, &views, universes.of(v), rec))
        .collect::<Result<_>>()?;
    Ok(PhasePlan { keys, views })
}

/// One phase's results, before the commit: per node, its Update-Graph
/// outcome — the slot of its selected candidate in `steps` and its image
/// `v̊` there, or `None` if it skips the phase — and per distinct selected
/// candidate, the shared Update-Output/Update-Bits step.
struct PhaseResults<O> {
    selections: Vec<Result<Option<(usize, NodeId)>>>,
    steps: Vec<Result<CandidateStep<O>>>,
}

/// Update-Output and Update-Bits for one selected candidate. Both depend
/// on the selecting node only through its image `v̊`, so one step serves
/// every node that selected the candidate in this phase.
struct CandidateStep<O> {
    /// Every quotient node's output under the candidate's own tapes, if
    /// that simulation succeeded.
    outputs: Option<Vec<Option<O>>>,
    /// The lexicographically smallest successful `p`-extension, if any.
    extension: Option<BitAssignment>,
}

/// Phase `p` of the fast engine, in three steps:
///
/// 1. per node, Update-Graph: the C2 lookup of its depth-`p` view id in
///    the pool's selection index;
/// 2. per distinct selected `(PoolKey, candidate index)`, listed in order
///    of first selection in node order, one [`candidate_step`];
/// 3. (in [`AStarState::commit_phase`]) per node, read `v̊`'s output and
///    tape from its candidate's step.
///
/// Errors are kept per node and per step, so the commit reports the first
/// in node order. The candidate memo lives for this phase only:
/// Update-Bits extends tapes to length `p`, so a candidate selected again
/// in a later phase needs a fresh step.
fn astar_phase<A, C>(
    alg: &A,
    nodes: &[NodeId],
    p: usize,
    plan: &PhasePlan,
    cache: &AstarCache<A::Input, C>,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> PhaseResults<A::Output>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    let mut slot_of: HashMap<(PoolKey, usize), usize, FastHash> = HashMap::default();
    let mut candidates: Vec<&CandidateQuotient<A::Input, C>> = Vec::new();
    let selections = nodes
        .iter()
        .map(|&v| {
            Ok(update_graph(v, p, plan, cache, rec)?.map(|(id, q, v_star)| {
                let slot = *slot_of.entry(id).or_insert_with(|| {
                    candidates.push(q);
                    candidates.len() - 1
                });
                (slot, v_star)
            }))
        })
        .collect();

    let steps = candidates.iter().map(|q| candidate_step(alg, q, p, cfg, rec)).collect();
    PhaseResults { selections, steps }
}

/// A node's selection: `((pool key, candidate index), Ĝ_*, v̊)`.
type Selection<'c, I, C> = ((PoolKey, usize), &'c CandidateQuotient<I, C>, NodeId);

/// One node's Update-Graph in phase `p`: its depth-`p` view id looked up
/// in the pool's selection index.
fn update_graph<'c, I: Label, C: Label>(
    v: NodeId,
    p: usize,
    plan: &PhasePlan,
    cache: &'c AstarCache<I, C>,
    rec: &dyn Recorder,
) -> Result<Option<Selection<'c, I, C>>> {
    let _update_graph_span = Span::new(rec, names::SPAN_UPDATE_GRAPH);
    let view = plan.views.id(v)?;
    if rec.is_enabled() {
        rec.counter(names::ASTAR_C2_LOOKUPS, 1);
    }
    let key = plan.keys[v.index()];
    let selected = cache.select(key, p, view);
    if selected.is_some() && rec.is_enabled() {
        rec.counter(names::ASTAR_C2_HITS, 1);
    }
    Ok(selected.map(|(idx, q, v_star)| ((key, idx), q, v_star)))
}

/// Update-Output (simulate `A_R` on the candidate with its tapes) and
/// Update-Bits (smallest successful `p`-extension) for one candidate.
fn candidate_step<A, C>(
    alg: &A,
    q: &CandidateQuotient<A::Input, C>,
    p: usize,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> Result<CandidateStep<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    C: Label,
{
    let order = q.canonical_order();
    let j = q.graph().map_labels(|((i, _c), _b)| i.clone());
    let tapes: Vec<BitString> = q.graph().labels().iter().map(|(_ic, b)| b.clone()).collect();
    let assignment = BitAssignment::new(tapes);

    let update_output_span = Span::new(rec, names::SPAN_UPDATE_OUTPUT);
    let mut src = TapeSource::new(assignment.clone());
    let exec = run(&Oblivious(alg.clone()), &j, &mut src, &cfg.sim_config)?;
    let outputs = exec.is_successful().then(|| exec.outputs().to_vec());
    drop(update_output_span);

    let _update_bits_span = Span::new(rec, names::SPAN_UPDATE_BITS);
    let extension = smallest_successful_extension(alg, &j, &assignment, p, &order, cfg)?;
    Ok(CandidateStep { outputs, extension })
}

/// The fast engine's mutable run state; phase results are committed in
/// node order.
struct AStarState<O> {
    bits: Vec<BitString>,
    outputs: Vec<Option<O>>,
    output_phase: Vec<usize>,
    equivalent_rounds: usize,
}

impl<O: Clone + PartialEq> AStarState<O> {
    fn new(n: usize) -> Self {
        AStarState {
            bits: vec![BitString::new(); n],
            outputs: vec![None; n],
            output_phase: vec![0; n],
            equivalent_rounds: 0,
        }
    }

    /// Applies one phase's results in node order — each node reads `v̊`'s
    /// output and extended tape from its candidate's step, adopts the
    /// output (trapping Lemma-9 inconsistencies) and extends its
    /// bitstring — and returns the finished run once every node has
    /// output. A node's error is its own Update-Graph error or its
    /// candidate's; the first in node order wins.
    fn commit_phase(&mut self, phase: PhaseResults<O>, p: usize) -> Result<Option<AStarRun<O>>> {
        let mut new_bits = self.bits.clone();
        for (v, selection) in phase.selections.into_iter().enumerate() {
            let Some((slot, v_star)) = selection? else { continue }; // skip phase p at v
            let step = phase.steps[slot].as_ref().map_err(CoreError::clone)?;
            if let Some(outputs) = &step.outputs {
                let out =
                    outputs.get(v_star.index()).and_then(Option::as_ref).ok_or_else(|| {
                        CoreError::internal("successful simulations output everywhere")
                    })?;
                match &self.outputs[v] {
                    Some(existing) if existing != out => {
                        return Err(CoreError::InconsistentOutput { node: v, phase: p });
                    }
                    Some(_) => {}
                    None => {
                        self.outputs[v] = Some(out.clone());
                        self.output_phase[v] = p;
                    }
                }
            }
            if let Some(b_min) = &step.extension {
                let tape = b_min
                    .tape(v_star)
                    .ok_or_else(|| CoreError::internal("extension covers the quotient"))?;
                new_bits[v] = tape.clone();
            }
        }
        self.bits = new_bits;

        if self.outputs.iter().all(Option::is_some) {
            let outputs = std::mem::take(&mut self.outputs)
                .into_iter()
                .map(|o| o.ok_or_else(|| CoreError::internal("all outputs checked present")))
                .collect::<Result<Vec<O>>>()?;
            return Ok(Some(AStarRun {
                outputs,
                phases_used: p,
                equivalent_rounds: self.equivalent_rounds,
                output_phase: std::mem::take(&mut self.output_phase),
                final_bits: std::mem::take(&mut self.bits),
            }));
        }
        Ok(None)
    }
}

/// The literal Figure-3 realization: per node per phase, rebuild the
/// candidate pool and scan it for the minimal matching candidate. Kept as
/// the semantic baseline for [`run_astar`]'s memoized engine — the
/// `astar-fast-vs-reference` differential oracle compares the two
/// byte-for-byte.
///
/// # Errors
///
/// See [`run_astar`]; on aborting runs this path's error order is the
/// authoritative one.
pub fn run_astar_reference<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let g = instance.graph();
    let n = g.node_count();
    let mut bits: Vec<BitString> = vec![BitString::new(); n];
    let mut outputs: Vec<Option<A::Output>> = vec![None; n];
    let mut output_phase: Vec<usize> = vec![0; n];
    let mut equivalent_rounds = 0usize;

    for p in 1..=cfg.max_phases {
        equivalent_rounds += p;
        let ip = augment(instance, &bits)?;

        // Candidate views are per-candidate, shared across nodes; node
        // views are per-node. Both depend on the phase only.
        let mut new_bits = bits.clone();
        for v in g.nodes() {
            let view_v = ViewTree::build(&ip, v, p)?.canonical_encoding();

            // The label universe: marks occurring in L_p(v, I^p), i.e.
            // labels within p-1 hops (complete for candidates ≤ p nodes).
            let mut universe: Vec<CandidateLabel<A::Input, C>> =
                distance::ball(g, v, p - 1).into_iter().map(|u| ip.label(u).clone()).collect();
            universe.sort();
            universe.dedup();

            // Update-Graph: scan the pool for candidates, select the
            // minimal finite view graph.
            let pool = candidate_pool(p.min(cfg.max_candidate_nodes), &universe)?;
            // The selected candidate's finite view graph and v's node in it.
            type Selected<I, C> = (ViewQuotient<CandidateLabel<I, C>>, NodeId);
            let mut selected: Option<Selected<A::Input, C>> = None;
            for cand in &pool {
                // C2: a node with the same depth-p view.
                let mut v_hat = None;
                for u in cand.graph().nodes() {
                    let enc = ViewTree::build(cand, u, p)?.canonical_encoding();
                    if enc == view_v {
                        v_hat = Some(u);
                        break;
                    }
                }
                let Some(v_hat) = v_hat else { continue };
                // C3: the (î, ĉ) part is an instance of Π^c.
                let inputs_only = cand.map_labels(|((i, _c), _b)| i.clone());
                if !problem.is_instance(&inputs_only) {
                    continue;
                }
                let colors_only = cand.map_labels(|((_i, c), _b)| c.clone());
                if !anonet_graph::coloring::is_two_hop_coloring(&colors_only) {
                    continue;
                }
                // Finite view graph of the candidate.
                let Ok(q) = quotient(cand, ViewMode::Portless) else { continue };
                let better = match &selected {
                    None => true,
                    Some((best, _)) => {
                        update_graph_cmp(q.graph(), best.graph(), ViewMode::Portless)?
                            == std::cmp::Ordering::Less
                    }
                };
                if better {
                    let v_star = q.project(v_hat);
                    selected = Some((q, v_star));
                }
            }
            let Some((q, v_star)) = selected else { continue }; // skip phase p at v

            let order = canonical_order(q.graph(), ViewMode::Portless)?;
            let j = q.graph().map_labels(|((i, _c), _b)| i.clone());
            let tapes: Vec<BitString> =
                q.graph().labels().iter().map(|(_ic, b)| b.clone()).collect();
            let assignment = BitAssignment::new(tapes);

            // Update-Output: simulate with the candidate's tapes.
            let mut src = TapeSource::new(assignment.clone());
            let exec = run(&Oblivious(alg.clone()), &j, &mut src, &cfg.sim_config)?;
            if exec.is_successful() {
                // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                let out = exec.output(v_star).expect("successful simulations output everywhere");
                match &outputs[v.index()] {
                    Some(existing) if existing != out => {
                        return Err(CoreError::InconsistentOutput { node: v.index(), phase: p });
                    }
                    Some(_) => {}
                    None => {
                        outputs[v.index()] = Some(out.clone());
                        output_phase[v.index()] = p;
                    }
                }
            }

            // Update-Bits: smallest p-extension inducing success.
            if let Some(b_min) =
                smallest_successful_extension_literal(alg, &j, &assignment, p, &order, cfg)?
            {
                new_bits[v.index()] =
                    // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                    b_min.tape(v_star).expect("extension covers the quotient").clone();
            }
        }
        bits = new_bits;

        if outputs.iter().all(Option::is_some) {
            return Ok(AStarRun {
                // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                outputs: outputs.into_iter().map(|o| o.expect("just checked")).collect(),
                phases_used: p,
                equivalent_rounds,
                output_phase,
                final_bits: bits,
            });
        }
    }
    Err(CoreError::PhaseBudgetExceeded { phases: cfg.max_phases })
}

/// Update-Bits: the first extension of `base` in which every tape
/// reaches length `target` (the paper's *p-extensions*), in the canonical
/// assignment order, that induces a successful simulation — found by the
/// canonical-search kernel.
fn smallest_successful_extension<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    cfg: &AStarConfig,
) -> Result<Option<BitAssignment>>
where
    A: ObliviousAlgorithm,
    A::Input: Label,
{
    extension_bits(j, base, target, order, cfg)?;
    let found =
        first_extension(alg, j, base, target, order, &cfg.sim_config, cfg.max_extension_bits)?;
    Ok(found.map(|(assignment, _)| assignment))
}

/// [`smallest_successful_extension`] the literal way, for the reference
/// engine: every extension is built and run from round 1.
fn smallest_successful_extension_literal<A>(
    alg: &A,
    j: &LabeledGraph<A::Input>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    cfg: &AStarConfig,
) -> Result<Option<BitAssignment>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let total = extension_bits(j, base, target, order, cfg)?;
    for code in 0u64..(1u64 << total) {
        let mut tapes = base.tapes().to_vec();
        let mut shift = total;
        for &v in order {
            for _ in base.tapes()[v.index()].len()..target {
                shift -= 1;
                tapes[v.index()].push((code >> shift) & 1 == 1);
            }
        }
        let assignment = BitAssignment::new(tapes);
        let mut src = TapeSource::new(assignment.clone());
        let exec = run(&Oblivious(alg.clone()), j, &mut src, &cfg.sim_config)?;
        if exec.is_successful() {
            return Ok(Some(assignment));
        }
    }
    Ok(None)
}

/// The number of bits Update-Bits enumerates, checked against the budget
/// (and against 64, beyond which codes do not fit a `u64`).
fn extension_bits<I: Label>(
    j: &LabeledGraph<I>,
    base: &BitAssignment,
    target: usize,
    order: &[NodeId],
    cfg: &AStarConfig,
) -> Result<usize> {
    let total: usize =
        order.iter().map(|&v| target.saturating_sub(base.tape(v).map_or(0, BitString::len))).sum();
    if total > cfg.max_extension_bits || total >= 64 {
        return Err(CoreError::SearchBudgetExceeded {
            quotient_nodes: j.node_count(),
            max_total_bits: cfg.max_extension_bits,
        });
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::MisProblem;
    use anonet_graph::generators;

    fn triangle_instance() -> LabeledGraph<((), u32)> {
        generators::cycle(3).unwrap().with_labels(vec![((), 1u32), ((), 2), ((), 3)]).unwrap()
    }

    fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(a: &AStarRun<O>, b: &AStarRun<O>) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.phases_used, b.phases_used);
        assert_eq!(a.equivalent_rounds, b.equivalent_rounds);
        assert_eq!(a.output_phase, b.output_phase);
        assert_eq!(a.final_bits, b.final_bits);
    }

    #[test]
    fn astar_solves_mis_on_the_colored_triangle() {
        let inst = triangle_instance();
        let run =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs), "outputs: {:?}", run.outputs);
        assert!(run.phases_used <= 12);
        assert!(run.equivalent_rounds >= run.phases_used);
        // Everyone ends with the same tape length (the converged b').
        let lens: Vec<usize> = run.final_bits.iter().map(BitString::len).collect();
        assert!(lens.iter().all(|&l| l == lens[0] || l + 1 == lens[0] || l == lens[0] + 1));
    }

    #[test]
    fn astar_is_deterministic() {
        let inst = triangle_instance();
        let a =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let b =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        assert_runs_identical(&a, &b);
    }

    #[test]
    fn astar_solves_mis_on_the_colored_path() {
        // P2 with distinct colors: the smallest nontrivial instance.
        let inst = generators::path(2).unwrap().with_labels(vec![((), 1u32), ((), 2)]).unwrap();
        let run =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs));
        assert_eq!(run.outputs.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn astar_handles_a_second_problem_maximal_matching() {
        use anonet_algorithms::matching::{MatchingProblem, RandomizedMatching};
        // P2 colored 10, 20; matching inputs are the colors themselves.
        let inst =
            generators::path(2).unwrap().with_labels(vec![(10u32, 10u32), (20, 20)]).unwrap();
        let run = run_astar(
            &RandomizedMatching::<u32>::new(),
            &MatchingProblem,
            &inst,
            &AStarConfig::default(),
        )
        .unwrap();
        let colors = inst.map_labels(|(i, _)| *i);
        assert!(
            MatchingProblem.is_valid_output(&colors, &run.outputs),
            "outputs: {:?}",
            run.outputs
        );
        // P2's only edge must be matched.
        assert_eq!(run.outputs, vec![Some(20), Some(10)]);
    }

    #[test]
    fn fast_path_matches_the_reference_byte_for_byte() {
        let cfg = AStarConfig::default();
        let inst = triangle_instance();
        let fast = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        let reference =
            run_astar_reference(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        assert_runs_identical(&fast, &reference);

        use anonet_algorithms::matching::{MatchingProblem, RandomizedMatching};
        let p2 = generators::path(2).unwrap().with_labels(vec![(10u32, 10u32), (20, 20)]).unwrap();
        let fast = run_astar(&RandomizedMatching::<u32>::new(), &MatchingProblem, &p2, &cfg);
        let reference =
            run_astar_reference(&RandomizedMatching::<u32>::new(), &MatchingProblem, &p2, &cfg);
        assert_runs_identical(&fast.unwrap(), &reference.unwrap());
    }

    #[test]
    fn observed_astar_reports_phase_spans_and_matches_plain() {
        let inst = triangle_instance();
        let rec = anonet_obs::MemoryRecorder::new();
        let observed = run_astar_observed(
            &RandomizedMis::new(),
            &MisProblem,
            &inst,
            &AStarConfig::default(),
            &rec,
        )
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.span("astar").unwrap().count, 1);
        let ug = snap.span("astar/update_graph").unwrap();
        assert!(ug.count >= 3, "one Update-Graph per node per phase, got {}", ug.count);
        assert!(snap.span("astar/update_output").unwrap().count >= 1);
        assert!(snap.span("astar/update_bits").unwrap().count >= 1);
        assert_eq!(snap.span("astar/prepare").unwrap().count, observed.phases_used as u64);
        // The memo is exercised: the triangle's three nodes share one
        // universe, so all but the first pool request per phase must hit.
        assert!(snap.counter(names::ASTAR_POOL_HIT) > 0, "pool memo never hit");
        assert!(snap.counter(names::ASTAR_POOL_MISS) > 0);
        assert!(snap.counter(names::ASTAR_C2_LOOKUPS) >= snap.counter(names::ASTAR_C2_HITS));
        let plain =
            run_astar(&RandomizedMis::new(), &MisProblem, &inst, &AStarConfig::default()).unwrap();
        assert_eq!(observed.outputs, plain.outputs);
        assert_eq!(observed.final_bits, plain.final_bits);
    }

    #[test]
    fn candidate_steps_run_once_per_distinct_phase_candidate() {
        // The colored C12 is a 4-fold lift of the colored triangle: every
        // fibre shares one candidate per phase.
        let inst = anonet_graph::lift::cyclic_cycle_lift(3, 4)
            .unwrap()
            .lift_labels(&[((), 1u32), ((), 2), ((), 3)])
            .unwrap();
        let (alg, cfg) = (RandomizedMis::new(), AStarConfig::default());
        let rec = anonet_obs::MemoryRecorder::new();
        let run = run_astar_observed(&alg, &MisProblem, &inst, &cfg, &rec).unwrap();

        // Replay the run, collecting each phase's selected (pool key,
        // candidate index) pairs node by node.
        let nodes: Vec<NodeId> = inst.graph().nodes().collect();
        let mut cache: AstarCache<(), u32> = AstarCache::new();
        let mut state = AStarState::new(nodes.len());
        let mut distinct = 0usize;
        for p in 1..=run.phases_used {
            let ip = augment(&inst, &state.bits).unwrap();
            let plan = prepare_phase(&mut cache, &MisProblem, &ip, p, &cfg, &NoopRecorder).unwrap();
            let mut phase_pairs = std::collections::HashSet::new();
            for &v in &nodes {
                let key = plan.keys[v.index()];
                let view = plan.views.id(v).unwrap();
                if let Some((idx, _, _)) = cache.select(key, p, view) {
                    phase_pairs.insert((key, idx));
                }
            }
            distinct += phase_pairs.len();
            let phase = astar_phase(&alg, &nodes, p, &plan, &cache, &cfg, &NoopRecorder);
            let done = state.commit_phase(phase, p).unwrap();
            assert_eq!(done.is_some(), p == run.phases_used);
        }

        let snap = rec.snapshot();
        assert_eq!(snap.span_total(names::SPAN_UPDATE_BITS).count, distinct as u64);
        assert_eq!(snap.span_total(names::SPAN_UPDATE_OUTPUT).count, distinct as u64);
        assert!(4 * distinct as u64 <= snap.counter(names::ASTAR_C2_HITS));
    }

    #[test]
    fn phase_budget_is_enforced() {
        let inst = triangle_instance();
        let cfg = AStarConfig { max_phases: 2, ..Default::default() };
        let err = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap_err();
        assert!(matches!(err, CoreError::PhaseBudgetExceeded { phases: 2 }));
        let err = run_astar_reference(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap_err();
        assert!(matches!(err, CoreError::PhaseBudgetExceeded { phases: 2 }));
    }

    #[test]
    fn update_bits_rejects_code_spaces_of_64_bits_in_both_engines() {
        let j = generators::cycle(4).unwrap().with_uniform_label(());
        let order: Vec<NodeId> = j.graph().nodes().collect();
        let base = BitAssignment::empty(4);
        let cfg = AStarConfig { max_extension_bits: 100, ..AStarConfig::default() };
        let budget = CoreError::SearchBudgetExceeded { quotient_nodes: 4, max_total_bits: 100 };
        let alg = RandomizedMis::new();
        let fast = smallest_successful_extension(&alg, &j, &base, 16, &order, &cfg);
        assert_eq!(fast.unwrap_err(), budget);
        let literal = smallest_successful_extension_literal(&alg, &j, &base, 16, &order, &cfg);
        assert_eq!(literal.unwrap_err(), budget);
    }
}
