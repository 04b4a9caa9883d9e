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
//! communication (gathering the view); this driver computes each node's
//! phase from its explicit [`ViewTree`] — every quantity is a function of
//! the view, which is the model-theoretic requirement — and reports the
//! equivalent round count.
//!
//! ## Engines
//!
//! Two engines compute the *same function*:
//!
//! * [`run_astar`] / [`run_astar_observed`] — the **fast path** (default):
//!   `Update-Graph` runs against the [`crate::astar_cache`] memo —
//!   candidate pools built once per `(p_capped, universe)`, the C2 scan
//!   replaced by one hash lookup against a per-depth selection index, and
//!   balls-by-radius hoisted out of the node loop; `Update-Output` and
//!   `Update-Bits` run once per distinct candidate selected in a phase,
//!   since they depend on the node only through its image `v̊` (DESIGN
//!   §8.4);
//! * [`run_astar_reference`] / [`run_astar_reference_observed`] — the
//!   literal per-node enumeration, kept as the semantic baseline. The
//!   testkit's differential oracle pins `fast ≡ reference` byte-for-byte
//!   (outputs, output phases, final bits, phase counts) across problem
//!   families and adversarial schedules.
//!
//! [`run_astar_threaded`] additionally fans each phase's per-node and then
//! per-candidate steps across an [`anonet_batch`] scoped thread pool;
//! results are committed in node order, so the run is byte-identical at
//! every thread count.
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

use anonet_batch::{BatchScheduler, JobResult};
use anonet_graph::{distance, BitString, Label, LabeledGraph, NodeId};
use anonet_obs::{names, NoopRecorder, Recorder, SharedRecorder, Span};
use anonet_runtime::{
    run, BitAssignment, ExecConfig, Oblivious, ObliviousAlgorithm, Problem, TapeSource,
};
use anonet_views::{
    canonical_order, canonical_view_encoding, quotient, update_graph_cmp, ViewMode, ViewQuotient,
    ViewTree,
};

use crate::astar_cache::{AstarCache, CandidateLabel, CandidateQuotient, PoolKey};
use crate::candidates::candidate_pool;
use crate::error::CoreError;
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
    /// Cap on total extension bits searched per `Update-Bits` call.
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
/// color)`) — fast path, single-threaded.
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
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    P: Problem<Input = A::Input>,
    C: Label + Sync,
{
    run_astar_observed(alg, problem, instance, cfg, &NoopRecorder)
}

/// [`run_astar`] under an observability [`Recorder`]. Each phase reports
/// an `astar/prepare` span (candidate pools and selection indexes), one
/// `update_graph` span per node, and one `update_output` plus one
/// `update_bits` span per *distinct selected candidate* — every node that
/// selected the same candidate reads its output and tape from that one
/// step — all nested under an `astar` parent, so aggregating backends
/// expose the wall-time breakdown of the paper's three Update-* rules.
/// The memo additionally reports `astar.pool.hit` / `astar.pool.miss` and
/// the per-node C2 lookup counters. With the no-op recorder this is
/// exactly [`run_astar`].
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
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    P: Problem<Input = A::Input>,
    C: Label + Sync,
{
    drive_astar(alg, problem, instance, cfg, rec, &InOrder)
}

/// [`run_astar_observed`] with each phase fanned across `threads` scoped
/// workers on an [`anonet_batch::BatchScheduler`]: first the per-node
/// Update-Graph steps, then the per-candidate Update-Output/Update-Bits
/// steps. Steps only read shared phase state, candidates are listed in
/// order of first selection in node order, and the coordinator commits
/// results in node order, so the run is **byte-identical** to
/// [`run_astar`] at every thread count (`threads == 0` is treated as 1).
/// Tracing is causal across the fan-out: the scheduler adopts the `astar`
/// span as parent (via [`anonet_obs::TraceContext`]), so worker-side
/// `update_*` spans nest below `astar/batch_run/job` instead of becoming
/// fresh per-thread roots, and the per-phase tree reduces to the
/// sequential one once the scheduler segments are erased
/// ([`MemorySnapshot::reduced_span_paths`][anonet_obs::MemorySnapshot::reduced_span_paths]).
///
/// # Errors
///
/// See [`run_astar`]; the first failing node in node order wins.
///
/// # Panics
///
/// Re-raises panics from phase jobs (the scheduler isolates them; a panic
/// in one of `A_*`'s steps is a bug, not a recoverable outcome).
pub fn run_astar_threaded<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
    threads: usize,
    recorder: &SharedRecorder,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    P: Problem<Input = A::Input>,
    C: Label + Sync,
{
    let scheduler =
        BatchScheduler::with_threads(threads.max(1)).with_recorder(std::sync::Arc::clone(recorder));
    drive_astar(alg, problem, instance, cfg, &**recorder, &scheduler)
}

/// How a phase maps a step over its nodes or its candidates: in order on
/// the calling thread ([`InOrder`]) or across a [`BatchScheduler`]'s
/// workers. Either way the results come back in item order.
trait PhaseFan {
    fn fan<T, R, F>(&self, items: &[T], step: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync;
}

/// The sequential fan: a plain in-order map.
struct InOrder;

impl PhaseFan for InOrder {
    fn fan<T, R, F>(&self, items: &[T], step: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        Ok(items.iter().map(step).collect())
    }
}

impl PhaseFan for BatchScheduler {
    fn fan<T, R, F>(&self, items: &[T], step: F) -> Result<Vec<R>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Jobs wrap the step's typed result in their Ok value, so the
        // scheduler never renders a CoreError to a string; the commit
        // propagates the first error in node order.
        self.run(items, |_, item| Ok::<R, String>(step(item)))
            .results
            .into_iter()
            .map(|r| match r {
                JobResult::Ok(value) => Ok(value),
                JobResult::Failed(msg) => {
                    Err(CoreError::internal(format!("A_* phase jobs never return Err: {msg}")))
                }
                // Re-raising keeps the sequential panic semantics: a panic
                // in a phase step aborts the run either way.
                // anonet-lint: allow(panic-hygiene, reason = "re-raises a worker panic to preserve sequential semantics")
                JobResult::Panicked(msg) => panic!("A_* phase job panicked: {msg}"),
            })
            .collect()
    }
}

/// The fast engine's phase loop, shared by the sequential and threaded
/// drivers: prepare the phase's pools, run [`astar_phase`] through `fan`,
/// commit in node order.
fn drive_astar<A, P, C, F>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
    fan: &F,
) -> Result<AStarRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    P: Problem<Input = A::Input>,
    C: Label + Sync,
    F: PhaseFan,
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
        let keys = prepare_phase(&mut cache, problem, &ip, p, cfg, rec)?;
        drop(prepare_span);
        let phase = astar_phase(fan, alg, &ip, &nodes, p, &keys, &cache, cfg, rec)?;
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

/// Phase-`p` setup against the memo: per-node universes (cached balls at
/// radius `p - 1`), then one [`AstarCache::ensure_pool`] per node — a hash
/// lookup for every node after the first in its universe class.
fn prepare_phase<I, C, P>(
    cache: &mut AstarCache<I, C>,
    problem: &P,
    ip: &LabeledGraph<CandidateLabel<I, C>>,
    p: usize,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> Result<Vec<PoolKey>>
where
    I: Label,
    C: Label,
    P: Problem<Input = I>,
{
    let universes = cache.phase_universes(ip, p - 1);
    let p_capped = p.min(cfg.max_candidate_nodes);
    universes.iter().map(|u| cache.ensure_pool(problem, p_capped, p, u, rec)).collect()
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
/// 1. per node, Update-Graph: the canonical depth-`p` view and the C2
///    lookup against the pool's selection index;
/// 2. per distinct selected `(PoolKey, candidate index)`, listed in order
///    of first selection in node order, one [`candidate_step`];
/// 3. (in [`AStarState::commit_phase`]) per node, read `v̊`'s output and
///    tape from its candidate's step.
///
/// Steps 1 and 2 go through `fan`. The candidate memo lives for this
/// phase only: Update-Bits extends tapes to length `p`, so a candidate
/// selected again in a later phase needs a fresh step.
#[allow(clippy::too_many_arguments)]
fn astar_phase<A, C, F>(
    fan: &F,
    alg: &A,
    ip: &LabeledGraph<CandidateLabel<A::Input, C>>,
    nodes: &[NodeId],
    p: usize,
    keys: &[PoolKey],
    cache: &AstarCache<A::Input, C>,
    cfg: &AStarConfig,
    rec: &dyn Recorder,
) -> Result<PhaseResults<A::Output>>
where
    A: ObliviousAlgorithm + Clone + Sync,
    A::Input: Label + Sync,
    A::Output: Send,
    C: Label + Sync,
    F: PhaseFan,
{
    let selected = fan.fan(nodes, |&v| update_graph(ip, v, p, keys[v.index()], cache, rec))?;

    let mut slot_of: HashMap<(PoolKey, usize), usize> = HashMap::new();
    let mut candidates: Vec<&CandidateQuotient<A::Input, C>> = Vec::new();
    let selections = selected
        .into_iter()
        .map(|sel| {
            Ok(sel?.map(|(id, q, v_star)| {
                let slot = *slot_of.entry(id).or_insert_with(|| {
                    candidates.push(q);
                    candidates.len() - 1
                });
                (slot, v_star)
            }))
        })
        .collect();

    let steps = fan.fan(&candidates, |q| candidate_step(alg, q, p, cfg, rec))?;
    Ok(PhaseResults { selections, steps })
}

/// A node's selection: `((pool key, candidate index), Ĝ_*, v̊)`.
type Selection<'c, I, C> = ((PoolKey, usize), &'c CandidateQuotient<I, C>, NodeId);

/// One node's Update-Graph in phase `p`: its canonical depth-`p` view
/// looked up in the pool's selection index. Reads shared phase state only.
fn update_graph<'c, I: Label, C: Label>(
    ip: &LabeledGraph<CandidateLabel<I, C>>,
    v: NodeId,
    p: usize,
    key: PoolKey,
    cache: &'c AstarCache<I, C>,
    rec: &dyn Recorder,
) -> Result<Option<Selection<'c, I, C>>> {
    let _update_graph_span = Span::new(rec, names::SPAN_UPDATE_GRAPH);
    // Arena-backed build: byte-identical to `ViewTree::build(..)?.
    // canonical_encoding()` (pinned by the views tests and the testkit
    // oracle), allocation-free after the per-thread arena warms up.
    let view_v = canonical_view_encoding(ip, v, p)?;
    if rec.is_enabled() {
        rec.counter(names::ASTAR_C2_LOOKUPS, 1);
    }
    let selected = cache.select(key, p, &view_v);
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
    let order = canonical_order(q.graph(), ViewMode::Portless)?;
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

/// Mutable run state shared by the engines; phase results are committed
/// in node order regardless of the order they were computed in.
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
    run_astar_reference_observed(alg, problem, instance, cfg, &NoopRecorder)
}

/// [`run_astar_reference`] under a [`Recorder`] (same spans as
/// [`run_astar_observed`], without the memo counters).
///
/// # Errors
///
/// See [`run_astar`].
pub fn run_astar_reference_observed<A, P, C>(
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
            let update_graph_span = Span::new(rec, names::SPAN_UPDATE_GRAPH);
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
            drop(update_graph_span);
            let Some((q, v_star)) = selected else { continue }; // skip phase p at v

            let order = canonical_order(q.graph(), ViewMode::Portless)?;
            let j = q.graph().map_labels(|((i, _c), _b)| i.clone());
            let tapes: Vec<BitString> =
                q.graph().labels().iter().map(|(_ic, b)| b.clone()).collect();
            let assignment = BitAssignment::new(tapes);

            // Update-Output: simulate with the candidate's tapes.
            let update_output_span = Span::new(rec, names::SPAN_UPDATE_OUTPUT);
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
            drop(update_output_span);

            // Update-Bits: smallest p-extension inducing success.
            let update_bits_span = Span::new(rec, names::SPAN_UPDATE_BITS);
            if let Some(b_min) =
                smallest_successful_extension(alg, &j, &assignment, p, &order, cfg)?
            {
                new_bits[v.index()] =
                    // anonet-lint: allow(panic-hygiene, reason = "reference engine kept literal to Figure 3; conformance oracles diff it against the fast engine")
                    b_min.tape(v_star).expect("extension covers the quotient").clone();
            }
            drop(update_bits_span);
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

/// Enumerates the extensions of `base` in which every tape reaches length
/// exactly `target` (the paper's *p-extensions*), in the canonical
/// assignment order, returning the first that induces a successful
/// simulation.
fn smallest_successful_extension<A>(
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
    let extras: Vec<usize> = order
        .iter()
        .map(|&v| target.saturating_sub(base.tape(v).map_or(0, BitString::len)))
        .collect();
    let total: usize = extras.iter().sum();
    if total > cfg.max_extension_bits {
        return Err(CoreError::SearchBudgetExceeded {
            quotient_nodes: j.node_count(),
            max_total_bits: cfg.max_extension_bits,
        });
    }
    for code in 0u64..(1u64 << total) {
        let mut tapes = base.tapes().to_vec();
        let mut shift = total;
        for (k, &v) in order.iter().enumerate() {
            for _ in 0..extras[k] {
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
    fn threaded_astar_is_byte_identical_at_every_thread_count() {
        let cfg = AStarConfig::default();
        let inst = triangle_instance();
        let sequential = run_astar(&RandomizedMis::new(), &MisProblem, &inst, &cfg).unwrap();
        for threads in [1usize, 2, 8] {
            let par = run_astar_threaded(
                &RandomizedMis::new(),
                &MisProblem,
                &inst,
                &cfg,
                threads,
                &anonet_obs::noop(),
            )
            .unwrap();
            assert_runs_identical(&par, &sequential);
        }
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
            let keys = prepare_phase(&mut cache, &MisProblem, &ip, p, &cfg, &NoopRecorder).unwrap();
            let mut phase_pairs = std::collections::HashSet::new();
            for &v in &nodes {
                let view = canonical_view_encoding(&ip, v, p).unwrap();
                if let Some((idx, _, _)) = cache.select(keys[v.index()], p, &view) {
                    phase_pairs.insert((keys[v.index()], idx));
                }
            }
            distinct += phase_pairs.len();
            let phase =
                astar_phase(&InOrder, &alg, &ip, &nodes, p, &keys, &cache, &cfg, &NoopRecorder);
            let done = state.commit_phase(phase.unwrap(), p).unwrap();
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
}
