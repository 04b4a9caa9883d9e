//! The practical derandomizer: quotient → canonical simulation → lift.
//!
//! This is the construction the paper's `A_*` provably converges to
//! (Lemma 7): from phase `2n` on, every node has identified the true
//! finite view graph `I_*` and runs the same canonical simulation on it.
//! The derandomizer implements that converged behaviour directly:
//!
//! 1. compute the finite view graph `G_*` of the 2-hop colored instance
//!    and each node's image in it (both are functions of the node's view
//!    alone — classes *are* views);
//! 2. select the canonical successful simulation of the randomized
//!    algorithm `A_R` on the quotient ([`SearchStrategy`]);
//! 3. lift the quotient outputs along the projection.
//!
//! Every step is derived from views only, so the whole computation is
//! anonymous-computable; `anonet-core::astar` realizes it as the paper's
//! literal phase-by-phase algorithm, and experiment E9 checks the two
//! agree where both are feasible.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_batch::{CachedAssignment, DerandCache};
use anonet_graph::{BitString, Label, LabeledGraph};
use anonet_obs::{names, noop, Recorder, SharedRecorder, Span};
use anonet_runtime::{run, BitAssignment, ExecConfig, Oblivious, ObliviousAlgorithm, TapeSource};
use anonet_views::{quotient, ViewMode};

use crate::search::{canonical_successful_simulation, SearchStrategy};
use crate::Result;

/// The outcome of derandomizing one instance.
#[derive(Clone, Debug)]
pub struct DerandomizedRun<O> {
    /// Per-node outputs (lifted from the quotient simulation).
    pub outputs: Vec<O>,
    /// Size of the quotient `|V_*|`.
    pub quotient_nodes: usize,
    /// Fiber size `|V| / |V_*|`.
    pub multiplicity: usize,
    /// The bit assignment that induced the selected simulation.
    pub assignment: BitAssignment,
    /// Rounds the quotient simulation ran.
    pub simulation_rounds: usize,
    /// Simulations attempted before the canonical one succeeded. On a cache
    /// hit this reports the attempts of the *original* search, so the run is
    /// indistinguishable from an uncached one.
    pub attempts: usize,
    /// `true` if the canonical assignment came out of a [`DerandCache`].
    pub cache_hit: bool,
    /// Wall time of stage 1 (quotient construction + canonical order).
    pub quotient_time: Duration,
    /// Wall time of stage 2 (canonical-simulation search, or the single
    /// replay on a cache hit) plus the output lift.
    pub search_time: Duration,
}

/// Derandomizes a port-oblivious Las-Vegas algorithm on 2-hop colored
/// instances (paper, Theorem 1's deterministic stage).
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_runtime::Problem;
/// use anonet_algorithms::{mis::RandomizedMis, problems::MisProblem};
/// use anonet_core::Derandomizer;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Figure 2's colored C6 (a product of C3): solve MIS deterministically.
/// let c6 = generators::cycle(6)?.with_labels(vec![((), 1u32), ((), 2), ((), 3),
///                                                 ((), 1), ((), 2), ((), 3)])?;
/// let run = Derandomizer::new(RandomizedMis::new()).run(&c6)?;
/// assert_eq!(run.quotient_nodes, 3);
/// let plain = generators::cycle(6)?.with_uniform_label(());
/// assert!(MisProblem.is_valid_output(&plain, &run.outputs));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Derandomizer<A> {
    alg: A,
    strategy: SearchStrategy,
    config: ExecConfig,
    cache: Option<Arc<DerandCache>>,
    recorder: SharedRecorder,
}

impl<A> Derandomizer<A>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    /// Creates a derandomizer with the default (seeded) search strategy.
    pub fn new(alg: A) -> Self {
        Derandomizer {
            alg,
            strategy: SearchStrategy::default(),
            config: ExecConfig::default(),
            cache: None,
            recorder: noop(),
        }
    }

    /// Overrides the canonical-simulation search strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the simulation execution config.
    pub fn with_config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a content-addressed [`DerandCache`]. Runs then check the
    /// cache before searching: on a hit the whole canonical-assignment
    /// search collapses into a single tape replay on the quotient, and on a
    /// miss the found assignment is stored under `(problem-id, s(G_*))` for
    /// every later instance with an isomorphic quotient (by Lemma 3, every
    /// lift of the same base). The cache never changes outputs — only how
    /// much work it takes to reach them.
    pub fn with_cache(mut self, cache: Arc<DerandCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches an observability [`Recorder`]: runs then report spans for
    /// every stage (`derandomize/{views,factor,search,replay,lift}`),
    /// `cache.hit`/`cache.miss` counters, and quotient-shape histograms.
    /// The default is the no-op recorder — zero cost, zero behavior
    /// change.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The assignment-table namespace: the algorithm type, the search
    /// strategy, and the round cap all shape which canonical assignment is
    /// selected, so they are all part of the problem id. Keeps, e.g.,
    /// `Exhaustive` and `Seeded` entries for the same algorithm apart.
    fn problem_id(&self) -> String {
        format!("{}|{:?}|r{}", std::any::type_name::<A>(), self.strategy, self.config.max_rounds)
    }

    /// Runs the deterministic stage on a 2-hop colored instance: labels
    /// are `(input, color)` pairs, exactly the paper's `I^c = (V, E, i, c)`.
    ///
    /// Deterministic: same instance ⇒ same outputs, no randomness consumed
    /// on the real network.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotTwoHopColored`](crate::CoreError::NotTwoHopColored)
    /// if `c` is not a 2-hop coloring; search-budget errors per strategy.
    pub fn run<C: Label>(
        &self,
        instance: &LabeledGraph<(A::Input, C)>,
    ) -> Result<DerandomizedRun<A::Output>> {
        let rec: &dyn Recorder = &*self.recorder;
        let observing = rec.is_enabled();
        let _derand_span = Span::new(rec, names::SPAN_DERANDOMIZE);

        // Step 1: the finite view graph of the full (i, c)-labeled instance.
        let t0 = Instant::now();
        let views_span = Span::new(rec, names::SPAN_VIEWS);
        let q = quotient(instance, ViewMode::Portless)?;
        drop(views_span);
        let factor_span = Span::new(rec, names::SPAN_FACTOR);
        let order = q.canonical_order();
        drop(factor_span);
        let j = q.graph().map_labels(|(i, _c)| i.clone());
        let multiplicity = q.multiplicity().unwrap_or(0);
        let quotient_time = t0.elapsed();
        if observing {
            rec.histogram(names::DERAND_QUOTIENT_NODES, q.graph().node_count() as u64);
            rec.histogram(names::DERAND_MULTIPLICITY, multiplicity as u64);
            rec.histogram(names::DERAND_VIEW_DEPTH, q.stabilization_depth() as u64);
        }

        // Step 1½: the content address s(G_*) — free, the canonical order
        // is already in hand. A hit turns the search into one replay.
        let t1 = Instant::now();
        let mut address: Option<(String, Vec<u8>)> = None;
        // Held from a miss until the search result is inserted, so
        // concurrent jobs on the same quotient wait for it and then hit.
        let mut claim = None;
        if let Some(cache) = &self.cache {
            let key = anonet_graph::canonical::encode_with_order(q.graph(), &order);
            cache.record_quotient(&key, q.graph().node_count(), multiplicity);
            let problem = self.problem_id();
            let hit = cache.lookup_or_claim(&problem, &key).map_err(|miss| claim = Some(miss));
            if let Ok(hit) = hit {
                if hit.tapes.len() == order.len() {
                    // Cached tapes are by canonical position; reindex them
                    // to this presentation's node ids before replaying.
                    let mut tapes = vec![BitString::new(); order.len()];
                    for (pos, &v) in order.iter().enumerate() {
                        tapes[v.index()] = hit.tapes[pos].clone();
                    }
                    let assignment = BitAssignment::new(tapes);
                    let replay_span = Span::new(rec, names::SPAN_REPLAY);
                    let mut src = TapeSource::new(assignment.clone());
                    let exec = run(&Oblivious(self.alg.clone()), &j, &mut src, &self.config)?;
                    drop(replay_span);
                    if exec.is_successful() {
                        if observing {
                            rec.counter(names::CACHE_HIT, 1);
                            rec.histogram(names::CACHE_BYTES, cache.stats().bytes as u64);
                        }
                        let lift_span = Span::new(rec, names::SPAN_LIFT);
                        let qouts = exec.outputs_unwrapped();
                        let outputs = q
                            .class_of()
                            .iter()
                            .map(|&c| qouts[c.index()].clone())
                            .collect::<Vec<_>>();
                        drop(lift_span);
                        return Ok(DerandomizedRun {
                            outputs,
                            quotient_nodes: q.graph().node_count(),
                            multiplicity,
                            assignment,
                            simulation_rounds: hit.simulation_rounds,
                            attempts: hit.attempts,
                            cache_hit: true,
                            quotient_time,
                            search_time: t1.elapsed(),
                        });
                    }
                    // The replay failed: a foreign entry (e.g. a key
                    // collision is impossible, but an incompatible config
                    // is not) — fall through to the real search.
                }
            }
            address = Some((problem, key));
        }

        // Step 2: canonical successful simulation of A_R on J = (V_*, E_*, i_*).
        if observing && self.cache.is_some() {
            rec.counter(names::CACHE_MISS, 1);
        }
        let search_span = Span::new(rec, names::SPAN_SEARCH);
        let sim =
            canonical_successful_simulation(&self.alg, &j, &order, self.strategy, &self.config)?;
        drop(search_span);
        if observing {
            rec.counter(names::SEARCH_ATTEMPTS, sim.attempts as u64);
        }

        // Publish the found assignment under its content address, tapes
        // keyed by canonical position so any isomorphic presentation can
        // replay them.
        if let (Some(cache), Some((problem, key))) = (&self.cache, address) {
            let tapes = order
                .iter()
                .map(|&v| sim.assignment.tape(v).cloned().unwrap_or_default())
                .collect();
            cache.insert_assignment(
                &problem,
                &key,
                CachedAssignment {
                    tapes,
                    attempts: sim.attempts,
                    simulation_rounds: sim.execution.rounds(),
                },
            );
        }
        drop(claim);

        // Step 3: lift outputs along the projection.
        if observing {
            if let Some(cache) = &self.cache {
                rec.histogram(names::CACHE_BYTES, cache.stats().bytes as u64);
            }
        }
        let lift_span = Span::new(rec, names::SPAN_LIFT);
        let qouts = sim.execution.outputs_unwrapped();
        let outputs = q.class_of().iter().map(|&c| qouts[c.index()].clone()).collect::<Vec<_>>();
        drop(lift_span);

        Ok(DerandomizedRun {
            outputs,
            quotient_nodes: q.graph().node_count(),
            multiplicity,
            assignment: sim.assignment,
            simulation_rounds: sim.execution.rounds(),
            attempts: sim.attempts,
            cache_hit: false,
            quotient_time,
            search_time: t1.elapsed(),
        })
    }
}

/// Derandomizes an arbitrary **port-sensitive** algorithm on a 2-hop
/// colored instance by composing the [`Derandomizer`] with the color-based
/// port emulation of the paper's Section 1.3 remark
/// ([`VirtualPorts`](anonet_algorithms::emulation::VirtualPorts)).
///
/// The emulated algorithm behaves exactly as the original would on the
/// graph whose ports sort each adjacency list by neighbor color; since a
/// correct anonymous algorithm must be correct under *every* port
/// numbering, the lifted outputs are valid. This closes the last gap in
/// the Theorem-1 reproduction: **every** Las-Vegas anonymous algorithm —
/// port-sensitive or not — derandomizes given a 2-hop coloring.
///
/// # Errors
///
/// As [`Derandomizer::run`].
pub fn derandomize_port_sensitive<A, C>(
    alg: A,
    colors: &LabeledGraph<C>,
    strategy: crate::SearchStrategy,
) -> Result<DerandomizedRun<A::Output>>
where
    A: anonet_runtime::Algorithm<Input = ()> + Clone,
    A::Message: Ord,
    C: Label,
{
    let instance = colors.map_labels(|c| (((), c.clone()), c.clone()));
    Derandomizer::new(anonet_algorithms::emulation::VirtualPorts::<A, C>::new(alg))
        .with_strategy(strategy)
        .run(&instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::coloring::RandomizedColoring;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::{GreedyColoringProblem, MisProblem};
    use anonet_graph::{coloring, generators, Graph};
    use anonet_runtime::Problem;

    fn colored_instance(g: &Graph) -> LabeledGraph<((), u32)> {
        let colors = coloring::greedy_two_hop_coloring(g);
        g.with_uniform_label(()).zip(&colors).unwrap()
    }

    fn lifted_instance(m: usize) -> (LabeledGraph<((), u32)>, Vec<anonet_graph::NodeId>) {
        let l = anonet_graph::lift::cyclic_cycle_lift(3, m).unwrap();
        let inst = l.lift_labels(&[((), 1u32), ((), 2), ((), 3)]).unwrap();
        (inst, l.projection().to_vec())
    }

    #[test]
    fn derandomized_mis_is_valid_across_families() {
        let graphs = vec![
            generators::cycle(5).unwrap(),
            generators::path(7).unwrap(),
            generators::petersen(),
            generators::grid(3, 3, false).unwrap(),
        ];
        for g in graphs {
            let inst = colored_instance(&g);
            let run = Derandomizer::new(RandomizedMis::new()).run(&inst).unwrap();
            let plain = g.with_uniform_label(());
            assert!(
                MisProblem.is_valid_output(&plain, &run.outputs),
                "invalid derandomized MIS on {g}"
            );
        }
    }

    #[test]
    fn derandomized_coloring_is_valid() {
        let g = generators::petersen();
        let inst = colored_instance(&g);
        let run = Derandomizer::new(RandomizedColoring::new()).run(&inst).unwrap();
        let plain = g.with_uniform_label(());
        assert!(GreedyColoringProblem.is_valid_output(&plain, &run.outputs));
    }

    #[test]
    fn is_deterministic() {
        let (inst, _) = lifted_instance(4);
        let d = Derandomizer::new(RandomizedMis::new());
        let a = d.run(&inst).unwrap();
        let b = d.run(&inst).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn nontrivial_quotient_is_used() {
        let (inst, projection) = lifted_instance(4);
        let run = Derandomizer::new(RandomizedMis::new()).run(&inst).unwrap();
        assert_eq!(run.quotient_nodes, 3);
        assert_eq!(run.multiplicity, 4);
        // Outputs are constant on fibers — equal views, equal outputs.
        for v in 0..12 {
            for w in 0..12 {
                if projection[v] == projection[w] {
                    assert_eq!(run.outputs[v], run.outputs[w]);
                }
            }
        }
        // MIS on C12 lifted from a C3 simulation: members are one fiber (4 nodes).
        assert_eq!(run.outputs.iter().filter(|&&b| b).count(), 4);
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs));
    }

    #[test]
    fn derandomization_commutes_with_lifting() {
        // derandomize(base) lifted along the projection == derandomize(lift):
        // the whole computation is a function of views.
        let base =
            generators::cycle(3).unwrap().with_labels(vec![((), 1u32), ((), 2), ((), 3)]).unwrap();
        let (lifted, projection) = lifted_instance(5);
        let d = Derandomizer::new(RandomizedMis::new());
        let base_run = d.run(&base).unwrap();
        let lift_run = d.run(&lifted).unwrap();
        for (v, &img) in projection.iter().enumerate() {
            assert_eq!(lift_run.outputs[v], base_run.outputs[img.index()]);
        }
    }

    #[test]
    fn rejects_non_two_hop_colored_instances() {
        let g = generators::cycle(4).unwrap();
        let inst = g.with_labels(vec![((), 1u32), ((), 2), ((), 1), ((), 2)]).unwrap();
        let err = Derandomizer::new(RandomizedMis::new()).run(&inst).unwrap_err();
        assert_eq!(err, crate::CoreError::NotTwoHopColored);
    }

    #[test]
    fn port_sensitive_algorithms_derandomize_via_emulation() {
        use anonet_graph::Port;
        use anonet_runtime::{Actions, Algorithm, Inbox};

        /// Port-sensitive probe: outputs the sorted (port, received) pairs
        /// of round 1 — a fingerprint of the (virtual) port structure.
        #[derive(Clone, Copy, Debug)]
        struct PortProbe;

        impl Algorithm for PortProbe {
            type Input = ();
            type Message = u32;
            type Output = Vec<(u32, u32)>;
            type State = ();

            fn init(&self, _: &(), _: usize) {}
            fn compose(&self, _: &(), port: Port) -> Option<u32> {
                Some(port.index() as u32)
            }
            fn step(
                &self,
                _: (),
                _round: usize,
                inbox: &Inbox<u32>,
                _bit: bool,
                actions: &mut Actions<Vec<(u32, u32)>>,
            ) {
                let mut pairs: Vec<(u32, u32)> =
                    inbox.iter().map(|(p, m)| (p.index() as u32, *m)).collect();
                pairs.sort();
                actions.output(pairs);
                actions.halt();
            }
        }

        // Base and lift: the derandomized port-sensitive outputs must
        // commute with lifting (everything is view-derived).
        let base_colors = generators::cycle(3).unwrap().with_labels(vec![1u32, 2, 3]).unwrap();
        let base_run =
            derandomize_port_sensitive(PortProbe, &base_colors, SearchStrategy::default()).unwrap();
        let l = anonet_graph::lift::cyclic_cycle_lift(3, 4).unwrap();
        let lifted_colors = l.lift_labels(base_colors.labels()).unwrap();
        let lift_run =
            derandomize_port_sensitive(PortProbe, &lifted_colors, SearchStrategy::default())
                .unwrap();
        assert_eq!(lift_run.quotient_nodes, 3);
        for (v, &img) in l.projection().iter().enumerate() {
            assert_eq!(lift_run.outputs[v], base_run.outputs[img.index()]);
        }
        // Determinism.
        let again =
            derandomize_port_sensitive(PortProbe, &lifted_colors, SearchStrategy::default())
                .unwrap();
        assert_eq!(again.outputs, lift_run.outputs);
    }

    #[test]
    fn exhaustive_strategy_matches_validity() {
        let (inst, _) = lifted_instance(2);
        let run = Derandomizer::new(RandomizedMis::new())
            .with_strategy(SearchStrategy::Exhaustive { max_total_bits: 24 })
            .run(&inst)
            .unwrap();
        let plain = inst.map_labels(|_| ());
        assert!(MisProblem.is_valid_output(&plain, &run.outputs));
        // The exhaustive strategy reports how many simulations it tried.
        assert!(run.attempts >= 1);
    }
}
