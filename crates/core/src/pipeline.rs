//! The Theorem-1 decomposition, end to end.
//!
//! *"...the execution of every randomized anonymous algorithm can be
//! decoupled into a generic preprocessing randomized stage that computes a
//! 2-hop coloring, followed by a problem-specific deterministic stage."*
//! (paper, abstract)
//!
//! [`run_pipeline`] is that sentence as code: stage 1 runs the Las-Vegas
//! [`TwoHopColoring`] algorithm (the **only** place randomness is
//! consumed); stage 2 hands the colored instance to the deterministic
//! [`Derandomizer`] for the actual problem.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anonet_batch::DerandCache;
use anonet_graph::{BitString, Label, LabeledGraph};
use anonet_obs::{bridge, names, noop, Recorder, SharedRecorder, Span};
use anonet_runtime::{run, ExecConfig, Oblivious, ObliviousAlgorithm, RngSource};

use anonet_algorithms::two_hop_coloring::TwoHopColoring;

use crate::derandomizer::{DerandomizedRun, Derandomizer};
use crate::search::SearchStrategy;
use crate::Result;

/// The outcome of a full Theorem-1 pipeline run.
#[derive(Clone, Debug)]
pub struct PipelineRun<O> {
    /// Final per-node outputs.
    pub outputs: Vec<O>,
    /// The 2-hop coloring computed by the randomized stage.
    pub coloring: Vec<BitString>,
    /// Rounds spent in the randomized coloring stage.
    pub coloring_rounds: usize,
    /// Random bits consumed (all in stage 1 — stage 2 uses none).
    pub random_bits: usize,
    /// Stage-2 details (quotient size, canonical assignment, …).
    pub deterministic: DerandomizedRun<O>,
    /// Wall time of the randomized coloring stage.
    pub coloring_time: Duration,
    /// Wall time of the deterministic stage.
    pub deterministic_time: Duration,
}

/// Runs the two-stage pipeline for a randomized algorithm `alg` on `net`.
///
/// * Stage 1 (randomized, generic): 2-hop color the network with seed
///   `seed`.
/// * Stage 2 (deterministic, problem-specific): derandomize `alg` on the
///   colored instance with `strategy`.
///
/// # Errors
///
/// Runtime errors from stage 1; derandomization errors from stage 2 (the
/// coloring produced by stage 1 is always valid, so
/// [`CoreError::NotTwoHopColored`](crate::CoreError::NotTwoHopColored)
/// here would indicate a bug).
///
/// # Example
///
/// ```
/// use anonet_graph::generators;
/// use anonet_runtime::Problem;
/// use anonet_algorithms::{mis::RandomizedMis, problems::MisProblem};
/// use anonet_core::{pipeline::run_pipeline, SearchStrategy};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = generators::petersen().with_uniform_label(());
/// let run = run_pipeline(&RandomizedMis::new(), &net, 7,
///                        SearchStrategy::default())?;
/// assert!(MisProblem.is_valid_output(&net, &run.outputs));
/// // Stage 2 consumed no randomness at all:
/// assert!(run.random_bits > 0); // ... all of it in stage 1
/// # Ok(())
/// # }
/// ```
pub fn run_pipeline<A>(
    alg: &A,
    net: &LabeledGraph<A::Input>,
    seed: u64,
    strategy: SearchStrategy,
) -> Result<PipelineRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    run_pipeline_cached(alg, net, seed, strategy, &ExecConfig::default(), None)
}

/// [`run_pipeline`] with an explicit execution config for both stages and
/// an optional content-addressed [`DerandCache`] handle for the
/// deterministic stage. Stage 1 (the randomized coloring) is never cached
/// — it is seed-dependent by design — but two different seeds frequently
/// color a graph into the *same* quotient up to isomorphism, so stage-2
/// sharing kicks in even within a single network.
///
/// # Errors
///
/// See [`run_pipeline`].
pub fn run_pipeline_cached<A>(
    alg: &A,
    net: &LabeledGraph<A::Input>,
    seed: u64,
    strategy: SearchStrategy,
    config: &ExecConfig,
    cache: Option<&Arc<DerandCache>>,
) -> Result<PipelineRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    run_pipeline_observed(alg, net, seed, strategy, config, cache, &noop())
}

/// [`run_pipeline_cached`] under an observability [`Recorder`]: the run
/// then reports a `pipeline` span with nested `coloring` and
/// `derandomize/...` children, bridges stage 1's execution profile into
/// the `engine.*` metrics, and threads the recorder through the
/// [`Derandomizer`] for stage-2 spans and cache counters. With the no-op
/// recorder this is exactly [`run_pipeline_cached`] — the byte-identity
/// tests pin that down.
///
/// # Errors
///
/// See [`run_pipeline`].
pub fn run_pipeline_observed<A>(
    alg: &A,
    net: &LabeledGraph<A::Input>,
    seed: u64,
    strategy: SearchStrategy,
    config: &ExecConfig,
    cache: Option<&Arc<DerandCache>>,
    recorder: &SharedRecorder,
) -> Result<PipelineRun<A::Output>>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
{
    let rec: &dyn Recorder = &**recorder;
    let _pipeline_span = Span::new(rec, names::SPAN_PIPELINE);

    // Stage 1: randomized 2-hop coloring.
    let t0 = Instant::now();
    let coloring_span = Span::new(rec, names::SPAN_COLORING);
    let unit = net.map_labels(|_| ());
    let stage1 =
        run(&Oblivious(TwoHopColoring::new()), &unit, &mut RngSource::seeded(seed), config)?;
    let coloring = stage1.outputs_unwrapped();
    drop(coloring_span);
    bridge::record_execution(rec, &stage1);
    let coloring_time = t0.elapsed();

    // Stage 2: deterministic derandomization on the colored instance.
    let t1 = Instant::now();
    let colored = net.graph().with_labels(coloring.clone())?;
    let instance = net.zip(&colored)?;
    let mut derandomizer = Derandomizer::new(alg.clone())
        .with_strategy(strategy)
        .with_config(*config)
        .with_recorder(Arc::clone(recorder));
    if let Some(cache) = cache {
        derandomizer = derandomizer.with_cache(Arc::clone(cache));
    }
    let deterministic = derandomizer.run(&instance)?;

    Ok(PipelineRun {
        outputs: deterministic.outputs.clone(),
        coloring,
        coloring_rounds: stage1.rounds(),
        random_bits: stage1.bits_consumed(),
        deterministic_time: t1.elapsed(),
        deterministic,
        coloring_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonet_algorithms::coloring::RandomizedColoring;
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_algorithms::problems::{GreedyColoringProblem, MisProblem};
    use anonet_graph::coloring::is_two_hop_coloring;
    use anonet_graph::generators;
    use anonet_runtime::Problem;

    #[test]
    fn pipeline_solves_mis_on_many_graphs() {
        let graphs = vec![
            generators::cycle(6).unwrap(),
            generators::path(8).unwrap(),
            generators::petersen(),
            generators::grid(3, 3, false).unwrap(),
            generators::star(7).unwrap(),
        ];
        for g in graphs {
            let net = g.with_uniform_label(());
            for seed in 0..3 {
                let run =
                    run_pipeline(&RandomizedMis::new(), &net, seed, SearchStrategy::default())
                        .unwrap();
                assert!(
                    MisProblem.is_valid_output(&net, &run.outputs),
                    "invalid pipeline MIS on {g} (seed {seed})"
                );
                let colored = g.with_labels(run.coloring.clone()).unwrap();
                assert!(is_two_hop_coloring(&colored));
            }
        }
    }

    #[test]
    fn pipeline_solves_coloring() {
        let net = generators::grid(3, 4, false).unwrap().with_uniform_label(());
        let run =
            run_pipeline(&RandomizedColoring::new(), &net, 11, SearchStrategy::default()).unwrap();
        assert!(GreedyColoringProblem.is_valid_output(&net, &run.outputs));
    }

    #[test]
    fn stage2_is_deterministic_given_stage1() {
        // Same seed ⇒ same coloring ⇒ identical deterministic stage.
        let net = generators::cycle(9).unwrap().with_uniform_label(());
        let a = run_pipeline(&RandomizedMis::new(), &net, 5, SearchStrategy::default()).unwrap();
        let b = run_pipeline(&RandomizedMis::new(), &net, 5, SearchStrategy::default()).unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.coloring, b.coloring);
        assert_eq!(a.deterministic.assignment, b.deterministic.assignment);
    }

    #[test]
    fn randomness_is_confined_to_stage_one() {
        let net = generators::petersen().with_uniform_label(());
        let run = run_pipeline(&RandomizedMis::new(), &net, 3, SearchStrategy::default()).unwrap();
        // Stage 1 consumed bits; stage 2 reports a *derived* assignment,
        // not live randomness — reproducibility asserted above. Sanity:
        assert!(run.random_bits >= net.node_count());
        assert!(run.coloring_rounds > 0);
    }

    #[test]
    fn observed_pipeline_reports_spans_and_metrics() {
        use anonet_obs::MemoryRecorder;
        let net = generators::cycle(6).unwrap().with_uniform_label(());
        let rec = Arc::new(MemoryRecorder::new());
        let shared: SharedRecorder = rec.clone();
        let run = run_pipeline_observed(
            &RandomizedMis::new(),
            &net,
            7,
            SearchStrategy::default(),
            &ExecConfig::default(),
            None,
            &shared,
        )
        .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.span(names::SPAN_PIPELINE).unwrap().count, 1);
        assert_eq!(snap.span("pipeline/coloring").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize/views").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize/factor").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize/search").unwrap().count, 1);
        assert_eq!(snap.span("pipeline/derandomize/lift").unwrap().count, 1);
        assert_eq!(snap.counter(names::ENGINE_BITS_DRAWN), run.random_bits as u64);
        assert_eq!(snap.counter(names::ENGINE_ROUNDS), run.coloring_rounds as u64);
        assert_eq!(
            snap.histogram(names::DERAND_QUOTIENT_NODES).unwrap().max(),
            Some(run.deterministic.quotient_nodes as u64)
        );
        assert_eq!(snap.histogram(names::DERAND_VIEW_DEPTH).unwrap().count(), 1);
        // No cache attached: no cache counters.
        assert_eq!(snap.counter(names::CACHE_HIT) + snap.counter(names::CACHE_MISS), 0);
        // The observed run computes the same thing as the plain one.
        let plain =
            run_pipeline(&RandomizedMis::new(), &net, 7, SearchStrategy::default()).unwrap();
        assert_eq!(run.outputs, plain.outputs);
        assert_eq!(run.coloring, plain.coloring);
    }

    #[test]
    fn observed_pipeline_counts_cache_traffic() {
        use anonet_batch::DerandCache;
        use anonet_obs::MemoryRecorder;
        let net = generators::cycle(6).unwrap().with_uniform_label(());
        let rec = Arc::new(MemoryRecorder::new());
        let shared: SharedRecorder = rec.clone();
        let cache = Arc::new(DerandCache::new());
        for seed in [7u64, 7, 7] {
            run_pipeline_observed(
                &RandomizedMis::new(),
                &net,
                seed,
                SearchStrategy::default(),
                &ExecConfig::default(),
                Some(&cache),
                &shared,
            )
            .unwrap();
        }
        let snap = rec.snapshot();
        // Same seed ⇒ same coloring ⇒ same quotient: 1 miss, then hits.
        assert_eq!(snap.counter(names::CACHE_MISS), 1);
        assert_eq!(snap.counter(names::CACHE_HIT), 2);
        assert_eq!(snap.span("pipeline/derandomize/replay").unwrap().count, 2);
        assert_eq!(snap.histogram(names::CACHE_BYTES).unwrap().count(), 3);
    }

    #[test]
    fn unique_colors_make_stage2_trivial_quotient() {
        // A 2-hop coloring with all-distinct colors means the instance is
        // prime: the quotient is the graph itself.
        let net = generators::cycle(5).unwrap().with_uniform_label(());
        let run = run_pipeline(&RandomizedMis::new(), &net, 2, SearchStrategy::default()).unwrap();
        // On C5 every pair of nodes is within 2 hops, so the coloring is
        // all-distinct and the quotient has 5 nodes.
        assert_eq!(run.deterministic.quotient_nodes, 5);
        assert!(MisProblem.is_valid_output(&net, &run.outputs));
    }
}
