//! `A_*`'s Update-Output and Update-Bits on lifts. Every node of a fibre
//! selects the same candidate (equal views, universes and bits — Lemma
//! 3), so the fast engine runs those two rules once per selected
//! candidate per phase. These tests pin that the deduplicated engine is
//! still the paper's `A_*`, for MIS and maximal matching on lifts of K3,
//! the paw, the diamond and K4 at multiplicities 2–6:
//!
//! * fast ≡ the literal Figure-3 reference, on every field of the run, in
//!   forward, reverse and shuffled node presentations of each lift (the
//!   fast engine runs on the quotient `G_*` and lifts its run, so this
//!   pins the lift through the projection);
//! * the Update-Graph counters (`astar.c2.*`, pool hits/misses) equal the
//!   values the per-node engine produced, pinned below;
//! * aborting runs fail with the same typed error as before;
//! * Update-Bits runs at most once per fibre that selected a candidate.
//!
//! The default tests run the part of that grid a debug build affords; the
//! ignored `full_lift_sweep_matches_the_reference` runs all of it
//! (`cargo test --release --test astar_candidate_steps -- --ignored`).

use anonet::algorithms::matching::{MatchingProblem, RandomizedMatching};
use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::problems::MisProblem;
use anonet::core::astar::{
    run_astar, run_astar_observed, run_astar_reference, AStarConfig, AStarRun,
};
use anonet::core::CoreError;
use anonet::graph::coloring::greedy_two_hop_coloring;
use anonet::graph::lift::{random_connected_lift, Perm};
use anonet::graph::{generators, Graph, Label, LabeledGraph};
use anonet::obs::{names, MemoryRecorder};
use anonet::runtime::{ObliviousAlgorithm, Problem};
use anonet::views::{quotient, ViewMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `(c2 lookups, c2 hits, pool hits, pool misses)` of one run.
type Counters = (u64, u64, u64, u64);

/// K3, the paw, the diamond and K4: the cyclic bases with at most four
/// nodes, whose candidates `A_*` can still enumerate.
fn bases() -> Vec<(&'static str, Graph)> {
    vec![
        ("K3", generators::complete(3).unwrap()),
        ("paw", Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap()),
        ("diamond", Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap()),
        ("K4", generators::complete(4).unwrap()),
    ]
}

/// A seeded connected `m`-lift of `base`, greedily 2-hop colored, with
/// each color mapped to the problem input by `input`.
fn colored_lift<I: Label>(
    base: &Graph,
    m: usize,
    input: impl Fn(u32) -> I,
) -> LabeledGraph<(I, u32)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA57A_0000 + m as u64);
    let lift = random_connected_lift(base, m, 1000, &mut rng).unwrap();
    let labels: Vec<(I, u32)> =
        greedy_two_hop_coloring(base).labels().iter().map(|&c| (input(c), c)).collect();
    lift.lift_labels(&labels).unwrap()
}

/// The node presentations every engine is checked in: as given, reversed,
/// and shuffled by a seeded permutation, each renumbering an `n`-node
/// instance.
fn presentations(n: usize) -> [(&'static str, Perm); 3] {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0000 + n as u64);
    [
        ("forward", Perm::identity(n)),
        ("reverse", Perm::new((0..n).rev().collect()).unwrap()),
        ("shuffled", Perm::random(n, &mut rng)),
    ]
}

fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(
    a: &AStarRun<O>,
    b: &AStarRun<O>,
    ctx: &str,
) {
    assert_eq!(a.outputs, b.outputs, "{ctx}: outputs");
    assert_eq!(a.phases_used, b.phases_used, "{ctx}: phases_used");
    assert_eq!(a.equivalent_rounds, b.equivalent_rounds, "{ctx}: equivalent_rounds");
    assert_eq!(a.output_phase, b.output_phase, "{ctx}: output_phase");
    assert_eq!(a.final_bits, b.final_bits, "{ctx}: final_bits");
}

/// One observed run: its result, its Update-Graph counters and its
/// `update_bits` span count.
fn observed<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
) -> (Result<AStarRun<A::Output>, CoreError>, Counters, u64)
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let rec = MemoryRecorder::new();
    let run = run_astar_observed(alg, problem, instance, cfg, &rec);
    let snap = rec.snapshot();
    let counters = (
        snap.counter(names::ASTAR_C2_LOOKUPS),
        snap.counter(names::ASTAR_C2_HITS),
        snap.counter(names::ASTAR_POOL_HIT),
        snap.counter(names::ASTAR_POOL_MISS),
    );
    (run, counters, snap.span_total(names::SPAN_UPDATE_BITS).count)
}

/// Runs the fast engine observed on one instance; checks it against the
/// pinned counters and against the fibre bound on Update-Bits steps.
/// Returns the run.
fn check_fast<A, P, C>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, C)>,
    cfg: &AStarConfig,
    m: usize,
    pinned: Counters,
    ctx: &str,
) -> Result<AStarRun<A::Output>, CoreError>
where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    P: Problem<Input = A::Input>,
    C: Label,
{
    let (fast, counters, update_bits) = observed(alg, problem, instance, cfg);
    assert_eq!(counters, pinned, "{ctx}: Update-Graph counters moved (lookups, hits, pool h/m)");
    // Every node of a fibre selects the same candidate, so a phase runs
    // at most (selecting nodes) / m candidate steps.
    let c2_hits = counters.1;
    assert!(
        update_bits * m as u64 <= c2_hits,
        "{ctx}: {update_bits} Update-Bits steps for {c2_hits} selections at multiplicity {m}"
    );
    fast
}

/// `(base, m, counters)` of the per-node engine, MIS.
const MIS_PINS: &[(&str, usize, Counters)] = &[
    ("K3", 2, (24, 18, 18, 6)),
    ("K3", 3, (36, 27, 30, 6)),
    ("K3", 4, (48, 36, 42, 6)),
    ("K3", 5, (60, 45, 54, 6)),
    ("K3", 6, (72, 54, 66, 6)),
    ("paw", 2, (40, 26, 30, 10)),
    ("paw", 3, (60, 39, 50, 10)),
    ("paw", 4, (80, 52, 70, 10)),
    ("paw", 5, (100, 65, 90, 10)),
    ("paw", 6, (120, 78, 110, 10)),
    ("diamond", 2, (40, 24, 30, 10)),
    ("diamond", 3, (60, 36, 50, 10)),
    ("diamond", 4, (80, 48, 70, 10)),
    ("diamond", 5, (100, 60, 90, 10)),
    ("diamond", 6, (120, 72, 110, 10)),
    ("K4", 2, (40, 24, 32, 8)),
    ("K4", 3, (60, 36, 52, 8)),
    ("K4", 4, (80, 48, 72, 8)),
    ("K4", 5, (100, 60, 92, 8)),
    ("K4", 6, (120, 72, 112, 8)),
];

/// The same pins for maximal matching. On the four-node bases the
/// default search budget runs out in phase 6
/// ([`CoreError::SearchBudgetExceeded`] with four quotient nodes).
const MATCHING_PINS: &[(&str, usize, Counters)] = &[
    ("K3", 2, (48, 42, 41, 7)),
    ("K3", 3, (72, 63, 65, 7)),
    ("K3", 4, (96, 84, 89, 7)),
    ("K3", 5, (120, 105, 113, 7)),
    ("K3", 6, (144, 126, 137, 7)),
    ("paw", 2, (48, 34, 39, 9)),
    ("paw", 3, (72, 51, 63, 9)),
    ("paw", 4, (96, 68, 87, 9)),
    ("paw", 5, (120, 85, 111, 9)),
    ("paw", 6, (144, 102, 135, 9)),
    ("diamond", 2, (48, 32, 39, 9)),
    ("diamond", 3, (72, 48, 63, 9)),
    ("diamond", 4, (96, 64, 87, 9)),
    ("diamond", 5, (120, 80, 111, 9)),
    ("diamond", 6, (144, 96, 135, 9)),
    ("K4", 2, (48, 32, 41, 7)),
    ("K4", 3, (72, 48, 65, 7)),
    ("K4", 4, (96, 64, 89, 7)),
    ("K4", 5, (120, 80, 113, 7)),
    ("K4", 6, (144, 96, 137, 7)),
];

/// Every `(base name, base, m, pinned counters)` of a pin table.
fn pinned_lifts(pins: &[(&str, usize, Counters)]) -> Vec<(&'static str, Graph, usize, Counters)> {
    let mut out = Vec::new();
    for (name, base) in bases() {
        for &(_, m, counters) in pins.iter().filter(|(b, _, _)| *b == name) {
            out.push((name, base.clone(), m, counters));
        }
    }
    assert_eq!(out.len(), 20, "four bases at multiplicities 2-6");
    out
}

/// Which pinned lifts a sweep runs, and on which of them it also runs the
/// literal reference.
type Filter = fn(&str, usize) -> bool;

fn mis_sweep(keep: Filter, with_reference: Filter) {
    let alg = RandomizedMis::new();
    let cfg = AStarConfig::default();
    for (name, base, m, pinned) in pinned_lifts(MIS_PINS) {
        if !keep(name, m) {
            continue;
        }
        let lift = colored_lift(&base, m, |_| ());
        for (order, perm) in presentations(lift.node_count()) {
            let instance = lift.renumber(&perm).unwrap();
            let ctx = format!("MIS on {name} x{m}, {order}");
            let fast = check_fast(&alg, &MisProblem, &instance, &cfg, m, pinned, &ctx)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            if with_reference(name, m) {
                let reference = run_astar_reference(&alg, &MisProblem, &instance, &cfg).unwrap();
                assert_runs_identical(&fast, &reference, &format!("{ctx} fast vs reference"));
            }
        }
    }
}

fn matching_sweep(keep: Filter, with_reference: Filter) {
    let alg = RandomizedMatching::<u32>::new();
    let cfg = AStarConfig::default();
    for (name, base, m, pinned) in pinned_lifts(MATCHING_PINS) {
        if !keep(name, m) {
            continue;
        }
        let lift = colored_lift(&base, m, |c| c);
        for (order, perm) in presentations(lift.node_count()) {
            let instance = lift.renumber(&perm).unwrap();
            let ctx = format!("matching on {name} x{m}, {order}");
            let fast = check_fast(&alg, &MatchingProblem, &instance, &cfg, m, pinned, &ctx);
            if name == "K3" {
                let fast = fast.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                if with_reference(name, m) {
                    let reference =
                        run_astar_reference(&alg, &MatchingProblem, &instance, &cfg).unwrap();
                    assert_runs_identical(&fast, &reference, &format!("{ctx} fast vs reference"));
                }
            } else {
                // On aborting runs only the fast engine's own error is
                // pinned: the reference may abort with a different one
                // (DESIGN §8.3).
                let want =
                    CoreError::SearchBudgetExceeded { quotient_nodes: 4, max_total_bits: 18 };
                assert_eq!(fast.err(), Some(want), "{ctx}: aborting error moved");
            }
        }
    }
}

#[test]
fn mis_on_lifts_keeps_its_pins_and_matches_the_reference_on_k3() {
    // The literal reference costs about half a second per node on the
    // four-node bases even in release; those run in the ignored sweep.
    mis_sweep(|_, _| true, |name, _| name == "K3");
}

#[test]
fn matching_on_small_lifts_keeps_its_pins() {
    // Matching's extension searches are long: a debug build runs the
    // smallest lifts of K3 and the paw, the ignored sweep all of them.
    matching_sweep(|name, m| m == 2 && (name == "K3" || name == "paw"), |_, _| false);
}

/// The full grid: every lift of both problems in all three presentations
/// on every engine, the reference included wherever the run succeeds, and
/// the prime path with the reference on every presentation.
/// About five minutes in a release build; the `reports` CI job runs it
/// with `--ignored`.
#[test]
#[ignore = "release-mode sweep: the literal reference takes minutes here"]
fn full_lift_sweep_matches_the_reference() {
    mis_sweep(|_, _| true, |_, _| true);
    matching_sweep(|_, _| true, |_, _| true);
    prime_path_sweep(true);
}

#[test]
fn aborting_config_fails_with_the_pinned_error() {
    // Two extension bits are too few for these searches; the error names
    // the size of the quotient whose search overflowed the budget.
    let cfg = AStarConfig { max_extension_bits: 2, ..AStarConfig::default() };
    let pins = [("K3", 3usize), ("paw", 2), ("diamond", 4), ("K4", 4)];
    for ((name, base), (pin_name, quotient_nodes)) in bases().into_iter().zip(pins) {
        assert_eq!(name, pin_name);
        let instance = colored_lift(&base, 3, |_| ());
        let want = CoreError::SearchBudgetExceeded { quotient_nodes, max_total_bits: 2 };
        let err = run_astar(&RandomizedMis::new(), &MisProblem, &instance, &cfg).unwrap_err();
        assert_eq!(err, want, "MIS on {name} x3");
    }
}

/// `run` on `instance`, read as a run on `instance.renumber(perm)`.
fn renumbered<O: Clone>(run: &AStarRun<O>, perm: &Perm) -> AStarRun<O> {
    let inverse = perm.inverse();
    let moved = |v: usize| inverse.apply(v);
    AStarRun {
        outputs: (0..run.outputs.len()).map(|v| run.outputs[moved(v)].clone()).collect(),
        phases_used: run.phases_used,
        equivalent_rounds: run.equivalent_rounds,
        output_phase: (0..run.outputs.len()).map(|v| run.output_phase[moved(v)]).collect(),
        final_bits: (0..run.outputs.len()).map(|v| run.final_bits[moved(v)].clone()).collect(),
    }
}

/// Fast runs of one problem on `instance` in all three presentations
/// against the reference: equal runs where the reference succeeds, and
/// otherwise the fast engine's own `pinned` error. With `every`, the
/// reference runs on each presentation; without, it runs on `instance`
/// and its run is renumbered to the other two.
fn check_problem<A, P>(
    alg: &A,
    problem: &P,
    instance: &LabeledGraph<(A::Input, u32)>,
    cfg: &AStarConfig,
    pinned: Option<&CoreError>,
    every: bool,
    ctx: &str,
) where
    A: ObliviousAlgorithm + Clone,
    A::Input: Label,
    A::Output: std::fmt::Debug,
    P: Problem<Input = A::Input>,
{
    let forward = (!every).then(|| run_astar_reference(alg, problem, instance, cfg));
    for (order, perm) in presentations(instance.node_count()) {
        let ctx = format!("{ctx}, {order}");
        let presented = instance.renumber(&perm).unwrap();
        let fast = run_astar(alg, problem, &presented, cfg);
        let reference = match &forward {
            Some(run) => run.as_ref().map(|run| renumbered(run, &perm)).map_err(CoreError::clone),
            None => run_astar_reference(alg, problem, &presented, cfg),
        };
        match (fast, reference) {
            (Ok(fast), Ok(reference)) => {
                assert_eq!(pinned, None, "{ctx}: both engines succeeded");
                assert_runs_identical(&fast, &reference, &ctx);
            }
            // The reference is authoritative on error order, so where it
            // aborts only the fast engine's own error is pinned.
            (fast, Err(_)) => assert_eq!(fast.as_ref().err(), pinned, "{ctx}"),
            (Err(e), Ok(_)) => panic!("{ctx}: only the fast engine failed: {e}"),
        }
    }
}

/// The path 0-1-2-3 colored 1, 2, 3, 1: 2-hop colored and prime, since
/// nodes 0 and 3 share a color but not a view, so `G_*` is the path.
fn prime_path() -> LabeledGraph<u32> {
    let path = generators::path(4).unwrap().with_labels(vec![1u32, 2, 3, 1]).unwrap();
    assert!(quotient(&path, ViewMode::Portless).unwrap().is_trivial());
    path
}

/// The prime path, MIS solved in phase 6 and matching aborting in its
/// Update-Bits budget, as in the lifts of the four-node bases. With
/// `every`, the reference runs on every presentation and for matching too.
fn prime_path_sweep(every: bool) {
    let (path, cfg) = (prime_path(), AStarConfig::default());
    let mis = path.map_labels(|&c| ((), c));
    check_problem(&RandomizedMis::new(), &MisProblem, &mis, &cfg, None, every, "MIS on P4");
    let matching = path.map_labels(|&c| (c, c));
    let want = CoreError::SearchBudgetExceeded { quotient_nodes: 4, max_total_bits: 18 };
    if every {
        let alg = RandomizedMatching::<u32>::new();
        check_problem(&alg, &MatchingProblem, &matching, &cfg, Some(&want), true, "matching on P4");
    } else {
        for (order, perm) in presentations(path.node_count()) {
            let presented = matching.renumber(&perm).unwrap();
            let fast =
                run_astar(&RandomizedMatching::<u32>::new(), &MatchingProblem, &presented, &cfg);
            assert_eq!(fast.err(), Some(want.clone()), "matching on P4, {order}");
        }
    }
}

#[test]
fn a_prime_instance_runs_on_itself_and_matches_the_reference() {
    // The literal reference costs seconds here in a debug build, so it
    // runs once, on the forward presentation; the ignored sweep runs it
    // on every presentation.
    prime_path_sweep(false);
}

#[test]
fn a_non_two_hop_colored_instance_runs_on_the_identity_projection() {
    // C4 colored 1, 2, 1, 2 has no simple quotient: node 1 sees class
    // {0, 2} twice (Lemma 2 needs a 2-hop coloring), so the engine runs
    // on the instance itself. From phase 2 on no 2-hop colored candidate
    // has a node with its view, so neither engine ever outputs there.
    let c4 = generators::cycle(4).unwrap().with_labels(vec![1u32, 2, 1, 2]).unwrap();
    assert!(quotient(&c4, ViewMode::Portless).is_err());
    let cfg = AStarConfig { max_phases: 4, ..AStarConfig::default() };
    let want = CoreError::PhaseBudgetExceeded { phases: 4 };
    let mis = c4.map_labels(|&c| ((), c));
    check_problem(&RandomizedMis::new(), &MisProblem, &mis, &cfg, Some(&want), true, "MIS on C4");
    let matching = c4.map_labels(|&c| (c, c));
    let alg = RandomizedMatching::<u32>::new();
    check_problem(&alg, &MatchingProblem, &matching, &cfg, Some(&want), true, "matching on C4");
}
