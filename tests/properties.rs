//! Property-based tests (proptest) over random graphs, colorings, and
//! tapes: the invariants the whole construction rests on.
//!
//! Instances come from the testkit's seeded generator layer
//! ([`anonet::testkit::flavored_graph`]); each property body is a plain
//! function so historic proptest shrinks can be pinned as explicit
//! regression cases (the vendored proptest does not read
//! `properties.proptest-regressions`).

use anonet::algorithms::mis::RandomizedMis;
use anonet::algorithms::problems::{MisProblem, TwoHopColoringProblem};
use anonet::algorithms::two_hop_coloring::TwoHopColoring;
use anonet::core::{Derandomizer, SearchStrategy};
use anonet::graph::{coloring, BitString, Graph};
use anonet::runtime::{run, BitAssignment, ExecConfig, Oblivious, Problem, RngSource, TapeSource};
use anonet::testkit::{check_view_ids, flavored_graph};
use anonet::views::{norris::norris_report, quotient, Refinement, ViewMode};
use proptest::prelude::*;

/// A random connected graph from a seed: mixes families for diversity.
fn arbitrary_graph(seed: u64, n: usize, flavor: u8) -> Graph {
    flavored_graph(seed, n, flavor).expect("flavored generators accept any seed")
}

/// The Las-Vegas 2-hop coloring always outputs a valid 2-hop coloring.
fn check_two_hop_coloring_is_valid(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor);
    let net = g.with_uniform_label(());
    let exec = run(
        &Oblivious(TwoHopColoring::new()),
        &net,
        &mut RngSource::seeded(seed),
        &ExecConfig::default(),
    )
    .expect("no runtime error");
    assert!(exec.is_successful());
    let outputs: Vec<BitString> = exec.outputs_unwrapped();
    assert!(TwoHopColoringProblem.is_valid_output(&net, &outputs));
}

/// Quotients of greedily 2-hop colored graphs are simple factors, and
/// fibers have uniform size.
fn check_quotient_is_uniform_fiber_factor(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor);
    let colored = coloring::greedy_two_hop_coloring(&g);
    let q = quotient(&colored, ViewMode::Portless).expect("2-hop colored");
    assert!(q.multiplicity().is_some());
    assert_eq!(q.multiplicity().unwrap() * q.graph().node_count(), g.node_count());
}

/// Norris: refinement stabilizes within n - 1 rounds.
fn check_norris_bound(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor).with_uniform_label(0u32);
    assert!(norris_report(&g, ViewMode::Portless).holds());
    assert!(norris_report(&g, ViewMode::PortAware).holds());
}

/// Port-aware refinement refines the portless one.
fn check_port_aware_refines_portless(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor).with_uniform_label(0u32);
    let coarse = Refinement::compute(&g, ViewMode::Portless);
    let fine = Refinement::compute(&g, ViewMode::PortAware);
    for u in 0..g.node_count() {
        for v in 0..g.node_count() {
            if fine.classes()[u] == fine.classes()[v] {
                assert_eq!(coarse.classes()[u], coarse.classes()[v]);
            }
        }
    }
}

/// The derandomizer produces valid, deterministic MIS outputs on
/// greedily colored random graphs.
fn check_derandomized_mis(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor);
    let colored = coloring::greedy_two_hop_coloring(&g);
    let inst = g.with_uniform_label(()).zip(&colored).expect("same graph");
    let d = Derandomizer::new(RandomizedMis::new())
        .with_strategy(SearchStrategy::Seeded { max_attempts: 64 });
    let a = d.run(&inst).expect("derandomization succeeds");
    let b = d.run(&inst).expect("derandomization succeeds");
    assert_eq!(&a.outputs, &b.outputs);
    let plain = g.with_uniform_label(());
    assert!(MisProblem.is_valid_output(&plain, &a.outputs));
}

/// The Las-Vegas maximal matching always outputs a valid matching.
fn check_matching_is_valid(seed: u64, n: usize, flavor: u8) {
    use anonet::algorithms::matching::{MatchingProblem, RandomizedMatching};
    let g = arbitrary_graph(seed, n, flavor);
    let net = coloring::greedy_two_hop_coloring(&g);
    let exec = run(
        &Oblivious(RandomizedMatching::<u32>::new()),
        &net,
        &mut RngSource::seeded(seed),
        &ExecConfig::default(),
    )
    .expect("no runtime error");
    assert!(exec.is_successful());
    assert!(MatchingProblem.is_valid_output(&net, &exec.outputs_unwrapped()));
}

/// Replaying an execution's consumed tapes reproduces it exactly
/// (the engine is a pure function of the bit source).
fn check_execution_replays_from_tapes(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor);
    let net = g.with_uniform_label(());
    let mut src = RngSource::seeded(seed);
    let exec = run(&Oblivious(RandomizedMis::new()), &net, &mut src, &ExecConfig::default())
        .expect("no runtime error");
    assert!(exec.is_successful());

    // Reconstruct per-node tapes by re-running the same seeded source.
    let mut replay_src = RngSource::seeded(seed);
    use anonet::runtime::RandomSource;
    let mut tapes = vec![BitString::new(); g.node_count()];
    for round in 1..=exec.rounds() {
        for v in g.nodes() {
            let halted_before = exec.halt_rounds()[v.index()].is_some_and(|h| h < round);
            if !halted_before {
                let bit = replay_src.bit(v, round).expect("rng never exhausts");
                tapes[v.index()].push(bit);
            }
        }
    }
    let mut tape_src = TapeSource::new(BitAssignment::new(tapes));
    let replay = run(&Oblivious(RandomizedMis::new()), &net, &mut tape_src, &ExecConfig::default())
        .expect("no runtime error");
    assert_eq!(replay.outputs(), exec.outputs());
}

/// The `A_*` pool-memo key — `(p_capped, canonical universe encoding)`
/// per node — is a function of the node's ball *label set* only, so it
/// must follow node renumberings (the key vector is permuted, nothing
/// else) and ignore port re-permutations entirely. This is what makes
/// the memo sound on anonymous instances: two presentations of the same
/// network always share their pools.
fn check_pool_memo_key_invariance(seed: u64, n: usize, flavor: u8) {
    use anonet::core::astar_cache::pool_keys;
    use anonet::graph::lift::Perm;
    use rand::SeedableRng;

    let g = arbitrary_graph(seed, n, flavor);
    let colored = coloring::greedy_two_hop_coloring(&g);
    // The A_* label shape: ((input, color), bitstring), at phase start.
    let ip = colored.map_labels(|&c| (((), c), BitString::new()));
    let n = ip.node_count();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    for p in 1..=3usize {
        let keys = pool_keys(&ip, p, 4);
        let perm = Perm::random(n, &mut rng);
        let renumbered = ip.renumber(&perm).expect("perm has matching degree");
        let keys_renumbered = pool_keys(&renumbered, p, 4);
        for v in 0..n {
            assert_eq!(
                keys[v],
                keys_renumbered[perm.apply(v)],
                "phase {p}: memo key did not follow node {v} through the renumbering"
            );
        }
        let shuffled = ip.with_shuffled_ports(&mut rng);
        assert_eq!(keys, pool_keys(&shuffled, p, 4), "phase {p}: memo keys saw port numbers");
    }
}

/// Layered view ids partition the nodes exactly as the `ViewTree`
/// canonical encodings do, at depths 1–3, on greedily 2-hop colored
/// instances.
fn check_view_ids_match_view_tree(seed: u64, n: usize, flavor: u8) {
    let g = arbitrary_graph(seed, n, flavor);
    let colored = coloring::greedy_two_hop_coloring(&g);
    for depth in 1..=3usize {
        if let Err(failure) = check_view_ids(&colored, depth, colored.graph().nodes()) {
            panic!("{failure}");
        }
    }
}

/// Historic shrink from `properties.proptest-regressions` (C3 via the
/// cycle flavor clamping n = 2 up to 3), pinned explicitly because the
/// vendored proptest ignores regression files.
#[test]
fn regression_seed_0_n_2_flavor_2() {
    check_two_hop_coloring_is_valid(0, 2, 2);
    check_quotient_is_uniform_fiber_factor(0, 2, 2);
    check_norris_bound(0, 2, 2);
    check_port_aware_refines_portless(0, 2, 2);
    check_derandomized_mis(0, 2, 2);
    check_matching_is_valid(0, 2, 2);
    check_execution_replays_from_tapes(0, 2, 2);
    check_pool_memo_key_invariance(0, 2, 2);
    check_view_ids_match_view_tree(0, 2, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_hop_coloring_is_always_valid(seed in 0u64..5000, n in 2usize..14, flavor in 0u8..4) {
        check_two_hop_coloring_is_valid(seed, n, flavor);
    }

    #[test]
    fn quotient_is_a_uniform_fiber_factor(seed in 0u64..5000, n in 2usize..14, flavor in 0u8..4) {
        check_quotient_is_uniform_fiber_factor(seed, n, flavor);
    }

    #[test]
    fn norris_bound_holds(seed in 0u64..5000, n in 2usize..16, flavor in 0u8..4) {
        check_norris_bound(seed, n, flavor);
    }

    #[test]
    fn port_aware_refines_portless(seed in 0u64..5000, n in 2usize..12, flavor in 0u8..4) {
        check_port_aware_refines_portless(seed, n, flavor);
    }

    #[test]
    fn derandomized_mis_is_valid_and_deterministic(seed in 0u64..2000, n in 2usize..10, flavor in 0u8..4) {
        check_derandomized_mis(seed, n, flavor);
    }

    #[test]
    fn matching_is_always_valid(seed in 0u64..3000, n in 1usize..12, flavor in 0u8..4) {
        check_matching_is_valid(seed, n, flavor);
    }

    #[test]
    fn executions_replay_from_recorded_tapes(seed in 0u64..5000, n in 2usize..12, flavor in 0u8..4) {
        check_execution_replays_from_tapes(seed, n, flavor);
    }

    #[test]
    fn pool_memo_keys_are_presentation_invariant(seed in 0u64..5000, n in 2usize..12, flavor in 0u8..4) {
        check_pool_memo_key_invariance(seed, n, flavor);
    }

    #[test]
    fn view_ids_match_view_tree(seed in 0u64..5000, n in 2usize..12, flavor in 0u8..4) {
        check_view_ids_match_view_tree(seed, n, flavor);
    }
}
