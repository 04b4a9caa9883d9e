//! Heap allocations of a derandomization-cache miss.
//!
//! The cache key `s(G_*)` is the quotient's upper-triangle adjacency
//! matrix, `⌈n(n−1)/16⌉` bytes, so at `10^5` nodes every copy of it is a
//! gigabyte. A miss holds its key once: the lookup moves the key into the
//! claim, the claim set holds a 64-bit digest, and the insert moves the
//! claim's address into the table. Counting only allocations at least as
//! large as the key shows each copy.

#[path = "common/alloc.rs"]
mod counting;

use std::sync::Arc;

use anonet::algorithms::mis::RandomizedMis;
use anonet::batch::{CachedAssignment, DerandCache};
use anonet::core::Derandomizer;
use anonet::graph::coloring::greedy_two_hop_coloring;
use anonet::graph::generators;
use rand::SeedableRng;

#[test]
fn a_cache_miss_allocates_its_key_once() {
    const KEY: usize = 1 << 20;
    let cache = DerandCache::new();
    let cached = CachedAssignment {
        tapes: vec!["1".parse().expect("a tape")],
        attempts: 1,
        simulation_rounds: 1,
    };
    let ((), large) = counting::counted_at_least(KEY, || {
        let key = vec![0x5a; KEY];
        let claim = cache.lookup_or_claim("mis", key).expect_err("a cold cache misses");
        cache.insert_assignment(claim, cached.clone());
    });
    assert_eq!(large, 1, "the miss copied its {KEY}-byte key");
    assert_eq!(cache.lookup_assignment("mis", &[0x5a; KEY]), Some(cached));
    // Giving a claim up releases its digest and allocates nothing.
    let claim = cache.lookup_or_claim("mis", vec![0xa5; KEY]).expect_err("another miss");
    let ((), allocations) = counting::counted(|| drop(claim));
    assert_eq!(allocations, 0);
}

#[test]
fn a_cached_derandomizer_miss_adds_one_key_allocation() {
    // A random 3-regular graph, greedily 2-hop colored, is its own
    // quotient: its key is n(n−1)/16 bytes, about 1 MiB at n = 4096.
    let n = 4096;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4096);
    let g = generators::random_regular(n, 3, 1000, &mut rng).expect("a 3-regular graph");
    let instance = greedy_two_hop_coloring(&g).map_labels(|&c| ((), c));
    let key_bytes = n * (n - 1) / 16;
    let plain = Derandomizer::new(RandomizedMis::new());
    let cached = plain.clone().with_cache(Arc::new(DerandCache::new()));
    let (uncached_run, uncached) = counting::counted_at_least(key_bytes, || plain.run(&instance));
    let (miss_run, miss) = counting::counted_at_least(key_bytes, || cached.run(&instance));
    let (uncached_run, miss_run) = (uncached_run.expect("solved"), miss_run.expect("solved"));
    assert_eq!((uncached_run.quotient_nodes, miss_run.cache_hit), (n, false));
    assert_eq!(miss_run.outputs, uncached_run.outputs);
    assert_eq!(miss, uncached + 1, "a cached miss should allocate only its key s(G_*)");
    // A hit skips the search: the key is the one key-sized allocation.
    let (hit_run, hit) = counting::counted_at_least(key_bytes, || cached.run(&instance));
    assert!(hit_run.expect("replayed").cache_hit);
    assert_eq!(hit, 1, "a cache hit should allocate only its key s(G_*)");
}
