//! Inputs shared by the integration tests that pin stage 1.

use anonet::graph::{generators, Graph};
use rand::SeedableRng;

/// The `stage1_golden` cases: `(name, graph, seed)`.
pub fn stage1_cases() -> Vec<(String, Graph, u64)> {
    let mut cases: Vec<(String, Graph, u64)> =
        (0..5).map(|seed| (format!("petersen/s{seed}"), generators::petersen(), seed)).collect();
    cases.push(("grid(5,5)".into(), generators::grid(5, 5, false).unwrap(), 3));
    cases.push(("cycle(17)".into(), generators::cycle(17).unwrap(), 4));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(64);
    cases.push(("gnp(64,0.1)".into(), generators::gnp_connected(64, 0.1, &mut rng).unwrap(), 5));
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(128);
    cases.push((
        "3-regular(128)".into(),
        generators::random_regular(128, 3, 1000, &mut rng).unwrap(),
        6,
    ));
    cases
}
