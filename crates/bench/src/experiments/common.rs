//! Shared fixtures for the experiment suite.

use anonet_graph::{generators, Graph, LabeledGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A named graph family at a chosen size, used across experiment tables.
#[derive(Clone, Debug)]
pub struct Family {
    /// Display name.
    pub name: &'static str,
    /// The graph.
    pub graph: Graph,
}

impl Family {
    /// The standard experiment families, small enough to be fast and
    /// varied enough to exercise the machinery (cycle, path, torus,
    /// hypercube, Petersen, random tree, sparse G(n, p)).
    pub fn standard(seed: u64) -> Vec<Family> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        vec![
            Family { name: "cycle-12", graph: generators::cycle(12).expect("valid") },
            Family { name: "path-12", graph: generators::path(12).expect("valid") },
            Family { name: "torus-3x4", graph: generators::grid(3, 4, true).expect("valid") },
            Family { name: "hypercube-3", graph: generators::hypercube(3).expect("valid") },
            Family { name: "petersen", graph: generators::petersen() },
            Family { name: "wheel-8", graph: generators::wheel(8).expect("valid") },
            Family {
                name: "circulant-9",
                graph: generators::circulant(9, &[1, 2]).expect("valid"),
            },
            Family {
                name: "tree-12",
                graph: generators::random_tree(12, &mut rng).expect("valid"),
            },
            Family {
                name: "gnp-12",
                graph: generators::gnp_connected(12, 0.25, &mut rng).expect("valid"),
            },
        ]
    }

    /// The Figure-2 tower: colored C3, C6, C12 (labels 1, 2, 3 repeating).
    pub fn figure2_tower() -> Vec<(usize, LabeledGraph<u32>)> {
        [3usize, 6, 12]
            .into_iter()
            .map(|n| {
                let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32 + 1).collect();
                (n, generators::cycle(n).expect("valid").with_labels(labels).expect("valid"))
            })
            .collect()
    }
}

/// Marks a boolean as a table cell.
pub fn tick(b: bool) -> String {
    if b {
        "yes".into()
    } else {
        "NO".into()
    }
}

/// The tier-1 overhead tests' timer: the min-of-5 wall of the Petersen
/// MIS pipeline observed through `rec`, over the min-of-5 wall of the
/// un-instrumented entry point, the two runs alternating so that drift
/// in the machine's load reaches both.
#[cfg(test)]
pub(crate) fn petersen_overhead(seed: u64, rec: &anonet_obs::SharedRecorder) -> f64 {
    use anonet_algorithms::mis::RandomizedMis;
    use anonet_core::pipeline::{run_pipeline, run_pipeline_observed};
    use anonet_core::SearchStrategy;
    use anonet_runtime::ExecConfig;
    use std::time::{Duration, Instant};

    let alg = RandomizedMis::new();
    let net = generators::petersen().with_uniform_label(());
    let strategy = SearchStrategy::default();
    let timed = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed()
    };
    let (mut plain, mut observed) = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        plain = plain.min(timed(&|| {
            run_pipeline(&alg, &net, seed, strategy).unwrap();
        }));
        observed = observed.min(timed(&|| {
            run_pipeline_observed(&alg, &net, seed, strategy, &ExecConfig::default(), None, rec)
                .unwrap();
        }));
    }
    observed.as_secs_f64() / plain.as_secs_f64().max(f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_families_are_connected() {
        for f in Family::standard(1) {
            assert!(f.graph.is_connected(), "{} disconnected", f.name);
        }
    }

    #[test]
    fn figure2_tower_shapes() {
        let tower = Family::figure2_tower();
        assert_eq!(tower.len(), 3);
        assert_eq!(tower[2].1.node_count(), 12);
    }
}
