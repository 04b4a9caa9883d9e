//! Which rules apply where.
//!
//! Scopes are workspace-relative path prefixes with forward slashes. The
//! defaults in [`Config::workspace`] encode the anonet architecture:
//! which crates form the deterministic stage, which module is the
//! sanctioned randomness layer, and which hot paths must not panic. A
//! rule with an empty scope list never fires.

/// Path scoping for every rule.
#[derive(Clone, Debug)]
pub struct Config {
    /// Crates whose outputs must be bit-for-bit reproducible: the
    /// `determinism` rule flags unordered hash iteration here.
    pub determinism_scopes: Vec<String>,
    /// Where the `anonymity` rule applies (algorithm code).
    pub anonymity_scopes: Vec<String>,
    /// Modules inside the anonymity scope that legitimately read node
    /// identities: global-observer problem verifiers.
    pub anonymity_sanctioned: Vec<String>,
    /// Path prefixes where `rand`/`rand_chacha` are allowed: the
    /// sanctioned randomness layer, plus test/bench tooling crates.
    pub randomness_exempt: Vec<String>,
    /// Hot paths where `unwrap`/`expect`/`panic!` are forbidden.
    pub panic_scopes: Vec<String>,
    /// The file defining the `names` metric-constant module.
    pub obs_names_file: String,
    /// Where literal metric names at call sites are flagged.
    pub obs_callsite_scopes: Vec<String>,
    /// Where the `lock-discipline` flow rule applies.
    pub lock_scopes: Vec<String>,
    /// Where the `thread-leak` flow rule applies.
    pub thread_leak_scopes: Vec<String>,
    /// Where the `error-swallow` flow rule applies.
    pub error_swallow_scopes: Vec<String>,
    /// Where the `commit-order` flow rule applies: the parallel drivers
    /// whose byte-identity depends on submission-order commits.
    pub commit_order_scopes: Vec<String>,
    /// Types that are thread-confined by design: a binding derived from
    /// one must not cross into a submitted closure (`thread-leak`).
    pub thread_local_types: Vec<String>,
}

impl Config {
    /// The anonet workspace policy.
    pub fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            // The deterministic stage `A_*` and everything feeding its
            // canonical encodings: byte-identical outputs are promised by
            // the batch cache and the conformance oracles.
            determinism_scopes: s(&[
                "crates/core/src/",
                "crates/views/src/",
                "crates/factor/src/",
                "crates/graph/src/",
            ]),
            anonymity_scopes: s(&["crates/algorithms/src/"]),
            // Problem verifiers are global observers by definition
            // (they judge outputs, they don't run on nodes).
            anonymity_sanctioned: s(&[
                "crates/algorithms/src/problems.rs",
                "crates/algorithms/src/verify.rs",
            ]),
            randomness_exempt: s(&[
                // The one sanctioned randomness abstraction: everything
                // else draws bits through `RandomSource`.
                "crates/runtime/src/randomness.rs",
                // Test/bench tooling builds instances, not pipeline state.
                "crates/testkit/",
                "crates/bench/",
            ]),
            panic_scopes: s(&[
                "crates/runtime/src/",
                "crates/batch/src/scheduler.rs",
                "crates/core/src/astar.rs",
                "crates/core/src/astar_cache.rs",
                // The persistent store sits under every cached run and
                // must degrade to errors, never aborts.
                "crates/store/src/",
                "crates/batch/src/persist.rs",
                // The soak driver is itself a gate: a panic mid-campaign
                // loses the replay strings the gate exists to report.
                "crates/soak/src/",
                // Layered view ids are the per-node hot path of `A_*`'s
                // C2 check: a panic there takes out whole batch workers.
                "crates/views/src/view_ids.rs",
                // The trace CLI is forensic tooling: it must report a
                // broken log as an error, never die on it.
                "crates/trace/src/",
            ]),
            obs_names_file: "crates/obs/src/lib.rs".to_string(),
            obs_callsite_scopes: s(&["crates/", "src/"]),
            // The flow rules see the whole workspace: lock order and
            // error propagation are global properties.
            lock_scopes: s(&["crates/", "src/"]),
            thread_leak_scopes: s(&["crates/", "src/"]),
            error_swallow_scopes: s(&["crates/", "src/"]),
            // Only the parallel drivers promise byte-identical commits.
            commit_order_scopes: s(&["crates/batch/src/", "crates/core/src/batch.rs"]),
            thread_local_types: s(&["ViewArena"]),
        }
    }

    /// `true` iff `path` starts with any prefix in `scopes`.
    pub fn in_scopes(scopes: &[String], path: &str) -> bool {
        scopes.iter().any(|p| path.starts_with(p.as_str()))
    }
}
