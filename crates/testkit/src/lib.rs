//! # anonet-testkit
//!
//! A metamorphic conformance harness for the `anonet` workspace — the
//! testing counterpart of the paper's central claim that randomization
//! buys exactly a 2-hop coloring. Three pillars:
//!
//! * **Metamorphic oracles** — outputs must be invariant under node
//!   renumbering and port re-permutation, and must commute with
//!   permutation-voltage lifts along their projections;
//! * **Differential oracles** — the practical derandomizer, the
//!   infinity-model `A_∞`, the literal `A_*`, the content-addressed
//!   cache, the Theorem-1 pipeline, and a seeded randomized run must all
//!   tell the same story (via [`anonet_core::conformance`]); the
//!   [`persist`] oracle extends the cache leg to disk: memory ≡ fresh
//!   persistent ≡ crash-recovered persistent, byte for byte;
//! * **Adversarial execution** — every execution-backed oracle can run
//!   under a hostile [`RoundAdversary`](anonet_runtime::RoundAdversary)
//!   (reverse, skewed, keyed-shuffle sweeps), which must never change
//!   outputs because rounds are simultaneous — and must never change the
//!   bridged `anonet_obs` metrics either (the `obs-invariance` oracle:
//!   total messages, bytes, bits drawn, and round counts of a seeded run
//!   are schedule-invariant).
//!
//! Scenarios are generated from a deterministic, seeded [`TestCase`]
//! stream over every [`Family`](anonet_graph::generators::Family) ×
//! coloring mode × lift multiplicity × adversary. Failures shrink to a
//! locally minimal case and panic with a replay string:
//!
//! ```text
//! ANONET_TESTKIT_REPLAY='tc1:family=cycle,n=7,seed=42,color=greedy,lift=2,adv=skewed' cargo test
//! ```
//!
//! See [`suite::Config`] for the `ANONET_TESTKIT_*` environment knobs.
//!
//! # Example
//!
//! ```
//! use anonet_algorithms::{mis::RandomizedMis, problems::MisProblem};
//! use anonet_testkit::{Suite, TestCase};
//!
//! let suite = Suite::new("mis", RandomizedMis::new(), MisProblem, |_| ()).with_astar();
//! let case: TestCase = "tc1:family=cycle,n=3,seed=7,color=greedy,lift=2,adv=reverse"
//!     .parse()
//!     .unwrap();
//! suite.check(&case).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod campaign;
pub mod gen;
pub mod leader;
pub mod oracles;
pub mod persist;
pub mod suite;
pub mod testcase;

pub use campaign::{CampaignCell, CampaignGrid};
pub use gen::{build_graph, build_instance, color_graph, flavored_graph, Instance};
pub use leader::{check_leader, run_leader_suite};
pub use oracles::{check_view_ids, fingerprint, Failure};
pub use persist::{check_persistence, default_persistence_cases, PersistReport};
pub use suite::{Config, Suite};
pub use testcase::{AdversaryKind, ColoringMode, TestCase};

/// Errors surfaced by the generator layer (oracle violations are
/// [`Failure`]s, not errors).
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum TestkitError {
    /// An underlying graph error.
    Graph(anonet_graph::GraphError),
    /// An underlying runtime error.
    Runtime(anonet_runtime::RuntimeError),
    /// An underlying core error.
    Core(anonet_core::CoreError),
}

impl fmt::Display for TestkitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestkitError::Graph(e) => write!(f, "graph error: {e}"),
            TestkitError::Runtime(e) => write!(f, "runtime error: {e}"),
            TestkitError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for TestkitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TestkitError::Graph(e) => Some(e),
            TestkitError::Runtime(e) => Some(e),
            TestkitError::Core(e) => Some(e),
        }
    }
}

/// Convenient alias for results with [`TestkitError`].
pub type Result<T> = std::result::Result<T, TestkitError>;
