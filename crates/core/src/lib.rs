//! # anonet-core
//!
//! The derandomization machinery of *"Anonymous Networks: Randomization =
//! 2-Hop Coloring"* (PODC 2014) — the paper's primary contribution, made
//! executable:
//!
//! * [`infinity`] — **Theorem 2** (`A_∞`): on a 2-hop colored instance,
//!   build the finite representation `G_*` of the infinite view graph,
//!   select the *minimal successful* bit assignment in the canonical
//!   order, simulate the randomized algorithm on the quotient, and lift
//!   the outputs;
//! * [`astar`] — **Theorem 1** (`A_*`, the paper's Figure 3): the
//!   phase-structured deterministic algorithm with its candidate
//!   enumeration (`Update-Graph`), quotient simulation (`Update-Output`),
//!   and lexicographically minimal tape extension (`Update-Bits`) —
//!   faithful to the pseudocode, feasible on small instances;
//! * [`astar_cache`] — the memo behind the fast `A_*` path: candidate
//!   pools keyed by `(p_capped, universe)`, per-depth C2 selection
//!   indexes over hash-consed layered view ids, and cached
//!   balls-by-radius;
//! * [`derandomizer`] — the engineering-grade variant of the same
//!   construction: quotient once, pick a canonical successful assignment
//!   (exhaustive-minimal or seeded-replay), lift;
//! * [`pipeline`] — the **Theorem-1 decomposition** end to end: a generic
//!   randomized 2-hop coloring stage followed by the problem-specific
//!   deterministic stage;
//! * [`candidates`] — enumeration of all candidate labeled graphs with at
//!   most `p` nodes over a finite label universe (complete for `A_*` by
//!   the connectivity argument: every node of a candidate appears in the
//!   matching view);
//! * [`conformance`] — differential oracles tying the three faces
//!   together (`A_*` ≡ `A_∞` ≡ the derandomizer ≡ a replayed randomized
//!   run), the core of `anonet-testkit`;
//! * [`gran`] — the GRAN bundle: a problem together with its Las-Vegas
//!   solver and decider, including deciding instance membership *by
//!   simulation* of the decider;
//! * [`batch`] — concurrent drivers running many instances through the
//!   derandomizer or pipeline on an `anonet-batch` scheduler, sharing one
//!   content-addressed derandomization cache (Lemma 3: lifts of a common
//!   base have isomorphic quotients, so the canonical search is paid once
//!   per quotient class).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod astar;
pub mod astar_cache;
pub mod batch;
pub mod candidates;
pub mod conformance;
pub mod derandomizer;
pub mod distributed;
mod error;
pub mod gran;
pub mod infinity;
pub mod pipeline;
mod search;

pub use batch::{derandomize_batch, pipeline_batch};
pub use derandomizer::{derandomize_port_sensitive, DerandomizedRun, Derandomizer};
pub use error::CoreError;
pub use search::SearchStrategy;

/// Convenient alias for results with [`CoreError`].
pub type Result<T> = std::result::Result<T, CoreError>;
