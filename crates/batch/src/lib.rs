//! # anonet-batch
//!
//! Concurrent batch execution for the Theorem-1 pipeline, built on the
//! observation (paper, Lemma 3) that *every lift of the same base graph has
//! the same unique prime factor*: the entire quotient-side computation of
//! the derandomizer — the canonical order on `V_*` and the minimal
//! successful bit assignment — is a function of `G_*` alone, so whole
//! experiment sweeps over lift families redo identical work.
//!
//! Three cooperating parts:
//!
//! * [`DerandCache`] — a thread-safe, content-addressed store keyed by the
//!   canonical byte encoding `s(G_*)` of the quotient (and, for assignment
//!   entries, by `(problem-id, s(G_*))`). A cache hit replaces the whole
//!   canonical-assignment search with a single tape replay.
//! * [`PersistentDerandCache`] — the same cache layered over the
//!   crash-safe on-disk tier from `anonet-store` via the [`CacheBackend`]
//!   trait: memory misses fall through to disk, fresh results write
//!   through, and [`PersistentDerandCache::warm`] preloads a new process
//!   from a previous run's state, so hit rates compound across restarts.
//! * [`BatchScheduler`] — a work-queue driver over [`std::thread::scope`]
//!   (no dependencies beyond `std`, per the DESIGN dependency policy) that
//!   runs many instances concurrently with deterministic,
//!   submission-ordered results, a [`BatchStats`] report, and per-job panic
//!   isolation.
//!
//! Rounds stay strictly sequential *within* an instance — the simulator
//! remains single-threaded by design (reproducibility). Parallelism is
//! only across instances, where executions are independent by
//! construction.
//!
//! `anonet-core` wires the cache into `Derandomizer` / `run_pipeline`, and
//! `anonet-bench`'s `report batch` experiment measures the effect.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod persist;
pub mod scheduler;

pub use cache::{
    instance_key, quotient_key, CacheStats, CachedAssignment, CounterRegression, DerandCache,
    SearchClaim,
};
pub use persist::{CacheBackend, PersistentDerandCache, StoreBackend, WarmEntry};
pub use scheduler::{BatchOutcome, BatchScheduler, BatchStats, JobResult};
