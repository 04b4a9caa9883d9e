//! # anonet-soak
//!
//! Seeded soak campaigns plus the perf-regression sentinel that turns
//! the committed `BENCH_soak.json` baseline into a gate.
//!
//! A **campaign** ([`run_campaign`]) sweeps the cells of a
//! [`CampaignGrid`](anonet_testkit::CampaignGrid) — the cross product
//! (family × n × coloring mode × lift voltage × adversary × thread
//! count) — and in every cell:
//!
//! 1. runs the full conformance [`Suite`](anonet_testkit::Suite) (the
//!    differential and metamorphic oracles) over the cell's seeded
//!    [`TestCase`](anonet_testkit::TestCase) stream;
//! 2. pushes the instances through the cached batch pipeline twice
//!    against one shared
//!    [`PersistentDerandCache`](anonet_batch::PersistentDerandCache)
//!    (a cold pass that populates and a warm pass that must replay
//!    byte-identically), collecting wall time, cache hit counts for the
//!    memory and disk tiers, and per-job medians/p95;
//! 3. probes bytes/messages through the `anonet-obs` engine bridge and,
//!    on cells with tiny quotients, the `A_*` engine's `update_graph`
//!    span time.
//!
//! The result is a [`SoakReport`] serialized to `BENCH_soak.json`
//! through the workspace's shared [`Json`](anonet_obs::json::Json)
//! serializer: same seeds ⇒ identical report, modulo the timing fields.
//!
//! The **sentinel** ([`diff::diff`]) compares a fresh report against the
//! checked-in baseline: byte-identity, hit counts, message counts, and
//! sizes must match *exactly*; wall time is compared as each cell's
//! *share* of the campaign's total (machine-speed invariant) under a
//! configurable noise band (default ±15%). Regressed cells are listed
//! with their `tc1:…` replay strings so any of them can be re-run in
//! isolation, and a missing baseline records instead of failing.
//!
//! The `anonet-soak` binary exposes both halves:
//!
//! ```text
//! cargo run -p anonet-soak -- run   [--budget-secs N] [--out PATH]
//! cargo run -p anonet-soak -- check [--baseline PATH] [--band-pct P]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;

pub mod baseline;
pub mod campaign;
pub mod diff;
pub mod report;

pub use campaign::{
    run_campaign, run_campaign_observed, CampaignConfig, CellReport, OracleFailure, SoakReport,
};
pub use diff::{DiffOutcome, Regression, DEFAULT_BAND};

/// Errors surfaced by campaigns, baselines, and the sentinel.
#[derive(Debug)]
#[non_exhaustive]
pub enum SoakError {
    /// Instance generation failed (testkit generator layer).
    Testkit(anonet_testkit::TestkitError),
    /// A graph construction failed.
    Graph(anonet_graph::GraphError),
    /// A pipeline or derandomizer run failed outside the batch driver.
    Core(anonet_core::CoreError),
    /// The persistent cache's disk tier failed.
    Store(anonet_store::StoreError),
    /// A batch job inside a cell failed or panicked; `replay` re-runs the
    /// cell's first case.
    Cell {
        /// The cell's coordinate id.
        cell: String,
        /// `tc1:…` replay string of the cell's first case.
        replay: String,
        /// What went wrong.
        detail: String,
    },
    /// A baseline file could not be read or did not match the schema.
    Baseline {
        /// The file that failed.
        path: PathBuf,
        /// Why it failed.
        detail: String,
    },
    /// Reading or writing a report file failed.
    Io {
        /// What was being accessed.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::Testkit(e) => write!(f, "testkit error: {e}"),
            SoakError::Graph(e) => write!(f, "graph error: {e}"),
            SoakError::Core(e) => write!(f, "core error: {e}"),
            SoakError::Store(e) => write!(f, "store error: {e}"),
            SoakError::Cell { cell, replay, detail } => {
                write!(f, "cell {cell} failed: {detail} (replay with {replay})")
            }
            SoakError::Baseline { path, detail } => {
                write!(f, "baseline {}: {detail}", path.display())
            }
            SoakError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for SoakError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoakError::Testkit(e) => Some(e),
            SoakError::Graph(e) => Some(e),
            SoakError::Core(e) => Some(e),
            SoakError::Store(e) => Some(e),
            SoakError::Io { source, .. } => Some(source),
            SoakError::Cell { .. } | SoakError::Baseline { .. } => None,
        }
    }
}

impl From<anonet_testkit::TestkitError> for SoakError {
    fn from(e: anonet_testkit::TestkitError) -> Self {
        SoakError::Testkit(e)
    }
}

impl From<anonet_graph::GraphError> for SoakError {
    fn from(e: anonet_graph::GraphError) -> Self {
        SoakError::Graph(e)
    }
}

impl From<anonet_core::CoreError> for SoakError {
    fn from(e: anonet_core::CoreError) -> Self {
        SoakError::Core(e)
    }
}

impl From<anonet_store::StoreError> for SoakError {
    fn from(e: anonet_store::StoreError) -> Self {
        SoakError::Store(e)
    }
}

/// Convenient alias for results with [`SoakError`].
pub type Result<T> = std::result::Result<T, SoakError>;
