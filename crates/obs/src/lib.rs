//! # anonet-obs
//!
//! Zero-dependency structured observability for the anonet workspace:
//! hierarchical wall-time [`Span`]s, typed counters and [`Histogram`]s,
//! and pluggable [`Recorder`] backends, selected per execution,
//! derandomizer, or batch run.
//!
//! "Zero-dependency" means no external crates: the layer is `std` plus
//! the workspace's own `anonet-graph`/`anonet-runtime` (for the
//! [`bridge`] from the engine's trace events). Three backends ship:
//!
//! * [`NoopRecorder`] — the default everywhere. Reports
//!   [`Recorder::is_enabled`]` == false`, so instrumented code skips
//!   metric computation entirely; enabling observability with it is
//!   observationally free (outputs, traces, and cache bytes stay
//!   identical — the differential tests pin this down).
//! * [`MemoryRecorder`] — aggregates counters, histograms, and span
//!   wall-times in memory; snapshot, compare, render, and rebuild the
//!   span tree ([`MemorySnapshot::tree`]).
//! * [`JsonlRecorder`] — streams every metric event as one JSON line to
//!   a file or buffer, for tailing, offline analysis, and the
//!   `anonet-trace` toolchain.
//!
//! A fourth, [`FlightRecorder`], is the always-on bounded ring: the most
//! recent events, dumpable on demand or from a panic hook
//! (`target/trace-crash.jsonl`).
//!
//! Tracing is **causal**: every enabled span carries a stable [`SpanId`]
//! and an explicit parent link. On one thread, [`Span::new`] nests under
//! the innermost open span of the same recorder; across threads, a
//! [`TraceContext`] captured from the submitting span ([`Span::context`])
//! and adopted with [`Span::child_of`] keeps scheduler jobs and fanned-out
//! phase work parented under their submitter instead of becoming fresh
//! per-thread roots. Instrumentation still names only the leaf
//! (`"views"`); aggregates land under the `/`-joined path of the parent
//! chain (`"pipeline/derandomize/views"`). Metric names are centralized
//! in [`names`].
//!
//! The [`json`] module is the workspace's one shared JSON
//! serializer/parser — the bench harness builds its `BENCH_*.json`
//! artifacts with it and the tests re-parse them.
//!
//! # Example
//!
//! ```
//! use anonet_obs::{names, MemoryRecorder, Recorder, Span};
//!
//! let rec = MemoryRecorder::new();
//! {
//!     let _pipeline = Span::new(&rec, "pipeline");
//!     let _coloring = Span::new(&rec, "coloring");
//!     rec.counter(names::ENGINE_MESSAGES, 42);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.span("pipeline/coloring").unwrap().count, 1);
//! assert_eq!(snap.counter(names::ENGINE_MESSAGES), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod crash;
mod flight;
mod hist;
pub mod json;
mod jsonl;
mod memory;
mod recorder;
mod trace;

pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::{Histogram, BUCKETS};
pub use json::Json;
pub use jsonl::{JsonlRecorder, SharedBuffer};
pub use memory::{MemoryRecorder, MemorySnapshot, SpanNode, SpanStat};
pub use recorder::{noop, NoopRecorder, Recorder, SharedRecorder, Span};
pub use trace::{thread_ordinal, SpanId, TraceContext};

/// The canonical metric and span names every instrumented layer uses.
///
/// Counters and histograms are namespaced `layer.metric`; span constants
/// are bare leaf names (backends join them into nesting paths).
pub mod names {
    // Engine counters (bridged from `Execution`/`Event` logs).
    /// Rounds executed.
    pub const ENGINE_ROUNDS: &str = "engine.rounds";
    /// Messages delivered.
    pub const ENGINE_MESSAGES: &str = "engine.messages";
    /// Bytes of message payload delivered.
    pub const ENGINE_MESSAGE_BYTES: &str = "engine.message_bytes";
    /// Random bits drawn.
    pub const ENGINE_BITS_DRAWN: &str = "engine.bits_drawn";
    /// Nodes that wrote an output.
    pub const ENGINE_OUTPUTS: &str = "engine.outputs";
    /// Nodes that halted.
    pub const ENGINE_HALTS: &str = "engine.halts";

    // Engine histograms.
    /// Messages delivered in each round.
    pub const ENGINE_MESSAGES_PER_ROUND: &str = "engine.messages_per_round";
    /// Active (non-halted) nodes at the start of each round.
    pub const ENGINE_ACTIVE_PER_ROUND: &str = "engine.active_per_round";
    /// Random bits drawn by each node (rounds it stayed active).
    pub const ENGINE_BITS_PER_NODE: &str = "engine.bits_per_node";

    // Derandomizer counters and histograms.
    /// Derandomization cache hits.
    pub const CACHE_HIT: &str = "cache.hit";
    /// Derandomization cache misses.
    pub const CACHE_MISS: &str = "cache.miss";
    /// Bytes resident in the derandomization cache after the run.
    pub const CACHE_BYTES: &str = "cache.bytes";
    /// Candidate bit assignments tried by the `A_*` search.
    pub const SEARCH_ATTEMPTS: &str = "search.attempts";
    /// Nodes in the view quotient per run.
    pub const DERAND_QUOTIENT_NODES: &str = "derand.quotient_nodes";
    /// Fiber multiplicity (lift factor) per run.
    pub const DERAND_MULTIPLICITY: &str = "derand.multiplicity";
    /// View-refinement stabilization depth per run.
    pub const DERAND_VIEW_DEPTH: &str = "derand.view_depth";

    // Batch counters and histograms.
    /// Jobs submitted to the batch scheduler.
    pub const BATCH_JOBS: &str = "batch.jobs";
    /// Jobs that returned `Ok`.
    pub const BATCH_JOBS_OK: &str = "batch.jobs_ok";
    /// Jobs that returned `Err`.
    pub const BATCH_JOBS_FAILED: &str = "batch.jobs_failed";
    /// Jobs that panicked.
    pub const BATCH_JOBS_PANICKED: &str = "batch.jobs_panicked";
    /// Microseconds each job waited between batch start and claim.
    pub const BATCH_QUEUE_WAIT_US: &str = "batch.queue_wait_us";
    /// Microseconds of wall time each job ran for.
    pub const BATCH_JOB_WALL_US: &str = "batch.job_wall_us";

    // Persistent-store counters and histograms (`anonet-store`).
    /// Frames appended to segment logs (puts and tombstones).
    pub const STORE_SEGMENT_APPENDS: &str = "store.segment.appends";
    /// Bytes of frames appended to segment logs.
    pub const STORE_SEGMENT_BYTES: &str = "store.segment.bytes";
    /// Active segments sealed and rolled to a successor.
    pub const STORE_SEGMENT_ROLLS: &str = "store.segment.rolls";
    /// Point reads answered by segment logs.
    pub const STORE_SEGMENT_READS: &str = "store.segment.reads";
    /// Value bytes returned by segment point reads.
    pub const STORE_SEGMENT_READ_BYTES: &str = "store.segment.read_bytes";
    /// Torn segment tails truncated during open-time recovery.
    pub const STORE_SEGMENT_TORN: &str = "store.segment.torn";
    /// Mid-file damaged regions quarantined by CRC resynchronization.
    pub const STORE_SEGMENT_QUARANTINED: &str = "store.segment.quarantined";
    /// Intact records recovered by open-time segment scans.
    pub const STORE_SEGMENT_RECOVERED: &str = "store.segment.recovered";
    /// Compaction runs completed.
    pub const STORE_COMPACTION_RUNS: &str = "store.compaction.runs";
    /// Bytes reclaimed by compaction.
    pub const STORE_COMPACTION_RECLAIMED: &str = "store.compaction.reclaimed";
    /// Live records surviving each compaction (histogram).
    pub const STORE_COMPACTION_LIVE: &str = "store.compaction.live";
    /// Entries served by warm-start scans.
    pub const STORE_WARM_ENTRIES: &str = "store.warm.entries";
    /// Key+value bytes served by warm-start scans.
    pub const STORE_WARM_BYTES: &str = "store.warm.bytes";

    // Soak-campaign counters and histograms (`anonet-soak`).
    /// Campaign cells completed by a soak run.
    pub const SOAK_CELLS: &str = "soak.cells";
    /// Test cases executed across all campaign cells.
    pub const SOAK_CASES: &str = "soak.cases";
    /// Oracle failures observed during a soak campaign.
    pub const SOAK_ORACLE_FAILURES: &str = "soak.oracle_failures";
    /// Cells skipped because the campaign's time budget ran out.
    pub const SOAK_CELLS_SKIPPED: &str = "soak.cells_skipped";
    /// Wall microseconds per campaign cell (histogram).
    pub const SOAK_CELL_WALL_US: &str = "soak.cell_wall_us";
    /// Regressions flagged by a sentinel `check` run.
    pub const SOAK_REGRESSIONS: &str = "soak.regressions";

    // Span leaf names (joined into paths by the backends).
    /// The whole two-stage pipeline.
    pub const SPAN_PIPELINE: &str = "pipeline";
    /// Stage 1: randomized 2-hop coloring.
    pub const SPAN_COLORING: &str = "coloring";
    /// Stage 2: the deterministic derandomizer.
    pub const SPAN_DERANDOMIZE: &str = "derandomize";
    /// View-quotient construction.
    pub const SPAN_VIEWS: &str = "views";
    /// Canonical prime-factor ordering.
    pub const SPAN_FACTOR: &str = "factor";
    /// The `A_*` search for a successful simulation.
    pub const SPAN_SEARCH: &str = "search";
    /// Replaying a cached assignment.
    pub const SPAN_REPLAY: &str = "replay";
    /// Lifting quotient outputs back to the input graph.
    pub const SPAN_LIFT: &str = "lift";
    /// One full `A_*` run (phases 1..z+1).
    pub const SPAN_ASTAR: &str = "astar";
    /// `A_*` Update-Graph phase (candidate enumeration).
    pub const SPAN_UPDATE_GRAPH: &str = "update_graph";
    /// `A_*` Update-Output phase (quotient simulation).
    pub const SPAN_UPDATE_OUTPUT: &str = "update_output";
    /// `A_*` Update-Bits phase (minimal tape extension).
    pub const SPAN_UPDATE_BITS: &str = "update_bits";
    /// `A_*` per-phase setup: candidate pools and C2 selection indexes.
    pub const SPAN_ASTAR_PREPARE: &str = "prepare";
    /// Memoized candidate pools served from the `A_*` pool cache.
    pub const ASTAR_POOL_HIT: &str = "astar.pool.hit";
    /// Candidate pools built from scratch by the `A_*` pool cache.
    pub const ASTAR_POOL_MISS: &str = "astar.pool.miss";
    /// Per-node C2 lookups against a pool's view-encoding index.
    pub const ASTAR_C2_LOOKUPS: &str = "astar.c2.lookups";
    /// C2 lookups that found a matching candidate.
    pub const ASTAR_C2_HITS: &str = "astar.c2.hits";
    /// View-encoding interner lookups that found an existing encoding.
    pub const VIEWS_INTERNER_HIT: &str = "views.interner.hit";
    /// View-encoding interner lookups that inserted a new encoding.
    pub const VIEWS_INTERNER_MISS: &str = "views.interner.miss";
    /// View-tree vertices built in the arena (gauge: built this run).
    pub const VIEWS_ARENA_NODES: &str = "views.arena.nodes";
    /// One batch-scheduler run.
    pub const SPAN_BATCH_RUN: &str = "batch_run";
    /// One batch job, queue-claim to completion.
    pub const SPAN_JOB: &str = "job";
    /// Opening a persistent store (segment scans, index rebuild).
    pub const SPAN_STORE_OPEN: &str = "store_open";
    /// One point read against a segment log.
    pub const SPAN_SEGMENT_READ: &str = "segment_read";
    /// One frame append to a segment log.
    pub const SPAN_SEGMENT_WRITE: &str = "segment_write";
    /// Open-time recovery scan of one segment log.
    pub const SPAN_SEGMENT_RECOVER: &str = "segment_recover";
    /// Compacting one store shard.
    pub const SPAN_STORE_COMPACT: &str = "store_compact";
    /// Warm-start scan preloading hot entries.
    pub const SPAN_STORE_WARM: &str = "store_warm";
    /// One whole soak campaign.
    pub const SPAN_SOAK_CAMPAIGN: &str = "soak_campaign";
    /// One campaign cell (oracles + batch passes + probes).
    pub const SPAN_SOAK_CELL: &str = "soak_cell";
}
