//! # anonet-runtime
//!
//! The synchronous anonymous message-passing model of *"Anonymous Networks:
//! Randomization = 2-Hop Coloring"* (PODC 2014, Section 1.1), as an
//! executable runtime.
//!
//! * All nodes run the **same** [`Algorithm`] with no identifiers; a node's
//!   input is exactly its input label (which, per the paper's convention,
//!   includes its degree — the runtime passes the degree explicitly).
//! * Execution proceeds in **synchronous rounds**: each round every active
//!   node composes one optional message per port (or one broadcast for all
//!   of them), messages are delivered by reference, and each node steps
//!   its state with its inbox and **exactly one random bit** (the paper's
//!   normalization).
//! * Outputs are **irrevocable**: writing two different outputs is an
//!   algorithm bug, reported as [`RuntimeError::OutputConflict`].
//! * Randomness is abstracted as a [`RandomSource`]. A live RNG gives
//!   Las-Vegas executions; a prescribed [`BitAssignment`] tape replays the
//!   *simulation induced by `b`* of the paper's Section 2.2 — the heart of
//!   the derandomization.
//! * [`first_successful_extension`] searches the paper's canonical order
//!   for the first extension of an assignment whose induced simulation is
//!   successful, resuming each candidate from checkpointed states instead
//!   of re-running it from round 1.
//!
//! # Example: a trivial deterministic algorithm
//!
//! ```
//! use anonet_graph::generators;
//! use anonet_runtime::{run, Algorithm, Actions, ExecConfig, Inbox, RngSource, Status};
//!
//! /// Every node outputs its degree and halts after one round.
//! struct DegreeEcho;
//!
//! impl Algorithm for DegreeEcho {
//!     type Input = u32;
//!     type Message = ();
//!     type Output = u32;
//!     type State = u32; // the degree
//!
//!     fn init(&self, _input: &u32, degree: usize) -> u32 { degree as u32 }
//!     fn compose(&self, _state: &u32, _port: anonet_graph::Port) -> Option<()> { None }
//!     fn step(&self, state: u32, _round: usize, _inbox: &Inbox<'_, ()>, _bit: bool,
//!             actions: &mut Actions<u32>) -> u32 {
//!         actions.output(state);
//!         actions.halt();
//!         state
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = generators::cycle(5)?.with_uniform_label(0u32);
//! let exec = run(&DegreeEcho, &net, &mut RngSource::seeded(1), &ExecConfig::default())?;
//! assert_eq!(exec.status(), Status::Completed);
//! assert!(exec.outputs().iter().all(|o| *o == Some(2)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
mod algorithm;
mod assignment;
mod engine;
mod error;
mod oblivious;
mod problem;
mod randomness;
mod search;
pub mod trace;

pub use adversary::{
    FairScheduler, ReverseScheduler, RoundAdversary, ShuffledScheduler, SkewedScheduler,
};
pub use algorithm::{Actions, Algorithm, Inbox};
pub use assignment::BitAssignment;
pub use engine::{run, run_with_adversary, ExecConfig, Execution, Status};
pub use error::RuntimeError;
pub use oblivious::{Oblivious, ObliviousAlgorithm};
pub use problem::{DecisionOutput, DecisionProblem, Problem};
pub use randomness::{RandomSource, RngSource, TapeSource, ZeroSource};
pub use search::first_successful_extension;
pub use trace::Event;

/// Convenient alias for results with [`RuntimeError`].
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Empties a vector of references and hands its allocation over under
/// another lifetime (collecting into the same layout reuses the buffer):
/// a buffer that borrows one round's data is kept between rounds as a
/// vector of `&'static ()` or `Option<&'static ()>`. `T` and `U` must
/// share size and alignment, checked at compile time, so the buffer is
/// never silently reallocated.
pub(crate) fn recycle<T, U>(v: Vec<T>) -> Vec<U> {
    const {
        assert!(
            std::mem::size_of::<T>() == std::mem::size_of::<U>()
                && std::mem::align_of::<T>() == std::mem::align_of::<U>(),
            "recycle reuses a buffer only between element types of one layout"
        );
    }
    v.into_iter().filter_map(|_| None).collect()
}
