//! Supervised multi-session serving runtime for the stackless
//! streamed-trees engines.
//!
//! The paper's session artifacts — O(1) (registerless) / O(depth)
//! (pushdown-fallback) checkpoints over the fused byte engine — make a
//! streaming query run *migratable*: its entire state fits in a small,
//! serializable [`st_core::session::EngineCheckpoint`].  This crate
//! builds the serving layer that exploits that:
//!
//! * [`ServeRuntime`] — a fixed worker pool plus a supervisor.  Requests
//!   ([`JobSpec`]) are admitted through a bounded queue, dispatched to
//!   workers, and processed through checkpointed
//!   [`st_core::session::EngineSession`]s.  When a worker panics or
//!   stalls, the supervisor replaces it and the victim's request resumes
//!   *from its last checkpoint* on a healthy worker — bounded retries,
//!   exponential backoff, and a typed terminal error
//!   ([`ServeError::Failed`]) when the budget is exhausted.
//! * Admission control and backpressure — a bounded submission queue
//!   (load shedding with [`ServeError::Overloaded`]), a service-level
//!   in-flight byte budget ([`ServeError::Rejected`]), per-session
//!   [`st_core::session::Limits`] inherited from the
//!   [`ServiceBudget`], and graceful degradation from the data-parallel
//!   chunked path to the sequential guarded path under pressure.
//! * A deterministic chaos harness (feature `chaos`) — seeded injection
//!   of worker panics, stalls, and corrupt segments, with a DOM-oracle
//!   checker (`run_soak`) asserting that completed
//!   requests are byte-for-byte right and failed requests are typed.
//!   Fault rolls are pure functions of `(seed, job, attempt, segment)`,
//!   so soak outcomes are identical across pool sizes.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod config;
pub mod error;
pub mod frame;
mod heap;
pub mod net;
#[cfg(feature = "chaos")]
pub mod netchaos;
#[cfg(feature = "chaos")]
pub mod netsoak;
pub mod runtime;
#[cfg(feature = "chaos")]
pub mod soak;

pub use chaos::{ChaosConfig, Fault};
pub use config::{ServeConfig, ServiceBudget};
pub use error::{codes, FailureCause, ServeError};
pub use frame::{Frame, FrameError, FrameKind};
pub use net::{NetClient, NetConfig, NetError, NetResponse, NetServer, NetStats};
#[cfg(feature = "chaos")]
pub use netchaos::{NetChaosConfig, NetFault};
#[cfg(feature = "chaos")]
pub use netsoak::{
    run_net_soak, NetRequestOutcome, NetSoakConfig, NetSoakDivergence, NetSoakReport,
};
pub use runtime::{
    silence_chaos_panics, JobId, JobReport, JobSpec, MultiJobReport, MultiJobSpec, PathTaken,
    ServeRuntime, ServeStats,
};
#[cfg(feature = "chaos")]
pub use soak::{run_soak, RequestOutcome, SoakConfig, SoakDivergence, SoakReport};
