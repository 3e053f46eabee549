//! Multi-tenant simulation serving: many concurrent sessions multiplexed
//! onto one shared cooperative scheduler pool.
//!
//! The paper's engines run one simulation per process; `egd-serve` turns
//! them into a *service*. A [`SessionManager`] accepts [`SessionConfig`]s
//! (engine choice, seed, generations, population spec), prices each with
//! the `egd-cost` predictor for **admission and placement** (rejecting or
//! queueing work beyond a configurable capacity budget, placing admitted
//! sessions on the least-loaded group), and runs admitted sessions
//! **cooperatively** over the `taskexec` executor — sessions yield at every
//! generation boundary, so many more sessions than workers interleave
//! fairly while streaming per-generation census and cooperation metrics
//! through a bounded subscriber channel.
//!
//! Sessions can be **suspended** (checkpointing through any
//! `egd_fault::CheckpointStore`), **resumed** byte-identically from
//! `(seed, generation)`, or **cancelled** without disturbing co-scheduled
//! tenants; a **crashed session is respawned** from its latest checkpoint
//! by the supervised-recovery pattern, inside its own fault domain. The
//! guarantee under test: a session's output is byte-identical whether it
//! runs alone or co-scheduled with dozens of tenants, across suspension,
//! resumption and injected crashes.
//!
//! Observability rides along: every session carries its own
//! `egd_obs::MetricsSnapshot` and span timeline, and a multi-tenant run
//! exports one diffable Perfetto timeline with a track per session via
//! [`serve_timeline_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod config;
mod engine;
mod manager;
mod session;
mod timeline;

pub use admission::{AdmissionAction, AdmissionRecord};
pub use config::{EngineKind, ServeConfig, SessionConfig};
pub use manager::{ServeReport, SessionManager, SessionOutcome};
pub use session::{SessionEvent, SessionHandle, SessionStatus};
pub use timeline::serve_timeline_json;
