//! # `lmm-cluster` — the remote shard fabric
//!
//! PR 5's sharded serving tier (`lmm-serve`) proved the epoch-consistent
//! snapshot hot-swap *in one process*. This crate runs the same protocol
//! **across processes over TCP** — the deployment shape the paper's
//! distributed ranking architectures actually imply: every site (or
//! range of sites) served by its own node, coordinated only through
//! epoch-tagged messages.
//!
//! ```text
//!                        ┌──────────────────┐
//!        Register/Ping   │ ClusterController │  pins RankSnapshot R
//!      ┌────────────────►│  registry + map   │  places shards → nodes
//!      │                 └───┬───────────┬───┘
//!      │   Stage(C+1,seg)    │           │    Placement / Routing
//!      │   Commit(C+1,R)     │           ▼
//! ┌────┴──────┐        ┌─────┴─────┐  ┌──────────────┐
//! │ ShardNode │  ...   │ ShardNode │  │ ClusterClient │
//! │ shards 0‑1│        │ shards 6‑7│◄─┤ scatter/gather│
//! └───────────┘        └───────────┘  └──────────────┘
//! ```
//!
//! Three roles, all std-only (no async runtime, no serde — a hand-rolled
//! length-prefixed codec in [`wire`]):
//!
//! * [`ShardNode`] owns `ShardState`s behind a `TcpListener`: registers,
//!   heartbeats, stages snapshot segments, and answers queries tagged
//!   with its committed **cluster epoch** and **rank epoch**.
//! * [`ClusterController`] owns the node registry and the placement map,
//!   evicts nodes on missed heartbeats, and drives the **two-phase
//!   publish**: stage per-shard [`SnapshotSegment`]s (graded
//!   rebuild/refresh/repin by the *same* `publish_grades` the in-process
//!   tier uses), then commit the epoch flip only after every ack. On a
//!   node death it reassigns the lost shards to survivors, rebuilds them
//!   from its pinned snapshot, and bumps the cluster epoch.
//! * [`ClusterClient`] is the `ShardedServer` query surface over the
//!   wire, with the same consistency contract: one epoch per response,
//!   straddling gathers retry then escalate, dead nodes surface as
//!   retriable [`ClusterError::NodeUnavailable`] — never wrong-epoch
//!   data.
//!
//! Scores cross the wire as IEEE-754 bit patterns, so a cluster answer
//! is **bitwise identical** to the in-process tier's at the same epoch —
//! `exp_cluster` in `lmm-bench` asserts exactly that, across live churn
//! and a mid-run node kill.
//!
//! [`SnapshotSegment`]: lmm_engine::SnapshotSegment

pub mod client;
pub mod controller;
pub mod error;
pub mod node;
pub mod retry;
pub mod transport;
pub mod wire;

pub use client::{ClientConfig, ClientStats, ClusterClient};
pub use controller::{
    ClusterController, ClusterPublishReport, ClusterStats, ControllerConfig, NodeReport,
};
pub use error::{ClusterError, Result};
pub use node::{NodeConfig, ShardNode};
pub use retry::{RetryPolicy, RetrySchedule};
pub use transport::{FaultPlan, FramedConn, TransportError, WireCounters};
pub use wire::{
    decode_frame, decode_message, encode_frame, encode_message, Message, NodeWireStats, WireError,
    MAX_PAYLOAD, WIRE_VERSION,
};

/// Locks a mutex, recovering from poisoning: every mutex in this crate
/// guards state that is swapped or edited wholesale, so a thread that
/// panicked while holding one cannot have left it torn.
pub(crate) fn lock_clean<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
