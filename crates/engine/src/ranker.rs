//! The pluggable ranking-strategy trait.

use std::sync::Arc;

use crate::context::ExecContext;
use crate::error::{EngineError, Result};
use crate::outcome::RankOutcome;
use lmm_core::incremental::UpdateStats;
use lmm_graph::delta::{AppliedDelta, GraphDelta};
use lmm_graph::docgraph::DocGraph;

/// Result of a structural-delta update: the mutated graph (so the engine
/// can refresh its serving cache and fingerprint in place), the induced
/// summary (exact edge diff + site staleness sets — the engine composes
/// its fingerprint and the serving tier's shard invalidation set from it),
/// the new outcome, and the incremental cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// The graph after the delta was applied — shared with the backend's
    /// retained state, so returning it never deep-copies the graph.
    pub graph: Arc<DocGraph>,
    /// The exact induced summary of the applied delta.
    pub applied: AppliedDelta,
    /// The refreshed ranking outcome.
    pub outcome: RankOutcome,
    /// Which layers were recomputed vs reused.
    pub stats: UpdateStats,
}

/// A ranking strategy: anything that can turn a document graph into a
/// global document ranking under a shared [`ExecContext`].
///
/// The paper's point (and the Partition Theorem's) is that its four
/// approaches and several deployment architectures compute interchangeable
/// rankings over the same graph. This trait is that interchangeability made
/// explicit: every approach, deployment, and future backend (sharded,
/// async, remote) is one `Ranker` implementation, and
/// [`RankEngine`](crate::RankEngine) composes them with caching and
/// serving.
///
/// Implementations must be `Send + Sync` so an engine can be shared across
/// serving threads.
pub trait Ranker: Send + Sync {
    /// Stable human-readable backend name (used in telemetry and outcome
    /// labels).
    fn name(&self) -> String;

    /// Ranks the graph under the context.
    ///
    /// The returned outcome's `ranking` must be a probability distribution
    /// over all documents in `DocId` order, and `telemetry.backend` must
    /// equal [`Ranker::name`].
    ///
    /// # Errors
    /// Backend-specific failures (non-convergence, unsupported context
    /// features, invalid graphs), uniformly wrapped in
    /// [`EngineError`].
    fn rank(&self, graph: &DocGraph, ctx: &ExecContext) -> Result<RankOutcome>;

    /// Applies a structural [`GraphDelta`] to the backend's maintained
    /// state, recomputing only the stale layers.
    ///
    /// Only backends that keep incremental state (the built-in
    /// [`IncrementalRanker`](crate::IncrementalRanker)) override this; the
    /// default refuses, so stateless backends never pretend a delta was
    /// cheap.
    ///
    /// # Errors
    /// [`EngineError::UnsupportedDelta`] by default;
    /// [`EngineError::NotRanked`] when no previous state exists; otherwise
    /// backend-specific failures.
    fn apply_delta(&self, _delta: &GraphDelta, _ctx: &ExecContext) -> Result<DeltaOutcome> {
        Err(EngineError::UnsupportedDelta {
            backend: self.name(),
        })
    }
}
