//! # `lmm-serve` — the sharded serving tier
//!
//! The paper computes rankings in a distributed, per-site fashion so they
//! can be *consumed* that way too; this crate is the consumption side: a
//! std-only, read-mostly serving tier over `lmm-engine`'s snapshots, built
//! for the ROADMAP's "heavy traffic" north star.
//!
//! ```text
//!                 ┌──────────────┐   GraphDelta    ┌─────────────┐
//!   writer thread │  RankEngine  │ ──────────────► │ RankSnapshot│
//!                 │ (incremental)│    apply_delta  │ epoch E+1   │
//!                 └──────────────┘                 │ + Staleness │
//!                                                  └──────┬──────┘
//!                       publish: build every shard        │
//!                       (rebuild / refresh / re-pin),     │
//!                       then store the whole set once     ▼
//!                 ┌───────────────────────────────────────────────┐
//!                 │ ShardedServer: ArcCell<ServingSet>            │
//!                 │   ServingSet { snapshot (routing),            │
//!                 │                shards: [ShardState; n] }      │
//!   any query ────┼─► one lock-free load ─► answer on the         │
//!   (point, batch,│   caller's thread from that one set           │
//!    top-k)       │   (one set = one epoch per response)          │
//!                 └───────────────────────────────────────────────┘
//! ```
//!
//! * **Shard = contiguous site range** ([`ShardMap`], from `lmm-graph`):
//!   the paper's unit of computation is the unit of serving, so the
//!   incremental layer's per-site staleness sets translate directly into
//!   shard invalidation sets.
//! * **Per-shard stores** ([`ShardState`]): precomputed top-k heaps,
//!   per-site serving orders, and score lookups over one pinned immutable
//!   [`RankSnapshot`](lmm_engine::RankSnapshot).
//! * **One serving set per epoch**: the routing snapshot and every shard
//!   store live together behind one lock-free [`ArcCell`]. Every query
//!   loads it once and answers on the **caller's thread** — zero mutexes,
//!   zero worker hops — so every response carries exactly one epoch by
//!   construction, cross-shard gathers included.
//! * **Router**: routes point lookups to the owning shard and merges
//!   cross-shard top-k from the shards' precomputed partial heaps.
//! * **Writes never block reads** ([`ShardedServer::publish`]): a delta
//!   produces a new snapshot + staleness set; only stale shards rebuild,
//!   the rest re-pin their store `Arc` under the new epoch — or, after a
//!   removal redistributed the SiteRank, *refresh* (per-site orders
//!   reused, shard top list re-merged) — and readers keep answering
//!   from the old set until the new one is stored whole.
//! * **Removal is first-class**: tombstoned documents and sites answer
//!   typed errors ([`ServeError::TombstonedDoc`] /
//!   [`ServeError::TombstonedSite`]) instead of stale scores, and
//!   [`ServeStatsSnapshot::doc_skew`] exposes the per-shard doc-count
//!   imbalance churn leaves behind — the dynamic-resharding trigger.
//!
//! # Example
//!
//! ```
//! use lmm_engine::{BackendSpec, RankEngine};
//! use lmm_graph::generator::CampusWebConfig;
//! use lmm_graph::sharding::ShardMap;
//! use lmm_serve::{ServeConfig, ShardedServer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = CampusWebConfig::small();
//! cfg.total_docs = 300;
//! cfg.n_sites = 8;
//! cfg.spam_farms.clear();
//! let graph = cfg.generate()?;
//!
//! let mut engine = RankEngine::builder()
//!     .backend(BackendSpec::Incremental)
//!     .build()?;
//! engine.rank(&graph)?;
//!
//! let server = ShardedServer::start(
//!     ShardMap::balanced(&graph, 4)?,
//!     &engine.snapshot()?,
//!     ServeConfig::default(),
//! )?;
//! let (epoch, top) = server.top_k(5)?;
//! assert_eq!(epoch, 1);
//! assert_eq!(top, engine.top_k(5)?); // bitwise: same scores, same order
//! # Ok(())
//! # }
//! ```

pub mod cell;
pub mod error;
pub mod query;
pub mod router;
pub mod shard;
pub mod telemetry;

pub use cell::ArcCell;
pub use error::{Result, ServeError};
pub use query::ShardQuery;
pub use router::{
    publish_grades, shard_site_range, PublishReport, ServeConfig, ShardedServer, SwapGrade,
};
pub use shard::{DocScore, ShardState, SiteTopK};
pub use telemetry::{
    LatencyHistogram, LatencyHistogramSnapshot, ServeStats, ServeStatsSnapshot, LATENCY_BUCKETS,
};

// Re-exported so downstream code can name the shard key without a direct
// lmm-graph dependency.
pub use lmm_graph::sharding::ShardMap;
