//! A shard node: owns a set of `ShardState`s behind a `TcpListener`.
//!
//! The node is deliberately dumb — all placement and grading intelligence
//! lives in the controller. It registers, answers heartbeats, applies
//! two-phase publishes (stage segments, commit the epoch flip), and
//! serves queries tagged with its committed **cluster epoch** and the
//! **rank epoch** of the snapshot it serves. The two are distinct on
//! purpose: failover republishes the *same* rank epoch under a *new*
//! cluster epoch, and clients key gather consistency on the cluster
//! epoch — so "same data, new placement" never reads as "same epoch,
//! different data".
//!
//! Concurrency model: the transport's shared `Server` loop accepts connections and
//! serves each on its own thread; callers pool them, so one connection
//! carries every heartbeat, stage and query a peer sends. The loop's idle
//! tick expires orphaned staged sets. Serving state swaps atomically
//! under a mutex held only for the pointer swap and `Arc` clones — query
//! compute happens off-lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lmm_engine::SnapshotSegment;
use lmm_graph::{DocId, SiteId};
use lmm_serve::{DocScore, ShardState, SiteTopK, SwapGrade};

use crate::error::{ClusterError, Result};
use crate::lock_clean;
use crate::retry::RetryPolicy;
use crate::transport::{bind_loopback, ConnPool, FaultPlan, Server, WireCounters};
use crate::wire::{Message, NodeWireStats};

/// Shard-node tuning knobs.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Per-shard precomputed top-k capacity (as in the in-process tier).
    pub heap_k: usize,
    /// Read/write timeout on every connection.
    pub io_timeout: Duration,
    /// How long a staged-but-uncommitted epoch set may wait for its
    /// commit before the node garbage-collects it. A publishing
    /// controller that dies (or silently gives up) between stage and
    /// commit must not leave segments pinned forever — and a commit for
    /// an expired set is refused, so a resurrected controller cannot
    /// flip the node onto a stale epoch.
    pub stage_ttl: Duration,
    /// Retry discipline for registration and rejoin with the controller
    /// (kept modest by default so a genuinely absent controller fails in
    /// tens of milliseconds, not the full chaos-grade budget).
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection on this node's accepted
    /// connections (both directions).
    pub fault: Option<FaultPlan>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self {
            heap_k: 64,
            io_timeout: Duration::from_secs(2),
            stage_ttl: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            fault: None,
        }
    }
}

/// What the node currently serves: one committed cluster epoch, one rank
/// epoch, and the owned shard stores. Swapped wholesale at commit.
#[derive(Default)]
struct Serving {
    epoch: u64,
    rank_epoch: u64,
    shards: HashMap<u64, Arc<ShardState>>,
}

/// The pending stage set for one not-yet-committed cluster epoch. A stage
/// at a newer epoch supersedes (clears) an older uncommitted set, and a
/// set that outlives [`NodeConfig::stage_ttl`] is expired.
#[derive(Default)]
struct Staged {
    epoch: u64,
    entries: HashMap<u64, (SwapGrade, Option<SnapshotSegment>)>,
    /// When the set's most recent stage arrived (TTL clock).
    at: Option<Instant>,
}

struct NodeInner {
    /// Assigned at construction and never reassigned (a rejoin keeps the
    /// id), so no atomicity is needed.
    node_id: u64,
    addr: String,
    cfg: NodeConfig,
    serving: Mutex<Serving>,
    staged: Mutex<Staged>,
    /// Highest cluster epoch the controller has explicitly aborted; stage
    /// and commit at or below it are refused, so a dead epoch can never
    /// be committed by a late or replayed message.
    last_aborted: AtomicU64,
    counters: Arc<WireCounters>,
    queries: AtomicU64,
    tombstone_rejections: AtomicU64,
    staged_count: AtomicU64,
    commits: AtomicU64,
    aborted: AtomicU64,
    staged_expired: AtomicU64,
}

/// A running shard node. Dropping the handle does **not** stop the node;
/// call [`ShardNode::kill`].
pub struct ShardNode {
    inner: Arc<NodeInner>,
    server: Server,
}

impl ShardNode {
    /// Binds a loopback listener, registers with the controller at
    /// `controller_addr`, and starts serving.
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] for a zero `heap_k`;
    /// [`ClusterError::ControllerUnavailable`] or
    /// [`ClusterError::RetryExhausted`] when registration fails past the
    /// config's retry budget.
    pub fn start(controller_addr: &str, cfg: NodeConfig) -> Result<Self> {
        Self::launch(controller_addr, cfg, None)
    }

    /// Restarts a killed node: binds a *fresh* listener (the old port is
    /// gone with the old process) and announces itself to the controller
    /// under the node id of its previous incarnation. The controller
    /// re-admits the id, restores its former shard claim, and catches the
    /// node up by republishing the pinned snapshot under a bumped cluster
    /// epoch — the rank epoch is untouched, the same two-epoch discipline
    /// as failover. Until that catch-up publish commits, the node answers
    /// `NotOwner` (a retriable condition clients already handle).
    ///
    /// # Errors
    /// See [`ShardNode::start`].
    pub fn restart(controller_addr: &str, prior_node: u64, cfg: NodeConfig) -> Result<Self> {
        Self::launch(controller_addr, cfg, Some(prior_node))
    }

    fn launch(controller_addr: &str, cfg: NodeConfig, prior: Option<u64>) -> Result<Self> {
        if cfg.heap_k == 0 {
            return Err(ClusterError::InvalidConfig {
                reason: "heap_k must be at least 1".into(),
            });
        }
        let (listener, addr) = bind_loopback()?;
        let counters = Arc::new(WireCounters::default());
        // Register before serving: the controller must know us before any
        // publish can place shards here. The listener is already bound,
        // so a catch-up stage racing in right after the reply parks in
        // the TCP backlog until the accept loop spins up.
        let node = register_with_controller(controller_addr, &addr, prior, &cfg, &counters)?;
        let inner = Arc::new(NodeInner {
            node_id: node,
            addr,
            cfg,
            serving: Mutex::new(Serving::default()),
            staged: Mutex::new(Staged::default()),
            last_aborted: AtomicU64::new(0),
            counters,
            queries: AtomicU64::new(0),
            tombstone_rejections: AtomicU64::new(0),
            staged_count: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            staged_expired: AtomicU64::new(0),
        });
        let server = {
            let (handler, idle) = (Arc::clone(&inner), Arc::clone(&inner));
            Server::spawn(
                listener,
                inner.cfg.io_timeout,
                Arc::clone(&inner.counters),
                inner.cfg.fault,
                move |msg| handler.handle(msg),
                // The node-local GC tick: a staged set whose publisher
                // died in the stage/commit gap is reclaimed even if no
                // controller ever connects again (the commit-time expiry
                // check keeps the safety property; this keeps the memory
                // from staying pinned indefinitely).
                move || idle.expire_stale_stage(),
            )
        };
        Ok(Self { inner, server })
    }

    /// The node's listen address (`ip:port`).
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.inner.addr
    }

    /// The controller-assigned node id.
    #[must_use]
    pub fn node_id(&self) -> u64 {
        self.inner.node_id
    }

    /// The committed `(cluster epoch, rank epoch)` pair.
    #[must_use]
    pub fn epochs(&self) -> (u64, u64) {
        let s = lock_clean(&self.inner.serving);
        (s.epoch, s.rank_epoch)
    }

    /// This node's counters, as they would go over the wire.
    #[must_use]
    pub fn local_stats(&self) -> NodeWireStats {
        self.inner.wire_stats()
    }

    /// Stops the node abruptly: every accepted connection is closed (idle
    /// pooled peers included, so this returns at once), the listener
    /// closes, and — crucially for the failover story — the controller
    /// is *not* told. It finds out the way real clusters do: missed
    /// heartbeats.
    pub fn kill(self) {
        self.server.stop();
    }

    /// Connections the node has accepted so far.
    #[cfg(test)]
    pub(crate) fn accepted(&self) -> u64 {
        self.server.accepted()
    }
}

/// Registers (or rejoins) with the controller under the node's retry
/// policy: transport hiccups back off and retry, protocol violations
/// surface immediately.
fn register_with_controller(
    controller_addr: &str,
    addr: &str,
    prior: Option<u64>,
    cfg: &NodeConfig,
    counters: &Arc<WireCounters>,
) -> Result<u64> {
    let hello = match prior {
        Some(node) => Message::Rejoin {
            node,
            addr: addr.to_string(),
        },
        None => Message::Register {
            addr: addr.to_string(),
        },
    };
    let salt = addr.bytes().fold(prior.unwrap_or(0), |acc, b| {
        acc.rotate_left(8) ^ u64::from(b)
    });
    let mut schedule = cfg.retry.begin(salt);
    let pool = ConnPool::new(cfg.io_timeout, None, Arc::clone(counters));
    loop {
        let attempt = match pool.call(controller_addr, &hello) {
            Ok(Message::Registered { node }) => Ok(node),
            Ok(other) => Err(ClusterError::Protocol {
                detail: format!("expected Registered, got {other:?}"),
            }),
            Err(e) => Err(ClusterError::ControllerUnavailable {
                detail: format!("register with {controller_addr}: {e}"),
            }),
        };
        match attempt {
            Ok(node) => return Ok(node),
            err @ Err(ClusterError::Protocol { .. }) => return err,
            Err(e) => {
                if !schedule.backoff_and_retry() {
                    return if schedule.attempts() == 0 {
                        // No retry was ever granted: surface the plain
                        // cause, not a budget complaint.
                        Err(e)
                    } else {
                        Err(ClusterError::RetryExhausted {
                            op: if prior.is_some() {
                                "rejoin"
                            } else {
                                "register"
                            },
                            attempts: schedule.attempts() + 1,
                            detail: e.to_string(),
                        })
                    };
                }
            }
        }
    }
}

impl NodeInner {
    fn handle(&self, msg: Message) -> Message {
        match msg {
            Message::Ping { seq } => {
                // Heartbeats double as the staged-epoch GC tick: a set
                // whose publisher went silent is expired here even if no
                // further stage or commit ever arrives.
                self.expire_stale_stage();
                let epoch = lock_clean(&self.serving).epoch;
                Message::Pong { seq, epoch }
            }
            Message::Stage {
                epoch,
                shard,
                grade,
                segment,
            } => self.stage(epoch, shard, grade, segment),
            Message::Commit { epoch, rank_epoch } => self.commit(epoch, rank_epoch),
            Message::Abort { epoch } => self.abort(epoch),
            Message::ScoreBatch { shard, docs } => self.score_batch(shard, &docs),
            Message::TopKReq { shard, k } => self.top_k(shard, k),
            Message::SiteTopKReq { shard, site, k } => self.site_top_k(shard, site, k),
            Message::StatsReq => Message::Stats(self.wire_stats()),
            other => Message::Bad {
                detail: format!("unexpected message at a shard node: {other:?}"),
            },
        }
    }

    /// Discards any staged set at or below the aborted epoch and refuses
    /// that epoch (and everything older) forever after. Idempotent — a
    /// replayed abort re-acks.
    fn abort(&self, epoch: u64) -> Message {
        // SeqCst: this watermark gates stage/commit acceptance — a Relaxed
        // store could let a racing late Stage slip past the abort (the
        // burnt-epoch class of bug from PR 7).
        self.last_aborted.fetch_max(epoch, Ordering::SeqCst);
        let mut staged = lock_clean(&self.staged);
        if !staged.entries.is_empty() && staged.epoch <= epoch {
            staged.entries.clear();
            staged.at = None;
            self.aborted.fetch_add(1, Ordering::Relaxed);
        }
        Message::Ack { epoch }
    }

    /// Clears a staged set that outlived the stage TTL, counting it.
    /// Returns `true` when something was expired.
    fn expire_locked(&self, staged: &mut Staged) -> bool {
        let expired = !staged.entries.is_empty()
            && staged
                .at
                .is_some_and(|at| at.elapsed() > self.cfg.stage_ttl);
        if expired {
            staged.entries.clear();
            staged.at = None;
            self.staged_expired.fetch_add(1, Ordering::Relaxed);
        }
        expired
    }

    fn expire_stale_stage(&self) {
        let mut staged = lock_clean(&self.staged);
        self.expire_locked(&mut staged);
    }

    fn stage(
        &self,
        epoch: u64,
        shard: u64,
        grade: SwapGrade,
        segment: Option<SnapshotSegment>,
    ) -> Message {
        if grade != SwapGrade::Repin && segment.is_none() {
            return Message::Bad {
                detail: format!("stage of shard {shard} grade {grade:?} carries no segment"),
            };
        }
        let aborted = self.last_aborted.load(Ordering::SeqCst);
        if epoch <= aborted && aborted > 0 {
            return Message::Bad {
                detail: format!("stage epoch {epoch} was aborted (last aborted {aborted})"),
            };
        }
        {
            let committed = lock_clean(&self.serving).epoch;
            if epoch <= committed {
                return Message::Bad {
                    detail: format!("stage epoch {epoch} is not past committed {committed}"),
                };
            }
        }
        let mut staged = lock_clean(&self.staged);
        self.expire_locked(&mut staged);
        if staged.epoch != epoch {
            // A newer publish supersedes any uncommitted older stage set.
            staged.entries.clear();
            staged.epoch = epoch;
        }
        staged.entries.insert(shard, (grade, segment));
        staged.at = Some(Instant::now());
        self.staged_count.fetch_add(1, Ordering::Relaxed);
        Message::Ack { epoch }
    }

    fn commit(&self, epoch: u64, rank_epoch: u64) -> Message {
        let mut serving = lock_clean(&self.serving);
        if serving.epoch == epoch {
            // Duplicate commit (a publish retry): already serving it.
            return Message::Ack { epoch };
        }
        let aborted = self.last_aborted.load(Ordering::SeqCst);
        if epoch <= aborted && aborted > 0 {
            return Message::Bad {
                detail: format!("commit of epoch {epoch} refused: epoch was aborted"),
            };
        }
        let mut staged = lock_clean(&self.staged);
        if self.expire_locked(&mut staged) {
            return Message::Bad {
                detail: format!(
                    "commit of epoch {epoch} refused: staged set expired after {:?}",
                    self.cfg.stage_ttl
                ),
            };
        }
        if staged.epoch != epoch || staged.entries.is_empty() {
            return Message::Bad {
                detail: format!(
                    "commit of epoch {epoch} but staged epoch is {} with {} shards",
                    staged.epoch,
                    staged.entries.len()
                ),
            };
        }
        let entries = std::mem::take(&mut staged.entries);
        let mut shards: HashMap<u64, Arc<ShardState>> = HashMap::with_capacity(entries.len());
        for (shard, (grade, segment)) in entries {
            let state = match (grade, segment) {
                (SwapGrade::Repin, _) => match serving.shards.get(&shard) {
                    Some(prev) => Arc::clone(prev),
                    None => {
                        return Message::Bad {
                            detail: format!("repin of shard {shard} without a prior store"),
                        }
                    }
                },
                (SwapGrade::Refresh, Some(seg)) => {
                    let snap = seg.to_snapshot();
                    match serving.shards.get(&shard) {
                        // Orders survived: re-merge the top under the
                        // redistributed scores — same path as in-process.
                        Some(prev) => Arc::new(prev.refresh(&snap, self.cfg.heap_k)),
                        // Defensive: a refresh-graded shard we never held
                        // (shouldn't happen; controller rebuilds movers).
                        None => Arc::new(ShardState::build(&snap, seg.sites, self.cfg.heap_k)),
                    }
                }
                (SwapGrade::Rebuild, Some(seg)) => {
                    let snap = seg.to_snapshot();
                    Arc::new(ShardState::build(&snap, seg.sites, self.cfg.heap_k))
                }
                (grade, None) => {
                    return Message::Bad {
                        detail: format!("commit found shard {shard} grade {grade:?} segment-less"),
                    }
                }
            };
            shards.insert(shard, state);
        }
        // The wholesale swap: shards not in the staged set are dropped —
        // the controller moved them elsewhere.
        *serving = Serving {
            epoch,
            rank_epoch,
            shards,
        };
        self.commits.fetch_add(1, Ordering::Relaxed);
        Message::Ack { epoch }
    }

    /// Pins `(epoch, rank_epoch, store)` for one owned shard — the lock is
    /// held only for the `Arc` clone, compute happens on the caller. The
    /// refusal is boxed: `Message` is frame-sized, the happy path isn't.
    fn pin(&self, shard: u64) -> std::result::Result<(u64, u64, Arc<ShardState>), Box<Message>> {
        let serving = lock_clean(&self.serving);
        match serving.shards.get(&shard) {
            Some(state) => Ok((serving.epoch, serving.rank_epoch, Arc::clone(state))),
            None => Err(Box::new(Message::NotOwner { shard })),
        }
    }

    fn score_batch(&self, shard: u64, docs: &[u64]) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let scores: Vec<DocScore> = docs
            .iter()
            .map(|&d| {
                let score = state.score(DocId(d as usize));
                if score == DocScore::Tombstoned {
                    self.tombstone_rejections.fetch_add(1, Ordering::Relaxed);
                }
                score
            })
            .collect();
        Message::Scores {
            epoch,
            rank_epoch,
            scores,
        }
    }

    fn top_k(&self, shard: u64, k: u64) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (entries, complete) = state.top_k(k as usize);
        Message::Top {
            epoch,
            rank_epoch,
            entries,
            complete,
        }
    }

    fn site_top_k(&self, shard: u64, site: u64, k: u64) -> Message {
        let (epoch, rank_epoch, state) = match self.pin(shard) {
            Ok(pin) => pin,
            Err(refusal) => return *refusal,
        };
        self.queries.fetch_add(1, Ordering::Relaxed);
        let reply = state.site_top_k(SiteId(site as usize), k as usize);
        if reply == SiteTopK::Tombstoned {
            self.tombstone_rejections.fetch_add(1, Ordering::Relaxed);
        }
        Message::SiteTop {
            epoch,
            rank_epoch,
            reply,
        }
    }

    fn wire_stats(&self) -> NodeWireStats {
        let (epoch, rank_epoch, mut shard_docs) = {
            let serving = lock_clean(&self.serving);
            let docs: Vec<(u64, u64)> = serving
                .shards
                .iter()
                .map(|(&shard, state)| (shard, state.n_docs() as u64))
                .collect();
            (serving.epoch, serving.rank_epoch, docs)
        };
        shard_docs.sort_unstable();
        let (bytes_sent, bytes_recv) = self.counters.totals();
        NodeWireStats {
            node: self.node_id,
            epoch,
            rank_epoch,
            shard_docs,
            queries: self.queries.load(Ordering::Relaxed),
            tombstone_rejections: self.tombstone_rejections.load(Ordering::Relaxed),
            staged: self.staged_count.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            staged_expired: self.staged_expired.load(Ordering::Relaxed),
            bytes_sent,
            bytes_recv,
        }
    }
}
