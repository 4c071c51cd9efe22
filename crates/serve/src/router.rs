//! The sharded server: one immutable serving set per epoch, loaded
//! lock-free by every read and answered on the caller's thread.
//!
//! # Concurrency design
//!
//! The server keeps a single [`ArcCell`] holding the current
//! **serving set**: the epoch's [`RankSnapshot`] (which also routes
//! documents to sites, and so to shards) together with every shard's
//! [`ShardState`] built from that same snapshot. Every query does exactly
//! one lock-free `load()` of that cell (see [`crate::cell`] for the
//! algorithm) and answers from the loaded set on the caller's thread: no
//! mutex, no syscall, no worker wakeup. One loaded set is one epoch, so
//! every response carries exactly one epoch by construction — a
//! cross-shard gather cannot straddle a swap, and there is nothing to
//! retry or escalate.
//!
//! Queries are still counted by shape, because the shapes cost different
//! amounts:
//!
//! * **Direct** (single-shard reads — [`score`], one-shard
//!   [`score_batch`], [`top_k_for_site`], [`compare`] of co-sharded
//!   docs): one shard's store answers.
//! * **Fan-out** (cross-shard gathers — [`top_k`], multi-shard batches):
//!   every named shard contributes a partial, merged in place. In the
//!   layered model those partials are the per-site DocRank orders
//!   weighted by SiteRank, already computed at publish time, so the merge
//!   is small and needs no parallelism.
//!
//! The publisher takes the publish gate (it only serializes publishers;
//! the read paths never touch it), builds every shard of the next set —
//! rebuilding the stores the snapshot's [`Staleness`] set names, and
//! refreshing or re-pinning the rest — and then stores the set **once**.
//! Readers keep answering from the previous set until that store, and
//! afterwards see the new epoch on every shard at the same instant. A
//! publisher that panics mid-build never stores anything, so the previous
//! set stays fully served.
//!
//! [`score`]: ShardedServer::score
//! [`score_batch`]: ShardedServer::score_batch
//! [`top_k_for_site`]: ShardedServer::top_k_for_site
//! [`compare`]: ShardedServer::compare
//! [`top_k`]: ShardedServer::top_k

use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cell::ArcCell;
use crate::error::{Result, ServeError};
use crate::shard::{serve_cmp, DocScore, ShardState, SiteTopK};
use crate::telemetry::{ServeStats, ServeStatsSnapshot};
use lmm_engine::{RankSnapshot, Staleness};
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};

/// Tuning knobs of a [`ShardedServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Capacity of each shard's precomputed top-k list. Queries with
    /// `k` beyond it still answer (the shard falls back to a scan), they
    /// just stop being O(k).
    pub heap_k: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { heap_k: 64 }
    }
}

/// How one shard's store is swapped by a publish — the three grades the
/// epoch/staleness contract allows. Shared with the cluster tier
/// (`lmm-cluster`), whose controller grades each remote shard with the
/// same rules before shipping segments over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapGrade {
    /// The snapshot's staleness set names one of the shard's sites: the
    /// store is rebuilt from the snapshot.
    Rebuild,
    /// A removal rescaled every site's absolute scores
    /// ([`Staleness::Resized`]): per-site orders are reused, the shard top
    /// list re-merges under the new scores.
    Refresh,
    /// Bit-identical data ([`Staleness::Sites`] not naming the shard): the
    /// existing store is re-pinned against the new epoch.
    Repin,
}

/// Grades every shard of `map` for publishing `snapshot` over a tier
/// currently serving `serving_epoch`. A snapshot that skipped epochs
/// conservatively rebuilds everything, since its staleness set only
/// describes the last step. This is the single source of truth for the
/// swap contract: the in-process publisher and the cluster controller
/// both call it, so a shard is rebuilt remotely exactly when it would be
/// rebuilt locally.
#[must_use]
pub fn publish_grades(
    map: &ShardMap,
    serving_epoch: u64,
    snapshot: &RankSnapshot,
) -> Vec<SwapGrade> {
    let n_shards = map.n_shards();
    let contiguous = snapshot.epoch() == serving_epoch + 1;
    let (stale_shards, fresh): (Vec<usize>, SwapGrade) = match (contiguous, snapshot.staleness()) {
        (true, Staleness::Sites(sites)) => {
            (map.shards_of_sites(sites.iter().copied()), SwapGrade::Repin)
        }
        (
            true,
            Staleness::Resized {
                sites,
                removed_sites,
            },
        ) => (
            map.shards_of_sites(sites.iter().chain(removed_sites).copied()),
            SwapGrade::Refresh,
        ),
        _ => ((0..n_shards).collect(), SwapGrade::Repin),
    };
    let mut grades = vec![fresh; n_shards];
    for shard in stale_shards {
        grades[shard] = SwapGrade::Rebuild;
    }
    grades
}

/// Shard `shard`'s site range under `map`, with the last shard extended to
/// absorb sites appended after the map was built — the range a shard store
/// (local or remote) must cover at a snapshot with `n_sites` sites.
#[must_use]
pub fn shard_site_range(map: &ShardMap, shard: usize, n_sites: usize) -> std::ops::Range<usize> {
    let mut range = map.sites_of_shard(shard);
    if shard == map.n_shards() - 1 {
        range.end = range.end.max(n_sites);
    }
    range
}

/// Accounting of one [`ShardedServer::publish`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishReport {
    /// The epoch now served.
    pub epoch: u64,
    /// Shard stores rebuilt (stale shards).
    pub shards_rebuilt: usize,
    /// Shard stores re-pinned (fresh shards: new epoch, same data).
    pub shards_repinned: usize,
    /// Shard stores refreshed (removal publishes: per-site orders reused,
    /// shard top list re-merged under the redistributed scores).
    pub shards_refreshed: usize,
    /// `true` when the snapshot was already being served and nothing was
    /// swapped.
    pub noop: bool,
}

/// One epoch's serving state: the snapshot that routes documents to
/// shards and every shard store built from it. Immutable once stored.
struct ServingSet {
    snapshot: RankSnapshot,
    shards: Vec<ShardState>,
}

impl ServingSet {
    fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }
}

/// The serving tier: site-sharded, read-mostly, hot-swappable.
///
/// Build one with [`ShardedServer::start`] from an engine snapshot, then
/// answer queries from any number of threads (`&self` throughout) while a
/// writer thread feeds fresh snapshots through
/// [`publish`](ShardedServer::publish).
pub struct ShardedServer {
    map: ShardMap,
    /// The current serving set, replaced wholesale once per epoch.
    set: ArcCell<ServingSet>,
    /// The publish gate: serializes publishers. The read paths never
    /// touch it.
    gate: Mutex<()>,
    stats: ServeStats,
    config: ServeConfig,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("n_shards", &self.n_shards())
            .field("epoch", &self.epoch())
            .field("config", &self.config)
            .finish()
    }
}

impl ShardedServer {
    /// Builds every shard store from `snapshot` and starts serving.
    ///
    /// # Errors
    /// Returns [`ServeError::InvalidConfig`] when `heap_k` is zero or the
    /// shard map covers more sites than the snapshot ranks.
    pub fn start(map: ShardMap, snapshot: &RankSnapshot, config: ServeConfig) -> Result<Self> {
        if config.heap_k == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "heap_k must be at least 1".into(),
            });
        }
        if map.n_sites() > snapshot.n_sites() {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "shard map covers {} sites, snapshot ranks only {}",
                    map.n_sites(),
                    snapshot.n_sites()
                ),
            });
        }
        let shards = (0..map.n_shards())
            .map(|shard| {
                let sites = shard_site_range(&map, shard, snapshot.n_sites());
                ShardState::build(snapshot, sites, config.heap_k)
            })
            .collect();
        Ok(Self {
            map,
            set: ArcCell::new(Arc::new(ServingSet {
                snapshot: snapshot.clone(),
                shards,
            })),
            gate: Mutex::new(()),
            stats: ServeStats::default(),
            config,
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.map.n_shards()
    }

    /// The epoch currently served: a publish in flight becomes visible
    /// only when it completes. Lock-free, so it keeps answering after a
    /// publisher panic poisoned the gate.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.set.load().epoch()
    }

    /// The routing epoch and every shard's epoch, read from **one** load
    /// of the serving set — they are always equal. Exposed for the
    /// single-load regression tests; not part of the stable API.
    #[doc(hidden)]
    #[must_use]
    pub fn serving_epochs(&self) -> (u64, Vec<u64>) {
        let set = self.set.load();
        (
            set.epoch(),
            set.shards.iter().map(ShardState::epoch).collect(),
        )
    }

    /// The server's telemetry counters, plus the live per-shard document
    /// counts (read from the currently served set) — the skew signal a
    /// rebalancer watches: removal drains shards in place and growth piles
    /// into the last one, so
    /// [`doc_skew`](crate::ServeStatsSnapshot::doc_skew) drifting from 1.0
    /// is the trigger to re-split the site ranges.
    #[must_use]
    pub fn stats(&self) -> ServeStatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.shard_docs = self
            .set
            .load()
            .shards
            .iter()
            .map(|shard| shard.n_docs() as u64)
            .collect();
        snapshot
    }

    /// Swaps in a fresh snapshot without ever blocking readers: shards
    /// whose sites the snapshot's [`Staleness`] set names rebuild their
    /// stores; every other shard re-pins its existing store against the
    /// new epoch — or, after a removal ([`Staleness::Resized`]),
    /// **refreshes**: the per-site orders are reused and only the shard
    /// top list re-merges under the redistributed scores. A snapshot that
    /// skipped epochs (the publisher missed one) conservatively rebuilds
    /// everything, since its staleness set only describes the last step.
    /// The new set is stored once, after every shard is built.
    ///
    /// # Errors
    /// Returns [`ServeError::StaleSnapshot`] when the snapshot's epoch is
    /// older than the serving epoch, and [`ServeError::PublishPoisoned`]
    /// when a previous publisher panicked mid-build. Re-publishing the
    /// serving epoch is a no-op, not an error.
    pub fn publish(&self, snapshot: &RankSnapshot) -> Result<PublishReport> {
        self.publish_paced(snapshot, &|_| {})
    }

    /// [`publish`](Self::publish) with a pacing hook invoked after each
    /// shard of the new set is built, before the set is stored — lets
    /// tests hold a publish mid-build deterministically (reads racing a
    /// paused publish, a publisher dying mid-build). Not part of the
    /// stable API.
    ///
    /// # Errors
    /// As [`publish`](Self::publish).
    #[doc(hidden)]
    pub fn publish_paced(
        &self,
        snapshot: &RankSnapshot,
        built: &dyn Fn(usize),
    ) -> Result<PublishReport> {
        let _gate = self.gate.lock().map_err(|_| ServeError::PublishPoisoned)?;
        // Only gate holders store, so this load is the serving set.
        let current = self.set.load();
        let serving = current.epoch();
        if snapshot.epoch() < serving {
            return Err(ServeError::StaleSnapshot {
                published: snapshot.epoch(),
                serving,
            });
        }
        ServeStats::bump(&self.stats.publishes);
        if snapshot.epoch() == serving {
            return Ok(PublishReport {
                epoch: serving,
                shards_rebuilt: 0,
                shards_repinned: 0,
                shards_refreshed: 0,
                noop: true,
            });
        }
        let grades = publish_grades(&self.map, serving, snapshot);
        let mut rebuilt = 0usize;
        let mut repinned = 0usize;
        let mut refreshed = 0usize;
        let mut shards = Vec::with_capacity(grades.len());
        for (shard, (old, grade)) in current.shards.iter().zip(&grades).enumerate() {
            shards.push(match grade {
                SwapGrade::Rebuild => {
                    rebuilt += 1;
                    let sites = shard_site_range(&self.map, shard, snapshot.n_sites());
                    ShardState::build(snapshot, sites, self.config.heap_k)
                }
                SwapGrade::Refresh => {
                    refreshed += 1;
                    old.refresh(snapshot, self.config.heap_k)
                }
                SwapGrade::Repin => {
                    repinned += 1;
                    old.repin(snapshot)
                }
            });
            built(shard);
        }
        // The swap itself: one lock-free store, readers never blocked.
        self.set.store(Arc::new(ServingSet {
            snapshot: snapshot.clone(),
            shards,
        }));
        ServeStats::add(&self.stats.shards_rebuilt, rebuilt as u64);
        ServeStats::add(&self.stats.shards_repinned, repinned as u64);
        ServeStats::add(&self.stats.shards_refreshed, refreshed as u64);
        Ok(PublishReport {
            epoch: snapshot.epoch(),
            shards_rebuilt: rebuilt,
            shards_repinned: repinned,
            shards_refreshed: refreshed,
            noop: false,
        })
    }

    /// Records a completed single-shard query.
    fn finish_direct(&self, start: Instant) {
        ServeStats::bump(&self.stats.direct_hits);
        self.stats.direct_latency.record(start.elapsed());
    }

    /// Records a completed cross-shard gather.
    fn finish_fanout(&self, start: Instant) {
        ServeStats::bump(&self.stats.fanout_queries);
        self.stats.fanout_latency.record(start.elapsed());
    }

    /// Global score of one document, answered by the shard owning its
    /// site.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] when the answering epoch never ranked
    /// the document; [`ServeError::TombstonedDoc`] when the document was
    /// removed (stale scores are never served for the dead).
    pub fn score(&self, doc: DocId) -> Result<(u64, f64)> {
        ServeStats::bump(&self.stats.score_queries);
        let start = Instant::now();
        let set = self.set.load();
        let score = set.shards[self.shard_of_doc(&set, doc)].score(doc);
        self.finish_direct(start);
        let epoch = set.epoch();
        self.doc_score_to_result(score, doc, epoch)
            .map(|score| (epoch, score))
    }

    /// Maps a shard-level score lookup into the router's typed errors.
    fn doc_score_to_result(&self, score: DocScore, doc: DocId, epoch: u64) -> Result<f64> {
        match score {
            DocScore::Live(score) => Ok(score),
            DocScore::Tombstoned => {
                ServeStats::bump(&self.stats.tombstone_rejections);
                Err(ServeError::TombstonedDoc {
                    doc: doc.index(),
                    epoch,
                })
            }
            DocScore::Unknown => Err(ServeError::UnknownDoc {
                doc: doc.index(),
                epoch,
            }),
        }
    }

    /// Batched score lookups, in input order, all answered from **one**
    /// epoch. A batch that lands in one shard counts as a direct hit; a
    /// cross-shard batch counts as a fan-out.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] / [`ServeError::TombstonedDoc`] for the
    /// first document in input order the answering epoch cannot score.
    pub fn score_batch(&self, docs: &[DocId]) -> Result<(u64, Vec<f64>)> {
        ServeStats::bump(&self.stats.batch_queries);
        self.score_batch_inner(docs, Instant::now())
    }

    /// Global top-`k`: every shard's precomputed partial, merged on the
    /// caller's thread from one serving set.
    ///
    /// # Errors
    /// Never fails; the `Result` keeps the query API uniform with the
    /// cluster client's.
    pub fn top_k(&self, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ServeStats::bump(&self.stats.top_k_queries);
        let start = Instant::now();
        let set = self.set.load();
        // Every shard of a set is pinned to the set's snapshot, so its
        // scores rank every partial.
        let scores = set.snapshot.scores();
        let entry = |doc: DocId| (doc, scores[doc.index()]);
        // Each partial is already in serving order: a k-way merge over
        // the shards' heads yields the global order without a sort.
        let mut partials: Vec<(Cow<'_, [DocId]>, usize)> = set
            .shards
            .iter()
            .map(|shard| {
                let (order, from_heap) = shard.top_order(k);
                if !from_heap {
                    ServeStats::bump(&self.stats.heap_overflow_scans);
                }
                (order, 0)
            })
            .collect();
        let available: usize = partials.iter().map(|(order, _)| order.len()).sum();
        let mut merged = Vec::with_capacity(k.min(available));
        while merged.len() < k {
            let mut best: Option<(usize, (DocId, f64))> = None;
            for (i, (order, head)) in partials.iter().enumerate() {
                if let Some(&doc) = order.get(*head) {
                    let candidate = entry(doc);
                    if best.is_none_or(|(_, b)| serve_cmp(&candidate, &b) == Ordering::Less) {
                        best = Some((i, candidate));
                    }
                }
            }
            let Some((i, next)) = best else { break };
            merged.push(next);
            partials[i].1 += 1;
        }
        self.finish_fanout(start);
        Ok((set.epoch(), merged))
    }

    /// Top-`k` within one site, straight off the owning shard's
    /// precomputed per-site ranking.
    ///
    /// # Errors
    /// [`ServeError::UnknownSite`] when the answering epoch never ranked
    /// the site; [`ServeError::TombstonedSite`] when the site was removed.
    pub fn top_k_for_site(&self, site: SiteId, k: usize) -> Result<(u64, Vec<(DocId, f64)>)> {
        ServeStats::bump(&self.stats.site_top_k_queries);
        let start = Instant::now();
        let set = self.set.load();
        let entries = set.shards[self.map.shard_of_site(site)].site_top_k(site, k);
        self.finish_direct(start);
        let epoch = set.epoch();
        match entries {
            SiteTopK::Entries(e) => Ok((epoch, e)),
            SiteTopK::Tombstoned => {
                ServeStats::bump(&self.stats.tombstone_rejections);
                Err(ServeError::TombstonedSite {
                    site: site.index(),
                    epoch,
                })
            }
            SiteTopK::NotCovered => Err(ServeError::UnknownSite {
                site: site.index(),
                epoch,
            }),
        }
    }

    /// Compares two documents at one epoch: `Greater` means `a` outranks
    /// `b`. Co-sharded documents count as a direct hit.
    ///
    /// # Errors
    /// [`ServeError::UnknownDoc`] when the answering epoch does not rank
    /// either document.
    pub fn compare(&self, a: DocId, b: DocId) -> Result<(u64, Ordering)> {
        ServeStats::bump(&self.stats.compare_queries);
        let (epoch, scores) = self.score_batch_inner(&[a, b], Instant::now())?;
        let order = scores[0]
            .partial_cmp(&scores[1])
            // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
            .expect("ranking scores are finite")
            // Equal scores: the lower doc id ranks first, matching the
            // serving order everywhere else in the tier.
            .then(b.cmp(&a));
        Ok((epoch, order))
    }

    /// Shard owning a document, per the set's routing snapshot. Documents
    /// beyond it fall into the last shard, which absorbs growth by
    /// construction.
    fn shard_of_doc(&self, set: &ServingSet, doc: DocId) -> usize {
        match set.snapshot.site_assignments().get(doc.index()) {
            Some(&site) => self.map.shard_of_site(site),
            None => self.n_shards() - 1,
        }
    }

    fn score_batch_inner(&self, docs: &[DocId], start: Instant) -> Result<(u64, Vec<f64>)> {
        let set = self.set.load();
        let epoch = set.epoch();
        let Some(&first) = docs.first() else {
            return Ok((epoch, Vec::new()));
        };
        let first_shard = self.shard_of_doc(&set, first);
        let mut cross_shard = false;
        let scores: Vec<DocScore> = docs
            .iter()
            .map(|&doc| {
                let shard = self.shard_of_doc(&set, doc);
                cross_shard |= shard != first_shard;
                set.shards[shard].score(doc)
            })
            .collect();
        if cross_shard {
            self.finish_fanout(start);
        } else {
            self.finish_direct(start);
        }
        let out = docs
            .iter()
            .zip(scores)
            .map(|(&doc, score)| self.doc_score_to_result(score, doc, epoch))
            .collect::<Result<Vec<f64>>>()?;
        Ok((epoch, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 sites x 2 docs, epoch-stamped scores.
    fn snapshot(epoch: u64, scores: Vec<f64>, staleness: Staleness) -> RankSnapshot {
        let n = scores.len();
        assert_eq!(n % 2, 0);
        let members = (0..n / 2)
            .map(|s| vec![DocId(2 * s), DocId(2 * s + 1)])
            .collect::<Vec<_>>();
        let site_of = (0..n).map(|d| SiteId(d / 2)).collect::<Vec<_>>();
        RankSnapshot::new(
            epoch,
            "test".into(),
            Arc::new(scores),
            None,
            Arc::new(members),
            Arc::new(site_of),
            staleness,
        )
    }

    fn base_scores() -> Vec<f64> {
        vec![0.05, 0.10, 0.20, 0.15, 0.08, 0.12, 0.18, 0.12]
    }

    fn server() -> ShardedServer {
        server_with(ServeConfig::default())
    }

    fn server_with(config: ServeConfig) -> ShardedServer {
        let map = ShardMap::uniform(4, 2).unwrap();
        let snap = snapshot(1, base_scores(), Staleness::Full);
        ShardedServer::start(map, &snap, config).unwrap()
    }

    #[test]
    fn queries_answer_from_the_started_snapshot() {
        let srv = server();
        assert_eq!(srv.epoch(), 1);
        let (epoch, top) = srv.top_k(3).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(
            top,
            vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
        );
        // Beyond the precomputed lists every shard scans; the merge is
        // unchanged.
        let narrow = server_with(ServeConfig { heap_k: 1 });
        assert_eq!(narrow.top_k(3).unwrap(), (1, top));
        assert_eq!(narrow.stats().heap_overflow_scans, 2);
        let (_, score) = srv.score(DocId(5)).unwrap();
        assert_eq!(score, 0.12);
        let (_, site_top) = srv.top_k_for_site(SiteId(1), 1).unwrap();
        assert_eq!(site_top, vec![(DocId(2), 0.20)]);
        // Equal scores tie-break by doc id, globally and in compare.
        let (_, order) = srv.compare(DocId(5), DocId(7)).unwrap();
        assert_eq!(order, std::cmp::Ordering::Greater);
        let (_, order) = srv.compare(DocId(2), DocId(6)).unwrap();
        assert_eq!(order, std::cmp::Ordering::Greater);
    }

    #[test]
    fn direct_and_fanout_paths_answer_identically() {
        let srv = server();
        // Every document scored alone (direct) equals its entry in one
        // cross-shard batch (fan-out) at the same epoch.
        let all: Vec<DocId> = (0..8).map(DocId).collect();
        let (epoch, batch) = srv.score_batch(&all).unwrap();
        for (&doc, &score) in all.iter().zip(&batch) {
            assert_eq!(srv.score(doc).unwrap(), (epoch, score));
        }
        // Docs 0 and 1 share site 0 → one shard → a direct batch.
        let one_shard = [DocId(0), DocId(1)];
        assert_eq!(
            srv.score_batch(&one_shard).unwrap(),
            (epoch, batch[..2].to_vec())
        );
        // The per-site tops (direct), merged, are the global top (fan-out).
        let (_, top) = srv.top_k(8).unwrap();
        let mut merged: Vec<(DocId, f64)> = (0..4)
            .flat_map(|s| srv.top_k_for_site(SiteId(s), 2).unwrap().1)
            .collect();
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        assert_eq!(top, merged);
        // Co-sharded (direct) and cross-shard (fan-out) compares agree
        // with the scores.
        assert_eq!(
            srv.compare(DocId(2), DocId(3)).unwrap(),
            (epoch, std::cmp::Ordering::Greater)
        );
        assert_eq!(
            srv.compare(DocId(2), DocId(6)).unwrap(),
            (epoch, std::cmp::Ordering::Greater)
        );
        // 8 scores + 1 one-shard batch + 4 site tops + 1 co-sharded
        // compare; 1 cross-shard batch + 1 top_k + 1 cross-shard compare.
        let stats = srv.stats();
        assert_eq!(stats.direct_hits, 14);
        assert_eq!(stats.direct_latency.count(), 14);
        assert_eq!(stats.fanout_queries, 3);
        assert_eq!(stats.fanout_latency.count(), 3);
        assert_eq!(stats.gather_retries, 0);
        assert_eq!(stats.gate_escalations, 0);
    }

    #[test]
    fn batch_reassembles_in_input_order() {
        let srv = server();
        let docs = [DocId(7), DocId(0), DocId(4), DocId(2)];
        let (epoch, scores) = srv.score_batch(&docs).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(scores, vec![0.12, 0.05, 0.08, 0.20]);
    }

    #[test]
    fn empty_batch_answers_empty_at_the_serving_epoch() {
        // Regression: an empty batch used to panic indexing replies[0].
        let srv = server();
        let (epoch, scores) = srv.score_batch(&[]).unwrap();
        assert_eq!(epoch, 1);
        assert!(scores.is_empty());
    }

    #[test]
    fn unknown_references_are_errors() {
        let srv = server();
        assert!(matches!(
            srv.score(DocId(99)),
            Err(ServeError::UnknownDoc { doc: 99, epoch: 1 })
        ));
        assert!(matches!(
            srv.top_k_for_site(SiteId(9), 2),
            Err(ServeError::UnknownSite { site: 9, .. })
        ));
    }

    #[test]
    fn publish_rebuilds_only_stale_shards() {
        let srv = server();
        // Site 3 (shard 1) moved; shard 0 must re-pin.
        let mut scores = base_scores();
        scores[6] = 0.30;
        scores[7] = 0.00;
        let snap = snapshot(2, scores, Staleness::Sites(vec![3]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(report.shards_rebuilt, 1);
        assert_eq!(report.shards_repinned, 1);
        assert!(!report.noop);
        let (epoch, top) = srv.top_k(2).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(top, vec![(DocId(6), 0.30), (DocId(2), 0.20)]);
        let stats = srv.stats();
        assert_eq!(stats.shards_rebuilt, 1);
        assert_eq!(stats.shards_repinned, 1);
    }

    #[test]
    fn publish_rejects_stale_and_noops_on_current() {
        let srv = server();
        let current = snapshot(1, base_scores(), Staleness::Full);
        let report = srv.publish(&current).unwrap();
        assert!(report.noop);
        let snap2 = snapshot(2, base_scores(), Staleness::Sites(vec![]));
        srv.publish(&snap2).unwrap();
        assert!(matches!(
            srv.publish(&current),
            Err(ServeError::StaleSnapshot {
                published: 1,
                serving: 2
            })
        ));
    }

    #[test]
    fn empty_staleness_repins_everything() {
        let srv = server();
        let snap = snapshot(2, base_scores(), Staleness::Sites(vec![]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 0);
        assert_eq!(report.shards_repinned, 2);
        assert_eq!(srv.epoch(), 2);
    }

    #[test]
    fn skipped_epochs_force_a_full_rebuild() {
        let srv = server();
        // Epoch jumps 1 -> 3: the staleness set only describes 2 -> 3, so
        // the publisher must not trust it.
        let snap = snapshot(3, base_scores(), Staleness::Sites(vec![0]));
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 2);
        assert_eq!(report.shards_repinned, 0);
    }

    #[test]
    fn full_staleness_rebuilds_everything() {
        let srv = server();
        let snap = snapshot(2, base_scores(), Staleness::Full);
        let report = srv.publish(&snap).unwrap();
        assert_eq!(report.shards_rebuilt, 2);
    }

    #[test]
    fn poisoned_gate_degrades_to_typed_errors() {
        let srv = server();
        // Poison the publish gate: a publisher panics mid-build, holding it.
        let snap = snapshot(2, base_scores(), Staleness::Full);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            srv.publish_paced(&snap, &|_| panic!("publisher died mid-build"))
        }));
        assert!(poisoner.is_err(), "the poisoner must have panicked");
        assert!(srv.gate.is_poisoned());
        // Readers keep answering — no read path touches the gate — and
        // so does the epoch read, which loads the serving set.
        assert_eq!(srv.epoch(), 1);
        let (_, score) = srv.score(DocId(5)).unwrap();
        assert_eq!(score, 0.12);
        let (epoch, top) = srv.top_k(2).unwrap();
        assert_eq!((epoch, top.len()), (1, 2));
        // Publishing fails typed instead of propagating the panic.
        assert!(matches!(
            srv.publish(&snap),
            Err(ServeError::PublishPoisoned)
        ));
        assert_eq!(srv.epoch(), 1, "a poisoned publish must swap nothing");
    }

    #[test]
    fn routing_never_outruns_the_cells() {
        let srv = server();
        for epoch in 2..6 {
            let snap = snapshot(epoch, base_scores(), Staleness::Full);
            srv.publish_paced(&snap, &|_| {
                // Mid-build: routing and every shard still serve the
                // previous set, together.
                let (routed, shards) = srv.serving_epochs();
                assert_eq!(routed, epoch - 1);
                assert!(shards.iter().all(|&e| e == routed));
                assert_eq!(srv.top_k(8).unwrap().0, epoch - 1);
            })
            .unwrap();
            let (routed, shards) = srv.serving_epochs();
            assert_eq!(routed, epoch);
            assert_eq!(shards, vec![epoch; srv.n_shards()]);
        }
    }

    #[test]
    fn grades_follow_the_staleness_contract() {
        let map = ShardMap::uniform(4, 2).unwrap();
        // Contiguous + Sites: named shards rebuild, rest re-pin.
        let snap = snapshot(2, base_scores(), Staleness::Sites(vec![3]));
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Repin, SwapGrade::Rebuild]
        );
        // Contiguous + Resized: named shards rebuild, rest refresh.
        let snap = snapshot(
            2,
            base_scores(),
            Staleness::Resized {
                sites: vec![0],
                removed_sites: vec![],
            },
        );
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Rebuild, SwapGrade::Refresh]
        );
        // Skipped epoch: staleness untrustworthy, rebuild everything.
        let snap = snapshot(3, base_scores(), Staleness::Sites(vec![]));
        assert_eq!(
            publish_grades(&map, 1, &snap),
            vec![SwapGrade::Rebuild, SwapGrade::Rebuild]
        );
    }

    #[test]
    fn growth_lands_in_the_last_shard() {
        let srv = server();
        // A fifth site (id 4) appears: beyond the map, absorbed by the
        // last shard under a Full publish.
        let mut members: Vec<Vec<DocId>> = (0..4)
            .map(|s| vec![DocId(2 * s), DocId(2 * s + 1)])
            .collect();
        members.push(vec![DocId(8), DocId(9)]);
        let mut site_of: Vec<SiteId> = (0..8).map(|d| SiteId(d / 2)).collect();
        site_of.extend([SiteId(4), SiteId(4)]);
        let snap = RankSnapshot::new(
            2,
            "test".into(),
            Arc::new(vec![
                0.04, 0.09, 0.18, 0.13, 0.07, 0.11, 0.16, 0.10, 0.02, 0.10,
            ]),
            None,
            Arc::new(members),
            Arc::new(site_of),
            Staleness::Full,
        );
        srv.publish(&snap).unwrap();
        let (epoch, site_top) = srv.top_k_for_site(SiteId(4), 2).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(site_top, vec![(DocId(9), 0.10), (DocId(8), 0.02)]);
        let (_, score) = srv.score(DocId(8)).unwrap();
        assert_eq!(score, 0.02);
    }
}
