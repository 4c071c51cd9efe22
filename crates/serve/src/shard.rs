//! Immutable per-shard stores: precomputed top-k orderings, per-site
//! document orderings, and score lookups over one pinned [`RankSnapshot`].
//!
//! A [`ShardState`] is the unit the hot-swap replaces: it pins one snapshot
//! epoch and the shard's precomputed [`ShardData`]. Scores are **always
//! read through the pinned snapshot** — the data stores only document
//! *orderings* — which gives the publisher three swap grades:
//!
//! * [`build`](ShardState::build) — full rebuild (per-site sorts over the
//!   shard's documents) for shards whose sites a delta staled;
//! * [`refresh`](ShardState::refresh) — reuse the per-site orderings,
//!   re-merge the shard-level top list under the new snapshot's scores.
//!   Sound whenever every covered site kept its member list and
//!   within-site order (the [`Staleness::Resized`] contract after a
//!   removal's SiteRank redistribution: per-site orders survive, absolute
//!   scores and cross-site interleavings do not);
//! * [`repin`](ShardState::repin) — share the data `Arc` outright, for
//!   snapshots whose unnamed sites are bit-identical
//!   ([`Staleness::Sites`]).
//!
//! [`Staleness::Resized`]: lmm_engine::Staleness::Resized
//! [`Staleness::Sites`]: lmm_engine::Staleness::Sites

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

use lmm_engine::RankSnapshot;
use lmm_graph::{DocId, SiteId};

/// Orders documents for serving: score descending, ties broken by id
/// ascending — the exact order `Ranking::order` uses, so serve-tier
/// results are bitwise comparable with engine-cache results.
pub(crate) fn serve_cmp(a: &(DocId, f64), b: &(DocId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
        .expect("ranking scores are finite")
        .then(a.0.cmp(&b.0))
}

/// Max-heap entry whose `Ord` ranks *worse* entries greater, so the heap
/// root is the weakest kept document — a classic bounded top-k heap.
struct Weakest(DocId, f64);

impl PartialEq for Weakest {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Weakest {}
impl PartialOrd for Weakest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Weakest {
    fn cmp(&self, other: &Self) -> Ordering {
        // Lower score = worse; equal score: higher id = worse.
        other
            .1
            .partial_cmp(&self.1)
            // lint: allow(panic, "scores come from a stochastic-matrix power iteration and are finite by construction; a NaN here means the kernel itself is broken")
            .expect("ranking scores are finite")
            .then(self.0.cmp(&other.0))
    }
}

/// Max-heap head for the k-way merge in [`ShardState::refresh`]: greatest
/// = best in serving order.
struct MergeHead {
    entry: (DocId, f64),
    site_idx: usize,
    pos: usize,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // serve_cmp returns Less when its first argument serves first, so
        // flipping the arguments makes the serve-first entry the greatest.
        serve_cmp(&other.entry, &self.entry)
    }
}

/// A shard-level score lookup: live value, tombstoned slot, or a document
/// the answering epoch never ranked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DocScore {
    /// The document is ranked at this epoch.
    Live(f64),
    /// The document existed but was removed — its id slot is dead.
    Tombstoned,
    /// The document id is outside the answering epoch's range.
    Unknown,
}

/// A shard-level site top-k answer.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteTopK {
    /// The site's best documents in serving order.
    Entries(Vec<(DocId, f64)>),
    /// The site was removed — queries for it must fail typed.
    Tombstoned,
    /// The site is outside this shard's range or the epoch's site count.
    NotCovered,
}

/// The heavy, rebuild-on-stale part of a shard: the document *orderings*
/// derived from the shard's scores (never the scores themselves — those
/// are always read through the pinned snapshot, so a refresh can re-pair
/// surviving orders with rescaled scores).
#[derive(Debug)]
pub struct ShardData {
    /// The shard's best documents in serving order, at most the configured
    /// heap capacity.
    top: Vec<DocId>,
    /// Per covered site (indexed relative to the shard's first site), the
    /// site's documents in serving order. Shared between a refreshed state
    /// and its predecessor.
    site_order: Arc<Vec<Vec<DocId>>>,
    /// Documents owned by the shard (so `top.len() == n_docs.min(cap)`
    /// tells whether `top` is exhaustive).
    n_docs: usize,
}

/// One shard's pinned serving state: an epoch, the snapshot it came from,
/// and the precomputed data.
#[derive(Debug, Clone)]
pub struct ShardState {
    sites: Range<usize>,
    snapshot: RankSnapshot,
    data: Arc<ShardData>,
}

impl ShardState {
    /// Builds a shard store from scratch over `sites` (heap capacity
    /// `heap_k`): one pass over the shard's documents into a bounded
    /// top-k heap, plus a per-site sort. Tombstoned sites in the range
    /// contribute an empty ordering.
    #[must_use]
    pub fn build(snapshot: &RankSnapshot, sites: Range<usize>, heap_k: usize) -> Self {
        let scores = snapshot.scores();
        let mut heap: BinaryHeap<Weakest> = BinaryHeap::with_capacity(heap_k + 1);
        let mut site_order = Vec::with_capacity(sites.len());
        let mut n_docs = 0usize;
        for site in sites.clone() {
            let members = snapshot.members_of_site(SiteId(site));
            n_docs += members.len();
            let mut ordered: Vec<(DocId, f64)> =
                members.iter().map(|&d| (d, scores[d.index()])).collect();
            ordered.sort_unstable_by(serve_cmp);
            for &(doc, score) in &ordered {
                if heap.len() < heap_k {
                    heap.push(Weakest(doc, score));
                } else if let Some(weakest) = heap.peek() {
                    if serve_cmp(&(doc, score), &(weakest.0, weakest.1)) == Ordering::Less {
                        heap.pop();
                        heap.push(Weakest(doc, score));
                    }
                }
            }
            site_order.push(ordered.into_iter().map(|(d, _)| d).collect());
        }
        let mut top: Vec<(DocId, f64)> = heap.into_iter().map(|w| (w.0, w.1)).collect();
        top.sort_unstable_by(serve_cmp);
        Self {
            sites,
            snapshot: snapshot.clone(),
            data: Arc::new(ShardData {
                top: top.into_iter().map(|(d, _)| d).collect(),
                site_order: Arc::new(site_order),
                n_docs,
            }),
        }
    }

    /// Re-pins this shard against a newer snapshot without rebuilding: the
    /// data `Arc` is shared. Sound only when every site of this shard is
    /// absent from the snapshot's staleness set (the publisher checks).
    #[must_use]
    pub fn repin(&self, snapshot: &RankSnapshot) -> Self {
        debug_assert!(snapshot.epoch() >= self.snapshot.epoch());
        Self {
            sites: self.sites.clone(),
            snapshot: snapshot.clone(),
            data: Arc::clone(&self.data),
        }
    }

    /// Rebuilds only the shard-level top list under the new snapshot's
    /// scores, **reusing** the per-site orderings (shared `Arc`). Exact —
    /// a k-way merge of the per-site orders is the shard's true top-k —
    /// whenever every covered site kept its member list and within-site
    /// order, which is what [`Staleness::Resized`] guarantees for sites it
    /// does not name. O(sites + k log sites) instead of a full re-sort.
    ///
    /// [`Staleness::Resized`]: lmm_engine::Staleness::Resized
    #[must_use]
    pub fn refresh(&self, snapshot: &RankSnapshot, heap_k: usize) -> Self {
        debug_assert!(snapshot.epoch() >= self.snapshot.epoch());
        let scores = snapshot.scores();
        let orders = &self.data.site_order;
        let mut heads: BinaryHeap<MergeHead> = BinaryHeap::with_capacity(orders.len());
        for (site_idx, order) in orders.iter().enumerate() {
            if let Some(&d) = order.first() {
                heads.push(MergeHead {
                    entry: (d, scores[d.index()]),
                    site_idx,
                    pos: 0,
                });
            }
        }
        let mut top = Vec::with_capacity(heap_k.min(self.data.n_docs));
        while top.len() < heap_k {
            let Some(head) = heads.pop() else { break };
            top.push(head.entry.0);
            let order = &orders[head.site_idx];
            if let Some(&next) = order.get(head.pos + 1) {
                heads.push(MergeHead {
                    entry: (next, scores[next.index()]),
                    site_idx: head.site_idx,
                    pos: head.pos + 1,
                });
            }
        }
        Self {
            sites: self.sites.clone(),
            snapshot: snapshot.clone(),
            data: Arc::new(ShardData {
                top,
                site_order: Arc::clone(orders),
                n_docs: self.data.n_docs,
            }),
        }
    }

    /// The epoch this state answers from.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The site-id range this shard covers.
    #[must_use]
    pub fn sites(&self) -> &Range<usize> {
        &self.sites
    }

    /// Live documents owned by this shard.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.data.n_docs
    }

    /// `true` when this state shares its data with `other` (re-pinned, not
    /// rebuilt).
    #[must_use]
    pub fn shares_data_with(&self, other: &ShardState) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// `true` when this state shares its per-site orderings with `other`
    /// (refreshed: new top list, same orders).
    #[must_use]
    pub fn shares_orders_with(&self, other: &ShardState) -> bool {
        Arc::ptr_eq(&self.data.site_order, &other.data.site_order)
    }

    /// Score of one document at this shard's epoch — answered from the
    /// pinned global score vector, so *any* shard can serve any document.
    /// Tombstoned slots answer [`DocScore::Tombstoned`], so a removed id
    /// never leaks a stale (or zero) score as if it were ranked.
    #[must_use]
    pub fn score(&self, doc: DocId) -> DocScore {
        if doc.index() >= self.snapshot.n_docs() {
            return DocScore::Unknown;
        }
        if !self.snapshot.is_live_doc(doc) {
            return DocScore::Tombstoned;
        }
        DocScore::Live(self.snapshot.scores()[doc.index()])
    }

    /// The shard's `k` best documents. The boolean reports whether the
    /// precomputed list sufficed (`false` = `k` exceeded its capacity and
    /// the shard fell back to a full scan).
    #[must_use]
    pub fn top_k(&self, k: usize) -> (Vec<(DocId, f64)>, bool) {
        let (order, from_heap) = self.top_order(k);
        let scores = self.snapshot.scores();
        (
            order.iter().map(|&d| (d, scores[d.index()])).collect(),
            from_heap,
        )
    }

    /// [`top_k`](Self::top_k) without the scores: the shard's `k` best
    /// documents in serving order, borrowed from the precomputed list when
    /// it suffices (the boolean) and scanned otherwise.
    #[must_use]
    pub(crate) fn top_order(&self, k: usize) -> (Cow<'_, [DocId]>, bool) {
        let top = &self.data.top;
        if k <= top.len() || top.len() == self.data.n_docs {
            return (Cow::Borrowed(&top[..k.min(top.len())]), true);
        }
        // k exceeds the precomputed capacity: scan every covered site.
        let scores = self.snapshot.scores();
        let mut all: Vec<(DocId, f64)> = self
            .sites
            .clone()
            .flat_map(|s| self.snapshot.members_of_site(SiteId(s)))
            .map(|&d| (d, scores[d.index()]))
            .collect();
        all.sort_unstable_by(serve_cmp);
        (
            Cow::Owned(all.into_iter().take(k).map(|(d, _)| d).collect()),
            false,
        )
    }

    /// The `k` best documents of one covered site, distinguishing a
    /// tombstoned site from one this shard never covered.
    #[must_use]
    pub fn site_top_k(&self, site: SiteId, k: usize) -> SiteTopK {
        if !self.sites.contains(&site.index()) || site.index() >= self.snapshot.n_sites() {
            return SiteTopK::NotCovered;
        }
        if self.snapshot.is_tombstoned_site(site) {
            return SiteTopK::Tombstoned;
        }
        let Some(order) = self.data.site_order.get(site.index() - self.sites.start) else {
            return SiteTopK::NotCovered;
        };
        let scores = self.snapshot.scores();
        SiteTopK::Entries(
            order
                .iter()
                .take(k)
                .map(|&d| (d, scores[d.index()]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_engine::Staleness;

    /// Two sites: site 0 = docs {0, 1}, site 1 = docs {2, 3, 4}.
    fn snapshot(epoch: u64, scores: Vec<f64>) -> RankSnapshot {
        RankSnapshot::new(
            epoch,
            "test".into(),
            Arc::new(scores),
            None,
            Arc::new(vec![
                vec![DocId(0), DocId(1)],
                vec![DocId(2), DocId(3), DocId(4)],
            ]),
            Arc::new(vec![SiteId(0), SiteId(0), SiteId(1), SiteId(1), SiteId(1)]),
            Staleness::Full,
        )
    }

    #[test]
    fn build_precomputes_serving_order() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 0..2, 3);
        assert_eq!(shard.epoch(), 1);
        assert_eq!(shard.n_docs(), 5);
        let (top, from_heap) = shard.top_k(3);
        assert!(from_heap);
        assert_eq!(
            top,
            vec![(DocId(1), 0.3), (DocId(3), 0.25), (DocId(2), 0.2)]
        );
        let site1 = shard.site_top_k(SiteId(1), 2);
        assert_eq!(
            site1,
            SiteTopK::Entries(vec![(DocId(3), 0.25), (DocId(2), 0.2)])
        );
        assert_eq!(shard.score(DocId(4)), DocScore::Live(0.15));
        assert_eq!(shard.score(DocId(9)), DocScore::Unknown);
    }

    #[test]
    fn equal_scores_break_ties_by_id() {
        let snap = snapshot(1, vec![0.2, 0.2, 0.2, 0.2, 0.2]);
        let shard = ShardState::build(&snap, 0..2, 4);
        let (top, _) = shard.top_k(4);
        assert_eq!(
            top.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![DocId(0), DocId(1), DocId(2), DocId(3)]
        );
    }

    #[test]
    fn oversized_k_falls_back_to_a_scan() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 0..2, 2);
        let (top, from_heap) = shard.top_k(5);
        assert!(!from_heap);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0], (DocId(1), 0.3));
        assert_eq!(top[4], (DocId(0), 0.1));
        // Small shards whose list holds everything never scan.
        let all = ShardState::build(&snap, 0..2, 16);
        let (_, from_heap) = all.top_k(9);
        assert!(from_heap);
    }

    #[test]
    fn repin_shares_data_and_advances_the_epoch() {
        let snap1 = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap1, 0..2, 3);
        let snap2 = snapshot(2, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let repinned = shard.repin(&snap2);
        assert_eq!(repinned.epoch(), 2);
        assert!(repinned.shares_data_with(&shard));
        assert_eq!(repinned.top_k(3), shard.top_k(3));
        let rebuilt = ShardState::build(&snap2, 0..2, 3);
        assert!(!rebuilt.shares_data_with(&shard));
    }

    #[test]
    fn refresh_remerges_the_top_under_rescaled_scores() {
        let snap1 = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap1, 0..2, 3);
        // Site 0's weight shrank, site 1's grew: per-site orders are
        // unchanged but the cross-site interleaving flips.
        let snap2 = snapshot(2, vec![0.02, 0.06, 0.30, 0.375, 0.225]);
        let refreshed = shard.refresh(&snap2, 3);
        assert_eq!(refreshed.epoch(), 2);
        assert!(!refreshed.shares_data_with(&shard));
        assert!(refreshed.shares_orders_with(&shard));
        let (top, from_heap) = refreshed.top_k(3);
        assert!(from_heap);
        assert_eq!(
            top,
            vec![(DocId(3), 0.375), (DocId(2), 0.30), (DocId(4), 0.225)]
        );
        // The refreshed top equals a full rebuild's, entry for entry.
        let rebuilt = ShardState::build(&snap2, 0..2, 3);
        assert_eq!(refreshed.top_k(3), rebuilt.top_k(3));
        // Per-site answers read fresh scores through the shared orders.
        assert_eq!(
            refreshed.site_top_k(SiteId(0), 2),
            SiteTopK::Entries(vec![(DocId(1), 0.06), (DocId(0), 0.02)])
        );
    }

    #[test]
    fn tombstoned_docs_and_sites_answer_typed() {
        // Site 1 removed: members empty, its docs dead (slots remain).
        let snap = RankSnapshot::new(
            2,
            "test".into(),
            Arc::new(vec![0.4, 0.6, 0.0, 0.0, 0.0]),
            None,
            Arc::new(vec![vec![DocId(0), DocId(1)], Vec::new()]),
            Arc::new(vec![SiteId(0), SiteId(0), SiteId(1), SiteId(1), SiteId(1)]),
            Staleness::Resized {
                sites: vec![],
                removed_sites: vec![1],
            },
        );
        let shard = ShardState::build(&snap, 0..2, 4);
        assert_eq!(shard.n_docs(), 2);
        assert_eq!(shard.score(DocId(0)), DocScore::Live(0.4));
        assert_eq!(shard.score(DocId(3)), DocScore::Tombstoned);
        assert_eq!(shard.score(DocId(7)), DocScore::Unknown);
        assert_eq!(shard.site_top_k(SiteId(1), 2), SiteTopK::Tombstoned);
        assert_eq!(shard.site_top_k(SiteId(5), 2), SiteTopK::NotCovered);
        let (top, _) = shard.top_k(4);
        assert_eq!(top, vec![(DocId(1), 0.6), (DocId(0), 0.4)]);
    }

    #[test]
    fn site_outside_the_shard_is_refused() {
        let snap = snapshot(1, vec![0.1, 0.3, 0.2, 0.25, 0.15]);
        let shard = ShardState::build(&snap, 1..2, 3);
        assert_eq!(shard.site_top_k(SiteId(0), 2), SiteTopK::NotCovered);
        assert_eq!(shard.site_top_k(SiteId(7), 2), SiteTopK::NotCovered);
        assert!(matches!(
            shard.site_top_k(SiteId(1), 2),
            SiteTopK::Entries(_)
        ));
        // But scores of foreign documents still answer (global vector).
        assert_eq!(shard.score(DocId(0)), DocScore::Live(0.1));
    }
}
