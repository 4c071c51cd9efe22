//! End-to-end removal acceptance: a mixed delta that removes a whole site,
//! shrinks another, and grows a third round-trips through
//! `RankEngine::apply_delta` and a `ShardedServer::publish`:
//!
//! * surviving documents' scores match a from-scratch rank of the
//!   compacted graph within L1 tolerance;
//! * tombstoned ids answer the typed errors, never stale scores;
//! * only the named sites' shards rebuild — everything else takes the
//!   cheap refresh path;
//! * total rank mass is conserved to 1e-9 after the redistribution.

use lmm_core::siterank::SiteLayerMethod;
use lmm_engine::{BackendSpec, RankEngine, Staleness};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ServeError, ShardedServer};

fn campus() -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 600;
    cfg.n_sites = 12;
    cfg.spam_farms.clear();
    cfg.generate().unwrap()
}

#[test]
fn mixed_removal_delta_round_trips_through_engine_and_server() {
    let base = campus();
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();

    // 4 shards x 3 sites: shard 0 = sites 0..3, 1 = 3..6, 2 = 6..9, 3 = 9..12.
    let map = ShardMap::uniform(base.n_sites(), 4).unwrap();
    let server =
        ShardedServer::start(map, &engine.snapshot().unwrap(), ServeConfig::default()).unwrap();

    // The mixed delta: remove site 1 (shard 0), shrink site 4 (shard 1),
    // grow site 7 (shard 2). Shard 3 is untouched by name.
    let removed_site = SiteId(1);
    let shrunk_site = SiteId(4);
    let grown_site = SiteId(7);
    let dead_doc = base.docs_of_site(removed_site)[0];
    let shrunk_doc = base.docs_of_site(shrunk_site)[1];
    let mut delta = GraphDelta::for_graph(&base);
    delta.remove_site(removed_site).unwrap();
    delta.remove_page(shrunk_doc).unwrap();
    let root = base.docs_of_site(grown_site)[0];
    let p = delta
        .add_page(grown_site, "http://accept-grow.example/")
        .unwrap();
    delta.add_link(root, p).unwrap();
    delta.add_link(p, root).unwrap();

    let (mutated, applied) = base.apply(&delta).unwrap();
    assert_eq!(applied.removed_sites, vec![removed_site.index()]);
    assert_eq!(applied.shrunk_sites, vec![shrunk_site.index()]);
    assert_eq!(applied.grown_sites, vec![grown_site.index()]);

    engine.apply_delta(&delta).unwrap();
    let snapshot = engine.snapshot().unwrap();

    // The staleness contract names exactly the touched sites.
    match snapshot.staleness() {
        Staleness::Resized {
            sites,
            removed_sites,
        } => {
            assert_eq!(sites, &vec![shrunk_site.index(), grown_site.index()]);
            assert_eq!(removed_sites, &vec![removed_site.index()]);
        }
        other => panic!("expected Resized staleness, got {other:?}"),
    }

    // Mass conservation: the removed site's mass was redistributed, not
    // dropped.
    let total: f64 = snapshot.scores().iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "rank mass leaked: {total}");

    // Publish: only the three named sites' shards rebuild; the untouched
    // shard refreshes (orders reused), nothing re-pins stale scores.
    let report = server.publish(&snapshot).unwrap();
    assert_eq!(report.shards_rebuilt, 3, "{report:?}");
    assert_eq!(report.shards_refreshed, 1, "{report:?}");
    assert_eq!(report.shards_repinned, 0, "{report:?}");

    // Cross-shard top-k stays bitwise identical to the engine cache — the
    // refreshed shard's re-merged top list is exact, not approximate.
    let (epoch, top) = server.top_k(20).unwrap();
    assert_eq!(epoch, snapshot.epoch());
    assert_eq!(top, engine.top_k(20).unwrap());

    // Tombstoned ids answer typed errors, never stale scores.
    assert!(matches!(
        server.score(dead_doc),
        Err(ServeError::TombstonedDoc { doc, .. }) if doc == dead_doc.index()
    ));
    assert!(matches!(
        server.score(shrunk_doc),
        Err(ServeError::TombstonedDoc { .. })
    ));
    assert!(matches!(
        server.top_k_for_site(removed_site, 3),
        Err(ServeError::TombstonedSite { site, .. }) if site == removed_site.index()
    ));
    assert!(matches!(
        server.score_batch(&[DocId(0), dead_doc]),
        Err(ServeError::TombstonedDoc { .. })
    ));
    // Out-of-range stays UnknownDoc — "gone" and "never existed" differ.
    assert!(matches!(
        server.score(DocId(mutated.n_docs() + 5)),
        Err(ServeError::UnknownDoc { .. })
    ));

    // The tombstone contract holds on *both* query shapes. Every probe
    // above was single-shard — prove it via the counter — and a
    // cross-shard batch naming the dead doc fails the same way through
    // the gather.
    let mid_stats = server.stats();
    assert!(
        mid_stats.direct_hits >= 3,
        "tombstone probes must be single-shard reads, direct_hits = {}",
        mid_stats.direct_hits
    );
    let far_doc = base.docs_of_site(SiteId(10))[0]; // shard 3
    assert!(matches!(
        server.score_batch(&[far_doc, dead_doc]),
        Err(ServeError::TombstonedDoc { doc, .. }) if doc == dead_doc.index()
    ));
    assert_eq!(server.stats().fanout_queries, mid_stats.fanout_queries + 1);

    // Surviving docs match a from-scratch rank of the *compacted* graph,
    // id-translated through the remap, within L1 tolerance.
    let (dense, remap) = mutated.compact_ids();
    let mut scratch = RankEngine::builder()
        .backend(BackendSpec::Layered {
            site_layer: SiteLayerMethod::PageRank,
        })
        .damping(0.85)
        .tolerance(1e-10)
        .build()
        .unwrap();
    scratch.rank(&dense).unwrap();
    let mut l1 = 0.0f64;
    for d in 0..mutated.n_docs() {
        let old = DocId(d);
        if let Some(new) = remap.doc(old) {
            let (_, served) = server.score(old).unwrap();
            l1 += (served - scratch.score(new).unwrap()).abs();
        }
    }
    assert!(l1 < 1e-6, "survivors drifted from compacted scratch: {l1}");

    // Queries through the *refreshed* shard serve the redistributed (not
    // stale) scores: site 10 lives in shard 3, which only refreshed.
    let probe = mutated.docs_of_site(SiteId(10))[0];
    let (_, served) = server.score(probe).unwrap();
    assert_eq!(served, snapshot.scores()[probe.index()]);
    let (_, site_top) = server.top_k_for_site(SiteId(10), 3).unwrap();
    assert_eq!(site_top, engine.top_k_for_site(SiteId(10), 3).unwrap());

    // The skew signal reflects the drained shard.
    let stats = server.stats();
    assert_eq!(stats.shard_docs.len(), 4);
    assert_eq!(
        stats.shard_docs.iter().sum::<u64>(),
        mutated.n_live_docs() as u64
    );
    assert!(stats.doc_skew() > 1.0, "skew {}", stats.doc_skew());
    assert!(stats.tombstone_rejections >= 4);
}

#[test]
fn shrink_without_siterank_rerun_stays_sites_staleness() {
    // A page removal whose links were all intra-site keeps the SiteRank
    // fresh: staleness degrades gracefully to `Sites` and untouched shards
    // re-pin (bit-identical contract still holds).
    let base = campus();
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .build()
        .unwrap();
    engine.rank(&base).unwrap();
    let map = ShardMap::uniform(base.n_sites(), 4).unwrap();
    let server =
        ShardedServer::start(map, &engine.snapshot().unwrap(), ServeConfig::default()).unwrap();

    // Find a page of site 2 with no cross-site links in either direction.
    let victim = *base
        .docs_of_site(SiteId(2))
        .iter()
        .skip(1) // keep the root
        .find(|&&d| {
            let intra_out = base
                .out_links(d)
                .iter()
                .all(|&t| base.site_of(DocId(t)) == SiteId(2));
            let intra_in = base
                .links()
                .filter(|&(_, to)| to == d)
                .all(|(from, _)| base.site_of(from) == SiteId(2));
            intra_out && intra_in
        })
        .expect("campus sites have leaf pages without cross links");
    let mut delta = GraphDelta::for_graph(&base);
    delta.remove_page(victim).unwrap();
    engine.apply_delta(&delta).unwrap();
    let snapshot = engine.snapshot().unwrap();
    assert_eq!(snapshot.staleness(), &Staleness::Sites(vec![2]));

    let report = server.publish(&snapshot).unwrap();
    assert_eq!(report.shards_rebuilt, 1);
    assert_eq!(report.shards_repinned, 3);
    assert_eq!(report.shards_refreshed, 0);
    assert!(matches!(
        server.score(victim),
        Err(ServeError::TombstonedDoc { .. })
    ));
    let (_, top) = server.top_k(10).unwrap();
    assert_eq!(top, engine.top_k(10).unwrap());
}
