//! Proof that the read path never touches the publish gate: queries
//! complete — with the `direct_hits` / `fanout_queries` counters as
//! witness — while the gate is **held** by a paused mid-build publisher,
//! and even after a publisher panic has **poisoned** the gate forever. A
//! read path that acquired any router-level mutex would deadlock (held
//! gate) or fail (poisoned gate) here. Because a publish stores its set
//! only once every shard is built, both cases answer wholly from the
//! last complete epoch.
//!
//! Runs its own threads only; safe under `RUST_TEST_THREADS=1`.

use std::sync::mpsc;
use std::sync::Arc;

use lmm_engine::{RankSnapshot, Staleness};
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};
use lmm_serve::{ServeConfig, ServeError, ShardedServer};

/// 4 sites x 2 docs over 2 shards (sites 0–1 → shard 0, 2–3 → shard 1).
fn snapshot(epoch: u64, scores: Vec<f64>, staleness: Staleness) -> RankSnapshot {
    let n = scores.len();
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

fn scores_v1() -> Vec<f64> {
    vec![0.05, 0.10, 0.20, 0.15, 0.08, 0.12, 0.18, 0.12]
}

/// Epoch 2 moves a document in each shard.
fn scores_v2() -> Vec<f64> {
    let mut scores = scores_v1();
    scores[0] = 0.06; // shard 0
    scores[6] = 0.17; // shard 1
    scores
}

#[test]
fn point_reads_complete_while_the_publish_gate_is_held() {
    let server = Arc::new(
        ShardedServer::start(
            ShardMap::uniform(4, 2).unwrap(),
            &snapshot(1, scores_v1(), Staleness::Full),
            ServeConfig::default(),
        )
        .unwrap(),
    );

    // Publisher builds shard 0, then parks holding the gate: a stable
    // mid-publish state. Any read needing the gate would block right here.
    let (paused_tx, paused_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let publisher = {
        let server = Arc::clone(&server);
        let snap = snapshot(2, scores_v2(), Staleness::Full);
        std::thread::spawn(move || {
            server
                .publish_paced(&snap, &move |shard| {
                    if shard == 0 {
                        paused_tx.send(()).expect("test alive");
                        resume_rx.recv().expect("released");
                    }
                })
                .expect("publish succeeds");
        })
    };
    paused_rx.recv().unwrap();

    // Every point-query shape completes on the caller's thread, each
    // stamped with the one epoch still served: the half-built epoch 2 is
    // invisible on both shards.
    let (epoch, score) = server.score(DocId(0)).unwrap();
    assert_eq!((epoch, score), (1, 0.05));
    let (epoch, score) = server.score(DocId(6)).unwrap();
    assert_eq!((epoch, score), (1, 0.18));
    let (epoch, batch) = server.score_batch(&[DocId(0), DocId(2)]).unwrap();
    assert_eq!((epoch, batch), (1, vec![0.05, 0.20]));
    let (epoch, site_top) = server.top_k_for_site(SiteId(3), 1).unwrap();
    assert_eq!((epoch, site_top), (1, vec![(DocId(6), 0.18)]));
    let (epoch, order) = server.compare(DocId(4), DocId(5)).unwrap();
    assert_eq!((epoch, order), (1, std::cmp::Ordering::Less));
    assert_eq!(server.epoch(), 1);

    let stats = server.stats();
    assert_eq!(stats.direct_hits, 5, "all five reads were single-shard");
    assert_eq!(stats.fanout_queries, 0, "no read gathered");
    assert_eq!(stats.direct_latency.count(), 5);

    resume_tx.send(()).unwrap();
    publisher.join().expect("publisher panicked");
    assert_eq!(server.epoch(), 2);
    let (epoch, score) = server.score(DocId(6)).unwrap();
    assert_eq!((epoch, score), (2, 0.17));
}

#[test]
fn point_reads_survive_a_poisoned_publish_gate() {
    let server = Arc::new(
        ShardedServer::start(
            ShardMap::uniform(4, 2).unwrap(),
            &snapshot(1, scores_v1(), Staleness::Full),
            ServeConfig::default(),
        )
        .unwrap(),
    );

    // The publisher dies mid-build (pacing hook panics after building
    // shard 0), unwinding with the gate held — the gate is poisoned for
    // good, and the half-built epoch 2 was never stored.
    let publisher = {
        let server = Arc::clone(&server);
        let snap = snapshot(2, scores_v2(), Staleness::Full);
        std::thread::spawn(move || {
            let _ = server.publish_paced(&snap, &|shard| {
                assert!(shard != 0, "publisher dies mid-build");
            });
        })
    };
    assert!(
        publisher.join().is_err(),
        "the publisher must have panicked"
    );
    let snap3 = snapshot(3, scores_v1(), Staleness::Full);
    assert!(matches!(
        server.publish(&snap3),
        Err(ServeError::PublishPoisoned)
    ));

    // No read touches the gate: every shape keeps answering, wholly from
    // the old set.
    let (epoch, score) = server.score(DocId(1)).unwrap();
    assert_eq!((epoch, score), (1, 0.10));
    let (epoch, score) = server.score(DocId(6)).unwrap();
    assert_eq!((epoch, score), (1, 0.18));
    let (_, site_top) = server.top_k_for_site(SiteId(0), 2).unwrap();
    assert_eq!(site_top, vec![(DocId(1), 0.10), (DocId(0), 0.05)]);
    let stats = server.stats();
    assert_eq!(stats.direct_hits, 3);
    assert_eq!(stats.fanout_queries, 0);

    // A cross-shard gather answers at the old epoch too, where the
    // per-shard design had to give up with `PublishPoisoned`.
    let (epoch, top) = server.top_k(3).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(
        top,
        vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
    );
    assert_eq!(server.epoch(), 1);
    let stats = server.stats();
    assert_eq!(stats.fanout_queries, 1);
    assert_eq!(stats.gate_escalations, 0);
}
