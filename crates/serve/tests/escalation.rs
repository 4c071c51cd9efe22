//! Deterministic coverage of the single-load invariant for cross-shard
//! gathers: a `top_k` or a multi-shard batch loads the serving set once
//! and answers wholly from it, so a gather racing a publish sees wholly
//! the old epoch or wholly the new one — never a mix, never a retry, and
//! never the publish gate.
//!
//! The interleaving is *constructed*: the publisher is paused via the
//! pacing hook after building shard 0, holding the gate, so a gather
//! issued then must answer without it.
//!
//! Runs its own threads only; safe under `RUST_TEST_THREADS=1`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::mpsc;
use std::sync::Arc;

use lmm_engine::{RankSnapshot, Staleness};
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

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

/// Epoch 2 moves a new document to the top of each shard, so both the
/// scores and every shard's serving order differ from epoch 1.
fn scores_v2() -> Vec<f64> {
    let mut scores = scores_v1();
    scores[0] = 0.30; // shard 0 (site 0)
    scores[4] = 0.35; // shard 1 (site 2)
    scores
}

fn server() -> Arc<ShardedServer> {
    Arc::new(
        ShardedServer::start(
            ShardMap::uniform(4, 2).unwrap(),
            &snapshot(1, scores_v1(), Staleness::Full),
            ServeConfig { heap_k: 8 },
        )
        .unwrap(),
    )
}

/// Docs 0 (shard 0) and 4 (shard 1): a batch that must gather.
const CROSS: [DocId; 2] = [DocId(0), DocId(4)];

#[test]
fn gathers_during_a_paused_publish_answer_wholly_the_old_epoch() {
    let server = server();

    // The publisher builds shard 0 of epoch 2, reports in, then parks
    // holding the gate — a stable mid-publish state, not a race window.
    let (built_tx, built_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let publisher = {
        let server = Arc::clone(&server);
        let snap = snapshot(2, scores_v2(), Staleness::Full);
        std::thread::spawn(move || {
            let report = server
                .publish_paced(&snap, &move |shard| {
                    if shard == 0 {
                        built_tx.send(()).expect("test alive");
                        resume_rx.recv().expect("released");
                    }
                })
                .expect("publish succeeds");
            assert_eq!(report.shards_rebuilt, 2);
        })
    };
    built_rx.recv().unwrap();

    // Both gather shapes answer on this thread while the gate is held —
    // a gather that needed the gate would deadlock here — and wholly from
    // epoch 1, although shard 0 of epoch 2 is already built.
    let (epoch, top) = server.top_k(3).unwrap();
    assert_eq!(epoch, 1);
    assert_eq!(
        top,
        vec![(DocId(2), 0.20), (DocId(6), 0.18), (DocId(3), 0.15)]
    );
    assert_eq!(server.score_batch(&CROSS).unwrap(), (1, vec![0.05, 0.08]));
    let mid = server.stats();
    assert_eq!(mid.fanout_queries, 2);
    assert_eq!(mid.gather_retries, 0);
    assert_eq!(mid.gate_escalations, 0);

    // The publish completes and stores the whole set: the same gathers
    // now answer wholly from epoch 2.
    resume_tx.send(()).unwrap();
    publisher.join().expect("publisher panicked");
    let (epoch, top) = server.top_k(3).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(
        top,
        vec![(DocId(4), 0.35), (DocId(0), 0.30), (DocId(2), 0.20)]
    );
    assert_eq!(server.score_batch(&CROSS).unwrap(), (2, vec![0.30, 0.35]));
    let end = server.stats();
    assert_eq!(end.gather_retries, 0);
    assert_eq!(end.gate_escalations, 0);
}

/// Even epochs serve v2, odd epochs v1: any mix of the two inside one
/// response would match neither.
fn scores_of(epoch: u64) -> Vec<f64> {
    if epoch.is_multiple_of(2) {
        scores_v2()
    } else {
        scores_v1()
    }
}

/// The global top-3 and the `CROSS` batch that `epoch` must answer.
fn answers(epoch: u64) -> (Vec<(DocId, f64)>, Vec<f64>) {
    let scores = scores_of(epoch);
    let mut top: Vec<(DocId, f64)> = scores
        .iter()
        .enumerate()
        .map(|(d, &s)| (DocId(d), s))
        .collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    top.truncate(3);
    let batch = CROSS.iter().map(|d| scores[d.index()]).collect();
    (top, batch)
}

#[test]
fn gathers_racing_publishes_answer_wholly_one_epoch() {
    let server = server();
    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicU64::new(0));
    let reader = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let checked = Arc::clone(&checked);
        std::thread::spawn(move || {
            while !stop.load(AtomicOrdering::Relaxed) {
                let (epoch, top) = server.top_k(3).unwrap();
                assert_eq!(top, answers(epoch).0, "torn top_k at epoch {epoch}");
                let (epoch, batch) = server.score_batch(&CROSS).unwrap();
                assert_eq!(batch, answers(epoch).1, "torn batch at epoch {epoch}");
                checked.fetch_add(1, AtomicOrdering::Relaxed);
            }
        })
    };

    // Every publish yields mid-build, handing the reader the window in
    // which a per-shard swap used to tear.
    for epoch in 2..=40 {
        let snap = snapshot(epoch, scores_of(epoch), Staleness::Full);
        server
            .publish_paced(&snap, &|_| std::thread::yield_now())
            .unwrap();
    }
    // A reader that died on a torn answer never reaches the mark: stop
    // waiting and let the join report its panic.
    let mark = checked.load(AtomicOrdering::Relaxed) + 3;
    while checked.load(AtomicOrdering::Relaxed) < mark && !reader.is_finished() {
        std::thread::yield_now();
    }
    stop.store(true, AtomicOrdering::Relaxed);
    reader.join().expect("reader panicked (torn gather?)");

    let stats = server.stats();
    assert_eq!(stats.shards_rebuilt, 2 * 39);
    assert!(stats.fanout_queries >= 6);
    assert_eq!(
        stats.gather_retries, 0,
        "a single-load gather never retries"
    );
    assert_eq!(stats.gate_escalations, 0, "no read takes the gate");
}
