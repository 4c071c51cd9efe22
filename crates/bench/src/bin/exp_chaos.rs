//! Experiment PR7: the recovery half of the fabric under a seeded fault
//! schedule — chaos, but reproducible chaos.
//!
//! Stands up the full loopback cluster (controller, four [`ShardNode`]s
//! over eight shards, a [`ClusterClient`]) next to the in-process
//! [`ShardedServer`] mirror, then gives **every** role a deterministic
//! [`FaultPlan`]: nodes drop, delay, and sever frames in both directions
//! (one of them rides a periodic bidirectional partition window), the
//! client's own sends are lossy too. Over the churn epochs the schedule
//! also kills two nodes outright at fixed epochs and *restarts* each
//! under its prior id a few epochs later. Five properties are asserted,
//! not just measured:
//!
//! * **zero wrong-epoch responses** — every probe answered during a
//!   publish, a failover window, or a rejoin catch-up is wholly at the
//!   pre-swap or post-swap epoch, bit-for-bit;
//! * **only-retriable client errors** — faults surface to the client as
//!   [`ClusterError::is_retriable`] errors, never as wrong answers or
//!   non-retriable failures;
//! * **bitwise parity at every quiesce** — after each publish settles,
//!   the cluster's full query surface equals the in-process tier's,
//!   IEEE-754 bit patterns included;
//! * **rank-mass conservation** — every epoch's snapshot scores sum to
//!   1 within 1e-9, churn and recovery notwithstanding;
//! * **recovery round-trips** — a killed node's shards fail over (rank
//!   epoch pinned), and after restart the node is re-admitted under its
//!   prior id and ends up serving *exactly* its original shard set
//!   again, with the rank epoch still untouched; retry counts stay
//!   bounded throughout (no retry storms).
//!
//! Writes `BENCH_pr7.json` (`--smoke` writes `BENCH_pr7_smoke.json` for
//! CI so the committed measurements are never clobbered). `--seed N`
//! reseeds every fault stream for a different — equally reproducible —
//! schedule.
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_chaos`

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lmm_bench::{section, timed};
use lmm_cluster::{
    ClientConfig, ClusterClient, ClusterController, ClusterError, ClusterPublishReport,
    ControllerConfig, FaultPlan, NodeConfig, RetryPolicy, ShardNode,
};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

const OUT_PATH: &str = "BENCH_pr7.json";
const SMOKE_OUT_PATH: &str = "BENCH_pr7_smoke.json";
const DEFAULT_SEED: u64 = 0xC7A05;
const N_NODES: usize = 4;
const N_SHARDS: usize = 8;
const TOP_K: usize = 10;
const PROBES_PER_SWAP: usize = 20;

struct EpochRecord {
    epoch: usize,
    kind: &'static str,
    cepoch: u64,
    rank_epoch: u64,
    publish: Duration,
    attempts: usize,
    probe_old: usize,
    probe_new: usize,
    probe_retriable: usize,
    mass_error: f64,
}

struct ChaosEvent {
    epoch: usize,
    kind: &'static str,
    node: u64,
    wall: Duration,
    cepoch_after: u64,
    probes_ok: u64,
    probes_retriable: u64,
}

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        Self(seed | 1)
    }
    fn next(&mut self, m: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % m
    }
}

/// The ambient fault plan the `i`-th node serves behind: lossy and slow
/// in both directions, with node 1 additionally riding a periodic
/// bidirectional partition window.
fn node_plan(i: usize, seed: u64) -> FaultPlan {
    FaultPlan {
        drop_per_mille: 6,
        delay_per_mille: 10,
        delay: Duration::from_millis(2),
        disconnect_per_mille: 2,
        recv_drop_per_mille: 4,
        recv_delay_per_mille: 8,
        partition_period: if i == 1 { 96 } else { 0 },
        partition_len: if i == 1 { 6 } else { 0 },
        ..FaultPlan::quiet(seed ^ (i as u64).rotate_left(24))
    }
}

fn node_config(i: usize, seed: u64) -> NodeConfig {
    NodeConfig {
        heap_k: 128,
        fault: Some(node_plan(i, seed)),
        ..NodeConfig::default()
    }
}

/// Repeats a cluster call through transient (retriable) failures — the
/// quiesce-time harness stance: faults may slow an answer down, never
/// change it. Anything non-retriable fails the experiment.
fn patient<T>(mut op: impl FnMut() -> Result<T, ClusterError>) -> T {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match op() {
            Ok(out) => return out,
            Err(err) if err.is_retriable() => {
                assert!(Instant::now() < deadline, "retriable error never cleared");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) => panic!("non-retriable under chaos: {err}"),
        }
    }
}

/// Intra-site rewire plus growth: only the touched shards rebuild.
fn local_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 7 + 3) % n_sites;
    while graph.site_size(SiteId(site)) < 3 {
        site = (site + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(site));
    delta.remove_link(docs[0], docs[1]).expect("in range");
    delta.add_link(docs[1], docs[2]).expect("in range");
    delta.add_link(docs[2], docs[0]).expect("in range");
    let mut target = (step * 5 + 1) % n_sites;
    while graph.site_size(SiteId(target)) < 1 {
        target = (target + 1) % n_sites;
    }
    let target = SiteId(target);
    let root = graph.docs_of_site(target)[0];
    let p = delta
        .add_page(target, &format!("http://chaos-grow-{step}.page/"))
        .expect("existing site");
    delta.add_link(root, p).expect("in range");
    delta.add_link(p, root).expect("in range");
    delta
}

/// Cross link (plus a new site every 2nd time): stales the site layer and
/// forces a full rebuild publish — maximum wire fan-out under faults.
fn global_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site_a = (step * 11 + 2) % n_sites;
    while graph.site_size(SiteId(site_a)) < 1 {
        site_a = (site_a + 1) % n_sites;
    }
    let mut site_b = (step * 13 + 5) % n_sites;
    while site_b == site_a || graph.site_size(SiteId(site_b)) < 1 {
        site_b = (site_b + 1) % n_sites;
    }
    let a = graph.docs_of_site(SiteId(site_a))[0];
    let b = graph.docs_of_site(SiteId(site_b))[0];
    delta.add_link(a, b).expect("in range");
    if step.is_multiple_of(2) {
        let s = delta.add_site(&format!("chaos-{step}.example"));
        let mut pages = Vec::new();
        for i in 0..3 {
            pages.push(
                delta
                    .add_page(s, &format!("http://chaos-{step}.example/{i}"))
                    .expect("new site"),
            );
        }
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1]).expect("in range");
        }
        delta.add_link(pages[2], pages[0]).expect("in range");
        delta.add_link(a, pages[0]).expect("in range");
        delta.add_link(pages[0], a).expect("in range");
    }
    delta
}

/// Whole-site retirement plus a page removal elsewhere: the publish
/// rebuilds the named shards and refreshes every other one.
fn removal_delta(graph: &DocGraph, step: usize) -> GraphDelta {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut site = (step * 13 + 5) % n_sites;
    while graph.site_size(SiteId(site)) < 4 {
        site = (site + 1) % n_sites;
    }
    delta.remove_site(SiteId(site)).expect("live site");
    let mut shrink = (step * 17 + 11) % n_sites;
    while shrink == site || graph.site_size(SiteId(shrink)) < 4 {
        shrink = (shrink + 1) % n_sites;
    }
    let docs = graph.docs_of_site(SiteId(shrink));
    delta
        .remove_page(docs[docs.len() - 1])
        .expect("populous site");
    delta
}

/// Full-surface bitwise parity between the cluster and the in-process
/// tier at one quiesce point, patiently riding out injected faults.
fn assert_parity(
    client: &ClusterClient,
    server: &ShardedServer,
    snapshot: &RankSnapshot,
    rng: &mut XorShift,
) {
    let want_epoch = snapshot.epoch();

    let (le, local_top) = server.top_k(TOP_K).expect("local top_k");
    let (re, remote_top) = patient(|| client.top_k(TOP_K));
    assert_eq!((le, re), (want_epoch, want_epoch), "top_k epoch drift");
    assert_eq!(local_top.len(), remote_top.len());
    for (l, r) in local_top.iter().zip(remote_top.iter()) {
        assert_eq!(l.0, r.0, "top_k doc drift");
        assert_eq!(
            l.1.to_bits(),
            r.1.to_bits(),
            "top_k score drift at {:?}",
            l.0
        );
    }

    let live: Vec<DocId> = (0..snapshot.n_docs())
        .map(DocId)
        .filter(|&d| snapshot.is_live_doc(d))
        .collect();
    let batch: Vec<DocId> = (0..64.min(live.len()))
        .map(|_| live[rng.next(live.len())])
        .collect();
    let (le, local_scores) = server.score_batch(&batch).expect("local batch");
    let (re, remote_scores) = patient(|| client.score_batch(&batch));
    assert_eq!((le, re), (want_epoch, want_epoch), "batch epoch drift");
    for (i, (l, r)) in local_scores.iter().zip(remote_scores.iter()).enumerate() {
        assert_eq!(l.to_bits(), r.to_bits(), "score drift at {:?}", batch[i]);
    }

    for _ in 0..8 {
        let (a, b) = (live[rng.next(live.len())], live[rng.next(live.len())]);
        let (le, local_ord) = server.compare(a, b).expect("local compare");
        let (re, remote_ord) = patient(|| client.compare(a, b));
        assert_eq!((le, re), (want_epoch, want_epoch), "compare epoch drift");
        assert_eq!(local_ord, remote_ord, "compare drift {a:?} vs {b:?}");
    }
}

/// The shard ids `node` currently serves, read (lossily) over the wire.
/// Empty when the stats probe itself was eaten by a fault — callers loop.
fn shards_of(controller: &ClusterController, node: u64) -> BTreeSet<u64> {
    controller
        .stats()
        .nodes
        .iter()
        .find(|n| n.node == node)
        .and_then(|n| n.wire.as_ref())
        .map(|w| w.shard_docs.iter().map(|&(s, _)| s).collect())
        .unwrap_or_default()
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map_or(Ok(DEFAULT_SEED), |s| s.parse::<u64>())?;
    let epochs = if smoke { 8 } else { 20 };
    // The kill/restart schedule: two full down-and-back cycles, epochs
    // apart so churn keeps flowing while a node is dark.
    let kill_at = [epochs / 5, 3 * epochs / 5];
    let rejoin_at = [kill_at[0] + 2, kill_at[1] + 3];
    assert!(rejoin_at[0] < kill_at[1] && rejoin_at[1] < epochs);

    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.seed = 23;
    if smoke {
        cfg.total_docs = 2_000;
        cfg.n_sites = 40;
    } else {
        cfg.total_docs = 20_000;
        cfg.n_sites = 200;
    }
    let base = cfg.generate()?;

    section(&format!(
        "Chaos schedule over the shard fabric: {} docs, {} sites; {N_NODES} nodes x {N_SHARDS} shards, \
         {epochs} churn epochs, kills at {kill_at:?}, rejoins at {rejoin_at:?}, seed {seed:#x}",
        base.n_docs(),
        base.n_sites(),
    ));

    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()?;
    engine.rank(&base)?;

    let map = ShardMap::balanced(&base, N_SHARDS)?;
    let controller = ClusterController::start(
        map.clone(),
        ControllerConfig {
            heartbeat_interval: Duration::from_millis(50),
            // Generous miss budget: the ambient drop rates make a missed
            // Pong routine, and node 1's partition window blacks out
            // three pings back-to-back. Only sustained silence may evict.
            miss_limit: 6,
            io_timeout: Duration::from_millis(800),
            auto_failover: true,
            retry: RetryPolicy {
                base: Duration::from_millis(5),
                max_backoff: Duration::from_millis(100),
                max_attempts: 5,
                ..RetryPolicy::default()
            },
            fault: None,
        },
    )?;
    let mut nodes: Vec<ShardNode> = (0..N_NODES)
        .map(|i| ShardNode::start(controller.addr(), node_config(i, seed)))
        .collect::<Result<_, _>>()?;
    controller.wait_for_nodes(N_NODES, Duration::from_secs(10))?;

    let snapshot = engine.snapshot()?;
    controller.publish(&snapshot)?;
    let server = ShardedServer::start(map, &snapshot, ServeConfig { heap_k: 128 })?;
    let client = ClusterClient::new(
        controller.addr(),
        ClientConfig {
            io_timeout: Duration::from_millis(500),
            fault: Some(FaultPlan {
                drop_per_mille: 8,
                ..FaultPlan::quiet(seed ^ 0xC11E)
            }),
            ..ClientConfig::default()
        },
    );
    let mut parity_rng = XorShift::new(seed ^ 0x9E37_79B9);
    assert_parity(&client, &server, &snapshot, &mut parity_rng);

    let bench_start = Instant::now();
    let mut current = base;
    let mut records: Vec<EpochRecord> = Vec::new();
    let mut events: Vec<ChaosEvent> = Vec::new();
    // One node down at a time: its id, its shard set at time of death,
    // and the fault seed index its restart must reuse.
    let mut down: Option<(u64, BTreeSet<u64>, usize)> = None;
    println!(
        "{:>5} {:>8} {:>7} {:>6} {:>10} {:>9} {:>15} {:>10}",
        "epoch", "kind", "cepoch", "rank", "publish", "attempts", "probes o|n|r", "mass err"
    );
    for epoch in 0..epochs {
        let (delta, kind) = match epoch % 3 {
            2 => (global_delta(&current, epoch), "global"),
            1 => (removal_delta(&current, epoch), "removal"),
            _ => (local_delta(&current, epoch), "local"),
        };
        let (mutated, _) = current.apply(&delta)?;
        engine.apply_delta(&delta)?;
        current = mutated;
        let snapshot = engine.snapshot()?;
        let mass: f64 = snapshot.scores().iter().sum();
        let mass_error = (mass - 1.0).abs();
        assert!(
            mass_error < 1e-9,
            "epoch {epoch}: rank mass {mass} is not conserved"
        );
        let old_epoch = snapshot.epoch() - 1;
        let new_epoch = snapshot.epoch();
        let want_top = engine.top_k(TOP_K)?;
        let old_top = server.top_k(TOP_K)?.1;

        // Hammer the swap from a second, equally lossy client: every
        // answer must be wholly pre-swap or wholly post-swap, and every
        // error retriable — under faults, during a publish.
        let prober = {
            let controller_addr = controller.addr().to_string();
            let want_top = want_top.clone();
            let probe_fault = FaultPlan {
                drop_per_mille: 8,
                ..FaultPlan::quiet(seed ^ 0xF00D ^ (epoch as u64) << 20)
            };
            std::thread::spawn(move || {
                let probe_client = ClusterClient::new(
                    &controller_addr,
                    ClientConfig {
                        io_timeout: Duration::from_millis(500),
                        fault: Some(probe_fault),
                        ..ClientConfig::default()
                    },
                );
                let (mut old, mut new, mut retriable) = (0usize, 0usize, 0usize);
                for _ in 0..PROBES_PER_SWAP {
                    match probe_client.top_k(TOP_K) {
                        Ok((epoch, top)) => {
                            assert!(
                                epoch == old_epoch || epoch == new_epoch,
                                "probe answered from epoch {epoch}, swap is {old_epoch}->{new_epoch}"
                            );
                            let want = if epoch == old_epoch {
                                &old_top
                            } else {
                                &want_top
                            };
                            assert_eq!(top.len(), want.len(), "torn probe at epoch {epoch}");
                            for (a, b) in top.iter().zip(want.iter()) {
                                assert_eq!(a.0, b.0, "torn probe at epoch {epoch}");
                                assert_eq!(a.1.to_bits(), b.1.to_bits(), "torn probe bits");
                            }
                            if epoch == old_epoch {
                                old += 1;
                            } else {
                                new += 1;
                            }
                        }
                        Err(err) => {
                            assert!(err.is_retriable(), "non-retriable probe error: {err}");
                            retriable += 1;
                        }
                    }
                }
                (old, new, retriable)
            })
        };
        let (report, publish_wall) = timed(|| controller.publish(&snapshot));
        let report: ClusterPublishReport = report?;
        let (probe_old, probe_new, probe_retriable) =
            prober.join().expect("prober panicked (torn response?)");
        server.publish(&snapshot)?;

        assert_eq!(report.rank_epoch, new_epoch, "publish rank epoch drift");
        // Bounded retries at the publish layer: the budget is 5, and a
        // run that eats it all is a storm, not chaos tolerance.
        assert!(report.attempts <= 5, "publish retry storm: {report:?}");
        assert_parity(&client, &server, &snapshot, &mut parity_rng);

        println!(
            "{:>5} {:>8} {:>7} {:>6} {:>10.2?} {:>9} {:>9}|{}|{:<3} {:>10.1e}",
            epoch,
            kind,
            report.epoch,
            report.rank_epoch,
            publish_wall,
            report.attempts,
            probe_old,
            probe_new,
            probe_retriable,
            mass_error,
        );
        records.push(EpochRecord {
            epoch,
            kind,
            cepoch: report.epoch,
            rank_epoch: report.rank_epoch,
            publish: publish_wall,
            attempts: report.attempts,
            probe_old,
            probe_new,
            probe_retriable,
            mass_error,
        });

        if kill_at.contains(&epoch) {
            // Kill a node outright — no goodbye. Hammer the window until
            // the controller evicts and fails over, then verify the rank
            // epoch never moved.
            let victim = nodes.remove(0);
            let victim_id = victim.node_id();
            // The ownership read goes over the fault-injected wire, so a
            // single probe can come back empty without the victim owning
            // nothing — loop it like every other lossy stats read.
            let owned = {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let owned = shards_of(&controller, victim_id);
                    if !owned.is_empty() {
                        break owned;
                    }
                    assert!(Instant::now() < deadline, "victim owned nothing");
                    std::thread::sleep(Duration::from_millis(20));
                }
            };
            let fault_index = kill_at
                .iter()
                .position(|&k| k == epoch)
                .expect("kill epoch");
            let (cepoch_before, rank_now) = controller.epochs();
            println!("  >> killing node {victim_id} (cluster epoch {cepoch_before})");
            let kill_start = Instant::now();
            let killer = std::thread::spawn(move || victim.kill());
            let deadline = kill_start + Duration::from_secs(60);
            let (mut ok, mut retriable) = (0u64, 0u64);
            while controller.epochs().0 == cepoch_before || controller.n_nodes() != N_NODES - 1 {
                assert!(
                    Instant::now() < deadline,
                    "controller never evicted the dead node: n_nodes={}, epochs={:?}, stats={:?}",
                    controller.n_nodes(),
                    controller.epochs(),
                    controller.stats()
                );
                match client.top_k(TOP_K) {
                    Ok((e, top)) => {
                        assert_eq!(e, rank_now, "wrong-epoch response during failover");
                        assert_eq!(top.len(), want_top.len(), "torn failover response");
                        ok += 1;
                    }
                    Err(err) if err.is_retriable() => retriable += 1,
                    Err(err) => panic!("non-retriable during failover: {err}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let wall = kill_start.elapsed();
            killer.join().expect("node kill panicked");
            let (cepoch_after, rank_after) = controller.epochs();
            assert_eq!(rank_after, rank_now, "failover changed the ranking");
            println!(
                "  >> failover complete in {wall:.2?}: epoch {cepoch_before} -> {cepoch_after}, \
                 {ok} correct + {retriable} retriable during the window"
            );
            down = Some((victim_id, owned, fault_index));
            events.push(ChaosEvent {
                epoch,
                kind: "kill",
                node: victim_id,
                wall,
                cepoch_after,
                probes_ok: ok,
                probes_retriable: retriable,
            });
        }

        if rejoin_at.contains(&epoch) {
            // Restart the downed node under its prior id, with its prior
            // fault plan — recovery does not get a clean network. The
            // controller must re-admit it and hand back exactly the
            // shards it held when it died, without touching the ranking.
            let (victim_id, original, fault_index) = down.take().expect("no node is down");
            let (cepoch_before, rank_before) = controller.epochs();
            let restart_start = Instant::now();
            let returned = ShardNode::restart(
                controller.addr(),
                victim_id,
                node_config(fault_index, seed ^ 0x7E57),
            )?;
            assert_eq!(returned.node_id(), victim_id, "rejoin changed the id");
            let deadline = restart_start + Duration::from_secs(60);
            let (mut ok, mut retriable) = (0u64, 0u64);
            loop {
                if controller.epochs().0 > cepoch_before
                    && shards_of(&controller, victim_id) == original
                {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "rejoin never restored node {victim_id}'s shards {original:?}"
                );
                match client.top_k(TOP_K) {
                    Ok((e, _)) => {
                        assert_eq!(e, rank_before, "wrong-epoch response during rejoin");
                        ok += 1;
                    }
                    Err(err) if err.is_retriable() => retriable += 1,
                    Err(err) => panic!("non-retriable during rejoin: {err}"),
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let wall = restart_start.elapsed();
            let (cepoch_after, rank_after) = controller.epochs();
            assert_eq!(rank_after, rank_before, "rejoin changed the ranking");
            assert_eq!(controller.n_nodes(), N_NODES, "rejoin lost a node");
            println!(
                "  >> node {victim_id} rejoined in {wall:.2?}: epoch {cepoch_before} -> \
                 {cepoch_after}, original {} shards restored",
                original.len()
            );
            nodes.push(returned);
            events.push(ChaosEvent {
                epoch,
                kind: "rejoin",
                node: victim_id,
                wall,
                cepoch_after,
                probes_ok: ok,
                probes_retriable: retriable,
            });
        }
    }
    let wall = bench_start.elapsed();

    let stats = controller.stats();
    let client_stats = client.stats();
    let serve_stats = server.stats();
    assert!(down.is_none(), "a killed node never rejoined");
    assert_eq!(stats.rank_epoch, engine.epoch());
    assert_eq!(stats.nodes.len(), N_NODES);
    assert!(
        stats.evictions >= 2,
        "kills not counted: {}",
        stats.evictions
    );
    assert!(stats.rejoins >= 2, "rejoins not counted: {}", stats.rejoins);
    assert!(stats.failovers >= 2, "failovers not counted");
    // Bounded retries, fleet-wide: the ambient loss rates cost a small
    // constant factor, not a multiplicative storm. The in-process mirror
    // saw the same query stream fault-free, so its retry rate bounds the
    // cluster's baseline.
    let total_probes: u64 = records
        .iter()
        .map(|r| (r.probe_old + r.probe_new + r.probe_retriable) as u64)
        .sum::<u64>()
        + events
            .iter()
            .map(|e| e.probes_ok + e.probes_retriable)
            .sum::<u64>();
    assert!(
        client_stats.gather_escalations <= total_probes / 4 + 8,
        "escalation storm: {} of {} probes",
        client_stats.gather_escalations,
        total_probes
    );
    assert!(
        serve_stats.retries_per_query() < 1.0,
        "in-process retry storm: {:.3} per query",
        serve_stats.retries_per_query()
    );
    let node_aborts: u64 = stats
        .nodes
        .iter()
        .filter_map(|n| n.wire.as_ref())
        .map(|w| w.aborted)
        .sum();
    println!(
        "\n{} publishes in {wall:.2?} under seed {seed:#x}: {} evictions, {} rejoins, \
         {} failovers, {} publish aborts delivered ({node_aborts} node-side), \
         {} client reconnects, {} placement evictions, {} gather retries / {} escalations \
         over {total_probes} probes — zero wrong-epoch responses",
        stats.publishes,
        stats.evictions,
        stats.rejoins,
        stats.failovers,
        stats.publish_aborts,
        client_stats.reconnects,
        client_stats.placement_evictions,
        client_stats.gather_retries,
        client_stats.gather_escalations,
    );

    let json = render_json(
        &current,
        smoke,
        seed,
        &records,
        &events,
        &stats,
        &client_stats,
        wall,
    );
    let out_path = if smoke { SMOKE_OUT_PATH } else { OUT_PATH };
    std::fs::write(out_path, json)?;
    println!("wrote {out_path}");

    controller.shutdown();
    for node in nodes {
        node.kill();
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    final_graph: &DocGraph,
    smoke: bool,
    seed: u64,
    records: &[EpochRecord],
    events: &[ChaosEvent],
    stats: &lmm_cluster::ClusterStats,
    client_stats: &lmm_cluster::ClientStats,
    wall: Duration,
) -> String {
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"exp_chaos\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"n_nodes\": {N_NODES},");
    let _ = writeln!(out, "  \"n_shards\": {N_SHARDS},");
    let _ = writeln!(out, "  \"final_docs\": {},", final_graph.n_docs());
    let _ = writeln!(out, "  \"final_sites\": {},", final_graph.n_sites());
    out.push_str("  \"epochs\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"epoch\": {}, \"kind\": \"{}\", \"cluster_epoch\": {}, \"rank_epoch\": {}, \
             \"publish_ms\": {:.3}, \"publish_attempts\": {}, \
             \"probe_old_epoch\": {}, \"probe_new_epoch\": {}, \"probe_retriable\": {}, \
             \"mass_error\": {:.3e}}}",
            r.epoch,
            r.kind,
            r.cepoch,
            r.rank_epoch,
            r.publish.as_secs_f64() * 1e3,
            r.attempts,
            r.probe_old,
            r.probe_new,
            r.probe_retriable,
            r.mass_error,
        );
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"epoch\": {}, \"kind\": \"{}\", \"node\": {}, \"wall_ms\": {:.3}, \
             \"cluster_epoch_after\": {}, \"probes_ok\": {}, \"probes_retriable\": {}, \
             \"wrong_epoch_responses\": 0}}",
            e.epoch,
            e.kind,
            e.node,
            e.wall.as_secs_f64() * 1e3,
            e.cepoch_after,
            e.probes_ok,
            e.probes_retriable,
        );
        out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"totals\": {{");
    let _ = writeln!(out, "    \"wall_ms\": {:.3},", wall.as_secs_f64() * 1e3);
    let _ = writeln!(out, "    \"publishes\": {},", stats.publishes);
    let _ = writeln!(out, "    \"evictions\": {},", stats.evictions);
    let _ = writeln!(out, "    \"failovers\": {},", stats.failovers);
    let _ = writeln!(out, "    \"rejoins\": {},", stats.rejoins);
    let _ = writeln!(out, "    \"publish_aborts\": {},", stats.publish_aborts);
    let _ = writeln!(
        out,
        "    \"missed_heartbeats\": {},",
        stats.missed_heartbeats
    );
    let _ = writeln!(out, "    \"doc_skew\": {:.4},", stats.doc_skew);
    let _ = writeln!(
        out,
        "    \"client_gather_retries\": {},",
        client_stats.gather_retries
    );
    let _ = writeln!(
        out,
        "    \"client_gather_escalations\": {},",
        client_stats.gather_escalations
    );
    let _ = writeln!(
        out,
        "    \"client_node_failures\": {},",
        client_stats.node_failures
    );
    let _ = writeln!(
        out,
        "    \"client_placement_evictions\": {},",
        client_stats.placement_evictions
    );
    let _ = writeln!(
        out,
        "    \"client_reconnects\": {},",
        client_stats.reconnects
    );
    let _ = writeln!(
        out,
        "    \"client_placement_refreshes\": {}",
        client_stats.placement_refreshes
    );
    out.push_str("  },\n");
    out.push_str("  \"nodes\": [\n");
    for (i, n) in stats.nodes.iter().enumerate() {
        let (docs, queries, aborted, expired) = n.wire.as_ref().map_or((0, 0, 0, 0), |w| {
            (w.n_docs(), w.queries, w.aborted, w.staged_expired)
        });
        let _ = write!(
            out,
            "    {{\"node\": {}, \"addr\": \"{}\", \"missed\": {}, \"docs\": {}, \
             \"queries\": {}, \"aborted\": {}, \"staged_expired\": {}}}",
            n.node, n.addr, n.missed, docs, queries, aborted, expired,
        );
        out.push_str(if i + 1 == stats.nodes.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
