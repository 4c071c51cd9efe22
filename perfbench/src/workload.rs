//! The workloads: their load shape, their set-up, the writer that
//! replays updates, the query tier the load threads call, and the
//! loopback cluster the `cluster` workload serves from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lmm_cluster::{
    ClientConfig, ClusterClient, ClusterController, ControllerConfig, NodeConfig, ShardNode,
};
use lmm_core::siterank::SiteLayerMethod;
use lmm_engine::{BackendSpec, MemorySink, RankEngine, RankSnapshot, RunTelemetry};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::{DocGraph, DocId, ShardMap, SiteId};
use lmm_serve::{
    publish_grades, shard_site_range, PublishReport, ServeConfig, ShardedServer, SwapGrade,
};

use crate::deltas::build_chain;
use crate::drive::Rates;
use crate::load::SplitMix;
use crate::trace::Tracer;

/// Shards of the serving tier (in-process and cluster alike).
pub const N_SHARDS: usize = 8;
/// Shard nodes of the loopback cluster.
pub const N_NODES: usize = 2;
/// `k` of a global top-k query.
pub const TOP_K: usize = 10;
/// `k` of a per-site top-k query.
pub const SITE_K: usize = 5;
/// Documents in a single-site batch.
pub const SITE_BATCH: usize = 4;
/// Documents in a multi-shard batch.
pub const MULTI_BATCH: usize = 8;
/// Damping at both layers.
pub const DAMPING: f64 = 0.85;
/// Power-method tolerance of every ranking.
pub const TOL: f64 = 1e-10;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Point and gather streams on the in-process tier, with a sparse
    /// rewire stream that only stamps new epochs.
    ServeRead,
    /// Structural deltas beside reads on the in-process tier.
    ChurnFresh,
    /// The churn deltas and reads through the loopback cluster.
    Cluster,
    /// Repeated from-scratch layered ranks.
    RankBatch,
}

/// What the update stream does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Replay a chain of single-site rewires through the incremental
    /// engine.
    Rewires,
    /// Replay the cycling delta chain through the incremental engine.
    Deltas,
    /// Rank the unchanged graph from scratch with the layered backend.
    Rerank,
}

/// The load shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Stream rates.
    pub rates: Rates,
    /// What an update does.
    pub update: UpdateKind,
    /// Point and gather streams on separate load threads (the update
    /// stream then shares the gather thread); otherwise they share the
    /// first thread and the update stream has the second.
    pub split_reads: bool,
    /// Queries go through the loopback cluster, and updates are published
    /// to it before the in-process tier.
    pub cluster: bool,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeRead,
        Workload::ChurnFresh,
        Workload::Cluster,
        Workload::RankBatch,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve-read",
            Workload::ChurnFresh => "churn-fresh",
            Workload::Cluster => "cluster",
            Workload::RankBatch => "rank-batch",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    #[must_use]
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeRead => "point and gather streams on separate threads load the lmm-serve read path; a sparse rewire stream only stamps new epochs",
            Workload::ChurnFresh => "cycling structural deltas run lmm-graph apply, the incremental engine and publish beside reads on the in-process tier",
            Workload::Cluster => "the churn-fresh deltas and reads through a loopback controller, 2 shard nodes and one client, isolating lmm-cluster",
            Workload::RankBatch => "repeated from-scratch layered ranks put SiteRank, per-site DocRank, SpMV and the pool on the critical path",
        }
    }

    /// The workload's load shape. The rates leave the parent commit
    /// without a growing backlog on a 2-thread host.
    #[must_use]
    pub fn spec(self) -> Spec {
        let rates = |point_hz, gather_hz, update_hz| Rates {
            point_hz,
            gather_hz,
            update_hz,
        };
        match self {
            Workload::ServeRead => Spec {
                rates: rates(4_000.0, 1_000.0, 6.0),
                update: UpdateKind::Rewires,
                split_reads: true,
                cluster: false,
            },
            Workload::ChurnFresh => Spec {
                rates: rates(1_000.0, 300.0, 10.0),
                update: UpdateKind::Deltas,
                split_reads: false,
                cluster: false,
            },
            Workload::Cluster => Spec {
                rates: rates(1_000.0, 250.0, 6.0),
                update: UpdateKind::Deltas,
                split_reads: false,
                cluster: true,
            },
            Workload::RankBatch => Spec {
                rates: rates(1_000.0, 400.0, 6.0),
                update: UpdateKind::Rerank,
                split_reads: false,
                cluster: false,
            },
        }
    }
}

/// Graph size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Pages of the campus graph.
    pub docs: usize,
    /// Sites of the campus graph.
    pub sites: usize,
}

impl Scale {
    /// The 100k-page, 400-site campus graph every workload runs on.
    pub const FULL: Scale = Scale {
        docs: 100_000,
        sites: 400,
    };
    /// A 2k-page graph for the benchmark's own tests.
    pub const SMOKE: Scale = Scale {
        docs: 2_000,
        sites: 40,
    };
}

/// Worker threads of the host.
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Generates the campus graph of `scale` from `seed`.
///
/// # Errors
/// Propagates generator errors.
pub fn campus_graph(scale: Scale, seed: u64) -> Result<DocGraph, String> {
    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.total_docs = scale.docs;
    cfg.n_sites = scale.sites;
    cfg.seed = seed;
    cfg.generate().map_err(|e| format!("graph generation: {e}"))
}

/// An engine with the benchmark's ranking settings.
///
/// # Errors
/// Propagates builder validation errors.
pub fn engine(
    backend: BackendSpec,
    threads: usize,
    sink: Option<Arc<MemorySink>>,
) -> Result<RankEngine, String> {
    let mut b = RankEngine::builder()
        .backend(backend)
        .damping(DAMPING)
        .tolerance(TOL)
        .threads(threads);
    if let Some(sink) = sink {
        b = b.telemetry(sink);
    }
    b.build().map_err(|e| format!("engine: {e}"))
}

/// The layered backend the from-scratch ranks use.
pub const LAYERED: BackendSpec = BackendSpec::Layered {
    site_layer: SiteLayerMethod::PageRank,
};

/// Query targets that stay live for the whole run.
#[derive(Debug, Clone)]
pub struct Pools {
    /// Base documents no delta removes.
    pub docs: Vec<DocId>,
    /// Base sites no delta removes, with [`SITE_BATCH`] of their surviving
    /// documents.
    pub sites: Vec<(SiteId, [DocId; SITE_BATCH])>,
}

impl Pools {
    /// Targets of `base` still live in `last`.
    fn surviving(base: &DocGraph, last: &DocGraph) -> Result<Self, String> {
        let docs: Vec<DocId> = (0..base.n_docs())
            .map(DocId)
            .filter(|&d| last.is_live_doc(d))
            .collect();
        let sites: Vec<(SiteId, [DocId; SITE_BATCH])> = (0..base.n_sites())
            .map(SiteId)
            .filter(|&s| last.is_live_site(s))
            .filter_map(|s| {
                let live: Vec<DocId> = last
                    .docs_of_site(s)
                    .iter()
                    .copied()
                    .filter(|&d| d.index() < base.n_docs() && last.is_live_doc(d))
                    .take(SITE_BATCH)
                    .collect();
                let docs: [DocId; SITE_BATCH] = live.try_into().ok()?;
                Some((s, docs))
            })
            .collect();
        if docs.len() < MULTI_BATCH || sites.is_empty() {
            return Err("the delta chain leaves too few query targets".into());
        }
        Ok(Self { docs, sites })
    }
}

/// The query kinds. The first four are point queries answered by one
/// shard; the last two gather across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Score of one document.
    Score,
    /// Scores of [`SITE_BATCH`] documents of one site (one shard).
    SiteBatch,
    /// Top-[`SITE_K`] of one site.
    SiteTopK,
    /// Order of two documents of one site (one shard).
    Compare,
    /// Global top-[`TOP_K`].
    TopK,
    /// Scores of [`MULTI_BATCH`] documents drawn across the graph.
    MultiBatch,
}

impl Query {
    /// Point queries of the point stream, equally likely.
    pub const POINT: [Query; 4] = [
        Query::Score,
        Query::SiteBatch,
        Query::SiteTopK,
        Query::Compare,
    ];
    /// Gather queries of the gather stream, equally likely.
    pub const GATHER: [Query; 2] = [Query::TopK, Query::MultiBatch];

    /// Whether one shard answers the query.
    #[must_use]
    pub fn is_point(self) -> bool {
        !matches!(self, Query::TopK | Query::MultiBatch)
    }
}

/// The tier the load threads query.
#[derive(Clone, Copy)]
pub enum Tier<'a> {
    /// The in-process sharded server.
    Local(&'a ShardedServer),
    /// The cluster, through one client.
    Cluster(&'a ClusterClient),
}

impl Tier<'_> {
    /// Runs one query on random targets and returns the epoch that
    /// answered it.
    ///
    /// # Errors
    /// The tier's error, rendered.
    pub fn query(&self, q: Query, rng: &mut SplitMix, pools: &Pools) -> Result<u64, String> {
        let doc = |rng: &mut SplitMix| pools.docs[rng.below(pools.docs.len())];
        let site = |rng: &mut SplitMix| pools.sites[rng.below(pools.sites.len())];
        match (self, q) {
            (Tier::Local(s), Query::Score) => epoch(s.score(doc(rng))),
            (Tier::Cluster(c), Query::Score) => epoch(c.score(doc(rng))),
            (Tier::Local(s), Query::SiteBatch) => epoch(s.score_batch(&site(rng).1)),
            (Tier::Cluster(c), Query::SiteBatch) => epoch(c.score_batch(&site(rng).1)),
            (Tier::Local(s), Query::SiteTopK) => epoch(s.top_k_for_site(site(rng).0, SITE_K)),
            (Tier::Cluster(c), Query::SiteTopK) => epoch(c.top_k_for_site(site(rng).0, SITE_K)),
            (tier, Query::Compare) => {
                let (_, d) = site(rng);
                let (a, b) = (d[0], d[1 + rng.below(SITE_BATCH - 1)]);
                match tier {
                    Tier::Local(s) => epoch(s.compare(a, b)),
                    Tier::Cluster(c) => epoch(c.compare(a, b)),
                }
            }
            (Tier::Local(s), Query::TopK) => epoch(s.top_k(TOP_K)),
            (Tier::Cluster(c), Query::TopK) => epoch(c.top_k(TOP_K)),
            (tier, Query::MultiBatch) => {
                let docs: Vec<DocId> = (0..MULTI_BATCH).map(|_| doc(rng)).collect();
                match tier {
                    Tier::Local(s) => epoch(s.score_batch(&docs)),
                    Tier::Cluster(c) => epoch(c.score_batch(&docs)),
                }
            }
        }
    }
}

/// The epoch of an answer, or its error rendered.
fn epoch<T, E: std::fmt::Display>(answer: Result<(u64, T), E>) -> Result<u64, String> {
    answer.map(|(epoch, _)| epoch).map_err(|e| e.to_string())
}

/// The loopback cluster: a controller, its nodes and one client.
pub struct ClusterRig {
    /// The controller publishes go through.
    pub controller: ClusterController,
    /// The shard nodes.
    pub nodes: Vec<ShardNode>,
    /// The client queries go through.
    pub client: ClusterClient,
}

impl ClusterRig {
    fn start(map: &ShardMap, snapshot: &RankSnapshot) -> Result<Self, String> {
        let controller = ClusterController::start(map.clone(), ControllerConfig::default())
            .map_err(|e| format!("controller start: {e}"))?;
        let nodes = (0..N_NODES)
            .map(|_| ShardNode::start(controller.addr(), NodeConfig::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("node start: {e}"))?;
        controller
            .wait_for_nodes(N_NODES, Duration::from_secs(10))
            .map_err(|e| format!("nodes never registered: {e}"))?;
        controller
            .publish(snapshot)
            .map_err(|e| format!("first cluster publish: {e}"))?;
        let client = ClusterClient::new(controller.addr(), ClientConfig::default());
        Ok(Self {
            controller,
            nodes,
            client,
        })
    }

    /// Stops the controller and every node, waiting for their threads.
    pub fn shutdown(self) {
        // Closing the client's pooled connections first lets the nodes'
        // connection threads see end-of-file instead of waiting out their
        // read timeouts.
        drop(self.client);
        self.controller.shutdown();
        for node in self.nodes {
            node.kill();
        }
    }
}

/// What the writer replays.
enum Plan {
    Deltas {
        deltas: Vec<GraphDelta>,
        next: usize,
    },
    Rerank {
        reference: Vec<u64>,
    },
}

/// One update as the writer saw it. Times are ns since the window origin.
#[derive(Debug, Clone)]
pub struct UpdateRecord {
    /// When the update was due.
    pub due_ns: u64,
    /// The epoch its publish produced, when every publish succeeded.
    pub epoch: Option<u64>,
    /// Why it failed, when it did.
    pub error: Option<String>,
    /// Time of the engine call that produced the converged ranking.
    pub rank_ns: u64,
    /// The engine's telemetry of that call.
    pub telemetry: Option<RunTelemetry>,
    /// The in-process publish report.
    pub serve: Option<PublishReport>,
    /// The cluster publish's slowest node fan-out, in ms.
    pub cluster_fanout_ms: Option<f64>,
}

/// The single writer: replays updates through graph, engine and publish.
pub struct Writer {
    /// The writer's copy of the graph; after every update it matches the
    /// graph the engine ranked.
    pub graph: DocGraph,
    /// The ranking engine.
    pub engine: RankEngine,
    sink: Arc<MemorySink>,
    plan: Plan,
    map: ShardMap,
    /// Epochs published so far, ascending (set-up's included).
    pub published: Vec<u64>,
    /// Largest `|sum(scores) - 1|` seen after any update.
    pub worst_mass_error: f64,
    /// Rerank repeats that differed from the 1-thread reference.
    pub reference_mismatches: usize,
}

impl Writer {
    /// Whether every delta of the chain has been replayed (never, for
    /// reranks).
    #[must_use]
    pub fn exhausted(&self) -> bool {
        match &self.plan {
            Plan::Deltas { deltas, next } => *next >= deltas.len(),
            Plan::Rerank { .. } => false,
        }
    }

    /// Runs one update: apply and incremental rank (or rerank), snapshot,
    /// publish to the cluster (if any), then to the in-process tier.
    pub fn update(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        server: &ShardedServer,
        controller: Option<&ClusterController>,
    ) -> UpdateRecord {
        let root = tracer.open("update", None, request);
        let mut rec = UpdateRecord {
            due_ns: 0,
            epoch: None,
            error: None,
            rank_ns: 0,
            telemetry: None,
            serve: None,
            cluster_fanout_ms: None,
        };
        if let Err(e) = self.update_inner(tracer, root, request, server, controller, &mut rec) {
            rec.error = Some(e);
        }
        tracer.close(root);
        rec
    }

    fn update_inner(
        &mut self,
        tracer: &mut Tracer,
        root: Option<u32>,
        request: u64,
        server: &ShardedServer,
        controller: Option<&ClusterController>,
        rec: &mut UpdateRecord,
    ) -> Result<(), String> {
        let runs_before = self.sink.len();
        let scores_ok = match &mut self.plan {
            Plan::Deltas { deltas, next } => {
                let delta = &deltas[*next];
                *next += 1;
                let graph = &self.graph;
                let (g2, _) = tracer
                    .span("graph.apply", root, request, || graph.apply(delta))
                    .map_err(|e| format!("graph apply: {e}"))?;
                self.graph = g2;
                let engine = &mut self.engine;
                let t = Instant::now();
                tracer
                    .span("engine.apply_delta", root, request, || {
                        engine.apply_delta(delta).map(|_| ())
                    })
                    .map_err(|e| format!("apply_delta: {e}"))?;
                rec.rank_ns = elapsed_ns(t);
                true
            }
            Plan::Rerank { reference } => {
                let (engine, graph) = (&mut self.engine, &self.graph);
                engine.invalidate();
                let t = Instant::now();
                let same = tracer
                    .span("engine.rank", root, request, || {
                        engine
                            .rank(graph)
                            .map(|o| bits_equal(o.ranking.scores(), reference))
                    })
                    .map_err(|e| format!("rank: {e}"))?;
                rec.rank_ns = elapsed_ns(t);
                same
            }
        };
        if !scores_ok {
            self.reference_mismatches += 1;
        }
        let outcome = self.engine.outcome().map_err(|e| e.to_string())?;
        let mass: f64 = outcome.ranking.scores().iter().sum();
        self.worst_mass_error = self.worst_mass_error.max((mass - 1.0).abs());
        rec.telemetry = self.sink.runs().get(runs_before).cloned();

        let engine = &self.engine;
        let snapshot = tracer
            .span("engine.snapshot", root, request, || engine.snapshot())
            .map_err(|e| format!("snapshot: {e}"))?;
        if let Some(controller) = controller {
            let report = tracer
                .span("cluster.publish", root, request, || {
                    controller.publish(&snapshot)
                })
                .map_err(|e| format!("cluster publish: {e}"))?;
            rec.cluster_fanout_ms = Some(report.max_fanout_ms);
            if tracer.enabled() {
                // The controller encodes one segment per rebuilt shard; the
                // same public call, timed here off the freshness path.
                let serving = *self.published.last().expect("set-up published");
                let map = &self.map;
                tracer.span("cluster.export_segment", root, request, || {
                    for (shard, grade) in publish_grades(map, serving, &snapshot).iter().enumerate()
                    {
                        if *grade == SwapGrade::Rebuild {
                            let range = shard_site_range(map, shard, snapshot.n_sites());
                            std::hint::black_box(snapshot.export_segment(range));
                        }
                    }
                });
            }
        }
        let report = tracer
            .span("serve.publish", root, request, || server.publish(&snapshot))
            .map_err(|e| format!("publish: {e}"))?;
        rec.serve = Some(report);
        rec.epoch = Some(snapshot.epoch());
        self.published.push(snapshot.epoch());
        Ok(())
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether two score vectors are equal bit for bit (`reference` holds
/// `f64::to_bits`).
fn bits_equal(scores: &[f64], reference: &[u64]) -> bool {
    scores.len() == reference.len() && scores.iter().zip(reference).all(|(s, &r)| s.to_bits() == r)
}

/// A set-up workload, ready to run.
pub struct Deployment {
    /// The workload.
    pub workload: Workload,
    /// The generated graph before any update.
    pub base: DocGraph,
    /// Query targets.
    pub pools: Pools,
    /// The in-process tier.
    pub server: ShardedServer,
    /// The loopback cluster, for the `cluster` workload.
    pub cluster: Option<ClusterRig>,
}

impl Deployment {
    /// Sets up `workload` on the graph of `scale` and `seed`, with enough
    /// updates for `n_updates`, and returns it with its writer.
    ///
    /// # Errors
    /// Any set-up failure, rendered.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        n_updates: usize,
    ) -> Result<(Self, Writer), String> {
        let threads = host_threads();
        let base = campus_graph(scale, seed)?;
        let sink = Arc::new(MemorySink::new());
        let spec = workload.spec();
        let (plan, last, backend) = match spec.update {
            kind @ (UpdateKind::Rewires | UpdateKind::Deltas) => {
                let cycling = kind == UpdateKind::Deltas;
                let chain = build_chain(&base, n_updates, seed, cycling)
                    .map_err(|e| format!("delta chain: {e}"))?;
                let plan = Plan::Deltas {
                    deltas: chain.deltas,
                    next: 0,
                };
                (plan, chain.last, BackendSpec::Incremental)
            }
            UpdateKind::Rerank => {
                let mut one = engine(LAYERED, 1, None)?;
                let reference = one
                    .rank(&base)
                    .map_err(|e| format!("reference rank: {e}"))?
                    .ranking
                    .scores()
                    .iter()
                    .map(|s| s.to_bits())
                    .collect();
                (Plan::Rerank { reference }, base.clone(), LAYERED)
            }
        };
        let pools = Pools::surviving(&base, &last)?;
        drop(last);

        let mut engine = engine(backend, threads, Some(sink.clone()))?;
        engine
            .rank(&base)
            .map_err(|e| format!("initial rank: {e}"))?;
        let snapshot = engine.snapshot().map_err(|e| e.to_string())?;
        let map = ShardMap::balanced(&base, N_SHARDS).map_err(|e| format!("shard map: {e}"))?;
        let server = ShardedServer::start(map.clone(), &snapshot, ServeConfig::default())
            .map_err(|e| format!("server start: {e}"))?;
        let mut writer = Writer {
            graph: base.clone(),
            engine,
            sink,
            plan,
            map,
            published: vec![snapshot.epoch()],
            worst_mass_error: 0.0,
            reference_mismatches: 0,
        };
        if let Plan::Rerank { reference } = &writer.plan {
            let scores = writer
                .engine
                .outcome()
                .map_err(|e| e.to_string())?
                .ranking
                .scores();
            if !bits_equal(scores, reference) {
                writer.reference_mismatches += 1;
            }
        }
        let cluster = if spec.cluster {
            Some(ClusterRig::start(&writer.map, &snapshot)?)
        } else {
            None
        };
        let dep = Self {
            workload,
            base,
            pools,
            server,
            cluster,
        };
        dep.quiesce_check(&writer)?;
        Ok((dep, writer))
    }

    /// The tier queries go to.
    #[must_use]
    pub fn tier(&self) -> Tier<'_> {
        match &self.cluster {
            Some(rig) => Tier::Cluster(&rig.client),
            None => Tier::Local(&self.server),
        }
    }

    /// Checks a quiet deployment: the in-process `top_k` equals the engine
    /// cache bit for bit at the engine's epoch, and every cluster answer
    /// equals the in-process answer bit for bit.
    ///
    /// # Errors
    /// The first mismatch, described.
    pub fn quiesce_check(&self, writer: &Writer) -> Result<(), String> {
        let engine = &writer.engine;
        let want = engine.top_k(TOP_K).map_err(|e| e.to_string())?;
        let (epoch, got) = self.server.top_k(TOP_K).map_err(|e| e.to_string())?;
        if epoch != engine.epoch() {
            return Err(format!(
                "in-process tier at epoch {epoch}, engine at {}",
                engine.epoch()
            ));
        }
        same_list("in-process top_k vs engine cache", &got, &want)?;
        if let Some(rig) = &self.cluster {
            self.cluster_parity(&rig.client, epoch)?;
        }
        Ok(())
    }

    fn cluster_parity(&self, client: &ClusterClient, epoch: u64) -> Result<(), String> {
        let s = &self.server;
        let stamp = |what: &str, a: u64, b: u64| {
            if a == epoch && b == epoch {
                Ok(())
            } else {
                Err(format!(
                    "{what}: in-process epoch {a}, cluster epoch {b}, want {epoch}"
                ))
            }
        };
        let (a, local) = s.top_k(TOP_K).map_err(|e| e.to_string())?;
        let (b, remote) = client.top_k(TOP_K).map_err(|e| e.to_string())?;
        stamp("top_k", a, b)?;
        same_list("cluster top_k", &remote, &local)?;

        let docs: Vec<DocId> = self
            .pools
            .docs
            .iter()
            .step_by((self.pools.docs.len() / 64).max(1))
            .copied()
            .collect();
        let (a, local) = s.score_batch(&docs).map_err(|e| e.to_string())?;
        let (b, remote) = client.score_batch(&docs).map_err(|e| e.to_string())?;
        stamp("score_batch", a, b)?;
        if local
            .iter()
            .map(|x| x.to_bits())
            .ne(remote.iter().map(|x| x.to_bits()))
        {
            return Err("cluster score_batch differs from the in-process tier".into());
        }
        for &(site, docs) in self
            .pools
            .sites
            .iter()
            .step_by((self.pools.sites.len() / 8).max(1))
        {
            let (a, local) = s.top_k_for_site(site, SITE_K).map_err(|e| e.to_string())?;
            let (b, remote) = client
                .top_k_for_site(site, SITE_K)
                .map_err(|e| e.to_string())?;
            stamp("top_k_for_site", a, b)?;
            same_list("cluster top_k_for_site", &remote, &local)?;
            let (a, local) = s.compare(docs[0], docs[1]).map_err(|e| e.to_string())?;
            let (b, remote) = client
                .compare(docs[0], docs[1])
                .map_err(|e| e.to_string())?;
            stamp("compare", a, b)?;
            if local != remote {
                return Err(format!(
                    "cluster compare of {:?} and {:?} differs",
                    docs[0], docs[1]
                ));
            }
        }
        Ok(())
    }

    /// Stops every thread the deployment started.
    pub fn shutdown(self) {
        if let Some(rig) = self.cluster {
            rig.shutdown();
        }
    }
}

fn same_list(what: &str, got: &[(DocId, f64)], want: &[(DocId, f64)]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("{what}: lists differ"))
    }
}
