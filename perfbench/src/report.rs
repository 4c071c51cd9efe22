//! One benchmark run: set-up, the measurement windows, the correctness
//! checks, and the metrics.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmm_engine::{ConvergencePolicy, MemorySink};
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraphOptions};
use lmm_graph::{DocGraph, SiteId};
use lmm_linalg::vec_ops;
use lmm_rank::PageRank;

use crate::drive::{run_window, ThreadOut, Window};
use crate::stats::{json_str, median, percentile, Metric};
use crate::trace::{self_times, self_times_of, write_spans, Span, Tracer};
use crate::workload::{
    engine, host_threads, Deployment, Scale, Spec, UpdateKind, Workload, Writer, DAMPING, LAYERED,
    TOL,
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Largest L1 distance allowed between the incremental ranking and a
/// from-scratch rank of the same graph.
pub const DRIFT_BOUND: f64 = 1e-6;
/// Largest `|sum(scores) - 1|` allowed after any update.
pub const MASS_BOUND: f64 = 1e-9;
/// End-to-end metrics, printed by an untraced run, in order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("point_p50_us", "us"),
    ("gather_p50_us", "us"),
    ("fresh_p50_ms", "ms"),
    ("rank_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run, in order. The first three
/// are the end-to-end tails: on a 2-vCPU guest whose steal time swings
/// between runs they did not repeat within the 25% a bound may allow, so
/// they are reported without one (and in every run's provenance).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("point_p99_us", "us"),
    ("gather_p99_us", "us"),
    ("fresh_p90_ms", "ms"),
    ("graph.apply_ms", "ms"),
    ("engine.apply_delta_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("engine.sites_recomputed", "count/update"),
    ("engine.sites_reused", "count/update"),
    ("engine.reuse_ratio", "ratio"),
    ("engine.siterank_ms", "ms"),
    ("engine.docrank_ms", "ms"),
    ("engine.site_iters", "count"),
    ("engine.local_iters", "count"),
    ("engine.max_local_iters", "count"),
    ("linalg.edge_visits", "count"),
    ("par.rank_1t_ms", "ms"),
    ("par.scaling", "ratio"),
    ("serve.point_call_us", "us"),
    ("serve.direct_hits", "count"),
    ("serve.gather_call_us", "us"),
    ("serve.fanout_queries", "count"),
    ("serve.gather_retries", "1/gather"),
    ("serve.gate_escalations", "1/gather"),
    ("serve.publish_ms", "ms"),
    ("serve.shards_rebuilt", "count/publish"),
    ("serve.shards_refreshed", "count/publish"),
    ("serve.shards_repinned", "count/publish"),
    ("cluster.publish_ms", "ms"),
    ("cluster.max_fanout_ms", "ms"),
    ("cluster.rtt_us", "us"),
    ("cluster.export_segment_ms", "ms"),
    ("cluster.client_call_us", "us"),
    ("cluster.bytes_sent", "B/query"),
    ("cluster.bytes_recv", "B/query"),
    ("cluster.gather_retries", "count"),
    ("cluster.reconnects", "count"),
    ("cluster.node_failures", "count"),
    ("gen.lag_max_ms", "ms"),
    ("gen.queue_wait_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// How to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the graph, the deltas and every schedule.
    pub seed: u64,
    /// Length of the measurement.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Graph size.
    pub scale: Scale,
    /// Samples a reported high percentile must leave beyond it.
    pub min_beyond: usize,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Queries plus updates attempted.
    pub attempted: u64,
    /// Queries plus updates failed.
    pub failed: u64,
    /// The metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// One JSON object recording seed, host, shape, rates and checks.
    pub provenance: String,
    /// Failed checks, described.
    pub check_failures: Vec<String>,
}

/// Updates stop this long before a window ends, so the last one's
/// freshness is observed inside the window.
const UPDATE_TAIL: Duration = Duration::from_millis(500);

fn updates_in(length: Duration, hz: f64) -> usize {
    (((length.saturating_sub(UPDATE_TAIL)).as_secs_f64() * hz) as usize).max(1)
}

/// Runs the benchmark once.
///
/// An untraced run measures one window of `seconds`. A traced run splits
/// the same time into an untraced and a traced window of equal length:
/// the two give the tracing overhead, the second the per-layer metrics.
///
/// # Errors
/// A set-up failure or a run too short for its percentiles.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let spec = cfg.workload.spec();
    let full = Duration::from_secs_f64(cfg.seconds);
    let window = |length: Duration, hz: f64| Window {
        length,
        n_updates: updates_in(length, hz),
    };
    let windows: Vec<(Window, bool)> = if cfg.trace {
        let w = window(full / 2, spec.rates.update_hz);
        vec![(w, false), (w, true)]
    } else {
        vec![(window(full, spec.rates.update_hz), false)]
    };
    let total_updates = windows.iter().map(|(w, _)| w.n_updates).sum::<usize>();

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((dep, _writer)) = kept.take() {
            Deployment::shutdown(dep);
        }
        let t = Instant::now();
        kept = Some(Deployment::setup(
            cfg.workload,
            cfg.scale,
            cfg.seed,
            total_updates,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (dep, mut writer) = kept.expect("at least one set-up");
    let report = measure(cfg, &dep, &mut writer, &windows, &setup_s);
    Deployment::shutdown(dep);
    report
}

/// Runs one window and takes the tiers' counter deltas around it.
fn run_counted(
    dep: &Deployment,
    writer: &mut Writer,
    spec: Spec,
    window: Window,
    seed: u64,
    traced: bool,
) -> WindowResult {
    let serve_before = dep.server.stats();
    let client_before = dep.cluster.as_ref().map(|c| c.client.stats());
    let cpu_before = cpu_ticks();
    let outs = run_window(dep, writer, spec, window, seed, traced);
    let cpu_after = cpu_ticks();
    let serve_after = dep.server.stats();
    let client_after = dep.cluster.as_ref().map(|c| c.client.stats());
    WindowResult {
        window,
        steal_pct: cpu_before
            .zip(cpu_after)
            .map(|((s0, t0), (s1, t1))| (s1 - s0) as f64 * 100.0 / (t1 - t0).max(1) as f64),
        outs,
        serve: Counters::serve(&serve_before, &serve_after),
        client: client_before
            .zip(client_after)
            .map(|(b, a)| Counters::client(&b, &a)),
    }
}

/// Runs the windows on a set-up deployment, checks it, and derives the
/// metrics.
fn measure(
    cfg: &RunConfig,
    dep: &Deployment,
    writer: &mut Writer,
    windows: &[(Window, bool)],
    setup_s: &[f64],
) -> Result<Report, String> {
    let spec = cfg.workload.spec();
    let results: Vec<WindowResult> = windows
        .iter()
        .enumerate()
        .map(|(k, &(window, traced))| {
            run_counted(
                dep,
                writer,
                spec,
                window,
                cfg.seed ^ ((k as u64) << 32),
                traced,
            )
        })
        .collect();
    let mut checks = Checks::default();
    checks.run(dep, writer, &results);
    let probe = if cfg.trace {
        let p = layer_probe(&dep.base)?;
        if let Err(e) = p.matches_engine() {
            checks.fail(e);
        }
        Some(p)
    } else {
        None
    };

    let (attempted, failed, accounting) = accounting(&results);
    let metrics = if cfg.trace {
        let (untraced, traced) = (&results[0], &results[1]);
        let overhead = headline(cfg.workload, traced)? / headline(cfg.workload, untraced)? - 1.0;
        let probe = probe.as_ref().expect("traced runs probe");
        let tails = tails(&[untraced, traced], cfg.min_beyond)?;
        per_layer(dep, traced, probe, tails, overhead * 100.0)
    } else {
        end_to_end(&results[0], setup_s, peak_rss_mb()?, cfg.min_beyond)?
    };
    if let Some(path) = &cfg.trace_out {
        write_trace(path, &results)
            .map_err(|e| format!("writing spans to {}: {e}", path.display()))?;
    }
    Ok(Report {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        metrics,
        provenance: provenance(cfg, dep, &results, setup_s, &accounting, &checks),
        check_failures: checks.failures,
    })
}

/// One window's outputs and counter deltas.
struct WindowResult {
    window: Window,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the window (Linux guests only).
    steal_pct: Option<f64>,
    outs: Vec<ThreadOut>,
    serve: Counters,
    client: Option<Counters>,
}

/// Counter deltas over a window.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    direct_hits: u64,
    fanout_queries: u64,
    gather_retries: u64,
    escalations: u64,
    reconnects: u64,
    node_failures: u64,
    bytes_sent: u64,
    bytes_recv: u64,
}

impl Counters {
    fn serve(b: &lmm_serve::ServeStatsSnapshot, a: &lmm_serve::ServeStatsSnapshot) -> Self {
        Self {
            direct_hits: a.direct_hits - b.direct_hits,
            fanout_queries: a.fanout_queries - b.fanout_queries,
            gather_retries: a.gather_retries - b.gather_retries,
            escalations: a.gate_escalations - b.gate_escalations,
            ..Self::default()
        }
    }

    fn client(b: &lmm_cluster::ClientStats, a: &lmm_cluster::ClientStats) -> Self {
        Self {
            gather_retries: a.gather_retries - b.gather_retries,
            reconnects: a.reconnects - b.reconnects,
            node_failures: a.node_failures - b.node_failures,
            bytes_sent: a.bytes.0 - b.bytes.0,
            bytes_recv: a.bytes.1 - b.bytes.1,
            ..Self::default()
        }
    }
}

/// Correctness checks; each failure is kept, described.
#[derive(Debug, Default)]
struct Checks {
    failures: Vec<String>,
    l1_drift: Option<f64>,
    epoch_changes: usize,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    fn run(&mut self, dep: &Deployment, writer: &Writer, results: &[WindowResult]) {
        // Every response carries one epoch, and a published one.
        for r in results {
            for out in &r.outs {
                for &(epoch, _) in &out.epochs {
                    self.epoch_changes += 1;
                    if writer.published.binary_search(&epoch).is_err() {
                        self.fail(format!(
                            "a response carried epoch {epoch}, which was never published"
                        ));
                    }
                }
            }
        }
        if writer.worst_mass_error > MASS_BOUND {
            self.fail(format!(
                "rank mass drifted by {:e} after an update",
                writer.worst_mass_error
            ));
        }
        if writer.reference_mismatches > 0 {
            self.fail(format!(
                "{} reranks differed bitwise from the 1-thread reference",
                writer.reference_mismatches
            ));
        }
        if let Err(e) = dep.quiesce_check(writer) {
            self.fail(format!("at the final quiesce: {e}"));
        }
        if dep.workload.spec().update != UpdateKind::Rerank {
            match scratch_drift(writer) {
                Ok(l1) => {
                    self.l1_drift = Some(l1);
                    if l1 > DRIFT_BOUND {
                        self.fail(format!(
                            "incremental ranking is {l1:e} L1 from a from-scratch rank"
                        ));
                    }
                }
                Err(e) => self.fail(e),
            }
        }
    }
}

/// L1 distance between the writer's incremental ranking and a from-scratch
/// layered rank of its graph.
fn scratch_drift(writer: &Writer) -> Result<f64, String> {
    let mut scratch = engine(LAYERED, host_threads(), None)?;
    let fresh = scratch
        .rank(&writer.graph)
        .map_err(|e| format!("scratch rank: {e}"))?;
    let incremental = writer.engine.outcome().map_err(|e| e.to_string())?;
    Ok(vec_ops::l1_diff(
        incremental.ranking.scores(),
        fresh.ranking.scores(),
    ))
}

/// Query and publish accounting of every window.
#[derive(Debug, Default)]
struct Accounting {
    queries: u64,
    queries_failed: u64,
    publishes: u64,
    publishes_failed: u64,
}

fn accounting(results: &[WindowResult]) -> (u64, u64, Accounting) {
    let mut a = Accounting::default();
    for out in results.iter().flat_map(|r| &r.outs) {
        a.queries += out.queries.len() as u64;
        a.queries_failed += out.failed;
        a.publishes += out.updates.len() as u64;
        a.publishes_failed += out.updates.iter().filter(|u| u.error.is_some()).count() as u64;
    }
    (
        a.queries + a.publishes,
        a.queries_failed + a.publishes_failed,
        a,
    )
}

/// Sorted latencies (ns) of the point or gather queries of a window.
fn latencies(r: &WindowResult, point: bool) -> Vec<u64> {
    let mut v: Vec<u64> = r
        .outs
        .iter()
        .flat_map(|o| &o.queries)
        .filter(|q| q.point == point)
        .map(|q| q.latency_ns)
        .collect();
    v.sort_unstable();
    v
}

/// Freshness of every update (ns): from its due time to the first
/// response, on any load thread, at its epoch or a later one. An update
/// that failed, or whose epoch no response showed, is charged the window.
fn freshness(r: &WindowResult) -> Vec<u64> {
    let window_ns = r.window.length.as_nanos() as u64;
    let mut v: Vec<u64> = r
        .outs
        .iter()
        .flat_map(|o| &o.updates)
        .map(|u| {
            let Some(epoch) = u.epoch else {
                return window_ns;
            };
            r.outs
                .iter()
                .filter_map(|o| o.epochs.iter().find(|&&(e, _)| e >= epoch).map(|&(_, t)| t))
                .min()
                .map_or(window_ns, |t| t.saturating_sub(u.due_ns))
        })
        .collect();
    v.sort_unstable();
    v
}

fn rank_times(r: &WindowResult) -> Vec<f64> {
    r.outs
        .iter()
        .flat_map(|o| &o.updates)
        .filter(|u| u.error.is_none())
        .map(|u| u.rank_ns as f64)
        .collect()
}

fn pct(sorted: &[u64], q: f64, min_beyond: usize, what: &str) -> Result<f64, String> {
    percentile(sorted, q, min_beyond)
        .map(|v| v as f64)
        .ok_or_else(|| {
            format!(
                "{what}: {} samples are too few for p{}",
                sorted.len(),
                q * 100.0
            )
        })
}

fn end_to_end(
    r: &WindowResult,
    setup_s: &[f64],
    rss_mb: f64,
    min_beyond: usize,
) -> Result<Vec<Metric>, String> {
    let values = [
        median(setup_s).expect("set-up ran"),
        pct(&latencies(r, true), 0.5, min_beyond, "point")? / 1e3,
        pct(&latencies(r, false), 0.5, min_beyond, "gather")? / 1e3,
        pct(&freshness(r), 0.5, min_beyond, "fresh")? / 1e6,
        median(&rank_times(r)).ok_or("no update succeeded")? / 1e6,
        rss_mb,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect())
}

/// The tails of `windows` taken together: point p99 (us), gather p99 (us)
/// and fresh p90 (ms).
fn tails(windows: &[&WindowResult], min_beyond: usize) -> Result<[f64; 3], String> {
    let gathered = |f: &dyn Fn(&WindowResult) -> Vec<u64>| {
        let mut v: Vec<u64> = windows.iter().flat_map(|r| f(r)).collect();
        v.sort_unstable();
        v
    };
    Ok([
        pct(
            &gathered(&|r| latencies(r, true)),
            0.99,
            min_beyond,
            "point",
        )? / 1e3,
        pct(
            &gathered(&|r| latencies(r, false)),
            0.99,
            min_beyond,
            "gather",
        )? / 1e3,
        pct(&gathered(&freshness), 0.9, min_beyond, "fresh")? / 1e6,
    ])
}

/// The end-to-end metric the tracing overhead is measured on: the median
/// the workload's main layer moves.
fn headline(w: Workload, r: &WindowResult) -> Result<f64, String> {
    match w {
        Workload::ServeRead => pct(&latencies(r, true), 0.5, 0, "point"),
        Workload::ChurnFresh | Workload::Cluster => pct(&freshness(r), 0.5, 0, "fresh"),
        Workload::RankBatch => {
            median(&rank_times(r)).ok_or_else(|| "no update succeeded".to_string())
        }
    }
}

/// Median self time, in ns, of the spans named `name` (0 when the layer
/// was not called in this workload).
fn layer_ns(spans: &[(&[Span], Vec<u64>)], name: &str) -> f64 {
    let all: Vec<f64> = spans
        .iter()
        .flat_map(|(s, t)| self_times_of(s, t, name))
        .map(|t| t as f64)
        .collect();
    median(&all).unwrap_or(0.0)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Spans of a window's threads with their self times.
fn window_spans(r: &WindowResult) -> Vec<(&[Span], Vec<u64>)> {
    r.outs
        .iter()
        .map(|o| (o.spans.as_slice(), self_times(&o.spans)))
        .collect()
}

fn per_layer(
    dep: &Deployment,
    r: &WindowResult,
    probe: &Probe,
    tails: [f64; 3],
    overhead_pct: f64,
) -> Vec<Metric> {
    let spans = window_spans(r);
    let updates: Vec<_> = r
        .outs
        .iter()
        .flat_map(|o| &o.updates)
        .filter(|u| u.error.is_none())
        .collect();
    let telemetry = || updates.iter().filter_map(|u| u.telemetry.as_ref());
    let recomputed = mean(telemetry().map(|t| t.sites_recomputed as f64));
    let reused = mean(telemetry().map(|t| t.sites_reused as f64));
    let reports = || updates.iter().filter_map(|u| u.serve.as_ref());
    let queries: Vec<_> = r.outs.iter().flat_map(|o| &o.queries).collect();
    let per_gather = |x: u64| x as f64 / r.serve.fanout_queries.max(1) as f64;
    let per_query = |x: u64| x as f64 / queries.len().max(1) as f64;
    let client = r.client.unwrap_or_default();
    let rtt_us = dep.cluster.as_ref().map_or(0.0, |c| {
        median(
            &c.controller
                .stats()
                .nodes
                .iter()
                .map(|n| n.rtt_us as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    });
    let waits: Vec<f64> = queries
        .iter()
        .filter(|q| q.latency_ns < r.window.length.as_nanos() as u64)
        .map(|q| (q.latency_ns - q.service_ns.min(q.latency_ns)) as f64)
        .collect();
    let ms = |name| layer_ns(&spans, name) / 1e6;
    let us = |name| layer_ns(&spans, name) / 1e3;
    let values = [
        tails[0],
        tails[1],
        tails[2],
        ms("graph.apply"),
        ms("engine.apply_delta"),
        ms("engine.snapshot"),
        recomputed,
        reused,
        if recomputed + reused > 0.0 {
            reused / (recomputed + reused)
        } else {
            0.0
        },
        probe.siterank_ns / 1e6,
        probe.docrank_ns / 1e6,
        probe.site_iters as f64,
        probe.local_iters as f64,
        probe.max_local_iters as f64,
        probe.edge_visits as f64,
        probe.rank_1t_ns / 1e6,
        probe.rank_1t_ns / probe.rank_nt_ns,
        us("serve.point"),
        r.serve.direct_hits as f64,
        us("serve.gather"),
        r.serve.fanout_queries as f64,
        per_gather(r.serve.gather_retries),
        per_gather(r.serve.escalations),
        ms("serve.publish"),
        mean(reports().map(|p| p.shards_rebuilt as f64)),
        mean(reports().map(|p| p.shards_refreshed as f64)),
        mean(reports().map(|p| p.shards_repinned as f64)),
        ms("cluster.publish"),
        median(
            &updates
                .iter()
                .filter_map(|u| u.cluster_fanout_ms)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        rtt_us,
        ms("cluster.export_segment"),
        us("cluster.call"),
        per_query(client.bytes_sent),
        per_query(client.bytes_recv),
        client.gather_retries as f64,
        client.reconnects as f64,
        client.node_failures as f64,
        r.outs.iter().map(|o| o.lag_max_ns).max().unwrap_or(0) as f64 / 1e6,
        median(&waits).unwrap_or(0.0) / 1e3,
        overhead_pct,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// The SiteRank / DocRank split of one layered rank, through the public
/// calls the pipeline is built from, and the pool's 1-thread scaling.
#[derive(Debug, Clone)]
pub struct Probe {
    /// `ranking_site_graph` + `PageRank::run`.
    pub siterank_ns: f64,
    /// Every site's `site_subgraph` + `PageRank::run_adjacency`, serially.
    pub docrank_ns: f64,
    /// SiteRank power iterations.
    pub site_iters: usize,
    /// DocRank power iterations summed over sites.
    pub local_iters: usize,
    /// The largest per-site DocRank iteration count.
    pub max_local_iters: usize,
    /// Iterations times non-zeros of each matrix iterated (computed).
    pub edge_visits: u64,
    /// Median layered rank with `threads(1)`.
    pub rank_1t_ns: f64,
    /// Median layered rank with `threads(nproc)`.
    pub rank_nt_ns: f64,
    /// The engine's own counts for the same graph and config:
    /// `(site_iterations, total_local_iterations, max_local_iterations)`.
    pub engine_iters: (usize, usize, usize),
}

impl Probe {
    /// The split must count exactly the engine's iterations, or it does not
    /// measure the engine's work.
    ///
    /// # Errors
    /// The mismatch, described.
    pub fn matches_engine(&self) -> Result<(), String> {
        let split = (self.site_iters, self.local_iters, self.max_local_iters);
        if split == self.engine_iters {
            Ok(())
        } else {
            Err(format!(
                "layer split counted (site, local, max local) iterations {split:?}, the engine {:?}",
                self.engine_iters
            ))
        }
    }
}

/// Times the layers of a layered rank of `graph` (which must have no
/// tombstones, like the generated base graph).
///
/// # Errors
/// Ranking failures, rendered.
pub fn layer_probe(graph: &DocGraph) -> Result<Probe, String> {
    const REPEATS: usize = 3;
    let max_iters = ConvergencePolicy::default().max_iters;
    let mut tracer = Tracer::new(Instant::now(), true);

    let site = tracer.open("engine.siterank", None, 0);
    let site_graph = ranking_site_graph(graph, &SiteGraphOptions::default());
    let stochastic = site_graph.to_stochastic().map_err(|e| e.to_string())?;
    let mut pr = PageRank::new();
    pr.damping(DAMPING).tol(TOL).max_iters(max_iters);
    let site_result = pr.run(&stochastic).map_err(|e| e.to_string())?;
    tracer.close(site);
    let site_iters = site_result.report.iterations;
    let mut edge_visits = (site_iters * stochastic.matrix().nnz()) as u64;

    let doc = tracer.open("engine.docrank", None, 0);
    let (mut local_iters, mut max_local_iters) = (0, 0);
    for s in 0..graph.n_sites() {
        let sub = graph.site_subgraph(SiteId(s));
        let nnz = sub.adjacency.nnz();
        let r = pr.run_adjacency(sub.adjacency).map_err(|e| e.to_string())?;
        local_iters += r.report.iterations;
        max_local_iters = max_local_iters.max(r.report.iterations);
        edge_visits += (r.report.iterations * nnz) as u64;
    }
    tracer.close(doc);

    let sink = Arc::new(MemorySink::new());
    for _ in 0..REPEATS {
        tracer.span("par.rank_1t", None, 0, || {
            engine(LAYERED, 1, None)?
                .rank(graph)
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        let mut nt = engine(LAYERED, host_threads(), Some(sink.clone()))?;
        tracer.span("par.rank_nt", None, 0, || {
            nt.rank(graph).map(|_| ()).map_err(|e| e.to_string())
        })?;
    }
    let t = sink
        .runs()
        .first()
        .cloned()
        .ok_or("the probe's engine reported no run")?;
    let spans = tracer.into_spans();
    let selfs = self_times(&spans);
    let med = |name| {
        median(
            &self_times_of(&spans, &selfs, name)
                .iter()
                .map(|&t| t as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    Ok(Probe {
        siterank_ns: med("engine.siterank"),
        docrank_ns: med("engine.docrank"),
        site_iters,
        local_iters,
        max_local_iters,
        edge_visits,
        rank_1t_ns: med("par.rank_1t"),
        rank_nt_ns: med("par.rank_nt"),
        engine_iters: (
            t.site_iterations,
            t.total_local_iterations,
            t.max_local_iterations,
        ),
    })
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// `cpu` line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn write_trace(path: &std::path::Path, results: &[WindowResult]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in results {
        for (t, o) in r.outs.iter().enumerate() {
            write_spans(&mut out, t, &o.spans)?;
        }
    }
    Ok(())
}

fn provenance(
    cfg: &RunConfig,
    dep: &Deployment,
    results: &[WindowResult],
    setup_s: &[f64],
    a: &Accounting,
    checks: &Checks,
) -> String {
    let spec = cfg.workload.spec();
    let measured = &results[0];
    let n_queries: usize = measured.outs.iter().map(|o| o.queries.len()).sum();
    let resolution_us = measured.window.length.as_secs_f64() * 1e6 / n_queries.max(1) as f64;
    let mut p = String::from("{\"provenance\": {");
    let _ = write!(
        p,
        "\"workload\": {}, \"why\": {}, \"seed\": {}, \"host_threads\": {}, \"trace\": {}, \"seconds\": {}, ",
        json_str(cfg.workload.name()),
        json_str(cfg.workload.why()),
        cfg.seed,
        host_threads(),
        cfg.trace,
        cfg.seconds
    );
    let _ = write!(
        p,
        "\"graph\": {{\"docs\": {}, \"sites\": {}, \"links\": {}}}, \"shards\": {}, \"cluster_nodes\": {}, ",
        dep.base.n_docs(),
        dep.base.n_sites(),
        dep.base.n_links(),
        crate::workload::N_SHARDS,
        if dep.cluster.is_some() { crate::workload::N_NODES } else { 0 }
    );
    let _ = write!(
        p,
        "\"rates_hz\": {{\"point\": {}, \"gather\": {}, \"update\": {}}}, \"split_reads\": {}, \"update\": {}, \"delta_cadence_ms\": {}, ",
        spec.rates.point_hz,
        spec.rates.gather_hz,
        spec.rates.update_hz,
        spec.split_reads,
        json_str(&format!("{:?}", spec.update)),
        1e3 / spec.rates.update_hz
    );
    let tails = tails(&[measured], cfg.min_beyond).map_or_else(
        |_| "null".to_string(),
        |[p, g, f]| {
            format!("{{\"point_p99_us\": {p}, \"gather_p99_us\": {g}, \"fresh_p90_ms\": {f}}}")
        },
    );
    let _ = write!(p, "\"tails\": {tails}, ");
    let steal: Vec<String> = results
        .iter()
        .map(|r| {
            r.steal_pct
                .map_or("null".to_string(), |v| format!("{v:.2}"))
        })
        .collect();
    let _ = write!(p, "\"host_steal_pct\": [{}], ", steal.join(", "));
    let _ = write!(
        p,
        "\"fresh_probe_resolution_us\": {resolution_us}, \"setup_s\": {setup_s:?}, \
         \"queries\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}, \
         \"publishes\": {{\"attempted\": {}, \"succeeded\": {}, \"failed\": {}}}, \"failed_frac\": {}, ",
        a.queries,
        a.queries - a.queries_failed,
        a.queries_failed,
        a.publishes,
        a.publishes - a.publishes_failed,
        a.publishes_failed,
        (a.queries_failed + a.publishes_failed) as f64 / (a.queries + a.publishes).max(1) as f64
    );
    let errors: Vec<String> = results
        .iter()
        .flat_map(|r| &r.outs)
        .flat_map(|o| {
            o.errors
                .iter()
                .cloned()
                .chain(o.updates.iter().filter_map(|u| u.error.clone()))
        })
        .take(10)
        .map(|e| json_str(&e))
        .collect();
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(
        p,
        "\"checks\": {{\"epoch_changes\": {}, \"l1_drift\": {}, \"failures\": [{}]}}, \"errors\": [{}], \
         \"computed\": [\"linalg.edge_visits\"]}}}}",
        checks.epoch_changes,
        checks.l1_drift.map_or("null".to_string(), |d| format!("{d:e}")),
        failures.join(", "),
        errors.join(", ")
    );
    p
}
