//! Experiment PR12: open-loop query latency of the serving tier, with
//! every response checked against the epoch it claims.
//!
//! A closed-loop generator (`exp_serve`) back-pressures itself: when a
//! swap stalls the server, the generator stops sending, and the stall
//! disappears from the numbers (coordinated omission). This bench is
//! **open-loop in virtual time**: a deterministic splitmix64 schedule
//! draws exponential inter-arrival gaps for a fixed arrival rate, the
//! generator issues queries back-to-back measuring each one's *real*
//! service time, and latency comes from the single-server queue
//! recurrence `depart_i = max(arrival_i, depart_{i-1}) + service_i` —
//! a query's latency is `depart_i - arrival_i`, so queueing delay
//! behind a slow response is charged to the responses that caused it.
//! (Pacing with wall-clock sleeps instead would hand the measurement to
//! the host scheduler: on a small box the sleep/spin pattern of the
//! generator itself decides which run gets starved around a publish,
//! drowning the path under test. The virtual queue keeps the schedule
//! exact and the generator's CPU profile identical across runs.) The
//! virtual backlog `depart_{i-1} - arrival_i` is bounded
//! (`BACKLOG_CAP`): a run more than the cap behind re-anchors its
//! schedule and counts a clamp, so a saturated path terminates with its
//! tail pinned at the cap instead of compounding forever.
//!
//! Each run replays the same schedule against a fresh server while a
//! publisher thread hot-swaps the next snapshot each time the arrival
//! stream crosses an even query-count threshold; samples overlapping a
//! publish are tagged so swap-induced tail shows up separately. Every
//! response is checked, outside its timed service, against the answer
//! its claimed epoch was published with: a payload that matches no
//! single epoch is a **torn** response.
//!
//! The gates: in every run, no response is torn and no read retried or
//! took the publish gate; in every full run, the global `top_k` p99 is
//! at most twice the point-query p99 (a cross-shard gather costs a merge
//! of precomputed partials, not a fan-out). Per query kind the bench
//! reports p50/p90/p99/p999 (exact, from sorted samples) as the min,
//! median and max over the runs.
//!
//! Writes `BENCH_pr12.json` (`--smoke` writes `BENCH_pr12_smoke.json`
//! for CI so the committed measurements are never clobbered).
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_latency`

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lmm_bench::{section, timed};
use lmm_engine::{BackendSpec, RankEngine, RankSnapshot};
use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, DocId, SiteId};
use lmm_serve::{ServeConfig, ShardedServer};

const OUT_PATH: &str = "BENCH_pr12.json";
const SMOKE_OUT_PATH: &str = "BENCH_pr12_smoke.json";
/// Max virtual-time backlog (`depart_{i-1} - arrival_i`) before the
/// schedule re-anchors: queueing delay is measured up to this bound,
/// then clamped (and counted), so a saturated path reports a tail pinned
/// at the cap instead of a runaway queue.
const BACKLOG_CAP: Duration = Duration::from_millis(200);
const TOP_K: usize = 10;
const SITE_K: usize = 5;
const BATCH_LEN: usize = 4;
/// The gate: global `top_k` p99 may be at most this many point p99s.
const GATHER_OVER_POINT_MAX: f64 = 2.0;

/// Deterministic splitmix64: the arrival schedule and query mix are a
/// pure function of the seed, so every run replays the identical load.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
    }
    fn below(&mut self, m: usize) -> usize {
        (self.next_u64() % m as u64) as usize
    }
}

/// The query kinds, with their JSON names and whether they are point
/// queries (one shard answers). `top_k` is the cross-shard gather.
const KINDS: [(&str, bool); 5] = [
    ("score", true),
    ("batch", true),
    ("site_top_k", true),
    ("compare", true),
    ("top_k", false),
];
const N_KINDS: usize = KINDS.len();
const TOP_K_KIND: usize = 4;

/// One measured arrival: nanoseconds from scheduled virtual arrival to
/// completion, and whether it overlapped a publish.
type Sample = (u64, bool);

/// One published epoch: its snapshot and the global top-k the engine
/// cache served for it.
struct Published {
    snapshot: RankSnapshot,
    top: Vec<(DocId, f64)>,
}

struct RunResult {
    samples: [Vec<Sample>; N_KINDS],
    backlog_clamps: u64,
    max_lag: Duration,
    wall: Duration,
    torn: u64,
    direct_hits: u64,
    fanout_queries: u64,
    gather_retries: u64,
    gate_escalations: u64,
}

impl RunResult {
    /// Sorted latencies of the kinds selected by `point`.
    fn ns_sorted(&self, point: bool) -> Vec<u64> {
        let mut all: Vec<u64> = KINDS
            .iter()
            .enumerate()
            .filter(|(_, (_, p))| *p == point)
            .flat_map(|(k, _)| self.samples[k].iter().map(|&(ns, _)| ns))
            .collect();
        all.sort_unstable();
        all
    }

    fn kind_sorted(&self, kind: usize) -> Vec<u64> {
        let mut ns: Vec<u64> = self.samples[kind].iter().map(|&(ns, _)| ns).collect();
        ns.sort_unstable();
        ns
    }

    fn point_p99_us(&self) -> f64 {
        pctl(&self.ns_sorted(true), 0.99) as f64 / 1e3
    }

    fn top_k_p99_us(&self) -> f64 {
        pctl(&self.ns_sorted(false), 0.99) as f64 / 1e3
    }
}

/// Exact quantile over a sorted sample set (nearest-rank).
fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `(min, median, max)` of a set of per-run values.
fn spread(mut values: Vec<f64>) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let median = if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    };
    (values[0], median, values[n - 1])
}

fn spread_json(values: Vec<f64>) -> String {
    let (min, median, max) = spread(values);
    format!("{{\"min\": {min:.1}, \"median\": {median:.1}, \"max\": {max:.1}}}")
}

/// Sites with at least `BATCH_LEN` docs, with their first docs — the
/// single-shard batch and co-sharded compare populations.
fn batch_sites(graph: &DocGraph) -> Vec<(SiteId, Vec<DocId>)> {
    (0..graph.n_sites())
        .map(SiteId)
        .filter(|&s| graph.site_size(s) >= BATCH_LEN)
        .map(|s| {
            let docs = graph.docs_of_site(s)[..BATCH_LEN].to_vec();
            (s, docs)
        })
        .collect()
}

/// An intra-site rewire plus one grown page: publishes stay cheap (graded
/// rebuilds, no tombstones) so the swap window, not the rebuild, is what
/// the tagged samples measure.
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
    let target = SiteId((step * 5 + 1) % n_sites);
    let root = graph.docs_of_site(target)[0];
    let p = delta
        .add_page(target, &format!("http://latency-grow-{step}.page/"))
        .expect("existing site");
    delta.add_link(root, p).expect("in range");
    delta.add_link(p, root).expect("in range");
    delta
}

/// What one response carried, for the post-service check.
enum Answer {
    Scores(Vec<DocId>, Vec<f64>),
    Order(DocId, DocId, std::cmp::Ordering),
    Entries(Vec<(DocId, f64)>),
    Top(Vec<(DocId, f64)>),
}

/// `true` when `answer` is exactly what `epoch` was published with.
fn matches_epoch(published: &Published, answer: &Answer) -> bool {
    let scores = published.snapshot.scores();
    let bits = |d: DocId| scores[d.index()].to_bits();
    match answer {
        Answer::Scores(docs, got) => docs.iter().zip(got).all(|(&d, s)| bits(d) == s.to_bits()),
        Answer::Order(a, b, order) => {
            let want = scores[a.index()]
                .total_cmp(&scores[b.index()])
                .then(b.cmp(a));
            *order == want
        }
        Answer::Entries(entries) => entries.iter().all(|&(d, s)| bits(d) == s.to_bits()),
        Answer::Top(top) => *top == published.top,
    }
}

/// One open-loop run: replay the arrival schedule drawn from `seed`
/// against a fresh server over the first published epoch, while a
/// publisher thread swaps in the rest at even query-count thresholds.
fn run_once(
    base: &DocGraph,
    published: &[Published],
    n_shards: usize,
    rate_hz: f64,
    arrivals: usize,
    seed: u64,
) -> RunResult {
    let map = ShardMap::balanced(base, n_shards).expect("shard map");
    let server = Arc::new(
        ShardedServer::start(map, &published[0].snapshot, ServeConfig { heap_k: 128 })
            .expect("server start"),
    );
    let first_epoch = published[0].snapshot.epoch();

    // Publisher: swap in the next snapshot each time the generator's
    // progress crosses an even query-count threshold, raising the swap
    // flag around each publish so overlapping samples get tagged. The
    // publish itself runs concurrently with the query stream — its CPU
    // contention lands in the measured service times, as it would in
    // production.
    let swap_flag = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicUsize::new(0));
    let publisher = {
        let server = Arc::clone(&server);
        let swap_flag = Arc::clone(&swap_flag);
        let progress = Arc::clone(&progress);
        let snaps: Vec<RankSnapshot> = published[1..].iter().map(|p| p.snapshot.clone()).collect();
        let stride = arrivals / (snaps.len() + 1);
        std::thread::spawn(move || {
            for (k, snap) in snaps.iter().enumerate() {
                let threshold = (k + 1) * stride;
                while progress.load(Ordering::SeqCst) < threshold {
                    std::thread::sleep(Duration::from_micros(500));
                }
                swap_flag.store(true, Ordering::SeqCst);
                server.publish(snap).expect("publish");
                swap_flag.store(false, Ordering::SeqCst);
            }
        })
    };

    let sites = batch_sites(base);
    assert!(!sites.is_empty(), "graph has no batch-sized sites");
    let n_docs = base.n_docs();
    let mut rng = SplitMix::new(seed);
    let mut samples: [Vec<Sample>; N_KINDS] = std::array::from_fn(|_| Vec::new());
    let mut backlog_clamps = 0u64;
    let mut torn = 0u64;
    let mut max_lag = Duration::ZERO;
    let cap_ns = BACKLOG_CAP.as_nanos() as u64;
    let mut sched_ns = 0u64; // virtual arrival clock
    let mut shift_ns = 0u64; // backlog re-anchor accumulator
    let mut depart_ns = 0u64; // virtual departure of the previous query

    let start = Instant::now();
    for i in 0..arrivals {
        let gap = -(1.0 - rng.next_f64()).ln() / rate_hz;
        sched_ns += (gap * 1e9) as u64;
        let mut arrival_ns = sched_ns + shift_ns;
        let backlog = depart_ns.saturating_sub(arrival_ns);
        if backlog > cap_ns {
            // Re-anchor: charge this (and implicitly every queued
            // arrival) at most the cap, and slide the rest of the
            // schedule forward so the backlog stays bounded.
            shift_ns += backlog - cap_ns;
            arrival_ns = sched_ns + shift_ns;
            backlog_clamps += 1;
            max_lag = max_lag.max(BACKLOG_CAP);
        } else {
            max_lag = max_lag.max(Duration::from_nanos(backlog));
        }

        let kind;
        let issued = Instant::now();
        let swap_before = swap_flag.load(Ordering::SeqCst);
        let (epoch, answer) = match rng.below(100) {
            0..=39 => {
                kind = 0; // score
                let doc = DocId(rng.below(n_docs));
                let (epoch, score) = server.score(doc).expect("score");
                (epoch, Answer::Scores(vec![doc], vec![score]))
            }
            40..=59 => {
                kind = 1; // single-shard batch
                let (_, docs) = &sites[rng.below(sites.len())];
                let (epoch, scores) = server.score_batch(docs).expect("batch");
                (epoch, Answer::Scores(docs.clone(), scores))
            }
            60..=74 => {
                kind = 2; // site top-k
                let (site, _) = sites[rng.below(sites.len())];
                let (epoch, entries) = server.top_k_for_site(site, SITE_K).expect("site top_k");
                (epoch, Answer::Entries(entries))
            }
            75..=89 => {
                kind = 3; // co-sharded compare
                let (_, docs) = &sites[rng.below(sites.len())];
                let (epoch, order) = server.compare(docs[0], docs[1]).expect("compare");
                (epoch, Answer::Order(docs[0], docs[1], order))
            }
            _ => {
                kind = TOP_K_KIND; // cross-shard top-k
                let (epoch, top) = server.top_k(TOP_K).expect("top_k");
                (epoch, Answer::Top(top))
            }
        };
        let service_ns = issued.elapsed().as_nanos() as u64;
        let during_swap = swap_before || swap_flag.load(Ordering::SeqCst);
        let claimed = epoch
            .checked_sub(first_epoch)
            .and_then(|i| published.get(i as usize))
            .unwrap_or_else(|| panic!("response claimed unpublished epoch {epoch}"));
        if !matches_epoch(claimed, &answer) {
            torn += 1;
        }
        // Lindley recursion: the query starts when it arrives or when
        // the previous one departs, whichever is later; its latency is
        // queueing delay plus its own measured service time.
        depart_ns = arrival_ns.max(depart_ns) + service_ns;
        samples[kind].push((depart_ns - arrival_ns, during_swap));
        progress.store(i + 1, Ordering::SeqCst);
    }
    let wall = start.elapsed();
    publisher.join().expect("publisher panicked");

    let stats = server.stats();
    assert_eq!(
        stats.publishes as usize,
        published.len() - 1,
        "publisher fell behind its snapshot sequence"
    );
    RunResult {
        samples,
        backlog_clamps,
        max_lag,
        wall,
        torn,
        direct_hits: stats.direct_hits,
        fanout_queries: stats.fanout_queries,
        gather_retries: stats.gather_retries,
        gate_escalations: stats.gate_escalations,
    }
}

fn print_run(run: usize, r: &RunResult) {
    println!(
        "\n[run {run}] wall {:.2?}, direct {} / fanout {}, {} backlog clamps \
         (max lag {:.1?}), {} torn, {} retries, {} gate escalations",
        r.wall,
        r.direct_hits,
        r.fanout_queries,
        r.backlog_clamps,
        r.max_lag,
        r.torn,
        r.gather_retries,
        r.gate_escalations,
    );
    println!(
        "{:>12} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "kind", "n", "p50", "p90", "p99", "p999", "swap n/p99"
    );
    for (k, (kind_name, _)) in KINDS.iter().enumerate() {
        let ns = r.kind_sorted(k);
        let mut swap_ns: Vec<u64> = r.samples[k]
            .iter()
            .filter(|&&(_, during)| during)
            .map(|&(ns, _)| ns)
            .collect();
        swap_ns.sort_unstable();
        let us = |v: u64| v as f64 / 1e3;
        println!(
            "{:>12} {:>7} {:>8.1}u {:>8.1}u {:>8.1}u {:>8.1}u {:>4}/{:.1}u",
            kind_name,
            ns.len(),
            us(pctl(&ns, 0.50)),
            us(pctl(&ns, 0.90)),
            us(pctl(&ns, 0.99)),
            us(pctl(&ns, 0.999)),
            swap_ns.len(),
            us(pctl(&swap_ns, 0.99)),
        );
    }
    println!(
        "point p99 {:.1}us, top_k p99 {:.1}us ({:.2}x)",
        r.point_p99_us(),
        r.top_k_p99_us(),
        r.top_k_p99_us() / r.point_p99_us().max(1e-3),
    );
}

/// The per-kind percentiles as min/median/max over the runs.
fn kinds_json(runs: &[RunResult]) -> String {
    let mut out = String::new();
    for (k, (kind_name, point)) in KINDS.iter().enumerate() {
        let sorted: Vec<Vec<u64>> = runs.iter().map(|r| r.kind_sorted(k)).collect();
        let q = |q: f64| spread_json(sorted.iter().map(|ns| pctl(ns, q) as f64 / 1e3).collect());
        let swap_n: Vec<f64> = runs
            .iter()
            .map(|r| r.samples[k].iter().filter(|&&(_, d)| d).count() as f64)
            .collect();
        let _ = write!(
            out,
            "    \"{}\": {{\"n\": {}, \"point\": {}, \"p50_us\": {}, \"p90_us\": {}, \
             \"p99_us\": {}, \"p999_us\": {}, \"during_swap_n\": {}}}",
            kind_name,
            sorted[0].len(),
            point,
            q(0.50),
            q(0.90),
            q(0.99),
            q(0.999),
            spread_json(swap_n),
        );
        out.push_str(if k + 1 == N_KINDS { "\n" } else { ",\n" });
    }
    out
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The full-run rate loads a small host enough for queueing behind
    // slow responses to show in the tail; five runs give the spread the
    // committed file records. Smoke stays light so CI only checks the
    // machinery.
    let (rate_hz, arrivals, n_pubs, n_shards, runs) = if smoke {
        (1_500.0, 1_200usize, 2usize, 4usize, 2usize)
    } else {
        (25_000.0, 150_000usize, 12usize, 8usize, 5usize)
    };

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
        "Open-loop latency: {} docs, {} sites; {} shards, {:.0} arrivals/s x {} \
         ({} swaps per run, {} runs, backlog cap {:?})",
        base.n_docs(),
        base.n_sites(),
        n_shards,
        rate_hz,
        arrivals,
        n_pubs,
        runs,
        BACKLOG_CAP,
    ));

    // One ranked snapshot sequence, shared by every run: the engine work
    // happens once, and the runs differ only in scheduling noise.
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .build()?;
    let (result, warmup) = timed(|| engine.rank(&base).map(|_| ()));
    result?;
    println!("base rank (cold): {warmup:.2?}");
    let mut published = vec![Published {
        snapshot: engine.snapshot()?,
        top: engine.top_k(TOP_K)?,
    }];
    let mut current = base.clone();
    for step in 0..n_pubs {
        let delta = local_delta(&current, step);
        let (mutated, _) = current.apply(&delta)?;
        engine.apply_delta(&delta)?;
        published.push(Published {
            snapshot: engine.snapshot()?,
            top: engine.top_k(TOP_K)?,
        });
        current = mutated;
    }

    let seed = 0x10_AD;
    let mut results = Vec::with_capacity(runs);
    for run in 0..runs {
        let r = run_once(&base, &published, n_shards, rate_hz, arrivals, seed);
        print_run(run, &r);
        // Checked in every run, smoke included: one loaded set per
        // response leaves nothing to tear, retry or escalate.
        assert!(r.direct_hits > 0, "no query took the single-shard path");
        assert!(r.fanout_queries > 0, "no query gathered across shards");
        assert_eq!(r.torn, 0, "run {run}: torn responses");
        assert_eq!(r.gather_retries, 0, "run {run}: gathers retried");
        assert_eq!(r.gate_escalations, 0, "run {run}: reads took the gate");
        // The latency gate, on full runs only: smoke samples are too few
        // for a stable p99 on a loaded CI core.
        if !smoke {
            assert!(
                r.top_k_p99_us() <= GATHER_OVER_POINT_MAX * r.point_p99_us(),
                "run {run}: top_k p99 {:.1}us exceeds {GATHER_OVER_POINT_MAX}x point p99 {:.1}us",
                r.top_k_p99_us(),
                r.point_p99_us(),
            );
        }
        results.push(r);
    }

    let point_p99: Vec<f64> = results.iter().map(RunResult::point_p99_us).collect();
    let top_k_p99: Vec<f64> = results.iter().map(RunResult::top_k_p99_us).collect();
    let ratio: Vec<f64> = point_p99
        .iter()
        .zip(&top_k_p99)
        .map(|(p, t)| t / p.max(1e-3))
        .collect();
    let (_, ratio_median, ratio_max) = spread(ratio.clone());
    println!(
        "\nover {runs} runs: point p99 {}, top_k p99 {}, ratio median {ratio_median:.2} \
         max {ratio_max:.2}",
        spread_json(point_p99.clone()),
        spread_json(top_k_p99.clone()),
    );

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let total = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>();
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"exp_latency\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"docs\": {},", base.n_docs());
    let _ = writeln!(json, "  \"sites\": {},", base.n_sites());
    let _ = writeln!(json, "  \"n_shards\": {n_shards},");
    let _ = writeln!(json, "  \"arrival_rate_hz\": {rate_hz},");
    let _ = writeln!(json, "  \"arrivals_per_run\": {arrivals},");
    let _ = writeln!(json, "  \"swaps_per_run\": {n_pubs},");
    let _ = writeln!(json, "  \"runs\": {runs},");
    let _ = writeln!(json, "  \"backlog_cap_ms\": {},", BACKLOG_CAP.as_millis());
    let _ = writeln!(
        json,
        "  \"gate\": \"every run: top_k p99 <= {GATHER_OVER_POINT_MAX}x point p99 (full runs), \
         0 torn responses, 0 gather retries, 0 gate escalations\","
    );
    let _ = writeln!(json, "  \"torn_responses\": {},", total(|r| r.torn));
    let _ = writeln!(
        json,
        "  \"gather_retries\": {},",
        total(|r| r.gather_retries)
    );
    let _ = writeln!(
        json,
        "  \"gate_escalations\": {},",
        total(|r| r.gate_escalations)
    );
    let _ = writeln!(
        json,
        "  \"backlog_clamps\": {},",
        total(|r| r.backlog_clamps)
    );
    let _ = writeln!(
        json,
        "  \"direct_hits_per_run\": {},",
        results[0].direct_hits
    );
    let _ = writeln!(
        json,
        "  \"fanout_queries_per_run\": {},",
        results[0].fanout_queries
    );
    let _ = writeln!(
        json,
        "  \"wall_ms\": {},",
        spread_json(results.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect())
    );
    let _ = writeln!(json, "  \"point_p99_us\": {},", spread_json(point_p99));
    let _ = writeln!(json, "  \"top_k_p99_us\": {},", spread_json(top_k_p99));
    let _ = writeln!(
        json,
        "  \"top_k_over_point_p99\": {{\"min\": {:.2}, \"median\": {:.2}, \"max\": {:.2}}},",
        spread(ratio.clone()).0,
        ratio_median,
        ratio_max
    );
    let _ = writeln!(json, "  \"kinds\": {{");
    json.push_str(&kinds_json(&results));
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let out_path = if smoke { SMOKE_OUT_PATH } else { OUT_PATH };
    std::fs::write(out_path, json)?;
    println!("wrote {out_path}");
    Ok(())
}
