//! Experiment PR5: live graph mutation under a stream of structural deltas
//! — growth **and** removal — measured end to end through the engine *and*
//! the sharded serving tier.
//!
//! Drives the incremental engine backend through a churn stream on a
//! synthetic 100k-page campus web: every step builds a mixed
//! [`GraphDelta`] (intra-site rewires, cross links, page growth, whole new
//! sites, page removals, whole-site removals), applies it through
//! `RankEngine::apply_delta`, publishes the snapshot to a
//! [`ShardedServer`], and compares against a from-scratch layered run on
//! the mutated graph:
//!
//! * **correctness** — the incremental ranking must match the scratch
//!   ranking within a bounded L1 drift (warm starts trade bit-equality for
//!   convergence speed; the bound is far below the power tolerance's
//!   effect on ordering);
//! * **mass conservation** — after every removal the redistributed rank
//!   must still sum to 1 within 1e-9 (the dangling-style redistribution
//!   never leaks mass into tombstoned slots);
//! * **locality** — `UpdateStats` (via telemetry) must show that exactly
//!   the changed/grown/shrunk/added sites were recomputed and everything
//!   else was reused — the paper's Section 1.2 "localized change" claim
//!   measured;
//! * **shard accuracy** — every publish must rebuild exactly the shards
//!   the snapshot's staleness names (refreshing or re-pinning the rest),
//!   and tombstoned ids must answer the typed error;
//! * **speed** — incremental wall time vs scratch wall time per step.
//!
//! Writes `BENCH_pr5.json` (`--smoke` writes `BENCH_pr5_smoke.json` for
//! CI so the committed measurements are never clobbered).
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_churn`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use lmm_bench::{section, timed};
use lmm_core::siterank::SiteLayerMethod;
use lmm_engine::{BackendSpec, MemorySink, RankEngine, Staleness};
use lmm_graph::delta::{AppliedDelta, GraphDelta};
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sharding::ShardMap;
use lmm_graph::{DocGraph, SiteId};
use lmm_linalg::vec_ops;
use lmm_serve::{ServeConfig, ServeError, ShardedServer};

const OUT_PATH: &str = "BENCH_pr5.json";
const SMOKE_OUT_PATH: &str = "BENCH_pr5_smoke.json";
const N_SHARDS: usize = 8;

/// Warm-start drift bound: the power tolerance is 1e-10, so both sides sit
/// within ~1e-9 of the fixed point; 1e-6 leaves three orders of headroom
/// while still catching any real misalignment (which shows up at 1e-2+).
const DRIFT_BOUND: f64 = 1e-6;

struct StepRecord {
    step: usize,
    kind: String,
    docs: usize,
    live_docs: usize,
    sites: usize,
    live_sites: usize,
    apply: Duration,
    incremental: Duration,
    scratch: Duration,
    sites_recomputed: usize,
    sites_reused: usize,
    sites_removed: usize,
    shards_rebuilt: usize,
    shards_refreshed: usize,
    l1_drift: f64,
    mass_error: f64,
}

/// The `k`-th live site (cyclic) with at least `min_docs` live documents.
fn live_site_with(graph: &DocGraph, k: usize, min_docs: usize) -> SiteId {
    let n = graph.n_sites();
    (0..n)
        .map(|i| SiteId((k + i) % n))
        .find(|&s| graph.is_live_site(s) && graph.site_size(s) >= min_docs)
        .expect("churn never drains every site")
}

/// Builds the churn stream's delta for one step — deterministic, mixed,
/// and increasingly structural: every step rewires one site internally;
/// every 2nd grows a site; every 3rd adds a cross link; every 4th appends
/// a whole new site; every 5th removes a page (**shrink**); every 6th
/// tombstones a whole site (**drop-site**).
fn churn_delta(graph: &DocGraph, step: usize) -> (GraphDelta, String) {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    // Composite label: every mutation category in this step, in order.
    let mut kinds = vec!["rewire"];

    // Sites this step grows or shrinks: the drop-site pick below must not
    // collide with them (apply rejects removing a site it also edits).
    let mut touched: Vec<SiteId> = Vec::new();

    // Intra-site rewire in a rotating live site with at least 3 documents.
    let site = live_site_with(graph, step * 7 + 3, 3);
    touched.push(site);
    let docs = graph.docs_of_site(site);
    delta.remove_link(docs[0], docs[1]).expect("in range");
    delta.add_link(docs[1], docs[2]).expect("in range");
    delta.add_link(docs[2], docs[0]).expect("in range");

    if step.is_multiple_of(2) {
        kinds.push("grow");
        let target = live_site_with(graph, step * 5 + 1, 1);
        touched.push(target);
        let root = graph.docs_of_site(target)[0];
        for i in 0..2 {
            let p = delta
                .add_page(target, &format!("http://churn-grow-{step}-{i}.page/"))
                .expect("existing site");
            delta.add_link(root, p).expect("in range");
            delta.add_link(p, root).expect("in range");
        }
    }
    if step.is_multiple_of(3) {
        kinds.push("cross");
        let a = graph.docs_of_site(live_site_with(graph, step * 11 + 2, 1))[0];
        let b = graph.docs_of_site(live_site_with(graph, step * 13 + 5, 1))[0];
        delta.add_link(a, b).expect("in range");
    }
    if step % 4 == 3 {
        kinds.push("new-site");
        let s = delta.add_site(&format!("churn-{step}.example"));
        let mut pages = Vec::new();
        for i in 0..4 {
            pages.push(
                delta
                    .add_page(s, &format!("http://churn-{step}.example/{i}"))
                    .expect("new site"),
            );
        }
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1]).expect("in range");
        }
        delta.add_link(pages[3], pages[0]).expect("in range");
        let anchor = graph.docs_of_site(live_site_with(graph, step, 1))[0];
        delta.add_link(anchor, pages[0]).expect("in range");
        delta.add_link(pages[0], anchor).expect("in range");
    }
    if step % 5 == 4 {
        kinds.push("shrink");
        // Remove a non-root page from a comfortably sized live site.
        let target = live_site_with(graph, step * 17 + 7, 4);
        touched.push(target);
        let victim = graph.docs_of_site(target)[1];
        delta.remove_page(victim).expect("live page");
    }
    if step % 6 == 5 {
        kinds.push("drop-site");
        // Tombstone a rotating live site this step did not otherwise edit.
        let doomed = (0..n_sites)
            .map(|i| SiteId((step * 19 + 11 + i) % n_sites))
            .find(|&s| graph.is_live_site(s) && !touched.contains(&s))
            .expect("more than one live site");
        delta.remove_site(doomed).expect("live site");
    }
    (delta, kinds.join("+"))
}

fn expected_recomputed(mutated: &DocGraph, base_sites: usize, applied: &AppliedDelta) -> usize {
    let live_added = (base_sites..mutated.n_sites())
        .filter(|&s| mutated.is_live_site(SiteId(s)))
        .count();
    applied.changed_sites.len()
        + applied.grown_sites.len()
        + applied.shrunk_sites.len()
        + live_added
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let steps = if smoke { 7 } else { 14 };

    let mut cfg = CampusWebConfig::paper_scale();
    cfg.spam_farms.clear();
    cfg.seed = 11;
    if smoke {
        cfg.total_docs = 2_000;
        cfg.n_sites = 40;
    } else {
        cfg.total_docs = 100_000;
        cfg.n_sites = 400;
    }
    let base = cfg.generate()?;

    section(&format!(
        "Live graph mutation: {} docs, {} sites, {} links, {} churn steps (incl. removal)",
        base.n_docs(),
        base.n_sites(),
        base.n_links(),
        steps
    ));

    let sink = Arc::new(MemorySink::new());
    let mut engine = RankEngine::builder()
        .backend(BackendSpec::Incremental)
        .damping(0.85)
        .tolerance(1e-10)
        .telemetry(sink.clone())
        .build()?;
    let (_, warmup) = timed(|| engine.rank(&base).cloned());
    // The serving map is fixed at server start; expected shard counts below
    // must be computed against this same map.
    let map = ShardMap::balanced(&base, N_SHARDS)?;
    let server = ShardedServer::start(map.clone(), &engine.snapshot()?, ServeConfig::default())?;
    println!(
        "{:>5} {:>28} {:>10} {:>10} {:>9} {:>12} {:>7} {:>10}",
        "step", "kind", "incr", "scratch", "speedup", "recomputed", "shards", "l1 drift"
    );
    println!("base rank (cold): {warmup:.2?}; serving {N_SHARDS} shards");

    let mut current = base;
    let mut records: Vec<StepRecord> = Vec::new();
    for step in 0..steps {
        let (delta, kind) = churn_delta(&current, step);
        let base_sites = current.n_sites();
        // Timed separately: the graph-only patch cost, which the
        // copy-on-write link/URL/kind blocks and the patched SiteLink
        // counts keep proportional to what the delta touches.
        let (applied_pair, apply_wall) = timed(|| current.apply(&delta));
        let (mutated, applied) = applied_pair?;

        let before = sink.len();
        let (outcome, incr_wall) = timed(|| engine.apply_delta(&delta).cloned());
        let outcome = outcome?;

        // From-scratch reference on the mutated (tombstoned) graph — the
        // layered backend handles tombstones natively; a fresh engine so
        // the serving cache cannot shortcut it.
        let mut scratch_engine = RankEngine::builder()
            .backend(BackendSpec::Layered {
                site_layer: SiteLayerMethod::PageRank,
            })
            .damping(0.85)
            .tolerance(1e-10)
            .build()?;
        let (scratch, scratch_wall) = timed(|| scratch_engine.rank(&mutated).cloned());
        let scratch = scratch?;

        // Correctness: bounded drift at every step.
        let l1 = vec_ops::l1_diff(outcome.ranking.scores(), scratch.ranking.scores());
        assert!(
            l1 < DRIFT_BOUND,
            "step {step}: incremental drifted from scratch by {l1:.3e}"
        );
        // Mass conservation: removal redistributes, never leaks.
        let mass: f64 = outcome.ranking.scores().iter().sum();
        let mass_error = (mass - 1.0).abs();
        assert!(
            mass_error < 1e-9,
            "step {step}: rank mass {mass} is not conserved"
        );

        // Locality: telemetry UpdateStats match the induced delta exactly.
        let runs = sink.runs();
        assert_eq!(runs.len(), before + 1, "apply_delta must report one run");
        let telemetry = &runs[before];
        let expected = expected_recomputed(&mutated, base_sites, &applied);
        assert_eq!(
            telemetry.sites_recomputed, expected,
            "step {step}: recomputed {} sites, induced delta demands {expected}",
            telemetry.sites_recomputed
        );
        assert_eq!(
            telemetry.sites_reused,
            mutated.n_live_sites() - expected,
            "step {step}: reuse accounting is off"
        );
        assert_eq!(
            telemetry.sites_removed,
            applied.removed_sites.len(),
            "step {step}: removal accounting is off"
        );
        assert!(
            telemetry.sites_recomputed < mutated.n_live_sites(),
            "step {step}: churn must never degenerate into a full recompute"
        );

        // Shard accuracy: the publish must rebuild exactly the shards the
        // staleness names and refresh/re-pin the rest.
        let snapshot = engine.snapshot()?;
        let report = server.publish(&snapshot)?;
        let (expected_rebuilt, expected_refreshed) = match snapshot.staleness() {
            Staleness::Full => (N_SHARDS, 0),
            Staleness::Sites(sites) => (map.shards_of_sites(sites.iter().copied()).len(), 0),
            Staleness::Resized {
                sites,
                removed_sites,
            } => {
                let rebuilt = map
                    .shards_of_sites(sites.iter().chain(removed_sites).copied())
                    .len();
                (rebuilt, N_SHARDS - rebuilt)
            }
        };
        assert_eq!(
            (report.shards_rebuilt, report.shards_refreshed),
            (expected_rebuilt, expected_refreshed),
            "step {step}: publish did not match the staleness set"
        );
        // Tombstoned ids answer the typed error, never stale scores.
        if let Some(&dead) = applied.removed_docs.first() {
            assert!(
                matches!(server.score(dead), Err(ServeError::TombstonedDoc { .. })),
                "step {step}: tombstoned doc served"
            );
        }
        // And the serve tier agrees with the engine cache bitwise.
        let (epoch, top) = server.top_k(10)?;
        assert_eq!(epoch, snapshot.epoch());
        assert_eq!(top, engine.top_k(10)?, "step {step}: serve/engine split");

        let speedup = scratch_wall.as_secs_f64() / incr_wall.as_secs_f64().max(1e-9);
        println!(
            "{:>5} {:>28} {:>10.2?} {:>10.2?} {:>8.1}x {:>7}/{:<4} {:>3}+{:<3} {:>10.1e}",
            step,
            kind,
            incr_wall,
            scratch_wall,
            speedup,
            telemetry.sites_recomputed,
            mutated.n_live_sites(),
            report.shards_rebuilt,
            report.shards_refreshed,
            l1
        );
        records.push(StepRecord {
            step,
            kind,
            docs: mutated.n_docs(),
            live_docs: mutated.n_live_docs(),
            sites: mutated.n_sites(),
            live_sites: mutated.n_live_sites(),
            apply: apply_wall,
            incremental: incr_wall,
            scratch: scratch_wall,
            sites_recomputed: telemetry.sites_recomputed,
            sites_reused: telemetry.sites_reused,
            sites_removed: telemetry.sites_removed,
            shards_rebuilt: report.shards_rebuilt,
            shards_refreshed: report.shards_refreshed,
            l1_drift: l1,
            mass_error,
        });
        current = mutated;
    }

    let stats = server.stats();
    let json = render_json(&current, smoke, &records, stats.doc_skew());
    let out_path = if smoke { SMOKE_OUT_PATH } else { OUT_PATH };
    std::fs::write(out_path, json)?;
    let total_incr: Duration = records.iter().map(|r| r.incremental).sum();
    let total_scratch: Duration = records.iter().map(|r| r.scratch).sum();
    println!("\nwrote {out_path}");
    println!(
        "totals: incremental {total_incr:.2?} vs scratch {total_scratch:.2?} ({:.1}x); \
         every step matched scratch within {DRIFT_BOUND:.0e} L1, conserved mass to 1e-9, \
         and rebuilt exactly the stale shards (final doc skew {:.2})",
        total_scratch.as_secs_f64() / total_incr.as_secs_f64().max(1e-9),
        stats.doc_skew()
    );
    Ok(())
}

/// Hand-rolled JSON (the workspace is offline — no serde): one record per
/// churn step plus the final graph shape.
fn render_json(
    final_graph: &DocGraph,
    smoke: bool,
    records: &[StepRecord],
    doc_skew: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"exp_churn\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _ = writeln!(out, "  \"host_threads\": {host_threads},");
    let _ = writeln!(out, "  \"final_doc_slots\": {},", final_graph.n_docs());
    let _ = writeln!(out, "  \"final_live_docs\": {},", final_graph.n_live_docs());
    let _ = writeln!(out, "  \"final_site_slots\": {},", final_graph.n_sites());
    let _ = writeln!(
        out,
        "  \"final_live_sites\": {},",
        final_graph.n_live_sites()
    );
    let _ = writeln!(out, "  \"final_links\": {},", final_graph.n_links());
    let _ = writeln!(out, "  \"n_shards\": {N_SHARDS},");
    let _ = writeln!(out, "  \"final_doc_skew\": {doc_skew:.4},");
    let _ = writeln!(out, "  \"drift_bound\": {DRIFT_BOUND:e},");
    out.push_str("  \"steps\": [\n");
    for (i, r) in records.iter().enumerate() {
        let speedup = r.scratch.as_secs_f64() / r.incremental.as_secs_f64().max(1e-9);
        let _ = write!(
            out,
            "    {{\"step\": {}, \"kind\": \"{}\", \"docs\": {}, \"live_docs\": {}, \
             \"sites\": {}, \"live_sites\": {}, \
             \"apply_ms\": {:.3}, \
             \"incremental_ms\": {:.3}, \"scratch_ms\": {:.3}, \"speedup\": {:.2}, \
             \"sites_recomputed\": {}, \"sites_reused\": {}, \"sites_removed\": {}, \
             \"shards_rebuilt\": {}, \"shards_refreshed\": {}, \
             \"l1_drift\": {:.3e}, \"mass_error\": {:.3e}}}",
            r.step,
            r.kind,
            r.docs,
            r.live_docs,
            r.sites,
            r.live_sites,
            r.apply.as_secs_f64() * 1e3,
            r.incremental.as_secs_f64() * 1e3,
            r.scratch.as_secs_f64() * 1e3,
            speedup,
            r.sites_recomputed,
            r.sites_reused,
            r.sites_removed,
            r.shards_rebuilt,
            r.shards_refreshed,
            r.l1_drift,
            r.mass_error
        );
        out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
