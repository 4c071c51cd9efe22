//! Experiments E8–E10: baselines and design-choice ablations.
//!
//! * E8 — BlockRank contrast (Section 3.2's discussion): rank agreement
//!   with the layered method and the serialized dependency structure;
//! * E9 — personalization at both layers (summary numbers; see also the
//!   `personalized_ranking` example);
//! * E10 — SiteGraph construction ablations: SiteLink weighting scheme,
//!   self-loop policy, and the damping/α sweep.
//!
//! Run: `cargo run --release -p lmm-bench --bin exp_ablation`

use lmm_bench::{experiment_engine, section, timed};
use lmm_core::personalize::PersonalizationBuilder;
use lmm_core::siterank::SiteLayerMethod;
use lmm_engine::{BackendSpec, RankEngine};
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sitegraph::{SiteGraphOptions, SiteLinkWeighting};
use lmm_graph::SiteId;
use lmm_rank::blockrank::blockrank;
use lmm_rank::hits::{hits, HitsConfig};
use lmm_rank::metrics;
use lmm_rank::pagerank::PageRankConfig;

const LAYERED: BackendSpec = BackendSpec::Layered {
    site_layer: SiteLayerMethod::PageRank,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = CampusWebConfig::paper_scale();
    cfg.total_docs = 12_000; // ablations sweep many variants; keep each cheap
    cfg.spam_farms[0].n_pages = 1_000;
    cfg.spam_farms[1].n_pages = 600;
    let graph = cfg.generate()?;
    let spam = graph.spam_labels();
    let baseline = experiment_engine(LAYERED)?.rank(&graph)?.clone();
    let flat = experiment_engine(BackendSpec::FlatPageRank)?
        .rank(&graph)?
        .clone();

    section("E8: BlockRank vs the layered method");
    let site_labels: Vec<usize> = graph.site_assignments().iter().map(|s| s.index()).collect();
    let adjacency = graph.to_csr();
    let (block, t_block) = timed(|| {
        blockrank(
            &adjacency,
            &site_labels,
            graph.n_sites(),
            &PageRankConfig::default(),
        )
    });
    let block = block?;
    println!("  BlockRank total time (serialized stages): {t_block:.2?}");
    println!(
        "  warm-started global refinement iterations: {}",
        block.warm_iterations
    );
    println!(
        "  tau(BlockRank approx, flat PageRank)  = {:.3}",
        metrics::kendall_tau(&block.approximation, &flat.ranking)
    );
    println!(
        "  tau(BlockRank approx, layered method) = {:.3}",
        metrics::kendall_tau(&block.approximation, &baseline.ranking)
    );
    println!(
        "  spam@15: BlockRank approx {:.0}%, refined {:.0}%, layered {:.0}%",
        100.0 * metrics::labeled_share_at_k(&block.approximation, &spam, 15),
        100.0 * metrics::labeled_share_at_k(&block.refined.ranking, &spam, 15),
        100.0 * metrics::labeled_share_at_k(&baseline.ranking, &spam, 15),
    );
    println!("  note: BlockRank's block weights need the local ranks first (serial);");
    println!("        the LMM SiteGraph uses raw link counts (parallel).");

    section("E8b: HITS baseline (authorities)");
    let h = hits(&adjacency, &HitsConfig::default())?;
    println!(
        "  spam@15 HITS authorities: {:.0}% (TKC effect; cf. the paper's HITS critique)",
        100.0 * metrics::labeled_share_at_k(&h.authorities, &spam, 15)
    );

    section("E9: personalization summary (site layer)");
    for (label, boost_site) in [("physics dept", 10usize), ("tail dept", 150usize)] {
        let v = PersonalizationBuilder::new(graph.n_sites())
            .baseline(0.4)
            .boost(boost_site, 1.0)
            .build()?;
        let mut engine = RankEngine::builder()
            .backend(LAYERED)
            .damping(0.85)
            .tolerance(1e-10)
            .site_personalization(v)
            .build()?;
        engine.rank(&graph)?;
        let neutral_site = baseline
            .site_score(SiteId(boost_site))?
            .expect("layered has a site layer");
        let boosted_site = engine
            .site_score(SiteId(boost_site))?
            .expect("layered has a site layer");
        println!(
            "  boost {label:<14} site rank {:.4} -> {:.4}; tau vs neutral {:.3}",
            neutral_site,
            boosted_site,
            metrics::kendall_tau(&baseline.ranking, &engine.outcome()?.ranking)
        );
    }

    section("E10a: SiteLink weighting ablation");
    println!(
        "{:>12} {:>14} {:>12} {:>12}",
        "weighting", "tau vs count", "spam@15", "top15 ovl"
    );
    for (name, weighting) in [
        ("count", SiteLinkWeighting::LinkCount),
        ("uniform", SiteLinkWeighting::Uniform),
        ("log", SiteLinkWeighting::LogCount),
    ] {
        let mut engine = RankEngine::builder()
            .backend(LAYERED)
            .damping(0.85)
            .tolerance(1e-10)
            .site_options(SiteGraphOptions {
                weighting,
                ..SiteGraphOptions::default()
            })
            .build()?;
        let r = engine.rank(&graph)?;
        println!(
            "{name:>12} {:>14.3} {:>11.0}% {:>11.0}%",
            metrics::kendall_tau(&baseline.ranking, &r.ranking),
            100.0 * metrics::labeled_share_at_k(&r.ranking, &spam, 15),
            100.0 * metrics::top_k_overlap(&baseline.ranking, &r.ranking, 15),
        );
    }

    section("E10b: self-loop policy");
    for include in [false, true] {
        let mut engine = RankEngine::builder()
            .backend(LAYERED)
            .damping(0.85)
            .tolerance(1e-10)
            .site_options(SiteGraphOptions {
                include_self_loops: include,
                ..SiteGraphOptions::default()
            })
            .build()?;
        let r = engine.rank(&graph)?;
        println!(
            "  self-loops {:<5} tau vs default {:.3}, spam@15 {:.0}%",
            include,
            metrics::kendall_tau(&baseline.ranking, &r.ranking),
            100.0 * metrics::labeled_share_at_k(&r.ranking, &spam, 15)
        );
    }

    section("E10c: damping sweep (both layers)");
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "damping", "PR spam@15", "LMM spam@15", "tau(PR,LMM)"
    );
    for f in [0.5, 0.7, 0.85, 0.95] {
        let mut flat_engine = RankEngine::builder()
            .backend(BackendSpec::FlatPageRank)
            .damping(f)
            .tolerance(1e-10)
            .build()?;
        let fr = flat_engine.rank(&graph)?.clone();
        let mut layered_engine = RankEngine::builder()
            .backend(LAYERED)
            .damping(f)
            .tolerance(1e-10)
            .build()?;
        let lr = layered_engine.rank(&graph)?;
        println!(
            "{f:>8} {:>13.0}% {:>13.0}% {:>12.3}",
            100.0 * metrics::labeled_share_at_k(&fr.ranking, &spam, 15),
            100.0 * metrics::labeled_share_at_k(&lr.ranking, &spam, 15),
            metrics::kendall_tau(&fr.ranking, &lr.ranking)
        );
    }
    Ok(())
}
