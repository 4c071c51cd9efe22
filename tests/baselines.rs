//! Baseline algorithms (HITS, BlockRank) against the layered method on the
//! campus web — the comparisons behind experiment E8.

use lmm::core::siterank::{flat_pagerank, layered_doc_rank, LayeredRankConfig};
use lmm::graph::generator::CampusWebConfig;
use lmm::linalg::{vec_ops, PowerOptions};
use lmm::rank::blockrank::blockrank;
use lmm::rank::hits::{hits, HitsConfig};
use lmm::rank::metrics;
use lmm::rank::pagerank::PageRankConfig;

fn campus() -> lmm::graph::DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.total_docs = 1_200;
    cfg.n_sites = 24;
    cfg.generate().expect("campus web")
}

#[test]
fn blockrank_refinement_recovers_flat_pagerank() {
    // BlockRank is an acceleration of flat PageRank: its warm-started
    // refinement must land on the same fixed point.
    let graph = campus();
    let labels: Vec<usize> = graph.site_assignments().iter().map(|s| s.index()).collect();
    let block = blockrank(
        &graph.to_csr(),
        &labels,
        graph.n_sites(),
        &PageRankConfig::default(),
    )
    .expect("blockrank");
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-12), 0).expect("flat");
    assert!(vec_ops::l1_diff(block.refined.ranking.scores(), flat.ranking.scores()) < 1e-8);
}

#[test]
fn blockrank_approximation_correlates_with_layered() {
    // Both aggregate at site granularity, so the stage-3 approximation
    // should correlate positively with the layered ranking.
    let graph = campus();
    let labels: Vec<usize> = graph.site_assignments().iter().map(|s| s.index()).collect();
    let block = blockrank(
        &graph.to_csr(),
        &labels,
        graph.n_sites(),
        &PageRankConfig::default(),
    )
    .expect("blockrank");
    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    let tau = metrics::kendall_tau(&block.approximation, &layered.global);
    assert!(tau > 0.2, "tau = {tau}");
}

#[test]
fn hits_authorities_are_hijacked_by_the_farm() {
    // The tightly-knit-community effect: HITS falls for the densely
    // interlinked farm even harder than PageRank — the instability the
    // paper cites when dismissing HITS.
    let graph = campus();
    let h = hits(&graph.to_csr(), &HitsConfig::default()).expect("hits");
    let spam_share = metrics::labeled_share_at_k(&h.authorities, &graph.spam_labels(), 15);
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    let pr_share = metrics::labeled_share_at_k(&flat.ranking, &graph.spam_labels(), 15);
    assert!(
        spam_share >= pr_share,
        "HITS spam share {spam_share} should be at least PageRank's {pr_share}"
    );
}

#[test]
fn layered_beats_all_baselines_on_spam_resistance() {
    let graph = campus();
    let spam = graph.spam_labels();
    let labels: Vec<usize> = graph.site_assignments().iter().map(|s| s.index()).collect();
    let k = 15;

    let layered = layered_doc_rank(&graph, &LayeredRankConfig::default()).expect("layered");
    let flat = flat_pagerank(&graph, 0.85, &PowerOptions::with_tol(1e-10), 0).expect("flat");
    let h = hits(&graph.to_csr(), &HitsConfig::default()).expect("hits");
    let block = blockrank(
        &graph.to_csr(),
        &labels,
        graph.n_sites(),
        &PageRankConfig::default(),
    )
    .expect("blockrank");

    let layered_share = metrics::labeled_share_at_k(&layered.global, &spam, k);
    for (name, share) in [
        (
            "pagerank",
            metrics::labeled_share_at_k(&flat.ranking, &spam, k),
        ),
        (
            "hits",
            metrics::labeled_share_at_k(&h.authorities, &spam, k),
        ),
        (
            "blockrank refined",
            metrics::labeled_share_at_k(&block.refined.ranking, &spam, k),
        ),
    ] {
        assert!(
            layered_share <= share,
            "{name}: layered {layered_share} should not exceed {share}"
        );
    }
}
