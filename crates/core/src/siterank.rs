//! The Layered Method for DocRank (Section 3.2): SiteRank × local DocRank
//! over a real [`DocGraph`].
//!
//! Pipeline steps (numbered as in the paper):
//!
//! 1. the DocGraph is given;
//! 2. derive the SiteGraph with SiteLink counts;
//! 3. per site `s`, compute the local DocRank
//!    `π_D(s) = DocRank(M̂(G_d^s))` — classical PageRank on the intra-site
//!    subgraph (fully decentralizable);
//! 4. compute the SiteRank `π_S` = principal eigenvector of `M̂(G_S)`
//!    (PageRank of the SiteGraph, which is primitive by maximal
//!    irreducibility);
//! 5. the global DocRank is the weighted concatenation
//!    `DocRank(G_D) = (π_S(s_1)·π_D(s_1)ᵀ, …, π_S(s_N)·π_D(s_N)ᵀ)ᵀ`.
//!
//! Personalization (Section 3.2, last paragraphs) enters at step 3 (per-site
//! document preferences) and/or step 4 (site preferences).

use std::collections::HashMap;

use crate::error::{LmmError, Result};
use lmm_graph::docgraph::DocGraph;
use lmm_graph::ids::{DocId, SiteId};
use lmm_graph::sitegraph::{ranking_site_graph, SiteGraphOptions};
use lmm_linalg::{ConvergenceReport, CooMatrix, CsrMatrix, PowerOptions};
use lmm_par::ThreadPool;
use lmm_rank::pagerank::{PageRank, PageRankResult};
use lmm_rank::Ranking;

/// How the SiteRank vector `π_S` is computed at step 4.
///
/// `PageRank` is the paper's Web instantiation (Section 3.2): maximal
/// irreducibility applied to `M(G_S)`. `Stationary` is the raw stationary
/// distribution of `M(G_S)` — the Layered Method's Approach-4 site layer,
/// which by the Partition Theorem makes the composed DocRank equal the
/// stationary distribution of the layer-decomposable global chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteLayerMethod {
    /// Damped PageRank of the SiteGraph (the paper's default; supports
    /// site-layer personalization).
    #[default]
    PageRank,
    /// Raw stationary distribution of the SiteGraph transition matrix
    /// (requires a primitive SiteGraph; ignores personalization, which the
    /// un-damped chain cannot express).
    Stationary,
}

/// Configuration of the layered DocRank pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredRankConfig {
    /// Damping of the per-site local DocRank computations (step 3).
    pub local_damping: f64,
    /// Damping of the SiteRank computation (step 4).
    pub site_damping: f64,
    /// How the site layer is ranked (step 4).
    pub site_method: SiteLayerMethod,
    /// SiteGraph derivation options (step 2).
    pub site_options: SiteGraphOptions,
    /// Power-method budget shared by all computations.
    pub power: PowerOptions,
    /// Optional site-layer personalization vector (length = number of
    /// sites).
    pub site_personalization: Option<Vec<f64>>,
    /// Optional per-site document personalization vectors, keyed by site
    /// index; each vector is over the site's *local* document indices.
    pub local_personalization: HashMap<usize, Vec<f64>>,
    /// Worker threads for the per-site local DocRank fan-out (step 3) —
    /// `0` (the default) means one per available core. Each site's solve
    /// stays serial and writes only its own slot, so the composed ranking
    /// is **bit-identical for every thread count**; threads change wall
    /// time only.
    pub threads: usize,
}

impl Default for LayeredRankConfig {
    fn default() -> Self {
        Self {
            local_damping: 0.85,
            site_damping: 0.85,
            site_method: SiteLayerMethod::PageRank,
            site_options: SiteGraphOptions::default(),
            power: PowerOptions::with_tol(1e-10),
            site_personalization: None,
            local_personalization: HashMap::new(),
            threads: 0,
        }
    }
}

impl LayeredRankConfig {
    /// Configuration with both damping factors set to `f`.
    #[must_use]
    pub fn with_damping(f: f64) -> Self {
        Self {
            local_damping: f,
            site_damping: f,
            ..Self::default()
        }
    }
}

/// Output of the layered DocRank pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LayeredDocRank {
    /// SiteRank `π_S` over sites.
    pub site_rank: Ranking,
    /// Per-site local DocRanks `π_D(s)` (indexed by site, then local doc).
    pub local_ranks: Vec<Ranking>,
    /// The composed global DocRank over all documents (a probability
    /// distribution by Theorem 1).
    pub global: Ranking,
    /// Convergence of the SiteRank computation.
    pub site_report: ConvergenceReport,
    /// Total power iterations across all local DocRank computations (the
    /// decentralized work; each site's share runs independently).
    pub total_local_iterations: usize,
    /// The largest local iteration count — the critical-path length when
    /// all sites compute in parallel.
    pub max_local_iterations: usize,
}

impl LayeredDocRank {
    /// Global score of one document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn score(&self, doc: DocId) -> f64 {
        self.global.score(doc.index())
    }

    /// The `k` top-ranked documents.
    #[must_use]
    pub fn top_k(&self, k: usize) -> Vec<DocId> {
        self.global.top_k(k).into_iter().map(DocId).collect()
    }
}

/// The live-site restriction of the ranking SiteGraph: the ascending list
/// of live site slots plus the dense `k×k` weight matrix over them. On a
/// graph without tombstoned sites this is the identity restriction (every
/// slot, the full weight matrix).
///
/// Removal keeps site ids stable by tombstoning slots, but a stationary
/// computation over the slot space would leak teleport mass into dead,
/// linkless sites — so every site-layer solve runs over this restriction
/// and scatters the result back into the slot space (dead slots score 0).
pub(crate) fn live_site_chain(
    graph: &DocGraph,
    options: &SiteGraphOptions,
) -> (Vec<usize>, CsrMatrix) {
    let site_graph = ranking_site_graph(graph, options);
    let live: Vec<usize> = graph.live_sites().map(SiteId::index).collect();
    if live.len() == graph.n_sites() {
        return (live, site_graph.into_weights());
    }
    let mut dense_of: Vec<Option<usize>> = vec![None; graph.n_sites()];
    for (j, &s) in live.iter().enumerate() {
        dense_of[s] = Some(j);
    }
    let mut coo = CooMatrix::new(live.len(), live.len());
    for (j, &s) in live.iter().enumerate() {
        let (cols, vals) = site_graph.weights().row(s);
        for (&t, &w) in cols.iter().zip(vals) {
            if let Some(jt) = dense_of[t] {
                coo.push(j, jt, w);
            }
        }
    }
    (live, coo.to_csr())
}

/// Errors when a personalized configuration meets a graph with tombstoned
/// sites: the slot-indexed vectors have no meaning over a restricted live
/// chain, so the combination is rejected instead of silently re-weighted.
pub(crate) fn reject_personalization_on_tombstones(
    graph: &DocGraph,
    config: &LayeredRankConfig,
) -> Result<()> {
    if config.site_personalization.is_some() {
        return Err(LmmError::InvalidModel {
            reason: "site personalization is unsupported on a graph with tombstoned \
                     sites; compact_ids() first"
                .into(),
        });
    }
    if let Some(&s) = config
        .local_personalization
        .keys()
        .find(|&&s| !graph.is_live_site(SiteId(s)))
    {
        return Err(LmmError::InvalidModel {
            reason: format!("document personalization names tombstoned site {s}"),
        });
    }
    Ok(())
}

/// The layered pipeline over a graph with tombstoned sites: the site layer
/// runs on the live restriction and scatters back into the slot space;
/// dead slots keep zero rank and an empty local vector.
fn layered_doc_rank_tombstoned(
    graph: &DocGraph,
    config: &LayeredRankConfig,
) -> Result<LayeredDocRank> {
    reject_personalization_on_tombstones(graph, config)?;
    let (live, chain) = live_site_chain(graph, &config.site_options);
    if live.is_empty() {
        return Err(LmmError::InvalidModel {
            reason: "every site is tombstoned — nothing to rank".into(),
        });
    }
    let stochastic = lmm_linalg::StochasticMatrix::from_adjacency(chain)?;
    let (pi, site_report) = match config.site_method {
        SiteLayerMethod::PageRank => {
            let mut site_pr = PageRank::new();
            site_pr
                .damping(config.site_damping)
                .tol(config.power.tol)
                .max_iters(config.power.max_iters);
            let result = site_pr.run(&stochastic)?;
            (result.ranking.into_scores(), result.report)
        }
        SiteLayerMethod::Stationary => {
            lmm_linalg::power::stationary_distribution(stochastic.matrix(), &config.power)?
        }
    };
    let mut site_scores = vec![0.0f64; graph.n_sites()];
    for (j, &s) in live.iter().enumerate() {
        site_scores[s] = pi[j];
    }
    let site_rank = Ranking::from_scores(site_scores)?;

    let pool = ThreadPool::shared(config.threads);
    let solved = pool.par_map(&live, |_, &s| {
        let sub = graph.site_subgraph(SiteId(s));
        let mut pr = PageRank::new();
        pr.damping(config.local_damping)
            .tol(config.power.tol)
            .max_iters(config.power.max_iters);
        if let Some(v) = config.local_personalization.get(&s) {
            pr.personalization(v.clone());
        }
        pr.run_adjacency(sub.adjacency)
    });
    let mut local_ranks = vec![Ranking::empty(); graph.n_sites()];
    let mut total_local_iterations = 0usize;
    let mut max_local_iterations = 0usize;
    for (&s, result) in live.iter().zip(solved) {
        let result = result?;
        total_local_iterations += result.report.iterations;
        max_local_iterations = max_local_iterations.max(result.report.iterations);
        local_ranks[s] = result.ranking;
    }

    let mut scores = vec![0.0f64; graph.n_docs()];
    for (s, ranks) in local_ranks.iter().enumerate() {
        let weight = site_rank.score(s);
        let members = graph.docs_of_site(SiteId(s));
        for (local, doc) in members.iter().enumerate() {
            scores[doc.index()] = weight * ranks.score(local);
        }
    }
    let global = Ranking::from_scores(scores)?;
    Ok(LayeredDocRank {
        site_rank,
        local_ranks,
        global,
        site_report,
        total_local_iterations,
        max_local_iterations,
    })
}

/// Runs the full layered DocRank pipeline (Section 3.2) on a document
/// graph. Tombstoned sites (if any) keep zero rank and an empty local
/// vector; the surviving sites' scores still form a distribution.
///
/// # Errors
/// Propagates PageRank failures (non-convergence, invalid personalization
/// vectors) from either layer; rejects personalization on a graph with
/// tombstoned sites.
///
/// # Example
/// ```
/// use lmm_core::siterank::{layered_doc_rank, LayeredRankConfig};
/// use lmm_graph::generator::CampusWebConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut cfg = CampusWebConfig::small();
/// cfg.total_docs = 600;
/// cfg.n_sites = 12;
/// cfg.spam_farms.clear();
/// let graph = cfg.generate()?;
/// let result = layered_doc_rank(&graph, &LayeredRankConfig::default())?;
/// assert!((result.global.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn layered_doc_rank(graph: &DocGraph, config: &LayeredRankConfig) -> Result<LayeredDocRank> {
    // Tombstoned sites change the site-layer state space; the dense path
    // below stays bit-identical for graphs without them.
    if !graph.dead_sites().is_empty() {
        return layered_doc_rank_tombstoned(graph, config);
    }
    // Step 2: SiteGraph — through the one shared derivation so distributed
    // and local pipelines provably rank the same `Y`.
    let site_graph = ranking_site_graph(graph, &config.site_options);

    // Step 4: SiteRank (independent of step 3 — the parallelism the paper
    // contrasts with BlockRank).
    let (site_rank, site_report) = match config.site_method {
        SiteLayerMethod::PageRank => {
            let mut site_pr = PageRank::new();
            site_pr
                .damping(config.site_damping)
                .tol(config.power.tol)
                .max_iters(config.power.max_iters);
            if let Some(v) = &config.site_personalization {
                site_pr.personalization(v.clone());
            }
            let site_result: PageRankResult = site_pr.run(&site_graph.to_stochastic()?)?;
            (site_result.ranking, site_result.report)
        }
        SiteLayerMethod::Stationary => {
            if config.site_personalization.is_some() {
                return Err(crate::error::LmmError::InvalidModel {
                    reason: "site-layer personalization requires SiteLayerMethod::PageRank \
                             (the un-damped stationary chain has no teleport vector)"
                        .into(),
                });
            }
            let (pi, report) = lmm_linalg::power::stationary_distribution(
                site_graph.to_stochastic()?.matrix(),
                &config.power,
            )?;
            (Ranking::from_scores(pi)?, report)
        }
    };

    // Step 3: local DocRanks, one independent PageRank per site — the
    // embarrassingly parallel half of the paper's pipeline, fanned across
    // the shared pool. Every site's solve is serial internally and fills
    // only its own slot, so the fan-out is deterministic.
    let n_sites = graph.n_sites();
    let pool = ThreadPool::shared(config.threads);
    let sites: Vec<usize> = (0..n_sites).collect();
    let solved = pool.par_map(&sites, |_, &s| {
        let sub = graph.site_subgraph(SiteId(s));
        let mut pr = PageRank::new();
        pr.damping(config.local_damping)
            .tol(config.power.tol)
            .max_iters(config.power.max_iters);
        if let Some(v) = config.local_personalization.get(&s) {
            pr.personalization(v.clone());
        }
        pr.run_adjacency(sub.adjacency)
    });
    let mut local_ranks = Vec::with_capacity(n_sites);
    let mut total_local_iterations = 0usize;
    let mut max_local_iterations = 0usize;
    for result in solved {
        let result = result?;
        total_local_iterations += result.report.iterations;
        max_local_iterations = max_local_iterations.max(result.report.iterations);
        local_ranks.push(result.ranking);
    }

    // Step 5: weighted concatenation in global document order.
    let mut scores = vec![0.0f64; graph.n_docs()];
    for (s, ranks) in local_ranks.iter().enumerate() {
        let weight = site_rank.score(s);
        let members = graph.docs_of_site(SiteId(s));
        for (local, doc) in members.iter().enumerate() {
            scores[doc.index()] = weight * ranks.score(local);
        }
    }
    let global = Ranking::from_scores(scores)?;

    Ok(LayeredDocRank {
        site_rank,
        local_ranks,
        global,
        site_report,
        total_local_iterations,
        max_local_iterations,
    })
}

/// The flat baseline: classical PageRank over the whole DocGraph (what the
/// paper's Figure 3 uses), with the gather SpMV and vector passes spread
/// over `threads` workers (`0` = one per core; the ranking is identical
/// for every value).
///
/// # Errors
/// Propagates PageRank failures.
pub fn flat_pagerank(
    graph: &DocGraph,
    damping: f64,
    power: &PowerOptions,
    threads: usize,
) -> Result<PageRankResult> {
    let mut pr = PageRank::new();
    pr.damping(damping)
        .tol(power.tol)
        .max_iters(power.max_iters)
        .threads(threads);
    Ok(pr.run_adjacency(graph.to_csr())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::docgraph::DocGraphBuilder;
    use lmm_graph::generator::CampusWebConfig;
    use lmm_rank::metrics;

    fn small_campus() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.total_docs = 800;
        cfg.n_sites = 16;
        cfg.spam_farms.truncate(1);
        cfg.spam_farms[0].host_site = 9;
        cfg.spam_farms[0].n_pages = 120;
        cfg.generate().unwrap()
    }

    #[test]
    fn global_is_distribution() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert_eq!(r.global.len(), g.n_docs());
        assert!((r.global.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(r.local_ranks.len(), g.n_sites());
    }

    #[test]
    fn composition_identity_holds() {
        // score(d) == site_rank(site(d)) * local_rank(d) for every doc.
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        for s in 0..g.n_sites() {
            let members = g.docs_of_site(SiteId(s));
            for (local, doc) in members.iter().enumerate() {
                let expected = r.site_rank.score(s) * r.local_ranks[s].score(local);
                assert!((r.score(*doc) - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn demotes_spam_relative_to_flat_pagerank() {
        let g = small_campus();
        let spam = g.spam_labels();
        let layered = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let flat = flat_pagerank(&g, 0.85, &PowerOptions::with_tol(1e-10), 0).unwrap();
        let k = 15;
        let spam_flat = metrics::labeled_share_at_k(&flat.ranking, &spam, k);
        let spam_layered = metrics::labeled_share_at_k(&layered.global, &spam, k);
        assert!(
            spam_layered < spam_flat,
            "layered {spam_layered} should beat flat {spam_flat}"
        );
    }

    #[test]
    fn site_personalization_shifts_site_rank() {
        let g = small_campus();
        let n = g.n_sites();
        let mut v = vec![0.0; n];
        v[5] = 1.0;
        let cfg = LayeredRankConfig {
            site_personalization: Some(v),
            ..LayeredRankConfig::default()
        };
        let personalized = layered_doc_rank(&g, &cfg).unwrap();
        let neutral = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert!(personalized.site_rank.score(5) > neutral.site_rank.score(5));
    }

    #[test]
    fn local_personalization_shifts_docs_within_site() {
        let g = small_campus();
        let site = 3usize;
        let size = g.site_size(SiteId(site));
        // All local preference on the last local doc of the site.
        let mut v = vec![0.0; size];
        v[size - 1] = 1.0;
        let mut cfg = LayeredRankConfig::default();
        cfg.local_personalization.insert(site, v);
        let personalized = layered_doc_rank(&g, &cfg).unwrap();
        let neutral = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let doc = *g.docs_of_site(SiteId(site)).last().unwrap();
        assert!(personalized.score(doc) > neutral.score(doc));
        // Other sites' scores are untouched (decentralized personalization).
        let other_doc = g.docs_of_site(SiteId(0))[0];
        assert!((personalized.score(other_doc) - neutral.score(other_doc)).abs() < 1e-9);
    }

    #[test]
    fn iteration_accounting_consistent() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        assert!(r.max_local_iterations <= r.total_local_iterations);
        assert!(r.max_local_iterations > 0);
    }

    #[test]
    fn single_site_graph_reduces_to_local_rank() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("only.site", "u0");
        let d1 = b.add_doc("only.site", "u1");
        let d2 = b.add_doc("only.site", "u2");
        b.add_link(d0, d1).unwrap();
        b.add_link(d1, d2).unwrap();
        b.add_link(d2, d0).unwrap();
        let g = b.build();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        // One site: site rank = 1, global == local.
        assert!((r.site_rank.score(0) - 1.0).abs() < 1e-12);
        for d in 0..3 {
            assert!((r.global.score(d) - r.local_ranks[0].score(d)).abs() < 1e-12);
        }
    }

    #[test]
    fn thread_count_never_changes_the_ranking() {
        // The per-site fan-out must be bit-invisible: every layer of the
        // result — not just the composition — identical across pool sizes.
        let g = small_campus();
        let serial = layered_doc_rank(
            &g,
            &LayeredRankConfig {
                threads: 1,
                ..LayeredRankConfig::default()
            },
        )
        .unwrap();
        for threads in [2usize, 4, 0] {
            let parallel = layered_doc_rank(
                &g,
                &LayeredRankConfig {
                    threads,
                    ..LayeredRankConfig::default()
                },
            )
            .unwrap();
            assert_eq!(serial.global.scores(), parallel.global.scores());
            assert_eq!(serial.site_rank.scores(), parallel.site_rank.scores());
            assert_eq!(serial.local_ranks, parallel.local_ranks);
            assert_eq!(
                serial.total_local_iterations,
                parallel.total_local_iterations
            );
        }
    }

    #[test]
    fn top_k_accessor() {
        let g = small_campus();
        let r = layered_doc_rank(&g, &LayeredRankConfig::default()).unwrap();
        let top = r.top_k(5);
        assert_eq!(top.len(), 5);
        assert!(r.score(top[0]) >= r.score(top[4]));
    }
}
