//! The site-level web graph `G_S(V_S, E_S)` of Section 3.1.
//!
//! Nodes are Web sites; the weight of the SiteLink `(s, t)` counts the
//! document-level links from any page of `s` to any page of `t` — the
//! paper's rule: *"to count the number of Sitelinks between two sites, we
//! add the number of outgoing edges from any node in the first site to any
//! node in the second site."*
//!
//! Unlike BlockRank's block graph, these weights depend only on the link
//! counts, never on a prior local-rank computation, so SiteRank and the
//! local DocRanks can be computed **in parallel** (Section 3.2).
//!
//! Because the weights are plain counts, a [`DocGraph`] *maintains* them
//! rather than rescanning its links: building a graph counts every ordered
//! site pair once (diagonal included, for `include_self_loops`), and
//! [`DocGraph::apply`] patches only the pairs a delta's link diff touches.
//! [`SiteGraph::from_doc_graph`] therefore reads O(sites + SiteLinks)
//! stored counts, never the document links.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::blocks::LinkRows;
use crate::docgraph::DocGraph;
use crate::ids::{DocId, SiteId};
use lmm_linalg::{CsrMatrix, LinalgError, StochasticMatrix};

/// How SiteLink multiplicities map to edge weights.
///
/// `LinkCount` is the paper's definition; the others are ablations exercised
/// by the experiment harness (experiment E10 in DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SiteLinkWeighting {
    /// Weight = number of document links between the two sites (the paper).
    #[default]
    LinkCount,
    /// Weight = 1 for any connected pair (ignores multiplicity).
    Uniform,
    /// Weight = ln(1 + count) — a damped multiplicity ablation.
    LogCount,
}

/// Options controlling SiteGraph derivation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SiteGraphOptions {
    /// Keep intra-site link totals as self-loop edges. The paper's SiteLink
    /// notion covers hyperlinks *among* (distinct) sites, so the default is
    /// `false`; the ablation harness flips it.
    pub include_self_loops: bool,
    /// Multiplicity-to-weight mapping.
    pub weighting: SiteLinkWeighting,
}

/// The aggregated site-level graph with weighted SiteLink edges.
///
/// # Example
/// ```
/// use lmm_graph::docgraph::DocGraphBuilder;
/// use lmm_graph::sitegraph::{SiteGraph, SiteGraphOptions};
///
/// # fn main() -> Result<(), lmm_graph::GraphError> {
/// let mut b = DocGraphBuilder::new();
/// let a = b.add_doc("a.org", "http://a.org/");
/// let c1 = b.add_doc("c.org", "http://c.org/1");
/// let c2 = b.add_doc("c.org", "http://c.org/2");
/// b.add_link(a, c1)?;
/// b.add_link(a, c2)?;
/// let g = b.build();
/// let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
/// assert_eq!(s.weight(0.into(), 1.into()), 2.0); // two doc links a.org -> c.org
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SiteGraph {
    weights: CsrMatrix,
    options: SiteGraphOptions,
}

impl SiteGraph {
    /// Derives the SiteGraph from a DocGraph (Section 3.2, step 2), in
    /// O(sites + SiteLinks) from the graph's maintained link counts.
    #[must_use]
    pub fn from_doc_graph(doc_graph: &DocGraph, options: &SiteGraphOptions) -> Self {
        let ns = doc_graph.n_sites();
        let mut row_ptr = Vec::with_capacity(ns + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for s in 0..ns {
            for &(t, count) in doc_graph.site_links.row(s) {
                if s == t && !options.include_self_loops {
                    continue;
                }
                let count = count as f64;
                col_idx.push(t);
                values.push(match options.weighting {
                    SiteLinkWeighting::LinkCount => count,
                    SiteLinkWeighting::Uniform => 1.0,
                    SiteLinkWeighting::LogCount => (1.0 + count).ln(),
                });
            }
            row_ptr.push(col_idx.len());
        }
        let weights = CsrMatrix::from_raw_parts(ns, ns, row_ptr, col_idx, values)
            .expect("stored site link counts are square, ascending and in range");
        Self {
            weights,
            options: *options,
        }
    }

    /// Number of sites.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.weights.nrows()
    }

    /// Number of (directed) SiteLink edges.
    #[must_use]
    pub fn n_sitelinks(&self) -> usize {
        self.weights.nnz()
    }

    /// The weighted adjacency matrix over sites.
    #[must_use]
    pub fn weights(&self) -> &CsrMatrix {
        &self.weights
    }

    /// Consumes the graph, returning the owned weight matrix — for callers
    /// that only need the matrix and would otherwise clone O(nnz) storage.
    #[must_use]
    pub fn into_weights(self) -> CsrMatrix {
        self.weights
    }

    /// Weight of one SiteLink (0 when absent).
    ///
    /// # Panics
    /// Panics if either id is out of bounds.
    #[must_use]
    pub fn weight(&self, from: SiteId, to: SiteId) -> f64 {
        self.weights.get(from.index(), to.index())
    }

    /// The options this graph was derived with.
    #[must_use]
    pub fn options(&self) -> &SiteGraphOptions {
        &self.options
    }

    /// Row-normalizes the weights into the site transition matrix `M(G_S)`.
    ///
    /// # Errors
    /// Propagates [`LinalgError`] from validation (cannot occur for graphs
    /// built by [`SiteGraph::from_doc_graph`], which are square and
    /// non-negative by construction).
    pub fn to_stochastic(&self) -> Result<StochasticMatrix, LinalgError> {
        StochasticMatrix::from_adjacency(self.weights.clone())
    }
}

/// The one shared SiteGraph derivation used by every ranking pipeline — the
/// single-process Layered Method (`lmm-core::siterank`), incremental
/// maintenance, the distributed simulator (`lmm-p2p`), and the unified
/// `RankEngine`.
///
/// All pipelines MUST derive their site layer through this helper (rather
/// than calling [`SiteGraph::from_doc_graph`] with locally constructed
/// options) so that distributed and local computations provably rank the
/// same `Y`: a drift in derivation options between pipelines would silently
/// break the equivalence the Partition Theorem promises.
#[must_use]
pub fn ranking_site_graph(doc_graph: &DocGraph, options: &SiteGraphOptions) -> SiteGraph {
    SiteGraph::from_doc_graph(doc_graph, options)
}

/// Document links per ordered site pair — the counts behind every
/// SiteLink weight, diagonal (intra-site totals) included. Row `s` lists
/// `(t, count)` by ascending `t`, with no zero counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SiteLinkCounts {
    rows: Vec<Arc<Vec<(usize, usize)>>>,
}

impl SiteLinkCounts {
    /// Counts every link once, walking each site's members.
    pub(crate) fn scan(
        links: &LinkRows,
        site_of: &[SiteId],
        site_members: &[Arc<Vec<DocId>>],
    ) -> Self {
        let mut count = vec![0usize; site_members.len()];
        let mut hit: Vec<usize> = Vec::new();
        let rows = site_members
            .iter()
            .map(|members| {
                for d in members.iter() {
                    for &dst in links.row(d.index()) {
                        let t = site_of[dst].index();
                        if count[t] == 0 {
                            hit.push(t);
                        }
                        count[t] += 1;
                    }
                }
                hit.sort_unstable();
                Arc::new(
                    hit.drain(..)
                        .map(|t| (t, std::mem::take(&mut count[t])))
                        .collect(),
                )
            })
            .collect();
        Self { rows }
    }

    /// The `(target site, count)` entries of site `s`.
    pub(crate) fn row(&self, s: usize) -> &[(usize, usize)] {
        &self.rows[s]
    }

    /// A new version over `n_sites` sites with the net per-pair changes in
    /// `diffs` folded in; untouched rows are shared.
    ///
    /// # Panics
    /// Panics if a change would drive a count below zero — a diff that
    /// does not come from this graph's links.
    pub(crate) fn patch(&self, n_sites: usize, diffs: &BTreeMap<(usize, usize), i64>) -> Self {
        let mut rows = self.rows.clone();
        rows.resize_with(n_sites, Arc::default);
        let mut diffs = diffs.iter().filter(|(_, &d)| d != 0).peekable();
        while let Some(&(&(s, _), _)) = diffs.peek() {
            let old = &rows[s];
            let mut row = Vec::with_capacity(old.len() + 1);
            let mut old_entries = old.iter().copied().peekable();
            while let Some((&(_, t), &d)) = diffs.next_if(|((src, _), _)| *src == s) {
                while let Some(entry) = old_entries.next_if(|&(ot, _)| ot < t) {
                    row.push(entry);
                }
                let base = old_entries
                    .next_if(|&(ot, _)| ot == t)
                    .map_or(0, |(_, c)| c);
                let count = i64::try_from(base)
                    .ok()
                    .and_then(|b| usize::try_from(b + d).ok())
                    .expect("site link counts never go negative");
                if count > 0 {
                    row.push((t, count));
                }
            }
            row.extend(old_entries);
            rows[s] = Arc::new(row);
        }
        Self { rows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::docgraph::DocGraphBuilder;

    /// a.org: 3 docs with internal cycle; b.org: 2 docs.
    /// Cross links: a->b x3 (from distinct pairs), b->a x1.
    fn doc_graph() -> DocGraph {
        let mut b = DocGraphBuilder::new();
        let a0 = b.add_doc("a.org", "u0");
        let a1 = b.add_doc("a.org", "u1");
        let a2 = b.add_doc("a.org", "u2");
        let b0 = b.add_doc("b.org", "u3");
        let b1 = b.add_doc("b.org", "u4");
        b.add_link(a0, a1).unwrap();
        b.add_link(a1, a2).unwrap();
        b.add_link(a2, a0).unwrap();
        b.add_link(a0, b0).unwrap();
        b.add_link(a1, b0).unwrap();
        b.add_link(a2, b1).unwrap();
        b.add_link(b0, a0).unwrap();
        b.build()
    }

    #[test]
    fn link_count_weights() {
        let g = doc_graph();
        let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
        assert_eq!(s.n_sites(), 2);
        assert_eq!(s.weight(SiteId(0), SiteId(1)), 3.0);
        assert_eq!(s.weight(SiteId(1), SiteId(0)), 1.0);
        // Self loops excluded by default.
        assert_eq!(s.weight(SiteId(0), SiteId(0)), 0.0);
        assert_eq!(s.n_sitelinks(), 2);
    }

    #[test]
    fn self_loops_included_on_request() {
        let g = doc_graph();
        let s = SiteGraph::from_doc_graph(
            &g,
            &SiteGraphOptions {
                include_self_loops: true,
                ..SiteGraphOptions::default()
            },
        );
        assert_eq!(s.weight(SiteId(0), SiteId(0)), 3.0); // the internal cycle
        assert_eq!(s.n_sitelinks(), 3);
    }

    #[test]
    fn uniform_weighting_ignores_multiplicity() {
        let g = doc_graph();
        let s = SiteGraph::from_doc_graph(
            &g,
            &SiteGraphOptions {
                weighting: SiteLinkWeighting::Uniform,
                ..SiteGraphOptions::default()
            },
        );
        assert_eq!(s.weight(SiteId(0), SiteId(1)), 1.0);
        assert_eq!(s.weight(SiteId(1), SiteId(0)), 1.0);
    }

    #[test]
    fn log_weighting_damps_multiplicity() {
        let g = doc_graph();
        let s = SiteGraph::from_doc_graph(
            &g,
            &SiteGraphOptions {
                weighting: SiteLinkWeighting::LogCount,
                ..SiteGraphOptions::default()
            },
        );
        assert!((s.weight(SiteId(0), SiteId(1)) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn to_stochastic_row_normalizes() {
        let g = doc_graph();
        let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
        let m = s.to_stochastic().unwrap();
        assert!((m.matrix().get(0, 1) - 1.0).abs() < 1e-12);
        assert!(m.is_fully_stochastic());
    }

    #[test]
    fn isolated_site_becomes_dangling() {
        let mut b = DocGraphBuilder::new();
        let a = b.add_doc("a.org", "u0");
        let _lonely = b.add_doc("c.org", "u1");
        let d = b.add_doc("b.org", "u2");
        b.add_link(a, d).unwrap();
        let g = b.build();
        let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
        let m = s.to_stochastic().unwrap();
        // c.org (site 1) and b.org (site 2) have no outgoing sitelinks.
        assert_eq!(m.dangling(), &[1, 2]);
    }
}
