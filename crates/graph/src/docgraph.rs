//! The document-level web graph `G_D(V_D, E_D)` of Section 3.1.

use std::collections::HashMap;
use std::sync::Arc;

use crate::blocks::{CowColumn, LinkRows, LinkRowsWriter};
use crate::error::{GraphError, Result};
use crate::ids::{DocId, SiteId};
use crate::remap::IdRemap;
use crate::sitegraph::SiteLinkCounts;
use lmm_linalg::{CooMatrix, CsrMatrix};

/// Classification of a generated or crawled page, used as ground truth by
/// the evaluation harness (the paper's Figures 3/4 distinguish authoritative
/// root pages from spam-cluster pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageKind {
    /// An ordinary content page.
    #[default]
    Regular,
    /// The root / home page of its site (an "authoritative" page in the
    /// paper's qualitative reading of Figure 4).
    SiteRoot,
    /// A member of a densely self-linked agglomerate (the paper's javadoc /
    /// `Webdriver?` clusters) — the structures that hijack flat PageRank.
    SpamFarm,
}

impl PageKind {
    /// Single-character tag used by the snapshot format.
    #[must_use]
    pub fn tag(self) -> char {
        match self {
            PageKind::Regular => 'R',
            PageKind::SiteRoot => 'O',
            PageKind::SpamFarm => 'S',
        }
    }

    /// Parses the snapshot tag.
    #[must_use]
    pub fn from_tag(c: char) -> Option<Self> {
        match c {
            'R' => Some(PageKind::Regular),
            'O' => Some(PageKind::SiteRoot),
            'S' => Some(PageKind::SpamFarm),
            _ => None,
        }
    }
}

/// An immutable document-level web graph: documents with URLs, their owning
/// sites, and deduplicated hyperlink edges.
///
/// Build one with [`DocGraphBuilder`] or generate one with
/// [`crate::generator`].
///
/// # Tombstones
///
/// Structural deltas can **remove** pages and sites
/// ([`crate::delta::GraphDelta::remove_page`] /
/// [`remove_site`](crate::delta::GraphDelta::remove_site)). Removal is
/// tombstone-based: the slot stays (so every surviving id keeps meaning
/// across deltas — the stability serving caches and delta-composed
/// fingerprints rely on), but the document leaves its site's member list
/// and every incident link is dropped. [`DocGraph::compact_ids`] is the
/// explicit maintenance step that densifies the id space, returning the
/// old→new [`IdRemap`].
///
/// # Storage
///
/// Per-document columns (URLs, kinds, out-link rows) live in fixed-size
/// copy-on-write blocks (see `blocks.rs`), and the per-site-pair link
/// counts behind the SiteGraph are kept up to date alongside the links, so
/// a new graph version shares everything a delta did not touch.
#[derive(Debug, Clone)]
pub struct DocGraph {
    pub(crate) urls: CowColumn<String>,
    pub(crate) kinds: CowColumn<PageKind>,
    pub(crate) site_of: Arc<Vec<SiteId>>,
    pub(crate) site_names: CowColumn<String>,
    pub(crate) site_members: Vec<Arc<Vec<DocId>>>,
    /// Tombstoned document ids, ascending (usually empty).
    pub(crate) dead_docs: Arc<Vec<DocId>>,
    /// Tombstoned site ids, ascending (usually empty).
    pub(crate) dead_sites: Arc<Vec<SiteId>>,
    /// Deduplicated out-link rows, one per document slot.
    pub(crate) links: LinkRows,
    /// Document links per ordered site pair, diagonal included.
    pub(crate) site_links: SiteLinkCounts,
}

impl PartialEq for DocGraph {
    fn eq(&self, other: &Self) -> bool {
        self.urls == other.urls
            && self.kinds == other.kinds
            && self.site_of == other.site_of
            && self.site_names == other.site_names
            && self.site_members == other.site_members
            && self.dead_docs == other.dead_docs
            && self.dead_sites == other.dead_sites
            && self.links == other.links
            && self.site_links == other.site_links
    }
}

/// An intra-site subgraph `G_d^s = (V_d(s), E_d(s))`: only the documents of
/// one site and the links between them (Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSubgraph {
    /// Intra-site adjacency; dimension equals the number of member docs.
    pub adjacency: CsrMatrix,
    /// `members[local] = global` document ids, ascending.
    pub members: Vec<DocId>,
}

impl DocGraph {
    /// Number of document slots `N_D` (tombstoned slots included; see
    /// [`n_live_docs`](Self::n_live_docs)).
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.urls.len()
    }

    /// Number of site slots `N_S` (tombstoned slots included; see
    /// [`n_live_sites`](Self::n_live_sites)).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.site_names.len()
    }

    /// Number of live (non-tombstoned) documents.
    #[must_use]
    pub fn n_live_docs(&self) -> usize {
        self.n_docs() - self.dead_docs.len()
    }

    /// Number of live (non-tombstoned) sites.
    #[must_use]
    pub fn n_live_sites(&self) -> usize {
        self.n_sites() - self.dead_sites.len()
    }

    /// `true` when any document or site slot is tombstoned.
    #[must_use]
    pub fn has_tombstones(&self) -> bool {
        !self.dead_docs.is_empty() || !self.dead_sites.is_empty()
    }

    /// Tombstoned document ids, ascending.
    #[must_use]
    pub fn dead_docs(&self) -> &[DocId] {
        &self.dead_docs
    }

    /// Tombstoned site ids, ascending.
    #[must_use]
    pub fn dead_sites(&self) -> &[SiteId] {
        &self.dead_sites
    }

    /// `true` when `doc` is in range and not tombstoned.
    #[must_use]
    pub fn is_live_doc(&self, doc: DocId) -> bool {
        doc.index() < self.n_docs() && self.dead_docs.binary_search(&doc).is_err()
    }

    /// `true` when `site` is in range and not tombstoned.
    #[must_use]
    pub fn is_live_site(&self, site: SiteId) -> bool {
        site.index() < self.n_sites() && self.dead_sites.binary_search(&site).is_err()
    }

    /// Live site ids, ascending.
    pub fn live_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.n_sites())
            .map(SiteId)
            .filter(|&s| self.dead_sites.binary_search(&s).is_err())
    }

    /// Number of (deduplicated) hyperlink edges.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.links.nnz()
    }

    /// URL of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn url(&self, doc: DocId) -> &str {
        self.urls.get(doc.index())
    }

    /// Page classification of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn kind(&self, doc: DocId) -> PageKind {
        *self.kinds.get(doc.index())
    }

    /// The owning site of a document (the paper's `site(d)`). Tombstoned
    /// documents keep their last site assignment, so removed ids still
    /// route (e.g. to the shard that must answer "gone").
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_of(&self, doc: DocId) -> SiteId {
        self.site_of[doc.index()]
    }

    /// Site assignments for all documents, indexed by document id.
    #[must_use]
    pub fn site_assignments(&self) -> &[SiteId] {
        &self.site_of
    }

    /// Host name of a site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_name(&self, site: SiteId) -> &str {
        self.site_names.get(site.index())
    }

    /// Live documents of a site (ascending ids) — the paper's `V_d(s)`.
    /// Empty for a tombstoned site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn docs_of_site(&self, site: SiteId) -> &[DocId] {
        &self.site_members[site.index()]
    }

    /// Size of a site, `size(s)` — live members only.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_size(&self, site: SiteId) -> usize {
        self.site_members[site.index()].len()
    }

    /// Out-link targets of a document, ascending (raw document indices).
    /// Tombstoned documents have no out-links and appear in no row.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn out_links(&self, doc: DocId) -> &[usize] {
        self.links.row(doc.index())
    }

    /// `true` when the link `from -> to` exists.
    ///
    /// # Panics
    /// Panics if `from` is out of bounds.
    #[must_use]
    pub fn has_link(&self, from: DocId, to: DocId) -> bool {
        self.out_links(from).binary_search(&to.index()).is_ok()
    }

    /// Out-degree of a document.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn out_degree(&self, doc: DocId) -> usize {
        self.out_links(doc).len()
    }

    /// In-degrees of all documents (one pass over the edges).
    #[must_use]
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.n_docs()];
        for (_, dst) in self.links.iter() {
            deg[dst] += 1;
        }
        deg
    }

    /// The deduplicated 0/1 adjacency matrix, materialized in O(links) —
    /// for flat (whole-graph) computations that need a CSR operand.
    /// Tombstoned documents have empty rows and appear in no column.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        self.links.to_csr()
    }

    /// `true` for documents labeled as spam-farm members, indexed by doc id.
    #[must_use]
    pub fn spam_labels(&self) -> Vec<bool> {
        self.kinds
            .iter()
            .map(|&k| k == PageKind::SpamFarm)
            .collect()
    }

    /// Extracts the intra-site subgraph `G_d^s` of one site: member
    /// documents and the links whose both endpoints belong to the site.
    ///
    /// # Panics
    /// Panics if the id is out of bounds.
    #[must_use]
    pub fn site_subgraph(&self, site: SiteId) -> SiteSubgraph {
        let members: &[DocId] = &self.site_members[site.index()];
        let mut local_of: HashMap<usize, usize> = HashMap::with_capacity(members.len());
        for (local, d) in members.iter().enumerate() {
            local_of.insert(d.index(), local);
        }
        let mut coo = CooMatrix::new(members.len(), members.len());
        for (local, d) in members.iter().enumerate() {
            for dst in self.out_links(*d) {
                if let Some(&dst_local) = local_of.get(dst) {
                    coo.push(local, dst_local, 1.0);
                }
            }
        }
        SiteSubgraph {
            adjacency: coo.to_csr(),
            members: members.to_vec(),
        }
    }

    /// Counts the links that cross site boundaries.
    #[must_use]
    pub fn cross_site_links(&self) -> usize {
        self.links
            .iter()
            .filter(|&(src, dst)| self.site_of[src] != self.site_of[dst])
            .count()
    }

    /// Iterates over all `(from, to)` document links.
    pub fn links(&self) -> impl Iterator<Item = (DocId, DocId)> + '_ {
        self.links.iter().map(|(src, dst)| (DocId(src), DocId(dst)))
    }

    /// Densifies the id space: drops every tombstoned document and site
    /// slot, renumbering survivors in order, and returns the compacted
    /// graph together with the old→new [`IdRemap`].
    ///
    /// This is the explicit maintenance step that trades id stability for
    /// a dense graph (flat baselines, snapshots, and rebalancing want
    /// density; live delta streams want stability). On a graph without
    /// tombstones it returns a clone and the identity remap.
    #[must_use]
    pub fn compact_ids(&self) -> (DocGraph, IdRemap) {
        if !self.has_tombstones() {
            return (
                self.clone(),
                IdRemap::identity(self.n_docs(), self.n_sites()),
            );
        }
        let mut next = 0usize;
        let doc_map: Vec<Option<DocId>> = (0..self.n_docs())
            .map(|d| {
                self.is_live_doc(DocId(d)).then(|| {
                    let id = DocId(next);
                    next += 1;
                    id
                })
            })
            .collect();
        let mut next_site = 0usize;
        let site_map: Vec<Option<SiteId>> = (0..self.n_sites())
            .map(|s| {
                self.is_live_site(SiteId(s)).then(|| {
                    let id = SiteId(next_site);
                    next_site += 1;
                    id
                })
            })
            .collect();

        let mut urls = Vec::with_capacity(next);
        let mut kinds = Vec::with_capacity(next);
        let mut site_of = Vec::with_capacity(next);
        for (d, mapped) in doc_map.iter().enumerate() {
            if mapped.is_some() {
                urls.push(self.urls.get(d).clone());
                kinds.push(*self.kinds.get(d));
                site_of.push(
                    site_map[self.site_of[d].index()].expect(
                        "a live document always belongs to a live site (apply enforces it)",
                    ),
                );
            }
        }
        let mut site_names = Vec::with_capacity(next_site);
        let mut site_members = Vec::with_capacity(next_site);
        for (s, mapped) in site_map.iter().enumerate() {
            if mapped.is_some() {
                site_names.push(self.site_names.get(s).clone());
                site_members.push(Arc::new(
                    self.site_members[s]
                        .iter()
                        .map(|&d| doc_map[d.index()].expect("members are live"))
                        .collect::<Vec<_>>(),
                ));
            }
        }
        // Link rows in old order restricted to live rows: survivors keep
        // their relative order, so the new rows are written directly.
        let mut links = LinkRowsWriter::default();
        let mut row = Vec::new();
        for (d, mapped) in doc_map.iter().enumerate() {
            if mapped.is_none() {
                continue;
            }
            row.clear();
            row.extend(
                self.links
                    .row(d)
                    .iter()
                    .map(|&c| doc_map[c].expect("no live row links a dead column").index()),
            );
            links.push_row(&row);
        }
        let links = links.finish();
        let site_links = SiteLinkCounts::scan(&links, &site_of, &site_members);
        let compacted = DocGraph {
            urls: CowColumn::from_vec(urls),
            kinds: CowColumn::from_vec(kinds),
            site_of: Arc::new(site_of),
            site_names: CowColumn::from_vec(site_names),
            site_members,
            dead_docs: Arc::new(Vec::new()),
            dead_sites: Arc::new(Vec::new()),
            links,
            site_links,
        };
        (compacted, IdRemap::new(doc_map, site_map))
    }
}

/// Incremental builder for [`DocGraph`].
///
/// Sites are interned by name on first use; duplicate links collapse to one
/// edge at [`DocGraphBuilder::build`] time (the standard web-graph
/// convention: multiple anchor tags between the same pair of pages count
/// once for PageRank, while the SiteGraph counts *distinct document pairs*).
///
/// # Example
/// ```
/// use lmm_graph::docgraph::DocGraphBuilder;
/// # fn main() -> Result<(), lmm_graph::GraphError> {
/// let mut b = DocGraphBuilder::new();
/// let home = b.add_doc("www.x.org", "http://www.x.org/");
/// let page = b.add_doc("www.x.org", "http://www.x.org/a.html");
/// b.add_link(home, page)?;
/// b.add_link(home, page)?; // duplicate, collapses
/// let g = b.build();
/// assert_eq!(g.n_links(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DocGraphBuilder {
    urls: Vec<String>,
    kinds: Vec<PageKind>,
    site_of: Vec<SiteId>,
    site_names: Vec<String>,
    site_index: HashMap<String, SiteId>,
    edges: Vec<(DocId, DocId)>,
}

impl DocGraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with edge capacity preallocated.
    #[must_use]
    pub fn with_capacity(docs: usize, edges: usize) -> Self {
        Self {
            urls: Vec::with_capacity(docs),
            kinds: Vec::with_capacity(docs),
            site_of: Vec::with_capacity(docs),
            edges: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Interns a site by name, returning its id.
    pub fn site(&mut self, name: &str) -> SiteId {
        if let Some(&id) = self.site_index.get(name) {
            return id;
        }
        let id = SiteId(self.site_names.len());
        self.site_names.push(name.to_string());
        self.site_index.insert(name.to_string(), id);
        id
    }

    /// Adds a regular document belonging to `site_name`.
    pub fn add_doc(&mut self, site_name: &str, url: &str) -> DocId {
        self.add_doc_with_kind(site_name, url, PageKind::Regular)
    }

    /// Adds a document with an explicit [`PageKind`] label.
    pub fn add_doc_with_kind(&mut self, site_name: &str, url: &str, kind: PageKind) -> DocId {
        let site = self.site(site_name);
        let id = DocId(self.urls.len());
        self.urls.push(url.to_string());
        self.kinds.push(kind);
        self.site_of.push(site);
        id
    }

    /// Adds a document, deriving its site from the URL's host
    /// (see [`crate::url::host_of`]).
    ///
    /// # Errors
    /// Returns [`GraphError::InvalidConfig`] when the URL has no host.
    pub fn add_url(&mut self, url: &str) -> Result<DocId> {
        let host = crate::url::host_of(url).ok_or_else(|| GraphError::InvalidConfig {
            reason: format!("url {url:?} has no host"),
        })?;
        Ok(self.add_doc(&host, url))
    }

    /// Number of documents added so far.
    #[must_use]
    pub fn n_docs(&self) -> usize {
        self.urls.len()
    }

    /// Records a hyperlink between two previously added documents.
    ///
    /// # Errors
    /// Returns [`GraphError::UnknownDoc`] when either endpoint was never
    /// added.
    pub fn add_link(&mut self, from: DocId, to: DocId) -> Result<()> {
        let n = self.urls.len();
        for d in [from, to] {
            if d.index() >= n {
                return Err(GraphError::UnknownDoc {
                    doc: d.index(),
                    n_docs: n,
                });
            }
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Reconstructs a builder from an existing graph, so callers can apply
    /// edits (recrawls, link additions/removals) and rebuild — the workflow
    /// behind incremental rank maintenance.
    ///
    /// # Panics
    /// Panics on a tombstoned graph: the builder's dense id space cannot
    /// represent dead slots — [`DocGraph::compact_ids`] first.
    #[must_use]
    pub fn from_graph(graph: &DocGraph) -> Self {
        assert!(
            !graph.has_tombstones(),
            "DocGraphBuilder::from_graph needs a dense graph; call compact_ids() first"
        );
        let mut builder = Self::with_capacity(graph.n_docs(), graph.n_links());
        // Intern sites in id order so ids are preserved.
        for s in 0..graph.n_sites() {
            builder.site(graph.site_name(SiteId(s)));
        }
        for d in 0..graph.n_docs() {
            let doc = DocId(d);
            builder.add_doc_with_kind(
                graph.site_name(graph.site_of(doc)),
                graph.url(doc),
                graph.kind(doc),
            );
        }
        builder.edges.extend(graph.links());
        builder
    }

    /// Removes every recorded link between `from` and `to` (directed).
    /// Returns the number of removed link records.
    pub fn remove_link(&mut self, from: DocId, to: DocId) -> usize {
        let before = self.edges.len();
        self.edges.retain(|&(f, t)| !(f == from && t == to));
        before - self.edges.len()
    }

    /// Finalizes the graph: deduplicates edges and freezes the site index.
    #[must_use]
    pub fn build(self) -> DocGraph {
        let n = self.urls.len();
        // Counting sort by source row, then sort + dedup each row.
        let mut start = vec![0usize; n + 1];
        for (from, _) in &self.edges {
            start[from.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut cols = vec![0usize; self.edges.len()];
        for (from, to) in &self.edges {
            cols[cursor[from.index()]] = to.index();
            cursor[from.index()] += 1;
        }
        drop(self.edges);
        let mut links = LinkRowsWriter::default();
        let mut row = Vec::new();
        for r in 0..n {
            row.clear();
            row.extend_from_slice(&cols[start[r]..start[r + 1]]);
            row.sort_unstable();
            // Duplicate links collapse to one edge.
            row.dedup();
            links.push_row(&row);
        }
        let links = links.finish();
        let mut site_members = vec![Vec::new(); self.site_names.len()];
        for (doc, site) in self.site_of.iter().enumerate() {
            site_members[site.index()].push(DocId(doc));
        }
        let site_members: Vec<Arc<Vec<DocId>>> = site_members.into_iter().map(Arc::new).collect();
        let site_links = SiteLinkCounts::scan(&links, &self.site_of, &site_members);
        DocGraph {
            urls: CowColumn::from_vec(self.urls),
            kinds: CowColumn::from_vec(self.kinds),
            site_of: Arc::new(self.site_of),
            site_names: CowColumn::from_vec(self.site_names),
            site_members,
            dead_docs: Arc::new(Vec::new()),
            dead_sites: Arc::new(Vec::new()),
            links,
            site_links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::BLOCK_ROWS;

    fn two_site_graph() -> DocGraph {
        let mut b = DocGraphBuilder::new();
        let a0 = b.add_doc_with_kind("a.org", "http://a.org/", PageKind::SiteRoot);
        let a1 = b.add_doc("a.org", "http://a.org/1");
        let a2 = b.add_doc("a.org", "http://a.org/2");
        let b0 = b.add_doc_with_kind("b.org", "http://b.org/", PageKind::SiteRoot);
        let b1 = b.add_doc("b.org", "http://b.org/1");
        b.add_link(a0, a1).unwrap();
        b.add_link(a1, a2).unwrap();
        b.add_link(a2, a0).unwrap();
        b.add_link(a2, b0).unwrap();
        b.add_link(b0, b1).unwrap();
        b.add_link(b1, a0).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = two_site_graph();
        assert_eq!(g.n_docs(), 5);
        assert_eq!(g.n_sites(), 2);
        assert_eq!(g.n_links(), 6);
        assert_eq!(g.cross_site_links(), 2);
        assert_eq!(g.n_live_docs(), 5);
        assert_eq!(g.n_live_sites(), 2);
        assert!(!g.has_tombstones());
    }

    #[test]
    fn site_interning_reuses_ids() {
        let mut b = DocGraphBuilder::new();
        let s1 = b.site("x.org");
        let s2 = b.site("x.org");
        assert_eq!(s1, s2);
        let d = b.add_doc("x.org", "http://x.org/");
        assert_eq!(b.n_docs(), 1);
        let g = b.build();
        assert_eq!(g.site_of(d), s1);
    }

    #[test]
    fn duplicate_links_collapse() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("x", "u0");
        let d1 = b.add_doc("x", "u1");
        b.add_link(d0, d1).unwrap();
        b.add_link(d0, d1).unwrap();
        b.add_link(d0, d1).unwrap();
        let g = b.build();
        assert_eq!(g.n_links(), 1);
        assert!(g.has_link(d0, d1));
    }

    #[test]
    fn unknown_doc_rejected() {
        let mut b = DocGraphBuilder::new();
        let d0 = b.add_doc("x", "u0");
        assert!(matches!(
            b.add_link(d0, DocId(5)),
            Err(GraphError::UnknownDoc { doc: 5, .. })
        ));
    }

    #[test]
    fn add_url_derives_site() {
        let mut b = DocGraphBuilder::new();
        let d = b.add_url("http://Sub.Host.org/page").unwrap();
        let g = b.build();
        assert_eq!(g.site_name(g.site_of(d)), "sub.host.org");
    }

    #[test]
    fn add_url_rejects_hostless() {
        let mut b = DocGraphBuilder::new();
        assert!(b.add_url("http://").is_err());
    }

    #[test]
    fn site_subgraph_restricts_edges() {
        let g = two_site_graph();
        let sub = g.site_subgraph(SiteId(0));
        assert_eq!(sub.members, vec![DocId(0), DocId(1), DocId(2)]);
        // Only the 3-cycle inside a.org survives; the a2 -> b0 edge is cut.
        assert_eq!(sub.adjacency.nnz(), 3);
        let sub_b = g.site_subgraph(SiteId(1));
        assert_eq!(sub_b.members, vec![DocId(3), DocId(4)]);
        assert_eq!(sub_b.adjacency.nnz(), 1);
    }

    #[test]
    fn degrees() {
        let g = two_site_graph();
        assert_eq!(g.out_degree(DocId(2)), 2);
        let indeg = g.in_degrees();
        assert_eq!(indeg[0], 2); // a0 <- a2, b1
        assert_eq!(indeg[3], 1); // b0 <- a2
    }

    #[test]
    fn spam_labels_default_false() {
        let g = two_site_graph();
        assert!(g.spam_labels().iter().all(|&s| !s));
        assert_eq!(g.kind(DocId(0)), PageKind::SiteRoot);
        assert_eq!(g.kind(DocId(1)), PageKind::Regular);
    }

    #[test]
    fn page_kind_tags_roundtrip() {
        for k in [PageKind::Regular, PageKind::SiteRoot, PageKind::SpamFarm] {
            assert_eq!(PageKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PageKind::from_tag('x'), None);
    }

    #[test]
    fn docs_of_site_ascending() {
        let g = two_site_graph();
        let docs = g.docs_of_site(SiteId(0));
        assert!(docs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(g.site_size(SiteId(1)), 2);
    }

    #[test]
    fn links_iterator_matches_adjacency() {
        let g = two_site_graph();
        assert_eq!(g.links().count(), g.n_links());
        let csr = g.to_csr();
        assert_eq!(csr.nnz(), g.n_links());
        for (from, to) in g.links() {
            assert_eq!(csr.get(from.index(), to.index()), 1.0);
            assert!(g.has_link(from, to));
        }
    }

    #[test]
    fn from_graph_roundtrips() {
        let g = two_site_graph();
        let rebuilt = DocGraphBuilder::from_graph(&g).build();
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn from_graph_allows_edits() {
        let g = two_site_graph();
        let mut b = DocGraphBuilder::from_graph(&g);
        let removed = b.remove_link(DocId(0), DocId(1));
        assert_eq!(removed, 1);
        b.add_link(DocId(1), DocId(0)).unwrap();
        let edited = b.build();
        assert_eq!(edited.n_links(), g.n_links()); // one removed, one added
        assert!(!edited.has_link(DocId(0), DocId(1)));
        assert!(edited.has_link(DocId(1), DocId(0)));
        // Site structure is preserved.
        assert_eq!(edited.n_sites(), g.n_sites());
        assert_eq!(edited.site_name(SiteId(0)), g.site_name(SiteId(0)));
    }

    #[test]
    fn remove_link_missing_is_zero() {
        let g = two_site_graph();
        let mut b = DocGraphBuilder::from_graph(&g);
        assert_eq!(b.remove_link(DocId(4), DocId(4)), 0);
    }

    #[test]
    fn cow_column_appends_share_segments() {
        let n = BLOCK_ROWS + 3;
        let base = CowColumn::from_vec((0..n).collect::<Vec<_>>());
        let grown = base.append([n, n + 1]);
        assert_eq!(grown.len(), n + 2);
        assert_eq!(*grown.get(0), 0);
        assert_eq!(*grown.get(n + 1), n + 1);
        assert!(grown.iter().copied().eq(0..n + 2));
        // The full first block is shared, the partial one was topped up.
        assert!(Arc::ptr_eq(&base.blocks()[0], &grown.blocks()[0]));
        assert_eq!(grown.blocks().len(), 2);
        // Empty appends copy nothing.
        let same = base.append(Vec::new());
        assert!(Arc::ptr_eq(&base.blocks()[1], &same.blocks()[1]));
        assert_eq!(base, base.clone());
    }

    #[test]
    fn compact_ids_on_dense_graph_is_identity() {
        let g = two_site_graph();
        let (dense, remap) = g.compact_ids();
        assert_eq!(dense, g);
        assert!(remap.is_identity());
    }
}
