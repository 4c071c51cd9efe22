//! Oracle test of `DocGraph::apply`'s patched storage: along seeded delta
//! chains (rewire, grow, cross link, new site, shrink, drop site), every
//! mutated graph must equal a from-scratch rebuild of its live links, and
//! the SiteGraph read from the maintained SiteLink counts must equal a full
//! scan of the links, for every weighting and self-loop setting.

use lmm_graph::delta::GraphDelta;
use lmm_graph::generator::CampusWebConfig;
use lmm_graph::sitegraph::{SiteGraph, SiteGraphOptions, SiteLinkWeighting};
use lmm_graph::{DocGraph, DocGraphBuilder, DocId, SiteId};
use lmm_linalg::{CooMatrix, CsrMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn campus(seed: u64) -> DocGraph {
    let mut cfg = CampusWebConfig::small();
    cfg.seed = seed;
    cfg.n_sites = 10;
    cfg.total_docs = 700;
    cfg.spam_farms.truncate(1);
    cfg.spam_farms[0].host_site = 5;
    cfg.spam_farms[0].n_pages = 20;
    cfg.generate().expect("campus web")
}

/// The SiteGraph weights by a full scan of the document links.
fn scanned_site_weights(g: &DocGraph, options: &SiteGraphOptions) -> CsrMatrix {
    let site_of = g.site_assignments();
    let mut coo = CooMatrix::new(g.n_sites(), g.n_sites());
    for (from, to) in g.links() {
        let (s, t) = (site_of[from.index()], site_of[to.index()]);
        if s != t || options.include_self_loops {
            coo.push(s.index(), t.index(), 1.0);
        }
    }
    let counts = coo.to_csr();
    match options.weighting {
        SiteLinkWeighting::LinkCount => counts,
        SiteLinkWeighting::Uniform => counts.map_values(|_| 1.0),
        SiteLinkWeighting::LogCount => counts.map_values(|c| (1.0 + c).ln()),
    }
}

/// A builder over the same document and site slots (tombstoned ones
/// included) holding only the graph's live links.
fn rebuild(g: &DocGraph) -> DocGraph {
    let mut b = DocGraphBuilder::with_capacity(g.n_docs(), g.n_links());
    for s in 0..g.n_sites() {
        b.site(g.site_name(SiteId(s)));
    }
    for d in (0..g.n_docs()).map(DocId) {
        b.add_doc_with_kind(g.site_name(g.site_of(d)), g.url(d), g.kind(d));
    }
    for (from, to) in g.links() {
        b.add_link(from, to).expect("in range");
    }
    b.build()
}

fn check_against_oracles(g: &DocGraph) -> Result<(), String> {
    let rebuilt = rebuild(g);
    prop_assert_eq!(g.n_links(), rebuilt.n_links());
    prop_assert_eq!(g.to_csr(), rebuilt.to_csr());
    if !g.has_tombstones() {
        prop_assert_eq!(g, &rebuilt);
    }
    for include_self_loops in [false, true] {
        for weighting in [
            SiteLinkWeighting::LinkCount,
            SiteLinkWeighting::Uniform,
            SiteLinkWeighting::LogCount,
        ] {
            let options = SiteGraphOptions {
                include_self_loops,
                weighting,
            };
            let maintained = SiteGraph::from_doc_graph(g, &options);
            prop_assert_eq!(maintained.weights(), &scanned_site_weights(g, &options));
        }
    }
    // compact_ids round trip: the dense graph equals its own rebuild, and
    // its links are the live links renumbered.
    let (dense, remap) = g.compact_ids();
    prop_assert_eq!(&dense, &DocGraphBuilder::from_graph(&dense).build());
    let renumbered: Vec<(DocId, DocId)> = g
        .links()
        .map(|(f, t)| (remap.doc(f).expect("live"), remap.doc(t).expect("live")))
        .collect();
    prop_assert_eq!(dense.links().collect::<Vec<_>>(), renumbered);
    let options = SiteGraphOptions {
        include_self_loops: true,
        ..SiteGraphOptions::default()
    };
    let maintained = SiteGraph::from_doc_graph(&dense, &options);
    prop_assert_eq!(
        maintained.weights(),
        &scanned_site_weights(&dense, &options)
    );
    Ok(())
}

fn live_site(g: &DocGraph, rng: &mut StdRng, min_docs: usize, avoid: &[SiteId]) -> SiteId {
    let n = g.n_sites();
    let start = rng.random_range(0..n);
    (0..n)
        .map(|i| SiteId((start + i) % n))
        .find(|&s| g.is_live_site(s) && g.site_size(s) >= min_docs && !avoid.contains(&s))
        .expect("the chain never drains the graph")
}

/// One chain step: a rewire plus, by step, growth (sometimes past a block
/// boundary), a cross link, a new site, a page removal and a site removal.
fn step_delta(g: &DocGraph, step: usize, rng: &mut StdRng) -> GraphDelta {
    let mut d = GraphDelta::for_graph(g);
    let site = live_site(g, rng, 3, &[]);
    let mut touched = vec![site];
    let docs = g.docs_of_site(site);
    let pick = |rng: &mut StdRng| docs[rng.random_range(0..docs.len())];
    let (a, b, c) = (pick(rng), pick(rng), pick(rng));
    d.remove_link(a, b).unwrap();
    d.add_link(b, c).unwrap();
    d.add_link(c, a).unwrap();
    d.remove_link(c, a).unwrap();
    d.add_link(c, a).unwrap();
    if step.is_multiple_of(2) {
        let target = live_site(g, rng, 1, &[]);
        touched.push(target);
        let root = g.docs_of_site(target)[0];
        let n_new = if step.is_multiple_of(4) { 130 } else { 2 };
        for i in 0..n_new {
            let p = d
                .add_page(target, &format!("http://grow-{step}-{i}.test/"))
                .unwrap();
            d.add_link(root, p).unwrap();
            d.add_link(p, root).unwrap();
        }
    }
    if step % 3 == 2 {
        let from = live_site(g, rng, 1, &[]);
        let to = live_site(g, rng, 1, &[from]);
        touched.extend([from, to]);
        let x = g.docs_of_site(from)[0];
        let y = g.docs_of_site(to)[0];
        d.add_link(x, y).unwrap();
        d.add_link(y, x).unwrap();
        d.remove_link(g.docs_of_site(from)[0], g.docs_of_site(from)[0])
            .unwrap();
    }
    if step % 4 == 3 {
        let s = d.add_site(&format!("new-{step}.test"));
        let pages: Vec<DocId> = (0..3)
            .map(|i| {
                d.add_page(s, &format!("http://new-{step}.test/{i}"))
                    .unwrap()
            })
            .collect();
        d.add_link(pages[0], pages[1]).unwrap();
        d.add_link(pages[1], pages[2]).unwrap();
        d.add_link(pages[2], pages[2]).unwrap();
        let anchor_site = live_site(g, rng, 1, &[]);
        touched.push(anchor_site);
        let anchor = g.docs_of_site(anchor_site)[0];
        d.add_link(anchor, pages[0]).unwrap();
        d.add_link(pages[2], anchor).unwrap();
    }
    if step % 5 == 4 {
        let target = live_site(g, rng, 4, &touched);
        touched.push(target);
        let docs = g.docs_of_site(target);
        d.remove_page(docs[1 + rng.random_range(0..docs.len() - 1)])
            .unwrap();
    }
    if step % 6 == 5 && g.n_live_sites() > touched.len() + 2 {
        let doomed = live_site(g, rng, 1, &touched);
        d.remove_site(doomed).unwrap();
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every step of a seeded chain the patched graph matches a
    /// rebuild of its live links and a full-scan SiteGraph.
    #[test]
    fn apply_matches_rebuild_and_full_scan(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = campus(seed);
        check_against_oracles(&g)?;
        for step in 0..12 {
            let delta = step_delta(&g, step, &mut rng);
            let (next, _) = g.apply(&delta).expect("valid delta");
            check_against_oracles(&next)?;
            g = next;
        }
        prop_assert!(g.has_tombstones(), "the chain removes pages and sites");
    }
}
