//! The delta streams, generated in set-up from the seed.
//!
//! A chain is built by applying each delta to a scratch copy of the graph,
//! so delta `i` is valid against the graph every earlier delta produced.
//! The writer replays the same chain during the run.

use lmm_graph::delta::GraphDelta;
use lmm_graph::{DocGraph, DocId, GraphError, SiteId};

use crate::load::SplitMix;

/// Largest site a drop-site step may remove. Removing one of the few
/// thousand-page head sites would make a handful of steps dominate the
/// chain; mid-tail sites keep the steps comparable.
const MAX_DROPPED_SITE: usize = 400;

/// A generated chain and the graph it ends on.
#[derive(Debug)]
pub struct DeltaChain {
    /// The deltas, in replay order.
    pub deltas: Vec<GraphDelta>,
    /// A label per delta, e.g. `rewire+grow+cross`.
    pub kinds: Vec<String>,
    /// The graph after every delta is applied.
    pub last: DocGraph,
}

/// Builds `n` deltas starting from `base`. Every step rewires one site.
/// When `cycling`, every 2nd step also grows a site, every 3rd adds a
/// cross-site link (SiteRank reruns), every 4th adds a new site, every 5th
/// removes a page and every 6th removes a whole site, so the three publish
/// grades (rebuild, refresh, repin) all occur.
///
/// # Errors
/// Propagates delta construction or application errors (none for a
/// generated campus graph).
pub fn build_chain(
    base: &DocGraph,
    n: usize,
    seed: u64,
    cycling: bool,
) -> Result<DeltaChain, GraphError> {
    let mut rng = SplitMix::new(seed, 0xDE17A);
    let mut graph = base.clone();
    let mut deltas = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    for step in 0..n {
        let (delta, kind) = if cycling {
            cycling_step(&graph, step, &mut rng)?
        } else {
            let mut delta = GraphDelta::for_graph(&graph);
            rewire(&graph, &mut delta, &mut rng)?;
            (delta, "rewire".to_string())
        };
        graph = graph.apply(&delta)?.0;
        deltas.push(delta);
        kinds.push(kind);
    }
    Ok(DeltaChain {
        deltas,
        kinds,
        last: graph,
    })
}

/// The first live site at or after `start` (cyclic) with at least
/// `min_docs` live documents that `ok` accepts.
fn live_site(
    graph: &DocGraph,
    start: usize,
    min_docs: usize,
    ok: impl Fn(SiteId) -> bool,
) -> SiteId {
    let n = graph.n_sites();
    (0..n)
        .map(|i| SiteId((start + i) % n))
        .find(|&s| graph.is_live_site(s) && graph.site_size(s) >= min_docs && ok(s))
        .expect("the chain never drains the graph")
}

/// Removes one link of a random site and adds two, among three of its
/// documents.
fn rewire(
    graph: &DocGraph,
    delta: &mut GraphDelta,
    rng: &mut SplitMix,
) -> Result<SiteId, GraphError> {
    let site = live_site(graph, rng.below(graph.n_sites()), 3, |_| true);
    let docs = graph.docs_of_site(site);
    let a = docs[rng.below(docs.len())];
    let others: Vec<DocId> = docs.iter().copied().filter(|&d| d != a).collect();
    let b = others[rng.below(others.len())];
    let c = others
        .iter()
        .copied()
        .find(|&d| d != b)
        .expect("three documents");
    delta.remove_link(a, b)?;
    delta.add_link(b, c)?;
    delta.add_link(c, a)?;
    Ok(site)
}

fn cycling_step(
    graph: &DocGraph,
    step: usize,
    rng: &mut SplitMix,
) -> Result<(GraphDelta, String), GraphError> {
    let n_sites = graph.n_sites();
    let mut delta = GraphDelta::for_graph(graph);
    let mut kinds = vec!["rewire"];
    // Sites this step edits: a drop-site pick must avoid them, since apply
    // rejects removing a site the same delta also edits.
    let mut touched = vec![rewire(graph, &mut delta, rng)?];

    if step.is_multiple_of(2) {
        kinds.push("grow");
        let target = live_site(graph, rng.below(n_sites), 1, |_| true);
        touched.push(target);
        let root = graph.docs_of_site(target)[0];
        for i in 0..2 {
            let p = delta.add_page(target, &format!("http://grow-{step}-{i}.bench/"))?;
            delta.add_link(root, p)?;
            delta.add_link(p, root)?;
        }
    }
    if step % 3 == 2 {
        kinds.push("cross");
        let from = live_site(graph, rng.below(n_sites), 1, |_| true);
        let to = live_site(graph, rng.below(n_sites), 1, |s| s != from);
        touched.extend([from, to]);
        let a = graph.docs_of_site(from)[0];
        let b = graph.docs_of_site(to)[0];
        delta.add_link(a, b)?;
    }
    if step % 4 == 3 {
        kinds.push("new-site");
        let s = delta.add_site(&format!("new-{step}.bench"));
        let pages = (0..4)
            .map(|i| delta.add_page(s, &format!("http://new-{step}.bench/{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        for w in pages.windows(2) {
            delta.add_link(w[0], w[1])?;
        }
        delta.add_link(pages[3], pages[0])?;
        let anchor_site = live_site(graph, rng.below(n_sites), 1, |_| true);
        touched.push(anchor_site);
        let anchor = graph.docs_of_site(anchor_site)[0];
        delta.add_link(anchor, pages[0])?;
        delta.add_link(pages[0], anchor)?;
    }
    if step % 5 == 4 {
        kinds.push("shrink");
        let target = live_site(graph, rng.below(n_sites), 4, |s| !touched.contains(&s));
        touched.push(target);
        let docs = graph.docs_of_site(target);
        // Never the root page, which other steps link through.
        delta.remove_page(docs[1 + rng.below(docs.len() - 1)])?;
    }
    if step % 6 == 5 {
        kinds.push("drop-site");
        let doomed = live_site(graph, rng.below(n_sites), 1, |s| {
            !touched.contains(&s) && graph.site_size(s) <= MAX_DROPPED_SITE
        });
        delta.remove_site(doomed)?;
    }
    Ok((delta, kinds.join("+")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmm_graph::generator::CampusWebConfig;

    fn small_graph() -> DocGraph {
        let mut cfg = CampusWebConfig::small();
        cfg.spam_farms.clear();
        cfg.generate().expect("small campus graph")
    }

    #[test]
    fn chains_repeat_per_seed() {
        let g = small_graph();
        let a = build_chain(&g, 12, 5, true).expect("chain");
        let b = build_chain(&g, 12, 5, true).expect("chain");
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.last.n_links(), b.last.n_links());
        assert_eq!(a.last.n_live_docs(), b.last.n_live_docs());
        let c = build_chain(&g, 12, 6, true).expect("chain");
        assert!(a.last.n_links() != c.last.n_links() || a.last.dead_sites() != c.last.dead_sites());
    }

    #[test]
    fn cycling_covers_every_mutation() {
        let g = small_graph();
        let chain = build_chain(&g, 12, 1, true).expect("chain");
        let all = chain.kinds.join("+");
        for kind in ["rewire", "grow", "cross", "new-site", "shrink", "drop-site"] {
            assert!(all.contains(kind), "{kind} missing from {all}");
        }
        assert_eq!(chain.last.dead_sites().len(), 2);
        assert!(chain.last.n_sites() > g.n_sites());
    }

    #[test]
    fn rewire_chains_keep_the_shape() {
        let g = small_graph();
        let chain = build_chain(&g, 12, 1, false).expect("chain");
        assert!(chain.kinds.iter().all(|k| k == "rewire"));
        assert_eq!(chain.last.n_sites(), g.n_sites());
        assert_eq!(chain.last.n_live_docs(), g.n_live_docs());
    }
}
