//! Web-graph substrate for layered ranking.
//!
//! The paper's Section 3 works with two granularities of the Web:
//!
//! * the **DocGraph** `G_D(V_D, E_D)` — vertices are Web documents, edges
//!   are hyperlinks ([`docgraph::DocGraph`]);
//! * the **SiteGraph** `G_S(V_S, E_S)` — vertices are Web sites, and the
//!   weight of a SiteLink counts the document-level links between two sites
//!   ([`sitegraph::SiteGraph`]).
//!
//! This crate provides both, plus:
//!
//! * [`delta`] — validated, composable structural mutations
//!   ([`delta::GraphDelta`]) with consistent renumbering and
//!   tombstone-based removal under
//!   [`DocGraph::apply`](docgraph::DocGraph::apply) — the substrate of
//!   incremental re-ranking under Web churn — plus the explicit
//!   [`compact_ids`](docgraph::DocGraph::compact_ids) densification step
//!   and its [`remap::IdRemap`] table;
//! * [`url`] — extraction of the owning site from document URLs;
//! * [`generator`] — deterministic synthetic web-graph generators,
//!   including the **campus-web model** that substitutes for the paper's
//!   (unavailable) EPFL crawl: Zipf site sizes, hierarchical intra-site
//!   structure, hub-concentrated inter-site links, and injected intra-site
//!   spam farms modeled on the two structures the paper dissects;
//! * [`io`] — a hand-rolled plain-text snapshot format with round-trip
//!   guarantees;
//! * [`stats`] — degree and size statistics for experiment tables.
//!
//! # Example
//!
//! ```
//! use lmm_graph::docgraph::DocGraphBuilder;
//! use lmm_graph::sitegraph::{SiteGraph, SiteGraphOptions};
//!
//! # fn main() -> Result<(), lmm_graph::GraphError> {
//! let mut b = DocGraphBuilder::new();
//! let a = b.add_doc("www.a.edu", "http://www.a.edu/");
//! let a2 = b.add_doc("www.a.edu", "http://www.a.edu/x");
//! let c = b.add_doc("www.c.edu", "http://www.c.edu/");
//! b.add_link(a, a2)?;
//! b.add_link(a2, c)?;
//! let g = b.build();
//! let s = SiteGraph::from_doc_graph(&g, &SiteGraphOptions::default());
//! assert_eq!(g.n_docs(), 3);
//! assert_eq!(s.n_sites(), 2);
//! # Ok(())
//! # }
//! ```

mod blocks;
pub mod crawler;
pub mod delta;
pub mod docgraph;
pub mod error;
pub mod generator;
pub mod ids;
pub mod io;
pub mod remap;
pub mod sharding;
pub mod sitegraph;
pub mod stats;
pub mod url;

pub use delta::{AppliedDelta, GraphDelta};
pub use docgraph::{DocGraph, DocGraphBuilder};
pub use error::{GraphError, Result};
pub use generator::CampusWebConfig;
pub use ids::{DocId, SiteId};
pub use remap::IdRemap;
pub use sharding::ShardMap;
pub use sitegraph::{ranking_site_graph, SiteGraph, SiteGraphOptions};
