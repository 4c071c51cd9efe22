//! The repository benchmark.
//!
//! One command per workload sets up the 100k-page campus graph from a seed,
//! drives open-loop load through the ranking and serving crates for a fixed
//! time, checks every answer it can, and prints each metric by name with
//! its unit. An untraced run prints the end-to-end metrics; a traced run
//! records spans around every layer call the benchmark makes and prints the
//! per-layer metrics instead.
//!
//! Run one workload from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn-fresh --seed 1 --seconds 20 --trace 0
//! ```

pub mod deltas;
pub mod drive;
pub mod load;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
