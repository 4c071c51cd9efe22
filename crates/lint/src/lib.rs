//! `lmm-lint` — a workspace invariant checker for the lmm crates.
//!
//! The repo's value proposition is its correctness claims: bitwise
//! determinism at any thread count, epoch-consistent serving, a total
//! wire decoder, zero wrong-epoch responses under chaos. Tests exercise
//! those claims; this crate makes the *source-level disciplines behind
//! them* machine-checked, with no dependency on `syn` or crates.io — a
//! hand-rolled lexer ([`lexer::MaskedFile`]) blanks comments and string
//! literals so rule passes can scan for tokens without false positives,
//! and tracks `fn` spans, `#[cfg(test)]` regions, and
//! `// lint: allow(rule, "reason")` annotations.
//!
//! # Rules
//!
//! | key | pass | enforces |
//! |-----|------|----------|
//! | `panic` | [`rules::panics`] | hot-path modules (`serve/{router,shard}`, `cluster/{node,client,transport,wire,retry}`, `par`) contain no unannotated `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` |
//! | `wire_tags` | [`rules::wire`] | tag bytes in `cluster/src/wire.rs` are unique, encode/decode arms agree, and both match the committed golden registry |
//! | `lock_order` | [`rules::locks`] | nested `.lock()`/`.read()`/`.write()` acquisitions follow the declared per-file partial order (no deadlock-shaped inversions) |
//! | `lock_free` | [`rules::locks`] | the declared serve read-path functions (`serve/router.rs` reads, cross-shard gathers included) contain no blocking synchronization at all — no `.lock()`/`.read()`/`.write()`, no `Mutex`/`RwLock` |
//! | `relaxed` | [`rules::atomics`] | `Ordering::Relaxed` only on allowlisted counter names; epochs, flags, and shutdown bits need a stronger ordering or a reasoned annotation |
//! | `nondet` | [`rules::det`] | the deterministic kernels (`core`, `linalg`, `rank`, `graph::delta`) never touch `Instant::now`/`SystemTime`/`RandomState` |
//!
//! Every rule exempts `#[cfg(test)]` regions, and every rule honors
//! `// lint: allow(<key>, "reason")` on the offending line or on the
//! comment block directly above it. The reason string is mandatory — an
//! allow without one does not count.
//!
//! # Entry points
//!
//! * `cargo run -p lmm-lint` — check the workspace, exit non-zero on any
//!   violation (`-- --update-golden` regenerates the wire-tag registry).
//! * `cargo test -p lmm-lint` — fixture tests for each rule plus a
//!   `workspace_is_clean` test that runs the full pass, so plain
//!   `cargo test` catches violations locally before CI does.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use config::LintConfig;
use lexer::MaskedFile;
use report::Violation;

/// Recursively collects `.rs` files under the configured scan roots,
/// returning workspace-relative forward-slash paths, sorted.
#[must_use]
pub fn collect_files(root: &Path, cfg: &LintConfig) -> Vec<String> {
    let mut files = Vec::new();
    for scan in cfg.scan_roots {
        walk(&root.join(scan), root, &mut files);
    }
    files.retain(|f| {
        !cfg.skip_prefixes.iter().any(|p| f.starts_with(p))
            && !cfg.skip_contains.iter().any(|s| f.contains(s))
    });
    files.sort();
    files
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Runs every rule over one already-lexed file. `golden` is the wire
/// registry contents when `rel` is the wire file.
#[must_use]
pub fn check_file(
    file: &MaskedFile,
    rel: &str,
    cfg: &LintConfig,
    golden: Option<&str>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if cfg.hot_path.contains(&rel) {
        out.extend(rules::panics::check(file, rel));
    }
    if let Some(order) = cfg.lock_orders.iter().find(|o| o.file == rel) {
        out.extend(rules::locks::check(file, rel, order));
    }
    if let Some(policy) = cfg.lock_free.iter().find(|p| p.file == rel) {
        out.extend(rules::locks::check_lock_free(file, rel, policy));
    }
    if !cfg
        .relaxed_exempt_prefixes
        .iter()
        .any(|p| rel.starts_with(p))
    {
        out.extend(rules::atomics::check(file, rel, cfg));
    }
    if cfg.det_prefixes.iter().any(|p| rel.starts_with(p)) {
        out.extend(rules::det::check(file, rel, cfg));
    }
    if rel == cfg.wire_file {
        out.extend(rules::wire::check(file, rel, golden, cfg.wire_golden));
    }
    out
}

/// Runs the full pass over the workspace at `root`. Violations come back
/// sorted by file then line.
#[must_use]
pub fn run_workspace(root: &Path, cfg: &LintConfig) -> Vec<Violation> {
    let golden = std::fs::read_to_string(root.join(cfg.wire_golden)).ok();
    let mut out = Vec::new();
    for rel in collect_files(root, cfg) {
        let Ok(source) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let file = MaskedFile::new(&source);
        out.extend(check_file(&file, &rel, cfg, golden.as_deref()));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Regenerates the golden wire-tag registry from the current codec.
/// Returns the path written.
///
/// # Errors
/// Propagates io errors from reading the codec or writing the registry.
pub fn update_golden(root: &Path, cfg: &LintConfig) -> std::io::Result<PathBuf> {
    let source = std::fs::read_to_string(root.join(cfg.wire_file))?;
    let file = MaskedFile::new(&source);
    let golden = rules::wire::render_golden(&rules::wire::encode_tags(&file));
    let path = root.join(cfg.wire_golden);
    std::fs::write(&path, golden)?;
    Ok(path)
}

/// The workspace root, resolved from this crate's own manifest dir so
/// the bin and tests work from any cwd.
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}
