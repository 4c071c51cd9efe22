//! Rule `lock_order`: lock acquisition discipline.
//!
//! For each file with a declared order (see [`crate::config`]), this pass
//! walks every `fn` body, finds `.lock()` / `.read()` / `.write()` calls
//! on the named locks, works out how long each guard lives, and flags any
//! acquisition of a lower-tier lock while a higher-tier guard is held —
//! the classic AB/BA deadlock shape.
//!
//! Guard lifetime heuristic (no type information, so approximate — it
//! over-approximates `let`-bound guards to the end of the enclosing
//! block, and treats guards consumed by non-poison adapters like
//! `.clone()` as transient):
//!
//! * `let g = x.lock().unwrap();` — held to the end of the innermost
//!   enclosing block (poison adapters `unwrap`/`expect`/`map_err`/
//!   `unwrap_or_else` plus `?` return the guard itself);
//! * `match x.lock() { … }` / `if let Ok(g) = x.lock() { … }` — the
//!   scrutinee temporary is held to the end of that block;
//! * anything else (`x.lock().unwrap().field`, `drop(x.lock())`,
//!   `*x.write().unwrap() = v;`) — transient: dropped within the
//!   statement, but still checked against guards already held.
//!
//! Unknown receivers (`reader.read()` on an io stream) are ignored; only
//! names declared in a tier participate.
//!
//! This module also hosts the sibling rule `lock_free` (see
//! [`check_lock_free`]): for functions declared lock-free in
//! [`crate::config`], *any* blocking-synchronization token is a
//! violation — no receiver allowlist, no ordering to get right.

use crate::config::{LockFreePath, LockOrder};
use crate::lexer::MaskedFile;
use crate::report::Violation;
use crate::rules::token_positions;

const RULE: &str = "lock_order";
const LOCK_FREE_RULE: &str = "lock_free";

const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Poison/result adapters that return the guard itself; any other
/// chained call consumes it.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

struct Acquisition {
    /// Offset of the `.lock()` token.
    at: usize,
    /// Alias name the lock was acquired through.
    name: String,
    /// Tier index in the declared order (0 = must come first).
    rank: usize,
    /// Offset past which the guard is no longer held.
    held_until: usize,
}

pub fn check(file: &MaskedFile, path: &str, order: &LockOrder) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &file.fns {
        if file.in_test(f.body.start) {
            continue;
        }
        check_fn(file, path, order, f.body.clone(), &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

fn check_fn(
    file: &MaskedFile,
    path: &str,
    order: &LockOrder,
    body: std::ops::Range<usize>,
    out: &mut Vec<Violation>,
) {
    let masked = &file.masked;
    let mut acqs: Vec<Acquisition> = Vec::new();
    for token in ACQUIRE_TOKENS {
        let mut from = body.start;
        while let Some(off) = masked[from..body.end].find(token) {
            let at = from + off;
            from = at + token.len();
            let Some(name) = receiver_name(masked, at) else {
                continue;
            };
            let Some(rank) = order
                .tiers
                .iter()
                .position(|aliases| aliases.contains(&name.as_str()))
            else {
                continue;
            };
            let held_until = guard_extent(masked, at + token.len(), at, body.clone());
            acqs.push(Acquisition {
                at,
                name,
                rank,
                held_until,
            });
        }
    }
    acqs.sort_by_key(|a| a.at);

    let mut held: Vec<&Acquisition> = Vec::new();
    for a in &acqs {
        held.retain(|h| h.held_until > a.at);
        let line = file.line_of(a.at);
        if !file.allowed(RULE, line) {
            for h in &held {
                if a.rank < h.rank {
                    out.push(Violation::new(
                        RULE,
                        path,
                        line,
                        format!(
                            "`{}` acquired while `{}` (held since line {}) is still held; \
                             the declared order for this file puts `{}` first — release it \
                             or re-tier the locks in crates/lint/src/config.rs",
                            a.name,
                            h.name,
                            file.line_of(h.at),
                            a.name,
                        ),
                    ));
                    break;
                }
            }
        }
        if a.held_until > a.at {
            held.push(a);
        }
    }
}

/// Tokens whose appearance inside a declared lock-free function is a
/// violation: guard-producing calls plus the lock type names themselves
/// (a local `Mutex::new` is just as blocking as a field).
const BLOCKING_TOKENS: &[&str] = &[".lock()", ".read()", ".write()", "Mutex", "RwLock"];

/// Rule `lock_free`: the functions named in `policy` must contain no
/// blocking synchronization at all. Unlike [`check`], there is no
/// receiver filter — on a declared lock-free path even an io-looking
/// `.read()` is flagged, because the cost of a false positive (rename or
/// annotate) is tiny next to the cost of a mutex quietly returning to
/// the serve read path.
pub fn check_lock_free(file: &MaskedFile, path: &str, policy: &LockFreePath) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &file.fns {
        if file.in_test(f.body.start) || !policy.fns.contains(&f.name.as_str()) {
            continue;
        }
        for token in BLOCKING_TOKENS {
            for off in token_positions(&file.masked[f.body.clone()], token) {
                let at = f.body.start + off;
                let line = file.line_of(at);
                if file.allowed(LOCK_FREE_RULE, line) {
                    continue;
                }
                out.push(Violation::new(
                    LOCK_FREE_RULE,
                    path,
                    line,
                    format!(
                        "`{}` inside `{}`, which is declared lock-free: serve reads must \
                         complete while a publisher holds (or has poisoned) the gate — go \
                         through the ArcCell snapshot instead, or remove `{}` from the \
                         lock_free list in crates/lint/src/config.rs",
                        token, f.name, f.name,
                    ),
                ));
            }
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// The field/binding name the call is made on: the last path segment
/// before the `.` of `.lock()` (so `self.inner.gate.lock()` -> `gate`).
fn receiver_name(masked: &str, dot_at: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut j = dot_at;
    let mut end = dot_at;
    while j > 0 {
        let b = bytes[j - 1];
        if b.is_ascii_alphanumeric() || b == b'_' {
            j -= 1;
        } else {
            break;
        }
    }
    if j == end {
        return None;
    }
    std::mem::swap(&mut j, &mut end);
    Some(masked[end..j].to_string())
}

/// How long the guard produced at `after` (the offset just past the
/// acquire token at `acq_at`) stays alive. Returns `acq_at` when the
/// guard is transient.
fn guard_extent(
    masked: &str,
    mut after: usize,
    acq_at: usize,
    body: std::ops::Range<usize>,
) -> usize {
    let bytes = masked.as_bytes();
    // Consume the adapter chain: `?` and `.adapter( … )` repeatedly.
    loop {
        while after < body.end && bytes[after].is_ascii_whitespace() {
            after += 1;
        }
        if after >= body.end {
            return acq_at;
        }
        match bytes[after] {
            b'?' => after += 1,
            b'.' => {
                let mut k = after + 1;
                while k < body.end && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                let name_start = k;
                while k < body.end && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
                    k += 1;
                }
                let name = &masked[name_start..k];
                if !GUARD_ADAPTERS.contains(&name) {
                    return acq_at; // consumed by a non-guard method
                }
                while k < body.end && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k >= body.end || bytes[k] != b'(' {
                    return acq_at;
                }
                let mut depth = 0i32;
                while k < body.end {
                    match bytes[k] {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                after = k;
            }
            _ => break,
        }
    }
    match bytes[after] {
        b';' => {
            // Held only when the guard is bound: `let g = x.lock()…;`.
            let stmt_start = masked[body.start..acq_at]
                .rfind([';', '{', '}'])
                .map_or(body.start, |p| body.start + p + 1);
            let stmt = masked[stmt_start..acq_at].trim_start();
            if stmt.starts_with("let ") || stmt.starts_with("let\t") {
                enclosing_block_end(bytes, acq_at, body)
            } else {
                acq_at
            }
        }
        // Scrutinee of `match`/`if let`/`while let`: the temporary lives
        // to the end of the block that follows.
        b'{' => matching_close(bytes, after, body.end),
        _ => acq_at,
    }
}

/// End offset of the innermost `{ … }` block containing `pos`.
fn enclosing_block_end(bytes: &[u8], pos: usize, body: std::ops::Range<usize>) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let mut innermost_close = body.end;
    let mut k = body.start;
    while k < body.end {
        match bytes[k] {
            b'{' => stack.push(k),
            b'}' => {
                if let Some(open) = stack.pop() {
                    if open <= pos && pos < k {
                        innermost_close = k;
                        break;
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    innermost_close
}

/// Offset just past the `}` matching the `{` at `open`.
fn matching_close(bytes: &[u8], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < end {
        match bytes[k] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    end
}
