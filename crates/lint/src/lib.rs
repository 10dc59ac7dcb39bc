//! `mobic-lint`: a zero-external-dependency static-analysis pass for
//! the workspace invariant that clippy cannot check: the steady-state
//! loop allocates nothing.
//!
//! Clippy enforces the per-line bans (`clippy.toml`'s
//! `disallowed-types`/`disallowed-methods`, and the panic lints the
//! crates deny in their `lib.rs`); workspace tests pin the dependency
//! graph, the lockfile and the licenses. What clippy cannot see is a
//! property of a *region* or a *call chain*: an allocation inside a
//! `lint:hot-path` region, directly or any number of calls down. That
//! is this crate's.
//!
//! The analysis runs in two phases. Phase 1 is per-file: [`lexer`]
//! (code/comment shadows) → [`rules`] (hot-path regions + `lint:`
//! directives). Phase 2 is flow-aware: [`graph`] (function items +
//! conservative intra-workspace call graph) → [`flow`] (fixpoint
//! reachability for `hot-path-call-alloc`, with witness chains).
//! [`baseline`] diffs findings against a checked-in inventory so CI
//! fails only on *new* findings, and [`report`] renders human and
//! `--graph-json` output. See `DESIGN.md` §8 for the rule catalog and
//! suppression policy.

#![warn(missing_docs)]

pub mod baseline;
pub mod flow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;

pub use rules::{rules_for_path, scan_source, Finding, RuleId, ALL_RULES};

use std::path::{Path, PathBuf};

/// The result of scanning a workspace: every finding (suppressed ones
/// included, so the exception inventory is auditable), plus scan
/// metadata.
#[derive(Debug)]
pub struct Analysis {
    /// All findings, in file-walk order (per-file rules) followed by
    /// graph/flow findings.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of function items in the call graph.
    pub functions: usize,
    /// Non-fatal notes (stale baseline entries).
    pub notes: Vec<String>,
}

impl Analysis {
    /// `true` if no unsuppressed, unbaselined finding remains.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.findings.iter().all(|f| f.suppressed || f.baselined)
    }
}

/// Collects every `.rs` file under `root` that the scanner should
/// look at, as workspace-relative paths with `/` separators, sorted
/// for deterministic output.
///
/// `target/`, VCS metadata, and the lint fixtures are skipped here;
/// finer-grained scoping (test trees, per-crate rule sets) happens in
/// [`rules::rules_for_path`].
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn discover_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let name = name.as_deref().unwrap_or("");
            if path.is_dir() {
                if name.starts_with('.') || name == "target" || name == "fixtures" {
                    continue;
                }
                walk(&path, root, out)?;
            } else if name.ends_with(".rs") {
                out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    Ok(out)
}

/// `true` if a workspace-relative path participates in the call
/// graph: crate library/binary sources only (`crates/<name>/src/…`),
/// minus the linter itself. Test trees, benches, examples, and the
/// facade `src/lib.rs` stay out — nothing in a crate's `src/` can call
/// into them, and their helpers must not capture bare-name resolution.
#[must_use]
pub fn graph_eligible(rel: &str) -> bool {
    rules::crate_of_path(rel).is_some() && !rules::is_linter_path(rel)
}

/// Runs the full analysis over a workspace root and returns the
/// findings together with the call graph (for `--graph-json`).
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn analyze_workspace(root: &Path) -> std::io::Result<(Analysis, graph::Graph)> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    let mut graph_files: Vec<(String, String)> = Vec::new();
    for rel in discover_sources(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let applicable = rules::rules_for_path(&rel_str);
        let eligible = graph_eligible(&rel_str);
        if applicable.is_empty() && !eligible {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel))?;
        if !applicable.is_empty() {
            files_scanned += 1;
            findings.extend(scan_source(&rel_str, &source, &applicable));
        }
        if eligible {
            graph_files.push((rel_str, source));
        }
    }
    let call_graph = graph::build(&graph_files);
    findings.extend(call_graph.findings.iter().cloned());
    findings.extend(flow::check(&call_graph));

    Ok((
        Analysis {
            findings,
            files_scanned,
            functions: call_graph.fns.len(),
            notes: Vec::new(),
        },
        call_graph,
    ))
}

/// Runs the full analysis over a workspace root: every source rule on
/// every discovered file and `hot-path-call-alloc` over the call
/// graph.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Analysis> {
    analyze_workspace(root).map(|(analysis, _)| analysis)
}
