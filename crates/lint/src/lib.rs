//! `mobic-lint`: a zero-external-dependency static-analysis pass for
//! the steady-state loop's allocation discipline.
//!
//! Clippy enforces the per-line bans (`clippy.toml`'s
//! `disallowed-types`/`disallowed-methods`, and the panic lints the
//! crates deny in their `lib.rs`); workspace tests pin the dependency
//! graph, the lockfile and the licenses; and the tier-1 test
//! `tests/steady_state_allocations.rs` measures that the Hello path
//! allocates nothing once a network has converged. What is left here
//! is a property of a *region*: an allocation written inside a
//! `lint:hot-path` region.
//!
//! [`lexer`] splits each file into code and comment shadows, and
//! [`rules`] reads the hot-path regions and `lint:` directives from
//! them. [`baseline`] diffs findings against a checked-in inventory so
//! CI fails only on *new* findings, and [`report`] renders them. See
//! `DESIGN.md` §8 for the rule catalog and suppression policy.

#![warn(missing_docs)]

pub mod baseline;
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
    /// All findings, in file-walk order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
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

/// Runs every source rule on every discovered file of a workspace
/// root.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn scan_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for rel in discover_sources(root)? {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let applicable = rules::rules_for_path(&rel_str);
        if applicable.is_empty() {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel))?;
        files_scanned += 1;
        findings.extend(scan_source(&rel_str, &source, &applicable));
    }
    Ok(Analysis {
        findings,
        files_scanned,
        notes: Vec::new(),
    })
}
