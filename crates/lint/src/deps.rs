//! The `dep-policy` rule: offline checks over `Cargo.lock` and the
//! workspace manifests.
//!
//! Two invariants:
//!
//! 1. **No duplicate versions.** A package resolved at two versions
//!    means two majors (cargo unifies semver-compatible requirements),
//!    which bloats builds and — worse for this workspace — risks two
//!    copies of an RNG or serializer with subtly different behavior.
//! 2. **License allowlist.** Every workspace member's `license` field
//!    must appear in `[workspace.metadata.mobic-lint] allowed-licenses`
//!    in the root manifest.
//!
//! Everything is parsed with a deliberately small line-oriented TOML
//! subset (section headers + `key = "value"` / `key = [..]` lines),
//! which is exactly the shape cargo emits for lockfiles and the shape
//! this workspace's hand-written manifests use.

use crate::rules::{Finding, RuleId};
use std::path::Path;

/// One `[[package]]` entry parsed from a lockfile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockPackage {
    /// Package name.
    pub name: String,
    /// Resolved version string.
    pub version: String,
    /// 1-based line of the `[[package]]` header, for diagnostics.
    pub line: usize,
}

/// Parses the `[[package]]` entries out of `Cargo.lock` text.
#[must_use]
pub fn parse_lockfile(text: &str) -> Vec<LockPackage> {
    let mut packages = Vec::new();
    let mut current: Option<LockPackage> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line == "[[package]]" {
            if let Some(p) = current.take() {
                if !p.name.is_empty() {
                    packages.push(p);
                }
            }
            current = Some(LockPackage {
                name: String::new(),
                version: String::new(),
                line: idx + 1,
            });
        } else if line.starts_with('[') {
            // Some other section (e.g. `[metadata]`) ends the entry.
            if let Some(p) = current.take() {
                if !p.name.is_empty() {
                    packages.push(p);
                }
            }
        } else if let Some(p) = current.as_mut() {
            if let Some(v) = parse_str_assignment(line, "name") {
                p.name = v;
            } else if let Some(v) = parse_str_assignment(line, "version") {
                p.version = v;
            }
        }
    }
    if let Some(p) = current.take() {
        if !p.name.is_empty() {
            packages.push(p);
        }
    }
    packages
}

/// Parses `key = "value"` and returns the value, if `line` assigns
/// exactly `key`.
fn parse_str_assignment(line: &str, key: &str) -> Option<String> {
    let rest = line.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Findings for packages resolved at more than one version.
#[must_use]
pub fn duplicate_version_findings(lock_rel_path: &str, packages: &[LockPackage]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut sorted: Vec<&LockPackage> = packages.iter().collect();
    sorted.sort_by(|a, b| (&a.name, &a.version).cmp(&(&b.name, &b.version)));
    for pair in sorted.windows(2) {
        if pair[0].name == pair[1].name && pair[0].version != pair[1].version {
            findings.push(Finding {
                rule: RuleId::DepPolicy,
                file: lock_rel_path.to_string(),
                line: pair[1].line,
                message: format!(
                    "package `{}` is resolved at two versions ({} and {}); unify the \
                     requirements so one copy serves the whole graph",
                    pair[1].name, pair[0].version, pair[1].version
                ),
                suppressed: false,
                reason: None,
                witness: Vec::new(),
                baselined: false,
            });
        }
    }
    findings
}

/// A tiny line-oriented view of a manifest: section-aware lookup of
/// string and string-array values.
pub struct Manifest {
    /// `(section, key, value, line)` for `key = "value"` entries.
    strings: Vec<(String, String, String, usize)>,
    /// `(section, key, values, line)` for `key = [ "a", "b" ]` entries.
    arrays: Vec<(String, String, Vec<String>, usize)>,
    /// `(section, key, line)` for `key.workspace = true` entries.
    workspace_inherited: Vec<(String, String, usize)>,
}

impl Manifest {
    /// Parses manifest text. Multi-line arrays are joined until the
    /// closing `]`.
    #[must_use]
    pub fn parse(text: &str) -> Manifest {
        let mut m = Manifest {
            strings: Vec::new(),
            arrays: Vec::new(),
            workspace_inherited: Vec::new(),
        };
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line = strip_toml_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') && line.ends_with(']') {
                section = line.trim_matches(['[', ']']).to_string();
                continue;
            }
            let Some(eq) = line.find('=') else { continue };
            let key = line[..eq].trim().to_string();
            let value = line[eq + 1..].trim().to_string();
            if let Some(base) = key.strip_suffix(".workspace") {
                if value == "true" {
                    m.workspace_inherited
                        .push((section.clone(), base.to_string(), idx + 1));
                }
            } else if value.starts_with('[') {
                let mut joined = value.clone();
                while !joined.contains(']') {
                    let Some((_, next)) = lines.next() else { break };
                    joined.push(' ');
                    joined.push_str(strip_toml_comment(next).trim());
                }
                m.arrays
                    .push((section.clone(), key, parse_string_array(&joined), idx + 1));
            } else if let Some(v) = parse_quoted(&value) {
                m.strings.push((section.clone(), key, v, idx + 1));
            }
        }
        m
    }

    /// Looks up a string value, returning `(value, line)`.
    #[must_use]
    pub fn get_str(&self, section: &str, key: &str) -> Option<(&str, usize)> {
        self.strings
            .iter()
            .find(|(s, k, _, _)| s == section && k == key)
            .map(|(_, _, v, l)| (v.as_str(), *l))
    }

    /// Looks up a string-array value.
    #[must_use]
    pub fn get_array(&self, section: &str, key: &str) -> Option<&[String]> {
        self.arrays
            .iter()
            .find(|(s, k, _, _)| s == section && k == key)
            .map(|(_, _, v, _)| v.as_slice())
    }

    /// `true` if `section` contains `key.workspace = true`.
    #[must_use]
    pub fn inherits(&self, section: &str, key: &str) -> bool {
        self.workspace_inherited
            .iter()
            .any(|(s, k, _)| s == section && k == key)
    }
}

fn strip_toml_comment(line: &str) -> &str {
    // Good enough for this workspace's manifests: `#` inside quoted
    // values does not occur.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_quoted(value: &str) -> Option<String> {
    let rest = value.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

fn parse_string_array(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = value;
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        out.push(rest[..close].to_string());
        rest = &rest[close + 1..];
    }
    out
}

/// Runs the full `dep-policy` rule against a workspace root.
///
/// Returns `(findings, notes)`; notes report non-fatal conditions
/// (most importantly an absent `Cargo.lock`, which is expected for a
/// library-style workspace that has never been built with a reachable
/// registry).
#[must_use]
pub fn check(root: &Path) -> (Vec<Finding>, Vec<String>) {
    let mut findings = Vec::new();
    let mut notes = Vec::new();

    match std::fs::read_to_string(root.join("Cargo.lock")) {
        Ok(text) => {
            let packages = parse_lockfile(&text);
            findings.extend(duplicate_version_findings("Cargo.lock", &packages));
        }
        Err(_) => {
            notes.push(
                "dep-policy: no Cargo.lock at the workspace root; duplicate-version \
                 check skipped (run `cargo generate-lockfile` to enable it)"
                    .to_string(),
            );
        }
    }

    let Ok(root_text) = std::fs::read_to_string(root.join("Cargo.toml")) else {
        findings.push(Finding {
            rule: RuleId::DepPolicy,
            file: "Cargo.toml".to_string(),
            line: 1,
            message: "workspace root Cargo.toml is unreadable".to_string(),
            suppressed: false,
            reason: None,
            witness: Vec::new(),
            baselined: false,
        });
        return (findings, notes);
    };
    let root_manifest = Manifest::parse(&root_text);
    let Some(allowed) =
        root_manifest.get_array("workspace.metadata.mobic-lint", "allowed-licenses")
    else {
        findings.push(Finding {
            rule: RuleId::DepPolicy,
            file: "Cargo.toml".to_string(),
            line: 1,
            message: "missing `[workspace.metadata.mobic-lint] allowed-licenses` — the \
                      license allowlist must be declared in the root manifest"
                .to_string(),
            suppressed: false,
            reason: None,
            witness: Vec::new(),
            baselined: false,
        });
        return (findings, notes);
    };
    let workspace_license = root_manifest.get_str("workspace.package", "license");

    // Every member manifest (plus the root package, if any) must carry
    // an allowlisted license, directly or via workspace inheritance.
    let mut manifests: Vec<(String, String)> = Vec::new();
    manifests.push(("Cargo.toml".to_string(), root_text.clone()));
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                let rel = format!(
                    "crates/{}/Cargo.toml",
                    dir.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default()
                );
                manifests.push((rel, text));
            }
        }
    }

    for (rel, text) in &manifests {
        let m = Manifest::parse(text);
        let license = if m.inherits("package", "license") {
            workspace_license
        } else {
            m.get_str("package", "license")
        };
        match license {
            Some((lic, line)) if allowed.iter().any(|a| a == lic) => {
                let _ = line;
            }
            Some((lic, line)) => {
                findings.push(Finding {
                    rule: RuleId::DepPolicy,
                    file: rel.clone(),
                    line,
                    message: format!(
                        "license `{lic}` is not on the allowlist \
                         (`[workspace.metadata.mobic-lint] allowed-licenses`)"
                    ),
                    suppressed: false,
                    reason: None,
                    witness: Vec::new(),
                    baselined: false,
                });
            }
            None => {
                // Only flag manifests that declare a package at all
                // (the root may be a virtual workspace).
                if text.contains("[package]") {
                    findings.push(Finding {
                        rule: RuleId::DepPolicy,
                        file: rel.clone(),
                        line: 1,
                        message: "package declares no license (directly or via \
                                  `license.workspace = true`)"
                            .to_string(),
                        suppressed: false,
                        reason: None,
                        witness: Vec::new(),
                        baselined: false,
                    });
                }
            }
        }
    }

    (findings, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCK_DUP: &str = r#"
version = 3

[[package]]
name = "rand"
version = "0.7.3"
source = "registry"

[[package]]
name = "rand"
version = "0.8.5"
source = "registry"

[[package]]
name = "serde"
version = "1.0.200"
"#;

    #[test]
    fn lockfile_parses_packages() {
        let p = parse_lockfile(LOCK_DUP);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].name, "rand");
        assert_eq!(p[0].version, "0.7.3");
        assert_eq!(p[2].name, "serde");
    }

    #[test]
    fn duplicate_versions_are_flagged() {
        let p = parse_lockfile(LOCK_DUP);
        let f = duplicate_version_findings("Cargo.lock", &p);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("rand"));
        assert!(f[0].message.contains("0.7.3"));
        assert!(f[0].message.contains("0.8.5"));
    }

    #[test]
    fn clean_lockfile_has_no_findings() {
        let clean = "[[package]]\nname = \"a\"\nversion = \"1.0.0\"\n\n[[package]]\nname = \"b\"\nversion = \"1.0.0\"\n";
        let p = parse_lockfile(clean);
        assert!(duplicate_version_findings("Cargo.lock", &p).is_empty());
    }

    #[test]
    fn manifest_lookup_works() {
        let text = "\
[package]
name = \"demo\"
license = \"MIT\"
edition.workspace = true

[workspace.metadata.mobic-lint]
allowed-licenses = [
    \"MIT\",
    \"MIT OR Apache-2.0\", # trailing comment
]
";
        let m = Manifest::parse(text);
        assert_eq!(m.get_str("package", "license").map(|(v, _)| v), Some("MIT"));
        assert!(m.inherits("package", "edition"));
        assert_eq!(
            m.get_array("workspace.metadata.mobic-lint", "allowed-licenses"),
            Some(&["MIT".to_string(), "MIT OR Apache-2.0".to_string()][..])
        );
    }
}
