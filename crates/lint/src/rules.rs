//! The rule catalog and the per-file scanning engine.
//!
//! The per-file rules search the *code shadow* produced by
//! [`crate::lexer`] (so literals and comments can never trigger a
//! finding) for allocations inside `lint:hot-path` regions and for
//! malformed `lint:` directives. The per-line bans on hash containers,
//! ambient entropy, panics and raw writes are clippy's, configured in
//! `clippy.toml` and the crates' `#![deny(...)]`s. See `DESIGN.md` §8
//! for the rationale behind each rule and the suppression policy.

use crate::lexer::{split_lines, Line};

/// The stable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allocation written inside a `// lint:hot-path` region: the
    /// source-level half of the steady-state loop's zero-allocation
    /// guarantee, which `tests/steady_state_allocations.rs` measures.
    HotPathAlloc,
    /// A malformed lint directive (unknown rule in `lint:allow`,
    /// missing reason string). Not suppressible.
    Directive,
}

impl RuleId {
    /// The rule's kebab-case name as it appears in diagnostics and
    /// `lint:allow(...)` directives.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::Directive => "lint-directive",
        }
    }

    /// `true` for the rule that `lint:allow` may never cover:
    /// directive-syntax errors.
    #[must_use]
    pub fn unsuppressible(self) -> bool {
        self == RuleId::Directive
    }

    /// Parses a rule name as written in a `lint:allow(...)` directive.
    #[must_use]
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// Every rule, in catalog order.
pub const ALL_RULES: [RuleId; 2] = [RuleId::HotPathAlloc, RuleId::Directive];

/// One diagnostic produced by the analysis.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// `true` if a valid `lint:allow` directive covers this site.
    pub suppressed: bool,
    /// The mandatory reason string of the covering directive.
    pub reason: Option<String>,
    /// `true` if a `--baseline` file contains this finding — it stays
    /// visible in reports but does not fail the gate.
    pub baselined: bool,
}

impl Finding {
    /// A live (unsuppressed, unbaselined) finding.
    #[must_use]
    pub fn new(rule: RuleId, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            suppressed: false,
            reason: None,
            baselined: false,
        }
    }
}

/// A token the scanner searches for, with identifier-boundary flags.
struct Needle {
    pat: &'static str,
    /// Require a non-identifier char (or start of line) before the
    /// match.
    bound_left: bool,
    /// Require a non-identifier char (or end of line) after the match.
    bound_right: bool,
    msg: &'static str,
}

const fn needle(
    pat: &'static str,
    bound_left: bool,
    bound_right: bool,
    msg: &'static str,
) -> Needle {
    Needle {
        pat,
        bound_left,
        bound_right,
        msg,
    }
}

const HOT_ALLOC_NEEDLES: &[Needle] = &[
    needle(
        "Vec::new",
        true,
        false,
        "allocation in hot-path region: `Vec::new`",
    ),
    needle("vec!", true, false, "allocation in hot-path region: `vec!`"),
    needle(
        ".collect",
        false,
        true,
        "allocation in hot-path region: `.collect()`",
    ),
    needle(
        ".to_vec()",
        false,
        false,
        "allocation in hot-path region: `.to_vec()`",
    ),
    needle(
        ".to_string()",
        false,
        false,
        "allocation in hot-path region: `.to_string()`",
    ),
    needle(
        ".to_owned()",
        false,
        false,
        "allocation in hot-path region: `.to_owned()`",
    ),
    needle(
        "String::new",
        true,
        false,
        "allocation in hot-path region: `String::new`",
    ),
    needle(
        "String::from",
        true,
        false,
        "allocation in hot-path region: `String::from`",
    ),
    needle(
        "format!",
        true,
        false,
        "allocation in hot-path region: `format!`",
    ),
    needle(
        "Box::new",
        true,
        false,
        "allocation in hot-path region: `Box::new`",
    ),
    needle(
        "with_capacity",
        true,
        true,
        "allocation in hot-path region: `with_capacity`",
    ),
];

/// `true` for paths under the linter's own crate. The linter does not
/// scan itself: its source necessarily spells out directive syntax and
/// needle tokens in prose, and it is on no hot path. Its correctness
/// is carried by its own unit and fixture tests instead.
#[must_use]
fn is_linter_path(rel: &str) -> bool {
    rel.starts_with("crates/lint/")
}

/// Returns the rules that apply to a workspace-relative source path:
/// `hot-path-alloc` and `lint-directive` for every scanned file, or an
/// empty vector for paths the scanner skips entirely (test trees,
/// benches, fixtures, and the linter itself).
#[must_use]
pub fn rules_for_path(rel: &str) -> Vec<RuleId> {
    let rel = rel.replace('\\', "/");
    let skip = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/fixtures/")
        || rel.starts_with("target/")
        || is_linter_path(&rel);
    if skip {
        Vec::new()
    } else {
        vec![RuleId::HotPathAlloc, RuleId::Directive]
    }
}

/// A `lint:allow(rule): reason` directive parsed from a comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the directive suppresses.
    pub rule: RuleId,
    /// The mandatory justification string after the colon.
    pub reason: String,
}

/// Per-line directive state extracted before token scanning.
#[derive(Default)]
struct Directives {
    /// Valid allows, by 0-based line index.
    allows: Vec<Vec<Allow>>,
    /// `lint:hot-path` region membership, by 0-based line index.
    hot: Vec<bool>,
    /// Directive-syntax findings (unknown rule, missing reason,
    /// bad region nesting).
    findings: Vec<Finding>,
}

/// Parses every directive in `lines` and computes hot-region
/// membership. Region rules: regions may not nest, every opened
/// region must be closed in the same file, and a stray close is an
/// error. The marker lines themselves belong to the region, so a
/// violation on the same line as the marker is still caught.
///
/// A directive must be the **first** token of its comment
/// (`// lint:hot-path — rationale...`): a mid-sentence mention of the
/// syntax in prose is inert, so documentation can discuss directives
/// without triggering them.
fn parse_directives(file: &str, lines: &[Line]) -> Directives {
    let mut d = Directives {
        allows: vec![Vec::new(); lines.len()],
        hot: vec![false; lines.len()],
        findings: Vec::new(),
    };
    let mut open: Option<usize> = None;
    for (idx, line) in lines.iter().enumerate() {
        // The comment shadow blanks the `//`/`/*` markers, so trimming
        // leading whitespace (and doc-comment `!`/`/` leftovers never
        // reach here — they are part of the marker) yields the text.
        let comment = line.comment.trim_start();
        if comment.starts_with("lint:end-hot-path") {
            if open.is_none() {
                d.findings.push(Finding::new(
                    RuleId::HotPathAlloc,
                    file,
                    idx + 1,
                    "`lint:end-hot-path` without an open `lint:hot-path` region".to_string(),
                ));
            }
            d.hot[idx] = true;
            open = None;
        } else if comment.starts_with("lint:hot-path") {
            if let Some(at) = open {
                d.findings.push(Finding::new(
                    RuleId::HotPathAlloc,
                    file,
                    idx + 1,
                    format!(
                        "nested `lint:hot-path` region (previous one opened on line {} \
                         is still open)",
                        at + 1
                    ),
                ));
            }
            open = Some(idx);
        }
        if let Some(open_at) = open {
            if idx >= open_at {
                d.hot[idx] = true;
            }
        }
        // `lint:allow(rule): reason` — at comment start only, one per
        // comment (a trailing comment IS a comment of its own).
        if let Some(rest) = comment.strip_prefix("lint:allow") {
            'allow: {
                let Some(stripped) = rest.strip_prefix('(') else {
                    d.findings.push(directive_error(
                        file,
                        idx,
                        "malformed `lint:allow`: expected `lint:allow(<rule>): <reason>`",
                    ));
                    break 'allow;
                };
                let Some(close) = stripped.find(')') else {
                    d.findings.push(directive_error(
                        file,
                        idx,
                        "malformed `lint:allow`: missing `)` after the rule name",
                    ));
                    break 'allow;
                };
                let name = stripped[..close].trim();
                let after = &stripped[close + 1..];
                let Some(rule) = RuleId::from_name(name) else {
                    d.findings.push(directive_error(
                        file,
                        idx,
                        &format!("unknown rule `{name}` in `lint:allow`"),
                    ));
                    break 'allow;
                };
                if rule.unsuppressible() {
                    d.findings.push(directive_error(
                        file,
                        idx,
                        &format!("rule `{name}` cannot be suppressed with `lint:allow`"),
                    ));
                    break 'allow;
                }
                let reason = after
                    .strip_prefix(':')
                    .map(str::trim)
                    .unwrap_or("")
                    .to_string();
                if reason.is_empty() {
                    d.findings.push(directive_error(
                        file,
                        idx,
                        &format!(
                            "`lint:allow({name})` is missing its mandatory reason string \
                             (`lint:allow({name}): <why this site is exempt>`)"
                        ),
                    ));
                } else {
                    d.allows[idx].push(Allow { rule, reason });
                }
            }
        }
    }
    if let Some(at) = open {
        d.findings.push(Finding::new(
            RuleId::HotPathAlloc,
            file,
            at + 1,
            "`lint:hot-path` region is never closed (`lint:end-hot-path` missing)".to_string(),
        ));
    }
    d
}

fn directive_error(file: &str, idx: usize, msg: &str) -> Finding {
    Finding::new(RuleId::Directive, file, idx + 1, msg.to_string())
}

/// Marks the lines belonging to `#[cfg(test)]` modules, by brace
/// counting over the code shadow. Heuristic but robust for
/// rustfmt-formatted code: the attribute precedes a `mod … {` line,
/// possibly after further attributes (rustfmt spreads a long one such
/// as `#[expect(\n    lint,\n    reason = "…"\n)]` over several lines);
/// the region ends when the brace depth returns to the module's level.
fn mark_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut is_test = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut pending_attr = false;
    // Open `[` of the attribute being read while `pending_attr`.
    let mut attr_depth: i32 = 0;
    // Brace depth at which the test module was opened.
    let mut test_until: Option<i32> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_until.is_none() && pending_attr {
            let trimmed = code.trim_start();
            let in_attr = attr_depth > 0 || trimmed.starts_with("#[");
            if in_attr {
                attr_depth += code.matches('[').count() as i32 - code.matches(']').count() as i32;
            }
            if attr_depth == 0 && (trimmed.contains("mod ") || trimmed.starts_with("mod")) {
                test_until = Some(depth);
                pending_attr = false;
            } else if !in_attr && !trimmed.is_empty() {
                // The attribute belonged to something other than a
                // module (a cfg-gated fn or use); elections stay live.
                pending_attr = false;
            }
        }
        if test_until.is_none() && code.contains("cfg(test") {
            pending_attr = true;
            attr_depth = 0;
            // `#[cfg(test)] mod tests {` on one line.
            if code.contains("mod ") {
                test_until = Some(depth);
                pending_attr = false;
            }
        }
        if test_until.is_some() {
            is_test[idx] = true;
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if let Some(d) = test_until {
                        if depth <= d {
                            test_until = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    is_test
}

/// `true` if `hay[i..]` starts with `pat` under the needle's
/// identifier-boundary requirements.
fn matches_at(hay: &[u8], i: usize, n: &Needle) -> bool {
    let pat = n.pat.as_bytes();
    if i + pat.len() > hay.len() || &hay[i..i + pat.len()] != pat {
        return false;
    }
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    if n.bound_left && i > 0 && is_ident(hay[i - 1]) {
        return false;
    }
    if n.bound_right {
        if let Some(&next) = hay.get(i + pat.len()) {
            if is_ident(next) {
                return false;
            }
        }
    }
    true
}

/// Scans one line's code shadow for every needle in `set`, invoking
/// `hit` once per distinct needle that matches (one finding per
/// needle per line keeps diagnostics readable).
fn scan_needles(code: &str, set: &[Needle], mut hit: impl FnMut(&Needle)) {
    let hay = code.as_bytes();
    for n in set {
        if (0..hay.len()).any(|i| matches_at(hay, i, n)) {
            hit(n);
        }
    }
}

/// Runs the given `rules` over one file's source text.
///
/// `file` is the workspace-relative path used in diagnostics.
/// Allocations inside test modules (`#[cfg(test)]`) are not reported,
/// but region-syntax and directive errors are; suppression via
/// `lint:allow(rule): reason` on the finding's line or the line above
/// marks the finding `suppressed` without deleting it (so the report
/// lists the exception inventory).
#[must_use]
pub fn scan_source(file: &str, source: &str, rules: &[RuleId]) -> Vec<Finding> {
    let lines = split_lines(source);
    let directives = parse_directives(file, &lines);
    let is_test = mark_test_lines(&lines);
    let mut findings = Vec::new();
    if rules.contains(&RuleId::Directive) || rules.contains(&RuleId::HotPathAlloc) {
        findings.extend(directives.findings.iter().cloned());
    }

    for (idx, line) in lines.iter().enumerate() {
        if is_test[idx] {
            continue;
        }
        if rules.contains(&RuleId::HotPathAlloc) && directives.hot[idx] {
            scan_needles(&line.code, HOT_ALLOC_NEEDLES, |n| {
                findings.push(Finding::new(
                    RuleId::HotPathAlloc,
                    file,
                    idx + 1,
                    n.msg.to_string(),
                ));
            });
        }
    }

    // Apply suppressions: an allow on the finding's own line or the
    // line directly above covers it.
    for f in &mut findings {
        if f.rule == RuleId::Directive {
            continue;
        }
        let idx = f.line - 1;
        let candidates = directives.allows[idx].iter().chain(
            idx.checked_sub(1)
                .map_or([].iter(), |p| directives.allows[p].iter()),
        );
        for a in candidates {
            if a.rule == f.rule {
                f.suppressed = true;
                f.reason = Some(a.reason.clone());
                break;
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_file_rules() -> Vec<RuleId> {
        vec![RuleId::HotPathAlloc, RuleId::Directive]
    }

    /// Wraps `body` in a hot-path region.
    fn hot(body: &str) -> String {
        format!("// lint:hot-path\n{body}// lint:end-hot-path\n")
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = hot("let _ = \"Vec::new vec! format!()\"; // Box::new\n");
        assert!(scan_source("x.rs", &src, &all_file_rules()).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    // lint:hot-path
    fn t() {
        let v: Vec<u32> = Vec::new();
    }
    // lint:end-hot-path
}
";
        assert!(scan_source("x.rs", src, &all_file_rules()).is_empty());

        // rustfmt's shape for a long attribute between `#[cfg(test)]`
        // and the module: the module is still test code.
        let spread = "\
fn lib_code() {}
#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = \"plants a corrupt file on purpose\"
)]
mod tests {
    // lint:hot-path
    fn t() {
        let v: Vec<u32> = Vec::new();
    }
    // lint:end-hot-path
}
";
        assert!(scan_source("x.rs", spread, &all_file_rules()).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_and_without_reason_errors() {
        let ok =
            hot("let v = Vec::new(); // lint:allow(hot-path-alloc): grows once, then reused\n");
        let f = scan_source("x.rs", &ok, &all_file_rules());
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
        assert_eq!(f[0].reason.as_deref(), Some("grows once, then reused"));

        let bad = hot("let v = Vec::new(); // lint:allow(hot-path-alloc)\n");
        let f = scan_source("x.rs", &bad, &all_file_rules());
        assert!(f.iter().any(|x| x.rule == RuleId::Directive));
        assert!(f
            .iter()
            .any(|x| x.rule == RuleId::HotPathAlloc && !x.suppressed));
    }

    #[test]
    fn allow_on_previous_line_covers() {
        let src =
            hot("// lint:allow(hot-path-alloc): grows once, then reused\nlet v = Vec::new();\n");
        let f = scan_source("x.rs", &src, &all_file_rules());
        assert_eq!(f.len(), 1);
        assert!(f[0].suppressed);
    }

    #[test]
    fn unknown_rule_in_allow_is_a_directive_error() {
        let src = "// lint:allow(no-such-rule): whatever\n";
        let f = scan_source("x.rs", src, &all_file_rules());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::Directive);
    }

    #[test]
    fn hot_path_region_flags_allocs_inside_only() {
        let src = "\
let a: Vec<u32> = Vec::new();
// lint:hot-path
let b = v.iter().map(|x| x + 1).sum::<u32>();
let c: Vec<u32> = v.iter().copied().collect();
// lint:end-hot-path
let d: Vec<u32> = xs.to_vec();
";
        let f = scan_source("x.rs", src, &all_file_rules());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].rule, RuleId::HotPathAlloc);
    }

    #[test]
    fn unclosed_and_nested_regions_error() {
        let unclosed = "// lint:hot-path\nlet x = 1;\n";
        let f = scan_source("x.rs", unclosed, &all_file_rules());
        assert!(
            f.iter().any(|x| x.message.contains("never closed")),
            "{f:?}"
        );

        let nested = "// lint:hot-path\n// lint:hot-path\n// lint:end-hot-path\n";
        let f = scan_source("x.rs", nested, &all_file_rules());
        assert!(f.iter().any(|x| x.message.contains("nested")), "{f:?}");

        let stray = "// lint:end-hot-path\n";
        let f = scan_source("x.rs", stray, &all_file_rules());
        assert!(
            f.iter().any(|x| x.message.contains("without an open")),
            "{f:?}"
        );
    }

    #[test]
    fn path_scoping_matches_the_policy() {
        for lib in [
            "crates/net/src/loss.rs",
            "crates/bench/src/lib.rs",
            "crates/sweepd/src/server.rs",
            "src/lib.rs",
        ] {
            assert_eq!(rules_for_path(lib), all_file_rules(), "{lib}");
        }
        assert!(rules_for_path("crates/net/tests/table_model.rs").is_empty());
        assert!(rules_for_path("tests/determinism.rs").is_empty());
        assert!(rules_for_path("crates/lint/tests/fixtures/x.rs").is_empty());
        assert!(rules_for_path("crates/lint/src/rules.rs").is_empty());
    }
}
