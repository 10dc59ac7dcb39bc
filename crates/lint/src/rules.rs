//! The rule catalog, the crate policy, and the per-file scanning
//! engine.
//!
//! The per-file rules search the *code shadow* produced by
//! [`crate::lexer`] (so literals and comments can never trigger a
//! finding) for allocations inside `lint:hot-path` regions and for
//! malformed `lint:` directives. The per-line bans on hash containers,
//! ambient entropy, panics and raw writes are clippy's, configured in
//! `clippy.toml`; the needle tables here that name the same tokens
//! only seed the flow rules. See `DESIGN.md` §8 for the rationale
//! behind each rule and the suppression policy.

use crate::lexer::{split_lines, Line};

/// The stable identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Allocation inside a `// lint:hot-path` region: the steady-state
    /// loop's zero-allocation guarantee (PR 3), proven statically.
    HotPathAlloc,
    /// `Cargo.lock`/manifest policy: no package resolved at two
    /// versions, workspace licenses on the allowlist.
    DepPolicy,
    /// A malformed lint directive (unknown rule in `lint:allow`,
    /// missing reason string). Not suppressible.
    Directive,
    /// A function in a result-affecting crate that *transitively*
    /// reaches an ambient-entropy or wall-clock sink through the
    /// workspace call graph — the laundering path clippy's per-crate
    /// `disallowed-*` lists cannot see (e.g. a `sim` function calling
    /// a `sweepd` helper that reads `Instant`).
    TransitiveEntropy,
    /// A public library entry point of a typed-error crate that can
    /// reach an explicit abort (`panic!`/`todo!`/`unimplemented!`) or
    /// an undocumented `.unwrap()` through any number of call hops.
    /// The witness call chain is attached to the finding.
    PanicReachability,
    /// A call inside a `// lint:hot-path` region whose workspace
    /// callee allocates (directly or transitively) — the allocation
    /// one frame down that the per-line `hot-path-alloc` needles
    /// cannot see.
    HotPathCallAlloc,
}

impl RuleId {
    /// The rule's kebab-case name as it appears in diagnostics and
    /// `lint:allow(...)` directives.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::DepPolicy => "dep-policy",
            RuleId::Directive => "lint-directive",
            RuleId::TransitiveEntropy => "transitive-entropy",
            RuleId::PanicReachability => "panic-reachability",
            RuleId::HotPathCallAlloc => "hot-path-call-alloc",
        }
    }

    /// `true` for the rules that `lint:allow` may never cover:
    /// directive-syntax errors and manifest policy.
    #[must_use]
    pub fn unsuppressible(self) -> bool {
        matches!(self, RuleId::Directive | RuleId::DepPolicy)
    }

    /// Parses a rule name as written in a `lint:allow(...)` directive.
    #[must_use]
    pub fn from_name(name: &str) -> Option<RuleId> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// Every rule, in catalog order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::HotPathAlloc,
    RuleId::TransitiveEntropy,
    RuleId::PanicReachability,
    RuleId::HotPathCallAlloc,
    RuleId::DepPolicy,
    RuleId::Directive,
];

/// One hop of a witness call chain attached to a flow finding:
/// "from here, the next call toward the sink".
#[derive(Debug, Clone)]
pub struct WitnessHop {
    /// What happens at this hop (a call, or the sink itself).
    pub what: String,
    /// Workspace-relative path of the hop.
    pub file: String,
    /// 1-based line of the call (or sink token).
    pub line: usize,
}

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
    /// For flow findings: the call chain from the reported site to
    /// the sink, one hop per entry (the last entry is the sink).
    /// Empty for per-file findings.
    pub witness: Vec<WitnessHop>,
    /// `true` if a `--baseline` file contains this finding — it stays
    /// visible in reports but does not fail the gate.
    pub baselined: bool,
}

impl Finding {
    /// A live (unsuppressed, unbaselined) finding with no witness.
    #[must_use]
    pub fn new(rule: RuleId, file: &str, line: usize, message: String) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
            suppressed: false,
            reason: None,
            witness: Vec::new(),
            baselined: false,
        }
    }
}

/// A token the scanner searches for, with identifier-boundary flags.
pub(crate) struct Needle {
    pub(crate) pat: &'static str,
    /// Require a non-identifier char (or start of line) before the
    /// match.
    bound_left: bool,
    /// Require a non-identifier char (or end of line) after the match.
    bound_right: bool,
    pub(crate) msg: &'static str,
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

/// Flow sinks for `transitive-entropy`: ambient RNG, wall clocks, the
/// environment and host parallelism. Clippy bans the direct uses
/// (root `clippy.toml`); the flow rule finds the indirect ones.
pub(crate) const ENTROPY_NEEDLES: &[Needle] = &[
    needle("thread_rng", true, true, "ambient RNG"),
    needle("from_entropy", true, true, "ambient RNG seeding"),
    needle("getrandom", true, true, "ambient RNG"),
    needle("SystemTime", true, true, "wall-clock read"),
    needle("Instant", true, true, "wall-clock read"),
    needle("env::var", true, false, "environment read"),
    needle("available_parallelism", true, true, "host-parallelism read"),
];

/// Flow sinks for `panic-reachability`: explicit aborts plus *bare*
/// `.unwrap()`. A documented `.expect("invariant")` is the sanctioned
/// invariant-assertion idiom outside the typed-error crates (the
/// advisory `[workspace.lints]` tier surfaces those), so it is not a
/// flow sink; inside the typed-error crates clippy denies both forms
/// directly (`#![deny(clippy::unwrap_used, clippy::expect_used, …)]`).
pub(crate) const FLOW_PANIC_NEEDLES: &[Needle] = &[
    needle(".unwrap()", false, false, "bare `.unwrap()`"),
    needle("panic!", true, false, "`panic!`"),
    needle("todo!", true, false, "`todo!`"),
    needle("unimplemented!", true, false, "`unimplemented!`"),
];

pub(crate) const HOT_ALLOC_NEEDLES: &[Needle] = &[
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

/// One row of the workspace crate policy: which of the linter's rules
/// apply to a crate under `crates/`. The per-line bans live in
/// `clippy.toml` instead (the root file, or the crate's own).
///
/// Every crate **must** have a row (enforced by the
/// `every_crate_has_a_policy_row` self-test) so that a new crate is a
/// deliberate policy decision rather than a silent default — exactly
/// what went wrong when `sweepd` landed without a row and inherited
/// default scoping until someone remembered to bless it.
#[derive(Debug)]
pub struct CratePolicy {
    /// Directory name under `crates/`.
    pub name: &'static str,
    /// Code influences `RunResult` bytes: the `transitive-entropy`
    /// flow rule applies.
    pub result_affecting: bool,
    /// Public lib functions are `panic-reachability` entry points.
    pub panic_entry: bool,
    /// The scanner skips the crate entirely.
    pub skip: bool,
    /// Why the row is what it is (shown in `--graph-json`).
    pub why: &'static str,
}

const fn row(
    name: &'static str,
    result_affecting: bool,
    panic_entry: bool,
    skip: bool,
    why: &'static str,
) -> CratePolicy {
    CratePolicy {
        name,
        result_affecting,
        panic_entry,
        skip,
        why,
    }
}

/// The single source of truth for per-crate rule scoping. Columns:
/// `(name, result_affecting, panic_entry, skip)`.
pub const CRATE_POLICY: &[CratePolicy] = &[
    row(
        "bench",
        false,
        false,
        false,
        "operator tooling: experiment binaries",
    ),
    row(
        "cli",
        false,
        false,
        false,
        "operator tooling: the mobic CLI",
    ),
    row(
        "core",
        true,
        false,
        false,
        "clustering state machine feeds RunResult",
    ),
    row(
        "geom",
        true,
        false,
        false,
        "geometry primitives feed RunResult",
    ),
    row(
        "lint",
        false,
        false,
        true,
        "the linter spells out its own needle tokens",
    ),
    row("metrics", true, false, false, "aggregation feeds RunResult"),
    row(
        "mobility",
        true,
        false,
        false,
        "trajectories feed RunResult",
    ),
    row(
        "net",
        true,
        true,
        false,
        "delivery engine; typed RunError owner",
    ),
    row(
        "radio",
        true,
        false,
        false,
        "propagation models feed RunResult",
    ),
    row(
        "routing",
        false,
        false,
        false,
        "experiment layer over scenario results",
    ),
    row(
        "scenario",
        true,
        true,
        false,
        "run orchestration; typed RunError owner",
    ),
    row(
        "sim",
        true,
        false,
        false,
        "event loop and seeded RNG feed RunResult",
    ),
    row(
        "sweepd",
        false,
        true,
        false,
        "sweep service: operator infra, long-lived",
    ),
    row(
        "trace",
        false,
        true,
        false,
        "artifact funnel; typed error owner",
    ),
    row(
        "viz",
        false,
        false,
        false,
        "post-hoc rendering of result artifacts",
    ),
];

/// Looks up the policy row for a crate directory name.
#[must_use]
pub fn crate_policy(name: &str) -> Option<&'static CratePolicy> {
    CRATE_POLICY.iter().find(|p| p.name == name)
}

/// Files whose own functions `transitive-entropy` does not report:
/// the blessed batch executor sizes its *job-level* worker pool from
/// the host, which can never affect per-run bytes because each job is
/// an independent `(config, seed)` run. Entropy still propagates
/// *through* it, so a caller that reaches a clock via this file is
/// reported.
pub(crate) const ENTROPY_EXEMPT_FILES: &[&str] = &["crates/scenario/src/sweep.rs"];

/// The one blessed wall-clock module, an absorbing boundary for
/// `transitive-entropy`: its API contract (`#[serde(skip)]`-isolated
/// timings) is the sanctioned route for profiling, so reaching a clock
/// *through it* is not laundering. Reaching a clock through any merely
/// *exempt* file (bench, cli, sweepd, sweep.rs) still is.
pub(crate) const ENTROPY_BOUNDARY_FILES: &[&str] = &["crates/trace/src/profile.rs"];

/// Extracts the crate directory name from a workspace-relative path
/// (`crates/<name>/src/...`), if the path is a crate source file.
#[must_use]
pub(crate) fn crate_of_path(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Returns the rules that apply to a workspace-relative source path:
/// `hot-path-alloc` and `lint-directive` for every scanned file, or an
/// empty vector for paths the scanner skips entirely (test trees,
/// benches, fixtures, and the crates the policy skips).
#[must_use]
pub fn rules_for_path(rel: &str) -> Vec<RuleId> {
    let rel = rel.replace('\\', "/");
    // Test trees, benches, and fixtures are never scanned. The linter
    // does not scan itself either (`skip` row in [`CRATE_POLICY`]):
    // its source necessarily spells out directive syntax and rule
    // tokens in prose, and it is neither result-affecting nor on any
    // hot path. Its correctness is carried by its own unit and
    // fixture tests instead.
    let skip = rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/fixtures/")
        || rel.starts_with("target/")
        || rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .and_then(crate_policy)
            .is_some_and(|p| p.skip);
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
pub(crate) struct Directives {
    /// Valid allows, by 0-based line index.
    pub(crate) allows: Vec<Vec<Allow>>,
    /// `lint:hot-path` region membership, by 0-based line index.
    pub(crate) hot: Vec<bool>,
    /// Directive-syntax findings (unknown rule, missing reason,
    /// bad region nesting).
    pub(crate) findings: Vec<Finding>,
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
pub(crate) fn parse_directives(file: &str, lines: &[Line]) -> Directives {
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
/// rustfmt-formatted code: the attribute precedes a `mod … {` line; the
/// region ends when the brace depth returns to the module's level.
pub(crate) fn mark_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut is_test = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut pending_attr = false;
    // Brace depth at which the test module was opened.
    let mut test_until: Option<i32> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if test_until.is_none() && pending_attr {
            let trimmed = code.trim_start();
            if trimmed.contains("mod ") || trimmed.starts_with("mod") {
                test_until = Some(depth);
                pending_attr = false;
            } else if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                // The attribute belonged to something other than a
                // module (a cfg-gated fn or use); elections stay live.
                pending_attr = false;
            }
        }
        if test_until.is_none() && code.contains("cfg(test") {
            pending_attr = true;
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
pub(crate) fn scan_needles(code: &str, set: &[Needle], mut hit: impl FnMut(&Needle)) {
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
/// marks the finding `suppressed` without deleting it (so `--json`
/// consumers can audit the exception inventory).
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
