//! Phase 1 of the flow analysis: function-item extraction and the
//! conservative intra-workspace call graph.
//!
//! The lexer's code shadows are tokenized (identifiers + punctuation;
//! literals and comments are already blanked), then a single forward
//! walk with a brace-scope stack recovers:
//!
//! * **function items** — name, owning `impl`/`trait` type, file,
//!   declaration line, body span, visibility, `#[cfg(test)]`
//!   membership, and the first direct allocation the body contains;
//! * **call sites** — bare calls (`helper(…)`), qualified-path calls
//!   (`SimTime::from_seconds(…)`, `table::merge_into(…)`), and method
//!   calls (`x.advance(…)`), each tagged with its line and whether it
//!   sits inside a `// lint:hot-path` region.
//!
//! Resolution is deliberately *conservative and lexical* — there is no
//! type information. Bare calls resolve by simple name through
//! same-file → same-crate → workspace tiers (every candidate in the
//! winning tier becomes an edge); qualified calls require the last
//! path qualifier to match the candidate's owner type, file stem, or
//! crate name (no name-only fallback, so `String::from` can never
//! alias a workspace `from`); method calls resolve by name through
//! same-crate → workspace tiers. Anything that matches no workspace
//! function is recorded as an **external** call — kept in the graph
//! dump rather than silently dropped, so the resolution policy itself
//! stays auditable.

use crate::lexer::{split_lines, Line};
use crate::rules::{self, Allow, Finding, RuleId, HOT_ALLOC_NEEDLES};
use std::collections::BTreeMap;

/// How a call site was matched against the workspace function index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Exactly one workspace function matched.
    Unique,
    /// Several candidates matched; all of them become edges
    /// (conservatism fails toward reporting).
    Ambiguous,
    /// No workspace function matched (std / closure / macro callee).
    External,
}

impl Resolution {
    /// Stable name used in the `--graph-json` dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resolution::Unique => "unique",
            Resolution::Ambiguous => "ambiguous",
            Resolution::External => "external",
        }
    }
}

/// The syntactic shape of a call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — unqualified identifier call.
    Bare,
    /// `path::to::helper(…)` — qualified-path call.
    Path,
    /// `value.helper(…)` — method call.
    Method,
}

impl CallKind {
    /// Stable name used in the `--graph-json` dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CallKind::Bare => "bare",
            CallKind::Path => "path",
            CallKind::Method => "method",
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// The called simple name (last path segment / method name).
    pub name: String,
    /// Path qualifier segments for [`CallKind::Path`] calls
    /// (`["table"]` for `table::merge_into(…)`), empty otherwise.
    pub qual: Vec<String>,
    /// Syntactic shape of the call.
    pub kind: CallKind,
    /// 1-based line of the call site.
    pub line: usize,
    /// `true` if the call site is inside a `// lint:hot-path` region.
    pub hot: bool,
    /// Indices into [`Graph::fns`] of every resolved callee.
    pub targets: Vec<usize>,
    /// How the targets were matched.
    pub resolution: Resolution,
}

/// A direct allocation inside a function body, used as a flow seed
/// and as the terminal hop of witness chains.
#[derive(Debug, Clone)]
pub struct SinkHit {
    /// Short description of the sink (`` `Vec::new` ``).
    pub what: String,
    /// 1-based line of the sink token.
    pub line: usize,
}

/// One function item extracted from the workspace.
#[derive(Debug)]
pub struct FnItem {
    /// Index of this item in [`Graph::fns`].
    pub id: usize,
    /// Simple name (`merge_into`).
    pub name: String,
    /// Owning `impl`/`trait` type, if the function is an associated
    /// item (`Some("NodeTable")`).
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Crate directory name under `crates/`, if any.
    pub crate_name: Option<String>,
    /// 1-based line of the `fn` name token.
    pub decl_line: usize,
    /// `true` for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// `true` if the item lives inside a `#[cfg(test)]` module.
    pub is_test: bool,
    /// The reason string of a covering `// lint:cold-path: <reason>`
    /// directive, if any — a sanctioned amortized-allocation boundary
    /// for the `hot-path-call-alloc` rule.
    pub cold: Option<String>,
    /// First direct allocation sink in the body.
    pub alloc_sink: Option<SinkHit>,
    /// Every call site in the body, in source order.
    pub calls: Vec<Call>,
}

/// The workspace call graph plus the per-file directive state the
/// flow rules need for suppression.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every extracted function item, in (file, decl-line) order.
    pub fns: Vec<FnItem>,
    /// Valid `lint:allow` directives per file, by 0-based line.
    pub allows: BTreeMap<String, Vec<Vec<Allow>>>,
    /// Directive findings raised during extraction (malformed or
    /// dangling `lint:cold-path`).
    pub findings: Vec<Finding>,
}

impl Graph {
    /// Number of call sites that resolved to no workspace function.
    #[must_use]
    pub fn external_calls(&self) -> usize {
        self.fns
            .iter()
            .flat_map(|f| &f.calls)
            .filter(|c| c.resolution == Resolution::External)
            .count()
    }

    /// `true` if a valid `lint:allow(rule)` covers `line` (1-based) or
    /// the line directly above it in `file` — the same two-line window
    /// the per-file scanner uses.
    #[must_use]
    pub fn allowed(&self, file: &str, line: usize, rule: RuleId) -> Option<&Allow> {
        let allows = self.allows.get(file)?;
        let idx = line.checked_sub(1)?;
        let window = allows.get(idx).into_iter().flatten().chain(
            idx.checked_sub(1)
                .and_then(|p| allows.get(p))
                .into_iter()
                .flatten(),
        );
        window.into_iter().find(|a| a.rule == rule)
    }
}

/// Builds the call graph over `(workspace-relative path, source)`
/// pairs. The caller decides which files participate (the live
/// scanner passes every non-test crate source; fixtures pass
/// hand-built file sets).
#[must_use]
pub fn build(files: &[(String, String)]) -> Graph {
    let mut graph = Graph::default();
    for (path, source) in files {
        extract_file(path, source, &mut graph);
    }
    resolve_calls(&mut graph);
    graph
}

/// Rust keywords (plus reserved words) that can precede `(` without
/// being a call.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "Self", "static", "struct", "super", "trait", "type", "union",
    "unsafe", "use", "where", "while", "yield",
];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    /// 0-based source line.
    line: usize,
}

/// Tokenizes the code shadows into identifiers and punctuation.
/// Numeric literals are consumed and dropped (`1.0e3`, `0x_ff`,
/// `3u32`); a `.` inside a number is part of it only when a digit
/// follows, so ranges (`0..n`) and method calls on literals
/// (`1.max(x)`) still produce their punctuation.
fn tokenize(lines: &[Line]) -> Vec<Spanned> {
    let mut toks = Vec::new();
    for (line_idx, line) in lines.iter().enumerate() {
        let b = line.code.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_ascii_whitespace() {
                i += 1;
            } else if c.is_ascii_alphabetic() || c == b'_' {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Spanned {
                    tok: Tok::Ident(String::from_utf8_lossy(&b[start..i]).into_owned()),
                    line: line_idx,
                });
            } else if c.is_ascii_digit() {
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        i += 1;
                    } else if d == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        i += 2;
                    } else {
                        break;
                    }
                }
            } else if c.is_ascii() {
                toks.push(Spanned {
                    tok: Tok::Punct(c as char),
                    line: line_idx,
                });
                i += 1;
            } else {
                // Non-ASCII in a code shadow (identifiers stay ASCII in
                // this workspace); skip the byte.
                i += 1;
            }
        }
    }
    toks
}

fn is_punct(t: Option<&Spanned>, c: char) -> bool {
    matches!(t, Some(s) if s.tok == Tok::Punct(c))
}

fn ident_of(t: Option<&Spanned>) -> Option<&str> {
    match t {
        Some(Spanned {
            tok: Tok::Ident(s), ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

/// What a `{` opened, according to the header tokens before it.
enum ScopeKind {
    /// A function body; the payload indexes [`Graph::fns`].
    Fn(usize),
    /// An `impl`/`trait` block; the payload is the owner type name.
    Owner(String),
    /// Anything else (modules, blocks, struct literals, closures…).
    Other,
}

/// A pending `// lint:cold-path: <reason>` waiting for its function.
struct ColdMark {
    line: usize,
    reason: String,
    used: bool,
}

fn extract_file(path: &str, source: &str, graph: &mut Graph) {
    let lines = split_lines(source);
    let directives = rules::parse_directives(path, &lines);
    let is_test = rules::mark_test_lines(&lines);
    let toks = tokenize(&lines);

    // `lint:cold-path: <reason>` directives — parsed here (not in
    // `parse_directives`) because attachment needs the fn items.
    let mut colds: Vec<ColdMark> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let comment = line.comment.trim_start();
        if let Some(rest) = comment.strip_prefix("lint:cold-path") {
            let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
            if reason.is_empty() {
                graph.findings.push(Finding::new(
                    RuleId::Directive,
                    path,
                    idx + 1,
                    "`lint:cold-path` is missing its mandatory reason string \
                     (`lint:cold-path: <why this callee may allocate>`)"
                        .to_string(),
                ));
            } else {
                colds.push(ColdMark {
                    line: idx,
                    reason: reason.to_string(),
                    used: false,
                });
            }
        }
    }

    let first_fn = graph.fns.len();
    let crate_name = rules::crate_of_path(path).map(str::to_string);
    let mut stack: Vec<ScopeKind> = Vec::new();
    // Header tokens since the last `{`/`}`/`;` boundary, as indices
    // into `toks`.
    let mut pending: Vec<usize> = Vec::new();
    // Innermost function owning each 0-based line (set at token
    // granularity; blank/comment lines stay `None`, which is fine —
    // sinks are code tokens).
    let mut fn_at_line: Vec<Option<usize>> = vec![None; lines.len()];

    let mut t = 0;
    while t < toks.len() {
        // Skip attributes wholesale (`#[…]` / `#![…]`): `derive(…)`
        // and friends must not look like calls, and attribute tokens
        // would pollute the header classification.
        if is_punct(toks.get(t), '#') {
            let mut j = t + 1;
            if is_punct(toks.get(j), '!') {
                j += 1;
            }
            if is_punct(toks.get(j), '[') {
                let mut depth = 0usize;
                while j < toks.len() {
                    if is_punct(toks.get(j), '[') {
                        depth += 1;
                    } else if is_punct(toks.get(j), ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                t = j + 1;
                continue;
            }
        }
        match &toks[t].tok {
            Tok::Punct('{') => {
                let scope = classify_header(&toks, &pending, &stack, |name, owner, line| {
                    graph_push_fn(
                        graph,
                        path,
                        &crate_name,
                        name,
                        owner,
                        line,
                        &pending,
                        &toks,
                        is_test.get(line).copied().unwrap_or(false),
                    )
                });
                stack.push(scope);
                pending.clear();
            }
            Tok::Punct('}') => {
                stack.pop();
                pending.clear();
            }
            Tok::Punct(';') => {
                pending.clear();
            }
            Tok::Ident(name) => {
                if let Some(fid) = innermost_fn(&stack) {
                    let line = toks[t].line;
                    fn_at_line[line] = Some(fid);
                    if let Some(call) =
                        detect_call(&toks, t, name, directives.hot.get(line) == Some(&true))
                    {
                        graph.fns[fid].calls.push(call);
                    }
                }
                pending.push(t);
            }
            Tok::Punct(_) => {
                if let Some(fid) = innermost_fn(&stack) {
                    fn_at_line[toks[t].line] = Some(fid);
                }
                pending.push(t);
            }
        }
        t += 1;
    }

    // Attach cold directives to the first function declared after
    // them, provided only attributes / blank lines sit in between.
    for cold in &mut colds {
        let target = graph.fns[first_fn..]
            .iter()
            .filter(|f| f.decl_line > cold.line)
            .min_by_key(|f| f.decl_line)
            .map(|f| f.id);
        if let Some(fid) = target {
            let decl0 = graph.fns[fid].decl_line; // 1-based
            let gap_quiet = (cold.line + 1..decl0.saturating_sub(1)).all(|i| {
                let code = lines[i].code.trim();
                code.is_empty() || code.starts_with('#')
            });
            if gap_quiet {
                graph.fns[fid].cold = Some(cold.reason.clone());
                cold.used = true;
            }
        }
        if !cold.used {
            graph.findings.push(Finding::new(
                RuleId::Directive,
                path,
                cold.line + 1,
                "`lint:cold-path` does not directly precede a function item".to_string(),
            ));
        }
    }

    // Direct allocations: scan each body line owned by a function. A
    // line blessed by `lint:allow(hot-path-alloc)` or
    // `lint:allow(hot-path-call-alloc)` is not a seed — the suppression
    // covers the site.
    for (idx, line) in lines.iter().enumerate() {
        let Some(fid) = fn_at_line[idx] else {
            continue;
        };
        if is_test[idx] {
            continue;
        }
        let allowed = directives.allows[idx]
            .iter()
            .chain(
                idx.checked_sub(1)
                    .map_or([].iter(), |p| directives.allows[p].iter()),
            )
            .any(|a| matches!(a.rule, RuleId::HotPathAlloc | RuleId::HotPathCallAlloc));
        let f = &mut graph.fns[fid];
        if f.alloc_sink.is_none() && !allowed {
            rules::scan_needles(&line.code, HOT_ALLOC_NEEDLES, |n| {
                if f.alloc_sink.is_none() {
                    f.alloc_sink = Some(SinkHit {
                        what: format!("`{}`", n.pat.trim_matches('.')),
                        line: idx + 1,
                    });
                }
            });
        }
    }

    graph.allows.insert(path.to_string(), directives.allows);
}

/// Pushes a new [`FnItem`]; visibility is read from the header tokens
/// (`pub` not followed by `(`).
#[allow(clippy::too_many_arguments)]
fn graph_push_fn(
    graph: &mut Graph,
    path: &str,
    crate_name: &Option<String>,
    name: &str,
    owner: Option<String>,
    line0: usize,
    pending: &[usize],
    toks: &[Spanned],
    is_test: bool,
) -> usize {
    let mut is_pub = false;
    for (k, &pi) in pending.iter().enumerate() {
        if ident_of(toks.get(pi)) == Some("pub") {
            let next = pending.get(k + 1).map(|&n| &toks[n]);
            is_pub = !matches!(next, Some(s) if s.tok == Tok::Punct('('));
            break;
        }
    }
    let id = graph.fns.len();
    graph.fns.push(FnItem {
        id,
        name: name.to_string(),
        owner,
        file: path.to_string(),
        crate_name: crate_name.clone(),
        decl_line: line0 + 1,
        is_pub,
        is_test,
        cold: None,
        alloc_sink: None,
        calls: Vec::new(),
    });
    id
}

fn innermost_fn(stack: &[ScopeKind]) -> Option<usize> {
    stack.iter().rev().find_map(|s| match s {
        ScopeKind::Fn(id) => Some(*id),
        _ => None,
    })
}

/// Classifies the header tokens preceding a `{`. `make_fn` is called
/// back with `(name, owner, 0-based decl line)` when the header is a
/// function item.
fn classify_header(
    toks: &[Spanned],
    pending: &[usize],
    stack: &[ScopeKind],
    mut make_fn: impl FnMut(&str, Option<String>, usize) -> usize,
) -> ScopeKind {
    // `fn name` anywhere in the header (an `impl Trait` return type
    // may also contain `impl`, so `fn` wins the classification).
    for (k, &pi) in pending.iter().enumerate() {
        if ident_of(toks.get(pi)) == Some("fn") {
            if let Some(&ni) = pending.get(k + 1) {
                if let Some(name) = ident_of(toks.get(ni)) {
                    let owner = stack.iter().rev().find_map(|s| match s {
                        ScopeKind::Owner(o) => Some(o.clone()),
                        _ => None,
                    });
                    let id = make_fn(name, owner, toks[ni].line);
                    return ScopeKind::Fn(id);
                }
            }
            return ScopeKind::Other;
        }
    }
    // `impl …` / `trait Name` header: recover the owner type name.
    for (k, &pi) in pending.iter().enumerate() {
        match ident_of(toks.get(pi)) {
            Some("impl") => {
                return match impl_owner(toks, pending, k) {
                    Some(owner) => ScopeKind::Owner(owner),
                    None => ScopeKind::Other,
                };
            }
            Some("trait") => {
                if let Some(name) = pending.get(k + 1).and_then(|&ni| ident_of(toks.get(ni))) {
                    return ScopeKind::Owner(name.to_string());
                }
                return ScopeKind::Other;
            }
            _ => {}
        }
    }
    ScopeKind::Other
}

/// Extracts the implemented type's simple name from an `impl` header:
/// the last path segment after `for` if present (`impl Tr for Foo`),
/// else the last segment after the (possibly generic) `impl` keyword.
fn impl_owner(toks: &[Spanned], pending: &[usize], impl_at: usize) -> Option<String> {
    let after_for = pending
        .iter()
        .skip(impl_at + 1)
        .position(|&pi| ident_of(toks.get(pi)) == Some("for"))
        .map(|p| impl_at + 1 + p + 1);
    let mut k = after_for.unwrap_or(impl_at + 1);
    // Skip the generic parameter list directly after `impl`.
    if after_for.is_none() {
        if let Some(&pi) = pending.get(k) {
            if is_punct(toks.get(pi), '<') {
                let mut depth = 0i32;
                while let Some(&pj) = pending.get(k) {
                    match &toks[pj].tok {
                        Tok::Punct('<') => depth += 1,
                        Tok::Punct('>') => {
                            // `->` inside an `Fn(…) -> T` bound is not
                            // an angle close.
                            let prev = pending.get(k.wrapping_sub(1)).map(|&p| &toks[p]);
                            if !matches!(prev, Some(s) if s.tok == Tok::Punct('-')) {
                                depth -= 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        }
    }
    // Collect `seg(::seg)*`, stopping at `<` or anything else.
    let mut owner = None;
    while let Some(&pi) = pending.get(k) {
        match &toks[pi].tok {
            Tok::Ident(s) => {
                owner = Some(s.clone());
                k += 1;
            }
            Tok::Punct(':') => k += 1,
            Tok::Punct('&') => k += 1, // `impl Tr for &Foo`
            _ => break,
        }
    }
    owner
}

/// Detects a call at token `t` (an identifier inside a function
/// body): the identifier must be followed by `(` (optionally through
/// a turbofish `::<…>`), must not be a keyword, and must not be a
/// nested `fn` declaration's name.
fn detect_call(toks: &[Spanned], t: usize, name: &str, hot: bool) -> Option<Call> {
    if KEYWORDS.contains(&name) {
        return None;
    }
    let prev = t.checked_sub(1).map(|p| &toks[p]);
    if matches!(prev, Some(s) if s.tok == Tok::Ident("fn".to_string())) {
        return None;
    }
    // `(` directly, or after `::<…>`.
    let mut j = t + 1;
    if is_punct(toks.get(j), ':')
        && is_punct(toks.get(j + 1), ':')
        && is_punct(toks.get(j + 2), '<')
    {
        let mut depth = 0i32;
        j += 2;
        while j < toks.len() {
            match &toks[j].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !matches!(toks.get(j - 1), Some(s) if s.tok == Tok::Punct('-')) =>
                {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if !is_punct(toks.get(j), '(') {
        return None;
    }
    // Classify by what precedes the identifier.
    let (kind, qual) = match prev.map(|s| &s.tok) {
        Some(Tok::Punct('.')) => (CallKind::Method, Vec::new()),
        Some(Tok::Punct(':')) if t >= 2 && is_punct(toks.get(t - 2), ':') => {
            // Walk the qualifier backwards: `seg::seg::name(`.
            let mut qual = Vec::new();
            let mut k = t - 2; // index of the first `:` pair
            while let Some(seg) = k.checked_sub(1).and_then(|p| ident_of(toks.get(p))) {
                qual.insert(0, seg.to_string());
                match k.checked_sub(3) {
                    Some(p) if is_punct(toks.get(p), ':') && is_punct(toks.get(p + 1), ':') => {
                        k = p;
                    }
                    _ => break,
                }
            }
            if qual.is_empty() {
                (CallKind::Bare, qual)
            } else {
                (CallKind::Path, qual)
            }
        }
        _ => (CallKind::Bare, Vec::new()),
    };
    Some(Call {
        name: name.to_string(),
        qual,
        kind,
        line: toks[t].line + 1,
        hot,
        targets: Vec::new(),
        resolution: Resolution::External,
    })
}

/// The file stem used for module-path matching (`crates/net/src/
/// delivery.rs` → `delivery`).
fn file_stem(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or(path)
}

fn norm(s: &str) -> String {
    s.to_ascii_lowercase().replace('-', "_")
}

/// Second pass: resolve every call against the workspace function
/// index. `#[cfg(test)]` functions are excluded as *targets* (test
/// helpers must not capture bare-name calls from library code).
fn resolve_calls(graph: &mut Graph) {
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for f in &graph.fns {
        if !f.is_test {
            by_name.entry(f.name.as_str()).or_default().push(f.id);
        }
    }

    let mut resolved: Vec<Vec<(usize, Vec<usize>, Resolution)>> =
        Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        let mut per_fn = Vec::new();
        for (ci, call) in f.calls.iter().enumerate() {
            let candidates = by_name
                .get(call.name.as_str())
                .map_or(&[][..], Vec::as_slice);
            let targets: Vec<usize> = match call.kind {
                CallKind::Bare => first_tier(
                    candidates,
                    &graph.fns,
                    &[
                        &|t: &FnItem| t.file == f.file,
                        &|t: &FnItem| t.crate_name.is_some() && t.crate_name == f.crate_name,
                        &|_: &FnItem| true,
                    ],
                ),
                CallKind::Method => first_tier(
                    candidates,
                    &graph.fns,
                    &[
                        &|t: &FnItem| t.crate_name.is_some() && t.crate_name == f.crate_name,
                        &|_: &FnItem| true,
                    ],
                ),
                CallKind::Path => resolve_path_call(f, call, candidates, &graph.fns),
            };
            let resolution = match targets.len() {
                0 => Resolution::External,
                1 => Resolution::Unique,
                _ => Resolution::Ambiguous,
            };
            per_fn.push((ci, targets, resolution));
        }
        resolved.push(per_fn);
    }
    for (f, per_fn) in graph.fns.iter_mut().zip(resolved) {
        for (ci, targets, resolution) in per_fn {
            f.calls[ci].targets = targets;
            f.calls[ci].resolution = resolution;
        }
    }
}

/// All candidates in the first non-empty tier.
fn first_tier(
    candidates: &[usize],
    fns: &[FnItem],
    tiers: &[&dyn Fn(&FnItem) -> bool],
) -> Vec<usize> {
    for tier in tiers {
        let hits: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| tier(&fns[id]))
            .collect();
        if !hits.is_empty() {
            return hits;
        }
    }
    Vec::new()
}

/// Qualified-path resolution: the last qualifier segment must match
/// the candidate's owner type, file stem, or crate name — never name
/// alone, so `String::from` can never alias a workspace `from`.
fn resolve_path_call(
    caller: &FnItem,
    call: &Call,
    candidates: &[usize],
    fns: &[FnItem],
) -> Vec<usize> {
    let local_roots = ["crate", "self", "super"];
    // `Self::helper()` — the impl's own type.
    if call.qual.last().map(String::as_str) == Some("Self") {
        let Some(owner) = &caller.owner else {
            return Vec::new();
        };
        return candidates
            .iter()
            .copied()
            .filter(|&id| {
                fns[id].owner.as_ref() == Some(owner) && fns[id].crate_name == caller.crate_name
            })
            .collect();
    }
    let had_local = call
        .qual
        .first()
        .is_some_and(|s| local_roots.contains(&s.as_str()));
    let key = call
        .qual
        .iter()
        .rev()
        .find(|s| !local_roots.contains(&s.as_str()));
    let Some(key) = key else {
        // Pure `self::f()` / `crate::f()` — a crate-local bare call.
        return first_tier(
            candidates,
            fns,
            &[&|t: &FnItem| t.file == caller.file, &|t: &FnItem| {
                t.crate_name.is_some() && t.crate_name == caller.crate_name
            }],
        );
    };
    let key_n = norm(key);
    candidates
        .iter()
        .copied()
        .filter(|&id| {
            let t = &fns[id];
            if had_local && t.crate_name != caller.crate_name {
                return false;
            }
            t.owner.as_deref() == Some(key.as_str())
                || file_stem(&t.file) == key.as_str()
                || t.crate_name
                    .as_deref()
                    .is_some_and(|c| norm(c) == key_n || format!("mobic_{}", norm(c)) == key_n)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_one(src: &str) -> Graph {
        build(&[("crates/sim/src/engine.rs".to_string(), src.to_string())])
    }

    fn find<'g>(g: &'g Graph, name: &str) -> &'g FnItem {
        g.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn `{name}` in {:?}", g.fns))
    }

    #[test]
    fn extracts_fns_with_owner_visibility_and_spans() {
        let g = build_one(
            "pub fn free(x: u32) -> u32 { helper(x) }\n\
             fn helper(x: u32) -> u32 { x }\n\
             pub(crate) fn internal() {}\n\
             struct Engine;\n\
             impl Engine {\n\
                 pub fn step(&mut self) { self.advance() }\n\
                 fn advance(&mut self) {}\n\
             }\n",
        );
        assert_eq!(g.fns.len(), 5);
        let free = find(&g, "free");
        assert!(free.is_pub && free.owner.is_none());
        assert_eq!(free.decl_line, 1);
        assert!(!find(&g, "internal").is_pub, "pub(crate) is not public");
        let step = find(&g, "step");
        assert_eq!(step.owner.as_deref(), Some("Engine"));
        // `free` resolves `helper(` same-file, uniquely.
        assert_eq!(free.calls.len(), 1);
        assert_eq!(free.calls[0].resolution, Resolution::Unique);
        assert_eq!(free.calls[0].targets, vec![find(&g, "helper").id]);
        // `self.advance()` resolves as a method call, same crate.
        let step_calls = &find(&g, "step").calls;
        assert_eq!(step_calls[0].kind, CallKind::Method);
        assert_eq!(step_calls[0].targets, vec![find(&g, "advance").id]);
    }

    #[test]
    fn trait_impls_and_default_methods_get_owners() {
        let g = build_one(
            "trait Model {\n\
                 fn step(&self);\n\
                 fn run(&self) { self.step() }\n\
             }\n\
             struct Rwp;\n\
             impl Model for Rwp {\n\
                 fn step(&self) {}\n\
             }\n",
        );
        // The bodyless `fn step(&self);` is not an item; the default
        // method and the impl method are.
        assert_eq!(g.fns.len(), 2);
        assert_eq!(find(&g, "run").owner.as_deref(), Some("Model"));
        assert_eq!(find(&g, "step").owner.as_deref(), Some("Rwp"));
    }

    #[test]
    fn qualified_calls_need_owner_or_module_match() {
        let g = build(&[
            (
                "crates/sim/src/time.rs".to_string(),
                "pub struct SimTime;\n\
                 impl SimTime {\n\
                     pub fn from_seconds(s: f64) -> SimTime { SimTime }\n\
                 }\n"
                .to_string(),
            ),
            (
                "crates/net/src/delivery.rs".to_string(),
                "pub fn deliver() {\n\
                     let t = SimTime::from_seconds(1.0);\n\
                     let s = String::from(\"x\");\n\
                     let v = time::from_seconds(2.0);\n\
                 }\n"
                .to_string(),
            ),
        ]);
        let deliver = find(&g, "deliver");
        let target = find(&g, "from_seconds").id;
        // Owner match and module-stem match resolve; `String::from`
        // must stay external (no name-only fallback).
        assert_eq!(deliver.calls[0].targets, vec![target]);
        assert_eq!(deliver.calls[1].resolution, Resolution::External);
        assert_eq!(deliver.calls[2].targets, vec![target]);
    }

    #[test]
    fn bare_calls_prefer_same_file_then_same_crate() {
        let g = build(&[
            (
                "crates/sim/src/a.rs".to_string(),
                "pub fn go() { helper() }\nfn helper() {}\n".to_string(),
            ),
            (
                "crates/sim/src/b.rs".to_string(),
                "fn helper() {}\n".to_string(),
            ),
            (
                "crates/net/src/c.rs".to_string(),
                "fn helper() {}\npub fn remote() { helper() }\n".to_string(),
            ),
        ]);
        let go = find(&g, "go");
        assert_eq!(go.calls[0].resolution, Resolution::Unique);
        assert_eq!(
            graph_file(&g, go.calls[0].targets[0]),
            "crates/sim/src/a.rs",
            "same-file tier wins over same-crate"
        );
        let remote = find(&g, "remote");
        assert_eq!(
            graph_file(&g, remote.calls[0].targets[0]),
            "crates/net/src/c.rs"
        );
    }

    fn graph_file(g: &Graph, id: usize) -> &str {
        &g.fns[id].file
    }

    #[test]
    fn direct_sinks_are_recorded_outside_tests_only() {
        let g = build_one(
            "pub fn grows() { let v: Vec<u32> = Vec::new(); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t() { let v: Vec<u32> = Vec::new(); }\n\
             }\n",
        );
        let grows = find(&g, "grows");
        assert_eq!(grows.alloc_sink.as_ref().unwrap().what, "`Vec::new`");
        let t = find(&g, "t");
        assert!(t.is_test && t.alloc_sink.is_none());
    }

    #[test]
    fn fns_under_a_spread_attribute_on_a_test_module_are_test_code() {
        // rustfmt spreads a long `#[expect(…)]` over several lines; the
        // module under it is still `#[cfg(test)]`.
        let g = build_one(
            "pub fn run() {}\n\
             #[cfg(test)]\n\
             #[expect(\n\
                 clippy::disallowed_methods,\n\
                 reason = \"plants a corrupt file on purpose\"\n\
             )]\n\
             mod tests {\n\
                 fn run() { let v: Vec<u32> = Vec::new(); }\n\
             }\n",
        );
        let (lib, test): (Vec<&FnItem>, Vec<&FnItem>) =
            g.fns.iter().partition(|f| f.decl_line == 1);
        assert!(!lib[0].is_test);
        assert!(test[0].is_test && test[0].alloc_sink.is_none(), "{test:?}");
    }

    #[test]
    fn allowed_sink_lines_do_not_seed() {
        let g = build_one(
            "pub fn warm() {\n\
                 // lint:allow(hot-path-call-alloc): sized once at startup\n\
                 let v: Vec<u32> = Vec::with_capacity(64);\n\
             }\n",
        );
        assert!(find(&g, "warm").alloc_sink.is_none());
    }

    #[test]
    fn cold_path_directive_attaches_and_dangles() {
        let g = build_one(
            "// lint:cold-path: amortized growth, doubling strategy\n\
             #[inline]\n\
             pub fn grow(v: &mut Vec<u32>) { v.reserve(1); }\n\
             // lint:cold-path: dangling\n\
             const X: u32 = 1;\n",
        );
        assert_eq!(
            find(&g, "grow").cold.as_deref(),
            Some("amortized growth, doubling strategy")
        );
        assert_eq!(g.findings.len(), 1, "{:?}", g.findings);
        assert!(g.findings[0].message.contains("does not directly precede"));
    }

    #[test]
    fn cold_path_without_reason_is_a_directive_error() {
        let g = build_one("// lint:cold-path\npub fn f() {}\n");
        assert_eq!(g.findings.len(), 1);
        assert!(g.findings[0]
            .message
            .contains("missing its mandatory reason"));
        assert!(find(&g, "f").cold.is_none());
    }

    #[test]
    fn hot_region_marks_call_sites() {
        let g = build_one(
            "pub fn step() {\n\
                 setup();\n\
                 // lint:hot-path — inner loop\n\
                 kernel();\n\
                 // lint:end-hot-path\n\
             }\n\
             fn setup() {}\n\
             fn kernel() {}\n",
        );
        let step = find(&g, "step");
        assert!(!step.calls[0].hot);
        assert!(step.calls[1].hot);
    }

    #[test]
    fn macros_attributes_and_keywords_are_not_calls() {
        let g = build_one(
            "#[derive(Debug, Clone)]\n\
             struct S;\n\
             pub fn f(x: Option<u32>) -> u32 {\n\
                 if (x.is_some()) {\n\
                     return (1);\n\
                 }\n\
                 let v = vec![1, 2];\n\
                 matches!(x, Some(_));\n\
                 0\n\
             }\n",
        );
        let f = find(&g, "f");
        let names: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
        assert!(!names.contains(&"derive"));
        assert!(!names.contains(&"if") && !names.contains(&"return"));
        // `is_some` (method, external) and the `Some(_)` pattern inside
        // the macro are recorded — conservatism fails toward keeping.
        assert!(names.contains(&"is_some"));
        assert!(f.calls.iter().all(|c| c.resolution == Resolution::External));
    }

    #[test]
    fn turbofish_calls_are_detected() {
        let g = build_one(
            "pub fn f() { helper::<u32>(1); }\n\
             fn helper<T>(x: T) -> T { x }\n",
        );
        let f = find(&g, "f");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].resolution, Resolution::Unique);
    }

    #[test]
    fn self_calls_resolve_within_the_owner() {
        let g = build_one(
            "struct A;\n\
             impl A {\n\
                 fn go(&self) { Self::helper(); }\n\
                 fn helper() {}\n\
             }\n\
             struct B;\n\
             impl B {\n\
                 fn helper() {}\n\
             }\n",
        );
        let go = find(&g, "go");
        assert_eq!(go.calls[0].targets.len(), 1);
        assert_eq!(
            g.fns[go.calls[0].targets[0]].owner.as_deref(),
            Some("A"),
            "Self:: must not leak to another impl"
        );
    }

    #[test]
    fn ambiguous_bare_calls_keep_every_candidate() {
        let g = build(&[
            (
                "crates/sim/src/a.rs".to_string(),
                "pub fn go() { helper() }\n".to_string(),
            ),
            (
                "crates/net/src/b.rs".to_string(),
                "pub fn helper() {}\n".to_string(),
            ),
            (
                "crates/core/src/c.rs".to_string(),
                "pub fn helper() {}\n".to_string(),
            ),
        ]);
        let go = find(&g, "go");
        assert_eq!(go.calls[0].resolution, Resolution::Ambiguous);
        assert_eq!(go.calls[0].targets.len(), 2);
    }

    #[test]
    fn external_calls_are_counted_not_dropped() {
        let g = build_one("pub fn f() { std::mem::swap(&mut 1, &mut 2); }\n");
        assert_eq!(g.external_calls(), 1);
        assert_eq!(find(&g, "f").calls[0].kind, CallKind::Path);
    }

    #[test]
    fn nested_fns_own_their_lines() {
        let g = build_one(
            "pub fn outer() {\n\
                 fn inner() { let v: Vec<u32> = Vec::new(); }\n\
                 inner();\n\
             }\n",
        );
        assert!(find(&g, "outer").alloc_sink.is_none());
        assert!(find(&g, "inner").alloc_sink.is_some());
        let outer = find(&g, "outer");
        assert_eq!(outer.calls.len(), 1, "{:?}", outer.calls);
        assert_eq!(outer.calls[0].name, "inner");
    }
}
