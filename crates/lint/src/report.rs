//! Rendering of analysis results: human diagnostics, `--json` machine
//! output, the `--fix-plan` triage checklist, and the `--graph-json`
//! call-graph dump.
//!
//! JSON is emitted by hand (the linter is zero-dependency, so no
//! serde); the only subtlety is string escaping, which
//! [`escape_json`] handles for the control/quote/backslash cases that
//! can actually appear in paths and messages.

use crate::graph::Graph;
use crate::rules::{Finding, RuleId, ALL_RULES};
use crate::Analysis;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `true` for the findings that fail the gate.
fn is_active(f: &Finding) -> bool {
    !f.suppressed && !f.baselined
}

/// Renders human-readable diagnostics, one block per finding (witness
/// chains indented under flow findings), followed by a summary line.
/// Suppressed and baselined findings are listed separately so both
/// exception inventories stay visible in every run.
#[must_use]
pub fn render_human(analysis: &Analysis) -> String {
    let mut out = String::new();
    let active: Vec<&Finding> = analysis.findings.iter().filter(|f| is_active(f)).collect();
    let suppressed: Vec<&Finding> = analysis.findings.iter().filter(|f| f.suppressed).collect();
    let baselined: Vec<&Finding> = analysis
        .findings
        .iter()
        .filter(|f| f.baselined && !f.suppressed)
        .collect();

    for f in &active {
        let _ = writeln!(out, "error[{}]: {}", f.rule.name(), f.message);
        let _ = writeln!(out, "  --> {}:{}", f.file, f.line);
        for (i, hop) in f.witness.iter().enumerate() {
            let _ = writeln!(out, "  {}: {} ({}:{})", i + 1, hop.what, hop.file, hop.line);
        }
    }
    if !baselined.is_empty() {
        let _ = writeln!(out, "baselined findings ({}):", baselined.len());
        for f in &baselined {
            let _ = writeln!(
                out,
                "  {}:{} [{}] — {}",
                f.file,
                f.line,
                f.rule.name(),
                f.message
            );
        }
    }
    if !suppressed.is_empty() {
        let _ = writeln!(out, "suppressed findings ({}):", suppressed.len());
        for f in &suppressed {
            let _ = writeln!(
                out,
                "  {}:{} [{}] — {}",
                f.file,
                f.line,
                f.rule.name(),
                f.reason.as_deref().unwrap_or("(no reason recorded)")
            );
        }
    }
    for note in &analysis.notes {
        let _ = writeln!(out, "note: {note}");
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned, {} function(s) in the call graph, {} finding(s) \
         ({} suppressed, {} baselined)",
        analysis.files_scanned,
        analysis.functions,
        active.len(),
        suppressed.len(),
        baselined.len()
    );
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
        f.rule.name(),
        escape_json(&f.file),
        f.line,
        escape_json(&f.message)
    );
    if let Some(reason) = &f.reason {
        let _ = write!(s, ",\"reason\":\"{}\"", escape_json(reason));
    }
    if !f.witness.is_empty() {
        let hops: Vec<String> = f
            .witness
            .iter()
            .map(|h| {
                format!(
                    "{{\"what\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                    escape_json(&h.what),
                    escape_json(&h.file),
                    h.line
                )
            })
            .collect();
        let _ = write!(s, ",\"witness\":[{}]", hops.join(","));
    }
    s.push('}');
    s
}

/// Renders the analysis as a single JSON object:
/// `{"files_scanned": N, "functions": N, "findings": […],
/// "baselined": […], "suppressed": […], "notes": […]}`.
#[must_use]
pub fn render_json(analysis: &Analysis) -> String {
    let active: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| is_active(f))
        .map(finding_json)
        .collect();
    let baselined: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| f.baselined && !f.suppressed)
        .map(finding_json)
        .collect();
    let suppressed: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| f.suppressed)
        .map(finding_json)
        .collect();
    let notes: Vec<String> = analysis
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape_json(n)))
        .collect();
    format!(
        "{{\"files_scanned\":{},\"functions\":{},\"findings\":[{}],\"baselined\":[{}],\
         \"suppressed\":[{}],\"notes\":[{}]}}\n",
        analysis.files_scanned,
        analysis.functions,
        active.join(","),
        baselined.join(","),
        suppressed.join(","),
        notes.join(",")
    )
}

/// Renders a markdown triage checklist of unsuppressed findings,
/// grouped by rule in catalog order (the `--fix-plan` mode). Flow
/// findings render their witness chain under the checklist item, one
/// line per hop (entry → … → sink), so the plan is actionable
/// without re-running the tool.
#[must_use]
pub fn render_fix_plan(analysis: &Analysis) -> String {
    let mut out = String::from("# mobic-lint fix plan\n");
    let active: Vec<&Finding> = analysis.findings.iter().filter(|f| is_active(f)).collect();
    if active.is_empty() {
        out.push_str("\nNo unsuppressed findings — the workspace is clean.\n");
        return out;
    }
    for rule in ALL_RULES {
        let of_rule: Vec<&&Finding> = active.iter().filter(|f| f.rule == rule).collect();
        if of_rule.is_empty() {
            continue;
        }
        let _ = write!(out, "\n## {} ({})\n\n", rule.name(), of_rule.len());
        let _ = writeln!(out, "{}", rule_fix_hint(rule));
        for f in of_rule {
            let _ = writeln!(out, "- [ ] `{}:{}` — {}", f.file, f.line, f.message);
            for (i, hop) in f.witness.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {}. {} — `{}:{}`",
                    i + 1,
                    hop.what,
                    hop.file,
                    hop.line
                );
            }
        }
    }
    out
}

/// Renders the call graph machine-readably (the `--graph-json` mode):
/// every function item with its resolution-annotated calls, plus the
/// findings and summary counters. External calls are kept — the
/// resolution policy itself must stay auditable.
#[must_use]
pub fn render_graph_json(graph: &Graph, analysis: &Analysis) -> String {
    let mut fns = Vec::with_capacity(graph.fns.len());
    for f in &graph.fns {
        let mut s = format!(
            "{{\"id\":{},\"name\":\"{}\",\"file\":\"{}\",\"line\":{}",
            f.id,
            escape_json(&f.name),
            escape_json(&f.file),
            f.decl_line
        );
        if let Some(owner) = &f.owner {
            let _ = write!(s, ",\"owner\":\"{}\"", escape_json(owner));
        }
        if let Some(krate) = &f.crate_name {
            let _ = write!(s, ",\"crate\":\"{}\"", escape_json(krate));
        }
        if f.is_pub {
            s.push_str(",\"pub\":true");
        }
        if f.is_test {
            s.push_str(",\"test\":true");
        }
        if let Some(reason) = &f.cold {
            let _ = write!(s, ",\"cold\":\"{}\"", escape_json(reason));
        }
        for (key, sink) in [
            ("entropy_sink", &f.entropy_sink),
            ("panic_sink", &f.panic_sink),
            ("alloc_sink", &f.alloc_sink),
        ] {
            if let Some(hit) = sink {
                let _ = write!(
                    s,
                    ",\"{key}\":{{\"what\":\"{}\",\"line\":{}}}",
                    escape_json(&hit.what),
                    hit.line
                );
            }
        }
        let calls: Vec<String> = f
            .calls
            .iter()
            .map(|c| {
                let mut cs = format!(
                    "{{\"name\":\"{}\",\"kind\":\"{}\",\"line\":{},\"resolution\":\"{}\"",
                    escape_json(&c.name),
                    c.kind.name(),
                    c.line,
                    c.resolution.name()
                );
                if !c.qual.is_empty() {
                    let segs: Vec<String> = c
                        .qual
                        .iter()
                        .map(|q| format!("\"{}\"", escape_json(q)))
                        .collect();
                    let _ = write!(cs, ",\"qual\":[{}]", segs.join(","));
                }
                if c.hot {
                    cs.push_str(",\"hot\":true");
                }
                if !c.targets.is_empty() {
                    let ids: Vec<String> = c.targets.iter().map(usize::to_string).collect();
                    let _ = write!(cs, ",\"targets\":[{}]", ids.join(","));
                }
                cs.push('}');
                cs
            })
            .collect();
        let _ = write!(s, ",\"calls\":[{}]}}", calls.join(","));
        fns.push(s);
    }
    let findings: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| is_active(f))
        .map(finding_json)
        .collect();
    format!(
        "{{\"functions\":[{}],\"function_count\":{},\"external_calls\":{},\"findings\":[{}]}}\n",
        fns.join(","),
        graph.fns.len(),
        graph.external_calls(),
        findings.join(",")
    )
}

/// One-line remediation guidance per rule, shown in the fix plan.
fn rule_fix_hint(rule: RuleId) -> &'static str {
    match rule {
        RuleId::HotPathAlloc => {
            "Reuse a scratch buffer owned by the caller, or move the allocation out \
             of the region."
        }
        RuleId::DepPolicy => "Unify the dependency requirements / fix the manifest license field.",
        RuleId::Directive => "Fix the `lint:` directive syntax (these are never suppressible).",
        RuleId::TransitiveEntropy => {
            "Thread a `SeedSplitter` stream (or `mobic_trace::profile` clock) down the \
             call chain instead of reaching the ambient source; the witness below is \
             the laundering path."
        }
        RuleId::PanicReachability => {
            "Convert the chain to the typed error, or document the invariant with \
             `.expect(\"…\")` at the sink."
        }
        RuleId::HotPathCallAlloc => {
            "Hoist the allocation out of the callee, or mark the callee \
             `// lint:cold-path: <reason>` if its cost is amortized by design."
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::WitnessHop;

    fn sample() -> Analysis {
        let mut flow = Finding::new(
            RuleId::PanicReachability,
            "crates/scenario/src/runner.rs",
            12,
            "public `run_scenario` can reach bare `.unwrap()` in 2 call hop(s)".to_string(),
        );
        flow.witness = vec![
            WitnessHop {
                what: "calls `prepare`".to_string(),
                file: "crates/scenario/src/runner.rs".to_string(),
                line: 14,
            },
            WitnessHop {
                what: "hits bare `.unwrap()`".to_string(),
                file: "crates/mobility/src/rwp.rs".to_string(),
                line: 80,
            },
        ];
        Analysis {
            findings: vec![
                Finding::new(
                    RuleId::HotPathAlloc,
                    "crates/net/src/x.rs",
                    7,
                    "allocation in hot-path region: `Vec::new`".to_string(),
                ),
                Finding {
                    rule: RuleId::HotPathCallAlloc,
                    file: "crates/sim/src/y.rs".to_string(),
                    line: 3,
                    message: "wall-clock \"read\"".to_string(),
                    suppressed: true,
                    reason: Some("progress timer".to_string()),
                    witness: Vec::new(),
                    baselined: false,
                },
                Finding {
                    rule: RuleId::TransitiveEntropy,
                    file: "crates/core/src/z.rs".to_string(),
                    line: 5,
                    message: "old known laundering path".to_string(),
                    suppressed: false,
                    reason: None,
                    witness: Vec::new(),
                    baselined: true,
                },
                flow,
            ],
            files_scanned: 2,
            functions: 4,
            notes: vec!["a note".to_string()],
        }
    }

    #[test]
    fn json_escapes_quotes_and_separates_tiers() {
        let json = render_json(&sample());
        assert!(json.contains("\\\"read\\\""));
        assert!(json.contains("\"findings\":[{\"rule\":\"hot-path-alloc\""));
        assert!(json.contains("\"suppressed\":[{\"rule\":\"hot-path-call-alloc\""));
        assert!(json.contains("\"baselined\":[{\"rule\":\"transitive-entropy\""));
        assert!(json.contains("\"reason\":\"progress timer\""));
        assert!(json.contains("\"files_scanned\":2"));
        assert!(json.contains("\"functions\":4"));
        assert!(
            json.contains("\"witness\":[{\"what\":\"calls `prepare`\""),
            "flow findings carry their witness: {json}"
        );
    }

    #[test]
    fn human_output_lists_all_tiers_and_witness_hops() {
        let text = render_human(&sample());
        assert!(text.contains("error[hot-path-alloc]"));
        assert!(text.contains("crates/net/src/x.rs:7"));
        assert!(text.contains("suppressed findings (1):"));
        assert!(text.contains("baselined findings (1):"));
        assert!(text.contains("1: calls `prepare` (crates/scenario/src/runner.rs:14)"));
        assert!(text.contains("2: hits bare `.unwrap()` (crates/mobility/src/rwp.rs:80)"));
        assert!(text.contains("2 finding(s) (1 suppressed, 1 baselined)"));
    }

    #[test]
    fn fix_plan_groups_by_rule_and_renders_witness_chains() {
        let plan = render_fix_plan(&sample());
        assert!(plan.contains("## hot-path-alloc (1)"));
        assert!(plan.contains("- [ ] `crates/net/src/x.rs:7`"));
        assert!(
            !plan.contains("hot-path-call-alloc (1)"),
            "suppressed excluded"
        );
        assert!(!plan.contains("old known laundering"), "baselined excluded");
        assert!(plan.contains("## panic-reachability (1)"));
        assert!(
            plan.contains("  1. calls `prepare` — `crates/scenario/src/runner.rs:14`"),
            "one line per hop: {plan}"
        );
        assert!(plan.contains("  2. hits bare `.unwrap()` — `crates/mobility/src/rwp.rs:80`"));
    }

    #[test]
    fn clean_fix_plan_says_so() {
        let clean = Analysis {
            findings: Vec::new(),
            files_scanned: 5,
            functions: 9,
            notes: Vec::new(),
        };
        assert!(render_fix_plan(&clean).contains("clean"));
    }

    #[test]
    fn graph_json_parses_and_names_functions() {
        let graph = crate::graph::build(&[(
            "crates/sim/src/engine.rs".to_string(),
            "pub fn step() { helper(); }\nfn helper() { let t = Instant::now(); }\n".to_string(),
        )]);
        let analysis = Analysis {
            findings: Vec::new(),
            files_scanned: 1,
            functions: graph.fns.len(),
            notes: Vec::new(),
        };
        let dump = render_graph_json(&graph, &analysis);
        let parsed = crate::baseline::Json::parse(&dump).expect("dump must be valid JSON");
        assert_eq!(
            parsed.get("function_count"),
            Some(&crate::baseline::Json::Number(2.0))
        );
        assert!(dump.contains("\"name\":\"step\""));
        assert!(dump.contains("\"entropy_sink\":{\"what\":\"`Instant`\""));
        assert!(dump.contains("\"resolution\":\"unique\""));
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(escape_json("a\nb\u{1}"), "a\\nb\\u0001");
    }
}
