//! Rendering of analysis results: human diagnostics and the
//! `--graph-json` call-graph dump.
//!
//! JSON is emitted by hand (the linter is zero-dependency, so no
//! serde); the only subtlety is string escaping, which
//! [`escape_json`] handles for the control/quote/backslash cases that
//! can actually appear in paths and messages.

use crate::graph::Graph;
use crate::rules::Finding;
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

/// Renders the call graph machine-readably (the `--graph-json` mode):
/// every function item with its resolution-annotated calls, plus the
/// summary counters. External calls are kept — the resolution policy
/// itself must stay auditable.
#[must_use]
pub fn render_graph_json(graph: &Graph) -> String {
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
        if let Some(hit) = &f.alloc_sink {
            let _ = write!(
                s,
                ",\"alloc_sink\":{{\"what\":\"{}\",\"line\":{}}}",
                escape_json(&hit.what),
                hit.line
            );
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
    format!(
        "{{\"functions\":[{}],\"function_count\":{},\"external_calls\":{}}}\n",
        fns.join(","),
        graph.fns.len(),
        graph.external_calls()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RuleId, WitnessHop};

    fn sample() -> Analysis {
        let mut flow = Finding::new(
            RuleId::HotPathCallAlloc,
            "crates/net/src/delivery.rs",
            12,
            "hot-path call to `stage` reaches `Vec::new`".to_string(),
        );
        flow.witness = vec![
            WitnessHop {
                what: "calls `stage` from a `lint:hot-path` region".to_string(),
                file: "crates/net/src/delivery.rs".to_string(),
                line: 12,
            },
            WitnessHop {
                what: "hits `Vec::new`".to_string(),
                file: "crates/net/src/stage.rs".to_string(),
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
                    message: "hot-path call to `grow` reaches `Vec::new`".to_string(),
                    suppressed: true,
                    reason: Some("grows once, then reused".to_string()),
                    witness: Vec::new(),
                    baselined: false,
                },
                Finding {
                    rule: RuleId::HotPathAlloc,
                    file: "crates/core/src/z.rs".to_string(),
                    line: 5,
                    message: "old known allocation".to_string(),
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
    fn human_output_lists_all_tiers_and_witness_hops() {
        let text = render_human(&sample());
        assert!(text.contains("error[hot-path-alloc]"));
        assert!(text.contains("crates/net/src/x.rs:7"));
        assert!(text.contains("suppressed findings (1):"));
        assert!(text.contains("baselined findings (1):"));
        assert!(text.contains(
            "1: calls `stage` from a `lint:hot-path` region (crates/net/src/delivery.rs:12)"
        ));
        assert!(text.contains("2: hits `Vec::new` (crates/net/src/stage.rs:80)"));
        assert!(text.contains("2 finding(s) (1 suppressed, 1 baselined)"));
    }

    #[test]
    fn graph_json_parses_and_names_functions() {
        let graph = crate::graph::build(&[(
            "crates/sim/src/engine.rs".to_string(),
            "pub fn step() { helper(); }\nfn helper() { let v: Vec<u32> = Vec::new(); }\n"
                .to_string(),
        )]);
        let dump = render_graph_json(&graph);
        let parsed = crate::baseline::Json::parse(&dump).expect("dump must be valid JSON");
        assert_eq!(
            parsed.get("function_count"),
            Some(&crate::baseline::Json::Number(2.0))
        );
        assert!(dump.contains("\"name\":\"step\""));
        assert!(dump.contains("\"alloc_sink\":{\"what\":\"`Vec::new`\""));
        assert!(dump.contains("\"resolution\":\"unique\""));
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(escape_json("a\nb\u{1}"), "a\\nb\\u0001");
    }
}
