//! Rendering of analysis results: human diagnostics, and the string
//! escaping the hand-written baseline JSON needs (the linter is
//! zero-dependency, so no serde). [`escape_json`] handles the
//! control/quote/backslash cases that can actually appear in paths and
//! messages.

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

/// Renders human-readable diagnostics, one block per finding, followed
/// by a summary line.
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
        "{} file(s) scanned, {} finding(s) ({} suppressed, {} baselined)",
        analysis.files_scanned,
        active.len(),
        suppressed.len(),
        baselined.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;

    fn sample() -> Analysis {
        Analysis {
            findings: vec![
                Finding::new(
                    RuleId::HotPathAlloc,
                    "crates/net/src/x.rs",
                    7,
                    "allocation in hot-path region: `Vec::new`".to_string(),
                ),
                Finding {
                    rule: RuleId::HotPathAlloc,
                    file: "crates/sim/src/y.rs".to_string(),
                    line: 3,
                    message: "allocation in hot-path region: `vec!`".to_string(),
                    suppressed: true,
                    reason: Some("grows once, then reused".to_string()),
                    baselined: false,
                },
                Finding {
                    rule: RuleId::HotPathAlloc,
                    file: "crates/core/src/z.rs".to_string(),
                    line: 5,
                    message: "old known allocation".to_string(),
                    suppressed: false,
                    reason: None,
                    baselined: true,
                },
            ],
            files_scanned: 2,
            notes: vec!["a note".to_string()],
        }
    }

    #[test]
    fn human_output_lists_all_tiers() {
        let text = render_human(&sample());
        assert!(text.contains("error[hot-path-alloc]"));
        assert!(text.contains("crates/net/src/x.rs:7"));
        assert!(text.contains("suppressed findings (1):"));
        assert!(text.contains("baselined findings (1):"));
        assert!(text.contains("note: a note"));
        assert!(text.contains("2 file(s) scanned, 1 finding(s) (1 suppressed, 1 baselined)"));
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(escape_json("a\nb\u{1}"), "a\\nb\\u0001");
    }
}
