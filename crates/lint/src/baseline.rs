//! `--baseline` support: a checked-in inventory of known findings
//! that the CI gate tolerates, so the gate fails only on **new**
//! findings while the audit inventory stays visible in every run.
//!
//! The file format is the linter's own JSON
//! (`{"version":1,"findings":[{"rule":…,"file":…,"message":…},…]}`),
//! parsed by a minimal hand-rolled JSON reader (the crate stays
//! zero-dependency). Entries are keyed by `(rule, file, message)` —
//! deliberately **line-free**, so unrelated edits that shift a known
//! finding a few lines do not churn the baseline. A baseline entry
//! that matches no current finding is *stale* and reported as a note,
//! so the inventory can only shrink deliberately.

use crate::Analysis;
use std::path::Path;

/// One tolerated finding, keyed line-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Rule name (`transitive-entropy`).
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// Exact finding message.
    pub message: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Every tolerated finding.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Marks every finding matched by the baseline, and returns notes
    /// for stale entries (present in the baseline, absent from the
    /// analysis).
    pub fn apply(&self, analysis: &mut Analysis) {
        let mut used = vec![false; self.entries.len()];
        for f in &mut analysis.findings {
            if f.suppressed {
                continue;
            }
            let rule = f.rule.name();
            if let Some(i) = self
                .entries
                .iter()
                .position(|e| e.rule == rule && e.file == f.file && e.message == f.message)
            {
                f.baselined = true;
                used[i] = true;
            }
        }
        for (e, used) in self.entries.iter().zip(used) {
            if !used {
                analysis.notes.push(format!(
                    "stale baseline entry (no matching finding — remove it): \
                     [{}] {} — {}",
                    e.rule, e.file, e.message
                ));
            }
        }
    }
}

/// Renders the current *unsuppressed* findings as a baseline file, so
/// `--emit-baseline` can snapshot an inventory to burn down.
#[must_use]
pub fn render(analysis: &Analysis) -> String {
    use crate::report::escape_json;
    let entries: Vec<String> = analysis
        .findings
        .iter()
        .filter(|f| !f.suppressed)
        .map(|f| {
            format!(
                "  {{\"rule\":\"{}\",\"file\":\"{}\",\"message\":\"{}\"}}",
                f.rule.name(),
                escape_json(&f.file),
                escape_json(&f.message)
            )
        })
        .collect();
    format!(
        "{{\n\"version\": 1,\n\"findings\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    )
}

/// Loads and parses a baseline file.
///
/// # Errors
///
/// Returns a human-readable message for I/O failures, JSON syntax
/// errors, an unsupported `version`, or entries missing a required
/// key — a malformed baseline must fail the gate loudly, never
/// silently tolerate everything.
pub fn load(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("malformed baseline {}: {e}", path.display()))
}

/// Parses baseline JSON text. See [`load`] for the error contract.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let value = Json::parse(text)?;
    let obj = value.as_object().ok_or("top level must be an object")?;
    match obj.iter().find(|(k, _)| k == "version").map(|(_, v)| v) {
        Some(Json::Number(n)) if *n == 1.0 => {}
        Some(other) => return Err(format!("unsupported version {other:?}")),
        None => return Err("missing \"version\"".to_string()),
    }
    let findings = obj
        .iter()
        .find(|(k, _)| k == "findings")
        .map(|(_, v)| v)
        .ok_or("missing \"findings\"")?;
    let Json::Array(items) = findings else {
        return Err("\"findings\" must be an array".to_string());
    };
    let mut entries = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let obj = item
            .as_object()
            .ok_or_else(|| format!("findings[{i}] must be an object"))?;
        let get = |key: &str| -> Result<String, String> {
            match obj.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                Some(Json::String(s)) => Ok(s.clone()),
                _ => Err(format!("findings[{i}] is missing string key \"{key}\"")),
            }
        };
        entries.push(BaselineEntry {
            rule: get("rule")?,
            file: get("file")?,
            message: get("message")?,
        });
    }
    Ok(Baseline { entries })
}

/// A minimal JSON value — just enough for baseline files (and for the
/// CI `--graph-json` smoke, which reuses [`Json::parse`] to prove the
/// dump is well-formed).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as f64.
    Number(f64),
    /// A string with escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, keys in document order (duplicates kept).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The object key/value list, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(kv) => Some(kv),
            _ => None,
        }
    }

    /// Looks up a key of an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Parses a complete JSON document (trailing garbage is an
    /// error).
    ///
    /// # Errors
    ///
    /// Returns a descriptive message with a byte offset on syntax
    /// errors.
    pub fn parse(text: &str) -> Result<Json, String> {
        let b = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut kv = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(kv));
            }
            loop {
                skip_ws(b, pos);
                let Json::String(key) = parse_value(b, pos)? else {
                    return Err(format!("object key at byte {pos} is not a string"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                kv.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(kv));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::String(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex =
                                    b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                // Surrogate pairs are not needed for
                                // lint messages; map them to U+FFFD.
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *pos += 4;
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Copy the raw UTF-8 byte run for this char.
                        let start = *pos;
                        let len = utf8_len(c);
                        *pos += len;
                        s.push_str(
                            std::str::from_utf8(b.get(start..start + len).ok_or("bad utf-8")?)
                                .map_err(|_| "bad utf-8")?,
                        );
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Json::Number)
                .ok_or_else(|| format!("invalid token at byte {start}"))
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, RuleId};

    fn analysis_with(findings: Vec<Finding>) -> Analysis {
        Analysis {
            findings,
            files_scanned: 1,
            functions: 0,
            notes: Vec::new(),
        }
    }

    #[test]
    fn empty_baseline_parses_and_matches_nothing() {
        let b = parse("{\"version\": 1, \"findings\": []}").expect("parses");
        assert!(b.entries.is_empty());
        let mut a = analysis_with(vec![Finding::new(
            RuleId::TransitiveEntropy,
            "crates/sim/src/x.rs",
            3,
            "reaches a clock".to_string(),
        )]);
        b.apply(&mut a);
        assert!(!a.findings[0].baselined);
        assert!(a.notes.is_empty());
    }

    #[test]
    fn matching_entry_baselines_the_finding_line_free() {
        let b = parse(
            "{\"version\":1,\"findings\":[{\"rule\":\"transitive-entropy\",\
             \"file\":\"crates/sim/src/x.rs\",\"message\":\"reaches a clock\"}]}",
        )
        .expect("parses");
        // Line 99 on purpose: the key ignores lines.
        let mut a = analysis_with(vec![Finding::new(
            RuleId::TransitiveEntropy,
            "crates/sim/src/x.rs",
            99,
            "reaches a clock".to_string(),
        )]);
        b.apply(&mut a);
        assert!(a.findings[0].baselined);
        assert!(a.is_clean(), "baselined findings do not fail the gate");
    }

    #[test]
    fn stale_entries_become_notes() {
        let b = parse(
            "{\"version\":1,\"findings\":[{\"rule\":\"hot-path-alloc\",\
             \"file\":\"gone.rs\",\"message\":\"old\"}]}",
        )
        .expect("parses");
        let mut a = analysis_with(Vec::new());
        b.apply(&mut a);
        assert_eq!(a.notes.len(), 1);
        assert!(a.notes[0].contains("stale baseline entry"));
    }

    #[test]
    fn malformed_baselines_error_loudly() {
        assert!(parse("").is_err());
        assert!(parse("[]").is_err());
        assert!(parse("{\"findings\": []}").is_err(), "missing version");
        assert!(parse("{\"version\": 2, \"findings\": []}").is_err());
        assert!(
            parse("{\"version\":1,\"findings\":[{\"rule\":\"x\"}]}").is_err(),
            "entry missing keys"
        );
        assert!(parse("{\"version\":1,\"findings\":[]} trailing").is_err());
    }

    #[test]
    fn render_round_trips_through_parse() {
        let a = analysis_with(vec![Finding::new(
            RuleId::DepPolicy,
            "crates/net/Cargo.toml",
            42,
            "license `GPL` is not allowed — \"quoted\"".to_string(),
        )]);
        let text = render(&a);
        let b = parse(&text).expect("rendered baseline parses");
        assert_eq!(b.entries.len(), 1);
        assert_eq!(b.entries[0].rule, "dep-policy");
        assert_eq!(
            b.entries[0].message,
            "license `GPL` is not allowed — \"quoted\""
        );
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = Json::parse("{\"a\": [1, {\"b\": \"x\\n\\u0041\"}, true, null]}").expect("parses");
        let arr = v.get("a").expect("key a");
        let Json::Array(items) = arr else {
            panic!("not an array")
        };
        assert_eq!(items[0], Json::Number(1.0));
        assert_eq!(items[1].get("b"), Some(&Json::String("x\nA".to_string())));
        assert_eq!(items[2], Json::Bool(true));
        assert_eq!(items[3], Json::Null);
    }
}
