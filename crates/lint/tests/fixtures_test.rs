//! Per-rule fixture coverage: each rule has a violating fixture that
//! must produce unsuppressed findings (so the binary would exit
//! nonzero on it) and a clean twin that must produce none.

use mobic_lint::{rules_for_path, scan_source, Finding, RuleId};

/// Scans a fixture as if it lived at `as_path`, so the path-scoped
/// rule set matches the rule under test.
fn scan_fixture(source: &str, as_path: &str) -> Vec<Finding> {
    let rules = rules_for_path(as_path);
    assert!(
        !rules.is_empty(),
        "fixture path {as_path} must map to a non-empty rule set"
    );
    scan_source(as_path, source, &rules)
}

fn unsuppressed(findings: &[Finding], rule: RuleId) -> usize {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .count()
}

#[test]
fn hot_path_alloc_fixture_pair() {
    let bad = scan_fixture(
        include_str!("fixtures/hot_path_alloc_bad.rs"),
        "crates/geom/src/fixture.rs",
    );
    // `.collect`, `vec!`, and the return-type `Vec` builder inside the
    // region; `with_capacity` outside must NOT fire.
    assert!(unsuppressed(&bad, RuleId::HotPathAlloc) >= 2, "{bad:?}");
    assert!(
        bad.iter().all(|f| f.line >= 9),
        "nothing outside the region may fire: {bad:?}"
    );

    let clean = scan_fixture(
        include_str!("fixtures/hot_path_alloc_clean.rs"),
        "crates/geom/src/fixture.rs",
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn hot_path_bucket_queue_fixture_pair() {
    // A bucketed queue's push/pop shape: the bad twin grows the
    // buckets and formats a label inside the region (`Vec::new`,
    // `format!`, `.collect` → at least 3 sites); the clean twin
    // pre-sizes at construction and only moves entries between
    // existing buffers.
    let bad = scan_fixture(
        include_str!("fixtures/hot_path_bucket_queue_bad.rs"),
        "crates/sim/src/fixture.rs",
    );
    assert!(unsuppressed(&bad, RuleId::HotPathAlloc) >= 3, "{bad:?}");

    let clean = scan_fixture(
        include_str!("fixtures/hot_path_bucket_queue_clean.rs"),
        "crates/sim/src/fixture.rs",
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn suppression_fixture_covers_the_grammar() {
    let findings = scan_fixture(
        include_str!("fixtures/suppression.rs"),
        "crates/net/src/fixture.rs",
    );
    let suppressed: Vec<&Finding> = findings.iter().filter(|f| f.suppressed).collect();
    // Cases 1 and 2: suppressed, each carrying its reason.
    assert_eq!(suppressed.len(), 2, "{findings:?}");
    assert!(suppressed.iter().all(|f| f
        .reason
        .as_deref()
        .is_some_and(|r| r.contains("suppression"))));
    // Case 3: reasonless allow → directive error + live finding.
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::Directive && f.message.contains("mandatory reason")));
    // Case 4: unknown rule → directive error.
    assert!(findings
        .iter()
        .any(|f| f.rule == RuleId::Directive && f.message.contains("unknown rule")));
    // The reasonless and unknown-rule allocations stay live.
    assert_eq!(
        unsuppressed(&findings, RuleId::HotPathAlloc),
        2,
        "{findings:?}"
    );
}

#[test]
fn hot_path_region_syntax_fixtures() {
    let nested = scan_fixture(
        include_str!("fixtures/hot_path_nested.rs"),
        "crates/geom/src/fixture.rs",
    );
    assert!(nested
        .iter()
        .any(|f| f.rule == RuleId::HotPathAlloc && f.message.contains("nested")));

    let unclosed = scan_fixture(
        include_str!("fixtures/hot_path_unclosed.rs"),
        "crates/geom/src/fixture.rs",
    );
    assert!(unclosed
        .iter()
        .any(|f| f.rule == RuleId::HotPathAlloc && f.message.contains("without an open")));
    assert!(unclosed
        .iter()
        .any(|f| f.rule == RuleId::HotPathAlloc && f.message.contains("never closed")));
}

#[test]
fn violating_fixtures_would_exit_nonzero() {
    // The binary exits nonzero iff `Analysis::is_clean()` is false;
    // prove the link for one representative fixture of each polarity.
    let bad = mobic_lint::Analysis {
        findings: scan_fixture(
            include_str!("fixtures/hot_path_alloc_bad.rs"),
            "crates/geom/src/fixture.rs",
        ),
        files_scanned: 1,
        notes: vec![],
    };
    assert!(!bad.is_clean());

    let clean = mobic_lint::Analysis {
        findings: scan_fixture(
            include_str!("fixtures/hot_path_alloc_clean.rs"),
            "crates/geom/src/fixture.rs",
        ),
        files_scanned: 1,
        notes: vec![],
    };
    assert!(clean.is_clean());
}
