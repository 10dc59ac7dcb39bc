//! Fixture coverage for the phase-2 flow rule, `hot-path-call-alloc`:
//! a violating fixture that produces unsuppressed findings (the binary
//! would exit nonzero on it) and a clean twin that produces none.

use mobic_lint::rules::{Finding, RuleId};
use mobic_lint::{flow, graph};

/// Builds a call graph from fixture sources mounted at workspace-like
/// paths and runs the flow rule over it.
fn check_flow(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    let g = graph::build(&owned);
    assert!(
        g.findings.iter().all(|f| f.rule != RuleId::Directive),
        "fixtures must not trip directive errors: {:?}",
        g.findings
    );
    flow::check(&g)
}

fn of_rule(findings: &[Finding], rule: RuleId) -> Vec<&Finding> {
    findings
        .iter()
        .filter(|f| f.rule == rule && !f.suppressed)
        .collect()
}

#[test]
fn hot_path_call_alloc_fixture_pair() {
    let bad = check_flow(&[(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/flow/hot_path_call_alloc_bad.rs"),
    )]);
    let hits = of_rule(&bad, RuleId::HotPathCallAlloc);
    assert_eq!(hits.len(), 1, "{bad:?}");
    let f = hits[0];
    assert!(f.message.contains("`fanout`"), "{}", f.message);
    assert!(
        f.witness
            .first()
            .is_some_and(|h| h.what.contains("hot-path")),
        "{:?}",
        f.witness
    );

    let clean = check_flow(&[(
        "crates/net/src/fixture.rs",
        include_str!("fixtures/flow/hot_path_call_alloc_clean.rs"),
    )]);
    assert!(
        of_rule(&clean, RuleId::HotPathCallAlloc).is_empty(),
        "a blessed cold-path callee absorbs the call: {clean:?}"
    );
}
