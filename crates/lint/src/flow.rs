//! Phase 2 of the flow analysis: fixpoint reachability over the
//! [`crate::graph`] call graph, with witness-path reconstruction.
//!
//! Three sink classes are propagated *backwards* through the graph
//! (reverse BFS from the functions that hit a sink directly), so
//! every reachable function stores the first hop of a shortest
//! witness chain toward a sink. The chains are deterministic: seeds
//! are enqueued in function-id order, reverse edges are relaxed in
//! (caller id, call index) order, and BFS yields minimum-hop paths.
//!
//! The rules differ only in their seeds, barriers, and reporting
//! policy:
//!
//! * **`transitive-entropy`** — seeds are direct ambient-entropy
//!   sinks; `crates/trace/src/profile.rs` is an *absorbing boundary*
//!   (the sanctioned `PhaseClock` route), so reaching a clock through
//!   it is fine while reaching one through a merely *exempt* file
//!   (bench, cli, sweepd, `sweep.rs`) is laundering. Findings fire
//!   for functions of result-affecting crates whose reach is
//!   **indirect** — direct hits are clippy's `disallowed-*` job.
//! * **`panic-reachability`** — seeds are explicit aborts and bare
//!   `.unwrap()`; findings fire for `pub` functions of
//!   `panic_entry` crates, whether they reach a sink directly or
//!   through calls. In the typed-error crates clippy denies the direct
//!   hits as well, so on a clean tree nothing is reported twice.
//! * **`hot-path-call-alloc`** — seeds are direct allocations;
//!   `// lint:cold-path` functions absorb (a blessed amortized
//!   boundary); findings fire at call sites inside `lint:hot-path`
//!   regions whose callee allocates transitively.

use crate::graph::{Graph, SinkHit};
use crate::rules::{
    crate_policy, Finding, RuleId, WitnessHop, ENTROPY_BOUNDARY_FILES, ENTROPY_EXEMPT_FILES,
};

/// How a function reaches a sink (one step of the witness chain).
#[derive(Debug, Clone)]
enum Step {
    /// The function contains the sink itself.
    Direct(SinkHit),
    /// The function calls `callee` (at 1-based `line`), which reaches
    /// the sink.
    Via { line: usize, callee: usize },
}

/// Per-function reachability state for one sink class.
struct Reach {
    /// `step[f]` is the first hop of a shortest chain from `f` to a
    /// sink, or `None` if `f` cannot reach one.
    step: Vec<Option<Step>>,
}

impl Reach {
    fn reaches(&self, f: usize) -> bool {
        self.step[f].is_some()
    }

    fn is_direct(&self, f: usize) -> bool {
        matches!(self.step[f], Some(Step::Direct(_)))
    }

    /// The witness chain from `f` down to the sink: one hop per call,
    /// terminated by the sink itself. Capped defensively (BFS chains
    /// are acyclic, but the cap keeps a future bug from looping).
    fn witness(&self, graph: &Graph, f: usize) -> Vec<WitnessHop> {
        let mut hops = Vec::new();
        let mut at = f;
        for _ in 0..64 {
            match &self.step[at] {
                Some(Step::Via { line, callee }) => {
                    let target = &graph.fns[*callee];
                    hops.push(WitnessHop {
                        what: format!("calls `{}`", qualified(graph, *callee)),
                        file: graph.fns[at].file.clone(),
                        line: *line,
                    });
                    let _ = target;
                    at = *callee;
                }
                Some(Step::Direct(sink)) => {
                    hops.push(WitnessHop {
                        what: format!("hits {}", sink.what),
                        file: graph.fns[at].file.clone(),
                        line: sink.line,
                    });
                    return hops;
                }
                None => return hops,
            }
        }
        hops
    }
}

/// `Owner::name` display form for witness hops and messages.
fn qualified(graph: &Graph, f: usize) -> String {
    let item = &graph.fns[f];
    match &item.owner {
        Some(o) => format!("{}::{}", o, item.name),
        None => item.name.clone(),
    }
}

/// Reverse BFS from every non-blocked function with a direct sink.
///
/// `sink` projects the class's direct sink out of a function;
/// `blocked` marks absorbing functions (boundaries, cold callees —
/// they neither seed nor propagate). Test functions never
/// participate.
fn propagate(
    graph: &Graph,
    sink: impl Fn(usize) -> Option<SinkHit>,
    blocked: impl Fn(usize) -> bool,
) -> Reach {
    let n = graph.fns.len();
    // Reverse adjacency: for each callee, the (caller, call line)
    // pairs that can step into it, in deterministic order.
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for f in &graph.fns {
        if f.is_test || blocked(f.id) {
            continue;
        }
        for call in &f.calls {
            for &t in &call.targets {
                rev[t].push((f.id, call.line));
            }
        }
    }

    let mut reach = Reach {
        step: (0..n).map(|_| None).collect(),
    };
    let mut queue = std::collections::VecDeque::new();
    for f in &graph.fns {
        if f.is_test || blocked(f.id) {
            continue;
        }
        if let Some(hit) = sink(f.id) {
            reach.step[f.id] = Some(Step::Direct(hit));
            queue.push_back(f.id);
        }
    }
    while let Some(at) = queue.pop_front() {
        for &(caller, line) in &rev[at] {
            if reach.step[caller].is_none() {
                reach.step[caller] = Some(Step::Via { line, callee: at });
                queue.push_back(caller);
            }
        }
    }
    reach
}

/// Runs every flow rule over the graph and returns the findings
/// (suppression via `lint:allow` at the anchor line already applied).
#[must_use]
pub fn check(graph: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    transitive_entropy(graph, &mut findings);
    panic_reachability(graph, &mut findings);
    hot_path_call_alloc(graph, &mut findings);
    findings
}

/// Marks a flow finding suppressed if a `lint:allow` covers its
/// anchor line.
fn apply_allow(graph: &Graph, f: &mut Finding) {
    if let Some(allow) = graph.allowed(&f.file, f.line, f.rule) {
        f.suppressed = true;
        f.reason = Some(allow.reason.clone());
    }
}

fn transitive_entropy(graph: &Graph, findings: &mut Vec<Finding>) {
    let boundary =
        |id: usize| -> bool { ENTROPY_BOUNDARY_FILES.contains(&graph.fns[id].file.as_str()) };
    let reach = propagate(graph, |id| graph.fns[id].entropy_sink.clone(), boundary);
    for f in &graph.fns {
        if f.is_test || !reach.reaches(f.id) || reach.is_direct(f.id) {
            continue;
        }
        // Only functions of result-affecting crates are held to the
        // determinism contract; exempt files may *carry* entropy (the
        // propagation runs through them so laundering is visible) but
        // their own functions are not reported.
        let result_affecting = f
            .crate_name
            .as_deref()
            .and_then(crate_policy)
            .is_some_and(|p| p.result_affecting);
        if !result_affecting
            || ENTROPY_EXEMPT_FILES.contains(&f.file.as_str())
            || ENTROPY_BOUNDARY_FILES.contains(&f.file.as_str())
        {
            continue;
        }
        let witness = reach.witness(graph, f.id);
        let (first, last) = (&witness[0], &witness[witness.len() - 1]);
        let mut finding = Finding::new(
            RuleId::TransitiveEntropy,
            &f.file,
            first.line,
            format!(
                "`{}` (result-affecting crate `{}`) transitively reaches {} \
                 through {} call hop(s); thread a `SeedSplitter` stream or a \
                 `mobic_trace::profile` clock down instead",
                qualified(graph, f.id),
                f.crate_name.as_deref().unwrap_or("?"),
                last.what.trim_start_matches("hits "),
                witness.len() - 1,
            ),
        );
        finding.witness = witness;
        apply_allow(graph, &mut finding);
        findings.push(finding);
    }
}

fn panic_reachability(graph: &Graph, findings: &mut Vec<Finding>) {
    let reach = propagate(graph, |id| graph.fns[id].panic_sink.clone(), |_| false);
    for f in &graph.fns {
        if f.is_test || !f.is_pub || !reach.reaches(f.id) {
            continue;
        }
        let Some(policy) = f.crate_name.as_deref().and_then(crate_policy) else {
            continue;
        };
        if !policy.panic_entry {
            continue;
        }
        let witness = reach.witness(graph, f.id);
        let last = &witness[witness.len() - 1];
        let mut finding = Finding::new(
            RuleId::PanicReachability,
            &f.file,
            f.decl_line,
            format!(
                "public `{}` can reach {} ({}:{}) in {} call hop(s); convert the \
                 chain to the typed error or document the invariant with `.expect`",
                qualified(graph, f.id),
                last.what.trim_start_matches("hits "),
                last.file,
                last.line,
                witness.len() - 1,
            ),
        );
        finding.witness = witness;
        apply_allow(graph, &mut finding);
        findings.push(finding);
    }
}

fn hot_path_call_alloc(graph: &Graph, findings: &mut Vec<Finding>) {
    let cold = |id: usize| -> bool { graph.fns[id].cold.is_some() };
    let reach = propagate(graph, |id| graph.fns[id].alloc_sink.clone(), cold);
    for f in &graph.fns {
        if f.is_test {
            continue;
        }
        for call in &f.calls {
            if !call.hot {
                continue;
            }
            // First allocating target wins the diagnostic; ambiguity
            // is noted so a wrong resolution is visible.
            let Some(&bad) = call.targets.iter().find(|&&t| !cold(t) && reach.reaches(t)) else {
                continue;
            };
            let mut witness = vec![WitnessHop {
                what: format!(
                    "calls `{}` from a `lint:hot-path` region",
                    qualified(graph, bad)
                ),
                file: f.file.clone(),
                line: call.line,
            }];
            witness.extend(reach.witness(graph, bad));
            let last = witness.last().expect("witness has the call hop").clone();
            let ambiguity = if call.targets.len() > 1 {
                format!(
                    " (resolution is ambiguous across {} candidates)",
                    call.targets.len()
                )
            } else {
                String::new()
            };
            let mut finding = Finding::new(
                RuleId::HotPathCallAlloc,
                &f.file,
                call.line,
                format!(
                    "hot-path call to `{}` reaches {} ({}:{}){}; hoist the allocation \
                     or bless the callee with `lint:cold-path`",
                    qualified(graph, bad),
                    last.what.trim_start_matches("hits "),
                    last.file,
                    last.line,
                    ambiguity,
                ),
            );
            finding.witness = witness;
            apply_allow(graph, &mut finding);
            findings.push(finding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        check(&graph::build(&owned))
    }

    #[test]
    fn entropy_laundering_through_an_exempt_crate_is_caught() {
        // sim (result-affecting) calls a sweepd helper that reads the
        // clock: the per-file scoping cannot see this, the flow can.
        let f = run(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn step() { let t = sweepd_now(); }\n",
            ),
            (
                "crates/sweepd/src/clock.rs",
                "pub fn sweepd_now() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == RuleId::TransitiveEntropy)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        let hit = hits[0];
        assert_eq!(hit.file, "crates/sim/src/engine.rs");
        assert_eq!(hit.line, 1, "anchored at the first offending call site");
        assert_eq!(hit.witness.len(), 2, "{:?}", hit.witness);
        assert!(hit.witness[0].what.contains("sweepd_now"));
        assert!(hit.witness[1].what.contains("Instant"));
        // The sweepd helper itself is not reported (not result-affecting).
        assert!(!hits.iter().any(|x| x.file.contains("sweepd")));
    }

    #[test]
    fn profile_boundary_absorbs_entropy() {
        let f = run(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn step() { let t = clock_start(); }\n",
            ),
            (
                "crates/trace/src/profile.rs",
                "pub fn clock_start() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert!(
            !f.iter().any(|x| x.rule == RuleId::TransitiveEntropy),
            "the sanctioned PhaseClock route must stay clean: {f:?}"
        );
    }

    #[test]
    fn direct_entropy_is_left_to_clippy() {
        let f = run(&[(
            "crates/sim/src/engine.rs",
            "pub fn step() { let t = Instant::now(); }\n",
        )]);
        assert!(
            !f.iter().any(|x| x.rule == RuleId::TransitiveEntropy),
            "direct sinks are clippy's `disallowed-*` job: {f:?}"
        );
    }

    #[test]
    fn panic_two_hops_from_a_pub_entry_fires_with_witness() {
        let f = run(&[
            (
                "crates/scenario/src/runner.rs",
                "pub fn run_scenario() { prepare(); }\n\
                 fn prepare() { model_pos(); }\n",
            ),
            (
                "crates/mobility/src/rwp.rs",
                "pub fn model_pos() -> f64 { opt.unwrap() }\n",
            ),
        ]);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == RuleId::PanicReachability)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        let hit = hits[0];
        assert_eq!(hit.file, "crates/scenario/src/runner.rs");
        assert_eq!(hit.line, 1, "anchored at the pub entry declaration");
        assert_eq!(hit.witness.len(), 3);
        assert!(hit.message.contains("2 call hop(s)"));
        // `model_pos` is pub too, but mobility is not a panic-entry
        // crate; `prepare` reaches the sink but is not pub.
        assert!(!hits.iter().any(|x| x.file.contains("mobility")));
    }

    #[test]
    fn direct_panic_in_a_panic_entry_pub_fn_fires() {
        for file in ["crates/sweepd/src/server.rs", "crates/net/src/table.rs"] {
            let f = run(&[(file, "pub fn serve() { sock.unwrap(); }\n")]);
            let hits: Vec<&Finding> = f
                .iter()
                .filter(|x| x.rule == RuleId::PanicReachability)
                .collect();
            assert_eq!(hits.len(), 1, "{file}: {f:?}");
            assert_eq!(hits[0].witness.len(), 1);
        }
    }

    #[test]
    fn hot_call_to_allocating_callee_fires() {
        let f = run(&[(
            "crates/net/src/delivery.rs",
            "pub fn pump() {\n\
                 // lint:hot-path — steady state\n\
                 stage();\n\
                 // lint:end-hot-path\n\
             }\n\
             fn stage() { let v: Vec<u32> = Vec::new(); }\n",
        )]);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == RuleId::HotPathCallAlloc)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert_eq!(hits[0].line, 3, "anchored at the hot call site");
        assert_eq!(hits[0].witness.len(), 2);
    }

    #[test]
    fn cold_path_blessing_absorbs_alloc() {
        let f = run(&[(
            "crates/net/src/delivery.rs",
            "pub fn pump() {\n\
                 // lint:hot-path — steady state\n\
                 stage();\n\
                 // lint:end-hot-path\n\
             }\n\
             // lint:cold-path: amortized doubling, measured free in steady state\n\
             fn stage() { let v: Vec<u32> = Vec::new(); }\n",
        )]);
        assert!(
            !f.iter().any(|x| x.rule == RuleId::HotPathCallAlloc),
            "{f:?}"
        );
    }

    #[test]
    fn lint_allow_suppresses_flow_findings_at_the_anchor() {
        let f = run(&[
            (
                "crates/sim/src/engine.rs",
                "pub fn step() {\n\
                     // lint:allow(transitive-entropy): startup banner only\n\
                     let t = helper_now();\n\
                 }\n",
            ),
            (
                "crates/sweepd/src/clock.rs",
                "pub fn helper_now() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        let hits: Vec<&Finding> = f
            .iter()
            .filter(|x| x.rule == RuleId::TransitiveEntropy)
            .collect();
        assert_eq!(hits.len(), 1, "{f:?}");
        assert!(hits[0].suppressed, "allow at the anchor covers: {hits:?}");
        assert_eq!(hits[0].reason.as_deref(), Some("startup banner only"));
    }

    #[test]
    fn witness_chains_are_shortest_and_deterministic() {
        // Two routes to the sink: direct call (1 hop) and via a relay
        // (2 hops). BFS must pick the 1-hop witness every time.
        let src = "pub fn entry() { relay(); sink_fn(); }\n\
                   fn relay() { sink_fn(); }\n\
                   fn sink_fn() { v.unwrap(); }\n";
        for _ in 0..8 {
            let f = run(&[("crates/scenario/src/runner.rs", src)]);
            let hit = f
                .iter()
                .find(|x| x.rule == RuleId::PanicReachability && x.message.contains("`entry`"))
                .expect("entry must be reported");
            assert_eq!(hit.witness.len(), 2, "{:?}", hit.witness);
            assert!(hit.witness[0].what.contains("sink_fn"));
        }
    }

    #[test]
    fn recursion_terminates() {
        let f = run(&[(
            "crates/scenario/src/runner.rs",
            "pub fn a() { b(); }\n\
             fn b() { a(); x.unwrap(); }\n",
        )]);
        assert!(f.iter().any(|x| x.rule == RuleId::PanicReachability));
    }
}
