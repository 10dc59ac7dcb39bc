//! Phase 2 of the flow analysis: fixpoint reachability over the
//! [`crate::graph`] call graph, with witness-path reconstruction, for
//! the `hot-path-call-alloc` rule.
//!
//! Direct allocations are propagated *backwards* through the graph
//! (reverse BFS from the functions that allocate directly), so every
//! reachable function stores the first hop of a shortest witness chain
//! toward an allocation. The chains are deterministic: seeds are
//! enqueued in function-id order, reverse edges are relaxed in (caller
//! id, call index) order, and BFS yields minimum-hop paths.
//! `// lint:cold-path` functions absorb (a blessed amortized boundary:
//! they neither seed nor propagate). Findings fire at call sites
//! inside `lint:hot-path` regions whose callee allocates transitively.

use crate::graph::{Graph, SinkHit};
use crate::rules::{Finding, RuleId, WitnessHop};

/// How a function reaches a sink (one step of the witness chain).
#[derive(Debug, Clone)]
enum Step {
    /// The function contains the sink itself.
    Direct(SinkHit),
    /// The function calls `callee` (at 1-based `line`), which reaches
    /// the sink.
    Via { line: usize, callee: usize },
}

/// Per-function reachability state.
struct Reach {
    /// `step[f]` is the first hop of a shortest chain from `f` to a
    /// sink, or `None` if `f` cannot reach one.
    step: Vec<Option<Step>>,
}

impl Reach {
    fn reaches(&self, f: usize) -> bool {
        self.step[f].is_some()
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
                    hops.push(WitnessHop {
                        what: format!("calls `{}`", qualified(graph, *callee)),
                        file: graph.fns[at].file.clone(),
                        line: *line,
                    });
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

/// Reverse BFS from every function that allocates directly. Cold
/// functions neither seed nor propagate; test functions never
/// participate.
fn propagate(graph: &Graph) -> Reach {
    let n = graph.fns.len();
    // Reverse adjacency: for each callee, the (caller, call line)
    // pairs that can step into it, in deterministic order.
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for f in &graph.fns {
        if f.is_test || f.cold.is_some() {
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
        if f.is_test || f.cold.is_some() {
            continue;
        }
        if let Some(hit) = &f.alloc_sink {
            reach.step[f.id] = Some(Step::Direct(hit.clone()));
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

/// Marks a flow finding suppressed if a `lint:allow` covers its
/// anchor line.
fn apply_allow(graph: &Graph, f: &mut Finding) {
    if let Some(allow) = graph.allowed(&f.file, f.line, f.rule) {
        f.suppressed = true;
        f.reason = Some(allow.reason.clone());
    }
}

/// Runs `hot-path-call-alloc` over the graph and returns the findings
/// (suppression via `lint:allow` at the anchor line already applied).
#[must_use]
pub fn check(graph: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    let cold = |id: usize| -> bool { graph.fns[id].cold.is_some() };
    let reach = propagate(graph);
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
    findings
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
        let f = run(&[(
            "crates/net/src/delivery.rs",
            "pub fn pump() {\n\
                 // lint:hot-path — steady state\n\
                 // lint:allow(hot-path-call-alloc): grows once, then reused\n\
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
        assert_eq!(hits[0].line, 4, "anchored at the hot call site");
        assert!(hits[0].suppressed, "allow at the anchor covers: {hits:?}");
        assert_eq!(hits[0].reason.as_deref(), Some("grows once, then reused"));
    }

    #[test]
    fn witness_chains_are_shortest_and_deterministic() {
        // `stage` reaches the allocation two ways: directly (1 hop)
        // and via a relay (2 hops). BFS must pick the 1-hop witness
        // every time.
        let src = "pub fn pump() {\n\
                   // lint:hot-path\n\
                   stage();\n\
                   // lint:end-hot-path\n\
                   }\n\
                   fn stage() { relay(); grow(); }\n\
                   fn relay() { grow(); }\n\
                   fn grow() { let v: Vec<u32> = Vec::new(); }\n";
        for _ in 0..8 {
            let f = run(&[("crates/net/src/delivery.rs", src)]);
            assert_eq!(f.len(), 1, "{f:?}");
            let hops = &f[0].witness;
            assert_eq!(hops.len(), 3, "{hops:?}");
            assert!(hops[0].what.contains("`stage`"));
            assert!(hops[1].what.contains("`grow`"));
            assert!(hops[2].what.contains("Vec::new"));
        }
    }

    #[test]
    fn recursion_terminates() {
        let f = run(&[(
            "crates/net/src/delivery.rs",
            "pub fn pump() {\n\
                 // lint:hot-path\n\
                 a();\n\
                 // lint:end-hot-path\n\
             }\n\
             fn a() { b(); }\n\
             fn b() { a(); let v: Vec<u32> = Vec::new(); }\n",
        )]);
        assert!(f.iter().any(|x| x.rule == RuleId::HotPathCallAlloc));
    }
}
