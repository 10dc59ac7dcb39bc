//! The self-test behind the acceptance criterion: the live workspace
//! must lint clean, with zero `lint:allow` exceptions outside
//! `crates/bench`/`crates/cli` and clippy ban exemptions only at the
//! blessed sites, the linter itself must stay dependency-free, and the
//! workspace must resolve with no registry.

use std::path::PathBuf;

/// Locates the workspace root: the nearest ancestor (of the crate
/// manifest dir when cargo provides it, else the current directory)
/// whose `Cargo.toml` declares `[workspace]`.
fn workspace_root() -> PathBuf {
    let start = option_env!("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .expect("a starting directory");
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        assert!(dir.pop(), "no [workspace] manifest above the test dir");
    }
}

#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let analysis = mobic_lint::scan_workspace(&root).expect("workspace scans");
    let live: Vec<_> = analysis.findings.iter().filter(|f| !f.suppressed).collect();
    assert!(
        live.is_empty(),
        "the workspace must lint clean (flow rules included); unsuppressed findings:\n{live:#?}"
    );
    assert!(
        analysis.files_scanned > 50,
        "scan actually covered the tree"
    );
    assert!(
        analysis.functions > 100,
        "the call graph actually extracted the workspace ({} functions)",
        analysis.functions
    );
}

#[test]
fn every_crate_has_a_policy_row() {
    // `CRATE_POLICY` is the single source of truth for rule scoping; a
    // crate without a row would inherit a silent default. Landing one
    // must be a deliberate policy decision.
    let root = workspace_root();
    let mut missing = Vec::new();
    let mut dirs = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ listing") {
        let entry = entry.expect("crates/ entry");
        if !entry.path().is_dir() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        dirs.push(name.clone());
        if mobic_lint::rules::crate_policy(&name).is_none() {
            missing.push(name);
        }
    }
    assert!(
        missing.is_empty(),
        "every crate under crates/ needs an explicit CRATE_POLICY row; missing: {missing:?}"
    );
    // And the reverse: no stale rows for crates that no longer exist.
    let stale: Vec<_> = mobic_lint::rules::CRATE_POLICY
        .iter()
        .map(|p| p.name)
        .filter(|n| !dirs.iter().any(|d| d == n))
        .collect();
    assert!(
        stale.is_empty(),
        "CRATE_POLICY rows without a crate: {stale:?}"
    );
}

#[test]
fn baseline_diffing_masks_old_findings_only() {
    // End-to-end over the live tree: an empty baseline changes
    // nothing, and a fabricated "old finding" entry is surfaced as a
    // stale note rather than silently accepted.
    let root = workspace_root();
    let (mut analysis, _) = mobic_lint::analyze_workspace(&root).expect("workspace scans");
    let baseline = mobic_lint::baseline::parse(
        "{\"version\":1,\"findings\":[{\"rule\":\"hot-path-alloc\",\
         \"file\":\"crates/net/src/gone.rs\",\"message\":\"fixed long ago\"}]}",
    )
    .expect("baseline parses");
    baseline.apply(&mut analysis);
    assert!(
        analysis.is_clean(),
        "live tree stays clean under a baseline"
    );
    assert!(
        analysis.notes.iter().any(|n| n.contains("stale baseline")),
        "unused entries must surface as notes: {:?}",
        analysis.notes
    );
}

#[test]
fn suppressions_only_in_operator_tooling() {
    let root = workspace_root();
    let analysis = mobic_lint::scan_workspace(&root).expect("workspace scans");
    let misplaced: Vec<_> = analysis
        .findings
        .iter()
        .filter(|f| {
            f.suppressed
                && !(f.file.starts_with("crates/bench/") || f.file.starts_with("crates/cli/"))
        })
        .collect();
    assert!(
        misplaced.is_empty(),
        "`lint:allow` is reserved for operator tooling (bench/cli); found:\n{misplaced:#?}"
    );
}

#[test]
fn hot_path_regions_are_annotated_where_promised() {
    // The PR 3 zero-alloc surfaces carry live regions; losing one
    // silently un-polices the hot path.
    let root = workspace_root();
    for file in [
        "crates/net/src/delivery.rs",
        "crates/core/src/node_table.rs",
        "crates/scenario/src/runner.rs",
    ] {
        let text = std::fs::read_to_string(root.join(file)).expect(file);
        assert!(
            text.contains("lint:hot-path") && text.contains("lint:end-hot-path"),
            "{file} must keep its hot-path region markers"
        );
    }
}

/// The clippy lints whose exemptions are reviewed sites: the two
/// `disallowed-*` bans of `clippy.toml` and the five panic lints the
/// typed-error crates deny.
const BAN_LINTS: [&str; 7] = [
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
];

/// `true` if an `allow(…)` or `expect(…)` attribute in `code` (a code
/// shadow, so comments and string literals are blank) names one of
/// [`BAN_LINTS`]. A method call such as `.expect(` is not an attribute.
fn exempts_a_ban(code: &str) -> bool {
    ["allow(", "expect("].iter().any(|open| {
        code.match_indices(open).any(|(at, _)| {
            let before = code[..at].chars().next_back().unwrap_or(' ');
            if before.is_alphanumeric() || before == '_' || before == '.' {
                return false;
            }
            let args = &code[at + open.len()..];
            let args = &args[..args.find(')').unwrap_or(args.len())];
            args.split(',').any(|a| BAN_LINTS.contains(&a.trim()))
        })
    })
}

#[test]
fn clippy_exemptions_stay_at_the_blessed_sites() {
    // Each of these files carries a reviewed `#[expect(…, reason)]`
    // for a `clippy.toml` ban or a panic lint (DESIGN.md §8). An
    // exemption anywhere else must be a deliberate change to this list.
    let blessed = [
        "crates/core/tests/engine_random.rs",
        "crates/net/src/ident.rs",
        "crates/scenario/src/snapshot.rs",
        "crates/scenario/src/sweep.rs",
        "crates/trace/src/artifact.rs",
        "crates/trace/src/profile.rs",
        "crates/trace/src/sink.rs",
        "tests/sweepd_service.rs",
    ];
    let root = workspace_root();
    let mut found = Vec::new();
    for rel in mobic_lint::discover_sources(&root).expect("tree walks") {
        let rel = rel.to_string_lossy().replace('\\', "/");
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel)).expect("source reads");
        let code: Vec<String> = mobic_lint::lexer::split_lines(&source)
            .into_iter()
            .map(|l| l.code)
            .collect();
        if exempts_a_ban(&code.join("\n")) {
            found.push(rel);
        }
    }
    found.sort();
    assert_eq!(found, blessed, "clippy ban exemptions moved");

    // The panic lints are denied where the typed errors live; losing a
    // `deny` silently un-polices the crate.
    for lib in [
        "crates/net/src/lib.rs",
        "crates/scenario/src/lib.rs",
        "crates/trace/src/lib.rs",
    ] {
        let text = std::fs::read_to_string(root.join(lib)).expect(lib);
        let deny = text.split("#![deny(").nth(1).unwrap_or("");
        let deny = &deny[..deny.find(')').unwrap_or(0)];
        for lint in &BAN_LINTS[2..] {
            assert!(deny.contains(lint), "{lib} must deny `{lint}`");
        }
    }
}

#[test]
fn sweepd_has_zero_external_dependencies() {
    // The sweep service must build with the standard library plus
    // workspace crates only (hand-rolled HTTP, no serde of its own),
    // so it runs where the registry is unreachable.
    let root = workspace_root();
    let manifest =
        std::fs::read_to_string(root.join("crates/sweepd/Cargo.toml")).expect("sweepd manifest");
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps && !line.is_empty() {
            assert!(
                line.starts_with("mobic-"),
                "crates/sweepd may only depend on workspace crates, found: {line}"
            );
        }
    }
}

#[test]
fn linter_has_zero_external_dependencies() {
    // The `[dependencies]` table of crates/lint must stay empty: the
    // linter builds from the standard library alone.
    let root = workspace_root();
    let manifest =
        std::fs::read_to_string(root.join("crates/lint/Cargo.toml")).expect("lint manifest");
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if in_deps {
            assert!(
                line.is_empty(),
                "crates/lint [dependencies] must stay empty, found: {line}"
            );
        }
    }
}

#[test]
fn workspace_resolves_without_a_registry() {
    // The root `[patch.crates-io]` points every external crate at an
    // in-tree stand-in, and the lockfile is checked in: without it
    // cargo asks the registry index even for path-only dependencies. A
    // crate resolved from a registry would carry a `source` line.
    let root = workspace_root();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is checked in");
    let mut packages = 0;
    let mut name = "";
    for line in lock.lines() {
        if line == "[[package]]" {
            packages += 1;
        } else if let Some(n) = line.strip_prefix("name = ") {
            name = n;
        }
        assert!(
            !line.starts_with("source = "),
            "package {name} resolves from outside the repository: {line}"
        );
    }
    assert!(packages > 0, "Cargo.lock lists no packages");
}
