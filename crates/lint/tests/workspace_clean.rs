//! The self-test behind the acceptance criterion: the live workspace
//! must lint clean, with zero `lint:allow` exceptions outside
//! `crates/bench`/`crates/cli` and clippy ban exemptions only at the
//! blessed sites; the crates that decide result bytes must depend only
//! on each other; the linter itself must stay dependency-free; and the
//! workspace must resolve with no registry, one version per package
//! and an allowed license on every member.

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

/// The non-empty lines of `manifest`'s `[section]` table, comments
/// stripped.
fn table<'m>(manifest: &'m str, section: &str) -> Vec<&'m str> {
    let header = format!("[{section}]");
    let mut inside = false;
    let mut lines = Vec::new();
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == header;
        } else if inside && !line.is_empty() {
            lines.push(line);
        }
    }
    lines
}

/// The quoted value of `key = "…"` in `manifest`'s `[section]` table.
fn string_value(manifest: &str, section: &str, key: &str) -> Option<String> {
    table(manifest, section).into_iter().find_map(|line| {
        let value = line.strip_prefix(key)?.trim_start().strip_prefix('=')?;
        Some(value.trim().trim_matches('"').to_string())
    })
}

#[test]
fn live_workspace_is_clean() {
    let root = workspace_root();
    let analysis = mobic_lint::scan_workspace(&root).expect("workspace scans");
    let live: Vec<_> = analysis.findings.iter().filter(|f| !f.suppressed).collect();
    assert!(
        live.is_empty(),
        "the workspace must lint clean; unsuppressed findings:\n{live:#?}"
    );
    assert!(
        analysis.files_scanned > 50,
        "scan actually covered the tree"
    );
}

#[test]
fn baseline_diffing_masks_old_findings_only() {
    // End-to-end over the live tree: an empty baseline changes
    // nothing, and a fabricated "old finding" entry is surfaced as a
    // stale note rather than silently accepted.
    let root = workspace_root();
    let mut analysis = mobic_lint::scan_workspace(&root).expect("workspace scans");
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
/// crates deny.
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

    // Every crate a panic entry point (`run_scenario`, the sweep
    // service) can reach denies the panic lints; losing a `deny`
    // silently un-polices the crate. The typed-error crates deny
    // `.expect` too; elsewhere a documented `.expect` states an
    // invariant.
    let typed_error = ["net", "scenario", "trace"];
    for name in RUN_CRATES.into_iter().chain(["sweepd", "trace"]) {
        let lib = format!("crates/{name}/src/lib.rs");
        let text = std::fs::read_to_string(root.join(&lib)).expect("lib.rs reads");
        let deny = text.split("#![deny(").nth(1).unwrap_or("");
        let deny = &deny[..deny.find(')').unwrap_or(0)];
        for lint in &BAN_LINTS[2..] {
            if *lint == "clippy::expect_used" && !typed_error.contains(&name) {
                continue;
            }
            assert!(deny.contains(lint), "{lib} must deny `{lint}`");
        }
    }
}

/// The crates whose code decides `RunResult` bytes.
const RUN_CRATES: [&str; 8] = [
    "core", "geom", "metrics", "mobility", "net", "radio", "scenario", "sim",
];

#[test]
fn run_crates_depend_only_on_run_crates() {
    // The operator crates (bench, cli, sweepd) may read clocks, the
    // environment and host parallelism. A run crate cannot call their
    // code without naming them as a dependency, so with this test,
    // clippy.toml's bans and the reviewed `#[expect]` sites, no clock
    // or ambient RNG reaches a result through any call chain
    // (DESIGN.md §8). `mobic-trace` holds the sanctioned profiling
    // clock, whose readings are never serialized into results.
    let root = workspace_root();
    let mut stray = Vec::new();
    for name in RUN_CRATES {
        let rel = format!("crates/{name}/Cargo.toml");
        let manifest = std::fs::read_to_string(root.join(&rel)).expect("manifest reads");
        let listed = table(&manifest, "dependencies")
            .into_iter()
            .map(|line| line.split(['=', '.']).next().unwrap_or("").trim());
        let tables = manifest.lines().filter_map(|line| {
            line.trim()
                .strip_prefix("[dependencies.")?
                .strip_suffix(']')
        });
        for dep in listed.chain(tables).filter(|d| d.starts_with("mobic-")) {
            let allowed = dep == "mobic-trace"
                || dep
                    .strip_prefix("mobic-")
                    .is_some_and(|d| RUN_CRATES.contains(&d));
            if !allowed {
                stray.push(format!("{rel}: {dep}"));
            }
        }
    }
    assert!(
        stray.is_empty(),
        "a run crate depends on a crate outside {RUN_CRATES:?} and mobic-trace: {stray:?}"
    );
}

#[test]
fn sweepd_has_zero_external_dependencies() {
    // The sweep service must build with the standard library plus
    // workspace crates only (hand-rolled HTTP, no serde of its own),
    // so it runs where the registry is unreachable.
    let root = workspace_root();
    let manifest =
        std::fs::read_to_string(root.join("crates/sweepd/Cargo.toml")).expect("sweepd manifest");
    for line in table(&manifest, "dependencies") {
        assert!(
            line.starts_with("mobic-"),
            "crates/sweepd may only depend on workspace crates, found: {line}"
        );
    }
}

#[test]
fn linter_has_zero_external_dependencies() {
    // The `[dependencies]` table of crates/lint must stay empty: the
    // linter builds from the standard library alone.
    let root = workspace_root();
    let manifest =
        std::fs::read_to_string(root.join("crates/lint/Cargo.toml")).expect("lint manifest");
    let deps = table(&manifest, "dependencies");
    assert!(
        deps.is_empty(),
        "crates/lint [dependencies] must stay empty, found: {deps:?}"
    );
}

#[test]
fn workspace_resolves_without_a_registry() {
    // The root `[patch.crates-io]` points every external crate at an
    // in-tree stand-in, and the lockfile is checked in: without it
    // cargo asks the registry index even for path-only dependencies. A
    // crate resolved from a registry would carry a `source` line. A
    // package resolved at two versions (two majors: cargo unifies
    // semver-compatible requirements) risks two copies of an RNG or a
    // serializer with different behaviour.
    let root = workspace_root();
    let lock = std::fs::read_to_string(root.join("Cargo.lock")).expect("Cargo.lock is checked in");
    let mut packages = 0;
    let mut names = Vec::new();
    for line in lock.lines() {
        if line == "[[package]]" {
            packages += 1;
        } else if let Some(n) = line.strip_prefix("name = ") {
            names.push(n.trim_matches('"'));
        }
        assert!(
            !line.starts_with("source = "),
            "package {} resolves from outside the repository: {line}",
            names.last().unwrap_or(&"?")
        );
    }
    assert!(packages > 0, "Cargo.lock lists no packages");
    names.sort_unstable();
    let twice: Vec<&str> = names
        .windows(2)
        .filter(|pair| pair[0] == pair[1])
        .map(|pair| pair[0])
        .collect();
    assert!(
        twice.is_empty(),
        "packages resolved at two versions: {twice:?}"
    );
}

/// The licenses a workspace member may declare.
const ALLOWED_LICENSES: [&str; 3] = ["MIT OR Apache-2.0", "MIT", "Apache-2.0"];

#[test]
fn every_member_declares_an_allowed_license() {
    // The root package and every crate, whether it names its license
    // or inherits `[workspace.package]`'s.
    let root = workspace_root();
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let inherited = string_value(&root_manifest, "workspace.package", "license");
    let mut manifests = vec![("Cargo.toml".to_string(), root_manifest)];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ listing")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .collect();
    crates.sort();
    for manifest in crates {
        let rel = manifest
            .strip_prefix(&root)
            .unwrap_or(&manifest)
            .display()
            .to_string();
        manifests.push((
            rel,
            std::fs::read_to_string(&manifest).expect("manifest reads"),
        ));
    }
    assert!(manifests.len() > 10, "the scan found the crates");
    let mut bad = Vec::new();
    for (rel, text) in &manifests {
        let license = if table(text, "package").contains(&"license.workspace = true") {
            inherited.clone()
        } else {
            string_value(text, "package", "license")
        };
        if !license
            .as_deref()
            .is_some_and(|l| ALLOWED_LICENSES.contains(&l))
        {
            bad.push(format!("{rel}: {license:?}"));
        }
    }
    assert!(
        bad.is_empty(),
        "licenses outside {ALLOWED_LICENSES:?}: {bad:?}"
    );
}
