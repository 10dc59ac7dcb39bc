//! The `mobic-lint` command-line entry point.
//!
//! ```text
//! mobic-lint [--root <path>] [--json | --fix-plan | --graph-json]
//!            [--baseline <file>] [--emit-baseline]
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed (and unbaselined) findings,
//! `2` usage or I/O error. The default root is found by walking up
//! from the current directory to the first `Cargo.toml` that declares
//! `[workspace]`.

use std::path::PathBuf;
use std::process::ExitCode;

enum Mode {
    Human,
    Json,
    FixPlan,
    GraphJson,
    EmitBaseline,
}

fn usage() -> &'static str {
    "usage: mobic-lint [--root <path>] [--json | --fix-plan | --graph-json]\n\
     \x20                 [--baseline <file>] [--emit-baseline]\n\
     \n\
     Scans the workspace for allocations in `lint:hot-path` regions,\n\
     malformed `lint:` directives and dependency-policy violations, and\n\
     runs the call-graph flow rules (transitive-entropy,\n\
     panic-reachability, hot-path-call-alloc). The per-line bans on hash\n\
     containers, clocks, the environment, panics and raw writes are\n\
     clippy's (`clippy.toml`).\n\
     \n\
       --root <path>     workspace root (default: nearest [workspace] manifest)\n\
       --json            machine-readable output\n\
       --fix-plan        markdown triage checklist grouped by rule\n\
       --graph-json      dump the call graph (functions, calls, resolution)\n\
       --baseline <f>    accept findings listed in <f>; fail only on NEW ones\n\
       --emit-baseline   print the current findings as a baseline file\n"
}

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut mode = Mode::Human;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => mode = Mode::Json,
            "--fix-plan" => mode = Mode::FixPlan,
            "--graph-json" => mode = Mode::GraphJson,
            "--emit-baseline" => mode = Mode::EmitBaseline,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --baseline requires a file\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }

    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("error: no workspace root found (pass --root <path>)");
        return ExitCode::from(2);
    };

    let (mut analysis, graph) = match mobic_lint::analyze_workspace(&root) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: scanning {} failed: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &baseline_path {
        match mobic_lint::baseline::load(path) {
            Ok(baseline) => baseline.apply(&mut analysis),
            Err(e) => {
                eprintln!("error: baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    match mode {
        Mode::Human => print!("{}", mobic_lint::report::render_human(&analysis)),
        Mode::Json => print!("{}", mobic_lint::report::render_json(&analysis)),
        Mode::FixPlan => print!("{}", mobic_lint::report::render_fix_plan(&analysis)),
        Mode::GraphJson => print!(
            "{}",
            mobic_lint::report::render_graph_json(&graph, &analysis)
        ),
        Mode::EmitBaseline => print!("{}", mobic_lint::baseline::render(&analysis)),
    }

    // --emit-baseline is an authoring aid: it always succeeds so the
    // output can be captured even from a dirty tree.
    if matches!(mode, Mode::EmitBaseline) || analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
