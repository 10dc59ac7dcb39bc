//! The `mobic-lint` command-line entry point.
//!
//! ```text
//! mobic-lint [--root <path>] [--emit-baseline] [--baseline <file>]
//! ```
//!
//! Exit codes: `0` clean, `1` unsuppressed (and unbaselined) findings,
//! `2` usage or I/O error. The default root is found by walking up
//! from the current directory to the first `Cargo.toml` that declares
//! `[workspace]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: mobic-lint [--root <path>] [--emit-baseline] [--baseline <file>]\n\
     \n\
     Scans the workspace for allocations written in `lint:hot-path` regions\n\
     (hot-path-alloc) and for malformed `lint:` directives. The per-line\n\
     bans on hash containers, clocks, the environment, panics and raw\n\
     writes are clippy's (`clippy.toml` and the crates' `#![deny(...)]`s);\n\
     tests/steady_state_allocations.rs measures the loop's allocations.\n\
     \n\
     \x20 --root <path>     workspace root (default: nearest [workspace] manifest)\n\
     \x20 --baseline <f>    accept findings listed in <f>; fail only on NEW ones\n\
     \x20 --emit-baseline   print the current findings as a baseline file\n"
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
    let mut emit_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-baseline" => emit_baseline = true,
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

    let mut analysis = match mobic_lint::scan_workspace(&root) {
        Ok(analysis) => analysis,
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

    // --emit-baseline is an authoring aid: it always succeeds so the
    // output can be captured even from a dirty tree.
    if emit_baseline {
        print!("{}", mobic_lint::baseline::render(&analysis));
        return ExitCode::SUCCESS;
    }
    print!("{}", mobic_lint::report::render_human(&analysis));
    if analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
