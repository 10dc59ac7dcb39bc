//! End-to-end tests of the `mobic-cli` binary: spawn the real
//! executable and check its stdout/stderr/exit codes.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mobic-cli"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = cli().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("--tx-sweep"));
}

#[test]
fn table1_prints_the_paper_parameters() {
    let out = cli().arg("table1").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in ["Broadcast Interval", "2.0 sec", "900 sec"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn run_produces_summary() {
    let out = cli()
        .args([
            "run",
            "--algorithm",
            "mobic",
            "--nodes",
            "10",
            "--time",
            "40",
            "--tx",
            "200",
            "--seed",
            "3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("clusterhead changes"));
    assert!(text.contains("algorithm           mobic"));
}

#[test]
fn run_json_is_machine_readable_and_deterministic() {
    let invoke = || {
        let out = cli()
            .args([
                "run", "--nodes", "10", "--time", "40", "--tx", "200", "--seed", "3", "--json",
            ])
            .output()
            .expect("spawn");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let a = invoke();
    let b = invoke();
    assert_eq!(a, b, "same seed must yield identical JSON");
    let value: serde_json::Value = serde_json::from_str(&a).expect("valid JSON");
    assert!(value["clusterhead_changes"].as_f64().is_some());
    assert_eq!(value["seed"].as_u64(), Some(3));
}

#[test]
fn sweep_prints_table_rows() {
    let out = cli()
        .args([
            "sweep",
            "--nodes",
            "10",
            "--time",
            "30",
            "--tx-sweep",
            "100:200:100",
            "--seeds",
            "2",
            "--algorithms",
            "lcc,mobic",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lcc CS"));
    assert!(text.contains("mobic CS"));
    // Two sweep rows: Tx = 100 and 200.
    assert!(
        text.lines()
            .filter(|l| l.trim_start().starts_with("100") || l.trim_start().starts_with("200"))
            .count()
            >= 2,
        "{text}"
    );
}

#[test]
fn run_trace_writes_jsonl_and_manifest() {
    let dir = std::env::temp_dir().join("mobic-cli-trace-test");
    std::fs::remove_dir_all(&dir).ok();
    let trace = dir.join("run.jsonl");
    let invoke = || {
        let out = cli()
            .args([
                "run", "--nodes", "8", "--time", "30", "--tx", "200", "--seed", "5", "--trace",
            ])
            .arg(&trace)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read(&trace).expect("trace file written")
    };
    let a = invoke();
    let b = invoke();
    assert_eq!(a, b, "same seed must yield a byte-identical trace");
    let text = String::from_utf8(a).unwrap();
    assert!(text.lines().count() > 0);
    for line in text.lines().take(50) {
        let v: serde_json::Value = serde_json::from_str(line).expect("JSONL line");
        assert!(v["kind"].as_str().is_some());
        assert!(v["t_us"].as_u64().is_some());
    }
    let manifest = std::fs::read_to_string(dir.join("run.manifest.json"))
        .expect("manifest written next to trace");
    let parsed: serde_json::Value = serde_json::from_str(&manifest).unwrap();
    let first = &parsed.as_array().expect("a manifest array")[0];
    assert_eq!(first["seed"].as_u64(), Some(5));
    assert!(first["config_hash"]
        .as_str()
        .unwrap()
        .starts_with("fnv1a64:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_goes_to_stderr_keeping_json_stdout_clean() {
    let out = cli()
        .args([
            "run",
            "--nodes",
            "8",
            "--time",
            "30",
            "--tx",
            "200",
            "--seed",
            "3",
            "--json",
            "--profile",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let _: serde_json::Value = serde_json::from_str(&stdout).expect("stdout is pure JSON");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("phase wall-clock timings"), "{stderr}");
    assert!(stderr.contains("event loop"));
}

#[test]
fn run_with_faults_reports_fault_counters_in_json() {
    let out = cli()
        .args([
            "run",
            "--nodes",
            "10",
            "--time",
            "60",
            "--tx",
            "200",
            "--seed",
            "3",
            "--faults",
            "crashes=2,from=10",
            "--json",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(value["faults"]["crashes"].as_u64(), Some(2), "{value}");
}

#[test]
fn sweep_out_writes_cell_files_and_resume_skips_them() {
    let dir = std::env::temp_dir().join("mobic-cli-resume-test");
    std::fs::remove_dir_all(&dir).ok();
    let invoke_with = |seeds: &str, resume: bool| {
        let mut cmd = cli();
        cmd.args([
            "sweep",
            "--nodes",
            "8",
            "--time",
            "30",
            "--tx-sweep",
            "150:150:50",
            "--seeds",
            seeds,
            "--algorithms",
            "lcc",
            "--out",
        ])
        .arg(&dir);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().expect("spawn")
    };
    let invoke = |resume: bool| invoke_with("1", resume);
    let first = invoke(false);
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let cell = dir.join("cell_lcc_tx150.json");
    let text = std::fs::read_to_string(&cell).expect("cell file written");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("cell is JSON");
    assert_eq!(parsed["algorithm"].as_str(), Some("lcc"));
    assert_eq!(parsed["x"].as_f64(), Some(150.0));

    let second = invoke(true);
    assert!(
        second.status.success(),
        "{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let stderr = String::from_utf8(second.stderr).unwrap();
    assert!(stderr.contains("resume:"), "{stderr}");
    // The resumed sweep still prints the full table from the cells.
    let stdout = String::from_utf8(second.stdout).unwrap();
    assert!(stdout.contains("lcc CS"), "{stdout}");

    // A resume with more seeds must not trust the 1-seed file: the
    // cell is recomputed and rewritten with both runs.
    let wider = invoke_with("2", true);
    assert!(
        wider.status.success(),
        "{}",
        String::from_utf8_lossy(&wider.stderr)
    );
    let stderr = String::from_utf8(wider.stderr).unwrap();
    assert!(!stderr.contains("already done"), "{stderr}");
    let text = std::fs::read_to_string(&cell).expect("cell file rewritten");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("cell is JSON");
    assert_eq!(parsed["runs"].as_u64(), Some(2), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_fail_with_usage_on_stderr() {
    // The cause and a pointer to `help`, not the whole usage text.
    let out = cli()
        .args(["run", "--algorithm", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains("bogus"), "{err}");
    assert!(err.contains("mobic-cli help"), "{err}");
    assert!(!err.contains("USAGE"), "{err}");
    assert_eq!(err.lines().count(), 2, "{err}");
}

#[test]
fn invalid_scenario_rejected_before_running() {
    let out = cli().args(["run", "--nodes", "0"]).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("invalid scenario"), "{err}");
}
