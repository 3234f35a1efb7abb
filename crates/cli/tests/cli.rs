//! Integration tests driving the `mbirctl` binary itself: flag
//! validation, usage output, and the `--profile` precondition checks.

use std::process::Command;

fn mbirctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mbirctl")).args(args).output().expect("spawn mbirctl")
}

#[test]
fn no_subcommand_prints_usage_and_fails() {
    let out = mbirctl(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: mbirctl"), "stderr: {err}");
}

#[test]
fn unknown_subcommand_fails() {
    let out = mbirctl(&["reconstitute"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: mbirctl"));
}

#[test]
fn unknown_flag_is_rejected_with_usage() {
    // `--scael` is a typo for `--scale`; it used to be silently
    // ignored, running at the default scale instead.
    let out = mbirctl(&["info", "--scael", "tiny"]);
    assert!(!out.status.success(), "typo'd flag must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag(s): --scael"), "stderr: {err}");
    assert!(err.contains("usage: mbirctl"), "stderr: {err}");
}

#[test]
fn flags_of_other_subcommands_are_rejected() {
    // `--sino` belongs to reconstruct, not scan.
    let out = mbirctl(&["scan", "--sino", "x.csv", "--out", "/dev/null"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag(s): --sino"));
}

#[test]
fn known_flags_pass_validation() {
    let out = mbirctl(&["info", "--scale", "tiny"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scale Tiny"), "stdout: {stdout}");
}

#[test]
fn malformed_values_are_usage_errors_naming_the_flag() {
    // Each of these used to run on a default (or write a file named
    // after the next flag, or panic); now each exits 1 with usage and
    // an error naming the flag.
    let dir = temp_dir("strict-args");
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["info", "--scale", "harnes"], "--scale"),
        (&["info", "--threads", "abc"], "--threads"),
        (&["scan", "--seed", "zz", "--out", "s.csv"], "--seed"),
        (&["scan", "--out", "--truth", "x"], "--out"),
        (&["info", "--scale", "tiny", "--scale", "paper"], "--scale"),
        (&["volume", "--slices", "0"], "--slices"),
        (
            &[
                "reconstruct",
                "--sino",
                "s.csv",
                "--out",
                "x.pgm",
                "--checkpoint",
                ckpt,
                "--checkpoint-every",
                "0",
            ],
            "--checkpoint-every",
        ),
    ];
    for (argv, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mbirctl"))
            .args(*argv)
            .current_dir(&dir)
            .output()
            .expect("spawn mbirctl");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{argv:?} must be a usage error: {err}");
        assert!(err.contains(flag), "{argv:?}: stderr lacks {flag}: {err}");
        assert!(err.contains("usage: mbirctl"), "{argv:?}: {err}");
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(leftovers.is_empty(), "a rejected command wrote {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_without_path_fails() {
    let out = mbirctl(&["reconstruct", "--sino", "missing.csv", "--out", "x.pgm", "--profile"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile requires a path"));
}

#[test]
fn devices_zero_is_rejected() {
    let out =
        mbirctl(&["reconstruct", "--sino", "missing.csv", "--out", "x.pgm", "--devices", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--devices must be at least 1"));
}

#[test]
fn devices_rejects_non_gpu_algorithms() {
    let out = mbirctl(&[
        "reconstruct",
        "--sino",
        "missing.csv",
        "--out",
        "x.pgm",
        "--algo",
        "psv",
        "--devices",
        "2",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--devices supports --algo gpu"));
}

#[test]
fn simd_unknown_backend_is_rejected_with_usage() {
    let out =
        mbirctl(&["reconstruct", "--sino", "missing.csv", "--out", "x.pgm", "--simd", "fast"]);
    assert!(!out.status.success(), "unknown --simd value must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --simd backend 'fast'"), "stderr: {err}");
    assert!(err.contains("auto, scalar, lanes"), "stderr: {err}");
    assert!(err.contains("usage: mbirctl"), "stderr: {err}");
}

#[test]
fn simd_belongs_to_reconstruct_only() {
    let out = mbirctl(&["scan", "--out", "/dev/null", "--simd", "lanes"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag(s): --simd"));
}

/// End-to-end `--simd` coverage: every accepted value runs, and the
/// summary line names the backend the run resolved to (Auto resolves
/// to lanes).
#[test]
fn simd_backends_run_and_are_named_in_summary() {
    let dir = std::env::temp_dir().join(format!("mbirctl-simd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sino = dir.join("sino.csv");
    let out = mbirctl(&["scan", "--scale", "tiny", "--out", sino.to_str().unwrap()]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    for (value, resolved) in
        [("scalar", "simd scalar"), ("lanes", "simd lanes"), ("auto", "simd lanes")]
    {
        let img = dir.join(format!("rec-{value}.pgm"));
        let out = mbirctl(&[
            "reconstruct",
            "--scale",
            "tiny",
            "--sino",
            sino.to_str().unwrap(),
            "--out",
            img.to_str().unwrap(),
            "--algo",
            "fbp",
            "--simd",
            value,
        ]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--simd {value}: {err}");
        assert!(err.contains(resolved), "--simd {value} summary must name backend: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet summary line names the active SIMD backend alongside the
/// device count.
#[test]
fn fleet_summary_names_simd_backend() {
    let dir = std::env::temp_dir().join(format!("mbirctl-fleet-simd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sino = dir.join("sino.csv");
    let out = mbirctl(&["scan", "--scale", "tiny", "--out", sino.to_str().unwrap()]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    let img = dir.join("rec.pgm");
    let out = mbirctl(&[
        "reconstruct",
        "--scale",
        "tiny",
        "--sino",
        sino.to_str().unwrap(),
        "--out",
        img.to_str().unwrap(),
        "--algo",
        "gpu",
        "--devices",
        "2",
        "--max-iters",
        "2",
        "--simd",
        "scalar",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "gpu run: {err}");
    assert!(err.contains("simd scalar"), "stderr: {err}");
    assert!(err.contains("on 2 devices"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rejects_unprofiled_algorithms() {
    let out = mbirctl(&[
        "reconstruct",
        "--sino",
        "missing.csv",
        "--out",
        "x.pgm",
        "--algo",
        "fbp",
        "--profile",
        "p.json",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile supports --algo psv|gpu"));
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mbirctl-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn serve_requires_a_workload() {
    let out = mbirctl(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve requires --jobs"));
}

#[test]
fn serve_runs_the_checked_in_mixed_workload() {
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/serve_mixed.json");
    let dir = temp_dir("serve");
    let report = dir.join("report.json");
    let out =
        mbirctl(&["serve", "--jobs", spec, "--devices", "2", "--out", report.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The mixed workload exercises every scheduler path: a rejection,
    // a preemption, and completions across three tenants.
    assert!(stdout.contains("1 rejected"), "stdout: {stdout}");
    assert!(stdout.contains("1 preemption(s),"), "stdout: {stdout}");
    assert!(stdout.contains("REJECTED: lease of 64 devices"), "stdout: {stdout}");
    let text = std::fs::read_to_string(&report).expect("report written");
    for key in ["jobs_per_hour", "fairness_jain", "p99_latency_seconds", "tenants"] {
        assert!(text.contains(key), "report lacks {key}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_a_hostile_workload_gracefully() {
    let dir = temp_dir("serve-bad-jobs");
    let path = dir.join("jobs.json");
    for (bad, needle) in [
        (r#"{"jobs": [{"id": "a", "arrival_seconds": 1e400}]}"#, "not finite"),
        (r#"{"jobs": [{"id": "a"}, {"id": "a"}]}"#, "duplicate job id"),
        (r#"{"jobs": ["#, "bad workload"),
    ] {
        std::fs::write(&path, bad).expect("write workload");
        let out = mbirctl(&["serve", "--jobs", path.to_str().unwrap()]);
        assert!(!out.status.success(), "hostile workload accepted: {bad}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "stderr {err:?} lacks {needle:?} for {bad}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_a_hostile_fleet_spec_without_truncation() {
    let dir = temp_dir("serve-bad-fleet");
    let jobs = dir.join("jobs.json");
    std::fs::write(&jobs, r#"{"jobs": [{"id": "a"}]}"#).expect("write workload");
    let fleet = dir.join("fleet.json");
    // 2^32 + 1000: `as u32` used to truncate this to 1000 silently.
    std::fs::write(
        &fleet,
        r#"{"devices": 2, "interconnect": {}, "gpu": {"name": "evil", "num_smm": 4294968296}}"#,
    )
    .expect("write fleet");
    let out =
        mbirctl(&["serve", "--jobs", jobs.to_str().unwrap(), "--fleet", fleet.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not fit in u32"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_fleet_and_devices_flags_are_exclusive() {
    let out = mbirctl(&["serve", "--jobs", "x.json", "--fleet", "f.json", "--devices", "2"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("pass either --devices or --fleet, not both")
    );
}
