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
fn info_prints_the_gpu_plan_footprint() {
    // The GPU plan holds a u16 band offset and a u8 code per SV
    // element, plus per-voxel records: a little over 3 B per element.
    let out = mbirctl(&["info", "--scale", "test"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.contains("GPU plan:")).expect("a GPU plan line");
    let field = |unit: &str| -> f64 {
        let head = &line[..line.find(unit).expect(unit)];
        head.rsplit(' ').next().expect("a number").parse().expect("a number")
    };
    let (mb, per_element) = (field(" MB"), field(" B per SV element"));
    assert!(mb > 0.0, "{line}");
    assert!((3.0..4.0).contains(&per_element), "{line}");
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
        (&["scan", "--i0", "-1", "--out", "s.csv"], "--i0"),
        (&["scan", "--i0", "0", "--out", "s.csv"], "--i0"),
        (&["reconstruct", "--sino", "s.csv", "--out", "x.pgm", "--i0", "-5"], "--i0"),
        (&["reconstruct", "--sino", "s.csv", "--out", "x.pgm", "--i0", "nan"], "--i0"),
        (&["reconstruct", "--sino", "s.csv", "--out", "x.pgm", "--sigma", "inf"], "--sigma"),
        (&["reconstruct", "--sino", "s.csv", "--out", "x.pgm", "--sigma", "0"], "--sigma"),
        (&["volume", "--sigma", "nan"], "--sigma"),
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

/// There is one SIMD lane path, so no subcommand takes `--simd`.
#[test]
fn simd_is_an_unknown_flag_everywhere() {
    for args in [
        &["scan", "--out", "/dev/null", "--simd", "lanes"][..],
        &["reconstruct", "--sino", "missing.csv", "--out", "x.pgm", "--simd", "lanes"],
    ] {
        let out = mbirctl(args);
        assert_eq!(out.status.code(), Some(1), "{}: --simd must exit 1", args[0]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag(s): --simd"), "{}: {err}", args[0]);
    }
}

/// The fleet summary line names the device count.
#[test]
fn fleet_summary_names_the_device_count() {
    let dir = std::env::temp_dir().join(format!("mbirctl-fleet-{}", std::process::id()));
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
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "gpu run: {err}");
    assert!(err.contains("on 2 devices"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpointed run goes through the same loop as a plain one, so its
/// profile keeps the convergence lane.
#[test]
fn checkpointed_profile_keeps_its_convergence_points() {
    let dir = temp_dir("ckpt-profile");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let out = mbirctl(&["scan", "--scale", "tiny", "--phantom", "water", "--out", &path("s.csv")]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    let base = ["reconstruct", "--scale", "tiny", "--sino", &path("s.csv"), "--algo", "gpu"];
    let mut points = Vec::new();
    for (tag, extra) in [("plain", vec![]), ("ckpt", vec!["--checkpoint", &path("ckpt")])] {
        let (img, prof) = (path(&format!("{tag}.pgm")), path(&format!("{tag}.json")));
        let mut argv = base.to_vec();
        argv.extend(["--out", &img, "--profile", &prof]);
        argv.extend(extra);
        let out = mbirctl(&argv);
        assert!(out.status.success(), "{tag}: {}", String::from_utf8_lossy(&out.stderr));
        points.push(std::fs::read_to_string(&prof).unwrap().matches("\"rmse_hu\"").count());
    }
    assert!(points[0] > 0, "the plain run recorded no convergence points");
    assert_eq!(points[0], points[1], "checkpointing dropped convergence points");
    std::fs::remove_dir_all(&dir).ok();
}

/// A run the iteration cap ends says so; one that meets its stop does
/// not. Both still exit 0.
#[test]
fn a_capped_run_says_it_did_not_converge() {
    let dir = temp_dir("capped");
    let sino = dir.join("s.csv");
    let sino = sino.to_str().unwrap();
    let out = mbirctl(&["scan", "--scale", "tiny", "--phantom", "water", "--out", sino]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    let img = dir.join("r.pgm");
    for algo in ["sequential", "psv", "gpu"] {
        for (iters, capped) in [("1", true), ("200", false)] {
            let out = mbirctl(&[
                "reconstruct",
                "--scale",
                "tiny",
                "--sino",
                sino,
                "--algo",
                algo,
                "--max-iters",
                iters,
                "--out",
                img.to_str().unwrap(),
            ]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{algo} --max-iters {iters}: {err}");
            let says = err.contains(&format!("reached --max-iters {iters} without converging"));
            assert_eq!(says, capped, "{algo} --max-iters {iters}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A sinogram shaped for another scale fails before any work, naming
/// both shapes.
#[test]
fn a_sinogram_of_another_scale_is_rejected_naming_both_shapes() {
    let dir = temp_dir("wrong-scale");
    let sino = dir.join("s.csv");
    let sino = sino.to_str().unwrap();
    let out = mbirctl(&["scan", "--scale", "tiny", "--phantom", "water", "--out", sino]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    let img = dir.join("r.pgm");
    let out = mbirctl(&[
        "reconstruct",
        "--scale",
        "test",
        "--sino",
        sino,
        "--out",
        img.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("sinogram has 24x40") && err.contains("geometry has 96x96"), "{err}");
    assert!(!err.contains("system matrix"), "set-up started before the check: {err}");
    assert!(!img.exists(), "a rejected sinogram wrote an image");
    std::fs::remove_dir_all(&dir).ok();
}

/// The facade and `mbirctl reconstruct` set a scan up through one
/// pipeline at one set of presets: one sinogram gives one image and one
/// modeled time.
#[test]
fn facade_and_mbirctl_agree_on_one_sinogram() {
    use gpu_icd::pipeline::{Algorithm, Reconstructor};
    use mbir::stopping::StopRule;
    let dir = temp_dir("agree");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let sino = path("s.csv");
    let out = mbirctl(&["scan", "--scale", "test", "--phantom", "baggage:2", "--out", &sino]);
    assert!(out.status.success(), "scan: {}", String::from_utf8_lossy(&out.stderr));
    let y = ct_core::io::read_sinogram_csv(std::path::Path::new(&sino)).expect("scan written");
    for (algo, tag) in [
        (Algorithm::SequentialIcd, "sequential"),
        (Algorithm::PsvIcd, "psv"),
        (Algorithm::GpuIcd, "gpu"),
    ] {
        let (img, csv, prof) = (path("r.pgm"), path(&format!("{tag}.csv")), path("p.json"));
        let mut argv = vec!["reconstruct", "--scale", "test", "--sino", &sino, "--algo", tag];
        argv.extend(["--max-iters", "3", "--out", &img, "--csv", &csv]);
        if tag != "sequential" {
            argv.extend(["--profile", &prof]);
        }
        let out = mbirctl(&argv);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: {err}");
        assert!(err.contains("reached --max-iters 3 without converging"), "{tag}: {err}");

        let facade = Reconstructor::new(ct_core::Geometry::test_scale())
            .algorithm(algo)
            .stop(StopRule::MaxEquits { equits: f64::INFINITY })
            .max_passes(3)
            .run(&y)
            .expect("a test-scale sinogram");
        let cli = ct_core::io::read_image_csv(std::path::Path::new(&csv), 1.0).expect("csv");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(cli.data()), bits(facade.image.data()), "{tag}: images differ");
        if tag != "sequential" {
            // The driver's modeled clock is its iteration lane summed in
            // order, and `totals.seconds` folds the kernel spans in the
            // same grouping: both equal the facade's clock bit for bit.
            let text = std::fs::read_to_string(&prof).expect("profile written");
            let number = |v: &str| -> f64 {
                let end = v.find([',', '\n']).expect("more fields");
                v[..end].trim().parse().expect("a number")
            };
            let clock =
                text.split("\"modeled_seconds\": ").skip(1).fold(0.0, |t: f64, v| t + number(v));
            assert_eq!(clock.to_bits(), facade.modeled_seconds.to_bits(), "{tag}: modeled time");
            let totals = &text[text.find("\"totals\"").expect("a totals block")..];
            let seconds = number(totals.split("\"seconds\": ").nth(1).expect("totals.seconds"));
            assert_eq!(
                seconds.to_bits(),
                facade.modeled_seconds.to_bits(),
                "{tag}: totals.seconds"
            );
        }
    }
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
