//! Fault-tolerance study: modeled cost of surviving device failures,
//! straggler episodes, and degraded interconnect on a simulated fleet,
//! plus the price of checkpoint/resume.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_fault_tolerance -- --scale test
//! ```
//!
//! Faults bend the modeled timeline, never the mathematics: every
//! schedule is verified inline to produce an image and error sinogram
//! bitwise identical to the healthy run at the same device count. The
//! numbers that change are the ledger's — wall seconds, recovery
//! seconds, lost compute — and the study reports each schedule's
//! overhead over the healthy fleet. A checkpoint/resume cycle is also
//! priced (serialized bytes, resumed run verified bitwise identical).

use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::sinogram::Sinogram;
use gpu_icd::{Args, Checkpoint, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline};
use mbir_fleet::FaultSpec;
use serde::Serialize;

#[derive(Serialize)]
struct ScheduleRow {
    name: String,
    schedule: String,
    modeled_seconds: f64,
    overhead_pct: f64,
    faults: u64,
    recovery_seconds: f64,
    lost_seconds: f64,
    exchange_seconds: f64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct ResumeRow {
    interrupted_at: u64,
    checkpoint_bytes: u64,
    bitwise_identical: bool,
    seconds_identical: bool,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    iterations: usize,
    devices: usize,
    threads: usize,
    healthy_seconds: f64,
    schedules: Vec<ScheduleRow>,
    resume: ResumeRow,
}

struct RunOut {
    image: Image,
    error: Sinogram,
    seconds: f64,
    gpu_faults: u64,
    recovery_seconds: f64,
    lost_seconds: f64,
    exchange_seconds: f64,
}

fn run(p: &Pipeline, opts: GpuOptions, faults: Option<&str>, iters: usize) -> RunOut {
    let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
    if let Some(text) = faults {
        let spec = FaultSpec::parse(text, opts.devices).expect("valid fault schedule");
        gpu.set_fault_spec(spec).expect("fault spec installs");
    }
    for _ in 0..iters {
        gpu.iteration();
    }
    let fr = gpu.fleet_report().expect("fleet run");
    RunOut {
        image: gpu.image().clone(),
        error: gpu.error().clone(),
        seconds: gpu.modeled_seconds(),
        gpu_faults: fr.faults,
        recovery_seconds: fr.recovery_seconds,
        lost_seconds: fr.lost_seconds,
        exchange_seconds: fr.exchange_seconds,
    }
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters", "devices", "threads"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 8)?;
    let devices: usize = args.get_or("devices", 4)?;
    let threads: usize = args.get_or("threads", mbir_parallel::available())?;
    assert!(devices >= 2, "the fault study needs a fleet (--devices >= 2)");
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let opts = GpuOptions { threads, devices, ..gpu_options_for(scale) };

    let healthy = run(&p, opts, None, iters);

    let schedules: &[(&str, String)] = &[
        ("single_failure", format!("fail:1@{}", iters / 2)),
        ("failure_slow_detect", format!("fail:1@{},backoff:2.0", iters / 2)),
        ("straggler", format!("slow:0@0..{}x2.5", 3 * iters)),
        ("degraded_link", format!("link:0..{}x2", 3 * iters)),
        (
            "storm",
            format!(
                "fail:{}@{},slow:1@0..{}x2,link:{}..{}x1.5,backoff:0.25",
                devices - 1,
                iters,
                2 * iters,
                iters / 2,
                2 * iters
            ),
        ),
        ("random_seeded", "random:7".to_string()),
    ];

    let mut rows = Vec::new();
    for (name, schedule) in schedules {
        let out = run(&p, opts, Some(schedule), iters);
        let identical = out.image == healthy.image && out.error == healthy.error;
        assert!(identical, "`{schedule}` changed the reconstruction — recovery contract broken");
        rows.push(ScheduleRow {
            name: name.to_string(),
            schedule: schedule.clone(),
            modeled_seconds: out.seconds,
            overhead_pct: 100.0 * (out.seconds / healthy.seconds - 1.0),
            faults: out.gpu_faults,
            recovery_seconds: out.recovery_seconds,
            lost_seconds: out.lost_seconds,
            exchange_seconds: out.exchange_seconds,
            bitwise_identical: identical,
        });
    }

    // Checkpoint/resume cycle under the storm schedule: interrupt at
    // the midpoint, round the state through disk, resume in a fresh
    // driver, and demand bitwise identity in image AND modeled time.
    let storm = &schedules[4].1;
    let make = || {
        let mut g = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
        g.set_fault_spec(FaultSpec::parse(storm, devices).unwrap()).expect("spec installs");
        g
    };
    let mut full = make();
    for _ in 0..iters {
        full.iteration();
    }
    let mid = (iters / 2) as u64;
    let mut first = make();
    for _ in 0..mid {
        first.iteration();
    }
    let dir = std::env::temp_dir().join(format!("mbir-bench-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("checkpoint.mbir");
    first.checkpoint().save(&path).expect("checkpoint saves");
    let checkpoint_bytes = std::fs::metadata(&path).expect("checkpoint exists").len();
    drop(first);
    let mut resumed = make();
    resumed.restore(&Checkpoint::load(&path).expect("loads")).expect("restores");
    for _ in mid..iters as u64 {
        resumed.iteration();
    }
    std::fs::remove_dir_all(&dir).ok();
    let resume = ResumeRow {
        interrupted_at: mid,
        checkpoint_bytes,
        bitwise_identical: resumed.image() == full.image() && resumed.error() == full.error(),
        seconds_identical: resumed.modeled_seconds().to_bits() == full.modeled_seconds().to_bits(),
    };
    assert!(resume.bitwise_identical, "resumed run diverged from the uninterrupted one");
    assert!(resume.seconds_identical, "resumed timeline diverged from the uninterrupted one");

    println!("Fault-tolerance study, {iters} GPU-ICD iterations, {devices} devices at {scale:?}:");
    println!("{:-<100}", "");
    println!(
        "{:>20} {:>12} {:>10} {:>7} {:>12} {:>10} {:>10}",
        "schedule", "modeled (s)", "overhead", "faults", "recovery (s)", "lost (s)", "identical"
    );
    println!(
        "{:>20} {:>12.6} {:>10} {:>7} {:>12} {:>10} {:>10}",
        "healthy", healthy.seconds, "-", 0, "-", "-", "-"
    );
    for r in &rows {
        println!(
            "{:>20} {:>12.6} {:>9.2}% {:>7} {:>12.4} {:>10.2e} {:>10}",
            r.name,
            r.modeled_seconds,
            r.overhead_pct,
            r.faults,
            r.recovery_seconds,
            r.lost_seconds,
            r.bitwise_identical,
        );
    }
    println!(
        "checkpoint at iteration {}: {} bytes, resume bitwise identical (image and timeline)",
        resume.interrupted_at, resume.checkpoint_bytes
    );

    let report = Report {
        scale: format!("{scale:?}"),
        iterations: iters,
        devices,
        threads,
        healthy_seconds: healthy.seconds,
        schedules: rows,
        resume,
    };
    mbir_bench::write_json("BENCH_fault_tolerance", &report)
}
