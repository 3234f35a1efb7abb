//! Multi-GPU scaling study: modeled wall time of GPU-ICD iterations
//! with the cached SV plan set sharded across 1/2/4/8 simulated
//! devices, over both interconnect presets.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_multi_gpu -- --scale test
//! ```
//!
//! The fleet is a timing model only: every configuration is verified
//! inline to produce bitwise-identical images and error sinograms to
//! the single-device run. What changes is the modeled timeline — each
//! batch costs max-over-devices kernel seconds plus a ring all-gather
//! of the error-band and halo payloads, so the scaling curve bends
//! where per-batch shards get small and flattens where the fixed
//! interconnect latency dominates the shrinking kernel time.

use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::sinogram::Sinogram;
use gpu_icd::{Args, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, mean, Pipeline};
use mbir_fleet::{FleetReport, FleetSpec};
use serde::Serialize;

#[derive(Serialize)]
struct DeviceRow {
    device: u64,
    busy_seconds: f64,
    idle_seconds: f64,
    utilization: f64,
}

#[derive(Serialize)]
struct ConfigRow {
    devices: usize,
    interconnect: String,
    modeled_seconds: f64,
    speedup: f64,
    efficiency: f64,
    exchange_seconds: f64,
    exchange_share: f64,
    exchange_bytes: u64,
    mean_utilization: f64,
    bitwise_identical: bool,
    per_device: Vec<DeviceRow>,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    iterations: usize,
    threads: usize,
    device_counts: Vec<usize>,
    configs: Vec<ConfigRow>,
}

struct RunOut {
    image: Image,
    error: Sinogram,
    seconds: f64,
    fleet: FleetReport,
}

fn run(p: &Pipeline, base: GpuOptions, spec: FleetSpec, iters: usize) -> RunOut {
    let mut gpu = p.case.gpu(GpuOptions { devices: spec.devices, ..base });
    gpu.set_fleet_spec(spec).expect("valid fleet spec");
    for _ in 0..iters {
        gpu.iteration();
    }
    RunOut {
        image: gpu.image().clone(),
        error: gpu.error().clone(),
        seconds: gpu.modeled_seconds(),
        fleet: gpu.fleet_report().expect("every run keeps a fleet ledger"),
    }
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters", "threads"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 8)?;
    let threads: usize = args.get_or("threads", mbir_parallel::available())?;
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let base = GpuOptions { threads, ..gpu_options_for(scale) };

    let device_counts = vec![1usize, 2, 4, 8];
    let baseline = run(&p, base, FleetSpec::titan_x_pcie(1), iters);

    let mut configs = Vec::new();
    for &(name, make_spec) in &[
        ("pcie3_x16", FleetSpec::titan_x_pcie as fn(usize) -> FleetSpec),
        ("nvlink1", FleetSpec::titan_x_nvlink as fn(usize) -> FleetSpec),
    ] {
        for &devices in &device_counts {
            let out = run(&p, base, make_spec(devices), iters);
            let identical = out.image == baseline.image && out.error == baseline.error;
            assert!(identical, "{devices}-device {name} run diverged — sharding contract broken");
            if devices == 1 {
                // A fleet of one exchanges nothing, whatever its link.
                assert_eq!(out.seconds.to_bits(), baseline.seconds.to_bits(), "1-device {name}");
            }
            let fr = &out.fleet;
            let utils: Vec<f64> = fr.per_device.iter().map(|d| d.utilization).collect();
            configs.push(ConfigRow {
                devices,
                interconnect: name.to_string(),
                modeled_seconds: out.seconds,
                speedup: baseline.seconds / out.seconds,
                efficiency: baseline.seconds / out.seconds / devices as f64,
                exchange_seconds: fr.exchange_seconds,
                exchange_share: fr.exchange_seconds / out.seconds,
                exchange_bytes: fr.exchange_bytes,
                mean_utilization: mean(&utils),
                bitwise_identical: identical,
                per_device: fr
                    .per_device
                    .iter()
                    .map(|d| DeviceRow {
                        device: d.device,
                        busy_seconds: d.busy_seconds,
                        idle_seconds: d.idle_seconds,
                        utilization: d.utilization,
                    })
                    .collect(),
            });
        }
    }

    println!("Multi-GPU scaling, {iters} GPU-ICD iterations at {scale:?} scale:");
    println!("{:-<86}", "");
    println!(
        "{:>10} {:>8} {:>12} {:>8} {:>6} {:>10} {:>9} {:>8}",
        "link", "devices", "modeled (s)", "speedup", "eff", "exch (MB)", "exch (%)", "util (%)"
    );
    for c in &configs {
        println!(
            "{:>10} {:>8} {:>12.6} {:>7.2}X {:>6.2} {:>10.2} {:>8.1}% {:>7.0}%",
            c.interconnect,
            c.devices,
            c.modeled_seconds,
            c.speedup,
            c.efficiency,
            c.exchange_bytes as f64 / 1.0e6,
            100.0 * c.exchange_share,
            100.0 * c.mean_utilization,
        );
    }
    println!("all configurations bitwise identical to the single-device run");

    let report =
        Report { scale: format!("{scale:?}"), iterations: iters, threads, device_counts, configs };
    mbir_bench::write_json("BENCH_multi_gpu", &report)
}
