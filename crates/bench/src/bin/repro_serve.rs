//! Serve saturation study: one mixed-priority, multi-tenant workload
//! run against increasing fleet sizes, reporting throughput
//! (jobs/hour), latency percentiles, utilization, preemptions, and
//! fairness at each size — `results/BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_serve [-- --scale tiny --jobs 12]
//! ```

use gpu_icd::{Args, MbirError, Scale};
use mbir_fleet::FleetSpec;
use mbir_serve::{JobSpec, Server, WorkloadSpec};
use serde::Serialize;

#[derive(Serialize)]
struct SizePoint {
    devices: usize,
    wall_seconds: f64,
    utilization: f64,
    completed: u64,
    preemptions: u64,
    jobs_per_hour: f64,
    p50_latency_seconds: f64,
    p99_latency_seconds: f64,
    fairness_jain: f64,
}

#[derive(Serialize)]
struct BenchServe {
    scale: String,
    jobs: usize,
    tenants: Vec<String>,
    sizes: Vec<SizePoint>,
}

/// A deterministic mixed workload: three tenants, staggered arrivals,
/// mixed priorities/leases/iteration counts, some streaming, some
/// deadline-bearing. `spread` staggers arrivals relative to one
/// iteration's modeled cost so the queue actually contends.
fn workload(scale: Scale, n: usize, spread: f64) -> WorkloadSpec {
    let tenants = ["radiology", "trauma", "archive"];
    let jobs = (0..n)
        .map(|i| {
            let mut j = JobSpec::named(&format!("job-{i:02}"));
            j.scale = scale;
            j.tenant = tenants[i % tenants.len()].to_string();
            j.seed = i as u64;
            j.arrival_seconds = i as f64 * spread;
            // trauma jobs are urgent and small; archive jobs are big,
            // low-priority background work; radiology sits between.
            match i % 3 {
                1 => {
                    j.priority = 5;
                    j.iters = 2;
                    j.deadline_seconds = Some(j.arrival_seconds + 60.0);
                }
                2 => {
                    j.priority = -1;
                    j.iters = 8;
                    j.devices = 2;
                }
                _ => {
                    j.priority = 1;
                    j.iters = 4;
                    j.view_rate = Some(20_000.0);
                }
            }
            j
        })
        .collect();
    WorkloadSpec { jobs }
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "jobs"])?;
    let scale = args.scale()?;
    let n = args.get_or("jobs", 12usize)?;
    // Calibrate arrival spacing off one iteration's modeled cost so
    // the same workload shape contends at every scale.
    let probe = {
        let mut j = JobSpec::named("probe");
        j.scale = scale;
        j.iters = 1;
        j
    };
    let (_, iter_cost) =
        mbir_serve::solo_run(&FleetSpec::titan_x_pcie(1), &probe).expect("probe run");
    let spread = iter_cost * 0.5;

    let mut out = BenchServe {
        scale: format!("{scale:?}").to_lowercase(),
        jobs: n,
        tenants: vec!["radiology".into(), "trauma".into(), "archive".into()],
        sizes: Vec::new(),
    };
    println!("serve saturation: {n} jobs at {:?} scale, arrivals every {spread:.4}s", scale);
    for devices in [2usize, 4] {
        let fleet = FleetSpec::titan_x_pcie(devices);
        let outcome = Server::new(fleet, workload(scale, n, spread)).run(None).expect("serve run");
        let r = outcome.report;
        println!(
            "  {devices} devices: {:>6.1} jobs/h  p50 {:>8.4}s  p99 {:>8.4}s  util {:>5.1}%  {} preemptions  jain {:.3}",
            r.jobs_per_hour,
            r.p50_latency_seconds,
            r.p99_latency_seconds,
            100.0 * r.utilization,
            r.preemptions,
            r.fairness_jain
        );
        out.sizes.push(SizePoint {
            devices,
            wall_seconds: r.wall_seconds,
            utilization: r.utilization,
            completed: r.completed,
            preemptions: r.preemptions,
            jobs_per_hour: r.jobs_per_hour,
            p50_latency_seconds: r.p50_latency_seconds,
            p99_latency_seconds: r.p99_latency_seconds,
            fairness_jain: r.fairness_jain,
        });
    }
    mbir_bench::write_json("BENCH_serve", &out)
}
