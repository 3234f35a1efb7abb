//! The `serve` workload: the generated three-tenant job mix replayed
//! open loop on the modeled clock at two fixed rates against a 4-device
//! PCIe fleet, with no backfill.

use crate::cpu::process_cpu_s;
use crate::recon::image_hash;
use crate::stats::mean;
use crate::trace::Tracer;
use crate::workload::{serve_workload, NOMINAL_RATE, OVERLOAD_RATE, SERVE_JOBS};
use ct_core::fbp;
use ct_core::hu::rmse_hu;
use ct_core::project::{scan, NoiseModel};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, GpuIcd};
use mbir::prior::QggmrfPrior;
use mbir_bench::{gpu_options_for, Scale};
use mbir_fleet::FleetSpec;
use mbir_serve::{JobSpec, ServeOutcome, ServeReport, Server, WorkloadSpec};
use mbir_telemetry::{ProfileReport, RecordingSink};
use std::sync::Arc;
use supervoxel::plan::SvPlanSet;
use supervoxel::tiling::Tiling;

/// Devices in the serve fleet.
pub const DEVICES: usize = 4;
/// Set-ups per run; `setup_s` reports their median. Each takes about
/// 40 ms, so one stray pause moves a median of three.
pub const SETUP_REPS: usize = 9;
/// Completed jobs replayed alone per rate to check the served image and
/// count the job's equits.
pub const REPLAYS: usize = 4;

/// The two rates, labelled.
pub const RATES: [(&str, f64); 2] = [("nominal", NOMINAL_RATE), ("overload", OVERLOAD_RATE)];

/// The modeled-clock outcome of one rate, compared bit for bit across
/// passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeledKey {
    bits: Vec<u64>,
}

fn modeled_key(out: &ServeOutcome) -> ModeledKey {
    let r = &out.report;
    let mut bits = vec![
        r.wall_seconds.to_bits(),
        r.jobs_per_hour.to_bits(),
        r.fairness_jain.to_bits(),
        r.utilization.to_bits(),
        r.preemptions,
    ];
    for j in &r.jobs {
        bits.extend([j.completed_seconds.to_bits(), j.modeled_seconds.to_bits(), j.iterations]);
    }
    bits.extend(out.images.iter().map(|(_, img)| image_hash(img)));
    ModeledKey { bits }
}

/// One rate of one pass.
pub struct RateRun {
    /// Host wall and CPU seconds of `Server::run`.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: ServeReport,
    pub key: ModeledKey,
}

/// A whole serve run.
pub struct ServeRun {
    pub workloads: Vec<WorkloadSpec>,
    /// Host CPU seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// `[nominal, overload]` per pass, and whether the pass was traced.
    pub passes: Vec<([RateRun; 2], bool)>,
    pub profile: Option<ProfileReport>,
    /// Mean final RMSE against the truth phantom, nominal rate.
    pub rmse_hu: f64,
    /// Mean equits per replayed job.
    pub equits: f64,
    pub failures: Vec<String>,
    pub coverage: f64,
    pub trace: Tracer,
}

/// Run the serve workload: `SETUP_REPS` set-ups, then passes of both
/// rates until `seconds` have elapsed (at least `min_passes`). With
/// `trace` on, passes alternate traced and untraced, starting traced.
pub fn run(seed: u64, seconds: f64, min_passes: usize, trace: bool) -> Result<ServeRun, String> {
    let texts: Vec<String> =
        RATES.iter().map(|&(_, r)| serve_workload(seed, r, SERVE_JOBS)).collect();
    let mut tracer = Tracer::new(trace);

    // Set-up: parse the mix, then build the system matrix and SV plan of
    // every scale in it, as `Server::run` does before its clock starts.
    let mut setup_s = Vec::new();
    let mut workloads = Vec::new();
    let mut geometry: Vec<(Scale, Arc<SystemMatrix>, Arc<SvPlanSet>)> = Vec::new();
    for _ in 0..SETUP_REPS {
        geometry.clear();
        let c0 = process_cpu_s();
        let (parsed, _) = tracer.time("serve.parse", "setup", None, || {
            texts.iter().map(|t| WorkloadSpec::parse(t)).collect::<Result<Vec<_>, _>>()
        });
        workloads = parsed?;
        for scale in [Scale::Tiny, Scale::Test] {
            let opts = gpu_options_for(scale);
            let geom = scale.geometry();
            let (a, _) = tracer.time("sysmat", "setup", None, || {
                Arc::new(SystemMatrix::compute_parallel(&geom, opts.threads))
            });
            let (plan, _) = tracer.time("plan", "setup", None, || {
                let tiling = Tiling::new(geom.grid, opts.sv_side);
                Arc::new(SvPlanSet::build(&a, &tiling, plan_config(&opts), opts.threads))
            });
            geometry.push((scale, a, plan));
        }
        setup_s.push(process_cpu_s() - c0);
    }

    let fleet = FleetSpec::titan_x_pcie(DEVICES);
    let mut passes = Vec::new();
    let mut profile = None;
    let mut coverage = 1.0f64;
    let mut outcomes: Vec<ServeOutcome> = Vec::new();
    let start = std::time::Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass % 2 == 0;
        tracer.set_enabled(traced);
        let t0 = tracer.now();
        let mut rates = Vec::new();
        for (w, &(label, _)) in workloads.iter().zip(&RATES) {
            let sink = (traced && profile.is_none() && label == "nominal")
                .then(|| Arc::new(RecordingSink::new()));
            let server = Server::new(fleet.clone(), w.clone());
            let c0 = process_cpu_s();
            let (out, wall_s) = tracer.time("serve.run", label, None, || server.run(sink.as_ref()));
            let cpu_s = process_cpu_s() - c0;
            let out = out.map_err(|e| e.to_string())?;
            if let Some(s) = sink {
                profile = Some(s.report("serve"));
            }
            let key = modeled_key(&out);
            rates.push(RateRun { wall_s, cpu_s, key, report: out.report.clone() });
            if pass == 0 {
                outcomes.push(out);
            }
        }
        if traced {
            coverage = coverage.min(tracer.coverage(t0, tracer.now()));
        }
        let rates: [RateRun; 2] = rates.try_into().map_err(|_| "two rates".to_string())?;
        passes.push((rates, traced));
        pass += 1;
    }

    let mut failures = Vec::new();
    for (i, (rates, _)) in passes.iter().enumerate() {
        for (r, first) in rates.iter().zip(&passes[0].0) {
            if r.key != first.key {
                failures.push(format!("serve pass {i} did not repeat pass 0 bit for bit"));
            }
        }
    }
    let mut equits = Vec::new();
    let mut rmse = Vec::new();
    for ((w, out), &(label, _)) in workloads.iter().zip(&outcomes).zip(&RATES) {
        failures.extend(check(w, out, label));
        let by_id = |id: &str| w.jobs.iter().find(|j| j.id == id).expect("served job exists");
        if label == "nominal" {
            for (id, img) in &out.images {
                let spec = by_id(id);
                let truth = spec.resolve_phantom()?.render(spec.scale.geometry().grid, 2);
                rmse.push(rmse_hu(img, &truth) as f64);
            }
        }
        // Replay the most-preempted completed jobs alone: each must
        // reproduce its served image bit for bit.
        let mut order: Vec<_> =
            out.report.jobs.iter().filter(|j| j.status == "completed").collect();
        order.sort_by(|a, b| b.preemptions.cmp(&a.preemptions).then(a.id.cmp(&b.id)));
        for job in order.iter().take(REPLAYS) {
            let spec = by_id(&job.id);
            let served = &out.images.iter().find(|(id, _)| *id == job.id).expect("image").1;
            let (_, a, plan) =
                geometry.iter().find(|(s, _, _)| *s == spec.scale).expect("scale set up");
            let (hash, e) = replay(spec, a, plan, &fleet)?;
            if hash != image_hash(served) {
                failures.push(format!("{label} {}: served image differs from a solo run", job.id));
            }
            equits.push(e);
        }
    }
    Ok(ServeRun {
        workloads,
        setup_s,
        passes,
        profile,
        rmse_hu: mean(&rmse),
        equits: mean(&equits),
        failures,
        coverage,
        trace: tracer,
    })
}

/// Output checks of one rate: every submitted job completed (none
/// rejected), ran the iterations it asked for, met its deadline, and
/// produced a finite image.
fn check(w: &WorkloadSpec, out: &ServeOutcome, label: &str) -> Vec<String> {
    let r = &out.report;
    let mut f = Vec::new();
    if r.completed + r.rejected != w.jobs.len() as u64 || r.rejected != 0 {
        f.push(format!(
            "{label}: {} submitted, {} completed, {} rejected",
            w.jobs.len(),
            r.completed,
            r.rejected
        ));
    }
    for (job, spec) in r.jobs.iter().zip(&w.jobs) {
        if job.status == "completed" && job.iterations != spec.iters {
            f.push(format!(
                "{label} {}: ran {} of {} iterations",
                job.id, job.iterations, spec.iters
            ));
        }
        if job.missed_deadline {
            f.push(format!("{label} {}: missed its deadline", job.id));
        }
    }
    if out.images.len() as u64 != r.completed {
        f.push(format!("{label}: {} images for {} completed jobs", out.images.len(), r.completed));
    }
    for (id, img) in &out.images {
        if !img.data().iter().all(|v| v.is_finite()) {
            f.push(format!("{label} {id}: non-finite pixels"));
        }
    }
    f
}

/// Run one job alone through the program's public calls; returns the
/// final image's hash and the equits it used.
fn replay(
    spec: &JobSpec,
    a: &SystemMatrix,
    plan: &Arc<SvPlanSet>,
    fleet: &FleetSpec,
) -> Result<(u64, f64), String> {
    let geom = spec.scale.geometry();
    let opts = gpu_icd::GpuOptions {
        devices: spec.devices,
        seed: spec.seed,
        ..gpu_options_for(spec.scale)
    };
    let truth = spec.resolve_phantom()?.render(geom.grid, 2);
    let s = scan(a, &truth, Some(NoiseModel::default_dose()), spec.seed);
    let prior = QggmrfPrior::standard(spec.sigma);
    let init = fbp::reconstruct(&geom, &s.y);
    let mut gpu = GpuIcd::with_plan(a, &s.y, &s.weights, &prior, init, opts, plan.clone());
    if spec.devices > 1 {
        let carved = fleet.carve(spec.devices).map_err(|e| e.to_string())?;
        gpu.set_fleet_spec(carved).map_err(|e| e.to_string())?;
    }
    for _ in 0..spec.iters {
        gpu.iteration();
    }
    Ok((image_hash(gpu.image()), gpu.equits()))
}

impl ServeRun {
    /// Jobs submitted in one pass, over both rates.
    pub fn submitted(&self) -> usize {
        self.workloads.iter().map(|w| w.jobs.len()).sum()
    }

    /// Distinct first-pass jobs, over both rates, that were rejected,
    /// missed their deadline or did not run their requested iterations.
    pub fn failed_jobs(&self) -> usize {
        let rates = self.passes[0].0.iter().zip(&self.workloads);
        rates
            .map(|(rate, w)| {
                let jobs = rate.report.jobs.iter().zip(&w.jobs);
                jobs.filter(|(j, spec)| {
                    j.status != "completed" || j.missed_deadline || j.iterations != spec.iters
                })
                .count()
            })
            .sum()
    }

    /// Host time `f` of both rates together, per untraced or traced
    /// pass.
    pub fn per_pass_host(&self, traced: bool, f: impl Fn(&RateRun) -> f64) -> Vec<f64> {
        self.passes.iter().filter(|p| p.1 == traced).map(|p| p.0.iter().map(&f).sum()).collect()
    }
}
