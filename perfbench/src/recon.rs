//! The `recon` and `cluster` workloads: a closed-loop stream of
//! harness-scale baggage scans reconstructed through one geometry, each
//! scan starting after the previous image is written.

use crate::cpu::process_cpu_s;
use crate::mem;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{sinogram_path, ScanSpec};
use ct_core::fbp;
use ct_core::hu::{mu_from_hu, rmse_hu};
use ct_core::image::Image;
use ct_core::io;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{plan_config, BoundaryAction, GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::IcdStats;
use mbir::stopping::{StopRule, StopState};
use mbir_bench::{gpu_options_for, Scale};
use mbir_telemetry::{ProfileReport, RecordingSink};
use mbir_topo::ClusterSpec;
use std::path::Path;
use std::sync::Arc;
use supervoxel::plan::SvPlanSet;
use supervoxel::tiling::Tiling;

/// The golden-free stop rule every scan runs to.
pub const STOP_RULE: StopRule = StopRule::MeanUpdate { hu: 0.3 };
/// Iteration cap; a scan that reaches it counts as failed.
pub const MAX_ITERS: usize = 200;
/// Geometry set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;
/// Photon count used to derive weights from the measurement, as
/// `mbirctl reconstruct` does by default.
const I0: f32 = 2.0e4;

/// The scale every stream scan uses.
pub const SCALE: Scale = Scale::Harness;

/// What one reconstructed scan produced.
#[derive(Debug, Clone)]
pub struct ScanResult {
    pub scan: usize,
    pub pass: usize,
    pub traced: bool,
    /// Host CPU seconds before the first `GpuIcd::iteration`.
    pub prep_cpu_s: f64,
    /// Host wall and CPU seconds from reading the sinogram to the
    /// written image.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub modeled_s: f64,
    pub equits: f64,
    pub rmse_hu: f64,
    pub fbp_rmse_hu: f64,
    pub iterations: u64,
    /// Modeled seconds of each `GpuIcd::iteration`.
    pub iter_modeled_s: Vec<f64>,
    pub stopped: bool,
    pub finite: bool,
    pub hash: u64,
    pub updates: u64,
    pub skipped: u64,
    pub batches: u64,
    pub fleet_exchange_s: f64,
    pub fleet_exchange_bytes: f64,
    /// Per-device utilization and busy modeled seconds (empty on one
    /// device).
    pub fleet_util: Vec<f64>,
    pub fleet_busy: Vec<f64>,
}

impl ScanResult {
    /// Why this scan fails its output checks, if it does.
    pub fn check(&self) -> Option<String> {
        if !self.finite {
            return Some(format!("scan {}: non-finite pixels", self.scan));
        }
        if !self.stopped {
            return Some(format!("scan {}: stop rule did not fire within {MAX_ITERS}", self.scan));
        }
        if self.rmse_hu >= self.fbp_rmse_hu {
            return Some(format!(
                "scan {}: MBIR RMSE {:.2} HU not below its FBP start {:.2} HU",
                self.scan, self.rmse_hu, self.fbp_rmse_hu
            ));
        }
        None
    }

    /// The modeled-clock outcome, which must repeat bit for bit.
    pub fn modeled_key(&self) -> [u64; 5] {
        [
            self.modeled_s.to_bits(),
            self.equits.to_bits(),
            self.rmse_hu.to_bits(),
            self.iterations,
            self.hash,
        ]
    }
}

/// A whole stream run.
pub struct StreamRun {
    /// Host CPU seconds of each geometry set-up (system matrix + plan).
    pub setup_geom_s: Vec<f64>,
    pub sysmat_bytes: f64,
    pub scans: Vec<ScanResult>,
    /// Modeled-clock profile of the first traced pass.
    pub profile: Option<ProfileReport>,
    /// Lowest share of a traced pass's scan time covered by layer spans.
    pub coverage: f64,
    pub trace: Tracer,
}

/// FNV-1a over the image's f32 bit patterns.
pub fn image_hash(img: &Image) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in img.data() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Run the stream: `SETUP_REPS` geometry set-ups, then passes over the
/// scans until `seconds` have elapsed (at least `min_passes`). With
/// `trace` on, passes alternate traced and untraced, starting traced.
pub fn run(
    inputs: &Path,
    outputs: &Path,
    scans: &[ScanSpec],
    cluster: bool,
    seconds: f64,
    min_passes: usize,
    trace: bool,
) -> Result<StreamRun, String> {
    let geom = SCALE.geometry();
    let opts = GpuOptions { devices: if cluster { 8 } else { 1 }, ..gpu_options_for(SCALE) };
    let truths: Vec<Image> = scans.iter().map(|s| s.phantom().render(geom.grid, 2)).collect();
    let prior = QggmrfPrior::standard(0.002);
    let mut tracer = Tracer::new(trace);

    let mut setup_geom_s = Vec::new();
    let mut geometry: Option<(SystemMatrix, Arc<SvPlanSet>)> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first so peak memory holds one copy.
        drop(geometry.take());
        mem::release_free_memory();
        let c0 = process_cpu_s();
        let (a, _) = tracer
            .time("sysmat", "setup", None, || SystemMatrix::compute_parallel(&geom, opts.threads));
        let (plan, _) = tracer.time("plan", "setup", None, || {
            let tiling = Tiling::new(geom.grid, opts.sv_side);
            Arc::new(SvPlanSet::build(&a, &tiling, plan_config(&opts), opts.threads))
        });
        setup_geom_s.push(process_cpu_s() - c0);
        geometry = Some((a, plan));
    }
    let (a, plan) = geometry.expect("at least one set-up");

    let mut out = StreamRun {
        setup_geom_s,
        sysmat_bytes: a.bytes() as f64,
        scans: Vec::new(),
        profile: None,
        coverage: 1.0,
        trace: Tracer::new(false),
    };
    let start = std::time::Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass % 2 == 0;
        tracer.set_enabled(traced);
        let sink = (traced && out.profile.is_none()).then(|| Arc::new(RecordingSink::new()));
        let (mut wall, mut covered) = (0.0, 0.0);
        for (i, truth) in truths.iter().enumerate() {
            let ctx = ScanCtx { a: &a, plan: &plan, prior: &prior, opts, cluster, truth };
            let t0 = tracer.now();
            let r = ctx.run(inputs, outputs, i, pass, sink.as_ref(), &mut tracer)?;
            wall += r.wall_s;
            covered += r.wall_s * tracer.coverage(t0, t0 + r.wall_s);
            out.scans.push(r);
            // Untimed: without this, heap fragmentation left by earlier
            // drivers grows the peak RSS from pass to pass.
            mem::release_free_memory();
        }
        if traced {
            out.coverage = out.coverage.min(covered / wall);
        }
        if let Some(s) = sink {
            out.profile = Some(s.report(if cluster { "cluster" } else { "recon" }));
        }
        pass += 1;
    }
    out.trace = tracer;
    Ok(out)
}

/// Everything one scan's reconstruction borrows from the stream.
struct ScanCtx<'r> {
    a: &'r SystemMatrix,
    plan: &'r Arc<SvPlanSet>,
    prior: &'r QggmrfPrior,
    opts: GpuOptions,
    cluster: bool,
    truth: &'r Image,
}

impl ScanCtx<'_> {
    fn run(
        &self,
        inputs: &Path,
        outputs: &Path,
        i: usize,
        pass: usize,
        sink: Option<&Arc<RecordingSink>>,
        tracer: &mut Tracer,
    ) -> Result<ScanResult, String> {
        let id = format!("scan-{i}");
        let geom = self.a.geometry();
        let (t0, c0) = (tracer.now(), process_cpu_s());
        let (ingested, _) = tracer.time("ingest", &id, None, || {
            let path = sinogram_path(inputs, i);
            let y = io::read_sinogram_csv(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let mut w = Sinogram::zeros(geom);
            for (wi, &yi) in w.data_mut().iter_mut().zip(y.data()) {
                *wi = I0 * (-yi.max(0.0)).exp();
            }
            Ok::<_, String>((y, w))
        });
        let (y, w) = ingested?;
        let (init, _) = tracer.time("fbp", &id, None, || fbp::reconstruct(geom, &y));
        let fbp_rmse_hu = rmse_hu(&init, self.truth) as f64;
        let (mut gpu, _) = tracer.time("driver", &id, None, || {
            GpuIcd::with_plan(self.a, &y, &w, self.prior, init, self.opts, self.plan.clone())
        });
        if self.cluster {
            let (attached, _) = tracer.time("topo.attach", &id, None, || {
                gpu.set_cluster_spec(ClusterSpec::titan_x_cluster(2, 4).with_slabs(2))
            });
            attached.map_err(|e| e.to_string())?;
        }
        if let Some(s) = sink {
            gpu.set_profile_sink(s.clone());
        }
        let prep_cpu_s = process_cpu_s() - c0;

        let solve = tracer.open("icd.solve", &id, None);
        let mut state = StopState::new(STOP_RULE);
        let nvox = geom.grid.num_voxels();
        let mut batches = 0u64;
        let mut iter_modeled_s = Vec::new();
        let mut last = tracer.now();
        gpu.run_with_boundary(MAX_ITERS, |g, r| {
            let now = tracer.now();
            tracer.record("icd.iter", &id, solve, last, now);
            last = now;
            batches += r.batches as u64;
            iter_modeled_s.push(r.modeled_seconds);
            let pass_stats =
                IcdStats { updates: r.updates, skipped: r.skipped, total_abs_delta: r.abs_delta };
            state.observe(&pass_stats, &g.stats(), 0.0, nvox);
            Ok(if state.should_stop() { BoundaryAction::Stop } else { BoundaryAction::Continue })
        })
        .map_err(|e| e.to_string())?;
        tracer.close(solve);

        let path = outputs.join(format!("{id}.pgm"));
        let (written, _) = tracer.time("output", &id, None, || {
            io::write_pgm(&path, gpu.image(), mu_from_hu(-1000.0), mu_from_hu(1500.0))
        });
        written.map_err(|e| format!("{}: {e}", path.display()))?;
        let (wall_s, cpu_s) = (tracer.now() - t0, process_cpu_s() - c0);

        let img = gpu.image();
        let stats = gpu.stats();
        let fleet = gpu.fleet_report();
        let devices = fleet.as_ref().map(|f| f.per_device.as_slice()).unwrap_or_default();
        Ok(ScanResult {
            scan: i,
            pass,
            traced: tracer.enabled(),
            prep_cpu_s,
            wall_s,
            cpu_s,
            modeled_s: gpu.modeled_seconds(),
            equits: gpu.equits(),
            rmse_hu: rmse_hu(img, self.truth) as f64,
            fbp_rmse_hu,
            iterations: gpu.iterations(),
            iter_modeled_s,
            stopped: state.should_stop(),
            finite: img.data().iter().all(|v| v.is_finite()),
            hash: image_hash(img),
            updates: stats.updates,
            skipped: stats.skipped,
            batches,
            fleet_exchange_s: fleet.as_ref().map_or(0.0, |f| f.exchange_seconds),
            fleet_exchange_bytes: fleet.as_ref().map_or(0.0, |f| f.exchange_bytes as f64),
            fleet_util: devices.iter().map(|d| d.utilization).collect(),
            fleet_busy: devices.iter().map(|d| d.busy_seconds).collect(),
        })
    }
}

impl StreamRun {
    /// The first pass's scans: the modeled-clock results.
    pub fn first_pass(&self) -> impl Iterator<Item = &ScanResult> {
        self.scans.iter().filter(|s| s.pass == 0)
    }

    /// One message per scan that fails its output checks or does not
    /// repeat the first pass's modeled-clock result bit for bit.
    pub fn failures(&self) -> Vec<String> {
        self.scans
            .iter()
            .filter_map(|s| {
                s.check().or_else(|| {
                    let first = self.scans.iter().find(|r| r.pass == 0 && r.scan == s.scan)?;
                    (first.modeled_key() != s.modeled_key()).then(|| {
                        format!(
                            "scan {}: pass {} did not repeat pass 0 bit for bit",
                            s.scan, s.pass
                        )
                    })
                })
            })
            .collect()
    }

    /// Host time `f` of every scan of the traced or untraced passes.
    pub fn per_scan_host(&self, traced: bool, f: impl Fn(&ScanResult) -> f64) -> Vec<f64> {
        self.scans.iter().filter(|s| s.traced == traced).map(f).collect()
    }

    /// Host CPU seconds before a scan's first iteration: the median
    /// geometry set-up plus the median per-scan preparation of untraced
    /// passes.
    pub fn setup_s(&self) -> f64 {
        let prep: Vec<f64> =
            self.scans.iter().filter(|s| !s.traced).map(|s| s.prep_cpu_s).collect();
        median(&self.setup_geom_s) + median(&prep)
    }

    /// A first-pass quantity, one value per scan.
    pub fn per_scan(&self, f: impl Fn(&ScanResult) -> f64) -> Vec<f64> {
        self.first_pass().map(f).collect()
    }

    /// Percentile `p` of the modeled seconds of every first-pass
    /// iteration. A stream of four scans has too few scans for a p90,
    /// and the slowest scan's iteration count swings from seed to seed;
    /// its 150-odd iterations are the stream's latency samples instead.
    pub fn modeled_p(&self, p: f64) -> f64 {
        let iters: Vec<f64> = self.first_pass().flat_map(|s| s.iter_modeled_s.clone()).collect();
        percentile(&iters, p)
    }
}
