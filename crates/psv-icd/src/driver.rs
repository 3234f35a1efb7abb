//! The PSV-ICD algorithm (paper Algorithm 2), with real threads.

use crate::cpu_model::{CpuModel, SvWork};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::convergence::TracePoint;
use mbir::prior::Prior;
use mbir::sequential::IcdStats;
use mbir::stopping::Driver;
use mbir_telemetry::{ConvergencePoint, IterationSample, KernelSpan, ProfileSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use supervoxel::checkerboard::checkerboard_groups;
use supervoxel::plan::{PlanConfig, SvPlanSet};
use supervoxel::selection::{select_svs, Selection};
use supervoxel::sweep::{sweep, Visit};
use supervoxel::tiling::Tiling;

/// Fraction of SVs updated per iteration after the first (paper
/// Table 1: 20%).
const FRACTION: f32 = 0.20;

/// Stream selector of the per-iteration SV-selection RNG: iteration
/// `iter` draws from `StdRng::seed_from_u64((SELECTION_STREAM ^ iter)
/// * 0x9e3779b97f4a7c15)`, the stream behind EXPERIMENTS.md Table 1's
/// `*` footnote.
const SELECTION_STREAM: u64 = 0xc0ffee;

/// PSV-ICD configuration (paper Table 1 defaults). Zero-skipping,
/// positivity and shuffled voxel orders are always on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsvConfig {
    /// SuperVoxel side (the paper tunes 13 for the CPU).
    pub sv_side: usize,
    /// Real worker threads used for the functional execution (the
    /// *modeled* platform is [`CpuModel`]'s 16 cores). `0` defers to
    /// the process-wide setting (`mbir_parallel::threads()`).
    pub threads: usize,
}

impl Default for PsvConfig {
    fn default() -> Self {
        PsvConfig { sv_side: 13, threads: 0 }
    }
}

/// The plan configuration PSV-ICD uses: no chunk or quantization state
/// (the CPU algorithm reads A as f32 runs).
pub fn psv_plan_config() -> PlanConfig {
    PlanConfig { chunk_width: None, quant_bits: None }
}

/// What one outer iteration did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsvIterationReport {
    /// 1-based iteration number.
    pub iter: u64,
    /// Selection policy used.
    pub selection: Selection,
    /// SVs visited.
    pub svs_updated: usize,
    /// Voxel updates performed.
    pub updates: u64,
    /// Voxel visits zero-skipped.
    pub skipped: u64,
    /// Sum of |delta| over this iteration's updates.
    pub abs_delta: f64,
    /// Modeled 16-core seconds for this iteration.
    pub modeled_seconds: f64,
}

/// A report's work counters, as the stop rules read them.
impl From<PsvIterationReport> for IcdStats {
    fn from(r: PsvIterationReport) -> IcdStats {
        IcdStats { updates: r.updates, skipped: r.skipped, total_abs_delta: r.abs_delta }
    }
}

/// The PSV-ICD reconstruction state.
pub struct PsvIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    weights: &'a Sinogram,
    prior: &'a P,
    config: PsvConfig,
    tiling: Tiling,
    plan: Arc<SvPlanSet>,
    image: Image,
    error: Sinogram,
    update_amount: Vec<f64>,
    iter: u64,
    stats: IcdStats,
    model: CpuModel,
    modeled_seconds: f64,
    sink: Option<Arc<dyn ProfileSink>>,
}

impl<'a, P: Prior> PsvIcd<'a, P> {
    /// Initialize from a measurement and starting image; builds the SV
    /// tiling and per-SV plans in parallel ("Create SVs", Alg. 2
    /// line 1).
    pub fn new(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        config: PsvConfig,
    ) -> Self {
        let tiling = Tiling::new(init.grid(), config.sv_side);
        let plan = Arc::new(SvPlanSet::build(a, &tiling, psv_plan_config(), config.threads));
        Self::with_plan(a, y, weights, prior, init, config, plan)
    }

    /// Initialize with a pre-built plan set (shared via `Arc` across
    /// drivers/runs). The plan must have been built for the same
    /// geometry, SV side, and [`psv_plan_config`]; one plan serves
    /// every scan of its geometry.
    pub fn with_plan(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        config: PsvConfig,
        plan: Arc<SvPlanSet>,
    ) -> Self {
        let tiling = Tiling::new(init.grid(), config.sv_side);
        assert_eq!(plan.geometry(), a.geometry(), "plan built for a different geometry");
        assert_eq!(plan.config(), psv_plan_config(), "plan built for different options");
        assert_eq!(plan.tiling().sv_side(), config.sv_side, "plan built for different tiling");
        let error = a.residual(y, &init);
        let n = tiling.len();
        PsvIcd {
            a,
            weights,
            prior,
            config,
            tiling,
            plan,
            image: init,
            error,
            update_amount: vec![0.0; n],
            iter: 0,
            stats: IcdStats::default(),
            model: CpuModel::paper_baseline(),
            modeled_seconds: 0.0,
            sink: None,
        }
    }

    /// Route telemetry to `sink`, the one way to profile a run.
    /// Observe-only: the sink never influences results.
    pub fn set_profile_sink(&mut self, sink: Arc<dyn ProfileSink>) {
        self.sink = Some(sink);
    }

    /// The shared per-SV plan set.
    pub fn plan(&self) -> &Arc<SvPlanSet> {
        &self.plan
    }

    /// The SV tiling in use.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// One outer iteration of Algorithm 2: select SVs, then for each
    /// (in checkerboard groups, parallel within a group) gather SVBs,
    /// update voxels one at a time, and merge the error delta back.
    pub fn iteration(&mut self) -> PsvIterationReport {
        self.iter += 1;
        let mut rng =
            StdRng::seed_from_u64((SELECTION_STREAM ^ self.iter).wrapping_mul(0x9e3779b97f4a7c15));
        let (selection, ids) = select_svs(self.iter, FRACTION, &self.update_amount, &mut rng);
        let groups = checkerboard_groups(&self.tiling, &ids);

        let iter = self.iter;
        let mut report = PsvIterationReport {
            iter: self.iter,
            selection,
            svs_updated: ids.len(),
            updates: 0,
            skipped: 0,
            abs_delta: 0.0,
            modeled_seconds: 0.0,
        };
        let mut works: Vec<SvWork> = Vec::with_capacity(ids.len());
        for group in &groups {
            // Parallel SV updates within the group, each SV's voxels
            // updated one at a time against its private buffer; the
            // sweep's ordered merge of the deltas is Alg. 2's lock().
            let svs = sweep(
                &self.plan,
                group,
                self.a,
                self.prior,
                &mut self.image,
                &mut self.error,
                self.weights,
                &mut self.update_amount,
                self.config.threads,
                |sv, _| Visit {
                    order_seed: iter.wrapping_mul(31) ^ (sv as u64).wrapping_mul(0x9e3779b9),
                    in_flight: 0,
                    blocks: 1,
                    allow_skip: iter > 1,
                },
            );
            for t in svs {
                report.updates += t.updates;
                report.skipped += t.skipped;
                report.abs_delta += t.abs_delta;
                // e+w gathered, e scattered back: 3 packed copies.
                works.push(SvWork { entries: t.nnz, svb_bytes: 3.0 * t.svb_bytes });
            }
        }

        report.modeled_seconds = self.model.iteration_time(&works);
        let start_seconds = self.modeled_seconds;
        self.modeled_seconds += report.modeled_seconds;
        self.stats += IcdStats::from(report);
        if let Some(sink) = &self.sink {
            // The whole iteration is one modeled "launch" on the CPU:
            // there is no per-kernel breakdown, so GPU-only counters
            // (cycles, cache sectors, texture traffic) stay zero and
            // the slot model is assumed fully utilized.
            let entries: f64 = works.iter().map(|w| w.entries).sum();
            let svb_bytes: f64 = works.iter().map(|w| w.svb_bytes).sum();
            sink.kernel(&KernelSpan {
                kernel: "psv_iteration".into(),
                iteration: self.iter,
                batch: self.iter - 1,
                svs: report.svs_updated as u64,
                start_seconds,
                seconds: report.modeled_seconds,
                occupancy: 1.0,
                utilization: 1.0,
                blocks: works.len() as u64,
                instructions: entries,
                dram_bytes: svb_bytes,
                ..KernelSpan::default()
            });
            sink.iteration(&IterationSample {
                iter: self.iter,
                svs_selected: ids.len() as u64,
                svs_updated: report.svs_updated as u64,
                batches: 1,
                updates: report.updates,
                skipped: report.skipped,
                abs_delta: report.abs_delta,
                modeled_seconds: report.modeled_seconds,
                equits: self.equits(),
            });
        }
        report
    }

    /// Current reconstruction.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current error sinogram.
    pub fn error(&self) -> &Sinogram {
        &self.error
    }

    /// Equits of work done so far.
    pub fn equits(&self) -> f64 {
        self.stats.equits(self.image.grid().num_voxels())
    }

    /// Total modeled 16-core seconds so far.
    pub fn modeled_seconds(&self) -> f64 {
        self.modeled_seconds
    }
}

/// One step is one outer iteration; golden trace points go to the
/// profile sink.
impl<P: Prior> Driver for PsvIcd<'_, P> {
    type Report = PsvIterationReport;
    fn step(&mut self) -> PsvIterationReport {
        self.iteration()
    }
    fn stats(&self) -> IcdStats {
        self.stats
    }
    fn image(&self) -> &Image {
        &self.image
    }
    fn seconds(&self) -> f64 {
        self.modeled_seconds
    }
    fn cost(&self) -> f64 {
        mbir::convergence::cost(&self.image, &self.error, self.weights, self.prior)
    }
    fn trace_point(&self, p: &TracePoint) {
        if let Some(sink) = &self.sink {
            sink.convergence(&ConvergencePoint {
                iter: self.iter,
                equits: p.equits,
                seconds: p.seconds,
                rmse_hu: p.rmse_hu as f64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ct_core::fbp;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel, Scan};
    use mbir::prior::QggmrfPrior;
    use mbir::sequential::golden_image;
    use mbir::stopping::{run, BoundaryAction, Stop};
    use mbir_telemetry::RecordingSink;

    fn setup() -> (Geometry, SystemMatrix, Scan) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.55).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 7);
        (g, a, s)
    }

    fn config() -> PsvConfig {
        PsvConfig { sv_side: 6, threads: 3 }
    }

    #[test]
    fn converges_to_sequential_golden() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, init, config());
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        let trace = run(&mut psv, stop, 60, |_, _| BoundaryAction::Continue).trace;
        let last = trace.last().unwrap();
        assert!(last.rmse_hu < 10.0, "rmse {} after {} iters", last.rmse_hu, trace.points.len());
        assert!(psv.modeled_seconds() > 0.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let run = |threads: usize| {
            let mut psv = PsvIcd::new(
                &a,
                &s.y,
                &s.weights,
                &prior,
                init.clone(),
                PsvConfig { sv_side: 6, threads },
            );
            for _ in 0..4 {
                psv.iteration();
            }
            psv.image().clone()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn first_iteration_visits_all_svs() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), config());
        let r = psv.iteration();
        assert_eq!(r.selection, Selection::All);
        assert_eq!(r.svs_updated, psv.tiling().len());
        // Boundary voxels are visited by up to 4 tiles, so updates
        // exceed the voxel count but stay below 2x.
        let nvox = g.grid.num_voxels() as u64;
        assert!(r.updates >= nvox);
        assert!(r.updates < 2 * nvox);
    }

    #[test]
    fn later_iterations_visit_fraction() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), config());
        psv.iteration();
        let r2 = psv.iteration();
        assert_eq!(r2.selection, Selection::Top);
        let expect = ((psv.tiling().len() as f32) * FRACTION).ceil() as usize;
        assert_eq!(r2.svs_updated, expect);
        let r3 = psv.iteration();
        assert_eq!(r3.selection, Selection::Random);
        assert_eq!(r3.svs_updated, expect);
    }

    #[test]
    fn error_sinogram_invariant_after_iterations() {
        let (_, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let g = Geometry::tiny_scale();
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), config());
        for _ in 0..3 {
            psv.iteration();
        }
        let ax = a.forward(psv.image());
        for i in 0..s.y.data().len() {
            let expect = s.y.data()[i] - ax.data()[i];
            assert!(
                (psv.error().data()[i] - expect).abs() < 2e-3,
                "i={i}: {} vs {}",
                psv.error().data()[i],
                expect
            );
        }
    }

    #[test]
    fn profiled_run_is_bitwise_identical_and_records() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let run = |profile: bool| {
            let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, init.clone(), config());
            let rec = profile.then(|| Arc::new(RecordingSink::new()));
            if let Some(r) = &rec {
                psv.set_profile_sink(r.clone());
            }
            for _ in 0..3 {
                psv.iteration();
            }
            let rec = rec.map(|r| (r.spans().len(), r.iterations().len()));
            (psv.image().clone(), psv.modeled_seconds(), rec)
        };
        let (img_off, secs_off, rec_off) = run(false);
        let (img_on, secs_on, rec_on) = run(true);
        assert_eq!(img_off, img_on);
        assert_eq!(secs_off.to_bits(), secs_on.to_bits());
        assert_eq!(rec_off, None);
        assert_eq!(rec_on, Some((3, 3)));
    }

    #[test]
    fn driver_image_borrows_the_live_image() {
        // The run loop reads the image at every golden trace point; it
        // must see the driver's own image, not a copy.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), config());
        psv.iteration();
        assert!(std::ptr::eq(Driver::image(&psv), psv.image()));
    }

    #[test]
    fn modeled_time_accumulates() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut psv = PsvIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), config());
        let r1 = psv.iteration();
        let after1 = psv.modeled_seconds();
        let r2 = psv.iteration();
        assert!((after1 - r1.modeled_seconds).abs() < 1e-12);
        assert!((psv.modeled_seconds() - r1.modeled_seconds - r2.modeled_seconds).abs() < 1e-12);
        // Iteration 2 visits 20% of SVs: cheaper than iteration 1.
        assert!(r2.modeled_seconds < r1.modeled_seconds);
    }
}
