//! GPU-ICD — Algorithm 3, functionally exact and deterministic.
//!
//! The emulation preserves the paper's update semantics:
//!
//! - SVBs for a whole batch are gathered from one error-sinogram
//!   snapshot, and all write-backs happen after the batch's voxel
//!   updates finish (the paper defers the global error update to a
//!   separate kernel to avoid cache pollution);
//! - within an SV, about `threadblocks_per_sv / 2` voxel updates are
//!   in flight before each commits (`in_flight`) — the deterministic
//!   stand-in for the hardware's interleaving, and the source of the
//!   extra equits the paper reports for GPU-ICD. The SV visit is
//!   [`supervoxel::sweep`], the one PSV-ICD runs with none in flight;
//! - SVs of one checkerboard group never share boundary voxels, so the
//!   emulation order within a batch cannot change results.

use crate::checkpoint::{Checkpoint, NO_SLAB};
use crate::error::MbirError;
use crate::fleet::FleetState;
use crate::model::GpuWorkModel;
use crate::opts::{GpuOptions, Layout};
use ct_core::image::Image;
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use mbir::convergence::TracePoint;
use mbir::prior::Prior;
use mbir::sequential::IcdStats;
use mbir::stopping::{run, BoundaryAction, Driver, Stop};
use mbir_fleet::{FaultSpec, FleetReport, FleetSpec};
use mbir_telemetry::{ConvergencePoint, IterationSample, ProfileSink};
use mbir_topo::ClusterSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use supervoxel::checkerboard::checkerboard_groups;
use supervoxel::plan::{PlanConfig, SvPlanSet};
use supervoxel::selection::{select_svs, Selection};
use supervoxel::sweep::{sweep, Visit};
use supervoxel::tiling::Tiling;

/// The [`PlanConfig`] implied by a set of GPU options: the chunk width
/// when chunked, and the A-matrix bit width when quantized — everything
/// iterations reuse.
pub fn plan_config(opts: &GpuOptions) -> PlanConfig {
    let chunk_width = match opts.layout {
        Layout::Naive => None,
        Layout::Chunked { width } => Some(width as usize),
    };
    let quant_bits = opts.amatrix.quantized().then_some(opts.amatrix_bits);
    PlanConfig { chunk_width, quant_bits }
}

/// What one outer iteration did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuIterationReport {
    /// 1-based iteration number.
    pub iter: u64,
    /// Selection policy used.
    pub selection: Selection,
    /// SVs selected (before the batch threshold).
    pub svs_selected: usize,
    /// SVs actually updated (after the batch threshold).
    pub svs_updated: usize,
    /// Kernel batches launched.
    pub batches: usize,
    /// Voxel updates performed.
    pub updates: u64,
    /// Voxel visits zero-skipped.
    pub skipped: u64,
    /// Sum of |delta| over this iteration's updates.
    pub abs_delta: f64,
    /// Modeled GPU seconds for this iteration.
    pub modeled_seconds: f64,
}

/// A report's work counters, as the stop rules read them.
impl From<GpuIterationReport> for IcdStats {
    fn from(r: GpuIterationReport) -> IcdStats {
        IcdStats { updates: r.updates, skipped: r.skipped, total_abs_delta: r.abs_delta }
    }
}

/// The GPU-ICD reconstruction state.
pub struct GpuIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    weights: &'a Sinogram,
    prior: &'a P,
    opts: GpuOptions,
    plan: Arc<SvPlanSet>,
    image: Image,
    error: Sinogram,
    update_amount: Vec<f64>,
    iter: u64,
    stats: IcdStats,
    modeled_seconds: f64,
    sink: Option<Arc<dyn ProfileSink>>,
    /// Owns the run's work model and prices every batch.
    fleet: FleetState,
}

impl<'a, P: Prior + Sync> GpuIcd<'a, P> {
    /// Initialize from a measurement and starting image, building the
    /// per-SV plans (in parallel on `opts.threads` workers).
    ///
    /// # Panics
    ///
    /// If `opts` is out of range ([`GpuOptions::validate`]), or `y` or
    /// `weights` is not shaped for `a`'s geometry.
    pub fn new(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        opts: GpuOptions,
    ) -> Self {
        opts.validate().unwrap_or_else(|e| panic!("{e}"));
        let tiling = Tiling::new(init.grid(), opts.sv_side);
        let plan = Arc::new(SvPlanSet::build(a, &tiling, plan_config(&opts), opts.threads));
        Self::with_plan(a, y, weights, prior, init, opts, plan)
    }

    /// Initialize with a pre-built plan set (shared via `Arc` across
    /// drivers/runs). The plan must have been built for the same
    /// geometry, SV side, and `plan_config(&opts)`; it holds
    /// nothing scan-dependent, so one plan serves every scan of its
    /// geometry and this constructor only projects `init`.
    ///
    /// # Panics
    ///
    /// If `opts` is out of range ([`GpuOptions::validate`]), the plan
    /// was built for another geometry, SV side or plan configuration, or
    /// `y` or `weights` is not shaped for `a`'s geometry.
    pub fn with_plan(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        opts: GpuOptions,
        plan: Arc<SvPlanSet>,
    ) -> Self {
        opts.validate().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(plan.geometry(), a.geometry(), "plan built for a different geometry");
        assert_eq!(plan.config(), plan_config(&opts), "plan built for different options");
        assert_eq!(plan.tiling().sv_side(), opts.sv_side, "plan built for different tiling");
        weights.assert_shaped_for(a.geometry(), "weights");
        let error = a.residual(y, &init);
        let cluster = ClusterSpec::single_node(FleetSpec::titan_x_pcie(opts.devices));
        let gpu = cluster.node.fleet.gpu.clone();
        let model = GpuWorkModel::new(&opts, a.geometry().num_channels, gpu);
        let fleet = FleetState::new(model, &plan, cluster);
        GpuIcd {
            a,
            weights,
            prior,
            opts,
            update_amount: vec![0.0; plan.tiling().len()],
            plan,
            image: init,
            error,
            iter: 0,
            stats: IcdStats::default(),
            modeled_seconds: 0.0,
            sink: None,
            fleet,
        }
    }

    /// Replace the fleet's machine description (e.g. to price NVLink
    /// instead of the default PCIe). A flat fleet runs as a one-node,
    /// one-slab cluster, so this is [`GpuIcd::set_cluster_spec`] with
    /// [`ClusterSpec::single_node`] and the same rules.
    pub fn set_fleet_spec(&mut self, spec: FleetSpec) -> Result<(), MbirError> {
        self.set_cluster_spec(ClusterSpec::single_node(spec))
    }

    /// Replace the fleet with a multi-node cluster: SVs shard within
    /// their slab's device group, the post-batch exchange is priced as
    /// the hierarchical reduce (intra-node gather, inter-node leader
    /// exchange, intra-node broadcast), and slab streaming loads and
    /// seam halos are booked on the same timeline. Must be called
    /// before the first iteration, with a cluster whose total device
    /// count matches `opts.devices` — one device is a one-node,
    /// one-device cluster like any other — and whose GPU runs this
    /// run's blocks. Kernels are priced on the cluster's GPU: on the
    /// GPU the driver was built for, the per-SV costs priced then are
    /// kept; on another, every SV is priced anew. An installed fault
    /// schedule carries over to the new fleet state.
    pub fn set_cluster_spec(&mut self, cluster: ClusterSpec) -> Result<(), MbirError> {
        if self.iter != 0 {
            return Err(MbirError::Usage(
                "fleet spec must be set before the first iteration".into(),
            ));
        }
        if cluster.total_devices() != self.opts.devices {
            return Err(MbirError::Usage(format!(
                "fleet spec sized for {} devices ({} nodes x {}), run uses {}",
                cluster.total_devices(),
                cluster.nodes,
                cluster.devices_per_node(),
                self.opts.devices
            )));
        }
        self.fleet = self.fleet.recarve(&self.plan, cluster).map_err(MbirError::Usage)?;
        Ok(())
    }

    /// Install a deterministic fault schedule, validated against the
    /// fleet size by [`FaultSpec::validate`] (a one-device run takes
    /// stragglers and degraded links, but no failure leaves it a
    /// survivor). Must be called before the first iteration; the
    /// schedule bends only the modeled timeline — the reconstruction
    /// stays bitwise identical to a healthy run.
    pub fn set_fault_spec(&mut self, spec: FaultSpec) -> Result<(), MbirError> {
        if self.iter != 0 {
            return Err(MbirError::Usage(
                "fault schedule must be set before the first iteration".into(),
            ));
        }
        spec.validate(self.opts.devices).map_err(MbirError::Usage)?;
        self.fleet.set_faults(spec);
        Ok(())
    }

    /// The fleet ledger (per-device utilization, exchange bytes and
    /// seconds). Every run has one — a one-device run books no
    /// exchange and is busy its whole timeline — so this is always
    /// `Some`.
    pub fn fleet_report(&self) -> Option<FleetReport> {
        Some(self.fleet.report())
    }

    /// Route kernel spans, iteration samples, convergence points and
    /// fleet records to `sink`, the one way to profile a run and the one
    /// per-kernel ledger: a [`mbir_telemetry::RecordingSink`]'s report
    /// aggregates every launch per kernel class
    /// ([`mbir_telemetry::ProfileReport::kernel`]). The sink only
    /// observes: reconstruction results are bitwise identical with or
    /// without it, and without one the driver pays a single `Option`
    /// branch per batch.
    pub fn set_profile_sink(&mut self, sink: Arc<dyn ProfileSink>) {
        self.sink = Some(sink);
    }

    /// The shared per-SV plan set.
    pub fn plan(&self) -> &Arc<SvPlanSet> {
        &self.plan
    }

    /// The SV tiling in use: the plan set's.
    pub fn tiling(&self) -> &Tiling {
        self.plan.tiling()
    }

    /// The active options.
    pub fn options(&self) -> &GpuOptions {
        &self.opts
    }

    /// One outer iteration of Algorithm 3.
    pub fn iteration(&mut self) -> GpuIterationReport {
        self.iter += 1;
        let mut rng = StdRng::seed_from_u64(
            self.opts.seed ^ (0x6b33 ^ self.iter).wrapping_mul(0x9e3779b97f4a7c15),
        );
        let (selection, ids) =
            select_svs(self.iter, self.opts.fraction, &self.update_amount, &mut rng);
        let groups: [Vec<usize>; 4] = if self.opts.checkerboard {
            checkerboard_groups(self.plan.tiling(), &ids)
        } else {
            // Ablation: no checkerboard — adjacent SVs share batches
            // and their shared boundary voxels get updated from
            // inconsistent error snapshots.
            [ids.clone(), Vec::new(), Vec::new(), Vec::new()]
        };

        let mut report = GpuIterationReport {
            iter: self.iter,
            selection,
            svs_selected: ids.len(),
            svs_updated: 0,
            batches: 0,
            updates: 0,
            skipped: 0,
            abs_delta: 0.0,
            modeled_seconds: 0.0,
        };

        let threshold = self.opts.batch_threshold_count();
        for group in &groups {
            let mut i = 0usize;
            while i < group.len() {
                let remaining = group.len() - i;
                // Paper Alg. 3 lines 26-27: skip under-threshold tails.
                if self.iter > 1 && threshold > 0 && remaining < threshold.max(1) {
                    break;
                }
                let end = (i + self.opts.svs_per_batch).min(group.len());
                let batch = &group[i..end];
                // The batch's span on the modeled timeline: kernels
                // plus exchanges (exact zeros on one device).
                report.modeled_seconds += self.process_batch(batch, &mut report);
                report.batches += 1;
                report.svs_updated += batch.len();
                i = end;
            }
        }

        self.modeled_seconds += report.modeled_seconds;
        self.stats += IcdStats::from(report);
        if let Some(sink) = &self.sink {
            sink.iteration(&IterationSample {
                iter: self.iter,
                svs_selected: report.svs_selected as u64,
                svs_updated: report.svs_updated as u64,
                batches: report.batches as u64,
                updates: report.updates,
                skipped: report.skipped,
                abs_delta: report.abs_delta,
                modeled_seconds: report.modeled_seconds,
                equits: self.equits(),
            });
        }
        report
    }

    /// Process one batch: run the three kernels functionally as one
    /// [`sweep`] (SVB create, MBIR update, error write-back in batch
    /// order), then have the fleet price them. Returns the batch's wall
    /// seconds on the modeled timeline.
    fn process_batch(&mut self, batch: &[usize], report: &mut GpuIterationReport) -> f64 {
        let (seed, iter) = (self.opts.seed, self.iter);
        let blocks = self.opts.threadblocks_per_sv as usize;
        // The ablation without the checkerboard loses the sweep's
        // disjointness guarantee and runs on one thread to keep its
        // (sequential) semantics reproducible.
        let workers = if self.opts.checkerboard { self.opts.threads } else { 1 };
        let svs = sweep(
            &self.plan,
            batch,
            self.a,
            self.prior,
            &mut self.image,
            &mut self.error,
            self.weights,
            &mut self.update_amount,
            workers,
            |sv, plan| Visit {
                order_seed: seed ^ iter.wrapping_mul(131) ^ (sv as u64).wrapping_mul(0x9e3779b9),
                in_flight: in_flight(blocks, plan.voxels().len()),
                blocks,
                allow_skip: iter > 1,
            },
        );
        for t in &svs {
            report.updates += t.updates;
            report.skipped += t.skipped;
            report.abs_delta += t.abs_delta;
        }
        self.fleet.price_batch(&svs, batch, self.iter, self.sink.as_deref())
    }

    /// Run up to `max_iters` further iterations under [`Stop::Cap`],
    /// invoking `hook` at every iteration boundary — the only point
    /// where a checkpoint captures a bitwise-resumable state. The hook
    /// sees the driver immutably (snapshot a [`Checkpoint`], inspect
    /// progress, save to disk) and decides whether to continue; an
    /// error stops the run at that boundary and is returned.
    ///
    /// Returns the number of iterations actually run.
    pub fn run_with_boundary(
        &mut self,
        max_iters: usize,
        mut hook: impl FnMut(&Self, &GpuIterationReport) -> Result<BoundaryAction, MbirError>,
    ) -> Result<u64, MbirError> {
        let mut failure = None;
        let outcome = run(self, Stop::Cap, max_iters, |gpu, report| {
            hook(gpu, report).unwrap_or_else(|e| {
                failure = Some(e);
                BoundaryAction::Stop
            })
        });
        failure.map_or(Ok(outcome.iterations as u64), Err)
    }

    /// Current reconstruction.
    pub fn image(&self) -> &Image {
        &self.image
    }

    /// Current error sinogram.
    pub fn error(&self) -> &Sinogram {
        &self.error
    }

    /// Equits of work so far.
    pub fn equits(&self) -> f64 {
        self.stats.equits(self.image.grid().num_voxels())
    }

    /// Cumulative counters.
    pub fn stats(&self) -> IcdStats {
        self.stats
    }

    /// Completed outer iterations.
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    /// Snapshot everything a resume needs to continue bitwise
    /// identically (see [`Checkpoint`] for what is captured and what
    /// deliberately is not).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            grid: self.image.grid(),
            num_views: self.error.num_views(),
            num_channels: self.error.num_channels(),
            iter: self.iter,
            batch_seq: self.fleet.batch_seq(),
            stats: self.stats,
            modeled_seconds: self.modeled_seconds,
            seed: self.opts.seed,
            devices: self.opts.devices as u64,
            image: self.image.data().to_vec(),
            error: self.error.data().to_vec(),
            update_amount: self.update_amount.clone(),
            resident: self.fleet.residency(),
        }
    }

    /// Restore a checkpointed state into a freshly-built driver. The
    /// driver must be configured exactly as the checkpointed run was
    /// (same geometry, seed, device count, and fleet or cluster spec;
    /// if fault injection is in play, install the same schedule via
    /// [`GpuIcd::set_fault_spec`] *before* this call) — resuming then
    /// continues bitwise identically to a run that was never
    /// interrupted. The fleet's per-device busy ledger restarts at zero
    /// and covers only the post-resume stretch (so does a profile sink
    /// attached to the resumed driver); the fleet wall clock
    /// fast-forwards so the timeline (and any profiled spans) continues
    /// where it left off, any failures
    /// the schedule placed before the checkpoint are replayed so the
    /// shard plan matches the interrupted run's, and a slab-streaming
    /// run reinstalls each device's resident slab from the trailer.
    pub fn restore(&mut self, ckp: &Checkpoint) -> Result<(), MbirError> {
        if self.iter != 0 {
            return Err(MbirError::Checkpoint(
                "restore requires a freshly-built driver (no iterations run)".into(),
            ));
        }
        if ckp.grid != self.image.grid() {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint grid {}x{} does not match run grid {}x{}",
                ckp.grid.nx,
                ckp.grid.ny,
                self.image.grid().nx,
                self.image.grid().ny
            )));
        }
        if ckp.num_views != self.error.num_views() || ckp.num_channels != self.error.num_channels()
        {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint sinogram {}x{} does not match run sinogram {}x{}",
                ckp.num_views,
                ckp.num_channels,
                self.error.num_views(),
                self.error.num_channels()
            )));
        }
        if ckp.seed != self.opts.seed {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint was taken under seed {}, run uses seed {} (resuming would \
                 silently diverge)",
                ckp.seed, self.opts.seed
            )));
        }
        if ckp.devices != self.opts.devices as u64 {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint was priced for {} device(s), run uses {}",
                ckp.devices, self.opts.devices
            )));
        }
        if ckp.update_amount.len() != self.update_amount.len() {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint has {} SV amounts, run tiles {} SVs (different sv_side?)",
                ckp.update_amount.len(),
                self.update_amount.len()
            )));
        }
        let slabs = self.fleet.slabs();
        let trailer = if slabs > 1 { self.opts.devices } else { 0 };
        if ckp.resident.len() != trailer {
            return Err(MbirError::Checkpoint(if slabs > 1 {
                format!("checkpoint lacks the slab-residency trailer a {slabs}-slab run needs")
            } else {
                "checkpoint carries slab residency, but the run holds a single slab".into()
            }));
        }
        if let Some(s) = ckp.resident.iter().find(|&&s| s != NO_SLAB && s >= slabs as u64) {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint holds slab {s} resident, run has {slabs} slabs"
            )));
        }
        self.image.data_mut().copy_from_slice(&ckp.image);
        self.error.data_mut().copy_from_slice(&ckp.error);
        self.update_amount.copy_from_slice(&ckp.update_amount);
        self.iter = ckp.iter;
        self.stats = ckp.stats;
        self.modeled_seconds = ckp.modeled_seconds;
        self.fleet.restore(ckp);
        Ok(())
    }

    /// Total modeled GPU seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.modeled_seconds
    }
}

/// Voxel updates in flight in an SV of `voxels` voxels visited by
/// `blocks` threadblocks.
///
/// With `blocks` blocks in flight, a voxel's theta pass misses the
/// commits of the other in-flight updates — on average half of them,
/// since blocks progress in staggered phases and atomics land as each
/// block finishes. Model this as a FIFO of delayed commits of depth
/// `blocks / 2`: a voxel's update becomes visible to updates starting
/// that much later.
///
/// The depth is additionally capped at 1/16 of the SV's voxels: when
/// many blocks squeeze into a small SV, their atomic updates to the
/// narrow shared band contend and serialize (the contention the paper
/// reports for small SV sides), which throttles the *effective*
/// concurrency — without the cap the emulation over-penalizes extreme
/// block-to-voxel ratios that the hardware self-limits.
fn in_flight(blocks: usize, voxels: usize) -> usize {
    (blocks / 2).clamp(1, (voxels / 16).max(1))
}

/// One step is one outer iteration; golden trace points go to the
/// profile sink.
impl<P: Prior + Sync> Driver for GpuIcd<'_, P> {
    type Report = GpuIterationReport;
    fn step(&mut self) -> GpuIterationReport {
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
    use crate::opts::AMatrixMode;
    use ct_core::fbp;
    use ct_core::geometry::Geometry;
    use ct_core::phantom::Phantom;
    use ct_core::project::{scan, NoiseModel, Scan};
    use mbir::prior::QggmrfPrior;
    use mbir::sequential::golden_image;

    fn setup() -> (Geometry, SystemMatrix, Scan) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.55).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 7);
        (g, a, s)
    }

    fn opts() -> GpuOptions {
        GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() }
    }

    #[test]
    fn converges_to_sequential_golden() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, init, opts());
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        let trace = run(&mut gpu, stop, 80, |_, _| BoundaryAction::Continue).trace;
        let last = trace.last().unwrap();
        assert!(last.rmse_hu < 10.0, "rmse {} after {} iters", last.rmse_hu, trace.points.len());
        assert!(gpu.modeled_seconds() > 0.0);
    }

    #[test]
    fn error_sinogram_invariant() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
        for _ in 0..3 {
            gpu.iteration();
        }
        let ax = a.forward(gpu.image());
        for i in 0..s.y.data().len() {
            let expect = s.y.data()[i] - ax.data()[i];
            assert!(
                (gpu.error().data()[i] - expect).abs() < 2e-3,
                "i={i}: {} vs {}",
                gpu.error().data()[i],
                expect
            );
        }
    }

    #[test]
    fn deterministic() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let run = || {
            let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
            for _ in 0..4 {
                gpu.iteration();
            }
            gpu.image().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quantized_amatrix_still_converges() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        let o = GpuOptions { amatrix: AMatrixMode::TextureU8, ..opts() };
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, init, o);
        let stop = Stop::Golden { image: &golden, hu: 10.0 };
        let trace = run(&mut gpu, stop, 80, |_, _| BoundaryAction::Continue).trace;
        assert!(trace.last().unwrap().rmse_hu < 10.0);
    }

    #[test]
    fn intra_sv_parallelism_slows_convergence_per_equit() {
        // Rounds of concurrent voxels see stale SVB data, so more
        // equits are needed (the paper: 5.9 vs 4.8).
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
        let run = |blocks: u32| {
            let o = GpuOptions { threadblocks_per_sv: blocks, ..opts() };
            let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, init.clone(), o);
            let stop = Stop::Golden { image: &golden, hu: 10.0 };
            mbir::stopping::run(&mut gpu, stop, 120, |_, _| BoundaryAction::Continue);
            gpu.equits()
        };
        let serial = run(1);
        let parallel = run(16);
        // The staleness window caps at 1/16 of the SV's voxels, so on
        // tiny SVs the drag is mild; parallel must stay in the same
        // ballpark and never *beat* serial by a meaningful margin.
        assert!(parallel >= serial * 0.75, "parallel {parallel} equits vs serial {serial}");
    }

    #[test]
    fn batch_threshold_skips_small_tails() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        // 16 SVs -> 4 per checkerboard group; batch 8 with threshold 2.
        // 16 SVs, 4 per checkerboard group; batch 16 -> threshold 4.
        // Iterations select 4 SVs spread over the groups, so group
        // tails below 4 SVs get skipped.
        let o = GpuOptions {
            sv_side: 6,
            svs_per_batch: 16,
            batch_threshold: true,
            fraction: 0.25,
            ..Default::default()
        };
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o);
        let r1 = gpu.iteration(); // all SVs (threshold not applied on iter 1)
        assert_eq!(r1.svs_updated, r1.svs_selected);
        let mut selected = 0usize;
        let mut updated = 0usize;
        for _ in 0..8 {
            let r = gpu.iteration();
            selected += r.svs_selected;
            updated += r.svs_updated;
        }
        assert!(updated < selected, "updated {updated} selected {selected}");

        // With the threshold off, every selected SV runs.
        let o2 = GpuOptions { batch_threshold: false, ..o };
        let mut gpu2 = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o2);
        for _ in 0..6 {
            let r = gpu2.iteration();
            assert_eq!(r.svs_updated, r.svs_selected);
        }
    }

    #[test]
    fn a_golden_free_run_ends_on_an_iteration_that_updated() {
        // At the tiny preset (8 SVs per batch, threshold 2) the batch
        // threshold can skip every batch of an iteration; that empty
        // iteration must not read as converged.
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let truth = Phantom::water_cylinder(0.55).render(g.grid, 2);
        let s = scan(&a, &truth, Some(NoiseModel::default_dose()), 3);
        let prior = QggmrfPrior::standard(0.002);
        let init = fbp::reconstruct(&g, &s.y);
        let o = crate::gpu_options_for(crate::Scale::Tiny);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, init, o);
        let mut last = None;
        let stop = Stop::Rule(mbir::stopping::StopRule::MeanUpdate { hu: 0.3 });
        let out = run(&mut gpu, stop, 200, |_, r| {
            last = Some(*r);
            BoundaryAction::Continue
        });
        let last = last.expect("the run iterated");
        assert!(out.converged, "capped at {} iterations", out.iterations);
        assert!(last.svs_updated > 0, "stopped on an empty iteration: {last:?}");
    }

    #[test]
    #[should_panic(expected = "sinogram is 24x48 (views x channels), but the geometry is 24x40")]
    fn a_sinogram_of_another_geometry_is_refused() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let y = Sinogram::from_vec(24, 48, vec![0.0; 24 * 48]);
        GpuIcd::new(&a, &y, &s.weights, &prior, Image::zeros(g.grid), opts());
    }

    #[test]
    #[should_panic(expected = "weights is 24x48 (views x channels), but the geometry is 24x40")]
    fn weights_of_another_geometry_are_refused() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let w = Sinogram::from_vec(24, 48, vec![1.0; 24 * 48]);
        GpuIcd::new(&a, &s.y, &w, &prior, Image::zeros(g.grid), opts());
    }

    #[test]
    #[should_panic(expected = "svs_per_batch must be at least 1")]
    fn an_empty_batch_size_is_refused() {
        // Zero SVs per batch would never advance the batch loop.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let o = GpuOptions { svs_per_batch: 0, ..opts() };
        GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o).iteration();
    }

    #[test]
    fn a_new_fleet_or_cluster_keeps_the_priced_sv_costs() {
        // Every SV is priced once, when the driver is built; installing
        // a fleet or a cluster re-plans around the same costs.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let o = GpuOptions { devices: 4, ..opts() };
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o);
        let priced = Arc::clone(gpu.fleet.costs());
        gpu.set_fleet_spec(FleetSpec::titan_x_nvlink(4)).expect("a 4-device fleet");
        assert!(Arc::ptr_eq(&priced, gpu.fleet.costs()));
        let cluster = ClusterSpec::titan_x_cluster(2, 2).with_slabs(2);
        gpu.set_cluster_spec(cluster).expect("a 2x2 cluster");
        assert!(Arc::ptr_eq(&priced, gpu.fleet.costs()));
        assert_eq!(gpu.fleet.slabs(), 2, "the cluster's slabs were planned");
    }

    #[test]
    fn a_slower_gpu_prices_the_same_image_slower() {
        // The fleet's GPU times the kernels. A Titan X preset installed
        // over the default fleet keeps the model and the SV costs, bit
        // for bit; six SMMs at a tenth of the bandwidth re-price every
        // SV and every batch higher, and leave the image and the error
        // as they are.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let titan = FleetSpec::titan_x_pcie(2);
        let mut slow = titan.clone();
        slow.gpu.num_smm = 6;
        for gbps in [&mut slow.gpu.dram_gbps, &mut slow.gpu.l2_gbps, &mut slow.gpu.tex_gbps] {
            *gbps /= 10.0;
        }
        let run = |fleet: Option<FleetSpec>| {
            let o = GpuOptions { devices: 2, ..opts() };
            let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o);
            let priced = Arc::clone(gpu.fleet.costs());
            if let Some(fleet) = fleet {
                gpu.set_fleet_spec(fleet).expect("a 2-device fleet");
            }
            let kept = Arc::ptr_eq(&priced, gpu.fleet.costs());
            let cost: f64 = gpu.fleet.costs().iter().sum();
            for _ in 0..3 {
                gpu.iteration();
            }
            (gpu.image().clone(), gpu.error().clone(), gpu.modeled_seconds(), cost, kept)
        };
        let default = run(None);
        let preset = run(Some(titan));
        assert!(preset.4, "the same GPU keeps the priced SV costs");
        assert_eq!(preset.2.to_bits(), default.2.to_bits());
        let slower = run(Some(slow));
        assert!(!slower.4, "another GPU re-prices the SVs");
        assert!(slower.3 > default.3, "SV costs {} vs {}", slower.3, default.3);
        assert!(slower.2 > default.2, "modeled {} vs {}", slower.2, default.2);
        assert_eq!((slower.0, slower.1), (default.0, default.1));
    }

    #[test]
    fn a_gpu_that_cannot_hold_the_blocks_is_a_usage_error() {
        // The copy kernels launch 256-thread blocks whatever the
        // options, so a GPU capped below that cannot price this run.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let o = GpuOptions { threads_per_block: 128, ..opts() };
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), o);
        let mut fleet = FleetSpec::titan_x_pcie(1);
        fleet.gpu.max_threads_per_block = 192;
        let err = gpu.set_fleet_spec(fleet).unwrap_err().to_string();
        assert!(err.contains("runs at most 192 threads per block"), "{err}");
        assert!(err.contains("this run launches 256"), "{err}");
    }

    #[test]
    fn first_iteration_visits_everything() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
        let r = gpu.iteration();
        assert_eq!(r.selection, Selection::All);
        assert_eq!(r.svs_updated, gpu.tiling().len());
        assert!(r.updates >= g.grid.num_voxels() as u64);
        assert!(r.batches > 0);
    }

    #[test]
    fn profiled_kernels_sum_to_the_modeled_clock() {
        // One device, one launch of each kernel per batch: the profile's
        // per-kernel seconds add up to the driver's modeled clock.
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
        let sink = Arc::new(mbir_telemetry::RecordingSink::new());
        gpu.set_profile_sink(sink.clone());
        let batches: usize = (0..3).map(|_| gpu.iteration().batches).sum();
        let report = sink.report("gpu-icd");
        let mut total = 0.0;
        for name in ["svb_create", "mbir_update", "error_writeback"] {
            let k = report.kernel(name).unwrap_or_else(|| panic!("{name} spans"));
            assert!(k.seconds > 0.0, "{name}");
            assert_eq!(k.launches, batches as u64, "{name}");
            total += k.seconds;
        }
        assert_eq!(report.kernels.len(), 3);
        assert!((total - gpu.modeled_seconds()).abs() / total < 1e-12, "{total}");
    }

    /// A fresh two-device driver on one node streaming `slabs` slabs.
    fn streaming<'a>(
        g: &Geometry,
        a: &'a SystemMatrix,
        s: &'a Scan,
        prior: &'a QggmrfPrior,
        slabs: usize,
    ) -> GpuIcd<'a, QggmrfPrior> {
        let o = GpuOptions { devices: 2, ..opts() };
        let mut gpu = GpuIcd::new(a, &s.y, &s.weights, prior, Image::zeros(g.grid), o);
        gpu.set_cluster_spec(ClusterSpec::titan_x_cluster(1, 2).with_slabs(slabs)).unwrap();
        gpu
    }

    fn checkpoint_error(gpu: &mut GpuIcd<'_, QggmrfPrior>, ckp: &Checkpoint) -> String {
        match gpu.restore(ckp) {
            Err(MbirError::Checkpoint(msg)) => msg,
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_a_residency_trailer_on_a_one_slab_run() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut donor = streaming(&g, &a, &s, &prior, 1);
        donor.iteration();
        let ckp = Checkpoint { resident: vec![0, 0], ..donor.checkpoint() };
        let msg = checkpoint_error(&mut streaming(&g, &a, &s, &prior, 1), &ckp);
        assert!(msg.contains("single slab"), "{msg}");
        // A one-device run holds one slab too.
        let mut one = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
        let ckp = Checkpoint { resident: vec![0], ..one.checkpoint() };
        assert!(checkpoint_error(&mut one, &ckp).contains("single slab"));
    }

    #[test]
    fn restore_rejects_a_streaming_checkpoint_without_its_trailer() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut donor = streaming(&g, &a, &s, &prior, 2);
        donor.iteration();
        let ckp = Checkpoint { resident: Vec::new(), ..donor.checkpoint() };
        let msg = checkpoint_error(&mut streaming(&g, &a, &s, &prior, 2), &ckp);
        assert!(msg.contains("lacks the slab-residency trailer"), "{msg}");
    }

    #[test]
    fn restore_rejects_a_resident_slab_outside_the_run() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut donor = streaming(&g, &a, &s, &prior, 2);
        donor.iteration();
        let ckp = Checkpoint { resident: vec![NO_SLAB, 2], ..donor.checkpoint() };
        let msg = checkpoint_error(&mut streaming(&g, &a, &s, &prior, 2), &ckp);
        assert!(msg.contains("slab 2 resident, run has 2 slabs"), "{msg}");
        let ckp = Checkpoint { resident: vec![NO_SLAB, 1], ..ckp };
        streaming(&g, &a, &s, &prior, 2).restore(&ckp).expect("in-range residency restores");
    }
}
