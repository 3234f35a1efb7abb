//! GPU-ICD — Algorithm 3, functionally exact and deterministic.
//!
//! The emulation preserves the paper's update semantics:
//!
//! - SVBs for a whole batch are gathered from one error-sinogram
//!   snapshot, and all write-backs happen after the batch's voxel
//!   updates finish (the paper defers the global error update to a
//!   separate kernel to avoid cache pollution);
//! - within an SV, `blocks_per_sv` voxel updates are in flight at a
//!   time: each *round* of that many voxels computes its thetas against
//!   the same SVB/image state before any of them commits — the
//!   deterministic stand-in for the hardware's interleaving, and the
//!   source of the extra equits the paper reports for GPU-ICD;
//! - SVs of one checkerboard group never share boundary voxels, so the
//!   emulation order within a batch cannot change results.

use crate::checkpoint::{Checkpoint, NO_SLAB};
use crate::error::MbirError;
use crate::fleet::{BatchContext, FleetState};
use crate::model::{BatchTiming, GpuWorkModel, ProfileSkeleton};
use crate::opts::{GpuOptions, Layout};
use crate::tally::{BatchTally, SvTally};
use ct_core::hu::rmse_hu;
use ct_core::image::{Image, SharedImage};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::{ColumnView, SystemMatrix};
use gpu_sim::timing::KernelTiming;
use mbir::convergence::ConvergenceTrace;
use mbir::prior::{clique_weight, Prior};
use mbir::sequential::IcdStats;
use mbir::update::Thetas;
use mbir_fleet::{FaultSpec, FleetReport, FleetSpec};
use mbir_simd::AColumn;
use mbir_telemetry::{ConvergencePoint, IterationSample, ProfileSink, RecordingSink};
use mbir_topo::ClusterSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use supervoxel::checkerboard::checkerboard_groups;
use supervoxel::chunks::chunk_tally;
use supervoxel::plan::{PlanConfig, SvPlan, SvPlanSet, VoxelPlan};
use supervoxel::quant::QuantizedColumn;
use supervoxel::selection::{select_svs, Selection};
use supervoxel::svb::{Svb, SvbLayout};
use supervoxel::tiling::Tiling;

/// The [`PlanConfig`] implied by a set of GPU options.
///
/// With `plan_cache` on, the plan carries everything iterations reuse
/// (chunk tallies, quantized columns). With it off, the plan degrades
/// to the band shapes alone, so the uncached baseline pays no plan
/// build cost beyond what the old driver already did at setup.
pub fn plan_config(opts: &GpuOptions) -> PlanConfig {
    let layout = match opts.layout {
        Layout::Naive => SvbLayout::SensorMajor,
        Layout::Chunked { .. } => SvbLayout::Transposed,
    };
    if opts.plan_cache {
        PlanConfig {
            chunk_width: match opts.layout {
                Layout::Chunked { width } => Some(width as usize),
                Layout::Naive => None,
            },
            quant_bits: if opts.amatrix.quantized() { Some(opts.amatrix_bits) } else { None },
            layout,
        }
    } else {
        PlanConfig { chunk_width: None, quant_bits: None, layout }
    }
}

/// What a boundary hook (see [`GpuIcd::run_with_boundary`]) tells the
/// driver to do after this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Keep iterating.
    Continue,
    /// Stop at this boundary (converged, preempted, or out of budget).
    Stop,
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

/// Time/traffic aggregation for one kernel type across launches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelAgg {
    /// Total modeled seconds.
    pub seconds: f64,
    /// Launches.
    pub launches: u64,
    l2_bytes: f64,
    tex_bytes: f64,
    dram_bytes: f64,
    shared_bytes: f64,
}

impl KernelAgg {
    fn add(&mut self, t: &KernelTiming) {
        self.seconds += t.seconds;
        self.launches += 1;
        // The timing carries exact byte totals; reconstructing them
        // from the rounded bandwidths (gbps x seconds) used to drop
        // bytes entirely for zero-duration launches and accumulated
        // round-off elsewhere.
        self.l2_bytes += t.l2_bytes;
        self.tex_bytes += t.tex_bytes;
        self.dram_bytes += t.dram_bytes;
        self.shared_bytes += t.shared_bytes;
    }

    /// Time-averaged achieved L2 bandwidth, GB/s.
    pub fn l2_gbps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.l2_bytes / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// Time-averaged achieved texture-path bandwidth, GB/s.
    pub fn tex_gbps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tex_bytes / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// Time-averaged achieved DRAM bandwidth, GB/s.
    pub fn dram_gbps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.dram_bytes / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// Time-averaged achieved shared-memory bandwidth, GB/s.
    pub fn shared_gbps(&self) -> f64 {
        if self.seconds > 0.0 {
            self.shared_bytes / self.seconds / 1e9
        } else {
            0.0
        }
    }
}

/// Per-kernel aggregates for a whole run (Table 2/3 reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuRunStats {
    /// SVB gather kernel.
    pub create: KernelAgg,
    /// MBIR update kernel.
    pub mbir: KernelAgg,
    /// Error write-back kernel.
    pub writeback: KernelAgg,
}

impl GpuRunStats {
    pub(crate) fn add(&mut self, b: &BatchTiming) {
        self.create.add(&b.create);
        self.mbir.add(&b.mbir);
        self.writeback.add(&b.writeback);
    }
}

/// The GPU-ICD reconstruction state.
pub struct GpuIcd<'a, P: Prior> {
    a: &'a SystemMatrix,
    weights: &'a Sinogram,
    prior: &'a P,
    opts: GpuOptions,
    tiling: Tiling,
    plan: Arc<SvPlanSet>,
    skeleton: ProfileSkeleton,
    image: Image,
    error: Sinogram,
    update_amount: Vec<f64>,
    iter: u64,
    stats: IcdStats,
    model: GpuWorkModel,
    modeled_seconds: f64,
    run_stats: GpuRunStats,
    sink: Option<Arc<dyn ProfileSink>>,
    recording: Option<Arc<RecordingSink>>,
    batch_seq: u64,
    fleet: Option<FleetState>,
}

impl<'a, P: Prior + Sync> GpuIcd<'a, P> {
    /// Initialize from a measurement and starting image, building the
    /// per-SV plans (in parallel on `opts.threads` workers).
    pub fn new(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        opts: GpuOptions,
    ) -> Self {
        let tiling = Tiling::new(init.grid(), opts.sv_side);
        let plan = Arc::new(SvPlanSet::build(a, &tiling, plan_config(&opts), opts.threads));
        Self::with_plan(a, y, weights, prior, init, opts, plan)
    }

    /// Initialize with a pre-built plan set (shared via `Arc` across
    /// drivers/runs). The plan must have been built for the same
    /// geometry, an identical tiling, and `plan_config(&opts)`; it holds
    /// nothing scan-dependent, so one plan serves every scan of its
    /// geometry and this constructor only projects `init`.
    pub fn with_plan(
        a: &'a SystemMatrix,
        y: &Sinogram,
        weights: &'a Sinogram,
        prior: &'a P,
        init: Image,
        opts: GpuOptions,
        plan: Arc<SvPlanSet>,
    ) -> Self {
        let tiling = Tiling::new(init.grid(), opts.sv_side);
        assert_eq!(plan.geometry(), a.geometry(), "plan built for a different geometry");
        assert_eq!(plan.config(), plan_config(&opts), "plan built for different options");
        assert_eq!(plan.plans().len(), tiling.len(), "plan built for different tiling");
        let ax = a.forward(&init);
        let mut error = y.clone();
        for (e, axv) in error.data_mut().iter_mut().zip(ax.data()) {
            *e -= axv;
        }
        let n = tiling.len();
        let model = GpuWorkModel::titan_x();
        let skeleton = model.skeleton(&opts);
        let recording = opts.profile.then(|| Arc::new(RecordingSink::new()));
        let sink = recording.clone().map(|r| r as Arc<dyn ProfileSink>);
        assert!(opts.devices >= 1, "devices must be at least 1");
        let fleet = (opts.devices > 1).then(|| {
            FleetState::new(
                &model,
                &skeleton,
                &plan,
                &tiling,
                &opts,
                a.geometry().num_channels,
                ClusterSpec::single_node(FleetSpec::titan_x_pcie(opts.devices)),
            )
        });
        GpuIcd {
            a,
            weights,
            prior,
            opts,
            tiling,
            plan,
            skeleton,
            image: init,
            error,
            update_amount: vec![0.0; n],
            iter: 0,
            stats: IcdStats::default(),
            model,
            modeled_seconds: 0.0,
            run_stats: GpuRunStats::default(),
            sink,
            recording,
            batch_seq: 0,
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
    /// count matches `opts.devices`; a request for a single-device run
    /// is rejected the same way. An installed fault schedule carries
    /// over to the new fleet state.
    pub fn set_cluster_spec(&mut self, cluster: ClusterSpec) -> Result<(), MbirError> {
        let Some(old) = self.fleet.as_ref() else {
            return Err(MbirError::Usage(
                "fleet spec applies to multi-device runs only (set --devices > 1)".into(),
            ));
        };
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
        let faults = old.faults().clone();
        let mut fs = FleetState::new(
            &self.model,
            &self.skeleton,
            &self.plan,
            &self.tiling,
            &self.opts,
            self.a.geometry().num_channels,
            cluster,
        );
        fs.set_faults(faults);
        self.fleet = Some(fs);
        Ok(())
    }

    /// Install a deterministic fault schedule (validated against the
    /// fleet size). Must be called before the first iteration; the
    /// schedule bends only the modeled timeline — the reconstruction
    /// stays bitwise identical to a healthy run.
    pub fn set_fault_spec(&mut self, spec: FaultSpec) -> Result<(), MbirError> {
        if self.iter != 0 {
            return Err(MbirError::Usage(
                "fault schedule must be set before the first iteration".into(),
            ));
        }
        let Some(fs) = self.fleet.as_mut() else {
            return Err(MbirError::Usage(
                "fault injection requires a multi-device run (set --devices > 1)".into(),
            ));
        };
        spec.validate(self.opts.devices).map_err(MbirError::Usage)?;
        fs.set_faults(spec);
        Ok(())
    }

    /// The fleet ledger (per-device utilization, exchange bytes and
    /// seconds), present when `opts.devices > 1`.
    pub fn fleet_report(&self) -> Option<FleetReport> {
        self.fleet.as_ref().map(|f| f.report())
    }

    /// Install an external profiling sink (replacing the internal
    /// recorder `opts.profile` would create). The sink only observes:
    /// reconstruction results are bitwise identical with or without it.
    pub fn set_profile_sink(&mut self, sink: Arc<dyn ProfileSink>) {
        self.sink = Some(sink);
        self.recording = None;
    }

    /// The internal recording sink, present when the driver was built
    /// with `opts.profile` (and no external sink has replaced it).
    pub fn recording(&self) -> Option<&Arc<RecordingSink>> {
        self.recording.as_ref()
    }

    /// The shared per-SV plan set.
    pub fn plan(&self) -> &Arc<SvPlanSet> {
        &self.plan
    }

    /// The SV tiling in use.
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
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
            checkerboard_groups(&self.tiling, &ids)
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
                // process_batch accumulates run_stats itself (the fleet
                // path books several per-device timings per batch) and
                // returns the batch's wall-clock span on the modeled
                // timeline — kernels plus, above one device, exchanges.
                report.modeled_seconds += self.process_batch(batch, &mut report);
                report.batches += 1;
                report.svs_updated += batch.len();
                i = end;
            }
        }

        self.modeled_seconds += report.modeled_seconds;
        self.stats.updates += report.updates;
        self.stats.skipped += report.skipped;
        self.stats.total_abs_delta += report.abs_delta;
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

    /// Run iterations until a golden-free [`mbir::stopping::StopRule`]
    /// fires or `max_iters` elapse; returns iterations used.
    pub fn run_until(&mut self, rule: mbir::stopping::StopRule, max_iters: usize) -> usize {
        let mut state = mbir::stopping::StopState::new(rule);
        let nvox = self.image.grid().num_voxels();
        for i in 0..max_iters {
            let report = self.iteration();
            let pass_stats = IcdStats {
                updates: report.updates,
                skipped: report.skipped,
                total_abs_delta: report.abs_delta,
            };
            let cost = match rule {
                mbir::stopping::StopRule::CostPlateau { .. } => {
                    mbir::convergence::cost(&self.image, &self.error, self.weights, self.prior)
                }
                _ => 0.0,
            };
            state.observe(&pass_stats, &self.stats, cost, nvox);
            if state.should_stop() {
                return i + 1;
            }
        }
        max_iters
    }

    /// Process one batch: gather SVBs, update every SV's voxels in
    /// rounds, scatter all deltas, and model the three kernels.
    /// Returns the batch's wall seconds on the modeled timeline.
    fn process_batch(&mut self, batch: &[usize], report: &mut GpuIterationReport) -> f64 {
        let layout = match self.opts.layout {
            Layout::Naive => SvbLayout::SensorMajor,
            Layout::Chunked { .. } => SvbLayout::Transposed,
        };
        let allow_skip = self.opts.zero_skip && self.iter > 1;
        let rounds = self.opts.blocks_per_sv() as usize;

        // Kernel 1 (functional): gather all SVBs from the snapshot.
        let plan = &*self.plan;
        let origs: Vec<Svb<'_>> = batch
            .iter()
            .map(|&sv| Svb::gather(&plan.plan(sv).shape, layout, &self.error, self.weights))
            .collect();

        // Kernel 2 (functional): per-SV voxel updates in rounds, run
        // across host worker threads. SVs of one batch belong to the
        // same checkerboard group, so their write sets are disjoint and
        // every cross-SV neighbour read lands in an SV frozen for the
        // whole batch — any thread count produces bitwise-identical
        // results. The ablation without the checkerboard loses that
        // guarantee and runs on one thread to keep its (sequential)
        // semantics reproducible.
        let a = self.a;
        let prior = self.prior;
        let opts = &self.opts;
        let iter = self.iter;
        let workers = if opts.checkerboard { opts.threads } else { 1 };
        let shared = self.image.as_shared();
        let results: Vec<(Svb<'_>, SvTally)> = mbir_parallel::par_map(workers, batch.len(), |bi| {
            let sv = batch[bi];
            let mut svb = origs[bi].clone();
            let t = update_sv(
                a,
                &shared,
                prior,
                opts,
                plan.plan(sv),
                iter,
                &mut svb,
                rounds,
                allow_skip,
            );
            (svb, t)
        });

        // Commit tallies and deltas sequentially in batch (SV) order —
        // the fixed-order reduction that keeps reports and the error
        // sinogram independent of thread scheduling.
        let mut tally = BatchTally::default();
        for (bi, &sv) in batch.iter().enumerate() {
            let t = results[bi].1;
            report.updates += t.updates;
            report.skipped += t.skipped;
            report.abs_delta += t.abs_delta;
            self.update_amount[sv] = t.abs_delta;
            tally.svs.push(t);
        }

        // Kernel 3 (functional): scatter every delta, in batch order.
        for (bi, (svb, _)) in results.iter().enumerate() {
            svb.scatter_delta(&origs[bi], &mut self.error);
        }

        let k = BatchContext {
            model: &self.model,
            skeleton: &self.skeleton,
            num_channels: self.a.geometry().num_channels,
            threads: self.opts.threads,
            sink: self.sink.as_deref(),
            iter: self.iter,
            batch: self.batch_seq,
        };
        self.batch_seq += 1;
        if let Some(fs) = self.fleet.as_mut() {
            return fs.price_batch(&k, &tally, batch, &mut self.run_stats);
        }
        // One device: the batch starts where the previous one ended on
        // the modeled timeline — completed iterations plus the batches
        // already accumulated into this iteration's report.
        let t = k.time(&tally, 0, self.modeled_seconds + report.modeled_seconds);
        self.run_stats.add(&t);
        t.seconds()
    }

    /// Iterate until RMSE against `golden` drops below `threshold_hu`,
    /// recording the trace in modeled GPU seconds.
    pub fn run_to_rmse(
        &mut self,
        golden: &Image,
        threshold_hu: f32,
        max_iters: usize,
    ) -> ConvergenceTrace {
        let mut trace = ConvergenceTrace::default();
        trace.record(self.equits(), self.modeled_seconds, &self.image, golden);
        self.emit_convergence(&trace);
        for _ in 0..max_iters {
            if rmse_hu(&self.image, golden) < threshold_hu {
                break;
            }
            self.iteration();
            trace.record(self.equits(), self.modeled_seconds, &self.image, golden);
            self.emit_convergence(&trace);
        }
        trace
    }

    /// Run up to `max_iters` further iterations, invoking `hook` at
    /// every iteration boundary — the only point where a checkpoint
    /// captures a bitwise-resumable state. The hook sees the driver
    /// immutably (snapshot a [`Checkpoint`], inspect progress, save to
    /// disk) and decides whether to continue; errors abort the run.
    /// This is the preemption point the serve layer stops victims at,
    /// and the cadence `mbirctl --checkpoint-every` saves on.
    ///
    /// Returns the number of iterations actually run.
    pub fn run_with_boundary(
        &mut self,
        max_iters: usize,
        mut hook: impl FnMut(&Self, &GpuIterationReport) -> Result<BoundaryAction, MbirError>,
    ) -> Result<u64, MbirError> {
        let start = self.iter;
        for _ in 0..max_iters {
            let report = self.iteration();
            match hook(self, &report)? {
                BoundaryAction::Continue => {}
                BoundaryAction::Stop => break,
            }
        }
        Ok(self.iter - start)
    }

    /// Forward the latest trace point to the sink, if any.
    fn emit_convergence(&self, trace: &ConvergenceTrace) {
        if let Some(sink) = &self.sink {
            let p = trace.last().expect("point just recorded");
            sink.convergence(&ConvergencePoint {
                iter: self.iter,
                equits: p.equits,
                seconds: p.seconds,
                rmse_hu: p.rmse_hu as f64,
            });
        }
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
            batch_seq: self.batch_seq,
            stats: self.stats,
            modeled_seconds: self.modeled_seconds,
            seed: self.opts.seed,
            devices: self.opts.devices as u64,
            image: self.image.data().to_vec(),
            error: self.error.data().to_vec(),
            update_amount: self.update_amount.clone(),
            resident: self.fleet.as_ref().map_or_else(Vec::new, FleetState::residency),
        }
    }

    /// Restore a checkpointed state into a freshly-built driver. The
    /// driver must be configured exactly as the checkpointed run was
    /// (same geometry, seed, device count, and fleet or cluster spec;
    /// if fault injection is in play, install the same schedule via
    /// [`GpuIcd::set_fault_spec`] *before* this call) — resuming then
    /// continues bitwise identically to a run that was never
    /// interrupted. Per-kernel `run_stats` and the fleet's per-device
    /// busy ledger restart at zero and cover only the post-resume
    /// stretch; the fleet wall clock fast-forwards so the timeline (and
    /// any profiled spans) continues where it left off, any failures
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
        if ckp.update_amount.len() != self.tiling.len() {
            return Err(MbirError::Checkpoint(format!(
                "checkpoint has {} SV amounts, run tiles {} SVs (different sv_side?)",
                ckp.update_amount.len(),
                self.tiling.len()
            )));
        }
        let slabs = self.fleet.as_ref().map_or(1, FleetState::slabs);
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
        self.batch_seq = ckp.batch_seq;
        self.stats = ckp.stats;
        self.modeled_seconds = ckp.modeled_seconds;
        if let Some(fs) = self.fleet.as_mut() {
            fs.restore(ckp);
        }
        Ok(())
    }

    /// Total modeled GPU seconds.
    pub fn modeled_seconds(&self) -> f64 {
        self.modeled_seconds
    }

    /// Per-kernel aggregates (bandwidths, time split).
    pub fn run_stats(&self) -> GpuRunStats {
        self.run_stats
    }
}

/// Update one SV's voxels in rounds of `rounds` concurrent updates
/// (free function so the driver can split its field borrows; takes the
/// shared image view so batch SVs can run on worker threads).
///
/// When `opts.plan_cache` is on, every iteration-invariant quantity
/// (chunk tallies, quantized columns) comes from the [`SvPlan`];
/// otherwise it is recomputed per visit exactly as the pre-cache driver
/// did. Band geometry and offsets always come from the plan. Both paths
/// are bitwise identical.
#[allow(clippy::too_many_arguments)]
fn update_sv<P: Prior>(
    a: &SystemMatrix,
    image: &SharedImage<'_>,
    prior: &P,
    opts: &GpuOptions,
    plan: &SvPlan,
    iter: u64,
    svb: &mut Svb<'_>,
    rounds: usize,
    allow_skip: bool,
) -> SvTally {
    let sv = plan.sv;
    let vox = plan.voxels();
    // Shuffle indices into the plan's voxel list. Fisher-Yates is
    // element-type-independent, so this yields the same permutation the
    // old driver got shuffling the voxel ids themselves.
    let mut order: Vec<u32> = (0..vox.len() as u32).collect();
    let mut rng = StdRng::seed_from_u64(
        opts.seed ^ iter.wrapping_mul(131) ^ (sv as u64).wrapping_mul(0x9e3779b9),
    );
    order.shuffle(&mut rng);

    let cached = opts.plan_cache;
    let chunk_width = match opts.layout {
        Layout::Chunked { width } => Some(width as usize),
        Layout::Naive => None,
    };
    let quantized = if opts.amatrix.quantized() { Some(opts.amatrix_bits) } else { None };
    // Resolve the lane-kernel backend once per SV (the env fallback is
    // not free) and hand the concrete choice to every voxel visit.
    let simd = mbir_simd::resolve(opts.simd);
    let nviews = plan.shape.num_views();

    let mut t = SvTally {
        sv,
        svb_bytes: plan.svb_bytes,
        band_width: plan.band_width,
        max_block_share: 1.0 / rounds as f64,
        ..Default::default()
    };

    // Static-distribution imbalance: blocks own contiguous ranges of
    // the voxel list; measure the heaviest block's update share.
    let mut static_updates = vec![0u64; rounds];
    let range_len = order.len().div_ceil(rounds);

    // Concurrency emulation: with `rounds` blocks in flight, a voxel's
    // theta pass misses the commits of the other in-flight updates —
    // on average half of them, since blocks progress in staggered
    // phases and atomics land as each block finishes. Model this as a
    // FIFO of delayed commits of depth `rounds / 2`: a voxel's update
    // becomes visible to updates starting that much later. Depth 1
    // degenerates to sequential Gauss-Seidel semantics.
    //
    // The depth is additionally capped at 1/16 of the SV's voxels: when
    // many blocks squeeze into a small SV, their atomic updates to the
    // narrow shared band contend and serialize (the contention the
    // paper reports for small SV sides), which throttles the *effective*
    // concurrency — without the cap the emulation over-penalizes
    // extreme block-to-voxel ratios that the hardware self-limits.
    let window = (rounds / 2).clamp(1, (order.len() / 16).max(1));
    let mut fifo: std::collections::VecDeque<(u32, f32)> = std::collections::VecDeque::new();
    let commit = |svb: &mut Svb<'_>, oi: u32, delta: f32| {
        if delta != 0.0 {
            let vp = &vox[oi as usize];
            image.set(vp.voxel, image.get(vp.voxel) + delta);
            let col = a.column(vp.voxel);
            with_entries(vp, &col, quantized, cached, |e| {
                svb.apply_delta(&col, e, plan.offsets(vp), delta, simd)
            });
        }
    };
    for (pos, &oi) in order.iter().enumerate() {
        let vp = &vox[oi as usize];
        let j = vp.voxel;
        if allow_skip && image.zero_skippable(j) {
            t.skipped += 1;
            continue;
        }
        if fifo.len() >= window {
            let (oj, d) = fifo.pop_front().expect("window >= 1");
            commit(svb, oj, d);
        }
        let col = a.column(j);
        let th = with_entries(vp, &col, quantized, cached, |e| {
            svb.thetas(&col, e, plan.offsets(vp), simd)
        });
        let delta = compute_delta(image, prior, opts.positivity, j, th);
        t.updates += 1;
        t.abs_delta += delta.abs() as f64;
        t.nnz += vp.nnz as f64;
        if cached {
            // Integer tallies are exact in f64, so the cached sums are
            // bitwise what the per-visit recomputation accumulates.
            t.dense += vp.dense as f64;
            t.descriptors += vp.descriptors as f64;
        } else if let Some(w) = chunk_width {
            let (dense, descriptors) = chunk_tally(&col, w);
            t.dense += dense as f64;
            t.descriptors += descriptors as f64;
        } else {
            t.dense += col.nnz() as f64;
            t.descriptors += nviews as f64;
        }
        static_updates[(pos / range_len.max(1)).min(rounds - 1)] += 1;
        fifo.push_back((oi, delta));
    }
    for (oj, d) in fifo {
        commit(svb, oj, d);
    }

    if t.updates > 0 {
        let max_static = *static_updates.iter().max().unwrap() as f64;
        t.max_block_share = (max_static / t.updates as f64).max(1.0 / rounds as f64);
    }
    t
}

/// The A entries a visit reads: the plan's cached u8 codes, codes
/// quantized afresh (the uncached baseline re-quantizes on every
/// visit), or the f32 column.
fn with_entries<R>(
    vp: &VoxelPlan,
    col: &ColumnView<'_>,
    quantized: Option<u32>,
    cached: bool,
    f: impl FnOnce(AColumn<'_>) -> R,
) -> R {
    match quantized {
        Some(_) if cached => f(vp.quant.as_ref().expect("plan caches quantized columns").entries()),
        Some(bits) => f(QuantizedColumn::quantize_bits(col, bits).entries()),
        None => f(AColumn::F32(col.values_flat())),
    }
}

/// Compute a voxel's step from its thetas without committing it (the
/// prior against the current image).
fn compute_delta<P: Prior>(
    image: &SharedImage<'_>,
    prior: &P,
    positivity: bool,
    j: usize,
    th: Thetas,
) -> f32 {
    let v = image.get(j);
    let nb = image.neighbors8(j);
    let mut neigh = nb.iter().map(|(k, edge)| (image.get(k), clique_weight(edge)));
    let mut delta = prior.step(v, th.theta1, th.theta2, &mut neigh);
    drop(neigh);
    if positivity && v + delta < 0.0 {
        delta = -v;
    }
    delta
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
        let trace = gpu.run_to_rmse(&golden, 10.0, 80);
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
        let trace = gpu.run_to_rmse(&golden, 10.0, 80);
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
            let o = GpuOptions { threadblocks_per_sv: blocks, intra_sv: blocks > 1, ..opts() };
            let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, init.clone(), o);
            gpu.run_to_rmse(&golden, 10.0, 120);
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
    fn run_stats_accumulate() {
        let (g, a, s) = setup();
        let prior = QggmrfPrior::standard(0.002);
        let mut gpu = GpuIcd::new(&a, &s.y, &s.weights, &prior, Image::zeros(g.grid), opts());
        gpu.iteration();
        let rs = gpu.run_stats();
        assert!(rs.mbir.seconds > 0.0);
        assert!(rs.create.seconds > 0.0);
        assert!(rs.writeback.seconds > 0.0);
        assert!(rs.mbir.launches >= 1);
        let total = rs.mbir.seconds + rs.create.seconds + rs.writeback.seconds;
        assert!((total - gpu.modeled_seconds()).abs() / total < 1e-9);
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
        // The fleet-free single-device path holds one slab too.
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
