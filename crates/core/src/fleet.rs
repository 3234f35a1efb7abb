//! Driver-side fleet state: every GPU-ICD run is a cluster, and
//! `FleetState::price_batch` is its one pricing path.
//!
//! The functional computation is untouched by sharding — SVs of one
//! batch share no boundary voxels, every device gathers from the same
//! error-sinogram snapshot, and commits merge in batch order — so the
//! fleet only re-prices the timeline. A flat fleet is a one-node,
//! one-slab [`ClusterSpec`] (whose hierarchical reduce is the flat ring
//! all-gather, bit for bit), one device is a flat fleet of one (its
//! loads, halos and exchange are exact zeros, so a batch's span is its
//! kernels' seconds, bit for bit), and every batch books, in order:
//!
//! 1. slab loads — first touch or residency switch, slab streaming
//!    only, concurrent across devices;
//! 2. the compute span — the slowest device's kernels;
//! 3. on a scheduled device failure, the recovery: the attempt's work
//!    on the failed devices is lost, every survivor sits through the
//!    backoff, the shard is re-derived over the survivors, and only the
//!    lost entries are re-priced on their new owners (their slab loads
//!    first);
//! 4. seam halos — slab streaming only;
//! 5. the hierarchical exchange over the live devices.
//!
//! The batch's span is the sum of those components in booking order,
//! never differenced off the wall clock, so a resumed run (whose clock
//! fast-forwards to the checkpoint) accumulates bitwise-identical
//! seconds; absent components add exact zeros. Straggler and
//! degraded-link episodes are overlays on the same path: a straggler
//! scales its device's ledger kernel seconds, a degraded link divides
//! the bandwidth of every transfer in the batch.
//!
//! The shard itself is planned from *modeled per-SV cost*: each SV's
//! plan is priced as a one-SV batch through the same [`GpuWorkModel`]
//! that prices real batches, and [`ShardPlan::balanced_within`]
//! balances those costs with its LPT partition inside each SV's slab
//! device group. Balancing by cost rather than SV count matters at
//! ragged image edges, where clipped SVs carry a fraction of an
//! interior SV's work.

use crate::checkpoint::{Checkpoint, NO_SLAB};
use crate::model::{GpuWorkModel, ProfileSkeleton};
use crate::opts::GpuOptions;
use crate::tally::BatchTally;
use mbir_fleet::{FaultEvent, FaultSpec, Fleet, FleetReport, ShardPlan};
use mbir_telemetry::{ExchangeRecord, FaultRecord, LaunchCtx, ProfileSink};
use mbir_topo::{ClusterSpec, SlabPlan, SlabStreamer, Topology};
use std::sync::Arc;
use supervoxel::plan::{SvPlan, SvPlanSet};
use supervoxel::sweep::SvTally;
use supervoxel::tiling::Tiling;

/// What pricing one batch needs from the driver: the work model that
/// times kernels, the batch's identity, and the sink its spans and
/// records go to.
pub(crate) struct BatchContext<'a> {
    pub(crate) model: &'a GpuWorkModel,
    pub(crate) skeleton: &'a ProfileSkeleton,
    pub(crate) num_channels: usize,
    pub(crate) sink: Option<&'a dyn ProfileSink>,
    pub(crate) iter: u64,
    /// Global batch sequence number (fault schedules key on it).
    pub(crate) batch: u64,
}

impl BatchContext<'_> {
    /// Model every device's shard in device order, profiled spans
    /// starting at `start` on the modeled timeline, and return each
    /// device's seconds (zero for a device with nothing launched).
    /// Pricing is microseconds of arithmetic per device, far below the
    /// cost of handing it to worker threads.
    fn time_devices(&self, tallies: &[BatchTally], start: f64) -> Vec<f64> {
        let mut seconds = vec![0.0; tallies.len()];
        for (d, tally) in tallies.iter().enumerate().filter(|(_, t)| !t.svs.is_empty()) {
            let ctx = LaunchCtx {
                device: d as u64,
                iteration: self.iter,
                batch: self.batch,
                start_seconds: start,
                ..LaunchCtx::default()
            };
            let sink = self.sink.map(|s| (s, ctx));
            seconds[d] = self.model.batch(self.skeleton, tally, self.num_channels, sink).seconds();
        }
        seconds
    }

    fn exchange(&self, phase: &str, node: Option<usize>, start: f64, seconds: f64, bytes: u64) {
        if let Some(sink) = self.sink {
            sink.exchange(&ExchangeRecord {
                phase: phase.into(),
                node: node.map(|n| n as u64),
                iteration: self.iter,
                batch: self.batch,
                start_seconds: start,
                duration_seconds: seconds,
                bytes,
            });
        }
    }

    fn fault(&self, kind: &str, device: Option<usize>, start: f64, seconds: f64, detail: String) {
        if let Some(sink) = self.sink {
            sink.fault(&FaultRecord {
                kind: kind.into(),
                device: device.map(|d| d as u64),
                iteration: self.iter,
                batch: self.batch,
                start_seconds: start,
                duration_seconds: seconds,
                detail,
            });
        }
    }
}

/// Sharding plan, per-SV exchange payloads, slab residency, liveness,
/// fault schedule, and the fleet ledger for one GPU-ICD run.
pub struct FleetState {
    /// Partition of SVs over *shard slots*; `device_ids` maps a slot
    /// to the physical device holding it.
    shard: ShardPlan,
    /// Shard slot -> physical device id: the live devices, ascending
    /// (the identity map until a failure shrinks the fleet).
    device_ids: Vec<usize>,
    /// Per physical device: still alive?
    live: Vec<bool>,
    /// Modeled per-SV cost the shard is balanced by — retained so a
    /// failure can re-run the partition over the survivors, and shared
    /// with every re-carving of the run's fleet ([`FleetState::recarve`]).
    costs: Arc<[f64]>,
    /// Per SV: bytes the owning device publishes after a batch touching
    /// it — the SV's error-band delta plane plus its boundary-voxel
    /// image halo. Shared like `costs`.
    payload_bytes: Arc<[u64]>,
    /// Prices the hierarchical exchange and, through its intra-node
    /// link, slab loads and seam halos.
    topology: Topology,
    /// The axial slabs (clamped to the SV-row count). One slab means
    /// every device holds the whole volume: no streaming, no seams.
    slabs: SlabPlan,
    /// Per SV: the slab owning its SV row.
    sv_slab: Vec<usize>,
    /// Per SV: seam-halo bytes a batch touching it pays (0 off-seam —
    /// one boundary row of f32 voxels on a slab seam).
    seam_bytes: Vec<u64>,
    /// Per-device slab residency.
    streamer: SlabStreamer,
    fleet: Fleet,
    /// Scheduled adverse events (empty for a healthy run).
    faults: FaultSpec,
    /// Per fault event: already surfaced to the telemetry fault lane?
    /// (Episodes spanning many batches are reported once, at onset.)
    episode_emitted: Vec<bool>,
}

impl FleetState {
    /// Price every SV, plan the shard over `cluster` and zero the
    /// clocks. `cluster.total_devices()` must match `opts.devices`.
    pub fn new(
        model: &GpuWorkModel,
        skeleton: &ProfileSkeleton,
        plans: &SvPlanSet,
        tiling: &Tiling,
        opts: &GpuOptions,
        num_channels: usize,
        cluster: ClusterSpec,
    ) -> Self {
        assert_eq!(
            cluster.total_devices(),
            opts.devices,
            "fleet spec sized for a different device count"
        );
        let costs = sv_costs(model, skeleton, plans, opts, num_channels).into();
        let payload_bytes = tiling
            .svs()
            .iter()
            .zip(plans.plans())
            .map(|(sv, plan)| {
                // Halo: the tile's boundary voxels, one f32 each.
                let interior = sv.rows.saturating_sub(2) * sv.cols.saturating_sub(2);
                let halo = (sv.rows * sv.cols - interior) as u64 * 4;
                plan.svb_bytes as u64 + halo
            })
            .collect();
        Self::carve(costs, payload_bytes, plans, tiling, cluster)
    }

    /// This run's fleet re-planned over `cluster`, which must hold as
    /// many devices: the per-SV costs and payload bytes, which do not
    /// depend on the cluster, are shared rather than priced again; the
    /// shard, topology, slabs, streamer and ledger are planned afresh;
    /// and the fault schedule carries over.
    pub(crate) fn recarve(&self, plans: &SvPlanSet, tiling: &Tiling, cluster: ClusterSpec) -> Self {
        assert_eq!(
            cluster.total_devices(),
            self.live.len(),
            "fleet spec sized for a different device count"
        );
        let mut fs = Self::carve(
            Arc::clone(&self.costs),
            Arc::clone(&self.payload_bytes),
            plans,
            tiling,
            cluster,
        );
        fs.set_faults(self.faults.clone());
        fs
    }

    /// Everything that depends on `cluster`, around the per-SV costs
    /// and payloads.
    fn carve(
        costs: Arc<[f64]>,
        payload_bytes: Arc<[u64]>,
        plans: &SvPlanSet,
        tiling: &Tiling,
        cluster: ClusterSpec,
    ) -> Self {
        let devices = cluster.total_devices();
        let (sv_rows, _) = tiling.sv_grid();
        let slabs = SlabPlan::new(sv_rows, cluster.slabs);
        let sv_slab: Vec<usize> =
            tiling.svs().iter().map(|sv| slabs.slab_of_row(sv.sv_row)).collect();
        let seam_bytes = tiling
            .svs()
            .iter()
            .map(|sv| if slabs.is_seam_row(sv.sv_row) { sv.cols as u64 * 4 } else { 0 })
            .collect();
        // Modeled per-device footprint of one slab: its share of the
        // image plane plus its share of the error bands.
        let grid = tiling.grid();
        let image_bytes = (grid.nx * grid.ny) as u64 * 4;
        let band_bytes: u64 = plans.plans().iter().map(|p| p.svb_bytes as u64).sum();
        let slab_bytes = (image_bytes + band_bytes) / slabs.slabs() as u64;

        let live = vec![true; devices];
        let (shard, device_ids) = shard_over(&live, &costs, &sv_slab, &slabs);
        FleetState {
            shard,
            device_ids,
            live,
            costs,
            payload_bytes,
            topology: Topology::new(cluster),
            slabs,
            sv_slab,
            seam_bytes,
            streamer: SlabStreamer::new(devices, slab_bytes),
            fleet: Fleet::new(devices),
            faults: FaultSpec::none(),
            episode_emitted: Vec::new(),
        }
    }

    /// The per-SV costs the shard is balanced by.
    #[cfg(test)]
    pub(crate) fn costs(&self) -> &Arc<[f64]> {
        &self.costs
    }

    /// The sharding plan in force.
    pub fn shard(&self) -> &ShardPlan {
        &self.shard
    }

    /// Physical device currently owning `sv`.
    pub fn device_of(&self, sv: usize) -> usize {
        self.device_ids[self.shard.device_of(sv)]
    }

    /// Devices still alive.
    pub fn live_devices(&self) -> usize {
        self.device_ids.len()
    }

    /// Effective slab count (1 unless slabs stream).
    pub fn slabs(&self) -> usize {
        self.slabs.slabs()
    }

    /// Install a fault schedule (validated against the device count).
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        self.episode_emitted = vec![false; spec.events.len()];
        self.faults = spec;
    }

    /// Snapshot of the fleet ledger (wall seconds, exchange bytes,
    /// per-device utilization, fault/recovery counters).
    pub fn report(&self) -> FleetReport {
        self.fleet.report()
    }

    /// Price one batch whose functional results are already committed
    /// (see the module docs for the booking order) and return its span
    /// on the modeled timeline. Every device's kernels emit their own
    /// spans, so a profile's per-kernel seconds sum *device*-seconds.
    pub(crate) fn price_batch(
        &mut self,
        k: &BatchContext<'_>,
        tally: &BatchTally,
        batch: &[usize],
    ) -> f64 {
        self.note_episode_onsets(k);
        let bw = 1.0 / self.faults.link_factor(k.batch);
        let mut owner: Vec<usize> = batch.iter().map(|&sv| self.device_of(sv)).collect();
        let every: Vec<usize> = (0..batch.len()).collect();

        let mut span = self.book_loads(k, batch, &owner, &every, bw);
        let kernel_seconds = self.time_entries(k, tally, &owner, &every);
        span += self.fleet.span(&kernel_seconds);

        let failed: Vec<usize> =
            self.faults.failures_at(k.batch).into_iter().filter(|&d| self.live[d]).collect();
        if !failed.is_empty() {
            for part in self.recover(k, tally, batch, &mut owner, &failed, &kernel_seconds, bw) {
                span += part;
            }
        }

        // Seam halos: devices on a slab seam trade one boundary row
        // with the neighbor slab, concurrently, on the intra link.
        let mut halo = vec![0u64; self.live.len()];
        for (bi, &sv) in batch.iter().enumerate() {
            halo[owner[bi]] += self.seam_bytes[sv];
        }
        let intra = self.topology.intra();
        let moves: Vec<(f64, u64)> = halo
            .iter()
            .map(|&b| (if b == 0 { 0.0 } else { intra.transfer_seconds_scaled(b, bw) }, b))
            .collect();
        span += self.book_transfers(k, "seam_halo", &moves);

        // The exchange runs once, over the live devices, with every
        // payload published by its final owner.
        let mut payloads = vec![0u64; self.live.len()];
        for (bi, &sv) in batch.iter().enumerate() {
            payloads[owner[bi]] += self.payload_bytes[sv];
        }
        let cost = self.topology.allgather_among(&payloads, &self.live, bw);
        let start = self.fleet.wall_seconds();
        for (node, p) in cost.intra_gather.iter().enumerate().filter(|(_, p)| p.bytes > 0) {
            k.exchange("intra_gather", Some(node), start, p.seconds, p.bytes);
        }
        let inter_start = start + cost.gather_span();
        if cost.inter_exchange.bytes > 0 {
            let p = cost.inter_exchange;
            k.exchange("inter_exchange", None, inter_start, p.seconds, p.bytes);
        }
        let bcast_start = inter_start + cost.inter_exchange.seconds;
        for (node, p) in cost.intra_broadcast.iter().enumerate().filter(|(_, p)| p.bytes > 0) {
            k.exchange("intra_broadcast", Some(node), bcast_start, p.seconds, p.bytes);
        }
        self.fleet.book_exchange(cost.seconds, cost.bytes);
        span + cost.seconds
    }

    /// A device failure strikes at the batch barrier: the attempt's
    /// span has elapsed and the failed devices' finished work is lost,
    /// every survivor sits through the backoff, the shard is re-derived
    /// over the survivors, and only the lost entries are re-priced on
    /// their new owners (streaming in their slabs first). Returns the
    /// booked [backoff, retry loads, retry compute] spans.
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        k: &BatchContext<'_>,
        tally: &BatchTally,
        batch: &[usize],
        owner: &mut [usize],
        failed: &[usize],
        kernel_seconds: &[f64],
        bw: f64,
    ) -> [f64; 3] {
        let barrier = self.fleet.wall_seconds();
        let backoff = self.faults.backoff_seconds;
        for &f in failed {
            self.fleet.record_fault();
            self.fleet.record_lost(kernel_seconds[f]);
        }
        self.fleet.penalty(backoff);
        for &f in failed {
            let detail = format!("device {f} failed at the batch barrier; shard work lost");
            k.fault("device_failure", Some(f), barrier, 0.0, detail);
            self.kill(f);
        }

        let lost: Vec<usize> = (0..batch.len()).filter(|&bi| failed.contains(&owner[bi])).collect();
        for &bi in &lost {
            owner[bi] = self.device_of(batch[bi]);
        }
        let loads = self.book_loads(k, batch, owner, &lost, bw);
        let retry_seconds = self.time_entries(k, tally, owner, &lost);
        let retry_span = self.fleet.span(&retry_seconds);
        let retry = loads + retry_span;
        self.fleet.record_recovery(retry);
        let detail = format!(
            "resharded over {} survivors; re-ran {} SV(s): {backoff:.3}s backoff + \
             {retry:.3e}s retry",
            self.live_devices(),
            lost.len()
        );
        k.fault("recovery", None, barrier, backoff + retry, detail);
        [backoff, loads, retry_span]
    }

    /// Model the batch entries `entries` (indices into the batch) on
    /// their owners, preserving batch order within each device.
    /// Stragglers stretch the returned *ledger* seconds; profiled spans
    /// keep their nominal kernel durations (the slowdown is an episode
    /// on the timeline, not a new kernel).
    fn time_entries(
        &self,
        k: &BatchContext<'_>,
        tally: &BatchTally,
        owner: &[usize],
        entries: &[usize],
    ) -> Vec<f64> {
        let mut tallies: Vec<BatchTally> =
            (0..self.live.len()).map(|_| BatchTally::default()).collect();
        for &bi in entries {
            tallies[owner[bi]].svs.push(tally.svs[bi]);
        }
        let mut seconds = k.time_devices(&tallies, self.fleet.wall_seconds());
        for (d, s) in seconds.iter_mut().enumerate() {
            *s *= self.faults.slowdown(d, k.batch);
        }
        seconds
    }

    /// Stream in the slabs the owners of `entries` do not hold (slab
    /// streaming only): devices load concurrently, one device's loads
    /// serialize. Returns the phase span.
    fn book_loads(
        &mut self,
        k: &BatchContext<'_>,
        batch: &[usize],
        owner: &[usize],
        entries: &[usize],
        bw: f64,
    ) -> f64 {
        let mut loads = vec![0u64; self.live.len()];
        if self.slabs() > 1 {
            for &bi in entries {
                if self.streamer.touch(owner[bi], self.sv_slab[batch[bi]]) {
                    loads[owner[bi]] += 1;
                }
            }
        }
        let bytes = self.streamer.slab_bytes();
        let per_load = self.topology.intra().transfer_seconds_scaled(bytes, bw);
        let moves: Vec<(f64, u64)> =
            loads.iter().map(|&l| (l as f64 * per_load, l * bytes)).collect();
        self.book_transfers(k, "slab_load", &moves)
    }

    /// Book one phase of concurrent per-device transfers (`moves[d]` is
    /// device `d`'s seconds and bytes), surfacing each non-empty one as
    /// an exchange record. Returns the phase span: the slowest device.
    fn book_transfers(&mut self, k: &BatchContext<'_>, phase: &str, moves: &[(f64, u64)]) -> f64 {
        let span = moves.iter().map(|m| m.0).fold(0.0, f64::max);
        if span > 0.0 {
            let start = self.fleet.wall_seconds();
            for (d, &(seconds, bytes)) in moves.iter().enumerate().filter(|(_, m)| m.1 > 0) {
                let node = self.topology.spec().node_of(d);
                k.exchange(phase, Some(node), start, seconds, bytes);
            }
            self.fleet.book_transfer(span, moves.iter().map(|m| m.1).sum());
        }
        span
    }

    /// Surface straggler / degraded-link episode onsets to the fault
    /// lane, once per episode, at the first batch each covers.
    fn note_episode_onsets(&mut self, k: &BatchContext<'_>) {
        let now = self.fleet.wall_seconds();
        for (i, ev) in self.faults.events.iter().enumerate() {
            if self.episode_emitted[i] {
                continue;
            }
            let (kind, device, detail) = match *ev {
                FaultEvent::Straggler { device, from_batch, to_batch, factor }
                    if (from_batch..=to_batch).contains(&k.batch) =>
                {
                    let detail = format!(
                        "device {device} running {factor:.2}x slower for batches \
                         {from_batch}..={to_batch}"
                    );
                    ("straggler", Some(device), detail)
                }
                FaultEvent::DegradedLink { from_batch, to_batch, factor }
                    if (from_batch..=to_batch).contains(&k.batch) =>
                {
                    let detail = format!(
                        "interconnect at 1/{factor:.2} bandwidth for batches \
                         {from_batch}..={to_batch}"
                    );
                    ("degraded_link", None, detail)
                }
                _ => continue,
            };
            self.episode_emitted[i] = true;
            self.fleet.record_fault();
            k.fault(kind, device, now, 0.0, detail);
        }
    }

    /// Mark `device` dead and re-derive the shard over the survivors.
    /// Panics if it would leave no survivor — [`FaultSpec::validate`]
    /// rules that out for any schedule reaching the driver.
    fn kill(&mut self, device: usize) {
        assert!(self.live[device], "device {device} already dead");
        self.live[device] = false;
        assert!(self.live.contains(&true), "fault schedule left no survivor");
        (self.shard, self.device_ids) =
            shard_over(&self.live, &self.costs, &self.sv_slab, &self.slabs);
    }

    /// Each device's resident slab ([`NO_SLAB`] for none) for a
    /// checkpoint trailer — empty unless slabs stream, so one-slab
    /// checkpoints keep the original layout.
    pub(crate) fn residency(&self) -> Vec<u64> {
        if self.slabs() == 1 {
            return Vec::new();
        }
        (0..self.live.len())
            .map(|d| self.streamer.resident(d).map_or(NO_SLAB, |s| s as u64))
            .collect()
    }

    /// Replay the fleet's history up to `ckp` (whose residency trailer
    /// the driver has validated): fast-forward the clock, re-kill the
    /// devices the schedule failed before it (resharding exactly as the
    /// interrupted run did), mark the episodes it had already surfaced,
    /// and reinstall each device's resident slab.
    pub(crate) fn restore(&mut self, ckp: &Checkpoint) {
        self.fleet.fast_forward_to(ckp.modeled_seconds);
        for (i, ev) in self.faults.events.iter().enumerate() {
            match *ev {
                FaultEvent::DeviceFailure { device, batch } if batch < ckp.batch_seq => {
                    self.live[device] = false;
                }
                FaultEvent::Straggler { from_batch, .. }
                | FaultEvent::DegradedLink { from_batch, .. }
                    if from_batch < ckp.batch_seq =>
                {
                    self.episode_emitted[i] = true;
                }
                _ => {}
            }
        }
        (self.shard, self.device_ids) =
            shard_over(&self.live, &self.costs, &self.sv_slab, &self.slabs);
        for (d, &s) in ckp.resident.iter().enumerate() {
            self.streamer.set_resident(d, (s != NO_SLAB).then_some(s as usize));
        }
    }
}

/// Plan the shard over the live devices: slots map to live ids in
/// ascending order, each SV may only land in its slab's device group
/// over the live count ([`SlabPlan::device_group`]), and the per-SV
/// costs are LPT-balanced within those groups — at one slab, exactly
/// [`ShardPlan::balanced`] over the live count.
fn shard_over(
    live: &[bool],
    costs: &[f64],
    sv_slab: &[usize],
    slabs: &SlabPlan,
) -> (ShardPlan, Vec<usize>) {
    let ids: Vec<usize> = (0..live.len()).filter(|&d| live[d]).collect();
    let allowed: Vec<(usize, usize)> =
        sv_slab.iter().map(|&s| slabs.device_group(s, ids.len())).collect();
    (ShardPlan::balanced_within(costs, ids.len(), &allowed), ids)
}

/// Price every SV's plan as a one-SV batch through the work model —
/// the deterministic per-SV cost the shard is balanced by.
pub fn sv_costs(
    model: &GpuWorkModel,
    skeleton: &ProfileSkeleton,
    plans: &SvPlanSet,
    opts: &GpuOptions,
    num_channels: usize,
) -> Vec<f64> {
    plans
        .plans()
        .iter()
        .map(|plan| {
            let tally = BatchTally { svs: vec![sv_tally(plan, opts)] };
            model.batch(skeleton, &tally, num_channels, None).seconds()
        })
        .collect()
}

/// A synthetic full-visit tally for one SV: what a batch containing
/// the SV would tally if every voxel updated (no zero-skips) — the
/// setup-time stand-in for per-iteration work.
fn sv_tally(plan: &SvPlan, opts: &GpuOptions) -> SvTally {
    let mut t = SvTally {
        sv: plan.sv,
        updates: plan.voxels().len() as u64,
        svb_bytes: plan.svb_bytes,
        band_width: plan.band_width,
        max_block_share: 1.0 / opts.threadblocks_per_sv as f64,
        ..Default::default()
    };
    for vp in plan.voxels() {
        t.nnz += vp.nnz as f64;
        t.dense += vp.dense as f64;
        t.descriptors += vp.descriptors as f64;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::plan_config;
    use ct_core::geometry::Geometry;
    use ct_core::sysmat::SystemMatrix;
    use mbir_fleet::FleetSpec;

    fn cluster_state(cluster: ClusterSpec) -> (FleetState, usize) {
        let g = Geometry::tiny_scale();
        let a = SystemMatrix::compute(&g);
        let opts =
            GpuOptions { sv_side: 6, devices: cluster.total_devices(), ..Default::default() };
        let tiling = Tiling::new(g.grid, opts.sv_side);
        let plans = SvPlanSet::build(&a, &tiling, plan_config(&opts), 1);
        let model = GpuWorkModel::titan_x();
        let skeleton = model.skeleton(&opts);
        let fs =
            FleetState::new(&model, &skeleton, &plans, &tiling, &opts, g.num_channels, cluster);
        (fs, tiling.len())
    }

    fn state(devices: usize) -> (FleetState, usize) {
        cluster_state(ClusterSpec::single_node(FleetSpec::titan_x_pcie(devices)))
    }

    fn cluster(nodes: usize, dpn: usize, slabs: usize) -> (FleetState, usize) {
        cluster_state(ClusterSpec::titan_x_cluster(nodes, dpn).with_slabs(slabs))
    }

    #[test]
    fn shard_covers_every_sv() {
        let (fs, n) = state(3);
        assert_eq!(fs.shard().svs(), n);
        assert!((0..n).all(|sv| fs.shard().device_of(sv) < 3));
        assert!((0..3).all(|d| fs.shard().load(d) > 0.0), "every device gets work");
    }

    #[test]
    fn payloads_are_positive_and_per_sv() {
        let (fs, n) = state(2);
        assert_eq!(fs.payload_bytes.len(), n);
        assert!(fs.payload_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn one_slab_shards_exactly_like_the_unconstrained_planner() {
        // The identity the equivalence suites lean on: a one-slab
        // cluster (every flat fleet) replays ShardPlan::balanced
        // bitwise — same visit order, same tie-breaks.
        let (fs, n) = cluster(1, 3, 1);
        let flat = ShardPlan::balanced(&fs.costs, 3);
        assert!((0..n).all(|sv| fs.shard().device_of(sv) == flat.device_of(sv)));
        assert!(fs.seam_bytes.iter().all(|&b| b == 0), "one slab has no seams");
        assert!(fs.sv_slab.iter().all(|&s| s == 0));
        assert!(fs.residency().is_empty(), "one-slab checkpoints carry no trailer");
    }

    #[test]
    fn kill_reshards_all_svs_over_survivors() {
        let (mut fs, n) = state(3);
        assert_eq!(fs.live_devices(), 3);
        fs.kill(1);
        assert_eq!(fs.live_devices(), 2);
        assert!(!fs.live[1]);
        assert_eq!(fs.device_ids, vec![0, 2], "slots map to the survivors");
        assert_eq!(fs.shard().svs(), n, "every SV still owned");
        // The new plan is the same LPT partition a 2-device fleet
        // would have been given from the start.
        let two = ShardPlan::balanced(&fs.costs, 2);
        for sv in 0..n {
            let d = fs.device_of(sv);
            assert!(d == 0 || d == 2, "sv {sv} owned by dead device {d}");
            assert_eq!(fs.shard().device_of(sv), two.device_of(sv));
        }
    }

    #[test]
    #[should_panic(expected = "already dead")]
    fn double_kill_is_a_bug() {
        let (mut fs, _) = state(2);
        fs.kill(0);
        fs.kill(0);
    }

    #[test]
    fn cluster_shard_stays_inside_each_svs_slab_group() {
        let (fs, n) = cluster(2, 2, 2);
        let plan = SlabPlan::new(4, 2); // tiny_scale @ sv_side 6: 4 SV rows
        for sv in 0..n {
            let (lo, hi) = plan.device_group(fs.sv_slab[sv], 4);
            let d = fs.device_of(sv);
            assert!(d >= lo && d < hi, "sv {sv} (slab {}) on device {d}", fs.sv_slab[sv]);
        }
        // Middle rows flank the slab seam and carry halo bytes; the
        // outer rows do not.
        assert!((0..n).any(|sv| fs.seam_bytes[sv] > 0));
        assert!((0..n).any(|sv| fs.seam_bytes[sv] == 0));
    }

    #[test]
    fn kill_rederives_slab_groups_over_the_survivors() {
        // 2x2, two slabs; device 2 (node 1's leader) dies. The three
        // survivors become slots 0, 1, 2 in ascending id order, the
        // slab groups are re-derived over three slots — slab 0 on slot
        // 0, slab 1 on slots 1 and 2 — and every SV lands inside its
        // slab's group on a live device.
        let (mut fs, n) = cluster(2, 2, 2);
        fs.kill(2);
        assert_eq!(fs.device_ids, vec![0, 1, 3]);
        for sv in 0..n {
            let slot = fs.shard().device_of(sv);
            let (lo, hi) = fs.slabs.device_group(fs.sv_slab[sv], 3);
            assert!(lo <= slot && slot < hi, "sv {sv}: slot {slot} outside {lo}..{hi}");
            assert_ne!(fs.device_of(sv), 2);
        }
        assert!((0..n).any(|sv| fs.device_of(sv) == 1 && fs.sv_slab[sv] == 1));
    }

    #[test]
    fn slab_bytes_split_the_modeled_footprint() {
        let (one, _) = cluster(2, 2, 1);
        let (four, _) = cluster(2, 2, 4);
        let whole = one.streamer.slab_bytes();
        let quarter = four.streamer.slab_bytes();
        assert!(whole > 0);
        assert_eq!(quarter, whole / 4);
        assert_eq!(four.residency(), vec![NO_SLAB; 4], "nothing resident before the first batch");
    }

    #[test]
    fn costs_reflect_ragged_edges() {
        // tiny_scale's grid does not divide evenly by side 6, so edge
        // tiles are clipped and must cost less than interior tiles.
        let (fs, _) = state(2);
        let min = fs.costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = fs.costs.iter().cloned().fold(0.0f64, f64::max);
        assert!(min > 0.0);
        assert!(max > min, "clipped edge tiles should be cheaper than interior tiles");
    }
}
