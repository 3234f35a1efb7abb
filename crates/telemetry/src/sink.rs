//! The [`ProfileSink`] trait and its record types.

use crate::report::ProfileReport;
use serde::Serialize;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-launch context the driver knows and the timing model does not:
/// which iteration and SV batch a launch belongs to, where it starts
/// on the modeled timeline, and the modeled texture-path hit rate of
/// its A-matrix reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchCtx {
    /// Simulated device the launch runs on (0 for single-device runs).
    pub device: u64,
    /// 1-based outer iteration number.
    pub iteration: u64,
    /// 0-based SV batch sequence number (global across the run).
    pub batch: u64,
    /// Modeled start time of the launch, seconds from run start.
    pub start_seconds: f64,
    /// SuperVoxels in the batch.
    pub svs: u64,
    /// Modeled texture/L1 hit rate of the kernel's texture-path reads
    /// (0 when the kernel reads nothing through the texture path).
    pub tex_hit_rate: f64,
}

/// One modeled kernel launch. Byte totals are post-coalescing; the
/// transaction counts divide them into 32-byte sectors; per-level
/// hit/miss counts follow the modeled hit rates (L2 misses are exactly
/// the sectors that reach DRAM).
#[derive(Debug, Clone, Default, Serialize)]
pub struct KernelSpan {
    /// Kernel name (`svb_create`, `mbir_update`, `error_writeback`,
    /// `psv_iteration`).
    pub kernel: String,
    /// Simulated device the launch ran on (0 for single-device runs).
    pub device: u64,
    /// 1-based outer iteration the launch belongs to.
    pub iteration: u64,
    /// 0-based SV batch sequence number (global across the run).
    pub batch: u64,
    /// SuperVoxels in the batch.
    pub svs: u64,
    /// Modeled start time, seconds from run start.
    pub start_seconds: f64,
    /// Modeled duration, seconds (includes launch overhead).
    pub seconds: f64,
    /// Modeled duration in GPU core cycles.
    pub cycles: f64,
    /// Occupancy achieved.
    pub occupancy: f64,
    /// Block-slot utilization of the launch (1 = no idle slots).
    pub utilization: f64,
    /// Blocks launched.
    pub blocks: u64,
    /// Warp instructions issued.
    pub instructions: f64,
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved between SMMs and L2 (plus texture misses that
    /// continue to L2).
    pub l2_bytes: f64,
    /// Bytes read through the unified L1/texture path.
    pub tex_bytes: f64,
    /// Bytes that miss L2 and reach DRAM.
    pub dram_bytes: f64,
    /// Bytes moved to/from shared memory.
    pub shared_bytes: f64,
    /// Global atomic operations issued.
    pub atomics: f64,
    /// 32-byte sectors presented to L2.
    pub l2_transactions: u64,
    /// 32-byte sectors read through the texture path.
    pub tex_transactions: u64,
    /// Texture/L1 sector hits.
    pub l1_hits: u64,
    /// Texture/L1 sector misses (cascade into L2).
    pub l1_misses: u64,
    /// L2 sector hits.
    pub l2_hits: u64,
    /// L2 sector misses (reach DRAM).
    pub l2_misses: u64,
    /// Modeled texture/L1 hit rate of this launch.
    pub tex_hit_rate: f64,
    /// Modeled L2 hit rate of this launch.
    pub l2_hit_rate: f64,
}

/// Per-iteration telemetry (convergence progress and work counters).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct IterationSample {
    /// 1-based iteration number.
    pub iter: u64,
    /// SVs selected (before any batch threshold).
    pub svs_selected: u64,
    /// SVs actually updated.
    pub svs_updated: u64,
    /// Kernel batches launched.
    pub batches: u64,
    /// Voxel updates performed.
    pub updates: u64,
    /// Voxel visits zero-skipped.
    pub skipped: u64,
    /// Sum of |delta| over this iteration's updates (HU-free mu units).
    pub abs_delta: f64,
    /// Modeled seconds for this iteration.
    pub modeled_seconds: f64,
    /// Cumulative equits of work after this iteration.
    pub equits: f64,
}

/// One injected-fault or recovery event on the modeled fleet
/// timeline (schema v3). Fault records are observe-only, like every
/// other telemetry record: the functional reconstruction is bitwise
/// identical with or without injected faults — only the modeled
/// timeline (and this lane of the profile) changes.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRecord {
    /// Event kind: `device_failure`, `straggler`, `degraded_link`, or
    /// `recovery`.
    pub kind: String,
    /// Affected device, when the event is device-scoped (`None` for
    /// fabric-wide events such as a degraded interconnect).
    pub device: Option<u64>,
    /// 1-based outer iteration during which the event fired.
    pub iteration: u64,
    /// 0-based global SV-batch sequence number the event fired at.
    pub batch: u64,
    /// Modeled start time of the event, seconds from run start.
    pub start_seconds: f64,
    /// Modeled seconds the event added to the fleet timeline (backoff
    /// plus retry for a recovery; 0 for marker events).
    pub duration_seconds: f64,
    /// Human-readable description (slowdown factor, reshard summary).
    pub detail: String,
}

/// One job-lifecycle event on the serve layer's shared timeline
/// (schema v5). Like faults, job records are observe-only: they narrate
/// scheduling (admission, leases, preemption) without feeding anything
/// back into the reconstructions themselves.
#[derive(Debug, Clone, Serialize)]
pub struct JobRecord {
    /// Job id, unique within one serve run.
    pub job: String,
    /// Tenant the job bills to.
    pub tenant: String,
    /// Event kind: `submitted`, `rejected`, `ingest_complete`,
    /// `started`, `preempted`, `resumed`, or `completed`.
    pub event: String,
    /// Modeled time of the event on the shared serve timeline, seconds.
    pub start_seconds: f64,
    /// Modeled seconds the event spans (ingest duration for
    /// `ingest_complete`, arrival-to-completion latency for
    /// `completed`; 0 for marker events).
    pub duration_seconds: f64,
    /// Devices leased to the job at the event (0 when not running).
    pub devices: u64,
    /// Job priority (higher preempts lower).
    pub priority: i64,
    /// Human-readable description (lease ids, rejection reason).
    pub detail: String,
}

/// One cluster-exchange or slab-streaming event on the modeled fleet
/// timeline (schema v6). The topology layer emits one record per
/// hierarchical-reduce phase (per node for the concurrent phases) and
/// per slab transfer; like every other lane these are observe-only —
/// the reconstruction is bitwise identical with or without them.
#[derive(Debug, Clone, Serialize)]
pub struct ExchangeRecord {
    /// Phase kind: `intra_gather`, `inter_exchange`, `intra_broadcast`,
    /// `slab_load`, or `seam_halo`.
    pub phase: String,
    /// Node the phase ran on, for node-scoped phases (`None` for the
    /// inter-node exchange and for fleet-wide slab/seam transfers).
    pub node: Option<u64>,
    /// 1-based outer iteration the exchange belongs to.
    pub iteration: u64,
    /// 0-based global SV-batch sequence number.
    pub batch: u64,
    /// Modeled start time of the phase, seconds from run start.
    pub start_seconds: f64,
    /// Modeled seconds the phase spans on the fleet timeline.
    pub duration_seconds: f64,
    /// Bytes the phase moved, every link crossing counted.
    pub bytes: u64,
}

/// One convergence-trace sample: a golden-stopped run records one before
/// its first iteration and one after each.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ConvergencePoint {
    /// Iterations completed when the sample was taken.
    pub iter: u64,
    /// Cumulative equits of work.
    pub equits: f64,
    /// Cumulative modeled seconds.
    pub seconds: f64,
    /// RMSE against the golden image, HU.
    pub rmse_hu: f64,
}

/// Observer for profiling events. All methods default to no-ops so a
/// sink implements only what it needs; implementations must not feed
/// anything back into the computation (profiled and unprofiled runs
/// are asserted bitwise identical).
pub trait ProfileSink: Send + Sync {
    /// One modeled kernel launch completed.
    fn kernel(&self, _span: &KernelSpan) {}

    /// One outer iteration completed.
    fn iteration(&self, _sample: &IterationSample) {}

    /// One convergence-trace sample was recorded.
    fn convergence(&self, _point: &ConvergencePoint) {}

    /// One fault or recovery event landed on the modeled timeline.
    fn fault(&self, _record: &FaultRecord) {}

    /// One job-lifecycle event landed on the serve timeline.
    fn job(&self, _record: &JobRecord) {}

    /// One cluster-exchange phase or slab transfer landed on the
    /// modeled timeline.
    fn exchange(&self, _record: &ExchangeRecord) {}
}

/// The no-op sink: profiling plumbing with zero recording cost, used
/// by the overhead benchmark to price the sink indirection itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl ProfileSink for NullSink {}

#[derive(Debug, Default)]
struct Recorded {
    spans: Vec<KernelSpan>,
    iterations: Vec<IterationSample>,
    convergence: Vec<ConvergencePoint>,
    faults: Vec<FaultRecord>,
    jobs: Vec<JobRecord>,
    exchanges: Vec<ExchangeRecord>,
}

/// An in-memory sink recording every event, aggregated on demand into
/// a [`ProfileReport`]. Interior mutability via a `Mutex` keeps the
/// trait object `Send + Sync`; the drivers emit from one thread, so
/// the lock is uncontended.
#[derive(Debug, Default)]
pub struct RecordingSink {
    inner: Mutex<Recorded>,
}

impl RecordingSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the lock, recovering from poisoning. A worker that panics
    /// while holding the lock leaves the data structurally intact
    /// (every critical section is a single `push` or a read), so the
    /// panic must not cascade into a second panic in every later
    /// reader — a long-running server would turn that into an outage.
    fn lock(&self) -> MutexGuard<'_, Recorded> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Recorded kernel spans, in emission order.
    pub fn spans(&self) -> Vec<KernelSpan> {
        self.lock().spans.clone()
    }

    /// Recorded iteration samples, in emission order.
    pub fn iterations(&self) -> Vec<IterationSample> {
        self.lock().iterations.clone()
    }

    /// Recorded convergence points, in emission order.
    pub fn convergence(&self) -> Vec<ConvergencePoint> {
        self.lock().convergence.clone()
    }

    /// Recorded fault/recovery events, in emission order.
    pub fn faults(&self) -> Vec<FaultRecord> {
        self.lock().faults.clone()
    }

    /// Recorded job-lifecycle events, in emission order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.lock().jobs.clone()
    }

    /// Recorded exchange-phase and slab-transfer events, in emission
    /// order.
    pub fn exchanges(&self) -> Vec<ExchangeRecord> {
        self.lock().exchanges.clone()
    }

    /// Aggregate everything recorded so far into a report.
    pub fn report(&self, name: &str) -> ProfileReport {
        let r = self.lock();
        ProfileReport::from_parts(
            name,
            r.spans.clone(),
            r.iterations.clone(),
            r.convergence.clone(),
            r.faults.clone(),
            r.jobs.clone(),
            r.exchanges.clone(),
        )
    }
}

impl ProfileSink for RecordingSink {
    fn kernel(&self, span: &KernelSpan) {
        self.lock().spans.push(span.clone());
    }

    fn iteration(&self, sample: &IterationSample) {
        self.lock().iterations.push(*sample);
    }

    fn convergence(&self, point: &ConvergencePoint) {
        self.lock().convergence.push(*point);
    }

    fn fault(&self, record: &FaultRecord) {
        self.lock().faults.push(record.clone());
    }

    fn job(&self, record: &JobRecord) {
        self.lock().jobs.push(record.clone());
    }

    fn exchange(&self, record: &ExchangeRecord) {
        self.lock().exchanges.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kernel: &str, seconds: f64) -> KernelSpan {
        KernelSpan {
            kernel: kernel.into(),
            device: 0,
            iteration: 1,
            batch: 0,
            svs: 4,
            start_seconds: 0.0,
            seconds,
            cycles: seconds * 1e9,
            occupancy: 0.5,
            utilization: 0.9,
            blocks: 8,
            instructions: 100.0,
            flops: 200.0,
            l2_bytes: 3200.0,
            tex_bytes: 640.0,
            dram_bytes: 320.0,
            shared_bytes: 0.0,
            atomics: 10.0,
            l2_transactions: 100,
            tex_transactions: 20,
            l1_hits: 12,
            l1_misses: 8,
            l2_hits: 90,
            l2_misses: 10,
            tex_hit_rate: 0.6,
            l2_hit_rate: 0.9,
        }
    }

    #[test]
    fn recording_sink_accumulates() {
        let s = RecordingSink::new();
        s.kernel(&span("mbir_update", 1e-3));
        s.kernel(&span("svb_create", 2e-3));
        s.iteration(&IterationSample {
            iter: 1,
            svs_selected: 4,
            svs_updated: 4,
            batches: 1,
            updates: 100,
            skipped: 0,
            abs_delta: 1.0,
            modeled_seconds: 3e-3,
            equits: 0.5,
        });
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.iterations().len(), 1);
        let report = s.report("test");
        assert_eq!(report.kernels.len(), 2);
        assert!((report.totals.seconds - 3e-3).abs() < 1e-15);
    }

    #[test]
    fn null_sink_is_inert() {
        let s = NullSink;
        s.kernel(&span("mbir_update", 1e-3));
        // Nothing to assert beyond "it compiles and does nothing".
    }

    #[test]
    fn job_records_accumulate_and_reach_the_report() {
        let s = RecordingSink::new();
        s.job(&JobRecord {
            job: "j0".into(),
            tenant: "clinic-a".into(),
            event: "submitted".into(),
            start_seconds: 0.0,
            duration_seconds: 0.0,
            devices: 0,
            priority: 1,
            detail: String::new(),
        });
        s.job(&JobRecord {
            job: "j0".into(),
            tenant: "clinic-a".into(),
            event: "completed".into(),
            start_seconds: 2.5,
            duration_seconds: 2.5,
            devices: 2,
            priority: 1,
            detail: "lease [0, 1]".into(),
        });
        assert_eq!(s.jobs().len(), 2);
        let report = s.report("serve");
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.totals.jobs, 1, "one job completed");
    }

    #[test]
    fn exchange_records_accumulate_and_reach_the_report() {
        let s = RecordingSink::new();
        s.exchange(&ExchangeRecord {
            phase: "intra_gather".into(),
            node: Some(0),
            iteration: 1,
            batch: 0,
            start_seconds: 0.0,
            duration_seconds: 1e-5,
            bytes: 4096,
        });
        s.exchange(&ExchangeRecord {
            phase: "inter_exchange".into(),
            node: None,
            iteration: 1,
            batch: 0,
            start_seconds: 1e-5,
            duration_seconds: 5e-5,
            bytes: 8192,
        });
        assert_eq!(s.exchanges().len(), 2);
        let report = s.report("cluster");
        assert_eq!(report.exchanges.len(), 2);
        assert_eq!(report.totals.exchanges, 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let s = RecordingSink::new();
        s.kernel(&span("mbir_update", 1e-3));
        // Poison the mutex: panic while holding the guard, the way a
        // panicking worker mid-record would.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = s.inner.lock().unwrap();
            panic!("worker died mid-record");
        }));
        assert!(result.is_err());
        assert!(s.inner.is_poisoned());
        // Every accessor and further recording must keep working.
        s.kernel(&span("svb_create", 2e-3));
        assert_eq!(s.spans().len(), 2);
        assert!(s.iterations().is_empty());
        assert!(s.convergence().is_empty());
        assert!(s.faults().is_empty());
        assert!(s.jobs().is_empty());
        assert!(s.exchanges().is_empty());
        let report = s.report("after-poison");
        assert_eq!(report.kernels.len(), 2);
    }
}
