//! Aggregation of recorded telemetry into a structured JSON report.

use crate::sink::{
    ConvergencePoint, ExchangeRecord, FaultRecord, IterationSample, JobRecord, KernelSpan,
};
use serde::Serialize;

/// Schema version stamped into every report (bump when the report
/// shape changes; `schemas/profile.schema.json` tracks it).
/// v2: kernel spans carry a `device` id and are ordered by
/// (start time, device) rather than raw emission order.
/// v3: reports carry a `faults` lane (injected fault / recovery
/// events on the modeled fleet timeline) and `totals.faults`.
/// v4: reports carry a `backend` field naming the SIMD lane backend
/// ("scalar" or "lanes") the run resolved to — a speed label only,
/// since every backend produces bitwise-identical results.
/// v5: reports carry a `jobs` lane (job-lifecycle events on the serve
/// layer's shared timeline: submission, admission, leases, preemption,
/// completion) and `totals.jobs` counting completed jobs.
/// v6: reports carry an `exchanges` lane (cluster data-movement phases
/// on the modeled timeline: hierarchical-reduce phases, slab streaming
/// loads, seam halos) and `totals.exchanges` counting the records.
pub const SCHEMA_VERSION: u64 = 6;

/// Per-kernel-class aggregate over every launch of that kernel — the
/// run-level analogue of the paper's Table 2/3 counter columns.
#[derive(Debug, Clone, Serialize)]
pub struct KernelClassAgg {
    /// Kernel name.
    pub kernel: String,
    /// Launches aggregated.
    pub launches: u64,
    /// Total modeled seconds.
    pub seconds: f64,
    /// Total modeled cycles.
    pub cycles: f64,
    /// Total blocks launched.
    pub blocks: u64,
    /// Total warp instructions.
    pub instructions: f64,
    /// Total FLOPs.
    pub flops: f64,
    /// Total L2 bytes.
    pub l2_bytes: f64,
    /// Total texture-path bytes.
    pub tex_bytes: f64,
    /// Total DRAM bytes.
    pub dram_bytes: f64,
    /// Total shared-memory bytes.
    pub shared_bytes: f64,
    /// Total atomics.
    pub atomics: f64,
    /// Total 32-byte sectors presented to L2.
    pub l2_transactions: u64,
    /// Total 32-byte sectors through the texture path.
    pub tex_transactions: u64,
    /// Texture/L1 sector hits.
    pub l1_hits: u64,
    /// Texture/L1 sector misses.
    pub l1_misses: u64,
    /// L2 sector hits.
    pub l2_hits: u64,
    /// L2 sector misses.
    pub l2_misses: u64,
    /// Launch-weighted texture/L1 hit rate (hits / transactions).
    pub tex_hit_rate: f64,
    /// Launch-weighted L2 hit rate (hits / transactions).
    pub l2_hit_rate: f64,
    /// Time-averaged achieved L2 bandwidth, GB/s.
    pub l2_gbps: f64,
    /// Time-averaged achieved texture-path bandwidth, GB/s.
    pub tex_gbps: f64,
    /// Time-averaged achieved DRAM bandwidth, GB/s.
    pub dram_gbps: f64,
    /// Mean occupancy across launches.
    pub occupancy: f64,
}

/// Whole-run totals.
#[derive(Debug, Clone, Copy, Serialize, Default)]
pub struct Totals {
    /// Total modeled seconds across all kernel launches, summed in a
    /// driver clock's grouping (see [`clock_seconds`]): a one-device
    /// run's total equals its driver's modeled seconds bit for bit.
    pub seconds: f64,
    /// Total kernel launches.
    pub launches: u64,
    /// Total outer iterations sampled.
    pub iterations: u64,
    /// Total DRAM bytes moved.
    pub dram_bytes: f64,
    /// Total L2 bytes moved.
    pub l2_bytes: f64,
    /// Total texture-path bytes moved.
    pub tex_bytes: f64,
    /// Final equits of work (last iteration sample), if any.
    pub final_equits: Option<f64>,
    /// Final RMSE in HU (last convergence point), if any.
    pub final_rmse_hu: Option<f64>,
    /// Injected fault / recovery events recorded during the run.
    pub faults: u64,
    /// Jobs completed during the run (serve-layer runs only).
    pub jobs: u64,
    /// Cluster data-movement records (cluster runs only).
    pub exchanges: u64,
}

/// The structured profiling report: spans, per-class aggregates,
/// per-iteration telemetry, and the convergence trace.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileReport {
    /// Report schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Run label (algorithm / scale, chosen by the producer).
    pub name: String,
    /// Resolved SIMD lane backend the process ran with ("scalar" or
    /// "lanes"). Purely informational: backends are bitwise-identical.
    pub backend: String,
    /// Per-kernel-class aggregates, in order of first appearance.
    pub kernels: Vec<KernelClassAgg>,
    /// Every recorded kernel launch, ordered by modeled start time
    /// (device id breaking ties).
    pub spans: Vec<KernelSpan>,
    /// Per-iteration telemetry.
    pub iterations: Vec<IterationSample>,
    /// Convergence trace (empty unless the run recorded one).
    pub convergence: Vec<ConvergencePoint>,
    /// Fault / recovery events on the modeled fleet timeline, ordered
    /// by start time (empty for healthy runs).
    pub faults: Vec<FaultRecord>,
    /// Job-lifecycle events on the serve timeline, ordered by start
    /// time with job id as the tiebreak (empty outside serve runs).
    pub jobs: Vec<JobRecord>,
    /// Cluster data-movement phases on the modeled timeline, ordered
    /// by start time with (batch, node) as the tiebreak (empty outside
    /// cluster runs).
    pub exchanges: Vec<ExchangeRecord>,
    /// Whole-run totals.
    pub totals: Totals,
}

impl ProfileReport {
    /// Build a report from raw recorded parts.
    ///
    /// Spans are stable-sorted by modeled start time with device id as
    /// the tiebreak, so reports merged from per-device emission streams
    /// come out in one deterministic order regardless of which host
    /// worker recorded first. Single-device streams emit spans
    /// back-to-back in start-time order already, making the sort a
    /// no-op there.
    pub fn from_parts(
        name: &str,
        mut spans: Vec<KernelSpan>,
        iterations: Vec<IterationSample>,
        convergence: Vec<ConvergencePoint>,
        mut faults: Vec<FaultRecord>,
        mut jobs: Vec<JobRecord>,
        mut exchanges: Vec<ExchangeRecord>,
    ) -> ProfileReport {
        faults.sort_by(|a, b| {
            a.start_seconds.total_cmp(&b.start_seconds).then(a.batch.cmp(&b.batch))
        });
        jobs.sort_by(|a, b| a.start_seconds.total_cmp(&b.start_seconds).then(a.job.cmp(&b.job)));
        exchanges.sort_by(|a, b| {
            a.start_seconds
                .total_cmp(&b.start_seconds)
                .then(a.batch.cmp(&b.batch))
                .then(a.node.cmp(&b.node))
        });
        spans.sort_by(|a, b| {
            a.start_seconds.total_cmp(&b.start_seconds).then(a.device.cmp(&b.device))
        });
        let mut kernels: Vec<KernelClassAgg> = Vec::new();
        for s in &spans {
            let agg = match kernels.iter_mut().find(|k| k.kernel == s.kernel) {
                Some(k) => k,
                None => {
                    kernels.push(KernelClassAgg {
                        kernel: s.kernel.clone(),
                        launches: 0,
                        seconds: 0.0,
                        cycles: 0.0,
                        blocks: 0,
                        instructions: 0.0,
                        flops: 0.0,
                        l2_bytes: 0.0,
                        tex_bytes: 0.0,
                        dram_bytes: 0.0,
                        shared_bytes: 0.0,
                        atomics: 0.0,
                        l2_transactions: 0,
                        tex_transactions: 0,
                        l1_hits: 0,
                        l1_misses: 0,
                        l2_hits: 0,
                        l2_misses: 0,
                        tex_hit_rate: 0.0,
                        l2_hit_rate: 0.0,
                        l2_gbps: 0.0,
                        tex_gbps: 0.0,
                        dram_gbps: 0.0,
                        occupancy: 0.0,
                    });
                    kernels.last_mut().unwrap()
                }
            };
            agg.launches += 1;
            agg.seconds += s.seconds;
            agg.cycles += s.cycles;
            agg.blocks += s.blocks;
            agg.instructions += s.instructions;
            agg.flops += s.flops;
            agg.l2_bytes += s.l2_bytes;
            agg.tex_bytes += s.tex_bytes;
            agg.dram_bytes += s.dram_bytes;
            agg.shared_bytes += s.shared_bytes;
            agg.atomics += s.atomics;
            agg.l2_transactions += s.l2_transactions;
            agg.tex_transactions += s.tex_transactions;
            agg.l1_hits += s.l1_hits;
            agg.l1_misses += s.l1_misses;
            agg.l2_hits += s.l2_hits;
            agg.l2_misses += s.l2_misses;
            agg.occupancy += s.occupancy; // mean finalized below
        }
        let ratio = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        let gbps = |bytes: f64, secs: f64| if secs > 0.0 { bytes / secs / 1e9 } else { 0.0 };
        for k in &mut kernels {
            k.tex_hit_rate = ratio(k.l1_hits, k.tex_transactions);
            k.l2_hit_rate = ratio(k.l2_hits, k.l2_transactions);
            k.l2_gbps = gbps(k.l2_bytes, k.seconds);
            k.tex_gbps = gbps(k.tex_bytes, k.seconds);
            k.dram_gbps = gbps(k.dram_bytes, k.seconds);
            if k.launches > 0 {
                k.occupancy /= k.launches as f64;
            }
        }

        let totals = Totals {
            seconds: clock_seconds(&spans),
            launches: spans.len() as u64,
            iterations: iterations.len() as u64,
            dram_bytes: spans.iter().map(|s| s.dram_bytes).sum(),
            l2_bytes: spans.iter().map(|s| s.l2_bytes).sum(),
            tex_bytes: spans.iter().map(|s| s.tex_bytes).sum(),
            final_equits: iterations.last().map(|i| i.equits),
            final_rmse_hu: convergence.last().map(|c| c.rmse_hu),
            faults: faults.len() as u64,
            jobs: jobs.iter().filter(|j| j.event == "completed").count() as u64,
            exchanges: exchanges.len() as u64,
        };

        ProfileReport {
            schema_version: SCHEMA_VERSION,
            name: name.to_string(),
            backend: mbir_simd::active().name().to_string(),
            kernels,
            spans,
            iterations,
            convergence,
            faults,
            jobs,
            exchanges,
            totals,
        }
    }

    /// A kernel-class aggregate by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelClassAgg> {
        self.kernels.iter().find(|k| k.kernel == name)
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("value-tree serialization cannot fail")
    }
}

/// The modeled seconds of `spans`, in report order, summed the way a
/// driver's clock sums them: each batch's launches in order (GPU-ICD's
/// `(create + mbir) + writeback`), then each iteration's batches, then
/// the iterations. Consecutive spans sharing `(device, iteration,
/// batch)` are one batch. A flat launch-order sum rounds differently,
/// so it strays from the driver's clock in the last bits.
fn clock_seconds(spans: &[KernelSpan]) -> f64 {
    let (mut total, mut iteration, mut batch) = (0.0, 0.0, 0.0);
    let mut prev: Option<(u64, u64, u64)> = None;
    for s in spans {
        let key = (s.device, s.iteration, s.batch);
        if let Some(p) = prev.filter(|&p| p != key) {
            iteration += batch;
            batch = 0.0;
            if p.1 != s.iteration {
                total += iteration;
                iteration = 0.0;
            }
        }
        batch += s.seconds;
        prev = Some(key);
    }
    total + (iteration + batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kernel: &str, seconds: f64, tex_tx: u64, l1_hits: u64) -> KernelSpan {
        KernelSpan {
            kernel: kernel.into(),
            device: 0,
            iteration: 1,
            batch: 0,
            svs: 2,
            start_seconds: 0.0,
            seconds,
            cycles: 1.0,
            occupancy: 0.5,
            utilization: 1.0,
            blocks: 4,
            instructions: 1.0,
            flops: 1.0,
            l2_bytes: 64.0,
            tex_bytes: tex_tx as f64 * 32.0,
            dram_bytes: 32.0,
            shared_bytes: 0.0,
            atomics: 0.0,
            l2_transactions: 2,
            tex_transactions: tex_tx,
            l1_hits,
            l1_misses: tex_tx - l1_hits,
            l2_hits: 1,
            l2_misses: 1,
            tex_hit_rate: 0.0,
            l2_hit_rate: 0.5,
        }
    }

    #[test]
    fn aggregates_by_kernel_class() {
        let spans = vec![
            span("mbir_update", 1.0, 10, 6),
            span("mbir_update", 1.0, 10, 6),
            span("svb_create", 0.5, 0, 0),
        ];
        let r = ProfileReport::from_parts(
            "t",
            spans,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(r.kernels.len(), 2);
        let mbir = r.kernel("mbir_update").unwrap();
        assert_eq!(mbir.launches, 2);
        assert_eq!(mbir.tex_transactions, 20);
        assert!((mbir.tex_hit_rate - 0.6).abs() < 1e-12);
        assert!((mbir.l2_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(r.totals.launches, 3);
        assert!((r.totals.seconds - 2.5).abs() < 1e-12);
        assert_eq!(r.totals.final_rmse_hu, None);
    }

    #[test]
    fn empty_report_is_well_formed() {
        let r = ProfileReport::from_parts(
            "empty",
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        assert!(r.kernels.is_empty());
        assert_eq!(r.totals.seconds, 0.0);
        assert_eq!(r.totals.faults, 0);
        assert_eq!(r.totals.exchanges, 0);
        // Zero-division edges must stay finite all the way to JSON.
        let s = r.to_json_pretty();
        assert!(s.contains("\"schema_version\": 6"));
        // Reports name the SIMD backend they resolved to.
        assert!(s.contains("\"backend\": \"scalar\"") || s.contains("\"backend\": \"lanes\""));
    }

    #[test]
    fn faults_sort_by_start_then_batch_and_count_into_totals() {
        use crate::sink::FaultRecord;
        let mk = |kind: &str, batch: u64, start: f64| FaultRecord {
            kind: kind.into(),
            device: Some(1),
            iteration: 1,
            batch,
            start_seconds: start,
            duration_seconds: 0.0,
            detail: String::new(),
        };
        let faults =
            vec![mk("recovery", 3, 0.2), mk("device_failure", 3, 0.1), mk("straggler", 1, 0.1)];
        let r = ProfileReport::from_parts(
            "t",
            Vec::new(),
            Vec::new(),
            Vec::new(),
            faults,
            Vec::new(),
            Vec::new(),
        );
        let order: Vec<(String, u64)> =
            r.faults.iter().map(|f| (f.kind.clone(), f.batch)).collect();
        assert_eq!(
            order,
            [
                ("straggler".to_string(), 1),
                ("device_failure".to_string(), 3),
                ("recovery".to_string(), 3)
            ]
        );
        assert_eq!(r.totals.faults, 3);
    }

    #[test]
    fn exchanges_sort_by_start_then_batch_then_node_and_count_into_totals() {
        use crate::sink::ExchangeRecord;
        let mk = |phase: &str, node: Option<u64>, batch: u64, start: f64| ExchangeRecord {
            phase: phase.into(),
            node,
            iteration: 1,
            batch,
            start_seconds: start,
            duration_seconds: 1e-6,
            bytes: 64,
        };
        let exchanges = vec![
            mk("intra_broadcast", Some(1), 0, 0.3),
            mk("intra_broadcast", Some(0), 0, 0.3),
            mk("inter_exchange", None, 0, 0.2),
            mk("intra_gather", Some(0), 0, 0.1),
        ];
        let r = ProfileReport::from_parts(
            "t",
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            exchanges,
        );
        let order: Vec<(String, Option<u64>)> =
            r.exchanges.iter().map(|x| (x.phase.clone(), x.node)).collect();
        assert_eq!(
            order,
            [
                ("intra_gather".to_string(), Some(0)),
                ("inter_exchange".to_string(), None),
                ("intra_broadcast".to_string(), Some(0)),
                ("intra_broadcast".to_string(), Some(1)),
            ]
        );
        assert_eq!(r.totals.exchanges, 4);
    }

    #[test]
    fn merged_spans_sort_by_start_then_device() {
        // Interleave two devices' emission streams out of order, as a
        // multi-threaded fleet run would: the report must come out in
        // one deterministic order either way.
        let mk = |device: u64, start: f64| {
            let mut s = span("mbir_update", 0.1, 0, 0);
            s.device = device;
            s.start_seconds = start;
            s
        };
        let a = vec![mk(1, 0.2), mk(0, 0.1), mk(1, 0.1), mk(0, 0.2)];
        let mut b = a.clone();
        b.reverse();
        let ra = ProfileReport::from_parts(
            "t",
            a,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let rb = ProfileReport::from_parts(
            "t",
            b,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        let order: Vec<(u64, f64)> = ra.spans.iter().map(|s| (s.device, s.start_seconds)).collect();
        assert_eq!(order, [(0, 0.1), (1, 0.1), (0, 0.2), (1, 0.2)]);
        let other: Vec<(u64, f64)> = rb.spans.iter().map(|s| (s.device, s.start_seconds)).collect();
        assert_eq!(order, other);
    }

    #[test]
    fn total_seconds_fold_batches_then_iterations_as_the_driver_clock_does() {
        // Two iterations: the first runs batches 0 and 1, the second
        // batch 2, each as (create, mbir, writeback) launches of 0.1 s.
        let mut spans = Vec::new();
        let mut start = 0.0;
        for (iteration, batch) in [(1, 0), (1, 1), (2, 2)] {
            for kernel in ["svb_create", "mbir_update", "error_writeback"] {
                let mut s = span(kernel, 0.1, 0, 0);
                (s.iteration, s.batch, s.start_seconds) = (iteration, batch, start);
                start += s.seconds;
                spans.push(s);
            }
        }
        let flat: f64 = spans.iter().map(|s| s.seconds).sum();
        let r = ProfileReport::from_parts(
            "t",
            spans,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        );
        // The GPU-ICD driver's clock: per batch `(c + m) + w`, summed
        // into its iteration, each iteration summed into the run.
        let batch = 0.1f64 + 0.1 + 0.1;
        let mut first = 0.0;
        first += batch;
        first += batch;
        let mut second = 0.0;
        second += batch;
        let mut clock = 0.0;
        clock += first;
        clock += second;
        assert_eq!(r.totals.seconds.to_bits(), clock.to_bits());
        assert_ne!(flat.to_bits(), clock.to_bits(), "the case must tell the folds apart");
    }
}
