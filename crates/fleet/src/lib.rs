//! Multi-GPU fleet simulation — the paper's third level of parallelism
//! (inter-SuperVoxel) scaled past one device.
//!
//! GPU-ICD's checkerboard guarantees that the SVs of one kernel batch
//! never share boundary voxels, so a batch can be sharded across N
//! devices without changing a single update: each device gathers its
//! SVBs from the same error-sinogram snapshot, updates its shard, and
//! the per-device commits are merged back in the batch's SV order. The
//! *functional* result is therefore bitwise identical to the
//! single-device driver at any device count; what changes is the
//! modeled timeline, which this crate prices:
//!
//! - [`FleetSpec`] / [`InterconnectSpec`]: the machine description — N
//!   identical [`gpu_sim::GpuSpec`] devices joined by a link with a
//!   bandwidth and a latency (PCIe 3.0 x16 and NVLink presets). All
//!   timing constants live in the spec; nothing in the timing paths is
//!   a hard-coded literal (round-trip-tested via the JSON parser).
//! - [`ShardPlan`]: the sharding planner — a deterministic
//!   longest-processing-time partition of SVs over devices, balanced
//!   by *modeled per-SV cost* (not SV count), with the classic LPT
//!   makespan bound `max_load <= total/N + max_cost` (property-tested).
//! - [`Interconnect`]: prices the per-batch exchanges — every device
//!   must see its peers' error-sinogram band deltas and boundary-voxel
//!   (halo) image updates before the next batch gathers — as a ring
//!   all-gather: `(N-1)` steps of `latency + bytes/bandwidth`.
//! - [`Fleet`]: N per-device clocks advancing in batch steps — a pure
//!   ledger. A batch's wall time is the slowest device's kernel time
//!   plus the exchange (priced by the topology layer over
//!   [`Interconnect`] and booked here); faster devices accrue idle
//!   time, every device accrues the communication — the
//!   strong-scaling-vs-communication ledger the scaling study reports.
//!
//! Telemetry: per-device kernel spans carry a `device` id and merge
//! into one report with a deterministic order (stable sort by start
//! cycle, device id as tiebreak — see `mbir_telemetry::ProfileReport`).

//!
//! Fault tolerance: [`FaultSpec`] schedules deterministic adverse
//! events (device failures, straggler episodes, degraded-link
//! episodes) against the batch sequence; the `_among` interconnect
//! entry points price shrunken rings and scaled bandwidth, and the
//! ledger gains fault / recovery / lost-time counters. Faults bend
//! only the modeled timeline — the functional reconstruction stays
//! bitwise identical to a healthy run.

#![warn(missing_docs)]

pub mod fault;
pub mod fleet;
pub mod interconnect;
pub mod ledger;
pub mod shard;
pub mod spec;

pub use fault::{FaultEvent, FaultSpec, DEFAULT_BACKOFF_SECONDS};
pub use fleet::{DeviceReport, Fleet, FleetReport};
pub use interconnect::Interconnect;
pub use ledger::{TenantUsage, UsageLedger};
pub use shard::ShardPlan;
pub use spec::{CarveError, FleetSpec, InterconnectSpec};
