//! Machine description of a device fleet.
//!
//! Every constant the fleet timing path uses — per-device kernel
//! launch overhead (already part of [`GpuSpec`]), link bandwidth, link
//! latency — lives here, serializes to JSON, and parses back through
//! the workspace's own JSON parser ([`mbir_telemetry::json`]), so a
//! checked-in spec file can reproduce a scaling run exactly.

use gpu_sim::GpuSpec;
use mbir_telemetry::json::{self, Fields};
use serde::json::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Bandwidth and latency of the inter-device link.
///
/// Bandwidths are effective per-direction figures for one device's
/// link to the fabric (not aggregate bisection), which is what a ring
/// all-gather step is limited by.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterconnectSpec {
    /// Human-readable name.
    pub name: String,
    /// Effective per-direction link bandwidth, GB/s.
    pub link_gbps: f64,
    /// Per-transfer latency (software + hardware), microseconds.
    pub latency_us: f64,
}

impl InterconnectSpec {
    /// PCIe 3.0 x16: ~16 GB/s raw, ~12 GB/s effective after protocol
    /// overhead; ~8 us end-to-end per transfer through the driver
    /// stack — the fabric of the paper-era multi-GPU workstation.
    pub fn pcie3_x16() -> Self {
        InterconnectSpec { name: "PCIe 3.0 x16".into(), link_gbps: 12.0, latency_us: 8.0 }
    }

    /// First-generation NVLink: 20 GB/s per direction per link, ~1.9x
    /// the effective PCIe bandwidth at a fraction of the latency.
    pub fn nvlink1() -> Self {
        InterconnectSpec { name: "NVLink 1.0".into(), link_gbps: 18.0, latency_us: 1.3 }
    }

    /// 100 Gb Ethernet with RDMA between nodes: 12.5 GB/s raw, ~10.5
    /// GB/s effective after protocol overhead; ~5 us end-to-end with
    /// kernel bypass — the inter-node fabric of the cluster topology
    /// (`mbir-topo`), slower and laggier than any intra-node link.
    pub fn net_100gbe() -> Self {
        InterconnectSpec { name: "100GbE RDMA".into(), link_gbps: 10.5, latency_us: 5.0 }
    }

    /// Parse a spec back out of a JSON value tree (the offline
    /// `serde_json` stand-in only serializes, so round-trips go through
    /// [`mbir_telemetry::json::parse`]).
    pub fn from_json(v: &Value) -> Result<Self, String> {
        json::read_object(v, "", Self::read)
    }

    /// Read the fields of an interconnect object (see
    /// [`json::read_object`]).
    pub fn read(f: &mut Fields<'_>) -> Result<Self, String> {
        Ok(InterconnectSpec {
            name: f.req("name")?,
            link_gbps: f.req("link_gbps")?,
            latency_us: f.req("latency_us")?,
        })
    }
}

/// Typed failure modes of [`FleetSpec::carve`].
///
/// Topology composition carves leases in bulk (one per node, one per
/// slab group), so callers need to branch on *which* bound a request
/// broke rather than string-match an error message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CarveError {
    /// A lease of zero devices was requested.
    ZeroDevices,
    /// The requested lease is larger than the fleet it carves from.
    ExceedsFleet {
        /// Devices the lease asked for.
        requested: usize,
        /// Devices the fleet actually has.
        fleet: usize,
    },
}

impl fmt::Display for CarveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CarveError::ZeroDevices => write!(f, "a lease needs at least one device"),
            CarveError::ExceedsFleet { requested, fleet } => {
                write!(f, "lease of {requested} devices exceeds fleet size {fleet}")
            }
        }
    }
}

impl std::error::Error for CarveError {}

/// A fleet: N identical devices joined by one interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Number of devices.
    pub devices: usize,
    /// The (identical) per-device machine description.
    pub gpu: GpuSpec,
    /// The link between devices.
    pub interconnect: InterconnectSpec,
}

impl FleetSpec {
    /// `devices` Titan X (Maxwell) cards on PCIe 3.0 x16 — the default
    /// fleet the `--devices` flag builds.
    pub fn titan_x_pcie(devices: usize) -> Self {
        assert!(devices >= 1, "a fleet needs at least one device");
        FleetSpec {
            devices,
            gpu: GpuSpec::titan_x_maxwell(),
            interconnect: InterconnectSpec::pcie3_x16(),
        }
    }

    /// `devices` Titan X cards on NVLink (the bandwidth-scaling arm of
    /// the scaling study).
    pub fn titan_x_nvlink(devices: usize) -> Self {
        FleetSpec { interconnect: InterconnectSpec::nvlink1(), ..Self::titan_x_pcie(devices) }
    }

    /// Parse a fleet spec (including the embedded [`GpuSpec`]) back out
    /// of a JSON value tree.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        json::read_object(v, "", Self::read)
    }

    /// Read the fields of a fleet object (see [`json::read_object`]).
    pub fn read(f: &mut Fields<'_>) -> Result<Self, String> {
        let gpu = f.object("gpu", read_gpu)?;
        let interconnect = f.object("interconnect", InterconnectSpec::read)?;
        let devices = f.req("devices")?;
        if devices == 0 {
            return Err("field 'devices' must be at least 1".into());
        }
        Ok(FleetSpec { devices, gpu, interconnect })
    }

    /// Carve a sub-fleet lease of `devices` devices out of this fleet:
    /// same per-device machine and interconnect, smaller ring. The
    /// serve layer prices each leased job's exchanges against this,
    /// and the topology layer carves one lease per node.
    ///
    /// Carving the *full* fleet round-trips cleanly — the lease equals
    /// the fleet — and the failure modes (zero devices, more devices
    /// than the fleet has) are typed [`CarveError`]s, not panics.
    pub fn carve(&self, devices: usize) -> Result<Self, CarveError> {
        if devices == 0 {
            return Err(CarveError::ZeroDevices);
        }
        if devices > self.devices {
            return Err(CarveError::ExceedsFleet { requested: devices, fleet: self.devices });
        }
        Ok(FleetSpec { devices, gpu: self.gpu.clone(), interconnect: self.interconnect.clone() })
    }
}

/// Every count of the machine must be at least 1: the timing model
/// divides by the warp size and the allocation granularities, and
/// schedules blocks onto SMMs.
fn read_gpu(f: &mut Fields<'_>) -> Result<GpuSpec, String> {
    Ok(GpuSpec {
        name: f.req("name")?,
        num_smm: f.req_count("num_smm")?,
        cores_per_smm: f.req_count("cores_per_smm")?,
        clock_mhz: f.req_count("clock_mhz")?,
        warp_size: f.req_count("warp_size")?,
        max_threads_per_smm: f.req_count("max_threads_per_smm")?,
        max_blocks_per_smm: f.req_count("max_blocks_per_smm")?,
        max_threads_per_block: f.req_count("max_threads_per_block")?,
        registers_per_smm: f.req_count("registers_per_smm")?,
        register_granularity: f.req_count("register_granularity")?,
        shared_mem_per_smm: f.req_count("shared_mem_per_smm")?,
        shared_mem_per_block: f.req_count("shared_mem_per_block")?,
        shared_mem_granularity: f.req_count("shared_mem_granularity")?,
        l1_tex_bytes_per_smm: f.req_count("l1_tex_bytes_per_smm")?,
        l2_bytes: f.req_count("l2_bytes")?,
        sector_bytes: f.req_count("sector_bytes")?,
        dram_gbps: f.req("dram_gbps")?,
        l2_gbps: f.req("l2_gbps")?,
        tex_gbps: f.req("tex_gbps")?,
        shared_gbps: f.req("shared_gbps")?,
        issue_per_smm_per_cycle: f.req("issue_per_smm_per_cycle")?,
        kernel_launch_us: f.req("kernel_launch_us")?,
        atomic_cycles: f.req("atomic_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_spec_round_trips_through_json() {
        // Serialize -> parse -> reconstruct must be the identity, for
        // both presets: the whole point of keeping every timing
        // constant (launch overhead, link bandwidth, link latency) in
        // the spec is that a checked-in file reproduces a run.
        for spec in [FleetSpec::titan_x_pcie(4), FleetSpec::titan_x_nvlink(8)] {
            let text = serde_json::to_string_pretty(&spec).expect("serializes");
            let value = json::parse(&text).expect("parses");
            let back = FleetSpec::from_json(&value).expect("reconstructs");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn interconnect_spec_round_trips() {
        for ic in [InterconnectSpec::pcie3_x16(), InterconnectSpec::nvlink1()] {
            let text = serde_json::to_string(&ic).expect("serializes");
            let value = json::parse(&text).expect("parses");
            assert_eq!(InterconnectSpec::from_json(&value).expect("reconstructs"), ic);
        }
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let pcie = InterconnectSpec::pcie3_x16();
        let nvlink = InterconnectSpec::nvlink1();
        assert!(nvlink.link_gbps > pcie.link_gbps);
        assert!(nvlink.latency_us < pcie.latency_us);
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let v = json::parse(r#"{"name": "x", "link_gbps": 1.5}"#).unwrap();
        let err = InterconnectSpec::from_json(&v).unwrap_err();
        assert!(err.contains("latency_us"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_device_fleet_is_rejected() {
        FleetSpec::titan_x_pcie(0);
    }

    /// Serialize a preset, splice one field's value, and parse back —
    /// the hostile-input harness for the narrowing/finiteness checks.
    fn parse_with(field: &str, value: &str) -> Result<FleetSpec, String> {
        let text = serde_json::to_string_pretty(&FleetSpec::titan_x_pcie(2)).unwrap();
        let needle = format!("\"{field}\":");
        let at = text.find(&needle).expect("field present") + needle.len();
        let end = text[at..].find(['\n', ','].as_ref()).unwrap() + at;
        let spliced = format!("{} {}{}", &text[..at], value, &text[end..]);
        FleetSpec::from_json(&json::parse(&spliced).expect("still valid JSON"))
    }

    #[test]
    fn oversized_u32_field_is_a_parse_error_not_truncation() {
        // 2^32 + 1000: `as u32` used to truncate this to 1000 MHz.
        let err = parse_with("clock_mhz", "4294968296").unwrap_err();
        assert!(err.contains("clock_mhz"), "{err}");
        assert!(err.contains("does not fit in u32"), "{err}");
        // Negative values are rejected by the unsigned gate.
        let err = parse_with("num_smm", "-3").unwrap_err();
        assert!(err.contains("num_smm"), "{err}");
    }

    #[test]
    fn non_finite_bandwidth_is_rejected() {
        // JSON `1e400` parses to +inf; it must not reach the timing
        // model where it would poison every makespan.
        let err = parse_with("link_gbps", "1e400").unwrap_err();
        assert!(err.contains("link_gbps"), "{err}");
        assert!(err.contains("not finite"), "{err}");
        let err = parse_with("dram_gbps", "1e400").unwrap_err();
        assert!(err.contains("dram_gbps"), "{err}");
    }

    #[test]
    fn unknown_keys_are_rejected_with_their_path() {
        // A typo'd key is an error naming its full path, never ignored.
        let err = parse_with("num_smm", "24, \"num_smn\": 24").unwrap_err();
        assert!(err.contains("unknown field 'gpu.num_smn'"), "{err}");
        let err = parse_with("latency_us", "8.0, \"latency\": 1").unwrap_err();
        assert!(err.contains("unknown field 'interconnect.latency'"), "{err}");
    }

    #[test]
    fn zero_devices_in_json_is_rejected() {
        let err = parse_with("devices", "0").unwrap_err();
        assert!(err.contains("devices"), "{err}");
    }

    #[test]
    fn a_zero_gpu_count_is_rejected_with_its_path() {
        // Kernel pricing divides by these and schedules onto SMMs.
        for field in ["num_smm", "warp_size", "register_granularity", "shared_mem_granularity"] {
            let err = parse_with(field, "0").unwrap_err();
            assert_eq!(err, format!("field 'gpu.{field}' must be at least 1"));
        }
    }

    #[test]
    fn carve_bounds_the_lease() {
        let fleet = FleetSpec::titan_x_pcie(4);
        let lease = fleet.carve(2).unwrap();
        assert_eq!(lease.devices, 2);
        assert_eq!(lease.gpu, fleet.gpu);
        assert_eq!(lease.interconnect, fleet.interconnect);
        assert_eq!(fleet.carve(0).unwrap_err(), CarveError::ZeroDevices);
        let err = fleet.carve(5).unwrap_err();
        assert_eq!(err, CarveError::ExceedsFleet { requested: 5, fleet: 4 });
        assert!(err.to_string().contains("exceeds fleet size"));
    }

    #[test]
    fn carving_the_full_fleet_round_trips() {
        // Topology composition carves a whole node out of itself when a
        // cluster has one node; that must be the identity, not an error
        // (and certainly not a debug-assert).
        for devices in [1, 2, 8] {
            let fleet = FleetSpec::titan_x_nvlink(devices);
            assert_eq!(fleet.carve(devices).unwrap(), fleet);
        }
    }

    #[test]
    fn single_device_carve_has_no_ring() {
        // The smallest legal lease: one device, which downstream
        // prices zero exchange. It must carve cleanly from any fleet.
        let fleet = FleetSpec::titan_x_pcie(8);
        assert_eq!(fleet.carve(1).unwrap().devices, 1);
    }

    #[test]
    fn asymmetric_and_heterogeneous_links_round_trip() {
        // A cluster pairs heterogeneous links (fast intra-node, slow
        // inter-node) and nothing requires them to look like the
        // presets: exercise the round trip with asymmetric hand-rolled
        // specs, including extreme-but-finite values.
        let links = [
            InterconnectSpec::net_100gbe(),
            InterconnectSpec {
                name: "x16 up / x4 down (down)".into(),
                link_gbps: 3.0,
                latency_us: 8.0,
            },
            InterconnectSpec { name: "lossy WAN".into(), link_gbps: 0.125, latency_us: 35_000.0 },
            InterconnectSpec { name: "zero-copy".into(), link_gbps: 900.0, latency_us: 0.0 },
        ];
        for ic in &links {
            let text = serde_json::to_string(ic).expect("serializes");
            let value = json::parse(&text).expect("parses");
            assert_eq!(&InterconnectSpec::from_json(&value).expect("reconstructs"), ic);
        }
        // Heterogeneous pairs stay distinct through the round trip.
        let pair: Vec<InterconnectSpec> = links[..2]
            .iter()
            .map(|ic| {
                let text = serde_json::to_string(ic).unwrap();
                InterconnectSpec::from_json(&json::parse(&text).unwrap()).unwrap()
            })
            .collect();
        assert_ne!(pair[0], pair[1]);
    }

    #[test]
    fn negative_bandwidth_and_latency_are_rejected() {
        // A negative rate or delay would make transfers finish before
        // they start; the parser refuses both, on either link field
        // and on the GPU's bandwidth fields.
        let err = parse_with("link_gbps", "-12.0").unwrap_err();
        assert!(err.contains("link_gbps"), "{err}");
        assert!(err.contains("negative"), "{err}");
        let err = parse_with("latency_us", "-0.5").unwrap_err();
        assert!(err.contains("latency_us"), "{err}");
        assert!(err.contains("negative"), "{err}");
        let err = parse_with("dram_gbps", "-1").unwrap_err();
        assert!(err.contains("dram_gbps"), "{err}");
    }

    #[test]
    fn inter_node_preset_is_slower_than_any_intra_link() {
        let inter = InterconnectSpec::net_100gbe();
        for intra in [InterconnectSpec::pcie3_x16(), InterconnectSpec::nvlink1()] {
            assert!(inter.link_gbps < intra.link_gbps);
        }
        assert!(inter.latency_us > InterconnectSpec::nvlink1().latency_us);
    }
}
