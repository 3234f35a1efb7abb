//! Cluster description: nodes of devices with a two-level link.
//!
//! A [`ClusterSpec`] composes the flat [`FleetSpec`] of PR 4 into a
//! nodes-of-devices hierarchy: every node is itself a fleet (devices
//! joined by the intra-node link — NVLink in the presets), and the
//! nodes are joined by a slower inter-node link (100GbE RDMA in the
//! presets). Device ids are global and node-major: node `i` owns
//! devices `i*d .. (i+1)*d`, and its lowest-id device is the node
//! *leader* that speaks on the inter-node link. The `slabs` knob adds
//! the memory dimension: a volume `slabs` times larger than one
//! device's modeled memory reconstructs by streaming axial slabs (see
//! [`crate::slab`]).

use mbir_fleet::{FleetSpec, InterconnectSpec};
use serde::json::Value;
use serde::{Deserialize, Serialize};

/// One node of the cluster: a flat fleet — devices joined by the
/// intra-node link. A node *is* a PR-4 fleet; the cluster composes
/// `nodes` identical copies of it over the inter-node link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The node's devices and the intra-node link joining them.
    pub fleet: FleetSpec,
}

impl NodeSpec {
    /// `devices` Titan X cards on NVLink — the intra-node arm of the
    /// cluster presets.
    pub fn titan_x_nvlink(devices: usize) -> Self {
        NodeSpec { fleet: FleetSpec::titan_x_nvlink(devices) }
    }

    /// Parse a node spec back out of a JSON value tree.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(NodeSpec { fleet: FleetSpec::from_json(field(v, "fleet")?)? })
    }
}

/// A cluster: `nodes` identical [`NodeSpec`]s joined by the
/// inter-node link, reconstructing a volume split into `slabs` axial
/// slabs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// The (identical) per-node description.
    pub node: NodeSpec,
    /// The link between node leaders.
    pub inter: InterconnectSpec,
    /// Axial slabs the volume splits into (1 = the whole volume fits
    /// one device's modeled memory, no streaming).
    pub slabs: usize,
}

impl ClusterSpec {
    /// `nodes` nodes of `devices_per_node` Titan X cards each, NVLink
    /// inside a node and 100GbE RDMA between nodes, one slab — the
    /// cluster the `--fleet nodes=NxM` shorthand builds.
    pub fn titan_x_cluster(nodes: usize, devices_per_node: usize) -> Self {
        assert!(nodes >= 1, "a cluster needs at least one node");
        ClusterSpec {
            nodes,
            node: NodeSpec::titan_x_nvlink(devices_per_node),
            inter: InterconnectSpec::net_100gbe(),
            slabs: 1,
        }
    }

    /// A flat fleet as a cluster: one node holding every device, one
    /// slab. Its hierarchical reduce is the fleet's own ring
    /// all-gather, so this is how the driver runs every flat fleet.
    pub fn single_node(fleet: FleetSpec) -> Self {
        ClusterSpec {
            nodes: 1,
            node: NodeSpec { fleet },
            inter: InterconnectSpec::net_100gbe(),
            slabs: 1,
        }
    }

    /// Builder: the same cluster reconstructing `slabs` axial slabs.
    pub fn with_slabs(mut self, slabs: usize) -> Self {
        assert!(slabs >= 1, "a volume has at least one slab");
        self.slabs = slabs;
        self
    }

    /// Slabs needed to stream a `volume_bytes` reconstruction through
    /// devices with `device_mem_bytes` of modeled memory each: the
    /// ceiling of the ratio, at least 1.
    pub fn slabs_for_memory(volume_bytes: u64, device_mem_bytes: u64) -> usize {
        assert!(device_mem_bytes > 0, "device memory must be positive");
        (volume_bytes.div_ceil(device_mem_bytes)).max(1) as usize
    }

    /// Devices per node.
    pub fn devices_per_node(&self) -> usize {
        self.node.fleet.devices
    }

    /// Total devices across all nodes.
    pub fn total_devices(&self) -> usize {
        self.nodes * self.devices_per_node()
    }

    /// The node owning global device id `device`.
    pub fn node_of(&self, device: usize) -> usize {
        assert!(device < self.total_devices(), "device {device} outside the cluster");
        device / self.devices_per_node()
    }

    /// The leader (lowest-id device) of `node` — the device that
    /// speaks on the inter-node link.
    pub fn leader_of(&self, node: usize) -> usize {
        assert!(node < self.nodes, "node {node} outside the cluster");
        node * self.devices_per_node()
    }

    /// The flat-ring view of the cluster: one fleet of all devices
    /// whose ring is paced by the *slowest* hop. A Hamiltonian ring
    /// over a multi-node cluster necessarily crosses inter-node links,
    /// and the synchronous ring's steps wait for the slowest hop, so
    /// the flat baseline prices every step on the inter-node link; a
    /// single-node cluster flattens to its intra-node fleet. This is
    /// the baseline the hierarchical reduce is judged against.
    pub fn flatten(&self) -> FleetSpec {
        FleetSpec {
            devices: self.total_devices(),
            gpu: self.node.fleet.gpu.clone(),
            interconnect: if self.nodes > 1 {
                self.inter.clone()
            } else {
                self.node.fleet.interconnect.clone()
            },
        }
    }

    /// Parse a cluster spec back out of a JSON value tree.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let nodes = get_usize(v, "nodes")?;
        if nodes == 0 {
            return Err("field 'nodes' must be at least 1".into());
        }
        let slabs = get_usize(v, "slabs")?;
        if slabs == 0 {
            return Err("field 'slabs' must be at least 1".into());
        }
        Ok(ClusterSpec {
            nodes,
            node: NodeSpec::from_json(field(v, "node")?)?,
            inter: InterconnectSpec::from_json(field(v, "inter")?)?,
            slabs,
        })
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'")),
        _ => Err(format!("expected object looking up '{key}'")),
    }
}

fn get_usize(v: &Value, key: &str) -> Result<usize, String> {
    let x = match field(v, key)? {
        Value::U64(x) => *x,
        Value::I64(x) if *x >= 0 => *x as u64,
        other => return Err(format!("field '{key}' is not an unsigned integer: {other:?}")),
    };
    usize::try_from(x).map_err(|_| format!("field '{key}' value {x} does not fit in usize"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_telemetry::json;

    #[test]
    fn cluster_spec_round_trips_through_json() {
        for spec in [
            ClusterSpec::titan_x_cluster(8, 8),
            ClusterSpec::titan_x_cluster(2, 2).with_slabs(4),
            ClusterSpec::titan_x_cluster(1, 3),
        ] {
            let text = serde_json::to_string_pretty(&spec).expect("serializes");
            let value = json::parse(&text).expect("parses");
            let back = ClusterSpec::from_json(&value).expect("reconstructs");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn from_json_rejects_degenerate_shapes() {
        let text = serde_json::to_string_pretty(&ClusterSpec::titan_x_cluster(2, 2)).unwrap();
        for (field, bad) in [("nodes", "\"nodes\": 0,"), ("slabs", "\"slabs\": 0")] {
            let needle = format!("\"{field}\":");
            let at = text.find(&needle).expect("field present");
            let end = text[at..].find(['\n'].as_ref()).unwrap() + at;
            let spliced = format!("{}{}{}", &text[..at], bad, &text[end..]);
            let err = ClusterSpec::from_json(&json::parse(&spliced).unwrap()).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn device_ids_are_node_major() {
        let c = ClusterSpec::titan_x_cluster(4, 3);
        assert_eq!(c.total_devices(), 12);
        assert_eq!(c.devices_per_node(), 3);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(2), 0);
        assert_eq!(c.node_of(3), 1);
        assert_eq!(c.node_of(11), 3);
        assert_eq!(c.leader_of(0), 0);
        assert_eq!(c.leader_of(3), 9);
    }

    #[test]
    #[should_panic(expected = "outside the cluster")]
    fn out_of_range_device_is_a_bug() {
        ClusterSpec::titan_x_cluster(2, 2).node_of(4);
    }

    #[test]
    fn flatten_is_paced_by_the_slowest_hop() {
        let multi = ClusterSpec::titan_x_cluster(4, 2);
        let flat = multi.flatten();
        assert_eq!(flat.devices, 8);
        assert_eq!(flat.interconnect, InterconnectSpec::net_100gbe());
        // A single node has no inter-node hop: the flat view is the
        // node's own fleet.
        let single = ClusterSpec::titan_x_cluster(1, 4);
        assert_eq!(single.flatten(), single.node.fleet);
    }

    #[test]
    fn node_fleets_carve_cleanly() {
        // Topology composition leans on FleetSpec::carve: a whole-node
        // lease (the degenerate full-fleet carve) and per-group leases
        // must all round-trip with typed errors for the bad shapes.
        let c = ClusterSpec::titan_x_cluster(2, 4);
        let node_fleet = &c.node.fleet;
        assert_eq!(&node_fleet.carve(4).unwrap(), node_fleet);
        assert_eq!(node_fleet.carve(1).unwrap().devices, 1);
        assert!(node_fleet.carve(0).is_err());
        assert!(node_fleet.carve(5).is_err());
    }

    #[test]
    fn memory_budget_derives_the_slab_count() {
        assert_eq!(ClusterSpec::slabs_for_memory(100, 100), 1);
        assert_eq!(ClusterSpec::slabs_for_memory(101, 100), 2);
        assert_eq!(ClusterSpec::slabs_for_memory(799, 100), 8);
        assert_eq!(ClusterSpec::slabs_for_memory(0, 100), 1, "an empty volume still has a slab");
    }
}
