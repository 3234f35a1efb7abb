//! Multi-node cluster topology over the simulated fleet.
//!
//! PR 4's `mbir-fleet` models one node: N devices on one link, flat
//! ring all-gathers, every device holding the full volume. This crate
//! composes those fleets into clusters and removes both caps:
//!
//! - [`NodeSpec`] / [`ClusterSpec`]: nodes-of-devices with a two-level
//!   interconnect — the node's own [`mbir_fleet::FleetSpec`] carries
//!   the intra-node link (NVLink preset), the cluster adds the
//!   inter-node link (100GbE RDMA preset) — JSON round-trip like every
//!   other machine description in the workspace.
//! - [`Topology`]: replaces the flat ring all-gather with a
//!   hierarchical reduce — intra-node gather, inter-node exchange
//!   among node leaders, intra-node pipelined broadcast — priced
//!   per phase ([`ExchangeCost`]) against the flat-ring baseline:
//!   [`ClusterSpec::flatten`] priced as a one-node cluster, its ring
//!   pinned to the slowest, inter-node hop.
//! - [`SlabPlan`] / [`SlabStreamer`]: axial slab decomposition so a
//!   volume larger than one device's modeled memory reconstructs by
//!   streaming slabs through devices, with halo exchange only at slab
//!   seams.
//!
//! Everything here prices the modeled *timeline* only. The functional
//! reconstruction is computed exactly as on one device — the
//! bitwise-identity-at-any-shard-count invariant from PR 4 extends to
//! every (nodes, devices/node, slabs) shape, enforced by
//! `tests/topo_equivalence.rs` in the workspace root.

#![warn(missing_docs)]

pub mod slab;
pub mod spec;
pub mod topology;

pub use slab::{SlabPlan, SlabStreamer};
pub use spec::{ClusterSpec, NodeSpec};
pub use topology::{ExchangeCost, PhaseCost, Topology};
