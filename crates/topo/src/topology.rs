//! Hierarchical all-gather pricing over a cluster.
//!
//! The flat fleet prices every post-batch exchange as one ring
//! all-gather over all devices; across a cluster that ring is paced by
//! its slowest (inter-node) hop, so its `N-1` steps all pay network
//! latency and network bandwidth. The hierarchical reduce replaces it
//! with three phases:
//!
//! 1. **Intra-node gather** — each node runs a ring all-gather over
//!    its own devices on the fast intra-node link. Nodes run
//!    concurrently, so the phase costs the *slowest node's* gather.
//! 2. **Inter-node exchange** — node leaders ring-all-gather the
//!    per-node aggregate payloads over the inter-node link: `n-1`
//!    steps instead of `N-1`, with `d`-times-larger chunks.
//! 3. **Intra-node broadcast** — each leader chains the foreign bytes
//!    (everything its node did not produce) through its `d-1` peers as
//!    a pipelined broadcast on the intra-node link. Nodes run
//!    concurrently again.
//!
//! Latency-wise the win is structural (`d-1` fast hops + `n-1` slow
//! hops + `d-1` fast hops, versus `nd-1` slow hops); byte-wise the
//! inter-node link carries `(n-1)/n` of what the flat ring pushed
//! through it, with the remainder moved on the fast link. Both
//! degeneracies collapse exactly: one node prices bitwise-identically
//! to the flat intra-node ring, one device per node to the flat
//! inter-node ring.

use crate::spec::ClusterSpec;
use mbir_fleet::Interconnect;

/// Seconds and link-crossing bytes of one phase (or one node's share
/// of a concurrent phase).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseCost {
    /// Modeled seconds.
    pub seconds: f64,
    /// Bytes crossing links, every crossing counted.
    pub bytes: u64,
}

/// The priced hierarchical reduce for one batch's payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeCost {
    /// Total wall seconds: gather span + inter exchange + broadcast
    /// span (the phases are barriers on the bulk-synchronous
    /// timeline).
    pub seconds: f64,
    /// Total bytes across all links and phases.
    pub bytes: u64,
    /// Phase 1 per node (concurrent; the span is the per-node max).
    pub intra_gather: Vec<PhaseCost>,
    /// Phase 2, over the node leaders.
    pub inter_exchange: PhaseCost,
    /// Phase 3 per node (concurrent; the span is the per-node max).
    pub intra_broadcast: Vec<PhaseCost>,
}

impl ExchangeCost {
    /// Wall seconds of the concurrent intra-node gather phase.
    pub fn gather_span(&self) -> f64 {
        self.intra_gather.iter().map(|p| p.seconds).fold(0.0, f64::max)
    }

    /// Wall seconds of the concurrent intra-node broadcast phase.
    pub fn broadcast_span(&self) -> f64 {
        self.intra_broadcast.iter().map(|p| p.seconds).fold(0.0, f64::max)
    }
}

/// Prices cluster exchanges as the hierarchical reduce. The flat-ring
/// baseline is a one-node cluster of [`ClusterSpec::flatten`], whose
/// reduce is that ring, bit for bit.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: ClusterSpec,
    intra: Interconnect,
    inter: Interconnect,
}

impl Topology {
    /// Build a pricer for `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let intra = Interconnect::new(spec.node.fleet.interconnect.clone());
        let inter = Interconnect::new(spec.inter.clone());
        Topology { spec, intra, inter }
    }

    /// The cluster this pricer reads its constants from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The intra-node link pricer (also prices slab streaming loads
    /// and seam-halo transfers, which stay inside a node).
    pub fn intra(&self) -> &Interconnect {
        &self.intra
    }

    /// Price the hierarchical reduce for one batch over the devices
    /// marked `true` in `live`, `payload_bytes[g]` being what global
    /// device `g` must publish, with every link's bandwidth scaled by
    /// `bandwidth_factor` (degraded-link episodes pass `1/factor`).
    /// Dead devices publish nothing and leave their node's ring; a
    /// node's lowest live device leads it on the inter-node link (so a
    /// dead leader hands the link to the next live device), and a node
    /// with no live device leaves the inter-node ring and receives no
    /// broadcast. One node is exactly the flat intra-node ring over the
    /// live devices.
    pub fn allgather_among(
        &self,
        payload_bytes: &[u64],
        live: &[bool],
        bandwidth_factor: f64,
    ) -> ExchangeCost {
        let d = self.spec.devices_per_node();
        let n = self.spec.nodes;
        assert_eq!(payload_bytes.len(), n * d, "one payload per device");
        assert_eq!(live.len(), n * d, "one liveness flag per device");

        // Phase 1: per-node ring all-gather on the intra link.
        let mut intra_gather = Vec::with_capacity(n);
        let mut node_totals = Vec::with_capacity(n);
        let mut node_live = Vec::with_capacity(n);
        for node in 0..n {
            let slice = &payload_bytes[node * d..(node + 1) * d];
            let mask = &live[node * d..(node + 1) * d];
            node_totals.push(slice.iter().zip(mask).filter(|(_, &l)| l).map(|(&p, _)| p).sum());
            node_live.push(mask.iter().filter(|&&l| l).count());
            intra_gather.push(PhaseCost {
                seconds: self.intra.allgather_seconds_among(slice, Some(mask), bandwidth_factor),
                bytes: self.intra.allgather_bytes_among(slice, Some(mask)),
            });
        }

        // Phase 2: leaders exchange per-node aggregates on the inter
        // link; nodes without a live device sit the ring out.
        let leaders: Vec<bool> = node_live.iter().map(|&l| l > 0).collect();
        let inter_exchange = PhaseCost {
            seconds: self.inter.allgather_seconds_among(
                &node_totals,
                Some(&leaders),
                bandwidth_factor,
            ),
            bytes: self.inter.allgather_bytes_among(&node_totals, Some(&leaders)),
        };

        // Phase 3: each leader chains the foreign bytes through its
        // live peers. No foreign bytes (single node, or silent peers)
        // and no peers (a lone or empty node) both mean no broadcast
        // at all — not even the latency.
        let total: u64 = node_totals.iter().sum();
        let intra_broadcast = node_totals
            .iter()
            .zip(&node_live)
            .map(|(&own, &alive)| {
                let (foreign, hops) = (total - own, alive.saturating_sub(1));
                if foreign == 0 {
                    PhaseCost::default()
                } else {
                    PhaseCost {
                        seconds: self.intra.broadcast_seconds(foreign, hops, bandwidth_factor),
                        bytes: self.intra.broadcast_bytes(foreign, hops),
                    }
                }
            })
            .collect::<Vec<_>>();

        let cost = ExchangeCost {
            seconds: 0.0,
            bytes: intra_gather.iter().map(|p| p.bytes).sum::<u64>()
                + inter_exchange.bytes
                + intra_broadcast.iter().map(|p| p.bytes).sum::<u64>(),
            intra_gather,
            inter_exchange,
            intra_broadcast,
        };
        ExchangeCost {
            seconds: cost.gather_span() + cost.inter_exchange.seconds + cost.broadcast_span(),
            ..cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_fleet::InterconnectSpec;
    use proptest::prelude::*;

    fn payloads(cluster: &ClusterSpec, each: u64) -> Vec<u64> {
        vec![each; cluster.total_devices()]
    }

    /// The reduce with every device live, at nominal bandwidth.
    fn all_live(topo: &Topology, payload_bytes: &[u64]) -> ExchangeCost {
        topo.allgather_among(payload_bytes, &vec![true; payload_bytes.len()], 1.0)
    }

    /// The flat-ring baseline over the same payloads: the cluster
    /// flattened into one ring paced by its slowest hop, priced as a
    /// one-node cluster.
    fn flat_ring(topo: &Topology, payload_bytes: &[u64]) -> ExchangeCost {
        all_live(&Topology::new(ClusterSpec::single_node(topo.spec().flatten())), payload_bytes)
    }

    #[test]
    fn single_node_degenerates_to_the_flat_intra_ring() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(1, 8));
        let p = payloads(topo.spec(), 50_000);
        let hier = all_live(&topo, &p);
        let flat = flat_ring(&topo, &p);
        assert_eq!(hier.seconds, flat.seconds, "one node: gather IS the flat ring");
        assert_eq!(hier.bytes, flat.bytes);
        assert_eq!(hier.inter_exchange, PhaseCost::default());
        assert_eq!(hier.broadcast_span(), 0.0);
    }

    #[test]
    fn single_device_nodes_degenerate_to_the_flat_inter_ring() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(8, 1));
        let p = payloads(topo.spec(), 50_000);
        let hier = all_live(&topo, &p);
        let flat = flat_ring(&topo, &p);
        assert_eq!(hier.seconds, flat.seconds, "1 device/node: leaders ARE the ring");
        assert_eq!(hier.bytes, flat.bytes);
        assert_eq!(hier.gather_span(), 0.0);
        assert_eq!(hier.broadcast_span(), 0.0);
    }

    #[test]
    fn hierarchical_beats_the_flat_ring_on_real_clusters() {
        // The acceptance shape: up to 64 devices across 8 nodes with
        // per-SV-scale payloads. The win must hold at 16+ devices.
        for (nodes, dpn) in [(2, 8), (4, 8), (8, 8), (4, 4), (2, 2)] {
            let topo = Topology::new(ClusterSpec::titan_x_cluster(nodes, dpn));
            let p = payloads(topo.spec(), 50_000);
            let hier = all_live(&topo, &p);
            let flat = flat_ring(&topo, &p);
            assert!(
                hier.seconds < flat.seconds,
                "{nodes}x{dpn}: hierarchical {} !< flat {}",
                hier.seconds,
                flat.seconds
            );
        }
    }

    #[test]
    fn phase_spans_sum_to_the_total() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(4, 4));
        let p: Vec<u64> = (0..16).map(|g| 10_000 + 1_000 * g).collect();
        let cost = all_live(&topo, &p);
        let sum = cost.gather_span() + cost.inter_exchange.seconds + cost.broadcast_span();
        assert_eq!(cost.seconds, sum);
        let bytes: u64 = cost.intra_gather.iter().map(|x| x.bytes).sum::<u64>()
            + cost.inter_exchange.bytes
            + cost.intra_broadcast.iter().map(|x| x.bytes).sum::<u64>();
        assert_eq!(cost.bytes, bytes);
    }

    #[test]
    fn inter_link_carries_fewer_bytes_than_the_flat_ring() {
        // The structural byte win: the flat ring pushes every payload
        // across N-1 network-paced links; the hierarchical inter phase
        // pushes node aggregates across n-1.
        let topo = Topology::new(ClusterSpec::titan_x_cluster(8, 8));
        let p = payloads(topo.spec(), 65_536);
        let hier = all_live(&topo, &p);
        let flat = flat_ring(&topo, &p);
        assert!(hier.inter_exchange.bytes < flat.bytes);
    }

    #[test]
    fn silent_devices_cost_no_broadcast() {
        // All payloads on node 0: the other nodes receive everything,
        // node 0's own broadcast covers only foreign bytes — zero.
        let topo = Topology::new(ClusterSpec::titan_x_cluster(2, 2));
        let cost = all_live(&topo, &[1 << 20, 1 << 20, 0, 0]);
        assert_eq!(cost.intra_broadcast[0], PhaseCost::default());
        assert!(cost.intra_broadcast[1].seconds > 0.0);
    }

    #[test]
    fn per_node_gather_is_priced_on_each_nodes_own_payloads() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(2, 2));
        let cost = all_live(&topo, &[1 << 22, 1 << 22, 16, 16]);
        assert!(cost.intra_gather[0].seconds > cost.intra_gather[1].seconds);
        assert_eq!(cost.gather_span(), cost.intra_gather[0].seconds);
    }

    #[test]
    fn heterogeneous_links_price_on_their_own_constants() {
        // Make the "intra" link slower than the inter link: the model
        // must keep pricing each phase on its own link (no hidden
        // assumption that intra is faster), even though such a cluster
        // gains nothing from hierarchy.
        let mut spec = ClusterSpec::titan_x_cluster(2, 2);
        spec.node.fleet.interconnect =
            InterconnectSpec { name: "slow intra".into(), link_gbps: 1.0, latency_us: 50.0 };
        let topo = Topology::new(spec);
        let cost = all_live(&topo, &[1 << 20; 4]);
        let fast_intra =
            all_live(&Topology::new(ClusterSpec::titan_x_cluster(2, 2)), &[1 << 20; 4]);
        assert!(cost.gather_span() > fast_intra.gather_span());
        assert_eq!(cost.inter_exchange, fast_intra.inter_exchange);
    }

    #[test]
    fn a_dead_leader_hands_the_inter_link_to_the_next_live_device() {
        // Node 0 loses its leader (device 0): device 1 speaks for the
        // node, which stays in the inter-node ring with its live total
        // and chains the foreign bytes to its one remaining peer.
        let topo = Topology::new(ClusterSpec::titan_x_cluster(2, 3));
        let p = [1u64 << 20, 1 << 18, 1 << 19, 1 << 17, 1 << 16, 1 << 15];
        let live = [false, true, true, true, true, true];
        let cost = topo.allgather_among(&p, &live, 1.0);
        let node0 = (1u64 << 18) + (1 << 19);
        let node1 = (1u64 << 17) + (1 << 16) + (1 << 15);
        let inter = Interconnect::new(InterconnectSpec::net_100gbe());
        assert_eq!(
            cost.inter_exchange.seconds,
            inter.allgather_seconds_among(&[node0, node1], None, 1.0)
        );
        assert_eq!(cost.inter_exchange.bytes, inter.allgather_bytes_among(&[node0, node1], None));
        assert_eq!(cost.intra_broadcast[0].seconds, topo.intra().broadcast_seconds(node1, 1, 1.0));
        assert_eq!(cost.intra_broadcast[1].seconds, topo.intra().broadcast_seconds(node0, 2, 1.0));
        assert_eq!(
            cost.intra_gather[0].seconds,
            topo.intra().allgather_seconds_among(&[1 << 18, 1 << 19], None, 1.0),
            "the dead device's chunk leaves node 0's ring"
        );
    }

    #[test]
    fn a_node_with_no_live_device_leaves_the_inter_ring_and_gets_no_broadcast() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(2, 2));
        let p = [1u64 << 20, 1 << 19, 1 << 20, 1 << 20];
        let cost = topo.allgather_among(&p, &[true, true, false, false], 1.0);
        assert_eq!(cost.intra_gather[1], PhaseCost::default());
        assert_eq!(cost.inter_exchange, PhaseCost::default(), "one node left: no inter ring");
        assert_eq!(cost.intra_broadcast, vec![PhaseCost::default(); 2]);
        assert_eq!(
            cost.seconds,
            topo.intra().allgather_seconds_among(&[1 << 20, 1 << 19], None, 1.0)
        );
    }

    #[test]
    fn a_degraded_link_stretches_every_phase() {
        let topo = Topology::new(ClusterSpec::titan_x_cluster(2, 2));
        let p = [1u64 << 20; 4];
        let live = [true; 4];
        let nominal = topo.allgather_among(&p, &live, 1.0);
        let degraded = topo.allgather_among(&p, &live, 0.5);
        assert!(degraded.gather_span() > nominal.gather_span());
        assert!(degraded.inter_exchange.seconds > nominal.inter_exchange.seconds);
        assert!(degraded.broadcast_span() > nominal.broadcast_span());
        assert_eq!(degraded.bytes, nominal.bytes, "bytes moved are bytes moved");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_node_is_the_flat_intra_ring_among_the_live(
            payloads in prop::collection::vec(0u64..1 << 24, 1..9),
            mask in 0u16..512,
            factor in 0.05f64..4.0,
        ) {
            let topo = Topology::new(ClusterSpec::titan_x_cluster(1, payloads.len()));
            let live: Vec<bool> = (0..payloads.len()).map(|d| mask >> d & 1 == 1).collect();
            let cost = topo.allgather_among(&payloads, &live, factor);
            let ring = topo.intra();
            prop_assert_eq!(
                cost.seconds.to_bits(),
                ring.allgather_seconds_among(&payloads, Some(&live), factor).to_bits()
            );
            prop_assert_eq!(cost.bytes, ring.allgather_bytes_among(&payloads, Some(&live)));
        }
    }
}
