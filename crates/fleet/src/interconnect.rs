//! Interconnect cost model: prices the per-batch exchanges.
//!
//! After a batch, every device must see its peers' error-sinogram band
//! deltas and boundary-voxel (halo) image updates before the next
//! batch gathers its SVBs. The fleet models this as a ring all-gather
//! priced step by step: each of the `N-1` synchronous steps costs one
//! hop — `latency + bytes / bandwidth` — of the largest chunk in
//! flight during that step (which, with every chunk moving every step,
//! is the largest live payload). A single device never exchanges
//! anything. Fault episodes plug in through the liveness masks and the
//! bandwidth factors: a dead device drops out of the ring (fewer chunks
//! *and* fewer steps) and a degraded link scales the bandwidth term.

use crate::spec::InterconnectSpec;

/// Prices transfers over one [`InterconnectSpec`].
#[derive(Debug, Clone)]
pub struct Interconnect {
    spec: InterconnectSpec,
}

impl Interconnect {
    /// Build a pricer for `spec`.
    pub fn new(spec: InterconnectSpec) -> Self {
        Interconnect { spec }
    }

    /// The spec this pricer reads its constants from.
    pub fn spec(&self) -> &InterconnectSpec {
        &self.spec
    }

    /// Seconds to move `bytes` point-to-point over one link with its
    /// bandwidth scaled by `bandwidth_factor` (1 = nominal, 0.5 = half
    /// speed — a degraded-link episode): `latency + bytes / (bandwidth
    /// × factor)`. Latency is a property of the fabric and does not
    /// scale, and zero bytes still pays it (a zero-length transfer is
    /// still a transfer).
    pub fn transfer_seconds_scaled(&self, bytes: u64, bandwidth_factor: f64) -> f64 {
        assert!(
            bandwidth_factor > 0.0 && bandwidth_factor.is_finite(),
            "bandwidth factor must be finite and positive"
        );
        self.spec.latency_us * 1e-6 + bytes as f64 / (self.spec.link_gbps * 1e9 * bandwidth_factor)
    }

    /// Seconds for a ring all-gather over the devices marked `true` in
    /// `live` (all of them when `live` is `None`), where device `d`
    /// contributes `payload_bytes[d]` bytes, with bandwidth scaled by
    /// `bandwidth_factor`.
    ///
    /// Each of the `N - 1` synchronous steps over `N` live devices is
    /// priced by the largest chunk actually in flight during that
    /// step. In a ring all-gather every device forwards the chunk it
    /// most recently received on every step, so *all* chunks are in
    /// flight at every step and the per-step maximum is the global
    /// maximum payload — the total, `(N-1) × T(max)`, is therefore
    /// *exact* for the synchronous ring, not merely an upper bound. It
    /// is also a lower bound for any asynchronous schedule: the largest
    /// chunk must make `N-1` serial hops to reach every peer. One live
    /// device (or none) costs zero: there is nothing to exchange.
    ///
    /// Dead devices neither contribute chunks nor extend the ring, so a
    /// shrunken ring runs fewer steps — this is what the recovery path
    /// prices after a device failure. `live` all-`true` prices bitwise
    /// identically to `None`.
    pub fn allgather_seconds_among(
        &self,
        payload_bytes: &[u64],
        live: Option<&[bool]>,
        bandwidth_factor: f64,
    ) -> f64 {
        let chunks = live_chunks(payload_bytes, live);
        let steps = chunks.len().saturating_sub(1);
        // Price step by step: every live chunk is in flight on every
        // step (each device forwards what it just received), so each
        // step costs one hop of the largest live chunk. Summing the
        // steps keeps the model's shape honest and lets per-episode
        // bandwidth scaling slot in without special cases.
        let mut seconds = 0.0;
        for _step in 0..steps {
            let in_flight = chunks.iter().copied().max().unwrap_or(0);
            seconds += self.transfer_seconds_scaled(in_flight, bandwidth_factor);
        }
        seconds
    }

    /// Seconds for a pipelined chain broadcast of `bytes` across
    /// `hops` links (a line of `hops + 1` devices rooted at the
    /// source). The head of the stream pays one latency per hop; with
    /// chunks streaming behind it, the payload then crosses at line
    /// rate — `hops × latency + bytes / bandwidth`. Zero hops (the
    /// source alone) costs nothing. This is the intra-node fan-out
    /// phase of the hierarchical reduce: after the inter-node
    /// exchange, each node leader chains the foreign bytes through its
    /// `d - 1` peers. `bandwidth_factor` scales the byte term as in
    /// [`Interconnect::transfer_seconds_scaled`].
    pub fn broadcast_seconds(&self, bytes: u64, hops: usize, bandwidth_factor: f64) -> f64 {
        if hops == 0 {
            return 0.0;
        }
        hops as f64 * self.spec.latency_us * 1e-6
            + bytes as f64 / (self.spec.link_gbps * 1e9 * bandwidth_factor)
    }

    /// Total bytes a chain broadcast moves: the payload crosses every
    /// one of the `hops` links once.
    pub fn broadcast_bytes(&self, bytes: u64, hops: usize) -> u64 {
        bytes * hops as u64
    }

    /// Total bytes a ring all-gather over the devices marked `true` in
    /// `live` (all of them when `live` is `None`) moves across all
    /// links: every live payload crosses `live_count - 1` links.
    pub fn allgather_bytes_among(&self, payload_bytes: &[u64], live: Option<&[bool]>) -> u64 {
        let chunks = live_chunks(payload_bytes, live);
        let devices = chunks.len() as u64;
        if devices <= 1 {
            return 0;
        }
        chunks.iter().sum::<u64>() * (devices - 1)
    }
}

/// The payloads of live devices. `live` must match `payload_bytes` in
/// length when given.
fn live_chunks(payload_bytes: &[u64], live: Option<&[bool]>) -> Vec<u64> {
    match live {
        None => payload_bytes.to_vec(),
        Some(mask) => {
            assert_eq!(mask.len(), payload_bytes.len(), "one liveness flag per device");
            payload_bytes.iter().zip(mask).filter(|&(_, &l)| l).map(|(&p, _)| p).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie() -> Interconnect {
        Interconnect::new(InterconnectSpec::pcie3_x16())
    }

    #[test]
    fn single_device_exchanges_nothing() {
        assert_eq!(pcie().allgather_seconds_among(&[1 << 20], None, 1.0), 0.0);
        assert_eq!(pcie().allgather_seconds_among(&[], None, 1.0), 0.0);
        assert_eq!(pcie().allgather_bytes_among(&[1 << 20], None), 0);
    }

    #[test]
    fn transfer_cost_is_latency_plus_bandwidth_term() {
        let ic = pcie();
        let spec = ic.spec().clone();
        let secs = ic.transfer_seconds_scaled(12_000_000, 1.0);
        // 12 MB over 12 GB/s = 1 ms, plus the latency.
        let expect = spec.latency_us * 1e-6 + 1e-3;
        assert!((secs - expect).abs() < 1e-12, "{secs} vs {expect}");
        // Zero bytes still pays the latency.
        assert_eq!(ic.transfer_seconds_scaled(0, 1.0), spec.latency_us * 1e-6);
    }

    #[test]
    fn allgather_scales_with_steps_and_max_payload() {
        let ic = pcie();
        let two = ic.allgather_seconds_among(&[1000, 4000], None, 1.0);
        let four = ic.allgather_seconds_among(&[1000, 4000, 2000, 3000], None, 1.0);
        assert!((two - ic.transfer_seconds_scaled(4000, 1.0)).abs() < 1e-15);
        assert!((four - 3.0 * ic.transfer_seconds_scaled(4000, 1.0)).abs() < 1e-15);
        assert!(four > two, "more devices, more ring steps");
    }

    #[test]
    fn allgather_is_monotone_in_payload_and_devices() {
        let ic = pcie();
        let base = ic.allgather_seconds_among(&[1 << 16, 1 << 16], None, 1.0);
        assert!(ic.allgather_seconds_among(&[1 << 17, 1 << 16], None, 1.0) > base);
        assert!(ic.allgather_seconds_among(&[1 << 16, 1 << 16, 1 << 16], None, 1.0) > base);
    }

    #[test]
    fn skewed_payloads_price_every_step_by_the_chunk_in_flight() {
        // Regression for the per-step pricing semantics: with heavily
        // skewed payloads, brute-force the synchronous ring — chunk c
        // sits at ring position (c + s) mod n on step s, every chunk
        // moves every step, so each step costs one hop of the largest
        // chunk — and check the closed pricing matches it exactly.
        let ic = pcie();
        let payloads = [1u64 << 22, 16, 16, 16];
        let n = payloads.len();
        let mut expect = 0.0;
        for step in 0..n - 1 {
            let in_flight = (0..n)
                .map(|c| {
                    let _position = (c + step) % n; // every chunk is somewhere on the ring
                    payloads[c]
                })
                .max()
                .unwrap();
            expect += ic.transfer_seconds_scaled(in_flight, 1.0);
        }
        let got = ic.allgather_seconds_among(&payloads, None, 1.0);
        assert_eq!(got, expect);
        // (N-1) x T(max) is exact, not an upper bound: the max chunk
        // needs N-1 serial hops, which the synchronous schedule
        // achieves with no idle steps.
        assert!((got - 3.0 * ic.transfer_seconds_scaled(1 << 22, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn dead_devices_shrink_the_ring() {
        let ic = pcie();
        let payloads = [1u64 << 20, 1 << 22, 1 << 18, 1 << 19];
        // Killing the device with the largest payload removes its
        // chunk from every step AND removes one step.
        let live = [true, false, true, true];
        let among = ic.allgather_seconds_among(&payloads, Some(&live), 1.0);
        let expect = ic.allgather_seconds_among(&[1 << 20, 1 << 18, 1 << 19], None, 1.0);
        assert_eq!(among, expect);
        assert!(among < ic.allgather_seconds_among(&payloads, None, 1.0));
        assert_eq!(
            ic.allgather_bytes_among(&payloads, Some(&live)),
            ((1u64 << 20) + (1 << 18) + (1 << 19)) * 2
        );
        // One survivor exchanges nothing.
        let lone = [false, true, false, false];
        assert_eq!(ic.allgather_seconds_among(&payloads, Some(&lone), 1.0), 0.0);
        assert_eq!(ic.allgather_bytes_among(&payloads, Some(&lone)), 0);
    }

    #[test]
    fn all_live_factor_one_matches_full_ring_bitwise() {
        let ic = pcie();
        let payloads = [123_456u64, 987_654, 555_555];
        let live = [true, true, true];
        assert_eq!(
            ic.allgather_seconds_among(&payloads, Some(&live), 1.0),
            ic.allgather_seconds_among(&payloads, None, 1.0),
        );
    }

    #[test]
    fn degraded_bandwidth_stretches_the_byte_term_only() {
        let ic = pcie();
        let spec = ic.spec().clone();
        // Half bandwidth doubles the byte term; latency is untouched.
        let nominal = ic.transfer_seconds_scaled(12_000_000, 1.0);
        let degraded = ic.transfer_seconds_scaled(12_000_000, 0.5);
        let expect = spec.latency_us * 1e-6 + 2e-3;
        assert!((degraded - expect).abs() < 1e-12, "{degraded} vs {expect}");
        assert!(degraded > nominal);
        // And it propagates through the ring pricing.
        let payloads = [1u64 << 20, 1 << 20];
        assert!(
            ic.allgather_seconds_among(&payloads, None, 0.5)
                > ic.allgather_seconds_among(&payloads, None, 1.0)
        );
    }

    #[test]
    fn chain_broadcast_pays_one_latency_per_hop_and_streams_bytes_once() {
        let ic = pcie();
        let spec = ic.spec().clone();
        assert_eq!(ic.broadcast_seconds(1 << 20, 0, 1.0), 0.0, "the source alone moves nothing");
        assert_eq!(ic.broadcast_bytes(1 << 20, 0), 0);
        // 3 hops: three latencies, but the byte term appears once —
        // the stream pipelines through the chain at line rate.
        let secs = ic.broadcast_seconds(12_000_000, 3, 1.0);
        let expect = 3.0 * spec.latency_us * 1e-6 + 1e-3;
        assert!((secs - expect).abs() < 1e-12, "{secs} vs {expect}");
        // A degraded link stretches the byte term, never the latencies.
        let slow = ic.broadcast_seconds(12_000_000, 3, 0.5);
        assert!((slow - (expect + 1e-3)).abs() < 1e-12, "{slow}");
        assert_eq!(ic.broadcast_bytes(12_000_000, 3), 36_000_000);
        // A chain broadcast beats relaying the payload hop by serial
        // hop, which would pay the byte term per hop.
        assert!(secs < 3.0 * ic.transfer_seconds_scaled(12_000_000, 1.0));
    }

    #[test]
    fn nvlink_beats_pcie() {
        let nv = Interconnect::new(InterconnectSpec::nvlink1());
        let payloads = [1 << 22, 1 << 21, 1 << 22, 1 << 20];
        assert!(
            nv.allgather_seconds_among(&payloads, None, 1.0)
                < pcie().allgather_seconds_among(&payloads, None, 1.0)
        );
    }

    #[test]
    fn total_bytes_count_every_link_crossing() {
        assert_eq!(pcie().allgather_bytes_among(&[100, 200, 300], None), 600 * 2);
    }
}
