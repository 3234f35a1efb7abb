//! Per-device clocks advancing in batch steps.
//!
//! The fleet's timeline is bulk-synchronous: within a batch every
//! device runs its shard's kernels independently, then all devices
//! join an exchange before the next batch. A batch's wall time is
//! therefore the slowest device's kernel time plus the exchange;
//! faster devices accrue the difference as idle time, and every device
//! accrues the communication. The resulting ledger — busy / idle /
//! communication per device — is what the scaling study reports and
//! what flattens the speedup curve as devices grow.
//!
//! [`Fleet`] is a pure ledger: it prices nothing itself. Callers book
//! the compute span ([`Fleet::span`]) and the exchange priced by the
//! topology layer ([`Fleet::book_exchange`]), plus any transfers and
//! recovery penalties in between.

use serde::Serialize;

/// One device's slice of the fleet ledger.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DeviceReport {
    /// Device id.
    pub device: u64,
    /// Seconds spent running kernels.
    pub busy_seconds: f64,
    /// Seconds spent waiting for slower peers.
    pub idle_seconds: f64,
    /// Fraction of the fleet timeline spent busy (`busy / wall`).
    pub utilization: f64,
}

/// The fleet ledger after a run: the scaling study's raw material.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Number of devices.
    pub devices: usize,
    /// Total wall-clock seconds on the fleet timeline.
    pub wall_seconds: f64,
    /// Seconds of the timeline spent in interconnect exchanges.
    pub exchange_seconds: f64,
    /// Bytes moved across the interconnect, all links summed.
    pub exchange_bytes: u64,
    /// Number of sharded batches priced.
    pub batches: u64,
    /// Injected faults the timeline absorbed (device failures,
    /// straggler episodes, degraded-link episodes).
    pub faults: u64,
    /// Seconds of the timeline spent recovering from device failures
    /// (detection backoff plus the resharded retry spans).
    pub recovery_seconds: f64,
    /// Per-device compute seconds thrown away at failure barriers
    /// (work a failed device had finished that had to be re-run).
    pub lost_seconds: f64,
    /// Per-device busy/idle/utilization, indexed by device id.
    pub per_device: Vec<DeviceReport>,
}

/// N simulated devices sharing one bulk-synchronous timeline.
#[derive(Debug, Clone)]
pub struct Fleet {
    wall_seconds: f64,
    exchange_seconds: f64,
    exchange_bytes: u64,
    batches: u64,
    faults: u64,
    recovery_seconds: f64,
    lost_seconds: f64,
    busy: Vec<f64>,
}

impl Fleet {
    /// A ledger for `devices` devices with zeroed clocks.
    pub fn new(devices: usize) -> Self {
        assert!(devices >= 1, "a fleet needs at least one device");
        Fleet {
            wall_seconds: 0.0,
            exchange_seconds: 0.0,
            exchange_bytes: 0,
            batches: 0,
            faults: 0,
            recovery_seconds: 0.0,
            lost_seconds: 0.0,
            busy: vec![0.0; devices],
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.busy.len()
    }

    /// Seconds elapsed on the fleet timeline so far.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Book a pre-priced transfer (slab streaming load, seam halo)
    /// onto the timeline: wall and exchange ledgers advance by
    /// `seconds` and `bytes` joins the byte total, with no batch
    /// counted. The topology layer prices these on its own links and
    /// books them here so the fleet ledger stays the one source of
    /// truth for the timeline.
    pub fn book_transfer(&mut self, seconds: f64, bytes: u64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "booked transfer seconds must be finite and non-negative"
        );
        self.wall_seconds += seconds;
        self.exchange_seconds += seconds;
        self.exchange_bytes += bytes;
    }

    /// Book a pre-priced exchange (the topology layer's hierarchical
    /// reduce) onto the timeline and count the batch. The compute span
    /// must already have been booked via [`Fleet::span`]; together
    /// `span` + `book_exchange` advance the ledger by one batch.
    pub fn book_exchange(&mut self, seconds: f64, bytes: u64) {
        self.book_transfer(seconds, bytes);
        self.batches += 1;
    }

    /// Advance the timeline by one bulk-synchronous compute span
    /// without an exchange or a batch count: all devices run, the
    /// slowest sets the span, busy time accrues per device
    /// (`kernel_seconds[d]` is device `d`'s modeled time, zero if it
    /// launched nothing). The recovery path uses it for the doomed
    /// first attempt of a failure batch and for the resharded retry
    /// alike. Returns the span seconds.
    pub fn span(&mut self, kernel_seconds: &[f64]) -> f64 {
        assert_eq!(kernel_seconds.len(), self.devices(), "one kernel time per device");
        let slowest = kernel_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
        for (b, &k) in self.busy.iter_mut().zip(kernel_seconds) {
            *b += k;
        }
        self.wall_seconds += slowest;
        slowest
    }

    /// Price a recovery penalty: `seconds` of wall time every device
    /// sits through (failure detection at the barrier, communicator
    /// re-initialization) with no compute and no exchange.
    pub fn penalty(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "penalties only add time");
        self.wall_seconds += seconds;
        self.recovery_seconds += seconds;
    }

    /// Record `seconds` of per-device compute thrown away at a failure
    /// barrier (finished work that must be re-run elsewhere).
    pub fn record_lost(&mut self, seconds: f64) {
        self.lost_seconds += seconds;
    }

    /// Count one absorbed fault (failure, straggler episode, or
    /// degraded-link episode) in the ledger.
    pub fn record_fault(&mut self) {
        self.faults += 1;
    }

    /// Count retry work (slab re-loads and resharded compute) as
    /// recovery time in the ledger; the wall advance itself comes from
    /// the bookings that priced it.
    pub fn record_recovery(&mut self, seconds: f64) {
        self.recovery_seconds += seconds;
    }

    /// Jump the wall clock forward to `seconds` — used when resuming
    /// from a checkpoint, so spans priced after the resume start where
    /// the interrupted run left off. The per-device busy ledger is not
    /// reconstructed (a resumed run's utilization report covers only
    /// the post-resume stretch). No-op if the clock is already past.
    pub fn fast_forward_to(&mut self, seconds: f64) {
        if seconds > self.wall_seconds {
            self.wall_seconds = seconds;
        }
    }

    /// Snapshot the ledger. Idle is everything on the timeline a
    /// device did not spend computing — waiting for slower peers and
    /// sitting through exchanges both count against utilization.
    pub fn report(&self) -> FleetReport {
        let per_device = self
            .busy
            .iter()
            .enumerate()
            .map(|(d, &busy)| DeviceReport {
                device: d as u64,
                busy_seconds: busy,
                idle_seconds: (self.wall_seconds - busy).max(0.0),
                utilization: if self.wall_seconds > 0.0 { busy / self.wall_seconds } else { 0.0 },
            })
            .collect();
        FleetReport {
            devices: self.devices(),
            wall_seconds: self.wall_seconds,
            exchange_seconds: self.exchange_seconds,
            exchange_bytes: self.exchange_bytes,
            batches: self.batches,
            faults: self.faults,
            recovery_seconds: self.recovery_seconds,
            lost_seconds: self.lost_seconds,
            per_device,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interconnect, InterconnectSpec};

    fn fleet(devices: usize) -> Fleet {
        Fleet::new(devices)
    }

    /// One batch the way the driver books it: the compute span, then a
    /// PCIe ring all-gather over the live devices at `bandwidth` times
    /// the nominal link rate. Returns (span, exchange seconds, bytes).
    fn batch(
        f: &mut Fleet,
        kernel_seconds: &[f64],
        payloads: &[u64],
        live: Option<&[bool]>,
        bandwidth: f64,
    ) -> (f64, f64, u64) {
        let ic = Interconnect::new(InterconnectSpec::pcie3_x16());
        let span = f.span(kernel_seconds);
        let seconds = ic.allgather_seconds_among(payloads, live, bandwidth);
        let bytes = ic.allgather_bytes_among(payloads, live);
        f.book_exchange(seconds, bytes);
        (span, seconds, bytes)
    }

    #[test]
    fn single_device_batch_is_pure_kernel_time() {
        let mut f = fleet(1);
        let (span, exchange, bytes) = batch(&mut f, &[0.25], &[1 << 20], None, 1.0);
        assert_eq!(span, 0.25);
        assert_eq!(exchange, 0.0);
        assert_eq!(bytes, 0);
        assert_eq!(f.wall_seconds(), 0.25);
        let r = f.report();
        assert_eq!(r.per_device[0].utilization, 1.0);
        assert_eq!(r.per_device[0].idle_seconds, 0.0);
    }

    #[test]
    fn slowest_device_sets_the_batch_span() {
        let mut f = fleet(2);
        let (span, exchange, _) = batch(&mut f, &[0.1, 0.3], &[0, 0], None, 1.0);
        assert_eq!(span, 0.3);
        // Zero payloads still pay the all-gather latency.
        assert!(exchange > 0.0);
        assert_eq!(f.wall_seconds(), 0.3 + exchange);
        let r = f.report();
        assert!(r.per_device[0].idle_seconds > r.per_device[1].idle_seconds);
        assert!(r.per_device[1].utilization > r.per_device[0].utilization);
        assert!(r.per_device[1].utilization < 1.0, "exchange time counts against utilization");
    }

    #[test]
    fn ledger_accumulates_across_batches() {
        let mut f = fleet(4);
        let (s1, e1, b1) =
            batch(&mut f, &[0.1, 0.2, 0.15, 0.05], &[1000, 2000, 1500, 500], None, 1.0);
        let (s2, e2, b2) =
            batch(&mut f, &[0.2, 0.1, 0.05, 0.15], &[500, 1000, 250, 750], None, 1.0);
        let r = f.report();
        assert_eq!(r.batches, 2);
        assert!((r.wall_seconds - (s1 + e1 + s2 + e2)).abs() < 1e-15);
        assert_eq!(r.exchange_bytes, b1 + b2);
        // Both batches' busy time lands on the right device.
        assert!((r.per_device[0].busy_seconds - 0.3).abs() < 1e-15);
        assert!((r.per_device[3].busy_seconds - 0.2).abs() < 1e-15);
    }

    #[test]
    fn report_serializes() {
        let mut f = fleet(2);
        batch(&mut f, &[0.1, 0.2], &[100, 200], None, 1.0);
        let text = serde_json::to_string(&f.report()).expect("serializes");
        assert!(text.contains("\"utilization\""));
        assert!(text.contains("\"exchange_bytes\""));
    }

    #[test]
    #[should_panic(expected = "one kernel time per device")]
    fn mismatched_kernel_vector_is_rejected() {
        fleet(2).span(&[0.1]);
    }

    #[test]
    fn all_live_exchange_books_the_full_ring_ledger_bitwise() {
        let k = [0.1, 0.3, 0.2];
        let p = [1u64 << 20, 1 << 19, 1 << 18];
        let mut a = fleet(3);
        let mut b = fleet(3);
        let ca = batch(&mut a, &k, &p, None, 1.0);
        let cb = batch(&mut b, &k, &p, Some(&[true, true, true]), 1.0);
        assert_eq!(ca, cb);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn dead_device_leaves_the_exchange_ring() {
        let mut healthy = fleet(3);
        let mut faulty = fleet(3);
        let p = [1u64 << 20, 1 << 20, 1 << 20];
        let (_, eh, bh) = batch(&mut healthy, &[0.1, 0.1, 0.1], &p, None, 1.0);
        // Device 2 dead: no kernel time, no chunk, a 2-ring exchange.
        let (_, ef, bf) =
            batch(&mut faulty, &[0.15, 0.15, 0.0], &p, Some(&[true, true, false]), 1.0);
        assert!(ef < eh, "smaller ring, fewer steps");
        assert!(bf < bh);
        assert_eq!(faulty.report().per_device[2].busy_seconds, 0.0);
    }

    #[test]
    fn recovery_primitives_feed_the_ledger() {
        let mut f = fleet(2);
        // Doomed attempt: compute happens, exchange never does.
        let attempt = f.span(&[0.2, 0.1]);
        assert_eq!(attempt, 0.2);
        f.record_lost(0.1);
        f.record_fault();
        // Detection + communicator re-init.
        f.penalty(0.5);
        // Resharded retry on the survivor, then the batch completes.
        let retry = f.span(&[0.15, 0.0]);
        f.record_recovery(retry);
        let (_, exchange, _) = batch(&mut f, &[0.0, 0.0], &[1 << 10, 0], Some(&[true, false]), 1.0);
        assert_eq!(exchange, 0.0, "one survivor exchanges nothing");
        let r = f.report();
        assert_eq!(r.faults, 1);
        assert_eq!(r.batches, 1);
        assert!((r.recovery_seconds - (0.5 + 0.15)).abs() < 1e-15);
        assert_eq!(r.lost_seconds, 0.1);
        assert!((r.wall_seconds - (0.2 + 0.5 + 0.15)).abs() < 1e-15);
        // Busy + idle still tiles the timeline per device.
        for d in &r.per_device {
            assert!((d.busy_seconds + d.idle_seconds - r.wall_seconds).abs() < 1e-12);
        }
    }

    #[test]
    fn booked_transfers_add_time_and_bytes_but_no_batch() {
        let mut f = fleet(2);
        let (_, exchange, bytes) = batch(&mut f, &[0.1, 0.2], &[1 << 20, 1 << 19], None, 1.0);
        f.book_transfer(0.5, 100);
        let r = f.report();
        assert_eq!(r.batches, 1);
        assert_eq!(r.exchange_bytes, bytes + 100);
        assert!((r.exchange_seconds - (exchange + 0.5)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_booked_transfer_is_a_bug() {
        fleet(2).book_transfer(-0.1, 0);
    }

    #[test]
    fn fast_forward_only_moves_the_clock_forward() {
        let mut f = fleet(2);
        batch(&mut f, &[0.1, 0.1], &[0, 0], None, 1.0);
        let wall = f.wall_seconds();
        f.fast_forward_to(wall - 0.05);
        assert_eq!(f.wall_seconds(), wall, "never rewinds");
        f.fast_forward_to(wall + 1.0);
        assert_eq!(f.wall_seconds(), wall + 1.0);
    }

    #[test]
    fn degraded_link_stretches_only_the_exchange() {
        let k = [0.1, 0.1];
        let p = [1u64 << 22, 1 << 22];
        let mut nominal = fleet(2);
        let mut degraded = fleet(2);
        let (sn, en, bn) = batch(&mut nominal, &k, &p, None, 1.0);
        let (sd, ed, bd) = batch(&mut degraded, &k, &p, None, 0.5);
        assert_eq!(sd, sn);
        assert!(ed > en);
        assert_eq!(bd, bn, "bytes moved are bytes moved");
    }
}
