//! Axial slab decomposition: volumes larger than one device's memory.
//!
//! The flat fleet assumes every device holds the full image and error
//! sinogram. A [`SlabPlan`] drops that assumption by splitting the
//! SuperVoxel-row axis into contiguous bands ("slabs"): each device
//! only needs its current slab's image band and error-sinogram rows
//! resident, so a volume `slabs` times larger than device memory still
//! reconstructs. Two timeline costs follow (the *functional* result is
//! untouched — slabs only change where data lives):
//!
//! - **Streaming loads**: when a device's batch touches a slab it does
//!   not hold, the slab streams in over the intra-node link
//!   ([`SlabStreamer`] tracks per-device residency and counts loads).
//!   With at least as many devices as slabs, the slab-aware shard pins
//!   each slab to a device group and every device pays exactly one
//!   initial load; with more slabs than devices, slabs round-robin
//!   over devices and reloads recur — that is the streaming regime.
//! - **Seam halos**: SVs in the boundary row of a slab read neighbor
//!   voxels owned by the adjacent slab, so each batch touching a seam
//!   row pays a halo transfer of one boundary row per seam SV.

/// Partition of the SV-row axis into `slabs` contiguous bands.
#[derive(Debug, Clone, PartialEq)]
pub struct SlabPlan {
    /// `row_slab[sv_row]` = slab owning that row of SVs.
    row_slab: Vec<usize>,
    slabs: usize,
}

impl SlabPlan {
    /// Split `sv_rows` SV rows into `slabs` near-even contiguous
    /// bands. A request for more slabs than rows clamps to one row per
    /// slab (a slab cannot be thinner than one SV row).
    pub fn new(sv_rows: usize, slabs: usize) -> Self {
        assert!(sv_rows >= 1, "a tiling has at least one SV row");
        assert!(slabs >= 1, "a volume has at least one slab");
        let slabs = slabs.min(sv_rows);
        let row_slab = (0..sv_rows).map(|r| r * slabs / sv_rows).collect();
        SlabPlan { row_slab, slabs }
    }

    /// Number of slabs after clamping.
    pub fn slabs(&self) -> usize {
        self.slabs
    }

    /// Number of SV rows covered.
    pub fn sv_rows(&self) -> usize {
        self.row_slab.len()
    }

    /// The slab owning SV row `sv_row`.
    pub fn slab_of_row(&self, sv_row: usize) -> usize {
        self.row_slab[sv_row]
    }

    /// Is `sv_row` a seam row — adjacent (above or below) to a row
    /// owned by a different slab? Seam-row SVs pay a halo transfer
    /// every batch that updates them.
    pub fn is_seam_row(&self, sv_row: usize) -> bool {
        let here = self.row_slab[sv_row];
        let below = sv_row.checked_sub(1).map(|r| self.row_slab[r]);
        let above = self.row_slab.get(sv_row + 1).copied();
        below.is_some_and(|s| s != here) || above.is_some_and(|s| s != here)
    }

    /// The device group holding `slab` resident, as a half-open range
    /// of global device ids. With `devices >= slabs` the groups are
    /// near-even contiguous partitions of the fleet (each device
    /// serves one slab); with fewer devices than slabs, slabs
    /// round-robin over single devices and residency churns — the
    /// streaming regime.
    pub fn device_group(&self, slab: usize, devices: usize) -> (usize, usize) {
        assert!(slab < self.slabs, "slab {slab} outside the plan");
        assert!(devices >= 1, "a fleet needs at least one device");
        if devices >= self.slabs {
            (slab * devices / self.slabs, (slab + 1) * devices / self.slabs)
        } else {
            let d = slab % devices;
            (d, d + 1)
        }
    }
}

/// Per-device slab residency: counts the streaming loads a run pays.
#[derive(Debug, Clone)]
pub struct SlabStreamer {
    resident: Vec<Option<usize>>,
    slab_bytes: u64,
    loads: u64,
}

impl SlabStreamer {
    /// `devices` devices, all empty, each `slab_bytes` big per slab
    /// (the image band plus the error-sinogram rows it projects to).
    pub fn new(devices: usize, slab_bytes: u64) -> Self {
        SlabStreamer { resident: vec![None; devices], slab_bytes, loads: 0 }
    }

    /// Bytes one slab load streams.
    pub fn slab_bytes(&self) -> u64 {
        self.slab_bytes
    }

    /// Loads charged so far.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// The slab `device` currently holds.
    pub fn resident(&self, device: usize) -> Option<usize> {
        self.resident[device]
    }

    /// Reinstall `slab` as what `device` holds, charging no load —
    /// resuming a checkpointed run, whose devices already paid for it.
    pub fn set_resident(&mut self, device: usize, slab: Option<usize>) {
        self.resident[device] = slab;
    }

    /// Note that `device` is about to work on `slab`. Returns `true`
    /// (and charges a load) if the slab had to stream in — on first
    /// touch or after the device hosted a different slab.
    pub fn touch(&mut self, device: usize, slab: usize) -> bool {
        if self.resident[device] == Some(slab) {
            return false;
        }
        self.resident[device] = Some(slab);
        self.loads += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bands_are_contiguous_and_near_even() {
        let plan = SlabPlan::new(8, 3);
        let slabs: Vec<usize> = (0..8).map(|r| plan.slab_of_row(r)).collect();
        assert_eq!(slabs, [0, 0, 0, 1, 1, 1, 2, 2]);
        assert_eq!(plan.slabs(), 3);
    }

    #[test]
    fn one_slab_means_no_seams() {
        let plan = SlabPlan::new(6, 1);
        assert!((0..6).all(|r| !plan.is_seam_row(r)));
    }

    #[test]
    fn seam_rows_flank_every_boundary() {
        let plan = SlabPlan::new(8, 4);
        // Bands of 2: each of the three boundaries contributes two
        // seam rows, leaving only the outermost rows seamless.
        let seams: Vec<usize> = (0..8).filter(|&r| plan.is_seam_row(r)).collect();
        assert_eq!(seams, [1, 2, 3, 4, 5, 6]);
        let sparse = SlabPlan::new(8, 2);
        let seams: Vec<usize> = (0..8).filter(|&r| sparse.is_seam_row(r)).collect();
        assert_eq!(seams, [3, 4]);
    }

    #[test]
    fn oversubscribed_slab_request_clamps_to_rows() {
        let plan = SlabPlan::new(4, 9);
        assert_eq!(plan.slabs(), 4);
        assert_eq!((0..4).map(|r| plan.slab_of_row(r)).collect::<Vec<_>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn device_groups_partition_the_fleet_when_devices_suffice() {
        let plan = SlabPlan::new(8, 3);
        let groups: Vec<(usize, usize)> = (0..3).map(|s| plan.device_group(s, 8)).collect();
        assert_eq!(groups, [(0, 2), (2, 5), (5, 8)]);
        // Exact cover, no overlap.
        assert!(groups.windows(2).all(|w| w[0].1 == w[1].0));
        assert_eq!(groups[0].0, 0);
        assert_eq!(groups[2].1, 8);
    }

    #[test]
    fn scarce_devices_round_robin_the_slabs() {
        let plan = SlabPlan::new(8, 8);
        assert_eq!(plan.device_group(0, 3), (0, 1));
        assert_eq!(plan.device_group(1, 3), (1, 2));
        assert_eq!(plan.device_group(2, 3), (2, 3));
        assert_eq!(plan.device_group(3, 3), (0, 1), "slab 3 wraps back to device 0");
    }

    #[test]
    fn streamer_charges_first_touch_and_switches_only() {
        let mut s = SlabStreamer::new(2, 1 << 20);
        assert!(s.touch(0, 0), "first touch streams the slab in");
        assert!(!s.touch(0, 0), "resident slab is free");
        assert!(s.touch(0, 1), "switching slabs streams");
        assert!(s.touch(0, 0), "and switching back streams again");
        assert!(s.touch(1, 1));
        assert_eq!(s.loads(), 4);
        assert_eq!(s.resident(0), Some(0));
        assert_eq!(s.resident(1), Some(1));
        // Reinstalled residency (a resume) is free until it changes.
        s.set_resident(1, Some(0));
        assert!(!s.touch(1, 0));
        s.set_resident(0, None);
        assert_eq!(s.loads(), 4);
        assert!(s.touch(0, 0), "an emptied device loads again");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_row_lands_in_exactly_one_monotone_band(
            rows in 1usize..64,
            slabs in 1usize..16,
        ) {
            let plan = SlabPlan::new(rows, slabs);
            let effective = slabs.min(rows);
            prop_assert_eq!(plan.slabs(), effective);
            prop_assert_eq!(plan.slab_of_row(0), 0);
            prop_assert_eq!(plan.slab_of_row(rows - 1), effective - 1);
            for r in 1..rows {
                let (a, b) = (plan.slab_of_row(r - 1), plan.slab_of_row(r));
                prop_assert!(b == a || b == a + 1, "bands must be contiguous and monotone");
            }
        }

        #[test]
        fn device_groups_cover_without_overlap(
            rows in 1usize..64,
            slabs in 1usize..16,
            devices in 1usize..32,
        ) {
            let plan = SlabPlan::new(rows, slabs);
            let mut owned = vec![0usize; devices];
            for s in 0..plan.slabs() {
                let (lo, hi) = plan.device_group(s, devices);
                prop_assert!(lo < hi && hi <= devices);
                for o in &mut owned[lo..hi] {
                    *o += 1;
                }
            }
            if devices >= plan.slabs() {
                // Abundant devices: the groups tile the fleet exactly.
                prop_assert!(owned.iter().all(|&c| c == 1));
            } else {
                // Scarce devices: every device still hosts something.
                prop_assert!(owned.iter().all(|&c| c >= 1));
            }
        }
    }
}
