//! Block scheduling across SMMs.
//!
//! A kernel launch dispatches its blocks to SMMs; each SMM holds at
//! most `blocks_per_smm` (from the occupancy calculation) concurrently
//! and picks up the next waiting block as one retires. Kernel time is
//! the makespan of this greedy list schedule — which is exactly where
//! load imbalance from zero-skipping (static vs dynamic voxel
//! distribution) and underfilled batches (the batch threshold) shows
//! up in the paper's Table 3.
//!
//! The schedule keeps its slots in a binary min-heap keyed by (finish
//! time under [`f64::total_cmp`], slot index), so each block costs
//! `O(log slots)`: a harness batch's 1280 blocks on 192 slots take
//! about 1280 x 8 comparisons, not 1280 x 192. The heap's top is the
//! first earliest-finishing slot a linear scan would pick, so every
//! slot adds the same blocks in the same order, and the makespan is
//! the same bit for bit.

use crate::occupancy::Occupancy;
use crate::spec::GpuSpec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `x`'s place in the order [`f64::total_cmp`] sorts by, as an integer
/// (IEEE 754 `totalOrder`: the sign-magnitude bits made two's
/// complement), so a NaN block time, which a timing-model bug could
/// produce, orders instead of panicking.
fn total_rank(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Every slot's finish time, by slot index, of the greedy list
/// schedule of `block_times` onto `slots.min(block_times.len())`
/// executors: each block goes to the earliest-finishing slot, the
/// lowest index among ties — the heap's top under (rank, index).
fn schedule(block_times: &[f64], slots: usize) -> Vec<f64> {
    let mut finish = vec![0.0f64; slots.min(block_times.len())];
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> =
        (0..finish.len()).map(|slot| Reverse((total_rank(0.0), slot))).collect();
    for &t in block_times {
        let mut top = heap.peek_mut().expect("slots >= 1");
        let slot = top.0 .1;
        finish[slot] += t;
        top.0 .0 = total_rank(finish[slot]);
    }
    finish
}

/// Makespan of greedy list scheduling of `block_times` onto
/// `slots` concurrent executors (seconds in, seconds out).
pub fn makespan(block_times: &[f64], slots: usize) -> f64 {
    assert!(slots >= 1);
    // `f64::max` would silently drop a NaN slot; take the max under the
    // total order instead so a poisoned schedule stays visible.
    schedule(block_times, slots).into_iter().max_by(f64::total_cmp).unwrap_or(0.0)
}

/// Dispatches kernel launches on a GPU: turns per-block durations plus
/// occupancy into a launch makespan.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    spec: GpuSpec,
}

impl Dispatcher {
    /// A dispatcher for the given machine.
    pub fn new(spec: GpuSpec) -> Self {
        Dispatcher { spec }
    }

    /// The machine.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Concurrent block slots across the whole GPU for a kernel with
    /// the given occupancy.
    pub fn concurrent_blocks(&self, occ: &Occupancy) -> usize {
        (occ.blocks_per_smm as usize).max(1) * self.spec.num_smm as usize
    }

    /// Makespan (seconds) of one kernel launch, including the fixed
    /// launch overhead.
    pub fn launch(&self, block_times: &[f64], occ: &Occupancy) -> f64 {
        self.spec.kernel_launch_us * 1e-6 + makespan(block_times, self.concurrent_blocks(occ))
    }

    /// Utilization of a launch: total block work / (makespan x slots).
    /// 1.0 means no idle slots; low values signal the underutilization
    /// the paper's batch threshold avoids.
    pub fn utilization(&self, block_times: &[f64], occ: &Occupancy) -> f64 {
        self.launch_stats(block_times, occ).utilization
    }

    /// Seconds and utilization of one launch from a single makespan
    /// pass (the telemetry path needs both; recomputing the list
    /// schedule twice would double the scheduling cost per launch).
    pub fn launch_stats(&self, block_times: &[f64], occ: &Occupancy) -> LaunchStats {
        let slots = self.concurrent_blocks(occ);
        let ms = makespan(block_times, slots);
        let total: f64 = block_times.iter().sum();
        LaunchStats {
            seconds: self.spec.kernel_launch_us * 1e-6 + ms,
            utilization: if ms == 0.0 { 1.0 } else { total / (ms * slots as f64) },
        }
    }
}

/// Outcome of scheduling one launch (see [`Dispatcher::launch_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchStats {
    /// Wall-clock seconds including the fixed launch overhead.
    pub seconds: f64,
    /// Block-slot utilization (1 = no idle slots).
    pub utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::{occupancy, BlockResources};

    /// The reference schedule: per block, a linear scan for the first
    /// earliest-finishing slot under `total_cmp`. Returns every slot's
    /// finish time, by slot index.
    fn schedule_linear(block_times: &[f64], slots: usize) -> Vec<f64> {
        let mut finish = vec![0.0f64; slots.min(block_times.len())];
        for &t in block_times {
            let (idx, _) =
                finish.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).expect("slots >= 1");
            finish[idx] += t;
        }
        finish
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn ties_go_to_the_lowest_slot() {
        // Equal finishes, -0.0 below +0.0, and an infinite slot: each
        // block lands where the linear scan puts it.
        for (times, slots) in [
            (vec![1.0, 1.0, 1.0, 1.0, 2.0, 0.5], 3),
            (vec![-0.0, 0.0, -0.0, 1.0, 1.0], 2),
            (vec![f64::INFINITY, 1.0, f64::NEG_INFINITY, 3.0, 2.0], 2),
            (vec![2.0, 1.0], 5),
        ] {
            assert_eq!(
                bits(&schedule(&times, slots)),
                bits(&schedule_linear(&times, slots)),
                "{times:?} on {slots}"
            );
        }
    }

    #[test]
    fn single_slot_sums() {
        assert_eq!(makespan(&[1.0, 2.0, 3.0], 1), 6.0);
    }

    #[test]
    fn perfectly_parallel() {
        assert_eq!(makespan(&[1.0; 8], 8), 1.0);
        assert_eq!(makespan(&[1.0; 8], 16), 1.0);
    }

    #[test]
    fn imbalance_dominates() {
        // One long block serializes the tail.
        let times = [10.0, 1.0, 1.0, 1.0];
        assert_eq!(makespan(&times, 4), 10.0);
    }

    #[test]
    fn greedy_two_slots() {
        // 3,3,2,2 on 2 slots -> 5.
        assert_eq!(makespan(&[3.0, 3.0, 2.0, 2.0], 2), 5.0);
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(makespan(&[], 4), 0.0);
    }

    #[test]
    fn nan_block_time_does_not_panic() {
        // A NaN duration used to panic inside `partial_cmp(..).unwrap()`
        // while picking the earliest-finishing slot. It must instead
        // propagate as a NaN makespan the caller can observe.
        let ms = makespan(&[1.0, f64::NAN, 2.0], 2);
        assert!(ms.is_nan());
        // Finite inputs around it still schedule normally.
        assert_eq!(makespan(&[f64::INFINITY, 1.0], 2), f64::INFINITY);
    }

    #[test]
    fn dispatcher_accounts_launch_overhead() {
        let d = Dispatcher::new(GpuSpec::titan_x_maxwell());
        let occ = occupancy(
            d.spec(),
            BlockResources { threads: 256, regs_per_thread: 32, shared_mem: 0 },
        );
        let t = d.launch(&[], &occ);
        assert!((t - 6.0e-6).abs() < 1e-12);
        // 8 blocks/SMM x 24 SMMs = 192 concurrent blocks.
        assert_eq!(d.concurrent_blocks(&occ), 192);
    }

    #[test]
    fn utilization_detects_underfilled_launches() {
        let d = Dispatcher::new(GpuSpec::titan_x_maxwell());
        let occ = occupancy(
            d.spec(),
            BlockResources { threads: 256, regs_per_thread: 32, shared_mem: 0 },
        );
        // 8 equal blocks on 192 slots: utilization is tiny.
        let low = d.utilization(&[1.0; 8], &occ);
        let high = d.utilization(&[1.0; 192], &occ);
        assert!(low < 0.1);
        assert!((high - 1.0).abs() < 1e-9);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A block time drawn as `(pick, value)`: picks 0-3 give the
        /// special values (`±0.0`, an infinity, NaN), the rest a value
        /// from a short list, negatives included, so equal finishes
        /// recur. A case holds one infinity sign and one NaN, because
        /// Rust fixes the sign of neither the NaN `inf + -inf` makes
        /// nor the sum of two NaNs of different signs, and a slot's NaN
        /// sign decides where `total_cmp` puts it: past that point no
        /// schedule is defined bit for bit.
        fn block_time((pick, v): (u8, u8), inf: f64) -> f64 {
            match pick {
                0 => 0.0,
                1 => -0.0,
                2 => inf,
                3 => f64::NAN,
                _ => [0.25, 0.5, 1.0, 1.5, 3.0, 1e-9, 7.75, -0.5, -2.0][v as usize % 9],
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every slot ends with the linear scan's finish time, bit
            /// for bit, and the makespan is the max of them — with
            /// ties, NaN, infinities and more slots than blocks.
            #[test]
            fn heap_schedule_is_the_linear_scans(
                raw in prop::collection::vec((0u8..16, 0u8..=255), 0..80),
                slots in 1usize..40,
                negative_inf in prop::bool::ANY,
            ) {
                let inf = if negative_inf { f64::NEG_INFINITY } else { f64::INFINITY };
                let times: Vec<f64> = raw.into_iter().map(|r| block_time(r, inf)).collect();
                let want = schedule_linear(&times, slots);
                prop_assert_eq!(bits(&schedule(&times, slots)), bits(&want));
                let max = want.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0);
                prop_assert_eq!(makespan(&times, slots).to_bits(), max.to_bits());
            }
        }
    }
}
