//! Sharding planner: partition SVs across devices by modeled cost.
//!
//! The planner is cost-agnostic — callers hand it one modeled cost per
//! SV (crates/core derives these by running each SV's plan through the
//! GPU work model as a one-SV batch) and it produces a deterministic
//! longest-processing-time (LPT) partition. LPT carries the classic
//! makespan guarantee `max_load <= total/N + max_cost`, which is the
//! load-balance bound the property tests assert.

/// A deterministic assignment of SVs to devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// `assignment[sv]` = device owning that SV.
    assignment: Vec<usize>,
    /// Summed modeled cost per device.
    loads: Vec<f64>,
}

impl ShardPlan {
    /// Greedy LPT partition of `costs` (indexed by SV id) over
    /// `devices` devices: [`ShardPlan::balanced_within`] with every SV
    /// free to land on any device.
    pub fn balanced(costs: &[f64], devices: usize) -> Self {
        Self::balanced_within(costs, devices, &vec![(0, devices); costs.len()])
    }

    /// Greedy LPT partition of `costs` (indexed by SV id) over
    /// `devices` devices, SV `sv` landing only on a device in the
    /// half-open range `allowed[sv]`: visit SVs in decreasing cost
    /// order and give each to the least-loaded device of its range.
    /// Ties break deterministically — equal costs go in SV-id order,
    /// equal loads to the lowest device id — so the plan is a pure
    /// function of its inputs. The topology layer's slab-aware sharding
    /// uses the ranges to keep each slab's SVs within the device group
    /// holding that slab resident.
    pub fn balanced_within(costs: &[f64], devices: usize, allowed: &[(usize, usize)]) -> Self {
        assert!(devices >= 1, "a shard plan needs at least one device");
        assert_eq!(allowed.len(), costs.len(), "one device range per SV");
        assert!(
            costs.iter().all(|c| c.is_finite() && *c >= 0.0),
            "SV costs must be finite and non-negative"
        );
        assert!(
            allowed.iter().all(|&(s, e)| s < e && e <= devices),
            "device ranges must be non-empty and within the fleet"
        );
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));

        let mut assignment = vec![0usize; costs.len()];
        let mut loads = vec![0.0f64; devices];
        for sv in order {
            let (start, end) = allowed[sv];
            let device = loads[start..end]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.total_cmp(b))
                .map(|(d, _)| start + d)
                .unwrap();
            assignment[sv] = device;
            loads[device] += costs[sv];
        }
        ShardPlan { assignment, loads }
    }

    /// Number of devices the plan spans.
    pub fn devices(&self) -> usize {
        self.loads.len()
    }

    /// Number of SVs the plan covers.
    pub fn svs(&self) -> usize {
        self.assignment.len()
    }

    /// The device owning `sv`.
    pub fn device_of(&self, sv: usize) -> usize {
        self.assignment[sv]
    }

    /// Summed modeled cost assigned to `device`.
    pub fn load(&self, device: usize) -> f64 {
        self.loads[device]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The LPT makespan bound: `total/N + max_cost`.
    fn balance_bound(costs: &[f64], devices: usize) -> f64 {
        let total: f64 = costs.iter().sum();
        let max = costs.iter().fold(0.0f64, |a, &b| a.max(b));
        total / devices as f64 + max
    }

    #[test]
    fn single_device_takes_everything() {
        let costs = [3.0, 1.0, 2.0];
        let plan = ShardPlan::balanced(&costs, 1);
        assert_eq!(plan.devices(), 1);
        assert!((0..3).all(|sv| plan.device_of(sv) == 0));
        assert_eq!(plan.load(0), 6.0);
    }

    #[test]
    fn equal_costs_round_robin_by_sv_id() {
        let plan = ShardPlan::balanced(&[1.0; 6], 3);
        // Decreasing-cost order is SV-id order here; least-loaded
        // tie-break is lowest device id, so the assignment cycles.
        assert_eq!((0..6).map(|sv| plan.device_of(sv)).collect::<Vec<_>>(), [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn constrained_svs_stay_inside_their_group() {
        // SVs 0..3 may only use devices 0..2, SVs 3..6 only 2..4 —
        // the slab-aware shape (one device group per slab).
        let costs = [4.0, 1.0, 3.0, 2.0, 2.0, 5.0];
        let allowed = [(0, 2), (0, 2), (0, 2), (2, 4), (2, 4), (2, 4)];
        let plan = ShardPlan::balanced_within(&costs, 4, &allowed);
        for (sv, &(s, e)) in allowed.iter().enumerate() {
            let d = plan.device_of(sv);
            assert!(d >= s && d < e, "sv {sv} escaped its group: device {d}");
        }
        // Within a group, LPT still balances: the 2-device group with
        // costs {2, 2, 5} cannot put everything on one device.
        assert!(plan.load(2) > 0.0 && plan.load(3) > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty and within the fleet")]
    fn out_of_range_group_is_a_bug() {
        ShardPlan::balanced_within(&[1.0], 2, &[(1, 3)]);
    }

    #[test]
    fn empty_cost_set_yields_empty_plan() {
        let plan = ShardPlan::balanced(&[], 4);
        assert_eq!(plan.svs(), 0);
        assert_eq!(plan.devices(), 4);
        assert!((0..4).all(|d| plan.load(d) == 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_sv_assigned_to_exactly_one_device(
            raw in prop::collection::vec(0u32..10_000, 1..200),
            devices in 1usize..=8,
        ) {
            let costs: Vec<f64> = raw.iter().map(|&c| c as f64 / 16.0).collect();
            let plan = ShardPlan::balanced(&costs, devices);
            // assignment[sv] is total (one device per SV, by type); it
            // must also be in range, and the loads must be what the
            // assignment puts on each device (the costs are sixteenths,
            // so every sum is exact in any order).
            prop_assert!((0..costs.len()).all(|sv| plan.device_of(sv) < devices));
            for d in 0..devices {
                let mine: f64 = (0..costs.len()).filter(|&sv| plan.device_of(sv) == d)
                    .map(|sv| costs[sv]).sum();
                prop_assert_eq!(plan.load(d).to_bits(), mine.to_bits());
            }
        }

        #[test]
        fn lpt_respects_makespan_bound(
            raw in prop::collection::vec(0u32..10_000, 1..200),
            devices in 1usize..=8,
        ) {
            let costs: Vec<f64> = raw.iter().map(|&c| c as f64 / 16.0).collect();
            let plan = ShardPlan::balanced(&costs, devices);
            let bound = balance_bound(&costs, devices);
            let max_load = (0..devices).map(|d| plan.load(d)).fold(0.0f64, f64::max);
            // Tiny epsilon for summation order; the combinatorial bound
            // itself is exact.
            prop_assert!(
                max_load <= bound * (1.0 + 1e-12) + 1e-9,
                "max_load {max_load} exceeds LPT bound {bound}"
            );
            // Loads account for every unit of cost.
            let total: f64 = costs.iter().sum();
            let assigned: f64 = (0..devices).map(|d| plan.load(d)).sum();
            prop_assert!((assigned - total).abs() <= 1e-6 * total.max(1.0));
        }

        #[test]
        fn plan_is_deterministic(
            raw in prop::collection::vec(0u32..10_000, 1..100),
            devices in 1usize..=8,
        ) {
            let costs: Vec<f64> = raw.iter().map(|&c| c as f64 / 16.0).collect();
            prop_assert_eq!(
                ShardPlan::balanced(&costs, devices),
                ShardPlan::balanced(&costs, devices)
            );
        }
    }
}
