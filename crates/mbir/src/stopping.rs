//! When an ICD run ends, and what it reports.
//!
//! The paper's evaluation measures convergence against a 40-equit
//! golden image — fine for benchmarking, useless in production (the
//! golden costs more than the reconstruction). This module provides
//! the practical criteria real MBIR deployments stop on:
//!
//! - [`StopRule::MeanUpdate`]: stop when the mean |voxel update| of a
//!   pass falls below a threshold (in HU) — the reference MBIR code's
//!   default;
//! - [`StopRule::CostPlateau`]: stop when the relative MAP-cost
//!   decrease per pass falls below a tolerance;
//! - [`StopRule::MaxEquits`]: a work budget.
//!
//! [`StopState`] tracks the signals incrementally so drivers can feed
//! it per-pass statistics without recomputing anything.
//!
//! [`run`] is the one loop every 2-D ICD [`Driver`] runs to its
//! [`Stop`] through; its [`RunOutcome`] says whether the stop held.

use crate::convergence::{ConvergenceTrace, TracePoint};
use crate::sequential::IcdStats;
use ct_core::image::Image;

/// When to stop iterating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Mean |update| per visited voxel below this many HU.
    MeanUpdate {
        /// Threshold in Hounsfield units.
        hu: f32,
    },
    /// Relative cost decrease per pass below `tol`.
    CostPlateau {
        /// Relative tolerance, e.g. `1e-4`.
        tol: f64,
    },
    /// Hard work budget in equits.
    MaxEquits {
        /// Budget.
        equits: f64,
    },
}

/// Incremental evaluator for a [`StopRule`].
#[derive(Debug, Clone)]
pub struct StopState {
    rule: StopRule,
    last_cost: Option<f64>,
    satisfied: bool,
}

impl StopState {
    /// Fresh evaluator.
    pub fn new(rule: StopRule) -> Self {
        StopState { rule, last_cost: None, satisfied: false }
    }

    /// Feed one pass's outcome. `pass_stats` are the *pass's own*
    /// counters, `total` the cumulative ones, `cost` the current MAP
    /// cost (only needed for [`StopRule::CostPlateau`]; pass the same
    /// value otherwise), `nvox` the voxel count.
    pub fn observe(&mut self, pass_stats: &IcdStats, total: &IcdStats, cost: f64, nvox: usize) {
        match self.rule {
            StopRule::MeanUpdate { hu } => {
                if pass_stats.updates > 0 {
                    let mean_mu = pass_stats.total_abs_delta / pass_stats.updates as f64;
                    let mean_hu = mean_mu * 1000.0 / ct_core::phantom::MU_WATER as f64;
                    if mean_hu < hu as f64 {
                        self.satisfied = true;
                    }
                } else {
                    // A pass that updated nothing is as converged as it
                    // gets.
                    self.satisfied = true;
                }
            }
            StopRule::CostPlateau { tol } => {
                if let Some(prev) = self.last_cost {
                    let denom = prev.abs().max(1e-30);
                    if (prev - cost) / denom < tol {
                        self.satisfied = true;
                    }
                }
                self.last_cost = Some(cost);
            }
            StopRule::MaxEquits { equits } => {
                if total.equits(nvox) >= equits {
                    self.satisfied = true;
                }
            }
        }
    }

    /// Whether the rule has fired.
    pub fn should_stop(&self) -> bool {
        self.satisfied
    }

    /// The rule being evaluated.
    pub fn rule(&self) -> StopRule {
        self.rule
    }
}

/// What a [`run`] hook tells the loop after an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Keep iterating.
    Continue,
    /// Stop at this boundary (converged, preempted, or out of budget).
    Stop,
}

/// What ends a [`run`] besides its iteration cap and its hook.
#[derive(Debug, Clone, Copy)]
pub enum Stop<'g> {
    /// A golden-free rule, judged after each iteration on that
    /// iteration's own counters.
    Rule(StopRule),
    /// RMSE against a golden image below `hu`, checked before every
    /// iteration, the first included. The run records its
    /// [`ConvergenceTrace`].
    Golden {
        /// The reference image.
        image: &'g Image,
        /// Threshold in Hounsfield units (the paper's is 10).
        hu: f32,
    },
    /// Only the iteration cap and the hook end the run.
    Cap,
}

/// What a [`run`] did.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Iterations run.
    pub iterations: usize,
    /// Whether the stop condition held when the run ended: the final
    /// RMSE is below the golden threshold, or the rule fired (on the
    /// last allowed iteration too). Always false for [`Stop::Cap`].
    pub converged: bool,
    /// For a golden stop, one point before the first iteration and one
    /// after each; empty otherwise.
    pub trace: ConvergenceTrace,
}

/// A 2-D ICD driver that [`run`] can drive to its stop.
pub trait Driver {
    /// What one iteration reports, and the work counters the rules
    /// judge it by.
    type Report: Copy + Into<IcdStats>;
    /// Run one iteration: an outer iteration, or one pass.
    fn step(&mut self) -> Self::Report;
    /// Cumulative work counters.
    fn stats(&self) -> IcdStats;
    /// The current image.
    fn image(&self) -> &Image;
    /// Seconds elapsed on the driver's modeled clock; zero for a driver
    /// without one.
    fn seconds(&self) -> f64 {
        0.0
    }
    /// The current MAP cost, evaluated only under
    /// [`StopRule::CostPlateau`].
    fn cost(&self) -> f64;
    /// Observe a golden trace point just recorded, e.g. to forward it
    /// to a profile sink.
    fn trace_point(&self, _point: &TracePoint) {}
}

/// Run `driver` until `stop` holds, `max_iters` iterations have run, or
/// `hook` — called with the driver and the report after every
/// iteration — returns [`BoundaryAction::Stop`].
pub fn run<D: Driver>(
    driver: &mut D,
    stop: Stop<'_>,
    max_iters: usize,
    mut hook: impl FnMut(&D, &D::Report) -> BoundaryAction,
) -> RunOutcome {
    let nvox = driver.image().grid().num_voxels();
    let mut out = RunOutcome::default();
    let mut state = match stop {
        Stop::Rule(rule) => Some(StopState::new(rule)),
        _ => None,
    };
    if let Stop::Golden { image, hu } = stop {
        out.converged = record(driver, &mut out.trace, image, nvox) < hu;
    }
    while !out.converged && out.iterations < max_iters {
        let report = driver.step();
        out.iterations += 1;
        let pass: IcdStats = report.into();
        // An iteration that visited no voxel (GPU-ICD's batch threshold
        // can skip every batch) moves neither the image nor the cost, so
        // it says nothing about convergence: the rule does not see it.
        if let Some(state) = state.as_mut().filter(|_| pass.updates + pass.skipped > 0) {
            let cost = match state.rule() {
                StopRule::CostPlateau { .. } => driver.cost(),
                _ => 0.0,
            };
            state.observe(&pass, &driver.stats(), cost, nvox);
            out.converged = state.should_stop();
        } else if let Stop::Golden { image, hu } = stop {
            out.converged = record(driver, &mut out.trace, image, nvox) < hu;
        }
        if hook(driver, &report) == BoundaryAction::Stop {
            break;
        }
    }
    out
}

/// Append the driver's RMSE against `golden` to `trace`, hand the
/// point to the driver, and return the RMSE.
fn record<D: Driver>(driver: &D, trace: &mut ConvergenceTrace, golden: &Image, nvox: usize) -> f32 {
    trace.record(driver.stats().equits(nvox), driver.seconds(), driver.image(), golden);
    let point = trace.last().expect("point just recorded");
    driver.trace_point(&point);
    point.rmse_hu
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(updates: u64, total_abs_delta: f64) -> IcdStats {
        IcdStats { updates, skipped: 0, total_abs_delta }
    }

    #[test]
    fn mean_update_fires_below_threshold() {
        let mut s = StopState::new(StopRule::MeanUpdate { hu: 1.0 });
        // 0.0001 mu per update = 5 HU: keep going.
        s.observe(&stats(100, 0.01), &stats(100, 0.01), 0.0, 1000);
        assert!(!s.should_stop());
        // 0.4 HU mean: stop.
        s.observe(&stats(100, 0.0008), &stats(200, 0.0108), 0.0, 1000);
        assert!(s.should_stop());
    }

    #[test]
    fn mean_update_fires_on_empty_pass() {
        let mut s = StopState::new(StopRule::MeanUpdate { hu: 1.0 });
        s.observe(&stats(0, 0.0), &stats(0, 0.0), 0.0, 1000);
        assert!(s.should_stop());
    }

    #[test]
    fn cost_plateau_needs_two_observations() {
        let mut s = StopState::new(StopRule::CostPlateau { tol: 1e-3 });
        s.observe(&stats(1, 1.0), &stats(1, 1.0), 100.0, 10);
        assert!(!s.should_stop());
        // 10% drop: keep going.
        s.observe(&stats(1, 1.0), &stats(2, 2.0), 90.0, 10);
        assert!(!s.should_stop());
        // 0.01% drop: plateau.
        s.observe(&stats(1, 1.0), &stats(3, 3.0), 89.995, 10);
        assert!(s.should_stop());
    }

    /// A driver whose image halves its distance to zero every step, one
    /// equit per step, with a scripted MAP cost per step; step `idle`
    /// (1-based, 0 for none) visits nothing.
    struct Fake {
        image: Image,
        stats: IcdStats,
        costs: Vec<f64>,
        points: std::cell::RefCell<Vec<TracePoint>>,
        steps: usize,
        idle: usize,
    }

    impl Fake {
        /// Start `hu` HU away from a zero golden.
        fn new(hu: f32, costs: &[f64]) -> Fake {
            let mu = hu * ct_core::phantom::MU_WATER / 1000.0;
            Fake {
                image: Image::from_vec(ct_core::geometry::ImageGrid::square(2, 1.0), vec![mu; 4]),
                stats: IcdStats::default(),
                costs: costs.to_vec(),
                points: Default::default(),
                steps: 0,
                idle: 0,
            }
        }
    }

    impl Driver for Fake {
        type Report = IcdStats;
        fn step(&mut self) -> IcdStats {
            self.steps += 1;
            if self.steps == self.idle {
                return IcdStats::default();
            }
            let v = self.image.get(0);
            self.image.data_mut().iter_mut().for_each(|x| *x = v / 2.0);
            // 4 updates of 0.01 mu each: a 500 HU mean update.
            let pass = stats(4, 0.04);
            self.stats.updates += pass.updates;
            self.stats.total_abs_delta += pass.total_abs_delta;
            pass
        }
        fn stats(&self) -> IcdStats {
            self.stats
        }
        fn image(&self) -> &Image {
            &self.image
        }
        fn cost(&self) -> f64 {
            self.costs[self.stats.updates as usize / 4 - 1]
        }
        fn trace_point(&self, point: &TracePoint) {
            self.points.borrow_mut().push(*point);
        }
    }

    fn go(fake: &mut Fake, stop: Stop<'_>, max_iters: usize) -> RunOutcome {
        run(fake, stop, max_iters, |_, _| BoundaryAction::Continue)
    }

    #[test]
    fn a_golden_already_met_runs_nothing_and_converges() {
        let golden = Image::zeros(ct_core::geometry::ImageGrid::square(2, 1.0));
        let mut fake = Fake::new(5.0, &[]);
        let out = go(&mut fake, Stop::Golden { image: &golden, hu: 10.0 }, 8);
        assert_eq!((out.iterations, out.converged, out.trace.points.len()), (0, true, 1));
    }

    #[test]
    fn a_golden_trace_has_one_point_more_than_iterations() {
        let golden = Image::zeros(ct_core::geometry::ImageGrid::square(2, 1.0));
        let mut fake = Fake::new(80.0, &[]);
        // 80 -> 40 -> 20 -> 10 -> 5 HU: the fourth step crosses 10 HU.
        let out = go(&mut fake, Stop::Golden { image: &golden, hu: 10.0 }, 8);
        assert_eq!((out.iterations, out.converged), (4, true));
        assert_eq!(out.trace.points.len(), out.iterations + 1);
        assert_eq!(*fake.points.borrow(), out.trace.points, "every point reaches the driver");
        assert_eq!(out.trace.last().unwrap().equits, 4.0);
        // One step short of the crossing, the run is capped unconverged.
        let out = go(&mut Fake::new(80.0, &[]), Stop::Golden { image: &golden, hu: 10.0 }, 3);
        assert_eq!((out.iterations, out.converged, out.trace.points.len()), (3, false, 4));
    }

    #[test]
    fn a_rule_firing_on_the_last_allowed_iteration_converges() {
        let rule = Stop::Rule(StopRule::MaxEquits { equits: 3.0 });
        let out = go(&mut Fake::new(80.0, &[]), rule, 3);
        assert_eq!((out.iterations, out.converged), (3, true));
        assert!(out.trace.points.is_empty(), "only golden runs trace");
        let out = go(&mut Fake::new(80.0, &[]), rule, 2);
        assert_eq!((out.iterations, out.converged), (2, false));
    }

    #[test]
    fn reaching_the_cap_does_not_converge() {
        let out = go(&mut Fake::new(80.0, &[]), Stop::Cap, 5);
        assert_eq!((out.iterations, out.converged), (5, false));
    }

    #[test]
    fn a_hook_stop_does_not_converge_and_counts_what_ran() {
        let mut fake = Fake::new(80.0, &[]);
        let never = Stop::Rule(StopRule::MeanUpdate { hu: 1.0 });
        let out = run(&mut fake, never, 10, |f, _| {
            if f.stats.updates == 8 {
                BoundaryAction::Stop
            } else {
                BoundaryAction::Continue
            }
        });
        assert_eq!((out.iterations, out.converged), (2, false));
    }

    #[test]
    fn cost_plateau_judges_the_drivers_cost() {
        // A 10% drop, then a 0.005% one: the plateau is the third step.
        // A loop that passed a constant cost would stop at the second.
        let mut fake = Fake::new(80.0, &[100.0, 90.0, 89.995, 89.99]);
        let out = go(&mut fake, Stop::Rule(StopRule::CostPlateau { tol: 1e-3 }), 10);
        assert_eq!((out.iterations, out.converged), (3, true));
    }

    #[test]
    fn an_iteration_that_visited_nothing_is_not_judged() {
        // Every visiting step updates by 500 HU and drops the cost 10% or
        // more; only the empty second step looks converged to a rule.
        for rule in [StopRule::MeanUpdate { hu: 1.0 }, StopRule::CostPlateau { tol: 1e-3 }] {
            let mut fake = Fake::new(80.0, &[100.0, 90.0, 80.0, 70.0]);
            fake.idle = 2;
            let out = go(&mut fake, Stop::Rule(rule), 5);
            assert_eq!((out.iterations, out.converged), (5, false), "{rule:?}");
        }
    }

    #[test]
    fn max_equits_budget() {
        let mut s = StopState::new(StopRule::MaxEquits { equits: 2.0 });
        s.observe(&stats(10, 0.0), &stats(10, 0.0), 0.0, 10);
        assert!(!s.should_stop()); // 1 equit
        s.observe(&stats(10, 0.0), &stats(20, 0.0), 0.0, 10);
        assert!(s.should_stop()); // 2 equits
    }
}
