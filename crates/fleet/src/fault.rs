//! Deterministic fault injection for the modeled fleet timeline.
//!
//! A [`FaultSpec`] is a *schedule* of adverse events — permanent device
//! failures, straggler episodes, degraded-interconnect episodes —
//! keyed by the global SV-batch sequence number of the run. The driver
//! consults it while pricing each sharded batch; the events bend the
//! modeled timeline (and are recorded in the telemetry profile's fault
//! lane) but never touch the functional computation: a faulted run
//! produces an image bitwise identical to a healthy one, because
//! recovery re-runs the *pricing* of the lost shard over the surviving
//! devices, not the arithmetic.
//!
//! Specs come from three places, all deterministic:
//! - [`FaultSpec::parse`] reads the compact CLI syntax
//!   (`fail:1@3,slow:0@2..5x2,link:4..6x2,backoff:0.25`);
//! - `random:<seed>` inside that syntax expands to
//!   [`FaultSpec::seeded`], a reproducible scenario drawn from the
//!   workspace RNG;
//! - tests construct events directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default modeled detect-and-reinit penalty charged when a device
/// failure is recovered: the fleet sits through failure detection at
/// the batch barrier plus communicator re-initialization over the
/// survivors before the retry starts.
pub const DEFAULT_BACKOFF_SECONDS: f64 = 0.5;

/// One scheduled adverse event, keyed by global batch sequence number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Device `device` fails permanently at batch `batch`: its shard's
    /// compute for that batch is lost at the barrier, and it receives
    /// no work from `batch` onward.
    DeviceFailure {
        /// Failing device id.
        device: usize,
        /// 0-based global batch the failure strikes at.
        batch: u64,
    },
    /// Device `device` runs `factor`× slower for every batch in
    /// `from_batch..=to_batch` (thermal throttling, a noisy neighbor,
    /// a dying fan). Only the modeled kernel seconds stretch.
    Straggler {
        /// Slowed device id.
        device: usize,
        /// First affected batch (inclusive).
        from_batch: u64,
        /// Last affected batch (inclusive).
        to_batch: u64,
        /// Slowdown factor, `>= 1`.
        factor: f64,
    },
    /// The interconnect runs at `1/factor` of nominal bandwidth for
    /// every batch in `from_batch..=to_batch` (link flapping, PCIe
    /// retraining). Latency is unaffected.
    DegradedLink {
        /// First affected batch (inclusive).
        from_batch: u64,
        /// Last affected batch (inclusive).
        to_batch: u64,
        /// Bandwidth division factor, `>= 1`.
        factor: f64,
    },
}

/// A deterministic schedule of injected faults plus the modeled
/// recovery backoff. An empty schedule prices exactly like no schedule
/// at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Scheduled events, in the order given (order does not matter to
    /// the pricing: lookups scan the whole list).
    pub events: Vec<FaultEvent>,
    /// Seconds of modeled backoff charged per recovered device failure
    /// (detection at the barrier + communicator re-init).
    pub backoff_seconds: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

impl FaultSpec {
    /// The empty schedule: no events, default backoff.
    pub fn none() -> Self {
        FaultSpec { events: Vec::new(), backoff_seconds: DEFAULT_BACKOFF_SECONDS }
    }

    /// A reproducible adverse scenario for a `devices`-wide fleet:
    /// one device failure, one straggler episode, and one
    /// degraded-link episode, all placed in the first few batches so
    /// short CI runs hit them. The same `(seed, devices)` always
    /// yields the same schedule.
    pub fn seeded(seed: u64, devices: usize) -> Self {
        assert!(devices >= 2, "a seeded fault scenario needs at least 2 devices");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfau64.wrapping_mul(0x9e3779b97f4a7c15));
        let fail_device = rng.random_range(0..devices);
        let fail_batch = rng.random_range(1u64..6);
        // The straggler must be a device that is still alive when its
        // episode runs, so pick among the others.
        let mut slow_device = rng.random_range(0..devices - 1);
        if slow_device >= fail_device {
            slow_device += 1;
        }
        let slow_from = rng.random_range(0u64..3);
        let slow_len = rng.random_range(1u64..4);
        let slow_factor = 1.5 + rng.random_range(0.0..2.0);
        let link_from = rng.random_range(0u64..4);
        let link_len = rng.random_range(1u64..4);
        let link_factor = 1.5 + rng.random_range(0.0..1.5);
        FaultSpec {
            events: vec![
                FaultEvent::DeviceFailure { device: fail_device, batch: fail_batch },
                FaultEvent::Straggler {
                    device: slow_device,
                    from_batch: slow_from,
                    to_batch: slow_from + slow_len,
                    factor: slow_factor,
                },
                FaultEvent::DegradedLink {
                    from_batch: link_from,
                    to_batch: link_from + link_len,
                    factor: link_factor,
                },
            ],
            backoff_seconds: DEFAULT_BACKOFF_SECONDS,
        }
    }

    /// Parse the compact CLI syntax: a comma-separated list of
    /// `fail:<dev>@<batch>`, `slow:<dev>@<from>..<to>x<factor>`,
    /// `link:<from>..<to>x<factor>`, `backoff:<seconds>`, and
    /// `random:<seed>` (which expands to [`FaultSpec::seeded`] for
    /// `devices`). The result is validated against `devices`.
    pub fn parse(text: &str, devices: usize) -> Result<FaultSpec, String> {
        let mut spec = FaultSpec::none();
        for part in text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{part}` is missing a `:`"))?;
            match kind {
                "fail" => {
                    let (dev, batch) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`fail:{rest}`: expected fail:<dev>@<batch>"))?;
                    spec.events.push(FaultEvent::DeviceFailure {
                        device: parse_num(dev, part)?,
                        batch: parse_num(batch, part)?,
                    });
                }
                "slow" => {
                    let (dev, episode) = rest.split_once('@').ok_or_else(|| {
                        format!("`slow:{rest}`: expected slow:<dev>@<from>..<to>x<factor>")
                    })?;
                    let (range, factor) = split_episode(episode, part)?;
                    spec.events.push(FaultEvent::Straggler {
                        device: parse_num(dev, part)?,
                        from_batch: range.0,
                        to_batch: range.1,
                        factor,
                    });
                }
                "link" => {
                    let (range, factor) = split_episode(rest, part)?;
                    spec.events.push(FaultEvent::DegradedLink {
                        from_batch: range.0,
                        to_batch: range.1,
                        factor,
                    });
                }
                "backoff" => {
                    spec.backoff_seconds = parse_num(rest, part)?;
                }
                "random" => {
                    let seed: u64 = parse_num(rest, part)?;
                    if devices < 2 {
                        return Err("`random:<seed>` fault scenarios need --devices >= 2".into());
                    }
                    let seeded = FaultSpec::seeded(seed, devices);
                    spec.events.extend(seeded.events);
                }
                other => {
                    return Err(format!(
                        "unknown fault clause `{other}:` (expected fail/slow/link/backoff/random)"
                    ))
                }
            }
        }
        spec.validate(devices)?;
        Ok(spec)
    }

    /// Check the schedule against a `devices`-wide fleet: device ids
    /// in range, factors `>= 1`, episode ranges ordered, a
    /// non-negative finite backoff, and at least one device surviving
    /// every failure.
    pub fn validate(&self, devices: usize) -> Result<(), String> {
        if !(self.backoff_seconds >= 0.0 && self.backoff_seconds.is_finite()) {
            return Err(format!("backoff must be finite and >= 0, got {}", self.backoff_seconds));
        }
        let mut failures = 0usize;
        for e in &self.events {
            match *e {
                FaultEvent::DeviceFailure { device, .. } => {
                    if device >= devices {
                        return Err(format!(
                            "fail: device {device} out of range (fleet has {devices})"
                        ));
                    }
                    failures += 1;
                }
                FaultEvent::Straggler { device, from_batch, to_batch, factor } => {
                    if device >= devices {
                        return Err(format!(
                            "slow: device {device} out of range (fleet has {devices})"
                        ));
                    }
                    if from_batch > to_batch {
                        return Err(format!("slow: empty episode {from_batch}..{to_batch}"));
                    }
                    if !(factor >= 1.0 && factor.is_finite()) {
                        return Err(format!("slow: factor must be finite and >= 1, got {factor}"));
                    }
                }
                FaultEvent::DegradedLink { from_batch, to_batch, factor } => {
                    if from_batch > to_batch {
                        return Err(format!("link: empty episode {from_batch}..{to_batch}"));
                    }
                    if !(factor >= 1.0 && factor.is_finite()) {
                        return Err(format!("link: factor must be finite and >= 1, got {factor}"));
                    }
                }
            }
        }
        if failures >= devices {
            return Err(format!(
                "{failures} device failures leave no survivor in a {devices}-device fleet"
            ));
        }
        Ok(())
    }

    /// Devices scheduled to fail exactly at `batch`, in event order.
    pub fn failures_at(&self, batch: u64) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::DeviceFailure { device, batch: b } if b == batch => Some(device),
                _ => None,
            })
            .collect()
    }

    /// Combined straggler slowdown for `device` at `batch` (product of
    /// every overlapping episode; `1.0` when none apply).
    pub fn slowdown(&self, device: usize, batch: u64) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::Straggler { device: d, from_batch, to_batch, factor: f } = *e {
                if d == device && (from_batch..=to_batch).contains(&batch) {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Combined interconnect bandwidth-division factor at `batch`
    /// (product of every overlapping episode; `1.0` when none apply).
    pub fn link_factor(&self, batch: u64) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultEvent::DegradedLink { from_batch, to_batch, factor: f } = *e {
                if (from_batch..=to_batch).contains(&batch) {
                    factor *= f;
                }
            }
        }
        factor
    }
}

fn parse_num<T: std::str::FromStr>(text: &str, clause: &str) -> Result<T, String> {
    text.trim().parse().map_err(|_| format!("`{clause}`: cannot parse `{text}` as a number"))
}

/// Split `<from>..<to>x<factor>` into ((from, to), factor).
fn split_episode(text: &str, clause: &str) -> Result<((u64, u64), f64), String> {
    let (range, factor) = text
        .rsplit_once('x')
        .ok_or_else(|| format!("`{clause}`: expected <from>..<to>x<factor>"))?;
    let (from, to) = range
        .split_once("..")
        .ok_or_else(|| format!("`{clause}`: expected <from>..<to>x<factor>"))?;
    Ok(((parse_num(from, clause)?, parse_num(to, clause)?), parse_num(factor, clause)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_syntax() {
        let spec = FaultSpec::parse("fail:1@3, slow:0@2..5x2.5, link:4..6x2, backoff:0.25", 4)
            .expect("parses");
        assert_eq!(spec.events.len(), 3);
        assert_eq!(spec.backoff_seconds, 0.25);
        assert_eq!(spec.failures_at(3), vec![1]);
        assert!(spec.failures_at(2).is_empty());
        assert_eq!(spec.slowdown(0, 2), 2.5);
        assert_eq!(spec.slowdown(0, 6), 1.0);
        assert_eq!(spec.slowdown(1, 3), 1.0);
        assert_eq!(spec.link_factor(5), 2.0);
        assert_eq!(spec.link_factor(7), 1.0);
    }

    #[test]
    fn parse_rejects_malformed_and_invalid() {
        assert!(FaultSpec::parse("fail:9@1", 4).is_err(), "device out of range");
        assert!(FaultSpec::parse("fail:0@1,fail:1@2", 2).is_err(), "no survivor");
        assert!(FaultSpec::parse("slow:0@5..2x2", 4).is_err(), "empty episode");
        assert!(FaultSpec::parse("slow:0@1..2x0.5", 4).is_err(), "factor < 1");
        assert!(FaultSpec::parse("warp:0@1", 4).is_err(), "unknown clause");
        assert!(FaultSpec::parse("fail:0", 4).is_err(), "missing @");
        assert!(FaultSpec::parse("backoff:-1", 4).is_err(), "negative backoff");
        assert!(FaultSpec::parse("random:7", 1).is_err(), "random needs >= 2 devices");
    }

    #[test]
    fn overlapping_episodes_compound() {
        let spec =
            FaultSpec::parse("slow:1@0..9x2,slow:1@5..9x3,link:0..9x2,link:3..4x1.5", 4).unwrap();
        assert_eq!(spec.slowdown(1, 2), 2.0);
        assert_eq!(spec.slowdown(1, 7), 6.0);
        assert_eq!(spec.link_factor(3), 3.0);
        assert_eq!(spec.link_factor(7), 2.0);
    }

    #[test]
    fn seeded_scenarios_are_deterministic_and_valid() {
        for devices in 2..=8 {
            for seed in 0..32u64 {
                let a = FaultSpec::seeded(seed, devices);
                let b = FaultSpec::seeded(seed, devices);
                assert_eq!(a, b, "same seed, same schedule");
                a.validate(devices).expect("seeded schedules validate");
                assert_eq!(a.events.len(), 3);
                // The straggler never targets the failed device (it
                // would be wasted on a corpse for most of the run).
                let (fail, slow) = match (a.events[0], a.events[1]) {
                    (
                        FaultEvent::DeviceFailure { device: f, .. },
                        FaultEvent::Straggler { device: s, .. },
                    ) => (f, s),
                    other => panic!("unexpected shape {other:?}"),
                };
                assert_ne!(fail, slow);
            }
        }
        assert_ne!(FaultSpec::seeded(1, 4), FaultSpec::seeded(2, 4), "seeds differ");
    }

    #[test]
    fn random_clause_expands_seeded_scenario() {
        let spec = FaultSpec::parse("random:7", 4).unwrap();
        assert_eq!(spec.events, FaultSpec::seeded(7, 4).events);
    }

    #[test]
    fn empty_spec_is_inert() {
        let spec = FaultSpec::none();
        assert!(spec.events.is_empty());
        assert!(spec.failures_at(0).is_empty());
        assert_eq!(spec.slowdown(0, 0), 1.0);
        assert_eq!(spec.link_factor(0), 1.0);
        spec.validate(1).expect("empty schedule is valid for any fleet");
        assert_eq!(FaultSpec::parse("", 4).unwrap(), spec);
    }
}
