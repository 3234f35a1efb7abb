//! Declarative workload specifications.
//!
//! A workload is a JSON document — `{"jobs": [...]}` or a bare array —
//! read through the same strict field reader as
//! [`mbir_fleet::FleetSpec`] ([`mbir_telemetry::json::read_object`]):
//! unknown keys and wrong types are errors, numbers are range-checked
//! at the boundary (no silent `as` narrowing), and negative or
//! non-finite times are rejected before they can poison the modeled
//! timeline. The parser is CLI-reachable (`mbirctl serve --jobs`), so
//! every error names the field's path (`jobs[3].priority`) and the
//! offending value.

use ct_core::phantom::Phantom;
use gpu_icd::Scale;
use mbir_telemetry::json::{self, Fields};
use serde::json::Value;

/// One job in a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Unique job id (unique across the workload; enforced at parse).
    pub id: String,
    /// Tenant the job bills to.
    pub tenant: String,
    /// Scheduling priority; higher runs first and may preempt lower.
    pub priority: i64,
    /// Problem scale (`tiny|test|harness|paper`).
    pub scale: Scale,
    /// Phantom spec (`shepp-logan|water|baggage[:seed]`).
    pub phantom: String,
    /// Noise/selection RNG seed.
    pub seed: u64,
    /// Device lease size requested.
    pub devices: usize,
    /// Arrival time on the modeled clock, seconds.
    pub arrival_seconds: f64,
    /// Completion deadline on the modeled clock (reporting only —
    /// missing a deadline is recorded, not enforced).
    pub deadline_seconds: Option<f64>,
    /// Outer ICD iterations to run.
    pub iters: u64,
    /// Streaming view arrival rate (views/second). `None` means the
    /// scan is already on disk and only setup time precedes queueing.
    pub view_rate: Option<f64>,
    /// qGGMRF sigma for the prior.
    pub sigma: f32,
}

impl JobSpec {
    /// A job with every optional field at its default; tests and the
    /// benchmark binary override what they need.
    pub fn named(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            tenant: "default".to_string(),
            priority: 0,
            scale: Scale::Tiny,
            phantom: "shepp-logan".to_string(),
            seed: 0,
            devices: 1,
            arrival_seconds: 0.0,
            deadline_seconds: None,
            iters: 4,
            view_rate: None,
            sigma: 0.002,
        }
    }

    /// Resolve the phantom spec string.
    pub fn resolve_phantom(&self) -> Result<Phantom, String> {
        Phantom::parse(&self.phantom)
    }

    fn read(f: &mut Fields<'_>) -> Result<JobSpec, String> {
        let id: String = f.req("id")?;
        let d = JobSpec::named(&id);
        let spec = JobSpec {
            tenant: f.opt("tenant")?.unwrap_or(d.tenant),
            priority: f.opt("priority")?.unwrap_or(d.priority),
            scale: f.opt::<String>("scale")?.map(|s| s.parse()).transpose()?.unwrap_or(d.scale),
            phantom: f.opt("phantom")?.unwrap_or(d.phantom),
            seed: f.opt("seed")?.unwrap_or(d.seed),
            devices: f.opt("devices")?.unwrap_or(d.devices),
            arrival_seconds: f.opt("arrival_seconds")?.unwrap_or(d.arrival_seconds),
            deadline_seconds: f.opt("deadline_seconds")?,
            iters: f.opt("iters")?.unwrap_or(d.iters),
            view_rate: f.opt("view_rate")?,
            sigma: f.opt::<f64>("sigma")?.map_or(d.sigma, |x| x as f32),
            id,
        };
        if let Some(r) = spec.view_rate {
            if r <= 0.0 {
                return Err(format!("job '{}': view_rate must be > 0, got {r}", spec.id));
            }
        }
        if !(spec.sigma.is_finite() && spec.sigma > 0.0) {
            return Err(format!("job '{}': sigma must be > 0, got {}", spec.id, spec.sigma));
        }
        spec.resolve_phantom().map_err(|e| format!("job '{}': {e}", spec.id))?;
        Ok(spec)
    }
}

/// A full workload: the jobs the server is asked to run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Jobs in file order (the scheduler orders by arrival/priority).
    pub jobs: Vec<JobSpec>,
}

impl WorkloadSpec {
    /// Parse a workload from JSON text.
    pub fn parse(text: &str) -> Result<WorkloadSpec, String> {
        Self::from_json(&mbir_telemetry::json::parse(text)?)
    }

    /// Build from a parsed JSON value: `{"jobs": [...]}` or `[...]`.
    pub fn from_json(v: &Value) -> Result<WorkloadSpec, String> {
        let jobs = match v {
            Value::Array(_) => json::read_objects(v, "", JobSpec::read)?,
            _ => json::read_object(v, "", |f| f.objects("jobs", JobSpec::read))?,
        };
        if jobs.is_empty() {
            return Err("workload has no jobs".into());
        }
        for (i, a) in jobs.iter().enumerate() {
            if jobs[..i].iter().any(|b| b.id == a.id) {
                return Err(format!("duplicate job id '{}'", a.id));
            }
        }
        Ok(WorkloadSpec { jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"jobs": [{"id": "a"}]}"#;

    #[test]
    fn minimal_job_takes_defaults() {
        let w = WorkloadSpec::parse(MINIMAL).expect("parses");
        assert_eq!(w.jobs.len(), 1);
        assert_eq!(w.jobs[0], JobSpec::named("a"));
    }

    #[test]
    fn bare_array_and_full_fields_parse() {
        let text = r#"[{
            "id": "big", "tenant": "radiology", "priority": 2,
            "scale": "tiny", "phantom": "baggage:7", "seed": 3,
            "devices": 2, "arrival_seconds": 1.5,
            "deadline_seconds": 60, "iters": 6, "view_rate": 100.0,
            "sigma": 0.01
        }]"#;
        let w = WorkloadSpec::parse(text).expect("parses");
        let j = &w.jobs[0];
        assert_eq!(j.tenant, "radiology");
        assert_eq!(j.priority, 2);
        assert_eq!(j.devices, 2);
        assert_eq!(j.deadline_seconds, Some(60.0));
        assert_eq!(j.view_rate, Some(100.0));
        assert_eq!(j.iters, 6);
    }

    #[test]
    fn hostile_values_are_parse_errors_not_panics() {
        let cases: &[(&str, &str)] = &[
            (r#"{"jobs": []}"#, "no jobs"),
            (r#"{"jobs": [{"id": "a"}, {"id": "a"}]}"#, "duplicate"),
            (r#"{"jobs": [{"id": "a", "arrival_seconds": -1}]}"#, "arrival"),
            (r#"{"jobs": [{"id": "a", "arrival_seconds": 1e400}]}"#, "not finite"),
            (r#"{"jobs": [{"id": "a", "view_rate": 0}]}"#, "view_rate"),
            (r#"{"jobs": [{"id": "a", "scale": "huge"}]}"#, "unknown scale"),
            (r#"{"jobs": [{"id": "a", "phantom": "cube"}]}"#, "unknown phantom"),
            (r#"{"jobs": [{"id": "a", "priority": 99999999999999999999}]}"#, ""),
            (r#"{"jobs": [{"id": "a", "sigma": -0.5}]}"#, "sigma"),
            (r#"{"jobs": [{"id": 7}]}"#, "not a string"),
            (r#"{"nojobs": 1}"#, "missing field 'jobs'"),
            ("[", ""),
            (r#"{"jobs": [{"id": "a"}, {"id": "b", "priorty": 9}]}"#, "'jobs[1].priorty'"),
            (r#"[{"id": "a", "deadline_secnds": 1e-6}]"#, "unknown field '[0].deadline_secnds'"),
            (r#"{"jobs": [{"id": "a", "deadline_seconds": -1}]}"#, "deadline_seconds' is negative"),
            (
                r#"{"jobs": [{"id": "a"}], "options": {"backfill": true}}"#,
                "unknown field 'options'",
            ),
        ];
        for (text, needle) in cases {
            let err = WorkloadSpec::parse(text).expect_err(text);
            assert!(err.contains(needle), "error {err:?} for {text} lacks {needle:?}");
        }
    }

    #[test]
    fn null_optionals_mean_absent() {
        let w = WorkloadSpec::parse(r#"{"jobs": [{"id": "a", "deadline_seconds": null}]}"#)
            .expect("parses");
        assert_eq!(w.jobs[0].deadline_seconds, None);
    }
}
