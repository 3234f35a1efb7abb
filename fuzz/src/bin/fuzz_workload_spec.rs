//! Fuzz `mbir_serve::WorkloadSpec::parse` — the `mbirctl serve --jobs`
//! JSON surface: job lists with priorities, deadlines, lease sizes,
//! and streaming rates.

use mbir_serve::WorkloadSpec;

mbir_fuzz::fuzz_target!(|data: &[u8]| {
    let Ok(text) = std::str::from_utf8(data) else { return };
    if let Ok(w) = WorkloadSpec::parse(text) {
        // The parser promises: at least one job, unique ids, bounded
        // numerics the scheduler can trust without re-checking.
        assert!(!w.jobs.is_empty());
        for (i, job) in w.jobs.iter().enumerate() {
            assert!(w.jobs[..i].iter().all(|j| j.id != job.id), "duplicate id accepted");
            assert!(job.arrival_seconds.is_finite() && job.arrival_seconds >= 0.0);
            if let Some(d) = job.deadline_seconds {
                assert!(d.is_finite() && d >= 0.0);
            }
            if let Some(r) = job.view_rate {
                assert!(r.is_finite() && r > 0.0);
            }
            assert!(job.sigma.is_finite() && job.sigma > 0.0);
            job.resolve_phantom().expect("accepted phantom resolves");
        }
    }
});
