//! Workload generators. Everything here is a pure function of the
//! `--seed` argument: the program under test only ever sees the
//! generated sinograms and the generated serve workload JSON.

use ct_core::geometry::Geometry;
use ct_core::io;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use ct_core::sysmat::SystemMatrix;
use std::path::{Path, PathBuf};

/// Scans in one `recon`/`cluster` stream.
pub const STREAM_SCANS: usize = 4;

/// Serve arrival rates in jobs per modeled second. Fixed constants,
/// never recalibrated at runtime, so faster service shows as lower
/// latency rather than as a higher offered load. They offer 70% and
/// 130% of the 4-device fleet's modeled capacity for the job mix below,
/// which takes 1.1 ms of device time per job (lease devices × busy
/// modeled seconds, median over ten seeds when the rates were set).
pub const NOMINAL_RATE: f64 = 2550.0;
/// See [`NOMINAL_RATE`].
pub const OVERLOAD_RATE: f64 = 4730.0;
/// Jobs submitted at each rate.
pub const SERVE_JOBS: usize = 120;

/// splitmix64: a tiny, well-mixed, dependency-free generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scan of a stream: the phantom it images and its noise seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSpec {
    pub phantom_seed: u64,
    pub noise_seed: u64,
}

impl ScanSpec {
    pub fn phantom(&self) -> Phantom {
        Phantom::baggage(self.phantom_seed)
    }
}

/// The scans of a stream: the first `STREAM_SCANS` phantoms of the
/// program's baggage suite (`Phantom::baggage_suite`), each measured
/// with photon noise drawn from the workload seed.
///
/// The phantoms are fixed because they, not the noise, set how hard a
/// scan is: over 40 random baggage scenes the final RMSE ran from 12 to
/// 80 HU and the equits to the stop rule from 5 to 16, and two scenes
/// never met it, which would swamp any seed-to-seed comparison of a
/// four-scan stream. Every one of these four holds metal-like inserts
/// (3.9-5.0x water).
pub fn stream(seed: u64) -> Vec<ScanSpec> {
    let mut rng = SplitMix::new(seed ^ 0x7265636f6e);
    (0..STREAM_SCANS as u64)
        .map(|phantom_seed| ScanSpec { phantom_seed, noise_seed: rng.next_u64() })
        .collect()
}

/// Where scan `i`'s sinogram lives inside an input directory.
pub fn sinogram_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("scan-{i}.csv"))
}

/// Project every scan of the stream through `geom` and write the noisy
/// sinograms as CSV into `dir`.
pub fn write_stream(dir: &Path, geom: &Geometry, scans: &[ScanSpec]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let a = SystemMatrix::compute_parallel(geom, 0);
    for (i, s) in scans.iter().enumerate() {
        let truth = s.phantom().render(geom.grid, 2);
        let measured = scan(&a, &truth, Some(NoiseModel::default_dose()), s.noise_seed);
        io::write_sinogram_csv(&sinogram_path(dir, i), &measured.y)?;
    }
    Ok(())
}

/// The three serve tenants.
pub const TENANTS: [&str; 3] = ["trauma", "radiology", "archive"];

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        let k = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, k);
    }
}

/// Tenant of each job in a block of five: one trauma, three radiology,
/// one archive, shuffled per block.
const MIX_BLOCK: [usize; 5] = [0, 1, 1, 1, 2];
/// Inter-arrival gaps drawn together, one from each equal-probability
/// stratum of the exponential distribution.
const GAP_BLOCK: usize = 10;

/// One rate's serve workload as the JSON `WorkloadSpec::parse` reads.
///
/// Poisson arrivals at `rate` jobs per modeled second; each job is
/// - 20% urgent priority-5 tiny-scale trauma jobs with a deadline,
/// - 60% routine priority-1 test-scale radiology jobs with streaming
///   ingest,
/// - 20% priority -1 test-scale archive jobs on 2-device leases.
///
/// Both draws are stratified so the seed changes the order of jobs and
/// gaps but hardly their totals: every block of five jobs holds the mix
/// exactly, and every block of ten gaps takes one gap from each tenth of
/// the exponential distribution, in shuffled order. This cut the
/// seed-to-seed spread of a 120-job replay's nominal p90 latency from
/// 41% to 11% of its median.
pub fn serve_workload(seed: u64, rate: f64, jobs: usize) -> String {
    let mut rng = SplitMix::new(seed ^ 0x7365727665 ^ rate.to_bits());
    let mut t = 0.0f64;
    let mut out = String::from("{\"jobs\": [\n");
    let (mut kinds, mut gaps) = (Vec::new(), Vec::new());
    for j in 0..jobs {
        if kinds.is_empty() {
            kinds = MIX_BLOCK.to_vec();
            shuffle(&mut kinds, &mut rng);
        }
        if gaps.is_empty() {
            let mut strata: Vec<usize> = (0..GAP_BLOCK).collect();
            shuffle(&mut strata, &mut rng);
            // Exponential quantile of a uniform draw inside stratum k;
            // 1 - u lies in (0, 1].
            let n = GAP_BLOCK as f64;
            gaps = strata
                .iter()
                .map(|&k| -(1.0 - (k as f64 + rng.next_f64()) / n).ln() / rate)
                .collect();
        }
        t += gaps.pop().expect("refilled above");
        let phantom = rng.next_u64() % 1_000_000;
        let noise = rng.next_u64() % 1_000_000;
        let body = match kinds.pop().expect("refilled above") {
            0 => format!("{TRAUMA_JOB}, \"deadline_seconds\": {}", t + TRAUMA_DEADLINE_S),
            1 => RADIOLOGY_JOB.to_string(),
            _ => ARCHIVE_JOB.to_string(),
        };
        out.push_str(&format!(
            "  {{\"id\": \"job-{j}\", {body}, \"phantom\": \"baggage:{phantom}\", \
             \"seed\": {noise}, \"arrival_seconds\": {t}}}{}\n",
            if j + 1 < jobs { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}

/// Modeled seconds a trauma job may take from arrival to completion.
pub const TRAUMA_DEADLINE_S: f64 = 0.05;

/// The fixed fields of each tenant's jobs.
const TRAUMA_JOB: &str =
    "\"tenant\": \"trauma\", \"priority\": 5, \"scale\": \"tiny\", \"devices\": 1, \"iters\": 4";
const RADIOLOGY_JOB: &str = "\"tenant\": \"radiology\", \"priority\": 1, \"scale\": \"test\", \
                             \"devices\": 1, \"iters\": 6, \"view_rate\": 200000.0";
const ARCHIVE_JOB: &str =
    "\"tenant\": \"archive\", \"priority\": -1, \"scale\": \"test\", \"devices\": 2, \"iters\": 8";

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_serve::WorkloadSpec;

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream(7), stream(7));
        assert_eq!(serve_workload(7, NOMINAL_RATE, 40), serve_workload(7, NOMINAL_RATE, 40));
    }

    #[test]
    fn different_seeds_different_scans_and_arrivals() {
        let (a, b) = (stream(1), stream(2));
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        let wa = WorkloadSpec::parse(&serve_workload(1, NOMINAL_RATE, 40)).expect("parses");
        let wb = WorkloadSpec::parse(&serve_workload(2, NOMINAL_RATE, 40)).expect("parses");
        let arrivals =
            |w: &WorkloadSpec| w.jobs.iter().map(|j| j.arrival_seconds).collect::<Vec<_>>();
        assert_ne!(arrivals(&wa), arrivals(&wb));
    }

    #[test]
    fn stream_images_the_baggage_suite_with_distinct_noise() {
        let s = stream(3);
        let suite = Phantom::baggage_suite(STREAM_SCANS);
        for (i, x) in s.iter().enumerate() {
            assert_eq!(x.phantom().name(), suite[i].name());
            assert!(s[..i].iter().all(|y| y.noise_seed != x.noise_seed));
        }
    }

    #[test]
    fn same_seed_same_sinograms_different_seed_different() {
        let geom = Geometry::tiny_scale();
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-gen-{}", std::process::id()));
        let dirs = [root.join("a"), root.join("b"), root.join("c")];
        write_stream(&dirs[0], &geom, &stream(11)).expect("writes");
        write_stream(&dirs[1], &geom, &stream(11)).expect("writes");
        write_stream(&dirs[2], &geom, &stream(12)).expect("writes");
        for i in 0..STREAM_SCANS {
            let read = |d: &Path| std::fs::read(sinogram_path(d, i)).expect("reads");
            assert_eq!(read(&dirs[0]), read(&dirs[1]));
            assert_ne!(read(&dirs[0]), read(&dirs[2]));
        }
        std::fs::remove_dir_all(&root).expect("cleans up");
    }

    #[test]
    fn serve_mix_is_exact_per_block_and_arrivals_rise() {
        let w = WorkloadSpec::parse(&serve_workload(5, OVERLOAD_RATE, SERVE_JOBS)).expect("parses");
        assert_eq!(w.jobs.len(), SERVE_JOBS);
        for block in w.jobs.chunks(MIX_BLOCK.len()) {
            let count = |t: &str| block.iter().filter(|j| j.tenant == t).count();
            assert_eq!(TENANTS.map(count), [1, 3, 1]);
        }
        assert!(w.jobs.windows(2).all(|p| p[0].arrival_seconds < p[1].arrival_seconds));
        let other =
            WorkloadSpec::parse(&serve_workload(6, OVERLOAD_RATE, SERVE_JOBS)).expect("parses");
        let tenants =
            |w: &WorkloadSpec| w.jobs.iter().map(|j| j.tenant.clone()).collect::<Vec<_>>();
        assert_ne!(tenants(&w), tenants(&other));
    }
}
