//! End-to-end benchmark of the MBIR reproduction on both clocks: host
//! seconds (CPU and wall) and modeled Titan X seconds.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload recon|cluster|serve[,...] --seed N --seconds S --trace 0|1
//! ```
//!
//! Per workload it prints a run-descriptor line and then one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Inputs are generated from `--seed` in a child process,
//! outside the timed region and outside `peak_rss_mb`. Work files live
//! under `.bench_work/` in the current directory. `perfbench/README.md`
//! says what each workload and metric is for.

mod cpu;
mod mem;
mod recon;
mod serve;
mod stats;
mod trace;
mod workload;

use mbir_telemetry::{KernelClassAgg, ProfileReport};
use stats::{jain, mean, median, percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Host threads for every parallel loop; equals `nproc` on the
/// reference host.
const THREADS: usize = 2;
/// Minimum passes over a workload's inputs per run: the second pass
/// repeats the first and must reproduce its modeled results bit for bit.
const MIN_PASSES: usize = 2;
/// Lowest share of a traced recon or cluster pass the layer spans must
/// cover.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Recon,
    Cluster,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "recon" => Ok(Workload::Recon),
            "cluster" => Ok(Workload::Cluster),
            "serve" => Ok(Workload::Serve),
            _ => Err(format!("unknown workload '{s}' (recon, cluster, serve)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Recon => "recon",
            Workload::Cluster => "cluster",
            Workload::Serve => "serve",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let list = value.split(',').map(Workload::parse).collect::<Result<_, _>>()?;
                workloads = Some(list);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The checked-out commit when the working directory is a git checkout,
/// else "unknown".
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.to_string(),
    }
}

fn descriptor(args: &Args, w: Workload) -> String {
    format!(
        "{{\"descriptor\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"threads\": {}, \"simd\": \"{}\", \"target_cpu\": \"{}\", \
         \"git_rev\": \"{}\"}}}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mbir_parallel::available(),
        mbir_parallel::threads(),
        mbir_simd::resolve(mbir_simd::SimdBackend::Auto).name(),
        env!("PERFBENCH_TARGET_CPU"),
        git_rev()
    )
}

fn result_json(metrics: &[Metric], attempted: u64, failures: &[String]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        (failures.len() as u64).min(attempted),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("gen") {
        generate(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| bench(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `perfbench gen --dir D --seed N`: write the stream's sinograms.
fn generate(argv: &[String]) -> Result<(), String> {
    let usage = || "usage: perfbench gen --dir <dir> --seed <n>".to_string();
    let [flag_d, dir, flag_s, seed] = argv else {
        return Err(usage());
    };
    if flag_d != "--dir" || flag_s != "--seed" {
        return Err(usage());
    }
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
    mbir_parallel::set_threads(THREADS);
    workload::write_stream(Path::new(dir), &recon::SCALE.geometry(), &workload::stream(seed))
        .map_err(|e| format!("{dir}: {e}"))
}

fn bench(args: &Args) -> Result<(), String> {
    mbir_parallel::set_threads(THREADS);
    mbir_simd::set_backend(mbir_simd::SimdBackend::Auto);
    let work = PathBuf::from(".bench_work");
    let run_dir = work.join(format!("run-{}", std::process::id()));
    let result = bench_in(args, &work, &run_dir);
    // Best effort: a leftover directory only costs disk space.
    let _ = std::fs::remove_dir_all(&run_dir);
    result
}

fn bench_in(args: &Args, work: &Path, run_dir: &Path) -> Result<(), String> {
    let inputs = run_dir.join("inputs");
    let outputs = run_dir.join("outputs");
    std::fs::create_dir_all(&outputs).map_err(|e| format!("{}: {e}", outputs.display()))?;
    if args.workloads.iter().any(|w| *w != Workload::Serve) {
        let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
        let status = Command::new(exe)
            .arg("gen")
            .arg("--dir")
            .arg(&inputs)
            .arg("--seed")
            .arg(args.seed.to_string())
            .status()
            .map_err(|e| format!("input generator: {e}"))?;
        if !status.success() {
            return Err(format!("input generator failed: {status}"));
        }
    }
    let scans = workload::stream(args.seed);
    let mut recon_keys: Option<Vec<(u64, u64)>> = None;
    for &w in &args.workloads {
        mem::reset_peak_rss()?;
        let run = match w {
            Workload::Recon | Workload::Cluster => Run::Stream(recon::run(
                &inputs,
                &outputs,
                &scans,
                w == Workload::Cluster,
                args.seconds,
                MIN_PASSES,
                args.trace,
            )?),
            Workload::Serve => {
                Run::Serve(serve::run(args.seed, args.seconds, MIN_PASSES, args.trace)?)
            }
        };
        let mut failures = run.failures();
        if let Run::Stream(s) = &run {
            let keys: Vec<(u64, u64)> =
                s.first_pass().map(|r| (r.equits.to_bits(), r.hash)).collect();
            if w == Workload::Recon {
                recon_keys = Some(keys);
            } else if recon_keys.as_ref().is_some_and(|k| *k != keys) {
                failures.push("cluster equits or images differ from recon's".into());
            }
            if args.trace && s.coverage < MIN_COVERAGE {
                failures.push(format!(
                    "layer spans cover {:.1}% of a traced pass, below {:.0}%",
                    100.0 * s.coverage,
                    100.0 * MIN_COVERAGE
                ));
            }
        }
        for f in &failures {
            eprintln!("perfbench: {}: check failed: {f}", w.name());
        }
        let metrics = if args.trace { run.layers() } else { run.end_to_end() };
        let desc = descriptor(args, w);
        if args.trace {
            let path = work.join(format!("trace-{}-seed{}.json", w.name(), args.seed));
            let doc = format!("{{\"run\": {desc},\n\"trace\": {}}}\n", run.trace().to_json());
            std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!("{desc}");
        println!("{}", result_json(&metrics, run.attempted(), &failures));
    }
    Ok(())
}

/// What a workload run produced.
enum Run {
    Stream(recon::StreamRun),
    Serve(serve::ServeRun),
}

const PHASES: [&str; 5] =
    ["slab_load", "seam_halo", "intra_gather", "inter_exchange", "intra_broadcast"];
const KERNELS: [&str; 3] = ["svb_create", "mbir_update", "error_writeback"];

impl Run {
    fn stream(&self) -> Option<&recon::StreamRun> {
        match self {
            Run::Stream(r) => Some(r),
            Run::Serve(_) => None,
        }
    }

    fn served(&self) -> Option<&serve::ServeRun> {
        match self {
            Run::Serve(r) => Some(r),
            Run::Stream(_) => None,
        }
    }

    fn trace(&self) -> &trace::Tracer {
        match self {
            Run::Stream(r) => &r.trace,
            Run::Serve(r) => &r.trace,
        }
    }

    fn profile(&self) -> Option<&ProfileReport> {
        match self {
            Run::Stream(r) => r.profile.as_ref(),
            Run::Serve(r) => r.profile.as_ref(),
        }
    }

    /// Host wall seconds of each scan, or of each pass over both serve
    /// rates, in the traced or untraced passes.
    fn walls(&self, traced: bool) -> Vec<f64> {
        match self {
            Run::Stream(r) => r.per_scan_host(traced, |s| s.wall_s),
            Run::Serve(r) => r.per_pass_host(traced, |x| x.wall_s),
        }
    }

    /// Host CPU seconds of each scan, or of each pass over both serve
    /// rates, in the untraced passes.
    fn cpus(&self) -> Vec<f64> {
        match self {
            Run::Stream(r) => r.per_scan_host(false, |s| s.cpu_s),
            Run::Serve(r) => r.per_pass_host(false, |x| x.cpu_s),
        }
    }

    fn coverage(&self) -> f64 {
        match self {
            Run::Stream(r) => r.coverage,
            Run::Serve(r) => r.coverage,
        }
    }

    fn failures(&self) -> Vec<String> {
        match self {
            Run::Stream(r) => r.failures(),
            Run::Serve(r) => r.failures.clone(),
        }
    }

    /// Scans reconstructed, or jobs submitted, over every pass.
    fn attempted(&self) -> u64 {
        match self {
            Run::Stream(r) => r.scans.len() as u64,
            Run::Serve(r) => (r.passes.len() * r.submitted()) as u64,
        }
    }

    /// Share of the first pass's scans or jobs that failed; the repeat
    /// check across passes fails the run but is not counted here.
    fn failed_share(&self) -> f64 {
        match self {
            Run::Stream(r) => {
                let failed = r.first_pass().filter(|s| s.check().is_some()).count();
                failed as f64 / r.first_pass().count().max(1) as f64
            }
            Run::Serve(r) => r.failed_jobs() as f64 / r.submitted().max(1) as f64,
        }
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let success = 1.0 - self.failed_share();
        let mut out = vec![
            m("cpu_s", median(&self.cpus()), "s"),
            m(
                "setup_s",
                self.stream().map_or_else(
                    || self.served().map_or(0.0, |r| median(&r.setup_s)),
                    |r| r.setup_s(),
                ),
                "s",
            ),
            m("peak_rss_mb", mem::peak_rss_mb(), "MB"),
        ];
        match self {
            Run::Stream(r) => {
                // Medians over the stream's scans: now and then one scan's
                // mean update hovers near the stop threshold and it runs
                // 1.5-2x the iterations it takes under other noise draws.
                let modeled = median(&r.per_scan(|s| s.modeled_s));
                let mut busy: Vec<f64> = Vec::new();
                for s in r.first_pass() {
                    busy.resize(s.fleet_busy.len(), 0.0);
                    busy.iter_mut().zip(&s.fleet_busy).for_each(|(b, x)| *b += x);
                }
                out.extend([
                    m("modeled_s", modeled, "s"),
                    m("equits", median(&r.per_scan(|s| s.equits)), "equit"),
                    m("rmse_hu", mean(&r.per_scan(|s| s.rmse_hu)), "HU"),
                    m("success_ratio", success, "ratio"),
                    m("jobs_per_h", 3600.0 / modeled, "jobs/h"),
                    m("p50_latency_s", r.modeled_p(50.0), "s"),
                    m("p90_latency_s", r.modeled_p(90.0), "s"),
                    m("fairness_jain", jain(&busy), "ratio"),
                ]);
            }
            Run::Serve(r) => {
                let [nominal, overload] = &r.passes[0].0;
                let jobs = nominal.report.jobs.iter().chain(&overload.report.jobs);
                let latency: Vec<f64> =
                    nominal.report.jobs.iter().map(|j| j.latency_seconds).collect();
                out.extend([
                    m("modeled_s", mean(&jobs.map(|j| j.modeled_seconds).collect::<Vec<_>>()), "s"),
                    m("equits", r.equits, "equit"),
                    m("rmse_hu", r.rmse_hu, "HU"),
                    m("success_ratio", success, "ratio"),
                    m("jobs_per_h", overload.report.jobs_per_hour, "jobs/h"),
                    m("p50_latency_s", percentile(&latency, 50.0), "s"),
                    m("p90_latency_s", percentile(&latency, 90.0), "s"),
                    m("fairness_jain", overload.report.fairness_jain, "ratio"),
                ]);
            }
        }
        out
    }

    /// Per-layer metrics of a traced run. Host layers report the median
    /// span; stream counts are means per scan. A layer the workload
    /// bypasses reads 0.
    fn layers(&self) -> Vec<Metric> {
        let t = self.trace();
        let per = |name: &str| median(&t.durations(name));
        let first: Vec<&recon::ScanResult> =
            self.stream().map(|r| r.first_pass().collect()).unwrap_or_default();
        let avg = |f: &dyn Fn(&recon::ScanResult) -> f64| {
            mean(&first.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        let updates = avg(&|s| s.updates as f64);
        let skipped = avg(&|s| s.skipped as f64);
        let iter_s = t.durations("icd.iter");
        let mut out = vec![
            m("host.wall_s", median(&self.walls(false)), "s"),
            m("ingest.read_s", per("ingest"), "s"),
            m("sysmat.build_s", per("sysmat"), "s"),
            m("sysmat.bytes", self.stream().map_or(0.0, |r| r.sysmat_bytes), "B"),
            m("plan.build_s", per("plan"), "s"),
            m("fbp.init_s", per("fbp"), "s"),
            m("driver.build_s", per("driver"), "s"),
            m("icd.iter_s.p50", percentile(&iter_s, 50.0), "s"),
            m("icd.iter_s.p90", percentile(&iter_s, 90.0), "s"),
            m("icd.iterations", avg(&|s| s.iterations as f64), "iter"),
            m("icd.solve_s", per("icd.solve"), "s"),
            m("icd.updates", updates, "count"),
            m("icd.skipped", skipped, "count"),
            m("icd.useful_ratio", updates / (updates + skipped).max(1.0), "ratio"),
            m("icd.batches", avg(&|s| s.batches as f64), "count"),
            m("output.write_s", per("output"), "s"),
        ];
        for k in KERNELS {
            let agg = self.profile().and_then(|p| p.kernel(k));
            let get = |f: fn(&KernelClassAgg) -> f64| agg.map_or(0.0, f);
            out.extend([
                m(format!("gpusim.{k}.seconds"), get(|a| a.seconds), "s"),
                m(format!("gpusim.{k}.dram_bytes"), get(|a| a.dram_bytes), "B"),
                m(format!("gpusim.{k}.l2_hit_rate"), get(|a| a.l2_hit_rate), "ratio"),
                m(format!("gpusim.{k}.tex_hit_rate"), get(|a| a.tex_hit_rate), "ratio"),
                m(format!("gpusim.{k}.occupancy"), get(|a| a.occupancy), "ratio"),
            ]);
        }
        let intensity = self
            .profile()
            .and_then(|p| p.kernel("mbir_update"))
            .map_or(0.0, |a| a.flops / a.dram_bytes.max(1.0));
        out.push(m("gpusim.mbir_update.flops_per_dram_byte", intensity, "flop/B"));
        let util_min = |s: &recon::ScanResult| s.fleet_util.iter().copied().reduce(f64::min);
        out.extend([
            m("fleet.exchange_s", avg(&|s| s.fleet_exchange_s), "s"),
            m("fleet.exchange_bytes", avg(&|s| s.fleet_exchange_bytes), "B"),
            m("fleet.util_mean", avg(&|s| mean(&s.fleet_util)), "ratio"),
            m("fleet.util_min", avg(&|s| util_min(s).unwrap_or(0.0)), "ratio"),
            m("topo.attach_s", per("topo.attach"), "s"),
        ]);
        let exchanges = self.profile().map(|p| p.exchanges.as_slice()).unwrap_or_default();
        let scans = first.len().max(1) as f64;
        for phase in PHASES {
            let of_phase = || exchanges.iter().filter(|e| e.phase == phase);
            let secs: f64 = of_phase().map(|e| e.duration_seconds).sum();
            let bytes: f64 = of_phase().map(|e| e.bytes as f64).sum();
            out.push(m(format!("topo.{phase}_s"), secs / scans, "s"));
            out.push(m(format!("topo.{phase}_bytes"), bytes / scans, "B"));
        }
        out.extend(self.serve_layers());
        out.extend([
            m("trace.overhead_s", median(&self.walls(true)) - median(&self.walls(false)), "s"),
            m("trace.coverage", self.coverage(), "ratio"),
        ]);
        out
    }

    /// The serve layer: per-rate host time plus the first pass's
    /// modeled scheduler figures.
    fn serve_layers(&self) -> Vec<Metric> {
        let r = self.served();
        let untraced = |i: usize| -> Vec<f64> {
            r.map(|r| r.passes.iter().filter(|p| !p.1).map(|p| p.0[i].wall_s).collect())
                .unwrap_or_default()
        };
        let first = r.map(|r| &r.passes[0].0);
        let nominal = first.map(|p| &p[0].report);
        let overload = first.map(|p| &p[1].report);
        let jobs: Vec<&mbir_serve::JobReport> =
            first.map(|p| p.iter().flat_map(|x| &x.report.jobs).collect()).unwrap_or_default();
        let queue: Vec<f64> = jobs.iter().map(|j| j.queue_seconds).collect();
        let overload_latency: Vec<f64> = overload
            .map(|o| o.jobs.iter().map(|j| j.latency_seconds).collect())
            .unwrap_or_default();
        let preemptions = jobs.iter().map(|j| j.preemptions as f64).sum();
        let mut out = vec![
            m("serve.run_s.nominal", median(&untraced(0)), "s"),
            m("serve.run_s.overload", median(&untraced(1)), "s"),
            m("serve.preemptions", preemptions, "count"),
            m("serve.utilization", nominal.map_or(0.0, |n| n.utilization), "ratio"),
            m("serve.queue_s.p50", percentile(&queue, 50.0), "s"),
            m("serve.queue_s.p90", percentile(&queue, 90.0), "s"),
            m("serve.ingest_hidden_s", jobs.iter().map(|j| j.ingest_hidden_seconds).sum(), "s"),
            m("serve.overload.p90_latency_s", percentile(&overload_latency, 90.0), "s"),
        ];
        for tenant in workload::TENANTS {
            let share = overload
                .and_then(|o| o.tenants.iter().find(|t| t.tenant == tenant))
                .map_or(0.0, |t| t.share);
            out.push(m(format!("serve.{tenant}.share"), share, "ratio"));
        }
        out
    }
}
