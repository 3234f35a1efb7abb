//! `mbirctl` — scan simulation and MBIR reconstruction from the shell.
//!
//! ```text
//! mbirctl scan        --phantom shepp-logan --scale test --out scan.csv [--truth truth.pgm]
//! mbirctl reconstruct --sino scan.csv --scale test --algo gpu --out recon.pgm [--csv recon.csv]
//! mbirctl fan-demo    --scale tiny
//! mbirctl info        --scale test
//! ```

use ct_core::fbp;
use ct_core::hu::{hu_from_mu, mu_from_hu, CONVERGENCE_HU};
use ct_core::image::Image;
use ct_core::io;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{
    gpu_options_for, plan_config, psv_options_for, Args, BoundaryAction, Checkpoint, GpuIcd,
};
use gpu_icd::{GpuOptions, MbirError};
use mbir::prior::QggmrfPrior;
use mbir::stopping::{run, RunOutcome, Stop};
use mbir_fleet::{FaultSpec, FleetSpec};
use mbir_telemetry::{chrome_trace, ProfileReport};
use mbir_topo::ClusterSpec;
use psv_icd::PsvConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Flags every subcommand accepts, plus each subcommand's own. Any
/// other `--flag` is rejected up front, and every value is read and
/// checked before the work starts.
const COMMON_FLAGS: &[&str] = &["scale", "threads"];

fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    match cmd {
        "scan" => Some(&["phantom", "out", "truth", "i0", "seed"]),
        "reconstruct" => Some(&[
            "sino",
            "out",
            "algo",
            "csv",
            "i0",
            "sigma",
            "max-iters",
            "profile",
            "devices",
            "fleet",
            "checkpoint",
            "resume",
            "checkpoint-every",
            "faults",
        ]),
        "fan-demo" => Some(&["out"]),
        "volume" => Some(&["slices", "sigma", "passes", "out"]),
        "serve" => Some(&["jobs", "devices", "fleet", "out", "profile", "backfill"]),
        "info" => Some(&[]),
        _ => None,
    }
}

fn usage() {
    eprintln!("usage: mbirctl <scan|reconstruct|fan-demo|volume|serve|info> [--scale tiny|test|harness|paper] [--threads N] ...");
    eprintln!("  scan        --phantom shepp-logan|water|baggage:<seed> --out <sino.csv> [--truth <t.pgm>] [--i0 <dose>]");
    eprintln!("  reconstruct --sino <sino.csv> --algo fbp|sequential|psv|gpu --out <img.pgm> [--csv <img.csv>] [--profile <report.json>] [--devices N]");
    eprintln!("              [--checkpoint <dir> [--checkpoint-every N] [--resume]] [--faults fail:<d>@<b>,slow:<d>@<a>..<b>x<f>,link:<a>..<b>x<f>,backoff:<s>|random:<seed>]");
    eprintln!("              [--fleet nodes=<N>x<M>[,slabs=<K>] | --fleet <fleet-or-cluster.json>] (multi-node cluster with hierarchical exchange and slab streaming)");
    eprintln!("  fan-demo    (fan acquisition -> rebin -> reconstruction demo)");
    eprintln!("  volume      --slices <n> (3-D multi-slice reconstruction demo)");
    eprintln!("  serve       --jobs <workload.json> [--devices N | --fleet nodes=1x<M> | --fleet <fleet-or-cluster.json>] (one node, one slab) [--backfill] [--out <report.json>] [--profile <p.json>]");
    eprintln!("  info        (geometry and system-matrix statistics)");
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let Some(extra) = allowed_flags(&cmd) else {
        usage();
        return ExitCode::FAILURE;
    };
    let allowed: Vec<&str> = COMMON_FLAGS.iter().chain(extra).copied().collect();
    let result = Args::parse(argv, &allowed).and_then(|args| {
        // Host worker threads for all parallel loops (system-matrix build,
        // projections, per-SV batches). 0 = auto-detect; every path is
        // deterministic, so the value changes wall-clock time only.
        mbir_parallel::set_threads(args.get_or("threads", 0usize)?);
        match cmd.as_str() {
            "scan" => cmd_scan(&args),
            "reconstruct" => cmd_reconstruct(&args),
            "fan-demo" => cmd_fan_demo(&args),
            "volume" => cmd_volume(&args),
            "serve" => cmd_serve(&args),
            "info" => cmd_info(&args),
            _ => unreachable!("allowed_flags vetted the subcommand"),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mbirctl: {e}");
            if matches!(e, MbirError::Usage(_)) {
                usage();
            }
            ExitCode::FAILURE
        }
    }
}

/// Parse `--fleet`: the `nodes=<N>x<M>[,slabs=<K>]` shorthand builds
/// the Titan-X/NVLink/100GbE cluster preset; anything else is a path
/// to a JSON spec — a cluster if it has a top-level `nodes` field, else
/// a flat fleet, which runs as a one-node, one-slab cluster.
fn parse_fleet_arg(value: &str) -> Result<ClusterSpec, MbirError> {
    if let Some(shape) = value.strip_prefix("nodes=") {
        let (shape, slabs) = match shape.split_once(',') {
            Some((s, rest)) => {
                let k = rest.strip_prefix("slabs=").ok_or_else(|| {
                    usage_err(format!("bad --fleet option '{rest}' (expected slabs=<K>)"))
                })?;
                let k: usize =
                    k.parse().map_err(|_| usage_err(format!("bad --fleet slab count '{k}'")))?;
                (s, k)
            }
            None => (shape, 1),
        };
        let (n, m) = shape.split_once('x').ok_or_else(|| {
            usage_err(format!("bad --fleet shape '{shape}' (expected nodes=<N>x<M>)"))
        })?;
        let nodes: usize =
            n.parse().map_err(|_| usage_err(format!("bad --fleet node count '{n}'")))?;
        let dpn: usize =
            m.parse().map_err(|_| usage_err(format!("bad --fleet devices-per-node '{m}'")))?;
        if nodes == 0 || dpn == 0 || slabs == 0 {
            return Err(usage_err("--fleet nodes, devices-per-node, and slabs must be >= 1"));
        }
        return Ok(ClusterSpec::titan_x_cluster(nodes, dpn).with_slabs(slabs));
    }
    let text = std::fs::read_to_string(value).map_err(|e| MbirError::io(value, e))?;
    let v = mbir_telemetry::json::parse(&text)
        .map_err(|e| usage_err(format!("bad fleet spec '{value}': {e}")))?;
    let is_cluster = matches!(&v, serde::json::Value::Object(fields)
        if fields.iter().any(|(k, _)| k == "nodes"));
    let spec = if is_cluster {
        ClusterSpec::from_json(&v)
    } else {
        FleetSpec::from_json(&v).map(ClusterSpec::single_node)
    };
    spec.map_err(|e| usage_err(format!("bad fleet spec '{value}': {e}")))
}

fn usage_err(msg: impl Into<String>) -> MbirError {
    MbirError::Usage(msg.into())
}

fn cmd_scan(args: &Args) -> Result<(), MbirError> {
    let scale = args.scale()?;
    let geom = scale.geometry();
    let phantom =
        Phantom::parse(args.get("phantom")?.unwrap_or("shepp-logan")).map_err(MbirError::Usage)?;
    let out =
        PathBuf::from(args.get("out")?.ok_or_else(|| usage_err("scan requires --out <sino.csv>"))?);
    let truth_out = args.get("truth")?.map(PathBuf::from);
    let i0 = args.positive_or("i0", 2.0e4)?;
    let seed = args.get_or("seed", 0u64)?;

    eprintln!(
        "computing system matrix ({}x{}, {} views)...",
        geom.grid.nx, geom.grid.ny, geom.num_views
    );
    let a = SystemMatrix::compute_parallel(&geom, 0);
    let truth = phantom.render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0 }), seed);
    io::write_sinogram_csv(&out, &s.y).map_err(|e| MbirError::io(&out, e))?;
    eprintln!(
        "wrote {} ({} views x {} channels)",
        out.display(),
        s.y.num_views(),
        s.y.num_channels()
    );
    if let Some(path) = truth_out {
        io::write_pgm(&path, &truth, mu_from_hu(-1000.0), mu_from_hu(1500.0))
            .map_err(|e| MbirError::io(&path, e))?;
        eprintln!("wrote {} (window -1000..1500 HU)", path.display());
    }
    Ok(())
}

fn cmd_reconstruct(args: &Args) -> Result<(), MbirError> {
    let sino_path = PathBuf::from(
        args.get("sino")?.ok_or_else(|| usage_err("reconstruct requires --sino <sino.csv>"))?,
    );
    let out = PathBuf::from(
        args.get("out")?.ok_or_else(|| usage_err("reconstruct requires --out <img.pgm>"))?,
    );
    let csv = args.get("csv")?;
    let (img, note) = reconstruct(&sino_path, args)?;
    io::write_pgm(&out, &img, mu_from_hu(-1000.0), mu_from_hu(1500.0))
        .map_err(|e| MbirError::io(&out, e))?;
    eprintln!("wrote {} — {note}", out.display());
    if let Some(csv) = csv {
        io::write_image_csv(&PathBuf::from(csv), &img).map_err(|e| MbirError::io(csv, e))?;
        eprintln!("wrote {csv} (lossless CSV)");
    }
    let peak_hu = img.data().iter().fold(f32::MIN, |m, &v| m.max(hu_from_mu(v)));
    eprintln!("peak value: {peak_hu:.0} HU");
    Ok(())
}

/// Read and check every `reconstruct` setting, so a bad one fails
/// before any work starts; then reconstruct the sinogram at
/// `sino_path`.
fn reconstruct(sino_path: &Path, args: &Args) -> Result<(Image, String), MbirError> {
    let scale = args.scale()?;
    let algo = args.get("algo")?.unwrap_or("gpu");
    if !matches!(algo, "fbp" | "sequential" | "psv" | "gpu") {
        return Err(usage_err(format!("unknown algorithm '{algo}' (fbp, sequential, psv, gpu)")));
    }
    let profile = args.get("profile").map_err(|_| {
        usage_err("--profile requires a path (e.g. --profile results/profile.json)")
    })?;
    if profile.is_some() && !matches!(algo, "psv" | "gpu") {
        return Err(usage_err(format!("--profile supports --algo psv|gpu, not '{algo}'")));
    }
    let mut devices: usize = args.get_or("devices", 1)?;
    if devices < 1 {
        return Err(usage_err("--devices must be at least 1"));
    }
    if devices > 1 && algo != "gpu" {
        return Err(usage_err(format!("--devices supports --algo gpu only, not '{algo}'")));
    }
    for flag in ["checkpoint", "resume", "checkpoint-every", "faults", "fleet"] {
        if args.has(flag) && algo != "gpu" {
            return Err(usage_err(format!("--{flag} supports --algo gpu only, not '{algo}'")));
        }
    }
    let cluster = args.get("fleet")?.map(parse_fleet_arg).transpose()?;
    if let Some(c) = &cluster {
        let n = c.total_devices();
        if args.has("devices") && devices != n {
            return Err(usage_err(format!(
                "--devices {devices} contradicts --fleet ({n} devices)"
            )));
        }
        devices = n;
    }
    let checkpoint = args.get("checkpoint")?.map(Path::new);
    let every = args.get_or("checkpoint-every", 1u64)?;
    if every == 0 {
        return Err(usage_err("--checkpoint-every must be at least 1"));
    }
    let resume = args.switch("resume")?;
    for flag in ["resume", "checkpoint-every"] {
        if args.has(flag) && checkpoint.is_none() {
            return Err(usage_err(format!("--{flag} requires --checkpoint <dir>")));
        }
    }
    let faults = match args.get("faults")? {
        Some(_) if devices < 2 => {
            return Err(usage_err("--faults requires --devices >= 2 (a fleet to degrade)"))
        }
        Some(spec) => Some(FaultSpec::parse(spec, devices).map_err(MbirError::Usage)?),
        None => None,
    };
    let i0 = args.positive_or("i0", 2.0e4)?;
    let sigma = args.positive_or("sigma", 0.002)?;
    let max_iters: usize = args.get_or("max-iters", 200)?;

    let y = io::read_sinogram_csv(sino_path).map_err(|e| MbirError::io(sino_path, e))?;
    let case = Case::measured(Setup::new(scale.geometry()), y, i0, sigma)?;
    if algo == "fbp" {
        return Ok((case.init, "FBP (direct method)".to_string()));
    }
    eprintln!("computing system matrix and 40-equit golden for the convergence criterion...");
    let golden = case.golden(40.0);
    let stop = Stop::Golden { image: &golden, hu: CONVERGENCE_HU };

    let (img, mut note, out, recording) = match algo {
        "sequential" => {
            let mut icd = case.sequential();
            let out = run(&mut icd, stop, max_iters, |_, _| BoundaryAction::Continue);
            let rmse = out.trace.last().expect("a golden run traces").rmse_hu;
            let note = format!("sequential ICD, {:.1} equits, final {rmse:.1} HU", icd.equits());
            (icd.into_image(), note, out, None)
        }
        "psv" => {
            let config = PsvConfig { profile: profile.is_some(), ..psv_options_for(scale) };
            let mut psv = case.psv(config);
            let out = run(&mut psv, stop, max_iters, |_, _| BoundaryAction::Continue);
            let note = format!(
                "PSV-ICD, {:.1} equits, modeled 16-core time {:.3} s",
                psv.equits(),
                psv.modeled_seconds()
            );
            (psv.image().clone(), note, out, psv.recording().cloned())
        }
        _ => {
            let opts = GpuOptions { profile: profile.is_some(), devices, ..gpu_options_for(scale) };
            let mut gpu = case.gpu(opts);
            if let Some(cluster) = cluster {
                gpu.set_cluster_spec(cluster)?;
            }
            if let Some(spec) = faults {
                gpu.set_fault_spec(spec)?;
            }
            let out = run_gpu(&mut gpu, stop, max_iters, checkpoint, every, resume)?;
            let mut note = format!(
                "GPU-ICD, {:.1} equits, modeled Titan X time {:.4} s",
                gpu.equits(),
                gpu.modeled_seconds()
            );
            if let Some(fr) = gpu.fleet_report() {
                let util = fr.per_device.iter().map(|d| d.utilization).sum::<f64>()
                    / fr.per_device.len().max(1) as f64;
                note.push_str(&format!(
                    " on {} devices (mean utilization {:.0}%, {:.1} MB exchanged)",
                    fr.devices,
                    100.0 * util,
                    fr.exchange_bytes as f64 / 1e6
                ));
                if fr.faults > 0 {
                    note.push_str(&format!(
                        "; {} fault(s), {:.3} s recovery, {:.3e} s compute lost",
                        fr.faults, fr.recovery_seconds, fr.lost_seconds
                    ));
                }
            }
            (gpu.image().clone(), note, out, gpu.recording().cloned())
        }
    };
    if let Some(path) = profile {
        let rec = recording.ok_or_else(|| {
            MbirError::Profile(format!("--algo {algo} ran without its recording sink"))
        })?;
        write_profile(path, &rec.report(&format!("{algo}-icd")))?;
    }
    if !out.converged {
        note.push_str(&format!("; reached --max-iters {max_iters} without converging"));
    }
    Ok((img, note))
}

/// Run the GPU driver to `stop`, threading the `--checkpoint`,
/// `--checkpoint-every`, and `--resume` flags through: the run saves
/// its state every N iteration boundaries (atomically, so an interrupt
/// never corrupts the file) and at its end, and `--resume` restarts
/// from the saved state, continuing bitwise identically to an
/// uninterrupted run.
fn run_gpu<P: mbir::prior::Prior + Sync>(
    gpu: &mut GpuIcd<'_, P>,
    stop: Stop<'_>,
    max_iters: usize,
    checkpoint: Option<&Path>,
    every: u64,
    resume: bool,
) -> Result<RunOutcome, MbirError> {
    let path = checkpoint.map(|dir| dir.join("checkpoint.mbir"));
    if let Some(dir) = checkpoint {
        std::fs::create_dir_all(dir).map_err(|e| MbirError::io(dir, e))?;
    }
    if let Some(path) = path.as_ref().filter(|_| resume) {
        gpu.restore(&Checkpoint::load(path)?)?;
        eprintln!("resumed from {} at iteration {}", path.display(), gpu.iterations());
    }
    let start = gpu.iterations();
    let remaining = (max_iters as u64).saturating_sub(start) as usize;
    let mut saved = Ok(());
    let out = run(gpu, stop, remaining, |gpu, _| {
        let due = (gpu.iterations() - start).is_multiple_of(every);
        if let Some(path) = path.as_ref().filter(|_| due) {
            saved = gpu.checkpoint().save(path);
        }
        match saved {
            Ok(()) => BoundaryAction::Continue,
            Err(_) => BoundaryAction::Stop,
        }
    });
    saved?;
    if let Some(path) = &path {
        gpu.checkpoint().save(path)?;
    }
    Ok(out)
}

/// Write the structured report at `path` and its Chrome `trace_event`
/// rendering at `<path>.trace.json`.
fn write_profile(path: &str, report: &ProfileReport) -> Result<(), MbirError> {
    std::fs::write(path, report.to_json_pretty()).map_err(|e| MbirError::io(path, e))?;
    let trace = format!("{path}.trace.json");
    std::fs::write(&trace, chrome_trace(report)).map_err(|e| MbirError::io(&trace, e))?;
    eprintln!("wrote {path} (profile) and {trace} (chrome://tracing)");
    Ok(())
}

fn cmd_fan_demo(args: &Args) -> Result<(), MbirError> {
    let scale = args.scale()?;
    let out = args.get("out")?;
    let geom = scale.geometry();
    let fan = ct_core::fanbeam::FanGeometry::covering(&geom, geom.grid.bounding_radius() * 4.0);
    eprintln!(
        "fan geometry: {} views, {} channels, fan angle {:.1} deg, R = {:.0} mm",
        fan.num_views,
        fan.num_channels,
        fan.fan_angle.to_degrees(),
        fan.source_radius
    );
    let truth = Phantom::shepp_logan().render(geom.grid, 2);
    let fan_sino = ct_core::fanbeam::fan_forward(&fan, &truth);
    let y = ct_core::fanbeam::rebin_to_parallel(&fan, &fan_sino, &geom);
    let rec = fbp::reconstruct(&geom, &y);
    let rmse = ct_core::hu::rmse_hu(&rec, &truth);
    println!("fan scan -> rebin -> FBP: RMSE vs truth {rmse:.1} HU");
    if let Some(out) = out {
        io::write_pgm(&PathBuf::from(out), &rec, mu_from_hu(-1000.0), mu_from_hu(1500.0))
            .map_err(|e| MbirError::io(out, e))?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn cmd_volume(args: &Args) -> Result<(), MbirError> {
    use ct_core::volume::Volume;
    use mbir::volume_icd::VolumeIcd;
    let scale = args.scale()?;
    let geom = scale.geometry();
    let nz: usize = args.get_or("slices", 5)?;
    if nz == 0 {
        return Err(usage_err("--slices must be at least 1"));
    }
    let sigma = args.positive_or("sigma", 0.002)?;
    let passes = args.get_or("passes", 6usize)?;
    let prefix = args.get("out")?;
    eprintln!("scanning {nz} slices of a varying cylinder at {scale:?}...");
    let a = SystemMatrix::compute_parallel(&geom, 0);
    let radii: Vec<f32> =
        (0..nz).map(|z| 0.3 + 0.3 * (z as f32 * std::f32::consts::PI / nz as f32).sin()).collect();
    let slices: Vec<Image> =
        radii.iter().map(|&r| Phantom::water_cylinder(r).render(geom.grid, 2)).collect();
    let truth = Volume::from_slices(&slices);
    let mut ys = Vec::new();
    let mut ws = Vec::new();
    for (z, s) in slices.iter().enumerate() {
        let sc = scan(&a, s, Some(NoiseModel::default_dose()), 900 + z as u64);
        ys.push(sc.y);
        ws.push(sc.weights);
    }
    let prior = QggmrfPrior::standard(sigma);
    let init =
        Volume::from_slices(&ys.iter().map(|y| fbp::reconstruct(&geom, y)).collect::<Vec<_>>());
    let mut icd = VolumeIcd::new(&a, &ys, &ws, &prior, init);
    let to_hu = 1000.0 / ct_core::phantom::MU_WATER;
    for pass in 0..passes {
        icd.pass_slice_parallel(2);
        println!("pass {pass}: RMSE vs truth {:.1} HU", icd.volume().rmse(&truth) * to_hu);
    }
    if let Some(prefix) = prefix {
        for z in 0..nz {
            let path = PathBuf::from(format!("{prefix}-z{z}.pgm"));
            io::write_pgm(&path, &icd.volume().slice(z), mu_from_hu(-1000.0), mu_from_hu(1500.0))
                .map_err(|e| MbirError::io(&path, e))?;
        }
        eprintln!("wrote {nz} slice images with prefix {prefix}");
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), MbirError> {
    use mbir_serve::{Server, WorkloadSpec};
    use mbir_telemetry::RecordingSink;
    use std::sync::Arc;
    if args.has("fleet") && args.has("devices") {
        return Err(usage_err("pass either --devices or --fleet, not both"));
    }
    let jobs_path =
        args.get("jobs")?.ok_or_else(|| usage_err("serve requires --jobs <workload.json>"))?;
    let out = args.get("out")?;
    let profile = args.get("profile")?;
    let backfill = args.switch("backfill")?;
    let text = std::fs::read_to_string(jobs_path).map_err(|e| MbirError::io(jobs_path, e))?;
    let workload = WorkloadSpec::parse(&text)
        .map_err(|e| usage_err(format!("bad workload '{jobs_path}': {e}")))?;
    let fleet = match args.get("fleet")? {
        Some(value) => {
            // Serve leases devices from one flat fleet.
            let cluster = parse_fleet_arg(value)?;
            if cluster.nodes != 1 || cluster.slabs != 1 {
                return Err(usage_err(format!(
                    "--fleet {value}: serve runs one node with one slab, not {} node(s) x {} slab(s)",
                    cluster.nodes, cluster.slabs
                )));
            }
            cluster.node.fleet
        }
        None => {
            let devices = args.get_or("devices", 2usize)?;
            if devices == 0 {
                return Err(usage_err("--devices must be at least 1"));
            }
            FleetSpec::titan_x_pcie(devices)
        }
    };
    let sink = profile.map(|_| Arc::new(RecordingSink::new()));
    let outcome = Server::new(fleet, workload).backfill(backfill).run(sink.as_ref())?;
    let r = &outcome.report;
    println!(
        "serve: {} devices, {} completed, {} rejected, {} preemption(s), \
         {:.1} jobs/h, p50 {:.4}s, p99 {:.4}s, utilization {:.1}%, jain {:.3}",
        r.devices,
        r.completed,
        r.rejected,
        r.preemptions,
        r.jobs_per_hour,
        r.p50_latency_seconds,
        r.p99_latency_seconds,
        100.0 * r.utilization,
        r.fairness_jain
    );
    for j in &r.jobs {
        match j.status.as_str() {
            "completed" => println!(
                "  {:<12} {:<10} pri {:>3}  {}d  latency {:.4}s  queue {:.4}s  \
                 {} preemption(s){}{}",
                j.id,
                j.tenant,
                j.priority,
                j.devices,
                j.latency_seconds,
                j.queue_seconds,
                j.preemptions,
                if j.ingest_hidden_seconds > 0.0 {
                    format!("  ingest hid {:.4}s", j.ingest_hidden_seconds)
                } else {
                    String::new()
                },
                if j.missed_deadline { "  MISSED DEADLINE" } else { "" },
            ),
            _ => println!("  {:<12} {:<10} REJECTED: {}", j.id, j.tenant, j.reason),
        }
    }
    if let Some(path) = out {
        let s = serde_json::to_string_pretty(r)
            .map_err(|e| MbirError::InvalidData(format!("report serialization: {e}")))?;
        std::fs::write(path, s).map_err(|e| MbirError::io(path, e))?;
        eprintln!("wrote {path} (serve report)");
    }
    if let (Some(path), Some(sink)) = (profile, &sink) {
        write_profile(path, &sink.report("serve"))?;
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), MbirError> {
    let scale = args.scale()?;
    let geom = scale.geometry();
    println!("scale {:?}", scale);
    println!("  image: {} x {} voxels of {} mm", geom.grid.nx, geom.grid.ny, geom.grid.pixel_size);
    println!("  views: {} over 180 deg; channels: {}", geom.num_views, geom.num_channels);
    let setup = Setup::new(geom);
    let a = setup.a();
    println!(
        "  system matrix: {} nonzeros, {:.1} MB, {:.2} channels/voxel/view",
        a.nnz(),
        a.bytes() as f64 / 1e6,
        a.mean_channels_per_view()
    );
    let (cpu_side, gpu_side) = scale.sv_sides();
    println!("  tuned SV sides: CPU {cpu_side}, GPU {gpu_side}");
    let opts = gpu_options_for(scale);
    let plan = setup.plan(opts.sv_side, plan_config(&opts));
    println!(
        "  GPU plan: {:.1} MB, {:.2} B per SV element ({} elements)",
        plan.bytes() as f64 / 1e6,
        plan.bytes() as f64 / plan.elements().max(1) as f64,
        plan.elements()
    );
    Ok(())
}
