//! Conformance suite: pins every paper-facing number bitwise.
//!
//! Gated behind the `conformance` feature so the tier-1 suite stays
//! fast; CI runs it as its own job via `cargo xtask conformance`:
//!
//! ```text
//! cargo test --features conformance --test conformance
//! ```
//!
//! The suite regenerates the Table 1 / Table 2 / Table 3 comparisons,
//! the fig5–7 sweeps, and the fault-recovery ledger at `tiny` scale and
//! compares every modeled number *bitwise* against the checked-in
//! golden file (`tests/conformance/golden_tiny.txt`). Any drift — an
//! innocent-looking refactor of the work model, a float reassociation,
//! a changed default — fails the suite with a per-key diff.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! MBIR_CONFORMANCE_BLESS=1 cargo test --features conformance --test conformance
//! ```
//!
//! and commit the regenerated golden file with a justification.

#![cfg(feature = "conformance")]

use std::collections::BTreeMap;
use std::path::PathBuf;

use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::pipeline::{Case, Setup};
use gpu_icd::{
    psv_options_for, AMatrixMode, Checkpoint, GpuOptions, L2ReadWidth, Layout, RegisterMode,
};
use mbir_bench::{gpu_options_for, run_gpu, run_psv, run_sequential, to_golden, Pipeline, Scale};
use mbir_fleet::FaultSpec;
use mbir_telemetry::RecordingSink;
use psv_icd::PsvConfig;
use std::sync::Arc;

/// Bitwise golden ledger: every `check_*` call records the actual
/// value under a key; `finish()` either rewrites the golden file
/// (bless mode) or demands an exact match, key set included.
struct Golden {
    path: PathBuf,
    want: BTreeMap<String, String>,
    got: BTreeMap<String, String>,
    bless: bool,
}

impl Golden {
    fn open(name: &str) -> Golden {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/conformance").join(name);
        let bless = std::env::var_os("MBIR_CONFORMANCE_BLESS").is_some();
        let mut want = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let (k, v) = line.split_once('=').unwrap_or_else(|| {
                    panic!("malformed golden line in {}: {line:?}", path.display())
                });
                want.insert(k.to_string(), v.to_string());
            }
        } else {
            assert!(bless, "golden file {} missing — bless it first", path.display());
        }
        Golden { path, want, got: BTreeMap::new(), bless }
    }

    fn record(&mut self, key: &str, value: String) {
        let prev = self.got.insert(key.to_string(), value);
        assert!(prev.is_none(), "duplicate golden key {key}");
    }

    /// Pin an f64 bitwise (stored as the hex of its bit pattern, with
    /// the decimal value alongside for human diffing).
    fn check_f64(&mut self, key: &str, v: f64) {
        self.record(key, format!("f64:{:016x} # {v}", v.to_bits()));
    }

    fn check_f32(&mut self, key: &str, v: f32) {
        self.record(key, format!("f32:{:08x} # {v}", v.to_bits()));
    }

    fn check_u64(&mut self, key: &str, v: u64) {
        self.record(key, format!("u64:{v}"));
    }

    fn check_bool(&mut self, key: &str, v: bool) {
        self.record(key, format!("bool:{v}"));
    }

    fn finish(self) {
        if self.bless {
            let mut out = String::from(
                "# Bitwise golden numbers for the conformance suite (tiny scale).\n\
                 # Regenerate with: MBIR_CONFORMANCE_BLESS=1 cargo test --features conformance\n",
            );
            for (k, v) in &self.got {
                out.push_str(&format!("{k}={v}\n"));
            }
            std::fs::create_dir_all(self.path.parent().unwrap()).unwrap();
            std::fs::write(&self.path, out).unwrap();
            eprintln!("blessed {} keys into {}", self.got.len(), self.path.display());
            return;
        }
        let mut diffs = Vec::new();
        for (k, got) in &self.got {
            match self.want.get(k) {
                None => diffs.push(format!("  new key {k} = {got}")),
                Some(want) if want != got => {
                    diffs.push(format!("  {k}:\n    golden {want}\n    actual {got}"))
                }
                _ => {}
            }
        }
        for k in self.want.keys() {
            if !self.got.contains_key(k) {
                diffs.push(format!("  stale key {k} (in golden, not regenerated)"));
            }
        }
        assert!(
            diffs.is_empty(),
            "conformance drift against {} ({} issue(s)):\n{}\n\
             If intentional, re-bless with MBIR_CONFORMANCE_BLESS=1 and commit.",
            self.path.display(),
            diffs.len(),
            diffs.join("\n")
        );
    }
}

/// Tables 1-3, fig5–7, and the fault ledger at tiny scale, every
/// modeled number pinned bitwise.
#[test]
fn paper_numbers_are_bitwise_stable_at_tiny_scale() {
    let mut g = Golden::open("golden_tiny.txt");
    let scale = Scale::Tiny;
    let (cpu_side, _) = scale.sv_sides();
    let base = gpu_options_for(scale);

    // ---- Table 1: seq vs PSV vs GPU over baggage cases -------------
    let mut shared = None;
    for (i, phantom) in Phantom::baggage_suite(2).iter().enumerate() {
        let p = Pipeline::build(scale, phantom, 1000 + i as u64, shared.take());
        let seq = run_sequential(&p, 60);
        let psv = run_psv(&p, cpu_side, 200);
        let gpu = run_gpu(&p, base, 300);
        for r in [&seq, &psv, &gpu] {
            assert!(r.converged, "table1 case {i}: {} did not converge", r.algo);
            g.check_f64(&format!("table1.case{i}.{}.seconds", r.algo), r.seconds);
            g.check_f64(&format!("table1.case{i}.{}.equits", r.algo), r.equits);
            g.check_f32(&format!("table1.case{i}.{}.rmse_hu", r.algo), r.rmse_hu);
        }
        shared = Some(p.case.setup);
    }

    // The shared pipeline behind Table 2 and the figure sweeps — the
    // same case the repro binaries use (baggage 0, seed 42).
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);

    // ---- Table 2: A-matrix memory path and type --------------------
    for (mode, tag) in [
        (AMatrixMode::GlobalF32, "global_f32"),
        (AMatrixMode::TextureF32, "texture_f32"),
        (AMatrixMode::GlobalU8, "global_u8"),
        (AMatrixMode::TextureU8, "texture_u8"),
    ] {
        let opts = GpuOptions { amatrix: mode, ..base };
        let mut gpu = p.case.gpu(opts);
        to_golden(&mut gpu, &p, 300);

        // The profiled run must be bitwise identical to the unprofiled
        // one — the structural invariant repro_table2 asserts — and its
        // counters are part of the pinned surface.
        let mut prof = p.case.gpu(opts);
        let sink = Arc::new(RecordingSink::new());
        prof.set_profile_sink(sink.clone());
        to_golden(&mut prof, &p, 300);
        assert_eq!(gpu.modeled_seconds().to_bits(), prof.modeled_seconds().to_bits());
        assert_eq!(gpu.image(), prof.image());
        let report = sink.report("gpu-icd");
        let mbir = report.kernel("mbir_update").expect("mbir_update spans");

        g.check_f64(&format!("table2.{tag}.seconds"), gpu.modeled_seconds());
        g.check_f64(&format!("table2.{tag}.tex_gbps"), mbir.tex_gbps);
        g.check_u64(&format!("table2.{tag}.tex_transactions"), mbir.tex_transactions);
        g.check_u64(&format!("table2.{tag}.l2_transactions"), mbir.l2_transactions);
    }

    // ---- Fig. 5: convergence traces --------------------------------
    let psv = run_psv(&p, cpu_side, 200);
    let gpu = run_gpu(&p, base, 300);
    for r in [(&psv, "psv"), (&gpu, "gpu")] {
        let (run, tag) = r;
        g.check_u64(&format!("fig5.{tag}.trace_points"), run.trace.points.len() as u64);
        // Shape: modeled time never decreases (a starved batch —
        // the tiny-scale threshold interaction — advances zero time,
        // so equality is legitimate), and the run as a whole moves.
        for w in run.trace.points.windows(2) {
            assert!(w[1].seconds >= w[0].seconds, "fig5 {tag}: time went backwards");
        }
        assert!(
            run.trace.points.last().unwrap().seconds > run.trace.points[0].seconds,
            "fig5 {tag}: no time advanced"
        );
        assert!(run.converged, "fig5 {tag}: did not converge");
        let cross = run.trace.crossing(10.0).expect("10 HU crossing exists");
        g.check_f64(&format!("fig5.{tag}.crossing_seconds"), cross.seconds);
        g.check_f64(&format!("fig5.{tag}.final_seconds"), run.seconds);
        g.check_f32(&format!("fig5.{tag}.final_rmse_hu"), run.rmse_hu);
    }
    // (No GPU-beats-CPU assertion here: at tiny scale the problem is
    // too small to fill the simulated machine, so PSV legitimately
    // crosses 10 HU first. The ordering claim lives in the repro
    // binaries at test scale and up; here the crossings are pinned
    // bitwise instead.)

    // ---- Table 3: each GPU optimization turned off ------------------
    // The rows and iteration caps of repro_table3; its baseline is the
    // fig. 5 GPU run.
    g.check_f64("table3.baseline.seconds", gpu.seconds);
    g.check_f64("table3.baseline.equits", gpu.equits);
    for (tag, opts) in [
        ("l2_float", GpuOptions { l2_read: L2ReadWidth::Float, ..base }),
        ("regs44", GpuOptions { registers: RegisterMode::Regs44, ..base }),
        ("no_intra_sv", GpuOptions { threadblocks_per_sv: 1, ..base }),
        ("static_voxels", GpuOptions { dynamic_voxels: false, ..base }),
        ("no_batch_threshold", GpuOptions { batch_threshold: false, ..base }),
    ] {
        let r = run_gpu(&p, opts, 400);
        g.check_f64(&format!("table3.{tag}.seconds"), r.seconds);
        g.check_f64(&format!("table3.{tag}.equits"), r.equits);
    }

    // ---- Fig. 6: chunked layout sweep ------------------------------
    let naive = run_gpu(&p, GpuOptions { layout: Layout::Naive, ..base }, 300);
    g.check_f64("fig6.naive.seconds", naive.seconds);
    let mut best = (0u32, 0.0f64);
    for width in [8u32, 16, 32, 64] {
        let r = run_gpu(&p, GpuOptions { layout: Layout::Chunked { width }, ..base }, 300);
        let speedup = naive.seconds / r.seconds;
        g.check_f64(&format!("fig6.width{width}.seconds"), r.seconds);
        if speedup > best.1 {
            best = (width, speedup);
        }
    }
    assert!(best.1 > 1.0, "fig6: no chunk width beat the naive layout");
    g.check_u64("fig6.best_width", best.0 as u64);

    // ---- Fig. 7: tuning sweeps (panels a and d at tiny) ------------
    let no_thresh = GpuOptions { batch_threshold: false, ..base };
    for side in [4usize, 6, 8, 12] {
        let mut gpu = p.case.gpu(GpuOptions { sv_side: side, ..no_thresh });
        let sink = Arc::new(RecordingSink::new());
        gpu.set_profile_sink(sink.clone());
        let out = to_golden(&mut gpu, &p, 400);
        let equits = out.trace.last().expect("a golden run traces").equits;
        let report = sink.report("gpu-icd");
        let mbir = report.kernel("mbir_update").expect("mbir_update spans");
        g.check_f64(&format!("fig7a.side{side}.seconds"), gpu.modeled_seconds());
        g.check_f64(&format!("fig7a.side{side}.equits"), equits);
        g.check_f64(&format!("fig7a.side{side}.l2_gbps"), mbir.l2_gbps);
    }
    for batch in [4usize, 8, 16] {
        let r = run_gpu(&p, GpuOptions { svs_per_batch: batch, ..no_thresh }, 400);
        g.check_f64(&format!("fig7d.batch{batch}.seconds"), r.seconds);
    }

    // ---- Fault-recovery ledger -------------------------------------
    let devices = 4;
    let fleet_opts = GpuOptions { devices, ..base };
    let iters = 8;
    let healthy = {
        let mut gpu = p.case.gpu(fleet_opts);
        for _ in 0..iters {
            gpu.iteration();
        }
        g.check_f64("fault.healthy.seconds", gpu.modeled_seconds());
        gpu
    };
    for (name, schedule) in [
        ("single_failure", "fail:1@4".to_string()),
        ("straggler", "slow:0@0..24x2.5".to_string()),
        ("storm", "fail:3@8,slow:1@0..16x2,link:4..16x1.5,backoff:0.25".to_string()),
    ] {
        let mut gpu = p.case.gpu(fleet_opts);
        let spec = FaultSpec::parse(&schedule, devices).expect("valid schedule");
        gpu.set_fault_spec(spec).expect("spec installs");
        for _ in 0..iters {
            gpu.iteration();
        }
        // Recovery contract: faults bend the timeline, never the math.
        assert_eq!(gpu.image(), healthy.image(), "fault `{name}` changed the image");
        assert_eq!(gpu.error(), healthy.error(), "fault `{name}` changed the error");
        let fr = gpu.fleet_report().expect("fleet run");
        g.check_f64(&format!("fault.{name}.seconds"), gpu.modeled_seconds());
        g.check_u64(&format!("fault.{name}.faults"), fr.faults);
        g.check_f64(&format!("fault.{name}.recovery_seconds"), fr.recovery_seconds);
        g.check_f64(&format!("fault.{name}.lost_seconds"), fr.lost_seconds);
        g.check_f64(&format!("fault.{name}.exchange_seconds"), fr.exchange_seconds);
    }

    // ---- System matrix: A's bits at every scale the suite and the ---
    // benchmark build, on one and on three workers.
    for scale in [Scale::Tiny, Scale::Test, Scale::Harness] {
        let geom = scale.geometry();
        let digest = sysmat_digest(&SystemMatrix::compute_parallel(&geom, 1));
        let split = sysmat_digest(&SystemMatrix::compute_parallel(&geom, 3));
        assert_eq!(digest, split, "{scale:?}: A differs between 1 and 3 build threads");
        g.check_u64(&format!("sysmat.{}.digest", format!("{scale:?}").to_lowercase()), digest);
    }

    // ---- The SV sweep: PSV-ICD and GPU-ICD at the test-scale presets,
    // six iterations on one and on three workers.
    {
        let scale = Scale::Test;
        let setup = Setup::new(scale.geometry());
        let truth = Phantom::baggage(0).render(setup.geometry().grid, 2);
        let s = scan(setup.a(), &truth, Some(NoiseModel::default_dose()), 42);
        let case = Case::new(setup, s.y, s.weights, 0.002);
        let run = |threads: usize| {
            let mut psv = case.psv(PsvConfig { threads, ..psv_options_for(scale) });
            let mut gpu = case.gpu(GpuOptions { threads, ..gpu_options_for(scale) });
            for _ in 0..6 {
                psv.iteration();
                gpu.iteration();
            }
            [
                ("psv", state_digest(psv.image(), psv.error()), psv.modeled_seconds().to_bits()),
                ("gpu", state_digest(gpu.image(), gpu.error()), gpu.modeled_seconds().to_bits()),
            ]
        };
        let one = run(1);
        assert_eq!(one, run(3), "the sweep differs between 1 and 3 workers");
        for (algo, digest, seconds) in one {
            g.check_u64(&format!("sweep.test.{algo}.digest"), digest);
            g.check_f64(&format!("sweep.test.{algo}.seconds"), f64::from_bits(seconds));
        }
    }

    // ---- Checkpoint round-trip at the midpoint ---------------------
    {
        let mut gpu = p.case.gpu(fleet_opts);
        for _ in 0..iters / 2 {
            gpu.iteration();
        }
        let ckp = gpu.checkpoint();
        let bytes = ckp.to_bytes();
        g.check_u64("checkpoint.bytes", bytes.len() as u64);
        let back = Checkpoint::from_bytes(&bytes, "conformance").expect("round-trips");
        assert_eq!(back.to_bytes(), bytes, "checkpoint encode/decode/encode drifted");
        let mut resumed = p.case.gpu(fleet_opts);
        resumed.restore(&back).expect("checkpoint restores");
        for _ in iters / 2..iters {
            gpu.iteration();
            resumed.iteration();
        }
        assert_eq!(gpu.image(), resumed.image(), "resumed image diverged");
        g.check_bool(
            "checkpoint.seconds_identical",
            gpu.modeled_seconds().to_bits() == resumed.modeled_seconds().to_bits(),
        );
    }

    g.finish();
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over every voxel's per-view first channels, run counts and
/// entry bits. Channels and counts enter as `u32` values, so the digest
/// pins what A holds, not the width it is stored at.
fn sysmat_digest(a: &SystemMatrix) -> u64 {
    fnv1a((0..a.geometry().grid.num_voxels()).flat_map(|j| {
        let col = a.column(j);
        let channels = col.first_channels().iter().map(|&c| c as u32);
        let counts = col.counts().iter().map(|&n| n as u32);
        let values = col.values_flat().iter().map(|v| v.to_bits());
        channels.chain(counts).chain(values).collect::<Vec<_>>()
    }))
}

/// FNV-1a over an image's bits, then an error sinogram's.
fn state_digest(image: &Image, error: &Sinogram) -> u64 {
    fnv1a(image.data().iter().chain(error.data()).map(|v| v.to_bits()))
}

/// Structural invariants over the checked-in `results/*.json` files:
/// every BENCH_* and table/fig artifact must parse with the hardened
/// telemetry parser, contain only finite numbers, and keep the shape
/// downstream tooling (plots, the paper tables) consumes.
#[test]
fn checked_in_result_files_are_structurally_valid() {
    use mbir_telemetry::json::parse;
    use serde::json::Value;

    fn walk_finite(v: &Value, path: &str) {
        match v {
            Value::F64(x) => assert!(x.is_finite(), "{path}: non-finite {x}"),
            Value::Array(items) => {
                for (i, it) in items.iter().enumerate() {
                    walk_finite(it, &format!("{path}[{i}]"));
                }
            }
            Value::Object(fields) => {
                for (k, it) in fields {
                    walk_finite(it, &format!("{path}.{k}"));
                }
            }
            _ => {}
        }
    }

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("results/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let v = parse(&text)
            .unwrap_or_else(|e| panic!("{name}: checked-in result does not parse: {e}"));
        walk_finite(&v, &name);
        seen += 1;

        // Array-of-records artifacts must be non-empty and uniform:
        // every record carries the same field names as the first.
        if let Value::Array(items) = &v {
            assert!(!items.is_empty(), "{name}: empty result array");
            if let Value::Object(first) = &items[0] {
                let keys: Vec<&String> = first.iter().map(|(k, _)| k).collect();
                for (i, it) in items.iter().enumerate() {
                    let Value::Object(fields) = it else { panic!("{name}[{i}]: not an object") };
                    let got: Vec<&String> = fields.iter().map(|(k, _)| k).collect();
                    assert_eq!(got, keys, "{name}[{i}]: ragged record");
                }
            }
        }
    }
    assert!(seen >= 10, "only {seen} result JSONs found — results/ moved?");

    // The BENCH_* family specifically must be present: they are the
    // structural record of every subsystem benchmark in the repo.
    for required in [
        "BENCH_cluster.json",
        "BENCH_fault_tolerance.json",
        "BENCH_multi_gpu.json",
        "BENCH_serve.json",
    ] {
        assert!(dir.join(required).exists(), "missing results/{required}");
    }
}
