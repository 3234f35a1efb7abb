//! The telemetry layer must be observe-only: a reconstruction with a
//! sink attached through `set_profile_sink` is bitwise identical to one
//! without, for both drivers. On top
//! of that, a profiled GPU-ICD run has to emit a well-formed report —
//! valid against `schemas/profile.schema.json`, with nonzero counters
//! for every kernel class — and a parseable Chrome trace.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::golden_image;
use mbir::stopping::{self, BoundaryAction, Stop};
use mbir_telemetry::{chrome_trace, json, ProfileReport, RecordingSink};
use psv_icd::{PsvConfig, PsvIcd};
use serde::json::Value;
use std::sync::Arc;

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: ct_core::image::Image,
    golden: ct_core::image::Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::water_cylinder(0.55).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 11);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
    Setup { a, scan: s, prior, init, golden }
}

fn gpu_opts() -> GpuOptions {
    GpuOptions { sv_side: 6, threadblocks_per_sv: 4, svs_per_batch: 4, ..Default::default() }
}

fn run_gpu(s: &Setup, profile: bool) -> (ct_core::image::Image, f64, Option<ProfileReport>) {
    let mut gpu =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    let sink = profile.then(|| Arc::new(RecordingSink::new()));
    if let Some(sink) = &sink {
        gpu.set_profile_sink(sink.clone());
    }
    let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
    stopping::run(&mut gpu, stop, 40, |_, _| BoundaryAction::Continue);
    let report = sink.map(|r| r.report("gpu-icd"));
    (gpu.image().clone(), gpu.modeled_seconds(), report)
}

#[test]
fn gpu_profiled_run_is_bitwise_identical() {
    let s = setup();
    let (img_off, secs_off, rep_off) = run_gpu(&s, false);
    let (img_on, secs_on, rep_on) = run_gpu(&s, true);
    assert_eq!(img_off, img_on, "profiling changed the reconstruction");
    assert_eq!(secs_off.to_bits(), secs_on.to_bits(), "profiling changed modeled time");
    assert!(rep_off.is_none());
    assert!(rep_on.is_some());
}

#[test]
fn gpu_profile_report_is_valid_and_complete() {
    let s = setup();
    let (_, secs, report) = run_gpu(&s, true);
    let report = report.expect("profile on");

    // Every kernel class of Algorithm 3 shows up with nonzero counters.
    for name in ["svb_create", "mbir_update", "error_writeback"] {
        let k = report.kernel(name).unwrap_or_else(|| panic!("no '{name}' spans"));
        assert!(k.launches > 0, "{name}: no launches");
        assert!(k.seconds > 0.0, "{name}: zero time");
        assert!(k.blocks > 0, "{name}: no blocks");
        assert!(k.l2_transactions > 0, "{name}: no L2 sectors");
        assert!(k.l2_bytes > 0.0, "{name}: no L2 bytes");
        assert!(k.occupancy > 0.0, "{name}: zero occupancy");
    }
    // The update kernel is the only one doing arithmetic; the copy
    // kernels are pure data movement in the work model.
    assert!(report.kernel("mbir_update").unwrap().instructions > 0.0);
    assert!(report.kernel("mbir_update").unwrap().flops > 0.0);
    // The texture path is exercised by the default TextureU8 A-matrix,
    // and its hit/miss split is internally consistent.
    let mbir = report.kernel("mbir_update").unwrap();
    assert!(mbir.tex_transactions > 0);
    assert_eq!(mbir.l1_hits + mbir.l1_misses, mbir.tex_transactions);
    assert!(mbir.tex_hit_rate > 0.0 && mbir.tex_hit_rate < 1.0);
    assert_eq!(
        report.kernel("mbir_update").unwrap().l2_hits + mbir.l2_misses,
        mbir.l2_transactions
    );

    // Span start times live on the modeled timeline.
    assert!(!report.spans.is_empty());
    for sp in &report.spans {
        assert!(sp.start_seconds >= 0.0 && sp.start_seconds < secs);
        assert!(sp.seconds > 0.0);
    }
    assert!((report.totals.seconds - secs).abs() / secs < 1e-9, "span seconds must sum to the run");
    assert!(report.totals.iterations > 0);
    assert_eq!(report.totals.final_rmse_hu.map(|r| r < 10.0), Some(true));

    // The JSON rendering round-trips and validates against the
    // checked-in schema.
    let text = report.to_json_pretty();
    let value = json::parse(&text).expect("report JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/profile.schema.json"
    ))
    .expect("schema readable");
    let schema = json::parse(&schema_text).expect("schema parses");
    if let Err(errors) = json::validate(&value, &schema) {
        panic!("report does not conform to schema:\n{}", errors.join("\n"));
    }

    // The Chrome trace parses and contains one complete event per span
    // plus metadata.
    let trace = chrome_trace(&report);
    let tv = json::parse(&trace).expect("trace JSON parses");
    match &tv {
        Value::Object(fields) => {
            let events = fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
                .expect("traceEvents present");
            match events {
                Value::Array(evs) => assert!(evs.len() > report.spans.len()),
                _ => panic!("traceEvents must be an array"),
            }
        }
        _ => panic!("trace root must be an object"),
    }
}

#[test]
fn psv_profiled_run_is_bitwise_identical_and_valid() {
    let s = setup();
    let run = |profile: bool| {
        let config = PsvConfig { sv_side: 6, threads: 2 };
        let mut psv =
            PsvIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), config);
        let sink = profile.then(|| Arc::new(RecordingSink::new()));
        if let Some(sink) = &sink {
            psv.set_profile_sink(sink.clone());
        }
        let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
        stopping::run(&mut psv, stop, 60, |_, _| BoundaryAction::Continue);
        let report = sink.map(|r| r.report("psv-icd"));
        (psv.image().clone(), psv.modeled_seconds(), report)
    };
    let (img_off, secs_off, rep_off) = run(false);
    let (img_on, secs_on, rep_on) = run(true);
    assert_eq!(img_off, img_on);
    assert_eq!(secs_off.to_bits(), secs_on.to_bits());
    assert!(rep_off.is_none());

    let report = rep_on.expect("profile on");
    let k = report.kernel("psv_iteration").expect("psv_iteration spans");
    assert!(k.launches > 0);
    assert!(k.seconds > 0.0);
    assert!(k.instructions > 0.0, "entry counts recorded");
    assert!(k.dram_bytes > 0.0, "SVB traffic recorded");
    assert_eq!(report.totals.iterations, k.launches);
    assert!(!report.convergence.is_empty());

    let value = json::parse(&report.to_json_pretty()).expect("report JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/profile.schema.json"
    ))
    .expect("schema readable");
    let schema = json::parse(&schema_text).expect("schema parses");
    assert!(json::validate(&value, &schema).is_ok());
}

#[test]
fn external_sink_sees_the_same_events() {
    // `set_profile_sink` routes emission without touching results.
    let s = setup();
    let sink = Arc::new(RecordingSink::new());
    let mut gpu =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    gpu.set_profile_sink(sink.clone());
    gpu.iteration();
    gpu.iteration();
    assert!(!sink.spans().is_empty());
    assert_eq!(sink.iterations().len(), 2);

    let (img_plain, secs_plain, _) = run_gpu(&s, false);
    let mut gpu2 =
        GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), gpu_opts());
    gpu2.set_profile_sink(Arc::new(RecordingSink::new()));
    let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
    stopping::run(&mut gpu2, stop, 40, |_, _| BoundaryAction::Continue);
    assert_eq!(gpu2.image(), &img_plain);
    assert_eq!(gpu2.modeled_seconds().to_bits(), secs_plain.to_bits());
}
