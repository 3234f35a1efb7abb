//! The fleet is a timing model, not an algorithm change: sharding SVs
//! across simulated devices must leave every functional result — the
//! image, the error sinogram, the work counters — bitwise identical to
//! the single-device driver, at any device count and any host thread
//! count. One device is a fleet of one on the same pricing path: it
//! exchanges nothing, so its modeled seconds do not depend on the
//! link, and a straggler only stretches its timeline. A profiled
//! multi-device run must produce one deterministic merged report that
//! validates against the checked-in schema.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions};
use mbir::prior::QggmrfPrior;
use mbir::sequential::golden_image;
use mbir::stopping::{self, BoundaryAction, Stop};
use mbir_fleet::{FaultSpec, FleetSpec};
use mbir_telemetry::{json, RecordingSink};
use std::sync::Arc;

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: Image,
    golden: Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::water_cylinder(0.55).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 13);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    let golden = golden_image(&a, &s.y, &s.weights, &prior, init.clone(), 40.0);
    Setup { a, scan: s, prior, init, golden }
}

fn opts(devices: usize) -> GpuOptions {
    GpuOptions {
        sv_side: 6,
        threadblocks_per_sv: 4,
        svs_per_batch: 4,
        devices,
        ..Default::default()
    }
}

struct RunResult {
    image: Image,
    error: Sinogram,
    modeled_seconds: f64,
    equits: f64,
}

fn run(s: &Setup, o: GpuOptions) -> RunResult {
    run_on(s, o, None, None)
}

/// [`run`] on `spec` in place of the default PCIe fleet, under the
/// fault schedule `faults`.
fn run_on(s: &Setup, o: GpuOptions, spec: Option<FleetSpec>, faults: Option<&str>) -> RunResult {
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), o);
    if let Some(spec) = spec {
        gpu.set_fleet_spec(spec).expect("valid fleet spec");
    }
    if let Some(text) = faults {
        gpu.set_fault_spec(FaultSpec::parse(text, o.devices).unwrap()).expect("faults install");
    }
    let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
    stopping::run(&mut gpu, stop, 40, |_, _| BoundaryAction::Continue);
    RunResult {
        image: gpu.image().clone(),
        error: gpu.error().clone(),
        modeled_seconds: gpu.modeled_seconds(),
        equits: gpu.equits(),
    }
}

#[test]
fn one_device_prices_the_same_on_any_link() {
    // A fleet of one exchanges nothing, so moving it from the default
    // PCIe fleet to NVLink changes neither the image nor a bit of its
    // modeled seconds.
    let s = setup();
    let pcie = run(&s, opts(1));
    let nvlink = run_on(&s, opts(1), Some(FleetSpec::titan_x_nvlink(1)), None);
    assert_eq!(pcie.image, nvlink.image);
    assert_eq!(pcie.error, nvlink.error);
    assert_eq!(pcie.modeled_seconds.to_bits(), nvlink.modeled_seconds.to_bits());
}

#[test]
fn a_one_device_straggler_only_stretches_the_timeline() {
    let s = setup();
    let healthy = run(&s, opts(1));
    let slow = run_on(&s, opts(1), None, Some("slow:0@0..40x2,link:0..9x1.5"));
    assert_eq!(healthy.image, slow.image);
    assert_eq!(healthy.error, slow.error);
    assert_eq!(healthy.equits.to_bits(), slow.equits.to_bits());
    assert!(
        slow.modeled_seconds > healthy.modeled_seconds,
        "straggler {} vs healthy {}",
        slow.modeled_seconds,
        healthy.modeled_seconds
    );
}

#[test]
fn sharding_never_changes_functional_results() {
    let s = setup();
    let base = run(&s, opts(1));
    for devices in [2, 3, 4, 8] {
        let fleet = run(&s, opts(devices));
        assert_eq!(base.image, fleet.image, "{devices} devices changed the image");
        assert_eq!(base.error, fleet.error, "{devices} devices changed the error sinogram");
        assert_eq!(base.equits.to_bits(), fleet.equits.to_bits(), "{devices} devices: equits");
        // Only the modeled timeline may move.
        assert!(fleet.modeled_seconds > 0.0);
    }
}

#[test]
fn host_thread_count_does_not_change_fleet_results() {
    let s = setup();
    let t1 = run(&s, GpuOptions { threads: 1, ..opts(4) });
    let t4 = run(&s, GpuOptions { threads: 4, ..opts(4) });
    assert_eq!(t1.image, t4.image);
    assert_eq!(t1.error, t4.error);
    assert_eq!(t1.modeled_seconds.to_bits(), t4.modeled_seconds.to_bits());
}

#[test]
fn fleet_ledger_is_consistent() {
    let s = setup();
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(2));
    for _ in 0..3 {
        gpu.iteration();
    }
    let fr = gpu.fleet_report().expect("multi-device run has a fleet report");
    assert_eq!(fr.devices, 2);
    assert!((fr.wall_seconds - gpu.modeled_seconds()).abs() < 1e-12 * fr.wall_seconds.max(1.0));
    assert!(fr.exchange_seconds > 0.0, "exchanges must be priced");
    assert!(fr.exchange_bytes > 0, "exchange bytes must be counted");
    assert!(fr.batches > 0);
    for d in &fr.per_device {
        assert!(d.busy_seconds > 0.0, "device {} never worked", d.device);
        assert!(d.busy_seconds <= fr.wall_seconds + 1e-12);
        assert!((0.0..=1.0).contains(&d.utilization));
        assert!((d.busy_seconds + d.idle_seconds - fr.wall_seconds).abs() < 1e-9);
    }

    // One device is a fleet of one: busy its whole timeline, and it
    // exchanges nothing.
    let mut one = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(1));
    for _ in 0..3 {
        one.iteration();
    }
    let fr = one.fleet_report().expect("every run has a fleet report");
    assert_eq!(fr.devices, 1);
    assert_eq!(fr.per_device[0].utilization, 1.0);
    assert_eq!(fr.exchange_seconds, 0.0);
    assert_eq!(fr.exchange_bytes, 0);
}

#[test]
fn nvlink_never_loses_to_pcie() {
    // Same work, faster link: wall time can only improve.
    let s = setup();
    let run_with = |spec: Option<FleetSpec>| {
        let mut gpu =
            GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(4));
        if let Some(spec) = spec {
            gpu.set_fleet_spec(spec).expect("valid fleet spec");
        }
        for _ in 0..3 {
            gpu.iteration();
        }
        (gpu.image().clone(), gpu.modeled_seconds())
    };
    let (img_pcie, secs_pcie) = run_with(None);
    let (img_nv, secs_nv) = run_with(Some(FleetSpec::titan_x_nvlink(4)));
    assert_eq!(img_pcie, img_nv, "interconnect must not touch functional results");
    assert!(secs_nv < secs_pcie, "NVLink {secs_nv} vs PCIe {secs_pcie}");
}

#[test]
fn profiled_fleet_run_is_deterministic_and_valid() {
    let s = setup();
    let profiled = |threads: usize| {
        let o = GpuOptions { threads, ..opts(2) };
        let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), o);
        let sink = Arc::new(RecordingSink::new());
        gpu.set_profile_sink(sink.clone());
        for _ in 0..3 {
            gpu.iteration();
        }
        (gpu.image().clone(), sink.report("gpu-icd-fleet"))
    };
    let (img1, rep1) = profiled(1);
    let (img4, rep4) = profiled(4);
    assert_eq!(img1, img4);

    // The merged report is identical however many host workers emitted
    // spans concurrently: merging sorts by (start, device).
    let text1 = rep1.to_json_pretty();
    let text4 = rep4.to_json_pretty();
    assert_eq!(text1, text4, "merged profile must not depend on emission interleaving");

    // Spans carry device ids covering both devices, ordered by start
    // time with device as tiebreak.
    let devices: std::collections::BTreeSet<u64> = rep1.spans.iter().map(|sp| sp.device).collect();
    assert_eq!(devices.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    for w in rep1.spans.windows(2) {
        let key = |sp: &mbir_telemetry::KernelSpan| (sp.start_seconds, sp.device);
        assert!(
            key(&w[0]) <= key(&w[1]),
            "spans out of order: {:?} then {:?}",
            key(&w[0]),
            key(&w[1])
        );
    }

    // And it validates against the checked-in schema.
    let value = json::parse(&text1).expect("report JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/profile.schema.json"
    ))
    .expect("schema readable");
    let schema = json::parse(&schema_text).expect("schema parses");
    if let Err(errors) = json::validate(&value, &schema) {
        panic!("fleet profile does not conform to schema:\n{}", errors.join("\n"));
    }
}
