//! Fault injection bends the modeled timeline, never the mathematics:
//! a fleet or cluster run with any schedule of device failures,
//! stragglers, and degraded links must produce an image bitwise
//! identical to the healthy run on the same machine and to one device —
//! recovery re-prices the lost shard over the survivors, it does not
//! recompute anything. The telemetry profile (schema v3) carries the
//! fault lane and validates against the checked-in schema, and a dead
//! device stops receiving work.

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{GpuIcd, GpuOptions, MbirError};
use mbir::prior::QggmrfPrior;
use mbir_fleet::FaultSpec;
use mbir_telemetry::{json, RecordingSink};
use mbir_topo::ClusterSpec;
use std::sync::Arc;

struct Setup {
    a: SystemMatrix,
    scan: Scan,
    prior: QggmrfPrior,
    init: Image,
}

fn setup() -> Setup {
    let geom = Geometry::tiny_scale();
    let a = SystemMatrix::compute(&geom);
    let truth = Phantom::water_cylinder(0.55).render(geom.grid, 2);
    let s = scan(&a, &truth, Some(NoiseModel { i0: 1.0e5 }), 13);
    let prior = QggmrfPrior::standard(0.002);
    let init = fbp::reconstruct(&geom, &s.y);
    Setup { a, scan: s, prior, init }
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

fn driver<'a>(s: &'a Setup, o: GpuOptions) -> GpuIcd<'a, QggmrfPrior> {
    GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), o)
}

fn run<'a>(
    s: &'a Setup,
    o: GpuOptions,
    faults: Option<&str>,
    iters: usize,
) -> GpuIcd<'a, QggmrfPrior> {
    run_on(s, o, None, None, faults, iters)
}

/// [`run`] with a recording sink attached before the first iteration.
fn profiled<'a>(
    s: &'a Setup,
    o: GpuOptions,
    faults: Option<&str>,
    iters: usize,
) -> (GpuIcd<'a, QggmrfPrior>, Arc<RecordingSink>) {
    let sink = Arc::new(RecordingSink::new());
    (run_on(s, o, None, Some(&sink), faults, iters), sink)
}

fn run_on<'a>(
    s: &'a Setup,
    o: GpuOptions,
    cluster: Option<ClusterSpec>,
    sink: Option<&Arc<RecordingSink>>,
    faults: Option<&str>,
    iters: usize,
) -> GpuIcd<'a, QggmrfPrior> {
    let mut g = driver(s, o);
    if let Some(sink) = sink {
        g.set_profile_sink(sink.clone());
    }
    if let Some(c) = cluster {
        g.set_cluster_spec(c).expect("cluster installs");
    }
    if let Some(text) = faults {
        let spec = FaultSpec::parse(text, g.options().devices).expect("valid fault schedule");
        g.set_fault_spec(spec).expect("fault spec installs");
    }
    for _ in 0..iters {
        g.iteration();
    }
    g
}

#[test]
fn any_fault_schedule_leaves_the_image_bitwise_identical() {
    let s = setup();
    let schedules = [
        "fail:1@2",
        "fail:0@1,backoff:0.1",
        "slow:0@0..5x3",
        "link:0..8x2",
        "fail:2@3,slow:1@0..4x2,link:1..6x1.5,backoff:0.25",
        "random:7",
        // On a 2x2 cluster: node 1's leader, then the whole of node 1.
        "fail:2@3",
        "fail:2@2,fail:3@3",
    ];
    let one = run(&s, opts(1), None, 4);
    let cluster =
        |nodes, dpn, slabs| Some(ClusterSpec::titan_x_cluster(nodes, dpn).with_slabs(slabs));
    // Flat fleets, a pinned 2x2 cluster, and the streaming regime
    // (more slabs than devices).
    for (devices, shape) in [(2, None), (4, None), (4, cluster(2, 2, 2)), (2, cluster(1, 2, 4))] {
        let healthy = run_on(&s, opts(devices), shape.clone(), None, None, 4);
        assert_eq!(healthy.image(), one.image(), "{devices} devices {shape:?}");
        for schedule in schedules {
            if FaultSpec::parse(schedule, devices).is_err() {
                continue; // fail:2@3 needs > 2 devices
            }
            let faulted = run_on(&s, opts(devices), shape.clone(), None, Some(schedule), 4);
            let tag = format!("{devices} devices {shape:?}, `{schedule}`");
            assert_eq!(healthy.image(), faulted.image(), "{tag} changed the image");
            assert_eq!(one.error(), faulted.error(), "{tag} changed the error");
            assert_eq!(one.stats(), faulted.stats(), "{tag} changed the counters");
            assert!(
                faulted.modeled_seconds() > healthy.modeled_seconds(),
                "{tag}: faults must cost modeled time ({} vs {})",
                faulted.modeled_seconds(),
                healthy.modeled_seconds()
            );
        }
    }
}

#[test]
fn recovery_ledger_accounts_for_the_failure() {
    let s = setup();
    // Pick a (device, batch) pair that provably has kernel work, from
    // a profiled healthy run — a device that idles through the failed
    // batch would lose zero seconds, which is correct but proves
    // nothing.
    let (_, probe) = profiled(&s, opts(4), None, 3);
    let span = probe
        .report("probe")
        .spans
        .iter()
        .find(|sp| sp.batch >= 1 && sp.seconds > 0.0)
        .cloned()
        .expect("some device worked after batch 0");
    let schedule = format!("fail:{}@{},backoff:0.25", span.device, span.batch);

    let g = run(&s, opts(4), Some(&schedule), 3);
    let fr = g.fleet_report().expect("fleet report");
    assert_eq!(fr.faults, 1, "one scheduled failure");
    assert!(fr.lost_seconds > 0.0, "`{schedule}`: the failed device's in-flight work was lost");
    assert!(
        fr.recovery_seconds >= 0.25,
        "backoff is part of recovery, got {}",
        fr.recovery_seconds
    );

    // Same run against the healthy ledger: the faulted run paid for
    // the failure. The post-failure ring is one device smaller and so
    // exchanges marginally faster, which claws back a sliver of the
    // backoff — the wall still carries essentially all of it.
    let h = run(&s, opts(4), None, 3);
    let hr = h.fleet_report().unwrap();
    assert_eq!(hr.faults, 0);
    assert_eq!(hr.lost_seconds, 0.0);
    assert_eq!(hr.recovery_seconds, 0.0);
    assert!(
        fr.wall_seconds > hr.wall_seconds + 0.9 * 0.25,
        "failure + backoff must show in the wall: faulted {} vs healthy {} (`{schedule}`)",
        fr.wall_seconds,
        hr.wall_seconds
    );
}

#[test]
fn dead_devices_receive_no_work_after_the_failure() {
    let s = setup();
    let (_, sink) = profiled(&s, opts(3), Some("fail:1@2"), 4);
    let report = sink.report("gpu-icd-faulted");

    let mut saw_device_1_before = false;
    for sp in &report.spans {
        if sp.device == 1 {
            assert!(sp.batch <= 2, "dead device 1 launched batch {} after failing at 2", sp.batch);
            saw_device_1_before = true;
        }
    }
    assert!(saw_device_1_before, "device 1 must have worked before its failure");

    // Survivors keep working after the failure.
    for d in [0u64, 2] {
        assert!(
            report.spans.iter().any(|sp| sp.device == d && sp.batch > 2),
            "survivor {d} has no post-failure spans"
        );
    }
}

#[test]
fn fault_lane_lands_in_the_versioned_profile_and_validates() {
    let s = setup();
    let schedule = "fail:1@2,slow:0@0..3x2,link:1..4x1.5,backoff:0.25";
    let (_, sink) = profiled(&s, opts(4), Some(schedule), 3);
    let report = sink.report("gpu-icd-faulted");

    assert_eq!(mbir_telemetry::SCHEMA_VERSION, 7);
    let kinds: Vec<&str> = report.faults.iter().map(|f| f.kind.as_str()).collect();
    assert!(kinds.contains(&"device_failure"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"straggler"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"degraded_link"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"recovery"), "kinds: {kinds:?}");
    assert_eq!(report.totals.faults, report.faults.len() as u64);
    // Episodes are reported once, at onset — not once per batch.
    assert_eq!(kinds.iter().filter(|k| **k == "straggler").count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == "degraded_link").count(), 1);
    for w in report.faults.windows(2) {
        assert!(w[0].start_seconds <= w[1].start_seconds, "fault records out of timeline order");
    }
    let recovery = report.faults.iter().find(|f| f.kind == "recovery").unwrap();
    assert!(recovery.duration_seconds >= 0.25, "recovery spans at least the backoff");

    // The report (with its fault lane) validates against schema v3.
    let text = report.to_json_pretty();
    assert!(text.contains("\"schema_version\": 7"));
    let value = json::parse(&text).expect("report JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/profile.schema.json"
    ))
    .expect("schema readable");
    let schema = json::parse(&schema_text).expect("schema parses");
    if let Err(errors) = json::validate(&value, &schema) {
        panic!("faulted profile does not conform to schema:\n{}", errors.join("\n"));
    }

    // And the Chrome rendering carries the fault lane.
    let trace = mbir_telemetry::chrome_trace(&report);
    assert!(trace.contains("device_failure"));
    assert!(trace.contains("faults"));
}

#[test]
fn faulted_profiled_runs_are_deterministic() {
    let s = setup();
    let render = |threads: usize| {
        let o = GpuOptions { threads, ..opts(4) };
        let (g, sink) = profiled(&s, o, Some("random:11"), 3);
        (g.image().clone(), sink.report("gpu-icd-faulted").to_json_pretty())
    };
    let (img1, rep1) = render(1);
    let (img4, rep4) = render(4);
    assert_eq!(img1, img4);
    assert_eq!(rep1, rep4, "faulted profile must not depend on host thread interleaving");
}

#[test]
fn fault_spec_installation_is_validated() {
    let s = setup();
    // One device is a fleet of one: it can straggle, but no failure
    // leaves it a survivor.
    let mut single = driver(&s, opts(1));
    single.set_fault_spec(FaultSpec::parse("slow:0@0..4x2", 1).unwrap()).expect("slow installs");
    match single.set_fault_spec(FaultSpec::parse("fail:0@1", 2).unwrap()) {
        Err(MbirError::Usage(msg)) => assert!(msg.contains("no survivor"), "{msg}"),
        other => panic!("expected a usage error, got {other:?}"),
    }

    // Schedules must validate against the fleet size.
    let mut fleet = driver(&s, opts(2));
    let oversized = FaultSpec::parse("fail:3@1", 8).unwrap();
    assert!(matches!(fleet.set_fault_spec(oversized), Err(MbirError::Usage(_))));

    // And must be installed before the first iteration.
    let mut late = driver(&s, opts(2));
    late.iteration();
    assert!(matches!(
        late.set_fault_spec(FaultSpec::parse("fail:1@5", 2).unwrap()),
        Err(MbirError::Usage(_))
    ));
}
