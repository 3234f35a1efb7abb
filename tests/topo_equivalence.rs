//! Cluster topologies are a timing model, not an algorithm change:
//! composing the fleet into nodes, streaming slabs through devices,
//! and swapping the flat ring for the hierarchical reduce must leave
//! every functional result — the image, the error sinogram, the work
//! counters — bitwise identical to the single-device driver at ANY
//! (nodes, devices-per-node, slabs) shape. Degenerate shapes must
//! collapse onto the flat fleet timeline exactly, a profiled cluster
//! run (healthy or faulted) must emit a deterministic schema-v6 report
//! with the exchange lane populated, and faults and checkpoint restore
//! compose with any cluster shape.

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
use mbir_fleet::FaultSpec;
use mbir_telemetry::json;
use mbir_topo::ClusterSpec;

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

fn run_cluster(s: &Setup, o: GpuOptions, cluster: Option<ClusterSpec>) -> RunResult {
    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), o);
    if let Some(c) = cluster {
        gpu.set_cluster_spec(c).expect("valid cluster spec");
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
fn any_cluster_shape_is_bitwise_identical_to_one_device() {
    // tiny_scale at sv_side 6 is a 4x4 supervoxel grid: 16 SVs, up
    // to 4 slabs, and device counts past the SV count still shard.
    let s = setup();
    let base = run_cluster(&s, opts(1), None);
    for (nodes, dpn, slabs) in
        [(1, 2, 1), (1, 4, 2), (2, 2, 2), (2, 4, 4), (4, 2, 3), (2, 8, 4), (4, 4, 1)]
    {
        let cluster = ClusterSpec::titan_x_cluster(nodes, dpn).with_slabs(slabs);
        let c = run_cluster(&s, opts(nodes * dpn), Some(cluster));
        let shape = format!("{nodes}x{dpn} slabs={slabs}");
        assert_eq!(base.image, c.image, "{shape} changed the image");
        assert_eq!(base.error, c.error, "{shape} changed the error sinogram");
        assert_eq!(base.equits.to_bits(), c.equits.to_bits(), "{shape}: equits");
        // Only the modeled timeline may move.
        assert!(c.modeled_seconds > 0.0, "{shape}: empty timeline");
    }
}

#[test]
fn degenerate_single_node_cluster_matches_the_flat_fleet_timeline() {
    // One node, no slab streaming: the hierarchical reduce collapses
    // onto the flat intra-node ring, so even the modeled timeline is
    // bitwise the flat fleet's.
    let s = setup();
    let cluster = ClusterSpec::titan_x_cluster(1, 4);
    let flat = {
        let mut gpu =
            GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(4));
        gpu.set_fleet_spec(cluster.flatten()).expect("valid fleet spec");
        let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
        stopping::run(&mut gpu, stop, 40, |_, _| BoundaryAction::Continue);
        (gpu.image().clone(), gpu.modeled_seconds())
    };
    let hier = run_cluster(&s, opts(4), Some(cluster));
    assert_eq!(flat.0, hier.image);
    assert_eq!(
        flat.1.to_bits(),
        hier.modeled_seconds.to_bits(),
        "1-node cluster timeline must equal the flat ring: {} vs {}",
        flat.1,
        hier.modeled_seconds
    );
}

#[test]
fn slab_streaming_and_seams_only_stretch_the_timeline() {
    // Same shape with and without slab streaming: streaming adds slab
    // loads and seam halos, so the modeled wall can only grow — and
    // the cluster ledger stays consistent with the merged wall clock.
    let s = setup();
    let whole = run_cluster(&s, opts(4), Some(ClusterSpec::titan_x_cluster(2, 2)));
    let slabbed = run_cluster(&s, opts(4), Some(ClusterSpec::titan_x_cluster(2, 2).with_slabs(4)));
    assert_eq!(whole.image, slabbed.image);
    assert!(
        slabbed.modeled_seconds > whole.modeled_seconds,
        "slab loads and seam halos priced nothing: {} vs {}",
        slabbed.modeled_seconds,
        whole.modeled_seconds
    );

    let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(4));
    gpu.set_cluster_spec(ClusterSpec::titan_x_cluster(2, 2).with_slabs(4)).expect("cluster");
    for _ in 0..3 {
        gpu.iteration();
    }
    let fr = gpu.fleet_report().expect("cluster run has a fleet report");
    assert_eq!(fr.devices, 4);
    assert!(fr.exchange_seconds > 0.0, "exchanges must be priced");
    assert!(fr.exchange_bytes > 0, "exchange bytes must be counted");
    assert!((fr.wall_seconds - gpu.modeled_seconds()).abs() < 1e-12 * fr.wall_seconds.max(1.0));
}

#[test]
fn profiled_cluster_run_is_deterministic_and_valid() {
    for faults in [None, Some("fail:1@2,slow:0@0..4x2,link:1..6x1.5,backoff:0.25")] {
        check_profiled_cluster_run(faults);
    }
}

fn check_profiled_cluster_run(faults: Option<&str>) {
    let s = setup();
    let profiled = |threads: usize| {
        let o = GpuOptions { profile: true, threads, ..opts(4) };
        let mut gpu = GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), o);
        gpu.set_cluster_spec(ClusterSpec::titan_x_cluster(2, 2).with_slabs(2)).expect("cluster");
        if let Some(text) = faults {
            gpu.set_fault_spec(FaultSpec::parse(text, 4).expect("schedule")).expect("installs");
        }
        for _ in 0..3 {
            gpu.iteration();
        }
        (gpu.image().clone(), gpu.recording().expect("profile on").report("gpu-icd-cluster"))
    };
    let (img1, rep1) = profiled(1);
    let (img4, rep4) = profiled(4);
    assert_eq!(img1, img4);
    let text1 = rep1.to_json_pretty();
    assert_eq!(text1, rep4.to_json_pretty(), "merged profile depends on interleaving");
    if faults.is_some() {
        let kinds: Vec<&str> = rep1.faults.iter().map(|f| f.kind.as_str()).collect();
        for kind in ["device_failure", "recovery", "straggler", "degraded_link"] {
            assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
        }
    }

    // The exchange lane carries every phase of the cluster batch.
    assert!(rep1.totals.exchanges > 0);
    assert_eq!(rep1.exchanges.len() as u64, rep1.totals.exchanges);
    let phases: std::collections::BTreeSet<&str> =
        rep1.exchanges.iter().map(|e| e.phase.as_str()).collect();
    for phase in ["slab_load", "seam_halo", "intra_gather", "inter_exchange", "intra_broadcast"] {
        assert!(phases.contains(phase), "missing {phase} in {phases:?}");
    }
    // inter_exchange is fleet-wide (node = None); intra phases are
    // pinned to a node inside the cluster.
    for e in &rep1.exchanges {
        match e.phase.as_str() {
            "inter_exchange" => assert!(e.node.is_none(), "inter phase pinned to a node"),
            _ => assert!(e.node.is_some_and(|n| n < 2), "bad node in {e:?}"),
        }
        assert!(e.bytes > 0, "zero-byte record emitted: {e:?}");
        assert!(e.duration_seconds >= 0.0);
    }

    // And the report validates against the checked-in v7 schema.
    assert!(text1.contains("\"schema_version\": 7"));
    let value = json::parse(&text1).expect("report JSON parses");
    let schema_text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/schemas/profile.schema.json"
    ))
    .expect("schema readable");
    let schema = json::parse(&schema_text).expect("schema parses");
    if let Err(errors) = json::validate(&value, &schema) {
        panic!("cluster profile does not conform to schema:\n{}", errors.join("\n"));
    }
}

#[test]
fn checked_in_cluster_exemplar_parses_to_the_preset() {
    // The `specs/cluster_2x2.json` exemplar (what `--fleet <file>`
    // consumes) must stay in sync with the preset it documents.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/specs/cluster_2x2.json"))
            .expect("exemplar readable");
    let spec = ClusterSpec::from_json(&json::parse(&text).expect("exemplar parses"))
        .expect("exemplar reconstructs");
    assert_eq!(spec, ClusterSpec::titan_x_cluster(2, 2).with_slabs(2));
}

#[test]
fn cluster_rejects_size_mismatch_and_composes_with_faults_and_restore() {
    let s = setup();
    let cluster = || ClusterSpec::titan_x_cluster(2, 2).with_slabs(2);
    let mk = || GpuIcd::new(&s.a, &s.scan.y, &s.scan.weights, &s.prior, s.init.clone(), opts(4));

    // Size mismatch.
    let err = mk().set_cluster_spec(ClusterSpec::titan_x_cluster(2, 4)).unwrap_err();
    assert!(err.to_string().contains("sized for 8 devices"), "{err}");

    // Faults x cluster, both installation orders: the same timeline,
    // and the same functional state as the healthy cluster and as one
    // device.
    let base = run_cluster(&s, opts(1), None);
    let healthy = run_cluster(&s, opts(4), Some(cluster()));
    let faults = FaultSpec::parse("fail:2@3,slow:0@0..4x2,backoff:0.25", 4).unwrap();
    let mut faults_first = mk();
    faults_first.set_fault_spec(faults.clone()).expect("faults install");
    faults_first.set_cluster_spec(cluster()).expect("the schedule carries over");
    let mut cluster_first = mk();
    cluster_first.set_cluster_spec(cluster()).expect("cluster installs");
    cluster_first.set_fault_spec(faults).expect("faults install on a cluster");
    for gpu in [&mut faults_first, &mut cluster_first] {
        let stop = Stop::Golden { image: &s.golden, hu: 10.0 };
        stopping::run(gpu, stop, 40, |_, _| BoundaryAction::Continue);
        assert_eq!(gpu.image(), &healthy.image);
        assert_eq!(gpu.image(), &base.image);
        assert_eq!(gpu.error(), &base.error);
        assert_eq!(gpu.equits().to_bits(), base.equits.to_bits());
        assert!(gpu.modeled_seconds() > healthy.modeled_seconds + 0.25, "backoff unpriced");
        assert_eq!(gpu.fleet_report().expect("fleet").faults, 2, "one failure, one episode");
    }
    assert_eq!(faults_first.modeled_seconds().to_bits(), cluster_first.modeled_seconds().to_bits());

    // Checkpoint restore onto a cluster: resume a slab-streamed run
    // after one iteration and land bitwise on the uninterrupted one.
    let mut donor = mk();
    donor.set_cluster_spec(cluster()).expect("cluster");
    donor.iteration();
    let ckp = donor.checkpoint();
    assert_eq!(ckp.resident.len(), 4, "streaming checkpoints carry the residency trailer");
    let mut fresh = mk();
    fresh.set_cluster_spec(cluster()).expect("cluster");
    fresh.restore(&ckp).expect("cluster checkpoints restore");
    for _ in 0..2 {
        donor.iteration();
        fresh.iteration();
    }
    assert_eq!(fresh.image(), donor.image());
    assert_eq!(fresh.modeled_seconds().to_bits(), donor.modeled_seconds().to_bits());
}
