//! Checkpoint/resume must be invisible to the reconstruction: a run
//! interrupted at ANY iteration boundary and resumed from its saved
//! checkpoint must produce an image, error sinogram, work counters,
//! and modeled timeline bitwise identical to the run that was never
//! interrupted — on one device, on flat fleets and clusters (slabs pinned to device groups, and streamed through fewer
//! devices than slabs), with and without a fault schedule mid-flight
//! (failure before, at, and after the interruption point).

use ct_core::fbp;
use ct_core::geometry::Geometry;
use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::project::{scan, NoiseModel, Scan};
use ct_core::sinogram::Sinogram;
use ct_core::sysmat::SystemMatrix;
use gpu_icd::{Checkpoint, GpuIcd, GpuOptions, MbirError};
use mbir::prior::QggmrfPrior;
use mbir::sequential::IcdStats;
use mbir_fleet::FaultSpec;
use mbir_topo::ClusterSpec;
use std::path::PathBuf;

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

#[derive(PartialEq, Debug)]
struct Snapshot {
    image: Image,
    error: Sinogram,
    stats: IcdStats,
    seconds_bits: u64,
}

fn snapshot(gpu: &GpuIcd<'_, QggmrfPrior>) -> Snapshot {
    Snapshot {
        image: gpu.image().clone(),
        error: gpu.error().clone(),
        stats: gpu.stats(),
        seconds_bits: gpu.modeled_seconds().to_bits(),
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbir-resume-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Interrupt a `total`-iteration run at every boundary `k`, round the
/// checkpoint through disk, resume in a fresh driver (installing the
/// cluster and `faults` first, as the documented contract requires),
/// and demand the final state match the uninterrupted run bit for bit.
fn assert_resume_invisible(
    s: &Setup,
    o: GpuOptions,
    cluster: Option<ClusterSpec>,
    faults: Option<&str>,
    total: u64,
    tag: &str,
) {
    let dir = tmp_dir(tag);
    let path = dir.join("checkpoint.mbir");
    let make = || {
        let mut g = driver(s, o);
        if let Some(c) = &cluster {
            g.set_cluster_spec(c.clone()).expect("cluster installs");
        }
        if let Some(text) = faults {
            let spec = FaultSpec::parse(text, o.devices).expect("valid fault schedule");
            g.set_fault_spec(spec).expect("fault spec installs");
        }
        g
    };

    let mut full = make();
    for _ in 0..total {
        full.iteration();
    }
    let want = snapshot(&full);

    for k in 0..=total {
        let mut first = make();
        for _ in 0..k {
            first.iteration();
        }
        first.checkpoint().save(&path).expect("checkpoint saves");
        drop(first); // the "interrupt"

        let loaded = Checkpoint::load(&path).expect("checkpoint loads");
        let mut resumed = make();
        resumed.restore(&loaded).expect("checkpoint restores");
        assert_eq!(resumed.iterations(), k);
        for _ in k..total {
            resumed.iteration();
        }
        let got = snapshot(&resumed);
        assert_eq!(want, got, "{tag}: resume at iteration {k} diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_device_resume_is_bitwise_identical_at_every_boundary() {
    let s = setup();
    assert_resume_invisible(&s, opts(1), None, None, 5, "single");
}

#[test]
fn faulted_single_device_resume_is_bitwise_identical_at_every_boundary() {
    // One device is a fleet of one: its straggler and link episodes
    // replay across a resume like any fleet's.
    let s = setup();
    let faults = "slow:0@0..6x2,link:1..6x1.5";
    assert_resume_invisible(&s, opts(1), None, Some(faults), 5, "faulted-single");
}

#[test]
fn fleet_resume_is_bitwise_identical_at_every_boundary() {
    let s = setup();
    assert_resume_invisible(&s, opts(3), None, None, 5, "fleet");
}

#[test]
fn faulted_fleet_resume_is_bitwise_identical_at_every_boundary() {
    // The schedule places a failure, a straggler episode, and a link
    // episode inside the run, so interruption points land before,
    // at, and after each of them — the restore path must replay the
    // pre-checkpoint failure (resharding) and suppress re-emitted
    // episode onsets without touching the functional state.
    let s = setup();
    let faults = "fail:1@2,slow:0@0..4x2,link:1..6x1.5,backoff:0.25";
    assert_resume_invisible(&s, opts(4), None, Some(faults), 5, "faulted");
}

#[test]
fn cluster_resume_is_bitwise_identical_at_every_boundary() {
    // Pinned (two slabs over 2x2: each device keeps one slab) and
    // streaming (four slabs through two devices: residency churns, so
    // the checkpoint's residency trailer decides which loads the
    // resumed run pays).
    let s = setup();
    let pinned = ClusterSpec::titan_x_cluster(2, 2).with_slabs(2);
    let streaming = ClusterSpec::titan_x_cluster(1, 2).with_slabs(4);
    assert_resume_invisible(&s, opts(4), Some(pinned), None, 5, "cluster-pinned");
    assert_resume_invisible(&s, opts(2), Some(streaming), None, 5, "cluster-streaming");
}

#[test]
fn faulted_cluster_resume_is_bitwise_identical_at_every_boundary() {
    // A leader failure and then the rest of its node on the pinned
    // cluster; the streaming cluster loses a device mid-run.
    let s = setup();
    let pinned = ClusterSpec::titan_x_cluster(2, 2).with_slabs(2);
    let streaming = ClusterSpec::titan_x_cluster(1, 2).with_slabs(4);
    let node_loss = "fail:2@2,fail:3@5,slow:0@0..4x2,link:1..6x1.5,backoff:0.25";
    let lone = "fail:1@3,slow:0@0..4x2,link:1..6x1.5,backoff:0.25";
    assert_resume_invisible(&s, opts(4), Some(pinned), Some(node_loss), 5, "faulted-pinned");
    assert_resume_invisible(&s, opts(2), Some(streaming), Some(lone), 5, "faulted-streaming");
}

#[test]
fn faults_do_not_leak_into_the_checkpointed_image() {
    // Belt and braces on top of the boundary sweep: a faulted run's
    // checkpoints hold the same functional state as a healthy run's.
    let s = setup();
    let mut healthy = driver(&s, opts(4));
    let mut faulted = driver(&s, opts(4));
    faulted.set_fault_spec(FaultSpec::parse("fail:0@1", 4).unwrap()).expect("fault spec installs");
    for _ in 0..3 {
        healthy.iteration();
        faulted.iteration();
    }
    let h = healthy.checkpoint();
    let f = faulted.checkpoint();
    assert_eq!(h.image, f.image);
    assert_eq!(h.error, f.error);
    assert_eq!(h.stats, f.stats);
    assert!(f.modeled_seconds > h.modeled_seconds, "faults must cost modeled time");
}

#[test]
fn restore_rejects_mismatched_runs() {
    let s = setup();
    let mut g = driver(&s, opts(1));
    g.iteration();
    let ckp = g.checkpoint();

    // Not a fresh driver.
    assert!(matches!(g.restore(&ckp), Err(MbirError::Checkpoint(_))));

    // Seed mismatch would silently diverge — refused.
    let mut other_seed = driver(&s, GpuOptions { seed: 999, ..opts(1) });
    assert!(matches!(other_seed.restore(&ckp), Err(MbirError::Checkpoint(_))));

    // Device-count mismatch re-prices the past — refused.
    let mut other_devices = driver(&s, opts(2));
    assert!(matches!(other_devices.restore(&ckp), Err(MbirError::Checkpoint(_))));

    // Different tiling (sv_side) means different SV selection state.
    let mut other_tiling = driver(&s, GpuOptions { sv_side: 8, ..opts(1) });
    assert!(matches!(other_tiling.restore(&ckp), Err(MbirError::Checkpoint(_))));

    // A matching fresh driver accepts it.
    let mut ok = driver(&s, opts(1));
    ok.restore(&ckp).expect("matching driver restores");
    assert_eq!(ok.image(), g.image());
}
