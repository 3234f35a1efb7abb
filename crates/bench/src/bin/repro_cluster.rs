//! Multi-node cluster scaling study: modeled wall time of GPU-ICD
//! iterations on node x device fleets up to 8 nodes x 8 GPUs, with
//! the hierarchical all-gather (intra-node gather, inter-node leader
//! exchange, intra-node broadcast) priced against the flat ring over
//! the same 64 devices, plus a slab-streaming study for volumes that
//! overflow device memory.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_cluster -- --scale test
//! ```
//!
//! The cluster is a timing model only: every shape is verified inline
//! to produce bitwise-identical images and error sinograms to the
//! single-device run. The flat ring pays the slow inter-node hop on
//! every one of its `d-1` steps; the hierarchy crosses the slow link
//! once per node, so its exchange share drops below the flat ring's
//! as soon as the fleet spans enough nodes for ring latency to bite.

use ct_core::image::Image;
use ct_core::phantom::Phantom;
use ct_core::sinogram::Sinogram;
use gpu_icd::{Args, GpuIcd, GpuOptions, MbirError};
use mbir_bench::{gpu_options_for, Pipeline};
use mbir_fleet::FleetReport;
use mbir_topo::ClusterSpec;
use serde::Serialize;

#[derive(Serialize)]
struct ShapeRow {
    nodes: usize,
    devices_per_node: usize,
    devices: usize,
    topology: String,
    modeled_seconds: f64,
    speedup: f64,
    efficiency: f64,
    exchange_seconds: f64,
    exchange_share: f64,
    exchange_bytes: u64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct SlabRow {
    nodes: usize,
    devices_per_node: usize,
    slabs: usize,
    modeled_seconds: f64,
    overhead_vs_resident: f64,
    exchange_bytes: u64,
    bitwise_identical: bool,
}

#[derive(Serialize)]
struct Report {
    scale: String,
    iterations: usize,
    threads: usize,
    shapes: Vec<ShapeRow>,
    slab_study: Vec<SlabRow>,
}

struct RunOut {
    image: Image,
    error: Sinogram,
    seconds: f64,
    fleet: Option<FleetReport>,
}

enum Topo {
    Hierarchical(ClusterSpec),
    FlatRing(ClusterSpec),
}

fn run(p: &Pipeline, base: GpuOptions, devices: usize, topo: Option<Topo>, iters: usize) -> RunOut {
    let opts = GpuOptions { devices, ..base };
    let mut gpu = GpuIcd::new(&p.a, &p.scan.y, &p.scan.weights, &p.prior, p.init.clone(), opts);
    match topo {
        Some(Topo::Hierarchical(c)) => gpu.set_cluster_spec(c).expect("valid cluster spec"),
        Some(Topo::FlatRing(c)) => gpu.set_fleet_spec(c.flatten()).expect("valid fleet spec"),
        None => {}
    }
    for _ in 0..iters {
        gpu.iteration();
    }
    RunOut {
        image: gpu.image().clone(),
        error: gpu.error().clone(),
        seconds: gpu.modeled_seconds(),
        fleet: gpu.fleet_report(),
    }
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale", "iters", "threads"])?;
    let scale = args.scale()?;
    let iters: usize = args.get_or("iters", 4)?;
    let threads: usize = args.get_or("threads", mbir_parallel::available())?;
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let base = GpuOptions { threads, ..gpu_options_for(scale) };

    let baseline = run(&p, base, 1, None, iters);
    let check = |out: &RunOut, what: &str| -> bool {
        let ok = out.image == baseline.image && out.error == baseline.error;
        assert!(ok, "{what} diverged — the cluster sharding contract is broken");
        ok
    };
    let ledger = |out: &RunOut| -> (f64, u64) {
        out.fleet.as_ref().map_or((0.0, 0), |fr| (fr.exchange_seconds, fr.exchange_bytes))
    };

    // Scaling curve: 8 GPUs per node, 1 to 8 nodes, hierarchical
    // reduce vs the flat ring flattened over the same devices.
    let mut shapes = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        let dpn = 8usize;
        let devices = nodes * dpn;
        let cluster = ClusterSpec::titan_x_cluster(nodes, dpn);
        for (name, topo) in [
            ("hierarchical", Topo::Hierarchical(cluster.clone())),
            ("flat_ring", Topo::FlatRing(cluster)),
        ] {
            let out = run(&p, base, devices, Some(topo), iters);
            let identical = check(&out, &format!("{nodes}x{dpn} {name}"));
            let (exchange_seconds, exchange_bytes) = ledger(&out);
            shapes.push(ShapeRow {
                nodes,
                devices_per_node: dpn,
                devices,
                topology: name.to_string(),
                modeled_seconds: out.seconds,
                speedup: baseline.seconds / out.seconds,
                efficiency: baseline.seconds / out.seconds / devices as f64,
                exchange_seconds,
                exchange_share: exchange_seconds / out.seconds,
                exchange_bytes,
                bitwise_identical: identical,
            });
        }
    }

    // Slab study: a 2x8 fleet whose per-device footprint is cut into
    // 1/2/4 axial slabs, streamed through residency with seam halos.
    let mut slab_study = Vec::new();
    let resident = shapes
        .iter()
        .find(|s| s.nodes == 2 && s.topology == "hierarchical")
        .map(|s| s.modeled_seconds)
        .expect("2x8 hierarchical row");
    for slabs in [1usize, 2, 4] {
        let cluster = ClusterSpec::titan_x_cluster(2, 8).with_slabs(slabs);
        let out = run(&p, base, 16, Some(Topo::Hierarchical(cluster)), iters);
        let identical = check(&out, &format!("2x8 slabs={slabs}"));
        let (_, exchange_bytes) = ledger(&out);
        slab_study.push(SlabRow {
            nodes: 2,
            devices_per_node: 8,
            slabs,
            modeled_seconds: out.seconds,
            overhead_vs_resident: out.seconds / resident - 1.0,
            exchange_bytes,
            bitwise_identical: identical,
        });
    }

    println!("Cluster scaling, {iters} GPU-ICD iterations at {scale:?} scale:");
    println!("{:-<86}", "");
    println!(
        "{:>6} {:>8} {:>14} {:>12} {:>8} {:>6} {:>9}",
        "shape", "devices", "topology", "modeled (s)", "speedup", "eff", "exch (%)"
    );
    for s in &shapes {
        println!(
            "{:>3}x{:<2} {:>8} {:>14} {:>12.6} {:>7.2}X {:>6.2} {:>8.1}%",
            s.nodes,
            s.devices_per_node,
            s.devices,
            s.topology,
            s.modeled_seconds,
            s.speedup,
            s.efficiency,
            100.0 * s.exchange_share,
        );
    }
    println!();
    println!("Slab streaming on the 2x8 fleet:");
    println!("{:>6} {:>12} {:>12}", "slabs", "modeled (s)", "overhead");
    for s in &slab_study {
        println!(
            "{:>6} {:>12.6} {:>11.1}%",
            s.slabs,
            s.modeled_seconds,
            100.0 * s.overhead_vs_resident
        );
    }
    println!("all shapes bitwise identical to the single-device run");

    // The acceptance criterion: from 16 devices up, the hierarchy's
    // exchange share must undercut the flat ring over the same fleet.
    for nodes in [2usize, 4, 8] {
        let share = |topology: &str| {
            shapes
                .iter()
                .find(|s| s.nodes == nodes && s.topology == topology)
                .map(|s| s.exchange_share)
                .expect("row")
        };
        assert!(
            share("hierarchical") < share("flat_ring"),
            "hierarchical reduce lost to the flat ring at {nodes}x8",
        );
    }

    let report =
        Report { scale: format!("{scale:?}"), iterations: iters, threads, shapes, slab_study };
    mbir_bench::write_json("BENCH_cluster", &report)
}
