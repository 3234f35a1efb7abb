//! Regenerates **Table 2**: impact of shrinking the A-matrix to `u8`
//! and reading it through the texture cache.
//!
//! The hit-rate and transaction columns come from the telemetry layer
//! (a profiled run's per-kernel spans), not from the work-model
//! constants directly — this is the end-to-end check that the
//! profiling counters reproduce the table. The modeled seconds are
//! asserted bitwise identical to an unprofiled run.
//!
//! ```text
//! cargo run --release -p mbir-bench --bin repro_table2 -- --scale test
//! ```

use ct_core::phantom::Phantom;
use gpu_icd::{AMatrixMode, Args, GpuOptions, GpuWorkModel, MbirError};
use mbir_bench::{gpu_options_for, to_golden, Pipeline};
use mbir_telemetry::RecordingSink;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Row {
    memory: &'static str,
    dtype: &'static str,
    seconds: f64,
    tex_gbps: f64,
    tex_hit_pct: f64,
    /// 32-byte texture-path sectors of the MBIR kernel (telemetry).
    tex_transactions: u64,
    /// 32-byte L2 sectors of the MBIR kernel (telemetry).
    l2_transactions: u64,
    /// Hit rate recovered from the telemetry sector counts,
    /// `l1_hits / tex_transactions`.
    tex_hit_pct_telemetry: f64,
}

fn main() -> Result<(), MbirError> {
    let args = Args::capture(&["scale"])?;
    let scale = args.scale()?;
    let base = gpu_options_for(scale);
    let p = Pipeline::build(scale, &Phantom::baggage(0), 42, None);
    let model = GpuWorkModel::titan_x();

    println!("Table 2: Reading the A-matrix via memory path and type");
    println!("{:-<96}", "");
    println!(
        "{:<20} {:>12} {:>22} {:>12} {:>14} {:>10}",
        "(memory, type)",
        "time (s)",
        "tex bandwidth (GB/s)",
        "hit rate %",
        "tex sectors",
        "(counted)"
    );
    let mut rows = Vec::new();
    for (mode, mem, ty) in [
        (AMatrixMode::GlobalF32, "Global", "float"),
        (AMatrixMode::TextureF32, "Texture", "float"),
        (AMatrixMode::GlobalU8, "Global", "char"),
        (AMatrixMode::TextureU8, "Texture", "char"),
    ] {
        // Unprofiled reference run: its modeled seconds are the table's
        // time column and the baseline for the bitwise-identity check.
        let opts = GpuOptions { amatrix: mode, ..base };
        let mut gpu = p.case.gpu(opts);
        to_golden(&mut gpu, &p, 300);

        // Profiled run: the sink observes every kernel launch; the
        // counter columns are recovered from its spans.
        let mut prof = p.case.gpu(opts);
        let sink = Arc::new(RecordingSink::new());
        prof.set_profile_sink(sink.clone());
        to_golden(&mut prof, &p, 300);
        assert_eq!(
            gpu.modeled_seconds().to_bits(),
            prof.modeled_seconds().to_bits(),
            "profiled run must be bitwise identical to the unprofiled one"
        );
        assert_eq!(gpu.image(), prof.image(), "profiled image diverged");
        let report = sink.report("gpu-icd");
        let mbir = report.kernel("mbir_update").expect("mbir_update spans recorded");

        let tex = mbir.tex_gbps;
        let hit = if mode.uses_texture() {
            100.0 * if mode.quantized() { model.tex_hit_u8 } else { model.tex_hit_f32 }
        } else {
            0.0
        };
        let counted = 100.0 * mbir.tex_hit_rate;
        // The telemetry counters must reproduce the work-model hit rate
        // to rounding (l1 hits are rounded per launch).
        assert!(
            (counted - hit).abs() < 0.5,
            "telemetry hit rate {counted:.3}% drifted from model {hit:.3}%"
        );
        if !mode.uses_texture() {
            assert_eq!(mbir.tex_transactions, 0, "non-texture mode counted texture sectors");
        }

        let texs =
            if mode.uses_texture() { format!("{tex:>22.0}") } else { format!("{:>22}", "-") };
        let hits =
            if mode.uses_texture() { format!("{hit:>12.2}") } else { format!("{:>12}", "-") };
        println!(
            "{:<20} {:>12.5} {} {} {:>14} {:>9.2}%",
            format!("({mem}, {ty})"),
            gpu.modeled_seconds(),
            texs,
            hits,
            mbir.tex_transactions,
            counted
        );
        rows.push(Row {
            memory: mem,
            dtype: ty,
            seconds: gpu.modeled_seconds(),
            tex_gbps: tex,
            tex_hit_pct: hit,
            tex_transactions: mbir.tex_transactions,
            l2_transactions: mbir.l2_transactions,
            tex_hit_pct_telemetry: counted,
        });
    }
    println!(
        "\nSpeedup (Texture,char) over (Global,float): {:.2}X   (paper: 0.48/0.41 = 1.17X)",
        rows[0].seconds / rows[3].seconds
    );
    mbir_bench::write_json("table2", &rows)
}
