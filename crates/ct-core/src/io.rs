//! Minimal image/sinogram persistence: binary PGM for quick visual
//! inspection and CSV for numeric round-trips. No external format
//! dependencies — the repro harness and CLI write artifacts a human
//! can open anywhere.

use crate::geometry::ImageGrid;
use crate::image::Image;
use crate::sinogram::Sinogram;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Refuse PGM payloads beyond this many pixels — far above any grid
/// this project reconstructs, small enough that a hostile header
/// cannot make `read_pgm` allocate gigabytes.
const MAX_PGM_PIXELS: u64 = 1 << 28;

fn invalid(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Write an image as a binary 8-bit PGM, windowed to `[lo, hi]`
/// (values clamp). Use [`crate::hu`] conversions to pick clinically
/// meaningful windows. A non-finite pixel is an error, not a silently
/// windowed artifact: NaN would otherwise quantize to an arbitrary
/// byte and round-trip as a plausible-looking value.
pub fn write_pgm(path: &Path, img: &Image, lo: f32, hi: f32) -> std::io::Result<()> {
    assert!(hi > lo, "window must be nonempty");
    let grid = img.grid();
    if let Some(pos) = img.data().iter().position(|v| !v.is_finite()) {
        let (row, col) = (pos / grid.nx, pos % grid.nx);
        return Err(invalid(format!(
            "non-finite pixel {} at ({row}, {col}) cannot be windowed to PGM",
            img.data()[pos]
        )));
    }
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(w, "P5")?;
    writeln!(w, "{} {}", grid.nx, grid.ny)?;
    writeln!(w, "255")?;
    let scale = 255.0 / (hi - lo);
    let bytes: Vec<u8> =
        img.data().iter().map(|&v| ((v - lo) * scale).clamp(0.0, 255.0) as u8).collect();
    w.write_all(&bytes)?;
    w.flush()
}

/// Read a binary 8-bit PGM back into an image on `[lo, hi]`.
///
/// Hardened against hostile headers: dimensions multiply through a
/// checked path capped at 2^28 pixels, zero-sized grids and any
/// maxval other than 255 (the only depth [`write_pgm`] produces) are
/// [`std::io::ErrorKind::InvalidData`] — never a panic or an OOM.
pub fn read_pgm(path: &Path, pixel_size: f32, lo: f32, hi: f32) -> std::io::Result<Image> {
    let f = std::fs::File::open(path)?;
    read_pgm_from(&mut BufReader::new(f), pixel_size, lo, hi)
}

/// [`read_pgm`] over any reader — the path-less entrypoint the fuzz
/// harness drives with in-memory bytes.
pub fn read_pgm_from<R: BufRead>(
    r: &mut R,
    pixel_size: f32,
    lo: f32,
    hi: f32,
) -> std::io::Result<Image> {
    let mut header = String::new();
    // Magic, dimensions, maxval (no comment support — we wrote it).
    r.read_line(&mut header)?;
    if header.trim() != "P5" {
        return Err(invalid("not a binary PGM"));
    }
    let mut dims = String::new();
    r.read_line(&mut dims)?;
    let mut it = dims.split_whitespace();
    let nx: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| invalid("bad dims"))?;
    let ny: u64 = it.next().and_then(|s| s.parse().ok()).ok_or_else(|| invalid("bad dims"))?;
    // A dims line with anything after `nx ny` was written by some
    // other tool (or an attacker): refuse it rather than guessing
    // which two tokens were meant.
    if let Some(extra) = it.next() {
        return Err(invalid(format!("trailing token `{extra}` after PGM dimensions")));
    }
    let pixels = match nx.checked_mul(ny) {
        Some(n) if n > 0 && n <= MAX_PGM_PIXELS => n as usize,
        _ => return Err(invalid(format!("implausible PGM dimensions {nx} x {ny}"))),
    };
    let mut maxval = String::new();
    r.read_line(&mut maxval)?;
    if maxval.trim() != "255" {
        return Err(invalid(format!(
            "unsupported maxval `{}` (only 8-bit PGMs with maxval 255)",
            maxval.trim()
        )));
    }
    let mut bytes = vec![0u8; pixels];
    r.read_exact(&mut bytes)?;
    let scale = (hi - lo) / 255.0;
    let data = bytes.iter().map(|&b| lo + b as f32 * scale).collect();
    Ok(Image::from_vec(ImageGrid { nx: nx as usize, ny: ny as usize, pixel_size }, data))
}

/// Write a sinogram as CSV (one row per view), full precision.
pub fn write_sinogram_csv(path: &Path, s: &Sinogram) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    for v in 0..s.num_views() {
        let row: Vec<String> = s.view(v).iter().map(|x| format!("{x}")).collect();
        writeln!(w, "{}", row.join(","))?;
    }
    w.flush()
}

/// Read a sinogram from CSV.
///
/// Non-finite tokens (`NaN`, `inf`, `-inf` — which `f32::from_str`
/// happily accepts) are rejected *here*, with the line and column,
/// mirroring [`write_pgm`]'s write-side refusal: letting them in would
/// only fail hundreds of iterations later when the reconstruction
/// tries to window, with no hint of which input cell was poisoned.
pub fn read_sinogram_csv(path: &Path) -> std::io::Result<Sinogram> {
    let f = std::fs::File::open(path)?;
    read_sinogram_csv_from(BufReader::new(f))
}

/// [`read_sinogram_csv`] over any reader — the path-less entrypoint
/// the fuzz harness drives with in-memory bytes.
pub fn read_sinogram_csv_from<R: BufRead>(r: R) -> std::io::Result<Sinogram> {
    let mut data = Vec::new();
    let mut channels = None;
    let mut views = 0usize;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut row = Vec::new();
        for (col, token) in line.split(',').enumerate() {
            let token = token.trim();
            let x: f32 = token.parse().map_err(|_| {
                invalid(format!(
                    "line {}, column {}: cannot parse `{token}` as a number",
                    lineno + 1,
                    col + 1
                ))
            })?;
            if !x.is_finite() {
                return Err(invalid(format!(
                    "line {}, column {}: non-finite value `{token}`",
                    lineno + 1,
                    col + 1
                )));
            }
            row.push(x);
        }
        match channels {
            None => channels = Some(row.len()),
            Some(c) if c != row.len() => return Err(invalid("ragged sinogram rows")),
            _ => {}
        }
        views += 1;
        data.extend(row);
    }
    let channels = channels.ok_or_else(|| invalid("empty sinogram"))?;
    Ok(Sinogram::from_vec(views, channels, data))
}

/// Write an image as CSV, full precision (lossless round-trips, unlike
/// the 8-bit PGM window).
pub fn write_image_csv(path: &Path, img: &Image) -> std::io::Result<()> {
    let grid = img.grid();
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    for row in 0..grid.ny {
        let cells: Vec<String> = (0..grid.nx).map(|col| format!("{}", img.at(row, col))).collect();
        writeln!(w, "{}", cells.join(","))?;
    }
    w.flush()
}

/// Read an image from CSV.
pub fn read_image_csv(path: &Path, pixel_size: f32) -> std::io::Result<Image> {
    let s = read_sinogram_csv(path)?;
    if s.num_views() != s.num_channels() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "image CSV must be square",
        ));
    }
    let n = s.num_views();
    Ok(Image::from_vec(ImageGrid { nx: n, ny: n, pixel_size }, s.data().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;
    use crate::phantom::Phantom;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mbir-io-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn pgm_roundtrip_within_quantization() {
        let g = Geometry::tiny_scale();
        let img = Phantom::shepp_logan().render(g.grid, 1);
        let path = tmp("sl.pgm");
        let (lo, hi) = (0.0, 0.05);
        write_pgm(&path, &img, lo, hi).unwrap();
        let back = read_pgm(&path, g.grid.pixel_size, lo, hi).unwrap();
        assert_eq!(back.grid().nx, g.grid.nx);
        let step = (hi - lo) / 255.0;
        for (a, b) in img.data().iter().zip(back.data()) {
            assert!((a.clamp(lo, hi) - b).abs() <= step, "{a} vs {b}");
        }
    }

    #[test]
    fn sinogram_csv_roundtrip_exact() {
        let g = Geometry::tiny_scale();
        let mut s = Sinogram::zeros(&g);
        for (i, v) in s.data_mut().iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        let path = tmp("sino.csv");
        write_sinogram_csv(&path, &s).unwrap();
        let back = read_sinogram_csv(&path).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn image_csv_roundtrip_exact() {
        let g = Geometry::tiny_scale();
        let img = Phantom::baggage(3).render(g.grid, 1);
        let path = tmp("img.csv");
        write_image_csv(&path, &img).unwrap();
        let back = read_image_csv(&path, g.grid.pixel_size).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn bad_inputs_error() {
        let path = tmp("garbage.pgm");
        std::fs::write(&path, b"P6\n1 1\n255\nxxx").unwrap();
        assert!(read_pgm(&path, 1.0, 0.0, 1.0).is_err());
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1,2,3\n1,2\n").unwrap();
        assert!(read_sinogram_csv(&path).is_err());
        let path = tmp("empty.csv");
        std::fs::write(&path, "").unwrap();
        assert!(read_sinogram_csv(&path).is_err());
    }

    #[test]
    fn hostile_pgm_headers_error_without_allocating() {
        let cases: &[(&str, &[u8])] = &[
            // nx * ny overflows usize multiplication on 64-bit too.
            ("overflow.pgm", b"P5\n18446744073709551615 2\n255\n"),
            // Huge-but-representable product must hit the cap, not OOM.
            ("huge.pgm", b"P5\n1000000000 1000000000\n255\n"),
            ("zero.pgm", b"P5\n0 5\n255\n"),
            ("maxval16.pgm", b"P5\n2 2\n16\n\x00\x01\x02\x03"),
            ("maxval65535.pgm", b"P5\n2 2\n65535\n\x00\x01\x02\x03"),
            ("nonnumeric.pgm", b"P5\nab cd\n255\n"),
            // Trailing tokens after `nx ny` were silently dropped
            // before the hardening pass; now they are refused.
            ("trailing-dims.pgm", b"P5\n2 2 999\n255\n\x00\x01\x02\x03"),
            ("quad-dims.pgm", b"P5\n2 2 2 2\n255\n\x00\x01\x02\x03"),
        ];
        for (name, bytes) in cases {
            let path = tmp(name);
            std::fs::write(&path, bytes).unwrap();
            let err = read_pgm(&path, 1.0, 0.0, 1.0).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
        }
    }

    #[test]
    fn non_finite_csv_tokens_are_rejected_at_parse_time() {
        // Regression: `"NaN"`/`"inf"` parse successfully as f32, so
        // they used to flow straight into the reconstruction and only
        // explode much later at write_pgm's non-finite refusal. They
        // must be a located error at ingest.
        let cases: &[(&str, &str, &str)] = &[
            ("nan.csv", "1,2\nNaN,4\n", "line 2, column 1"),
            ("inf.csv", "1,inf\n3,4\n", "line 1, column 2"),
            ("neginf.csv", "1,2\n3,-inf\n", "line 2, column 2"),
            ("infinity.csv", "Infinity,2\n", "line 1, column 1"),
            // The overflow spelling: a finite-looking literal that
            // f32::from_str rounds to infinity.
            ("overflow.csv", "1e40,2\n", "line 1, column 1"),
        ];
        for (name, text, where_) in cases {
            let path = tmp(name);
            std::fs::write(&path, text).unwrap();
            let err = read_sinogram_csv(&path).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains(where_), "{name}: {err} lacks `{where_}`");
        }
        // The blank-line skip must not desynchronize the reported line.
        let path = tmp("blank-then-nan.csv");
        std::fs::write(&path, "1,2\n\nNaN,4\n").unwrap();
        let err = read_sinogram_csv(&path).unwrap_err();
        assert!(err.to_string().contains("line 3, column 1"), "{err}");
    }

    #[test]
    fn non_finite_pixels_refuse_to_window() {
        let g = Geometry::tiny_scale();
        let mut img = Phantom::shepp_logan().render(g.grid, 1);
        img.data_mut()[3] = f32::NAN;
        let path = tmp("nan.pgm");
        let err = write_pgm(&path, &img, 0.0, 1.0).expect_err("NaN must not serialize");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("(0, 3)"), "{err}");

        img.data_mut()[3] = f32::INFINITY;
        assert!(write_pgm(&path, &img, 0.0, 1.0).is_err());
    }
}
