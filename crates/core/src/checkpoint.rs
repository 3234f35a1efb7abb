//! Checkpoint / resume for GPU-ICD reconstructions.
//!
//! A checkpoint captures *exactly* the state an interrupted
//! reconstruction needs to continue bitwise identically to an
//! uninterrupted run: the image, the error sinogram, the per-SV
//! selection amounts, the iteration and global batch counters, the
//! cumulative work stats, and the modeled clock. Nothing else is
//! needed — all RNG streams are re-derived per iteration from
//! `(seed, iter)` and per SV from `(seed, iter, sv)`, so a resumed
//! iteration draws the same selection and the same voxel orders the
//! uninterrupted run would have drawn.
//!
//! The format is a flat little-endian binary layout behind an 8-byte
//! magic (`MBIRCKP1`): fixed header fields, then the three payload
//! arrays. A slab-streaming cluster run (`slabs > 1`) appends one more
//! array, the *residency trailer*: `devices` u64 entries after
//! `update_amount`, each the slab that device holds resident
//! ([`NO_SLAB`] for none), so the resumed run charges exactly the slab
//! loads the interrupted one would have. Every other run writes no
//! trailer, so one-slab checkpoints keep the original byte layout.
//! Readers validate the magic, every dimension, a size cap, and the
//! trailer length (exactly 0 or `8 × devices` bytes) before
//! allocating, and report [`MbirError::Checkpoint`] — never a panic —
//! on anything malformed. Not captured (and documented as such): the
//! fleet's per-device busy ledger, which restarts at zero and then
//! covers only the post-resume stretch; per-kernel aggregates live in a
//! profile sink, outside the driver. The fleet wall clock *is* restored
//! so profiled spans continue on the same timeline.

use crate::error::MbirError;
use ct_core::geometry::ImageGrid;
use mbir::sequential::IcdStats;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MBIRCKP1";

/// Residency-trailer entry of a device holding no slab.
pub const NO_SLAB: u64 = u64::MAX;

/// Refuse to allocate checkpoint arrays beyond this many elements —
/// far above any supported scale, small enough that a corrupt header
/// cannot OOM the host.
const MAX_ELEMS: u64 = 1 << 28;

/// A serialized reconstruction state (see the module docs for what is
/// and is not captured).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Image grid the run reconstructs on.
    pub grid: ImageGrid,
    /// Sinogram views.
    pub num_views: usize,
    /// Sinogram channels per view.
    pub num_channels: usize,
    /// Completed outer iterations.
    pub iter: u64,
    /// Global SV-batch sequence number (fault schedules key on it).
    pub batch_seq: u64,
    /// Cumulative work counters.
    pub stats: IcdStats,
    /// Modeled seconds elapsed on the (wall) timeline.
    pub modeled_seconds: f64,
    /// The run's RNG seed — a resume under a different seed would
    /// silently diverge, so it is stored and checked.
    pub seed: u64,
    /// Device count the run was priced for.
    pub devices: u64,
    /// Row-major image data.
    pub image: Vec<f32>,
    /// Error sinogram data (`num_views x num_channels`).
    pub error: Vec<f32>,
    /// Per-SV update amounts driving SV selection.
    pub update_amount: Vec<f64>,
    /// Per device, the slab it holds resident ([`NO_SLAB`] for none):
    /// the trailer of slab-streaming runs, empty for every other run.
    pub resident: Vec<u64>,
}

impl Checkpoint {
    /// Write the checkpoint to `path` atomically: serialize to
    /// `<path>.tmp`, then rename over `path`, so an interrupt during
    /// the write never leaves a truncated checkpoint behind.
    pub fn save(&self, path: &Path) -> Result<(), MbirError> {
        let tmp = path.with_extension("tmp");
        let buf = self.to_bytes();
        let mut f = std::fs::File::create(&tmp).map_err(|e| MbirError::io(&tmp, e))?;
        f.write_all(&buf).map_err(|e| MbirError::io(&tmp, e))?;
        f.sync_all().map_err(|e| MbirError::io(&tmp, e))?;
        drop(f);
        std::fs::rename(&tmp, path).map_err(|e| MbirError::io(path, e))?;
        Ok(())
    }

    /// Serialize to the flat `MBIRCKP1` byte layout ([`Checkpoint::save`]
    /// writes exactly these bytes; [`Checkpoint::from_bytes`] inverts
    /// them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf: Vec<u8> = Vec::with_capacity(
            MAGIC.len()
                + 12 * 8
                + 4 * (self.image.len() + self.error.len())
                + 8 * (self.update_amount.len() + self.resident.len()),
        );
        buf.extend_from_slice(MAGIC);
        for v in [
            self.grid.nx as u64,
            self.grid.ny as u64,
            self.grid.pixel_size.to_bits() as u64,
            self.num_views as u64,
            self.num_channels as u64,
            self.iter,
            self.batch_seq,
            self.stats.updates,
            self.stats.skipped,
            self.stats.total_abs_delta.to_bits(),
            self.modeled_seconds.to_bits(),
            self.seed,
            self.devices,
            self.update_amount.len() as u64,
        ] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &self.image {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &self.error {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &self.update_amount {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in &self.resident {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Read and validate a checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Checkpoint, MbirError> {
        let bytes = std::fs::read(path).map_err(|e| MbirError::io(path, e))?;
        Self::from_bytes(&bytes, &path.display().to_string())
    }

    /// Parse and validate a checkpoint from in-memory bytes. `source`
    /// names the origin (a path, "fuzz input", ...) in error messages.
    ///
    /// Every dimension is validated against both [`MAX_ELEMS`] *and*
    /// the actual byte count on hand before any payload allocation:
    /// a hostile header claiming a huge (but under-cap) image over a
    /// 100-byte file must fail on the length check, not allocate a
    /// gigabyte and then discover EOF.
    pub fn from_bytes(bytes: &[u8], source: &str) -> Result<Checkpoint, MbirError> {
        let corrupt = |msg: &str| MbirError::Checkpoint(format!("{source}: {msg}"));
        if bytes.len() < MAGIC.len() {
            return Err(corrupt("truncated"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic (not a checkpoint file)"));
        }
        let mut header = [0u64; 14];
        let mut pos = MAGIC.len();
        for h in &mut header {
            let end = pos + 8;
            if end > bytes.len() {
                return Err(corrupt("truncated"));
            }
            *h = u64::from_le_bytes(bytes[pos..end].try_into().unwrap());
            pos = end;
        }
        let [nx, ny, pixel_bits, num_views, num_channels, iter, batch_seq, updates, skipped, abs_delta_bits, seconds_bits, seed, devices, sv_count] =
            header;
        // The writer stores `f32::to_bits()` zero-extended to u64; a
        // header with high bits set in this field is not something we
        // ever wrote, and silently truncating it would break the
        // bitwise round-trip contract (`to_bytes` re-emits only the
        // low 32 bits).
        if pixel_bits > u64::from(u32::MAX) {
            return Err(corrupt(&format!(
                "pixel size field {pixel_bits:#x} is not a valid f32 bit pattern"
            )));
        }
        let voxels = checked_elems(nx, ny, "image", source)?;
        let samples = checked_elems(num_views, num_channels, "error sinogram", source)?;
        if sv_count > MAX_ELEMS {
            return Err(corrupt(&format!("implausible SV count {sv_count}")));
        }
        // MAX_ELEMS caps each term well below u64 overflow, so this
        // sum is exact; compare it against what is actually on hand
        // before touching the allocator.
        let payload = 4 * (voxels as u64 + samples as u64) + 8 * sv_count;
        let expected = pos as u64 + payload;
        if (bytes.len() as u64) < expected {
            return Err(corrupt(&format!(
                "truncated: header promises {expected} bytes, file has {}",
                bytes.len()
            )));
        }
        // Anything past the payload must be exactly the residency
        // trailer: one u64 per device.
        let trailing = bytes.len() as u64 - expected;
        if trailing != 0 && Some(trailing) != devices.checked_mul(8) {
            return Err(corrupt("trailing bytes after payload"));
        }
        let image = f32_vec(&bytes[pos..pos + 4 * voxels]);
        pos += 4 * voxels;
        let error = f32_vec(&bytes[pos..pos + 4 * samples]);
        pos += 4 * samples;
        let update_amount = f64_vec(&bytes[pos..pos + 8 * sv_count as usize]);
        pos += 8 * sv_count as usize;
        let resident = bytes[pos..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        Ok(Checkpoint {
            grid: ImageGrid {
                nx: nx as usize,
                ny: ny as usize,
                pixel_size: f32::from_bits(pixel_bits as u32),
            },
            num_views: num_views as usize,
            num_channels: num_channels as usize,
            iter,
            batch_seq,
            stats: IcdStats { updates, skipped, total_abs_delta: f64::from_bits(abs_delta_bits) },
            modeled_seconds: f64::from_bits(seconds_bits),
            seed,
            devices,
            image,
            error,
            update_amount,
            resident,
        })
    }
}

fn checked_elems(a: u64, b: u64, what: &str, source: &str) -> Result<usize, MbirError> {
    match a.checked_mul(b) {
        Some(n) if n > 0 && n <= MAX_ELEMS => Ok(n as usize),
        _ => {
            Err(MbirError::Checkpoint(format!("{source}: implausible {what} dimensions {a} x {b}")))
        }
    }
}

fn f32_vec(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

fn f64_vec(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            grid: ImageGrid { nx: 3, ny: 2, pixel_size: 0.5 },
            num_views: 2,
            num_channels: 4,
            iter: 7,
            batch_seq: 19,
            stats: IcdStats { updates: 100, skipped: 3, total_abs_delta: 1.25 },
            modeled_seconds: 0.125,
            seed: 13,
            devices: 4,
            image: vec![0.0, 1.0, -2.5, f32::MIN_POSITIVE, 4.0, 5.5],
            error: (0..8).map(|i| i as f32 * 0.1).collect(),
            update_amount: vec![0.5, 0.0, 1e-9],
            resident: Vec::new(),
        }
    }

    #[test]
    fn round_trips_bitwise() {
        let dir = std::env::temp_dir().join(format!("mbir-ckp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.mbir");
        let ckp = sample();
        ckp.save(&path).expect("saves");
        let back = Checkpoint::load(&path).expect("loads");
        assert_eq!(ckp, back);
        assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let dir = std::env::temp_dir().join(format!("mbir-ckp-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let garbage = dir.join("garbage.mbir");
        std::fs::write(&garbage, b"not a checkpoint").unwrap();
        assert!(matches!(Checkpoint::load(&garbage), Err(MbirError::Checkpoint(_))));

        let path = dir.join("checkpoint.mbir");
        sample().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let truncated = dir.join("truncated.mbir");
        std::fs::write(&truncated, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(Checkpoint::load(&truncated), Err(MbirError::Checkpoint(_))));

        let bloated = dir.join("bloated.mbir");
        let mut evil = bytes.clone();
        // Corrupt nx (first header field after the magic) to a huge
        // value: the loader must refuse before allocating.
        evil[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&bloated, &evil).unwrap();
        assert!(matches!(Checkpoint::load(&bloated), Err(MbirError::Checkpoint(_))));

        let padded = dir.join("padded.mbir");
        let mut extra = bytes;
        extra.push(0);
        std::fs::write(&padded, &extra).unwrap();
        assert!(matches!(Checkpoint::load(&padded), Err(MbirError::Checkpoint(_))));

        let missing = dir.join("missing.mbir");
        assert!(matches!(Checkpoint::load(&missing), Err(MbirError::Io { .. })));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_round_trip_matches_save_load() {
        let ckp = sample();
        let bytes = ckp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes, "memory").expect("parses");
        assert_eq!(ckp, back);
    }

    #[test]
    fn huge_header_over_tiny_payload_fails_on_length_not_allocation() {
        // Regression: a header promising a large-but-under-cap image
        // over a near-empty file used to allocate the full payload
        // buffer (up to 1 GiB) before read_exact noticed EOF. The
        // length check must fire first.
        let mut evil = Vec::new();
        evil.extend_from_slice(MAGIC);
        let header: [u64; 14] = [
            16384, 16384, // nx x ny = 2^28 = MAX_ELEMS exactly (under the cap)
            0x3f800000, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 1,
        ];
        for v in header {
            evil.extend_from_slice(&v.to_le_bytes());
        }
        let err = Checkpoint::from_bytes(&evil, "evil").expect_err("must refuse");
        let msg = format!("{err:?}");
        assert!(msg.contains("header promises"), "{msg}");
    }

    #[test]
    fn pixel_size_field_with_high_bits_is_rejected() {
        // Regression (found by the checkpoint fuzz target's bitwise
        // round-trip property): the writer zero-extends
        // `f32::to_bits()` into this u64 field, but the loader used to
        // truncate with `as u32` — accepting headers we never wrote
        // and breaking `from_bytes(b).to_bytes() == b`.
        let good = sample().to_bytes();
        let mut evil = good.clone();
        // pixel_size is header word 2: magic(8) + 2*8 = offset 24,
        // high half at 28..32.
        evil[28..32].copy_from_slice(&0xdead_beefu32.to_le_bytes());
        let err = Checkpoint::from_bytes(&evil, "evil").expect_err("must refuse");
        assert!(format!("{err:?}").contains("not a valid f32 bit pattern"));
        // And the unmodified bytes still parse.
        Checkpoint::from_bytes(&good, "good").expect("canonical bytes parse");
    }

    #[test]
    fn residency_trailer_round_trips_and_one_slab_layout_is_unchanged() {
        let flat = sample().to_bytes();
        let streaming = Checkpoint { resident: vec![1, 0, NO_SLAB, 3], ..sample() };
        let bytes = streaming.to_bytes();
        assert_eq!(bytes.len(), flat.len() + 8 * 4, "one u64 per device");
        assert_eq!(&bytes[..flat.len()], &flat[..], "the trailer only appends");
        let back = Checkpoint::from_bytes(&bytes, "memory").expect("trailer accepted");
        assert_eq!(back, streaming);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn trailers_other_than_one_entry_per_device_are_rejected() {
        let good = Checkpoint { resident: vec![0; 4], ..sample() }.to_bytes();
        for len in [good.len() - 1, good.len() - 8, good.len() + 8, good.len() + 3] {
            let mut bytes = good.clone();
            bytes.resize(len, 0);
            let err = Checkpoint::from_bytes(&bytes, "evil").expect_err("must refuse");
            assert!(format!("{err:?}").contains("trailing bytes after payload"), "{len}: {err:?}");
        }
        // A device count whose trailer size overflows u64 cannot match.
        let mut huge = sample().to_bytes();
        huge[8 + 12 * 8..8 + 13 * 8].copy_from_slice(&(u64::MAX / 4).to_le_bytes());
        huge.extend_from_slice(&[0; 8]);
        assert!(matches!(Checkpoint::from_bytes(&huge, "evil"), Err(MbirError::Checkpoint(_))));
    }
}
