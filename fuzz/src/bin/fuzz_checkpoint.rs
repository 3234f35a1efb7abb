//! Fuzz `gpu_icd::Checkpoint::from_bytes` — the `MBIRCKP1` loader.
//! Anything accepted must re-serialize to exactly the input bytes
//! (the format has a single canonical encoding: fixed header plus
//! length-checked payload and an optional one-entry-per-device slab
//! residency trailer, no padding or options).

use gpu_icd::Checkpoint;

mbir_fuzz::fuzz_target!(|data: &[u8]| {
    if let Ok(ckp) = Checkpoint::from_bytes(data, "fuzz input") {
        assert_eq!(ckp.to_bytes(), data, "accepted checkpoint did not round-trip bitwise");
        // Validated dimensions must be consistent with the payloads.
        assert_eq!(ckp.image.len(), ckp.grid.nx * ckp.grid.ny);
        assert_eq!(ckp.error.len(), ckp.num_views * ckp.num_channels);
        let trailer = ckp.resident.len() as u64;
        assert!(trailer == 0 || trailer == ckp.devices, "residency of {trailer} entries");
    }
});
