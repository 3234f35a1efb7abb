//! Fuzz `gpu_icd::Args` — the strict `--flag value` grammar `mbirctl`
//! and every `repro_*` binary read their command line with. The input
//! splits on NUL into argv; every accessor must return `Ok` or `Err`,
//! never panic.

use gpu_icd::Args;

/// A fixed allowed list mixing value flags and a switch.
const ALLOWED: &[&str] = &["scale", "threads", "out", "seed", "sigma", "resume"];

mbir_fuzz::fuzz_target!(|data: &[u8]| {
    let Ok(text) = std::str::from_utf8(data) else { return };
    let Ok(args) = Args::parse(text.split('\0'), ALLOWED) else { return };
    let _ = args.scale();
    for &name in ALLOWED.iter().chain(&["missing", ""]) {
        let present = args.has(name);
        assert!(!present || ALLOWED.contains(&name), "accepted unlisted flag --{name}");
        let _ = args.switch(name);
        let _ = args.get_or(name, 0usize);
        let _ = args.get_or(name, 0u64);
        let _ = args.get_or(name, 0.0f32);
        match args.get(name) {
            Ok(Some(v)) => assert!(present && !v.starts_with("--"), "--{name} took flag {v}"),
            Ok(None) => assert!(!present, "--{name} present but valueless read as absent"),
            Err(_) => assert!(present),
        }
    }
});
