//! Records the `-C target-cpu` the benchmark was compiled with, for the
//! run descriptor every result carries.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let mut cpu = "default".to_string();
    let mut args = flags.split('\x1f').peekable();
    while let Some(a) = args.next() {
        let value = match a {
            "-C" | "--codegen" => args.peek().copied().unwrap_or(""),
            _ => a.strip_prefix("-C").unwrap_or(""),
        };
        if let Some(c) = value.strip_prefix("target-cpu=") {
            cpu = c.to_string();
        }
    }
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
