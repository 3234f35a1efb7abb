//! Repo task runner (`cargo xtask <command>`, via the alias in
//! `.cargo/config.toml`).
//!
//! Thin, dependency-free orchestration over the same cargo commands a
//! contributor would type by hand — the point is that CI and local
//! development run *identical* invocations, including the fuzz
//! workspace (detached from the main one, so `--workspace` flags never
//! reach it) and the feature-gated conformance suite.
//!
//! ```text
//! cargo xtask fmt [--fix]       # rustfmt, main + fuzz workspaces
//! cargo xtask clippy            # -D warnings, main + fuzz workspaces
//! cargo xtask doc               # rustdoc, warnings as errors
//! cargo xtask test              # tier-1: release build + full test suite
//! cargo xtask fuzz-smoke        # every fuzz target, CI smoke budget
//! cargo xtask fuzz-smoke --runs 100000 --seed 7   # deeper, custom seed
//! cargo xtask conformance       # bitwise paper-number pinning suite
//! cargo xtask conformance --bless  # re-record goldens after a change
//! cargo xtask all               # everything above, CI order
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        usage();
        std::process::exit(2);
    };
    let rest = &args[1..];
    let root = repo_root();
    let ok = match cmd {
        "fmt" => fmt(&root, rest.contains(&"--fix".to_string())),
        "clippy" => clippy(&root),
        "doc" => doc(&root),
        "test" => test(&root),
        "fuzz-smoke" => fuzz_smoke(&root, rest),
        "conformance" => conformance(&root, rest.contains(&"--bless".to_string())),
        "all" => {
            fmt(&root, false)
                && clippy(&root)
                && doc(&root)
                && test(&root)
                && fuzz_smoke(&root, rest)
                && conformance(&root, false)
        }
        "--help" | "-h" | "help" => {
            usage();
            true
        }
        other => {
            eprintln!("xtask: unknown command `{other}`\n");
            usage();
            false
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         fmt [--fix]                  rustfmt check (or rewrite) on both workspaces\n  \
         clippy                       clippy -D warnings on both workspaces\n  \
         doc                          rustdoc on the main workspace, warnings as errors\n  \
         test                         release build + full tier-1 test suite\n  \
         fuzz-smoke [--runs N] [--seed S]\n                               \
         build and run every fuzz target (default 2000 runs)\n  \
         conformance [--bless]        bitwise paper-number suite (tests/conformance.rs)\n  \
         all                          fmt, clippy, doc, test, fuzz-smoke, conformance"
    );
}

/// The workspace root: xtask lives at `<root>/crates/xtask`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf()
}

/// Run `cargo <args>` in `dir`, echoing the command line first.
fn cargo(dir: &Path, args: &[&str], env: &[(&str, &str)]) -> bool {
    eprintln!("xtask: cargo {} (in {})", args.join(" "), dir.display());
    let mut c = Command::new("cargo");
    c.args(args).current_dir(dir);
    for (k, v) in env {
        c.env(k, v);
    }
    match c.status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("xtask: cargo {} failed ({s})", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("xtask: could not spawn cargo: {e}");
            false
        }
    }
}

fn fmt(root: &Path, fix: bool) -> bool {
    let mut args = vec!["fmt", "--all"];
    if !fix {
        args.push("--check");
    }
    cargo(root, &args, &[]) && cargo(&root.join("fuzz"), &args, &[])
}

fn clippy(root: &Path) -> bool {
    // `--features conformance` so the gated suite is linted too.
    let main = [
        "clippy",
        "--workspace",
        "--all-targets",
        "--features",
        "conformance",
        "--",
        "-D",
        "warnings",
    ];
    let fuzz = ["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"];
    cargo(root, &main, &[]) && cargo(&root.join("fuzz"), &fuzz, &[])
}

/// Document every workspace crate with warnings as errors, so a deleted
/// or private item cannot leave a broken intra-doc link behind.
fn doc(root: &Path) -> bool {
    cargo(root, &["doc", "--workspace", "--no-deps"], &[("RUSTDOCFLAGS", "-D warnings")])
}

fn test(root: &Path) -> bool {
    cargo(root, &["build", "--release", "--workspace"], &[])
        && cargo(root, &["test", "-q", "--release", "--workspace"], &[])
}

/// Build the fuzz workspace and give every target its smoke budget.
/// Each target replays its seed corpus first, so even `--runs 0` is a
/// regression sweep over every previously found crash input.
fn fuzz_smoke(root: &Path, rest: &[String]) -> bool {
    let runs = flag_value(rest, "--runs").unwrap_or_else(|| "2000".to_string());
    let seed = flag_value(rest, "--seed");
    let fuzz = root.join("fuzz");
    if !cargo(&fuzz, &["build", "--release"], &[]) {
        return false;
    }
    let mut targets: Vec<String> = std::fs::read_dir(fuzz.join("src/bin"))
        .expect("fuzz/src/bin exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    targets.sort();
    assert!(!targets.is_empty(), "no fuzz targets found");
    let mut ok = true;
    for t in &targets {
        let bin = fuzz.join("target/release").join(t);
        eprintln!("xtask: {} -runs={runs}", bin.display());
        let mut c = Command::new(&bin);
        c.arg(format!("-runs={runs}")).current_dir(&fuzz);
        if let Some(s) = &seed {
            c.arg(format!("-seed={s}"));
        }
        match c.status() {
            Ok(s) if s.success() => {}
            Ok(_) => {
                eprintln!("xtask: fuzz target {t} FAILED — see fuzz/artifacts/{t}/");
                ok = false;
            }
            Err(e) => {
                eprintln!("xtask: could not run {t}: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn conformance(root: &Path, bless: bool) -> bool {
    let env: &[(&str, &str)] = if bless { &[("MBIR_CONFORMANCE_BLESS", "1")] } else { &[] };
    cargo(root, &["test", "--release", "--features", "conformance", "--test", "conformance"], env)
}

/// `--key value` lookup in the raw argument list.
fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}
