//! The command-line boundary shared by `mbirctl`, the serve layer and
//! the `repro_*` binaries: the problem-scale presets ([`Scale`],
//! [`gpu_options_for`], [`psv_options_for`]) and one strict
//! `--flag value` parser ([`Args`]) whose every failure is a
//! [`MbirError::Usage`] naming the flag, never a fallback to a default.

use crate::GpuOptions;
use crate::MbirError::{self, Usage};
use ct_core::geometry::{Geometry, ImageGrid};
use psv_icd::PsvConfig;
use std::str::FromStr;

/// Problem scales selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 24x24, 24 views — smoke tests.
    Tiny,
    /// 64x64, 96 views — the default for full sweeps on a laptop.
    Test,
    /// 256x256, 360 views — closer to paper conditions (minutes).
    Harness,
    /// 512x512, 720 views — the paper's exact geometry (slow).
    Paper,
}

impl FromStr for Scale {
    type Err = String;

    /// Parse `tiny|test|harness|paper`.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "test" => Ok(Scale::Test),
            "harness" => Ok(Scale::Harness),
            "paper" => Ok(Scale::Paper),
            other => Err(format!("unknown scale '{other}' (tiny, test, harness, paper)")),
        }
    }
}

impl Scale {
    /// The geometry of this scale.
    pub fn geometry(self) -> Geometry {
        match self {
            Scale::Tiny => Geometry::tiny_scale(),
            Scale::Test => Geometry::test_scale(),
            Scale::Harness => Geometry::harness_scale(),
            Scale::Paper => Geometry::paper_scale(),
        }
    }

    /// The preset for `grid`: the one whose grid is the widest not
    /// wider than it, or [`Scale::Tiny`] below the test grid.
    pub fn for_grid(grid: ImageGrid) -> Scale {
        [Scale::Paper, Scale::Harness, Scale::Test]
            .into_iter()
            .find(|s| s.geometry().grid.nx <= grid.nx)
            .unwrap_or(Scale::Tiny)
    }

    /// SV sides scaled from the paper's 13 (CPU) / 33 (GPU) to keep a
    /// comparable number of SVs at smaller grids.
    pub fn sv_sides(self) -> (usize, usize) {
        match self {
            Scale::Tiny => (4, 6),
            Scale::Test => (6, 8),
            Scale::Harness => (13, 17),
            Scale::Paper => (13, 33),
        }
    }
}

/// GPU options adapted to a scale (SV side and batch sized down so the
/// checkerboard still has enough SVs per group).
pub fn gpu_options_for(scale: Scale) -> GpuOptions {
    let (_, gpu_side) = scale.sv_sides();
    // Keep batch * blocks-per-SV at or above the machine's ~192
    // concurrent block slots, as the paper's tuned 32 x 40 does.
    let svs_per_batch = match scale {
        Scale::Tiny => 8,
        Scale::Test => 16,
        _ => 32,
    };
    let threadblocks_per_sv = match scale {
        Scale::Tiny => 8,
        Scale::Test => 24,
        _ => 40,
    };
    GpuOptions { sv_side: gpu_side, svs_per_batch, threadblocks_per_sv, ..Default::default() }
}

/// PSV-ICD options adapted to a scale: the CPU SV side of
/// [`Scale::sv_sides`].
pub fn psv_options_for(scale: Scale) -> PsvConfig {
    PsvConfig { sv_side: scale.sv_sides().0, ..Default::default() }
}

/// `--flag [value]` arguments, checked against the flags a command
/// accepts when they are built.
#[derive(Debug)]
pub struct Args {
    /// Flag names (without `--`), each with the next token unless that
    /// token is another flag.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `argv` (program name and subcommand already removed)
    /// against `allowed`, the flag names a command accepts. Unknown
    /// flags (all of them, in order), a repeated flag, and a token
    /// that is neither a flag nor a flag's value are errors.
    pub fn parse<I, S>(argv: I, allowed: &[&str]) -> Result<Args, MbirError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut tokens = argv.into_iter().map(Into::into).peekable();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        let mut unknown = Vec::new();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(Usage(format!("unexpected argument '{token}'")));
            };
            let value = tokens.next_if(|t| !t.starts_with("--"));
            if !allowed.contains(&name) {
                unknown.push(token.clone());
            } else if flags.iter().any(|(n, _)| n == name) {
                return Err(Usage(format!("{token} given more than once")));
            } else {
                flags.push((name.to_string(), value));
            }
        }
        if !unknown.is_empty() {
            return Err(Usage(format!("unknown flag(s): {}", unknown.join(", "))));
        }
        Ok(Args { flags })
    }

    /// The process arguments after the program name, parsed against
    /// `allowed`.
    pub fn capture(allowed: &[&str]) -> Result<Args, MbirError> {
        Self::parse(std::env::args().skip(1), allowed)
    }

    fn entry(&self, name: &str) -> Option<&Option<String>> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Whether `--name` appears at all (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// Whether the value-less switch `--name` is set; giving it a
    /// value is an error, so `--backfill false` cannot mean "on".
    pub fn switch(&self, name: &str) -> Result<bool, MbirError> {
        match self.entry(name) {
            Some(Some(v)) => Err(Usage(format!("--{name} takes no value, got '{v}'"))),
            entry => Ok(entry.is_some()),
        }
    }

    /// Value of `--name`: `None` when the flag is absent, an error
    /// when it is present without a value.
    pub fn get(&self, name: &str) -> Result<Option<&str>, MbirError> {
        match self.entry(name) {
            None => Ok(None),
            Some(Some(v)) => Ok(Some(v)),
            Some(None) => Err(Usage(format!("--{name} requires a value"))),
        }
    }

    /// `--name` parsed as `T`, or `default` when the flag is absent.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, MbirError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| Usage(format!("bad --{name} value '{v}': {e}"))),
        }
    }

    /// `--name` as a finite, positive number, or `default` when the
    /// flag is absent.
    pub fn positive_or(&self, name: &str, default: f32) -> Result<f32, MbirError> {
        let v = self.get_or(name, default)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(Usage(format!("bad --{name} value '{v}': must be finite and positive")))
        }
    }

    /// The `--scale` preset, `test` when absent.
    pub fn scale(&self) -> Result<Scale, MbirError> {
        self.get_or("scale", Scale::Test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str], allowed: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().copied(), allowed).map_err(|e| e.to_string())
    }

    #[test]
    fn scale_parsing() {
        assert_eq!("tiny".parse(), Ok(Scale::Tiny));
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        assert!("nope".parse::<Scale>().unwrap_err().contains("unknown scale 'nope'"));
    }

    #[test]
    fn every_grid_maps_to_the_widest_preset_that_fits() {
        for (side, scale) in [
            (8, Scale::Tiny),
            (24, Scale::Tiny),
            (63, Scale::Tiny),
            (64, Scale::Test),
            (255, Scale::Test),
            (256, Scale::Harness),
            (512, Scale::Paper),
            (1024, Scale::Paper),
        ] {
            assert_eq!(Scale::for_grid(ImageGrid::square(side, 1.0)), scale, "{side}");
        }
        for s in [Scale::Tiny, Scale::Test, Scale::Harness, Scale::Paper] {
            assert_eq!(Scale::for_grid(s.geometry().grid), s);
        }
    }

    #[test]
    fn args_parsing() {
        let allowed = ["scale", "cases", "flag", "missing"];
        let args = args(&["--scale", "harness", "--cases", "12", "--flag"], &allowed).unwrap();
        assert_eq!(args.scale().unwrap(), Scale::Harness);
        assert_eq!(args.get_or("cases", 0usize).unwrap(), 12);
        assert_eq!(args.get("missing").unwrap(), None);
        assert_eq!(args.get_or("missing", 7u32).unwrap(), 7);
        // A flag with no value is present, and asking for its value
        // is an error naming it.
        assert!(args.has("flag") && args.switch("flag").unwrap());
        assert!(args.get("flag").unwrap_err().to_string().contains("--flag requires a value"));
        // Unparseable values are errors naming the flag and the value.
        let bad = self::args(&["--cases", "abc"], &allowed).unwrap();
        let err = bad.get_or("cases", 3usize).unwrap_err().to_string();
        assert!(err.contains("--cases") && err.contains("'abc'"), "{err}");
    }

    #[test]
    fn every_malformed_command_line_is_an_error_naming_the_flag() {
        let allowed = ["scale", "threads", "out", "truth", "seed", "backfill", "sigma"];
        let build_errors: &[(&[&str], &str)] = &[
            (&["--scale", "tiny", "--typo", "x", "--typo2"], "unknown flag(s): --typo, --typo2"),
            (&["--scale", "tiny", "--scale", "paper"], "--scale given more than once"),
            (&["stray"], "unexpected argument 'stray'"),
            (&["--out", "a", "b"], "unexpected argument 'b'"),
        ];
        for (argv, needle) in build_errors {
            let err = args(argv, &allowed).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err:?} lacks {needle:?}");
        }
        type Access = fn(&Args) -> Result<(), MbirError>;
        let access_errors: &[(&[&str], Access, &str)] = &[
            (&["--scale", "harnes"], |a| a.scale().map(drop), "bad --scale value 'harnes'"),
            (&["--threads", "abc"], |a| a.get_or("threads", 0usize).map(drop), "bad --threads"),
            (&["--seed", "zz"], |a| a.get_or("seed", 0u64).map(drop), "bad --seed value 'zz'"),
            (&["--out", "--truth", "t"], |a| a.get("out").map(drop), "--out requires a value"),
            (&["--out"], |a| a.get("out").map(drop), "--out requires a value"),
            (&["--backfill", "no"], |a| a.switch("backfill").map(drop), "--backfill takes no"),
            (&["--sigma", "0"], |a| a.positive_or("sigma", 1.0).map(drop), "bad --sigma value '0'"),
            (&["--sigma", "nan"], |a| a.positive_or("sigma", 1.0).map(drop), "bad --sigma"),
        ];
        for (argv, access, needle) in access_errors {
            let err = access(&args(argv, &allowed).unwrap()).unwrap_err().to_string();
            assert!(err.contains(needle), "{argv:?}: {err:?} lacks {needle:?}");
        }
        // Values never count as flags, even when they look odd.
        let v = args(&["--out", "a-b.pgm", "--seed", "-3"], &allowed).unwrap();
        assert_eq!(v.get("out").unwrap(), Some("a-b.pgm"));
        assert_eq!(v.get_or("seed", 0i64).unwrap(), -3);
        assert_eq!(v.scale().unwrap(), Scale::Test, "absent --scale is the test preset");
    }
}
