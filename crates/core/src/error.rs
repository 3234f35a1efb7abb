//! The crate-wide typed error for the reconstruction stack.
//!
//! Everything user-facing — CLI argument handling, PGM/CSV IO,
//! checkpoint serialization, driver configuration — reports through
//! [`MbirError`] instead of panicking: a hostile file header, a
//! missing checkpoint, or a mis-sized fleet spec is an error the
//! caller can print and exit on, not a crash. Internal invariants
//! (things no input can violate) stay as panics.

use std::fmt;
use std::path::PathBuf;

/// What went wrong, with enough context to print a one-line
/// diagnosis.
#[derive(Debug)]
pub enum MbirError {
    /// An OS-level IO failure on `path`.
    Io {
        /// File the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Input that parsed but cannot be valid (hostile PGM header,
    /// non-finite pixels, truncated sinogram).
    InvalidData(String),
    /// The user asked for something contradictory or unsupported
    /// (bad flag combination, mis-sized fleet spec, malformed fault
    /// schedule).
    Usage(String),
    /// A checkpoint could not be written, read, or applied (format
    /// mismatch, wrong run, corrupt payload).
    Checkpoint(String),
}

impl MbirError {
    /// Wrap an IO error with the path it struck.
    pub fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        MbirError::Io { path: path.into(), source }
    }
}

impl fmt::Display for MbirError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbirError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            MbirError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            MbirError::Usage(msg) => write!(f, "{msg}"),
            MbirError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for MbirError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MbirError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e =
            MbirError::io("/tmp/x.pgm", std::io::Error::new(std::io::ErrorKind::NotFound, "no"));
        let s = e.to_string();
        assert!(s.contains("/tmp/x.pgm"));
        assert!(MbirError::InvalidData("maxval 16".into()).to_string().contains("maxval 16"));
        assert!(MbirError::Checkpoint("bad magic".into()).to_string().starts_with("checkpoint:"));
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error;
        let e = MbirError::io("f", std::io::Error::other("disk"));
        assert!(e.source().is_some());
        assert!(MbirError::Usage("x".into()).source().is_none());
    }
}
