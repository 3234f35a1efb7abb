//! Work tallies collected during functional GPU-ICD execution.
//!
//! Each SV visit counts exactly the quantities the paper's kernels
//! would move through the machine ([`supervoxel::sweep::SvTally`]);
//! [`crate::model`] converts a batch of them into
//! [`gpu_sim::KernelProfile`]s.

use supervoxel::sweep::SvTally;

/// Counters for one kernel batch (up to `svs_per_batch` SVs of one
/// checkerboard group).
#[derive(Debug, Clone, Default)]
pub struct BatchTally {
    /// Per-SV counters.
    pub svs: Vec<SvTally>,
}

impl BatchTally {
    /// Total voxel updates in the batch.
    pub fn updates(&self) -> u64 {
        self.svs.iter().map(|s| s.updates).sum()
    }

    /// Total zero-skipped visits.
    pub fn skipped(&self) -> u64 {
        self.svs.iter().map(|s| s.skipped).sum()
    }

    /// Total sparse entries.
    pub fn nnz(&self) -> f64 {
        self.svs.iter().map(|s| s.nnz).sum()
    }

    /// Total dense (padded) elements.
    pub fn dense(&self) -> f64 {
        self.svs.iter().map(|s| s.dense).sum()
    }

    /// Total SVB bytes resident during the batch (single plane).
    pub fn svb_bytes(&self) -> f64 {
        self.svs.iter().map(|s| s.svb_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_sums() {
        let b = BatchTally {
            svs: vec![
                SvTally {
                    updates: 10,
                    skipped: 2,
                    nnz: 100.0,
                    dense: 400.0,
                    svb_bytes: 64.0,
                    ..Default::default()
                },
                SvTally {
                    updates: 5,
                    skipped: 0,
                    nnz: 50.0,
                    dense: 200.0,
                    svb_bytes: 32.0,
                    ..Default::default()
                },
            ],
        };
        assert_eq!(b.updates(), 15);
        assert_eq!(b.skipped(), 2);
        assert_eq!(b.nnz(), 150.0);
        assert_eq!(b.dense(), 600.0);
        assert_eq!(b.svb_bytes(), 96.0);
    }
}
