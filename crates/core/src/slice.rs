//! Slice configuration.

/// Configuration of the profiling-run slicing (§3.2, §4.1 of the paper).
///
/// The paper fixes the slice size at 15 million dynamic branches and discards
/// a branch's slice sample when the branch executed fewer than
/// `exec_threshold = 1000` times in the slice (to suppress noise from
/// infrequent execution and predictor warm-up).
///
/// Workloads in this reproduction run for millions rather than billions of
/// branches, so [`SliceConfig::auto`] scales both knobs to the run length at
/// the paper's ratios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SliceConfig {
    slice_len: u64,
    exec_threshold: u64,
}

impl SliceConfig {
    /// The paper's slice size: 15 million dynamic branches.
    pub const PAPER_SLICE_LEN: u64 = 15_000_000;
    /// The paper's per-slice minimum execution count for a branch's sample
    /// to be kept.
    pub const PAPER_EXEC_THRESHOLD: u64 = 1000;
    /// Default number of slices targeted by [`SliceConfig::auto`].
    pub const AUTO_TARGET_SLICES: u64 = 200;

    /// Creates a slice configuration.
    ///
    /// # Panics
    ///
    /// Panics if `slice_len` is zero or `exec_threshold >= slice_len` (no
    /// branch could ever reach the threshold).
    pub fn new(slice_len: u64, exec_threshold: u64) -> Self {
        assert!(slice_len > 0, "slice_len must be positive");
        assert!(
            exec_threshold < slice_len,
            "exec_threshold ({exec_threshold}) must be smaller than slice_len ({slice_len})"
        );
        Self {
            slice_len,
            exec_threshold,
        }
    }

    /// The paper's configuration: 15M-branch slices, threshold 1000.
    pub fn paper() -> Self {
        Self::new(Self::PAPER_SLICE_LEN, Self::PAPER_EXEC_THRESHOLD)
    }

    /// Scales the paper's configuration to a run of `total_branches` dynamic
    /// branches: aims for [`Self::AUTO_TARGET_SLICES`] slices and keeps the
    /// paper's `exec_threshold : slice_len` ratio (1 : 15 000), with floors
    /// that keep tiny runs sane (slice ≥ 500, threshold ≥ 16).
    pub fn auto(total_branches: u64) -> Self {
        Self::for_len((total_branches / Self::AUTO_TARGET_SLICES).max(500))
    }

    /// A configuration with the given slice length and the exec threshold
    /// scaled to it at the paper's ratio (1 : 15 000), floored at 16 and
    /// kept below `slice_len` — the rule [`auto`](Self::auto) applies to
    /// the slice length it picks.
    ///
    /// # Panics
    ///
    /// Panics if `slice_len` is zero.
    pub fn for_len(slice_len: u64) -> Self {
        assert!(slice_len > 0, "slice_len must be positive");
        Self::new(slice_len, (slice_len / 15_000).max(16).min(slice_len - 1))
    }

    /// Number of dynamic branches per slice.
    pub fn slice_len(&self) -> u64 {
        self.slice_len
    }

    /// Minimum executions of a branch within a slice for the slice's sample
    /// to count toward that branch's statistics.
    pub fn exec_threshold(&self) -> u64 {
        self.exec_threshold
    }
}

impl Default for SliceConfig {
    /// Defaults to the paper's configuration.
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let c = SliceConfig::paper();
        assert_eq!(c.slice_len(), 15_000_000);
        assert_eq!(c.exec_threshold(), 1000);
        assert_eq!(SliceConfig::default(), c);
    }

    #[test]
    fn auto_keeps_paper_ratio_for_large_runs() {
        let c = SliceConfig::auto(3_000_000_000);
        assert_eq!(c.slice_len(), 15_000_000);
        assert_eq!(c.exec_threshold(), 1000);
    }

    #[test]
    fn auto_scales_down_with_floors() {
        let c = SliceConfig::auto(2_000_000);
        assert_eq!(c.slice_len(), 10_000);
        assert_eq!(c.exec_threshold(), 16); // floor, since 10_000/15_000 < 1

        let tiny = SliceConfig::auto(100);
        assert_eq!(tiny.slice_len(), 500);
        assert!(tiny.exec_threshold() < tiny.slice_len());
    }

    #[test]
    fn for_len_scales_the_threshold_like_auto() {
        assert_eq!(SliceConfig::for_len(15_000_000), SliceConfig::paper());
        assert_eq!(SliceConfig::for_len(2_000).exec_threshold(), 16);
        assert_eq!(SliceConfig::for_len(512_000).exec_threshold(), 34);
        // the floor never reaches the slice length
        assert_eq!(SliceConfig::for_len(1).exec_threshold(), 0);
        assert_eq!(SliceConfig::for_len(10).exec_threshold(), 9);
        assert_eq!(SliceConfig::auto(2_000_000), SliceConfig::for_len(10_000));
    }

    #[test]
    #[should_panic(expected = "slice_len must be positive")]
    fn for_len_rejects_zero() {
        let _ = SliceConfig::for_len(0);
    }

    #[test]
    #[should_panic(expected = "slice_len must be positive")]
    fn rejects_zero_slice() {
        let _ = SliceConfig::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "must be smaller than slice_len")]
    fn rejects_threshold_at_or_above_slice() {
        let _ = SliceConfig::new(100, 100);
    }
}
