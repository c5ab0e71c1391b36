//! Slice-boundary accounting shared by the per-event profiler and the
//! engine's batched bit-sliced replay.
//!
//! [`SliceAccum`] owns everything in a 2D-profiling run *except* the
//! predictor simulation: the per-branch [`BranchState`](crate::BranchState)
//! table, the global slice clock, the program-accuracy totals, optional
//! time-series recording, and the finish-time MEAN/STD/PAM evaluation.
//! [`TwoDProfiler`](crate::TwoDProfiler) drives it one event at a time;
//! the sweep engine's bit-sliced lane group drives it in per-site batches,
//! folding each site's `(executions, correct)` once per slice.
//!
//! Both drivers produce bit-identical [`ProfileReport`]s because every
//! per-event quantity is a `u64` addition (associative, so batch order
//! within a slice is irrelevant) and all floating-point arithmetic happens
//! here, at slice boundaries, in site order — exactly where and how the
//! per-event path has always done it.

use crate::report::SeriesData;
use crate::thresholds::evaluate;
use crate::{BranchStats, Classification, ProfileReport, SliceConfig, Thresholds};
use btrace::SiteId;

/// Slice accounting for one profiling run: per-branch state, the global
/// slice clock, and the end-of-run classification fold.
#[derive(Clone, Debug)]
pub struct SliceAccum {
    states: Vec<crate::BranchState>,
    config: SliceConfig,
    in_slice: u64,
    slice_index: u64,
    total_exec: u64,
    total_correct: u64,
    slice_exec: u64,
    slice_correct: u64,
    series: Option<SeriesData>,
}

impl SliceAccum {
    /// Creates accounting for a workload with `num_sites` static branches,
    /// slicing the run per `config`.
    pub fn new(num_sites: usize, config: SliceConfig) -> Self {
        twodprof_obs::counter!(
            "profiler_branches_tracked_total",
            "Static branch sites tracked across all profiler instances."
        )
        .add(num_sites as u64);
        Self {
            states: vec![crate::BranchState::new(); num_sites],
            config,
            in_slice: 0,
            slice_index: 0,
            total_exec: 0,
            total_correct: 0,
            slice_exec: 0,
            slice_correct: 0,
            series: None,
        }
    }

    /// Like [`new`](Self::new), but additionally records each branch's
    /// per-slice filtered accuracy and the per-slice overall program
    /// accuracy, for time-series plots like the paper's Figure 8.
    ///
    /// Costs `O(sites × slices)` memory; leave disabled for large sweeps.
    pub fn with_series(num_sites: usize, config: SliceConfig) -> Self {
        let mut a = Self::new(num_sites, config);
        a.series = Some(SeriesData {
            per_site: vec![Vec::new(); num_sites],
            overall: Vec::new(),
        });
        a
    }

    /// The slice configuration in effect.
    pub fn config(&self) -> SliceConfig {
        self.config
    }

    /// Per-branch state accumulated so far.
    pub fn state(&self, site: SiteId) -> &crate::BranchState {
        &self.states[site.index()]
    }

    /// Total dynamic branch events recorded.
    pub fn total_events(&self) -> u64 {
        self.total_exec
    }

    /// Events still needed to fill the currently open slice.
    pub fn remaining_in_slice(&self) -> u64 {
        self.config.slice_len() - self.in_slice
    }

    /// Records one dynamic branch event, closing the slice automatically
    /// when it fills.
    #[inline]
    pub fn record(&mut self, site: SiteId, correct: bool) {
        self.states[site.index()].record(correct);
        self.total_exec += 1;
        self.total_correct += correct as u64;
        self.slice_exec += 1;
        self.slice_correct += correct as u64;
        self.in_slice += 1;
        if self.in_slice == self.config.slice_len() {
            self.roll_slice();
        }
    }

    /// Records a within-slice batch of `executions` events at `site`,
    /// `correct` of them predicted correctly. Unlike [`record`](Self::record)
    /// this never closes the slice: the batching driver must call
    /// [`roll_slice`](Self::roll_slice) itself exactly when the slice fills
    /// (and must split batches at slice boundaries — see
    /// [`remaining_in_slice`](Self::remaining_in_slice)).
    ///
    /// # Panics
    ///
    /// Panics if the batch would overflow the open slice.
    #[inline]
    pub fn record_batch(&mut self, site: SiteId, executions: u64, correct: u64) {
        assert!(
            self.in_slice + executions <= self.config.slice_len(),
            "batch of {executions} events crosses a slice boundary"
        );
        self.states[site.index()].record_batch(executions, correct);
        self.total_exec += executions;
        self.total_correct += correct;
        self.slice_exec += executions;
        self.slice_correct += correct;
        self.in_slice += executions;
    }

    /// Closes the current slice (the paper's "function executed at the end
    /// of each slice"): folds every branch's per-slice counters into its
    /// running statistics, in site order, and resets the slice clock.
    pub fn roll_slice(&mut self) {
        let thr = self.config.exec_threshold();
        // Metrics are accumulated here, at the slice boundary, so the
        // per-event `record` path stays untouched; the FIR/PAM deltas ride
        // the O(sites) fold loop that runs anyway.
        let mut fir_updates = 0u64;
        let mut pam_updates = 0u64;
        match &mut self.series {
            Some(series) => {
                for (i, st) in self.states.iter_mut().enumerate() {
                    let pam_before = st.slices_above_mean();
                    if let Some(acc) = st.end_slice_sampled(thr) {
                        series.per_site[i].push((self.slice_index, acc));
                        fir_updates += 1;
                    }
                    pam_updates += st.slices_above_mean() - pam_before;
                }
                if self.slice_exec > 0 {
                    series.overall.push((
                        self.slice_index,
                        self.slice_correct as f64 / self.slice_exec as f64,
                    ));
                }
            }
            None => {
                for st in &mut self.states {
                    let n_before = st.slices();
                    let pam_before = st.slices_above_mean();
                    st.end_slice(thr);
                    fir_updates += st.slices() - n_before;
                    pam_updates += st.slices_above_mean() - pam_before;
                }
            }
        }
        twodprof_obs::counter!(
            "profiler_events_total",
            "Dynamic branch events ingested by all profiler instances."
        )
        .add(self.in_slice);
        twodprof_obs::counter!(
            "profiler_slices_closed_total",
            "Global slice boundaries folded (including trailing partials)."
        )
        .inc();
        twodprof_obs::counter!(
            "profiler_filter_updates_total",
            "Per-branch FIR filter updates (slices counted into statistics)."
        )
        .add(fir_updates);
        twodprof_obs::counter!(
            "profiler_pam_updates_total",
            "NPAM increments (counted slices above the running mean)."
        )
        .add(pam_updates);
        self.slice_exec = 0;
        self.slice_correct = 0;
        self.slice_index += 1;
        self.in_slice = 0;
    }

    /// Ends the run: folds any open partial slice, resolves the MEAN-test
    /// threshold against the run's overall accuracy, applies the three
    /// tests to every branch, and returns the report attributed to
    /// `predictor_name`.
    pub fn finish(mut self, thresholds: Thresholds, predictor_name: String) -> ProfileReport {
        if self.in_slice > 0 {
            self.roll_slice();
        }
        let program_accuracy =
            (self.total_exec > 0).then(|| self.total_correct as f64 / self.total_exec as f64);
        // With an empty run every branch is Insufficient and the MEAN
        // threshold is never consulted; 1.0 is a harmless stand-in.
        let resolved = program_accuracy.map(|a| thresholds.resolve_mean(a));
        let stats = self
            .states
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let site = SiteId(i as u32);
                let outcomes = evaluate(st, &thresholds, program_accuracy.unwrap_or(1.0));
                let classification = Classification::from_outcomes(outcomes);
                BranchStats {
                    site,
                    slices: st.slices(),
                    mean: st.mean(),
                    std_dev: st.std_dev(),
                    pam_fraction: st.points_above_mean(),
                    executions: st.total_executions(),
                    aggregate_accuracy: st.aggregate_accuracy(),
                    outcomes,
                    classification,
                }
            })
            .collect();
        ProfileReport::new(
            stats,
            thresholds,
            program_accuracy,
            resolved,
            self.slice_index,
            self.total_exec,
            predictor_name,
            self.series,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batched path must reproduce the per-event path bit-exactly when
    /// batches are folded per site within each slice.
    #[test]
    fn batched_fold_matches_per_event_fold() {
        let config = SliceConfig::new(1_000, 50);
        let mut per_event = SliceAccum::new(3, config);
        let mut batched = SliceAccum::new(3, config);
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut pending = [[0u64; 2]; 3]; // per site: [exec, correct]
        let mut total = 0u64;
        for _ in 0..10_500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let site = (x % 3) as usize;
            let correct = x & 4 != 0;
            per_event.record(SiteId(site as u32), correct);
            pending[site][0] += 1;
            pending[site][1] += correct as u64;
            total += 1;
            if total.is_multiple_of(1_000) {
                // slice boundary: fold the batches, then roll
                for (s, p) in pending.iter_mut().enumerate() {
                    batched.record_batch(SiteId(s as u32), p[0], p[1]);
                    *p = [0, 0];
                }
                batched.roll_slice();
            }
        }
        for (s, p) in pending.iter_mut().enumerate() {
            batched.record_batch(SiteId(s as u32), p[0], p[1]);
        }
        let a = per_event.finish(Thresholds::default(), "x".into());
        let b = batched.finish(Thresholds::default(), "x".into());
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        a.write_to(&mut buf_a).unwrap();
        b.write_to(&mut buf_b).unwrap();
        assert_eq!(buf_a, buf_b, "batched fold must be bit-identical");
    }

    #[test]
    #[should_panic(expected = "crosses a slice boundary")]
    fn record_batch_rejects_boundary_crossing() {
        let mut a = SliceAccum::new(1, SliceConfig::new(100, 4));
        a.record_batch(SiteId(0), 101, 0);
    }

    #[test]
    fn remaining_in_slice_counts_down() {
        let mut a = SliceAccum::new(1, SliceConfig::new(10, 1));
        assert_eq!(a.remaining_in_slice(), 10);
        a.record_batch(SiteId(0), 4, 2);
        assert_eq!(a.remaining_in_slice(), 6);
        a.record_batch(SiteId(0), 6, 3);
        assert_eq!(a.remaining_in_slice(), 0);
        a.roll_slice();
        assert_eq!(a.remaining_in_slice(), 10);
        assert_eq!(a.total_events(), 10);
    }
}
