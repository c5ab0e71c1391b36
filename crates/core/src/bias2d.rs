//! 2D *edge* profiling: the paper's sketched variant that applies the same
//! time-sliced tests to branch **bias** (taken rate) instead of prediction
//! accuracy.
//!
//! §1 and §3.1 note that "2D-profiling can also be used with edge profiling
//! to determine whether or not the bias (taken/not-taken rate) of a branch is
//! input-dependent". This variant needs *no predictor model at all*, making
//! the profiler dramatically cheaper — the trade-off being that it detects
//! bias shifts rather than predictability shifts.
//!
//! Statistics are tracked on the per-slice **taken rate**; the MEAN-test is
//! applied to the branch's mean per-slice *bias* (majority-direction
//! frequency, `max(r, 1-r)`), since "low accuracy" has no direct analogue
//! for edges but "weak bias" does.

use crate::report::SeriesData;
use crate::{BranchStats, Classification, ProfileReport, SliceConfig, Thresholds};
use btrace::{SiteId, Tracer};

#[derive(Clone, Copy, Debug, Default)]
struct BiasState {
    n: u64,
    sr: f64,   // sum of filtered taken rates
    ssr: f64,  // sum of squares of the same
    sb: f64,   // sum of per-slice bias values
    npam: u64, // slices with filtered rate above running mean rate
    lpr: Option<f64>,
    taken_ctr: u64,
    exec_ctr: u64,
    total_exec: u64,
    total_taken: u64,
}

impl BiasState {
    #[inline]
    fn record(&mut self, taken: bool) {
        self.exec_ctr += 1;
        self.taken_ctr += taken as u64;
        self.total_exec += 1;
        self.total_taken += taken as u64;
    }

    fn end_slice(&mut self, exec_threshold: u64) -> Option<f64> {
        let mut sample = None;
        if self.exec_ctr > exec_threshold {
            self.n += 1;
            let rate = self.taken_ctr as f64 / self.exec_ctr as f64;
            let filtered = match self.lpr {
                Some(last) => (rate + last) / 2.0,
                None => rate,
            };
            self.sr += filtered;
            self.ssr += filtered * filtered;
            self.sb += filtered.max(1.0 - filtered);
            // epsilon guards constant series against float-rounding jitter
            if filtered > self.sr / self.n as f64 + 1e-9 {
                self.npam += 1;
            }
            self.lpr = Some(filtered);
            sample = Some(filtered);
        }
        self.exec_ctr = 0;
        self.taken_ctr = 0;
        sample
    }

    fn mean_rate(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sr / self.n as f64)
    }

    fn std_rate(&self) -> Option<f64> {
        self.mean_rate()
            .map(|m| (self.ssr / self.n as f64 - m * m).max(0.0).sqrt())
    }

    fn mean_bias(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sb / self.n as f64)
    }

    fn pam(&self) -> Option<f64> {
        (self.n > 0).then(|| self.npam as f64 / self.n as f64)
    }
}

/// Predictor-free 2D profiler over branch bias.
///
/// Implements [`Tracer`]; finish with [`Bias2DProfiler::finish`]. In the
/// resulting [`ProfileReport`], `mean` holds the branch's mean per-slice
/// *bias*, `std_dev`/`pam_fraction` describe its per-slice *taken-rate*
/// series, and `aggregate_accuracy` holds the whole-run bias.
#[derive(Clone, Debug)]
pub struct Bias2DProfiler {
    states: Vec<BiasState>,
    config: SliceConfig,
    in_slice: u64,
    slice_index: u64,
    total_events: u64,
    series: Option<SeriesData>,
}

impl Bias2DProfiler {
    /// Creates a bias 2D-profiler for `num_sites` static branches.
    pub fn new(num_sites: usize, config: SliceConfig) -> Self {
        Self {
            states: vec![BiasState::default(); num_sites],
            config,
            in_slice: 0,
            slice_index: 0,
            total_events: 0,
            series: None,
        }
    }

    /// Like [`new`](Self::new) but records per-slice taken-rate series.
    pub fn with_series(num_sites: usize, config: SliceConfig) -> Self {
        let mut p = Self::new(num_sites, config);
        p.series = Some(SeriesData {
            per_site: vec![Vec::new(); num_sites],
            overall: Vec::new(),
        });
        p
    }

    fn end_slice_all(&mut self) {
        let thr = self.config.exec_threshold();
        for (i, st) in self.states.iter_mut().enumerate() {
            let sample = st.end_slice(thr);
            if let (Some(series), Some(rate)) = (self.series.as_mut(), sample) {
                series.per_site[i].push((self.slice_index, rate));
            }
        }
        self.slice_index += 1;
        self.in_slice = 0;
    }

    /// Ends the run and classifies every branch.
    ///
    /// The MEAN-test compares mean per-slice bias against the resolved
    /// threshold; `MeanThreshold::ProgramAccuracy` resolves to the program's
    /// execution-weighted mean branch bias.
    pub fn finish(mut self, thresholds: Thresholds) -> ProfileReport {
        if self.in_slice > 0 {
            self.end_slice_all();
        }
        // Execution-weighted average per-branch bias over the whole run.
        let (wsum, wtot) = self.states.iter().fold((0.0f64, 0u64), |(s, t), st| {
            if st.total_exec == 0 {
                return (s, t);
            }
            let r = st.total_taken as f64 / st.total_exec as f64;
            (s + r.max(1.0 - r) * st.total_exec as f64, t + st.total_exec)
        });
        let program_bias = (wtot > 0).then(|| wsum / wtot as f64);
        let resolved = program_bias.map(|b| thresholds.resolve_mean(b));
        let stats = self
            .states
            .iter()
            .enumerate()
            .map(|(i, st)| {
                let outcomes = st.mean_bias().map(|mb| {
                    thresholds.apply(
                        mb,
                        st.std_rate().expect("n > 0"),
                        st.pam().expect("n > 0"),
                        program_bias.unwrap_or(1.0),
                    )
                });
                let classification = Classification::from_outcomes(outcomes);
                BranchStats {
                    site: SiteId(i as u32),
                    slices: st.n,
                    mean: st.mean_bias(),
                    std_dev: st.std_rate(),
                    pam_fraction: st.pam(),
                    executions: st.total_exec,
                    aggregate_accuracy: (st.total_exec > 0).then(|| {
                        let r = st.total_taken as f64 / st.total_exec as f64;
                        r.max(1.0 - r)
                    }),
                    outcomes,
                    classification,
                }
            })
            .collect();
        ProfileReport::new(
            stats,
            thresholds,
            program_bias,
            resolved,
            self.slice_index,
            self.total_events,
            "edge-bias".to_owned(),
            self.series,
        )
    }
}

impl Tracer for Bias2DProfiler {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.states[site.index()].record(taken);
        self.total_events += 1;
        self.in_slice += 1;
        if self.in_slice == self.config.slice_len() {
            self.end_slice_all();
        }
    }

    fn dynamic_count(&self) -> Option<u64> {
        Some(self.total_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Thresholds;

    #[test]
    fn bias_phase_shift_is_flagged() {
        // Site 0: taken rate flips from 40% to 95% mid-run. Site 1: steady
        // 90% taken throughout.
        let mut p = Bias2DProfiler::new(2, SliceConfig::new(2_000, 32));
        for i in 0..200_000u64 {
            let r0 = if i < 100_000 {
                i % 100 < 40
            } else {
                i % 100 < 95
            };
            p.branch(SiteId(0), r0);
            p.branch(SiteId(1), i % 10 != 0);
        }
        let report = p.finish(Thresholds::default());
        assert!(report.classification(SiteId(0)).is_dependent());
        assert!(!report.classification(SiteId(1)).is_dependent());
    }

    #[test]
    fn steady_weak_bias_fails_pam() {
        // 55% taken uniformly: weak bias (MEAN passes) but no phase
        // behaviour, so PAM filters it out — mirroring Figure 8 (right).
        let mut p = Bias2DProfiler::new(1, SliceConfig::new(2_000, 32));
        for i in 0..200_000u64 {
            p.branch(SiteId(0), i % 100 < 55);
        }
        let report = p.finish(Thresholds::default());
        assert!(!report.classification(SiteId(0)).is_dependent());
        let s = report.stats(SiteId(0));
        assert!(s.mean.unwrap() < 0.6, "mean bias ~0.55");
        assert!(s.std_dev.unwrap() < 0.01, "rate is steady");
    }

    #[test]
    fn aggregate_accuracy_field_holds_bias() {
        let mut p = Bias2DProfiler::new(1, SliceConfig::new(100, 4));
        for i in 0..1_000u64 {
            p.branch(SiteId(0), i % 4 == 0); // 25% taken -> bias 0.75
        }
        let report = p.finish(Thresholds::default());
        assert!((report.stats(SiteId(0)).aggregate_accuracy.unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(report.predictor_name(), "edge-bias");
    }

    #[test]
    fn series_records_taken_rate() {
        let mut p = Bias2DProfiler::with_series(1, SliceConfig::new(1_000, 32));
        for i in 0..5_000u64 {
            p.branch(SiteId(0), i % 5 != 0); // 80% taken
        }
        let report = p.finish(Thresholds::default());
        let series = report.series(SiteId(0)).unwrap();
        assert_eq!(series.len(), 5);
        assert!((series[0].1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unexecuted_site_is_insufficient() {
        let p = Bias2DProfiler::new(2, SliceConfig::new(100, 4));
        let report = p.finish(Thresholds::default());
        assert_eq!(
            report.classification(SiteId(0)),
            Classification::Insufficient
        );
        assert_eq!(report.program_accuracy(), None);
    }
}
