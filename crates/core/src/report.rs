//! End-of-run profiling reports.

use crate::{MeanThreshold, TestOutcomes, Thresholds};
use btrace::{read_varint, write_varint, SiteId};
use std::io::{self, Read, Write};

/// 2D-profiling verdict for one static branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Classification {
    /// Predicted input-dependent: passed (MEAN ∨ STD) ∧ PAM.
    Dependent,
    /// Predicted input-independent.
    Independent,
    /// Not enough data: the branch never accumulated a counted slice
    /// (it executed rarely or not at all). Treated as input-independent by
    /// the evaluation metrics, matching the paper's handling of branches the
    /// profiler cannot see.
    Insufficient,
}

impl Classification {
    /// The verdict for a branch's test outcomes: `Insufficient` without
    /// data, otherwise the paper's combination rule (Figure 9c).
    pub fn from_outcomes(outcomes: Option<TestOutcomes>) -> Self {
        match outcomes {
            None => Classification::Insufficient,
            Some(o) if o.predicts_dependent() => Classification::Dependent,
            Some(_) => Classification::Independent,
        }
    }

    /// Whether the branch is predicted input-dependent.
    pub fn is_dependent(self) -> bool {
        matches!(self, Classification::Dependent)
    }
}

impl std::fmt::Display for Classification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Classification::Dependent => "input-dependent",
            Classification::Independent => "input-independent",
            Classification::Insufficient => "insufficient-data",
        };
        f.write_str(s)
    }
}

/// Per-branch statistics at the end of a 2D-profiling run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BranchStats {
    /// The static branch.
    pub site: SiteId,
    /// Number of counted slices (`N`).
    pub slices: u64,
    /// Mean filtered slice accuracy, if any slice was counted.
    pub mean: Option<f64>,
    /// Standard deviation of filtered slice accuracies.
    pub std_dev: Option<f64>,
    /// Fraction of slices above the running mean.
    pub pam_fraction: Option<f64>,
    /// Total dynamic executions over the whole run.
    pub executions: u64,
    /// Whole-run aggregate prediction accuracy (the 1-D profile value).
    pub aggregate_accuracy: Option<f64>,
    /// Raw outcomes of the three tests, if the branch had data.
    pub outcomes: Option<TestOutcomes>,
    /// Final verdict.
    pub classification: Classification,
}

/// The complete result of one 2D-profiling run.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileReport {
    stats: Vec<BranchStats>,
    thresholds: Thresholds,
    program_accuracy: Option<f64>,
    resolved_mean_threshold: Option<f64>,
    total_slices: u64,
    total_branches: u64,
    predictor_name: String,
    series: Option<SeriesData>,
}

/// Recorded per-slice time series (Figure 8 support).
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct SeriesData {
    /// For each site: `(slice index, filtered accuracy)` samples for counted
    /// slices.
    pub per_site: Vec<Vec<(u64, f64)>>,
    /// Overall program accuracy per slice.
    pub overall: Vec<(u64, f64)>,
}

impl ProfileReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        stats: Vec<BranchStats>,
        thresholds: Thresholds,
        program_accuracy: Option<f64>,
        resolved_mean_threshold: Option<f64>,
        total_slices: u64,
        total_branches: u64,
        predictor_name: String,
        series: Option<SeriesData>,
    ) -> Self {
        Self {
            stats,
            thresholds,
            program_accuracy,
            resolved_mean_threshold,
            total_slices,
            total_branches,
            predictor_name,
            series,
        }
    }

    /// Statistics for one branch.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn stats(&self, site: SiteId) -> &BranchStats {
        &self.stats[site.index()]
    }

    /// Final verdict for one branch.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn classification(&self, site: SiteId) -> Classification {
        self.stats[site.index()].classification
    }

    /// Iterates over all branches' statistics in site order.
    pub fn iter(&self) -> impl Iterator<Item = &BranchStats> {
        self.stats.iter()
    }

    /// Iterates over the branches predicted input-dependent.
    pub fn predicted_dependent(&self) -> impl Iterator<Item = &BranchStats> {
        self.stats
            .iter()
            .filter(|s| s.classification.is_dependent())
    }

    /// Dense `site -> predicted input-dependent?` vector, aligned with the
    /// workload's site table.
    pub fn predicted_mask(&self) -> Vec<bool> {
        self.stats
            .iter()
            .map(|s| s.classification.is_dependent())
            .collect()
    }

    /// Number of static branch sites covered by the report.
    pub fn num_sites(&self) -> usize {
        self.stats.len()
    }

    /// The thresholds the classification used.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// Overall prediction accuracy of the profiling run, or `None` for an
    /// empty run.
    pub fn program_accuracy(&self) -> Option<f64> {
        self.program_accuracy
    }

    /// The concrete MEAN-test threshold after resolving
    /// [`MeanThreshold::ProgramAccuracy`](crate::MeanThreshold), if the run
    /// was non-empty.
    pub fn resolved_mean_threshold(&self) -> Option<f64> {
        self.resolved_mean_threshold
    }

    /// Number of global slices the run was divided into (counted or not).
    pub fn total_slices(&self) -> u64 {
        self.total_slices
    }

    /// Total dynamic branch events in the run.
    pub fn total_branches(&self) -> u64 {
        self.total_branches
    }

    /// Name of the predictor the profiler simulated.
    pub fn predictor_name(&self) -> &str {
        &self.predictor_name
    }

    /// Per-slice `(slice index, filtered accuracy)` samples for `site`, if
    /// the profiler ran with time-series recording enabled.
    pub fn series(&self, site: SiteId) -> Option<&[(u64, f64)]> {
        self.series
            .as_ref()
            .map(|s| s.per_site[site.index()].as_slice())
    }

    /// Per-slice overall program accuracy, if time-series recording was
    /// enabled.
    pub fn overall_series(&self) -> Option<&[(u64, f64)]> {
        self.series.as_ref().map(|s| s.overall.as_slice())
    }

    /// The same run classified under different `thresholds`: the
    /// MEAN/STD/PAM tests are re-applied to the stored per-branch mean,
    /// standard deviation and PAM fraction against the stored program
    /// accuracy. `finish` derives its verdicts from exactly these values,
    /// so the result equals re-running the profiler and finishing it with
    /// `thresholds` — a threshold sweep needs one profiling run, not one
    /// per setting.
    #[must_use]
    pub fn with_thresholds(&self, thresholds: Thresholds) -> ProfileReport {
        // an empty run never consults the MEAN threshold (every branch is
        // Insufficient); 1.0 mirrors `finish`'s stand-in
        let program_accuracy = self.program_accuracy.unwrap_or(1.0);
        let stats = self
            .stats
            .iter()
            .map(|s| {
                let outcomes = match (s.mean, s.std_dev, s.pam_fraction) {
                    (Some(mean), Some(std_dev), Some(pam)) => {
                        Some(thresholds.apply(mean, std_dev, pam, program_accuracy))
                    }
                    _ => None,
                };
                BranchStats {
                    outcomes,
                    classification: Classification::from_outcomes(outcomes),
                    ..*s
                }
            })
            .collect();
        Self {
            stats,
            thresholds,
            resolved_mean_threshold: self.program_accuracy.map(|a| thresholds.resolve_mean(a)),
            predictor_name: self.predictor_name.clone(),
            series: self.series.clone(),
            ..*self
        }
    }

    /// Writes the full report (statistics, thresholds, series) in a compact
    /// binary format — the payload the sweep engine's result cache stores.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_thresholds(w, &self.thresholds)?;
        write_opt_f64(w, self.program_accuracy)?;
        write_opt_f64(w, self.resolved_mean_threshold)?;
        write_varint(w, self.total_slices)?;
        write_varint(w, self.total_branches)?;
        let name = self.predictor_name.as_bytes();
        write_varint(w, name.len() as u64)?;
        w.write_all(name)?;
        write_varint(w, self.stats.len() as u64)?;
        for s in &self.stats {
            write_varint(w, s.slices)?;
            write_opt_f64(w, s.mean)?;
            write_opt_f64(w, s.std_dev)?;
            write_opt_f64(w, s.pam_fraction)?;
            write_varint(w, s.executions)?;
            write_opt_f64(w, s.aggregate_accuracy)?;
            let outcome_bits = match s.outcomes {
                None => 0u64,
                Some(o) => 0b1000 | (o.mean as u64) | ((o.std as u64) << 1) | ((o.pam as u64) << 2),
            };
            write_varint(w, outcome_bits)?;
            let class = match s.classification {
                Classification::Dependent => 0u64,
                Classification::Independent => 1,
                Classification::Insufficient => 2,
            };
            write_varint(w, class)?;
        }
        match &self.series {
            None => write_varint(w, 0)?,
            Some(series) => {
                write_varint(w, 1)?;
                write_varint(w, series.per_site.len() as u64)?;
                for samples in &series.per_site {
                    write_series(w, samples)?;
                }
                write_series(w, &series.overall)?;
            }
        }
        Ok(())
    }

    /// Serializes the report to an owned buffer via
    /// [`write_to`](Self::write_to).
    ///
    /// This is the exact payload the ingestion daemon ships back over the
    /// wire, so byte-equality of two `to_bytes` results is the "bit-identical
    /// report" check the remote/in-process equivalence tests rely on.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)
            .expect("writing to a Vec<u8> cannot fail");
        buf
    }

    /// Parses a report from a [`to_bytes`](Self::to_bytes) buffer, rejecting
    /// trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input or leftover bytes.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        let mut r = bytes;
        let report = Self::read_from(&mut r)?;
        if !r.is_empty() {
            return Err(invalid("trailing bytes after report"));
        }
        Ok(report)
    }

    /// Reads a report written by [`write_to`](Self::write_to).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed input and propagates I/O errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let thresholds = read_thresholds(r)?;
        let program_accuracy = read_opt_f64(r)?;
        let resolved_mean_threshold = read_opt_f64(r)?;
        let total_slices = read_varint(r)?;
        let total_branches = read_varint(r)?;
        let name_len = read_varint(r)? as usize;
        if name_len > 1 << 16 {
            return Err(invalid("unreasonable predictor-name length"));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name)?;
        let predictor_name =
            String::from_utf8(name).map_err(|_| invalid("predictor name is not UTF-8"))?;
        let num_sites = read_varint(r)? as usize;
        if num_sites > 1 << 28 {
            return Err(invalid("unreasonable site count"));
        }
        // the declared count is untrusted until the entries actually arrive:
        // clamp the reservation so a short hostile prefix cannot make the
        // decoder reserve gigabytes before hitting EOF
        let mut stats = Vec::with_capacity(num_sites.min(1 << 16));
        for i in 0..num_sites {
            let slices = read_varint(r)?;
            let mean = read_opt_f64(r)?;
            let std_dev = read_opt_f64(r)?;
            let pam_fraction = read_opt_f64(r)?;
            let executions = read_varint(r)?;
            let aggregate_accuracy = read_opt_f64(r)?;
            let outcome_bits = read_varint(r)?;
            let outcomes = if outcome_bits & 0b1000 != 0 {
                Some(TestOutcomes {
                    mean: outcome_bits & 1 != 0,
                    std: outcome_bits & 2 != 0,
                    pam: outcome_bits & 4 != 0,
                })
            } else {
                None
            };
            let classification = match read_varint(r)? {
                0 => Classification::Dependent,
                1 => Classification::Independent,
                2 => Classification::Insufficient,
                _ => return Err(invalid("unknown classification tag")),
            };
            stats.push(BranchStats {
                site: SiteId(i as u32),
                slices,
                mean,
                std_dev,
                pam_fraction,
                executions,
                aggregate_accuracy,
                outcomes,
                classification,
            });
        }
        let series = match read_varint(r)? {
            0 => None,
            1 => {
                let n = read_varint(r)? as usize;
                if n != num_sites {
                    return Err(invalid("series table size mismatch"));
                }
                let mut per_site = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    per_site.push(read_series(r)?);
                }
                let overall = read_series(r)?;
                Some(SeriesData { per_site, overall })
            }
            _ => return Err(invalid("unknown series tag")),
        };
        Ok(Self {
            stats,
            thresholds,
            program_accuracy,
            resolved_mean_threshold,
            total_slices,
            total_branches,
            predictor_name,
            series,
        })
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_bits(u64::from_le_bytes(buf)))
}

fn write_opt_f64<W: Write>(w: &mut W, v: Option<f64>) -> io::Result<()> {
    match v {
        None => w.write_all(&[0]),
        Some(v) => {
            w.write_all(&[1])?;
            write_f64(w, v)
        }
    }
}

fn read_opt_f64<R: Read>(r: &mut R) -> io::Result<Option<f64>> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    match tag[0] {
        0 => Ok(None),
        1 => Ok(Some(read_f64(r)?)),
        _ => Err(invalid("bad optional-float tag")),
    }
}

fn write_thresholds<W: Write>(w: &mut W, t: &Thresholds) -> io::Result<()> {
    match t.mean {
        MeanThreshold::ProgramAccuracy => w.write_all(&[0])?,
        MeanThreshold::Fixed(v) => {
            w.write_all(&[1])?;
            write_f64(w, v)?;
        }
    }
    write_f64(w, t.std)?;
    write_f64(w, t.pam)
}

fn read_thresholds<R: Read>(r: &mut R) -> io::Result<Thresholds> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let mean = match tag[0] {
        0 => MeanThreshold::ProgramAccuracy,
        1 => MeanThreshold::Fixed(read_f64(r)?),
        _ => return Err(invalid("bad mean-threshold tag")),
    };
    Ok(Thresholds {
        mean,
        std: read_f64(r)?,
        pam: read_f64(r)?,
    })
}

fn write_series<W: Write>(w: &mut W, samples: &[(u64, f64)]) -> io::Result<()> {
    write_varint(w, samples.len() as u64)?;
    for &(slice, acc) in samples {
        write_varint(w, slice)?;
        write_f64(w, acc)?;
    }
    Ok(())
}

fn read_series<R: Read>(r: &mut R) -> io::Result<Vec<(u64, f64)>> {
    let n = read_varint(r)? as usize;
    if n > 1 << 28 {
        return Err(invalid("unreasonable series length"));
    }
    let mut samples = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let slice = read_varint(r)?;
        samples.push((slice, read_f64(r)?));
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SliceConfig, TwoDProfiler};
    use btrace::Tracer;

    fn sample_report(with_series: bool) -> ProfileReport {
        sample_report_under(with_series, Thresholds::paper())
    }

    fn sample_report_under(with_series: bool, thresholds: Thresholds) -> ProfileReport {
        let make = if with_series {
            TwoDProfiler::with_series
        } else {
            TwoDProfiler::new
        };
        let mut prof = make(3, bpred::Gshare::new(8, 8), SliceConfig::new(500, 8));
        for i in 0..20_000u64 {
            let noisy = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).count_ones() % 2 == 0;
            prof.branch(SiteId(0), if i < 10_000 { noisy } else { true });
            prof.branch(SiteId(1), true);
            // site 2 never executes: exercises the Insufficient path
        }
        prof.finish(thresholds)
    }

    #[test]
    fn with_thresholds_equals_finishing_under_them() {
        for with_series in [false, true] {
            let paper = sample_report(with_series);
            for thresholds in [
                Thresholds::paper(),
                Thresholds {
                    std: 0.0,
                    pam: 0.0,
                    ..Thresholds::paper()
                },
                Thresholds {
                    mean: MeanThreshold::Fixed(0.99),
                    std: f64::MAX,
                    pam: 0.3,
                },
            ] {
                let mut live = sample_report_under(with_series, thresholds);
                assert_eq!(paper.with_thresholds(thresholds), live);
                // and back again
                live = live.with_thresholds(Thresholds::paper());
                assert_eq!(live, paper);
            }
        }
    }

    #[test]
    fn report_serialization_roundtrips() {
        for with_series in [false, true] {
            let report = sample_report(with_series);
            let mut buf = Vec::new();
            report.write_to(&mut buf).unwrap();
            let back = ProfileReport::read_from(&mut buf.as_slice()).unwrap();
            assert_eq!(back, report, "with_series={with_series}");
        }
    }

    #[test]
    fn report_deserialization_rejects_corruption() {
        let report = sample_report(false);
        let mut buf = Vec::new();
        report.write_to(&mut buf).unwrap();
        assert!(ProfileReport::read_from(&mut &buf[..buf.len() - 2]).is_err());
        let mut bad = buf.clone();
        bad[0] = 99; // mean-threshold tag
        assert!(ProfileReport::read_from(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn byte_helpers_match_streaming_forms() {
        let report = sample_report(true);
        let bytes = report.to_bytes();
        let mut streamed = Vec::new();
        report.write_to(&mut streamed).unwrap();
        assert_eq!(bytes, streamed);
        assert_eq!(ProfileReport::from_bytes(&bytes).unwrap(), report);
        // trailing garbage after a valid report is rejected
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(ProfileReport::from_bytes(&padded).is_err());
    }

    #[test]
    fn classification_display_and_predicate() {
        assert!(Classification::Dependent.is_dependent());
        assert!(!Classification::Independent.is_dependent());
        assert!(!Classification::Insufficient.is_dependent());
        assert_eq!(Classification::Dependent.to_string(), "input-dependent");
        assert_eq!(
            Classification::Insufficient.to_string(),
            "insufficient-data"
        );
    }
}
