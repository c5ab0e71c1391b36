//! The `ProfileRequest` builder — the one front door for naming a
//! simulation.
//!
//! Before this module, every layer had its own positional signature for the
//! same (workload, input, predictor, scale, mode) coordinates:
//! `Context::profile(w, input, kind)`, `JobSpec::accuracy(name, input,
//! scale, kind)`, and so on. A [`ProfileRequest`] carries the full
//! coordinate tuple with explicit defaults (`train` input; the resolving
//! context's scale), converts to a content-addressed [`JobSpec`] with
//! [`to_spec`](ProfileRequest::to_spec), and names its underlying recorded
//! trace with [`trace_ref`](ProfileRequest::trace_ref).
//!
//! ```
//! use twodprof_engine::{ProfileMode, ProfileRequest};
//! use bpred::PredictorKind;
//! use workloads::Scale;
//!
//! let req = ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb).input("ref");
//! assert_eq!(req.mode(), ProfileMode::Accuracy);
//! let spec = req.to_spec(Scale::Tiny);
//! assert_eq!(spec.describe(), "acc-gshare4kb gzip/ref @tiny");
//! ```

use crate::{JobKind, JobSpec};
use bpred::PredictorKind;
use workloads::Scale;

/// What a [`ProfileRequest`] asks the engine to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProfileMode {
    /// Total dynamic conditional branch count.
    Count,
    /// Per-branch accuracy profile under the request's predictor.
    Accuracy,
    /// Full 2D-profiling run under the request's predictor.
    TwoD,
}

/// One simulation request, in builder form.
///
/// Construct with [`count`](Self::count), [`accuracy`](Self::accuracy), or
/// [`two_d`](Self::two_d); refine with [`input`](Self::input) (default
/// `"train"`) and [`scale`](Self::scale) (default: whatever scale the
/// resolving context runs at).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProfileRequest {
    workload: String,
    input: String,
    predictor: Option<PredictorKind>,
    scale: Option<Scale>,
    mode: ProfileMode,
    slice_len: Option<u64>,
}

impl ProfileRequest {
    fn new(workload: &str, predictor: Option<PredictorKind>, mode: ProfileMode) -> Self {
        Self {
            workload: workload.to_owned(),
            input: "train".to_owned(),
            predictor,
            scale: None,
            mode,
            slice_len: None,
        }
    }

    /// A branch-count request for `workload` (input defaults to `train`).
    pub fn count(workload: &str) -> Self {
        Self::new(workload, None, ProfileMode::Count)
    }

    /// An accuracy-profile request for `workload` under `predictor`.
    pub fn accuracy(workload: &str, predictor: PredictorKind) -> Self {
        Self::new(workload, Some(predictor), ProfileMode::Accuracy)
    }

    /// A 2D-profiling request for `workload` under `predictor`.
    pub fn two_d(workload: &str, predictor: PredictorKind) -> Self {
        Self::new(workload, Some(predictor), ProfileMode::TwoD)
    }

    /// Selects the input set (default `"train"`).
    #[must_use]
    pub fn input(mut self, input: &str) -> Self {
        self.input = input.to_owned();
        self
    }

    /// Pins the workload scale (default: the resolving context's scale).
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Overrides a 2D request's auto-scaled slice length with `slice_len`
    /// dynamic branches (a [`JobKind::TwoDSlice`] job).
    ///
    /// # Panics
    ///
    /// Panics if the request is not a 2D request or `slice_len` is zero.
    #[must_use]
    pub fn slice_len(mut self, slice_len: u64) -> Self {
        assert_eq!(self.mode, ProfileMode::TwoD, "only 2D requests have slices");
        assert!(slice_len > 0, "slice_len must be positive");
        self.slice_len = Some(slice_len);
        self
    }

    /// The request's workload name.
    pub fn workload_name(&self) -> &str {
        &self.workload
    }

    /// The request's input-set name.
    pub fn input_name(&self) -> &str {
        &self.input
    }

    /// The request's predictor, if its mode needs one.
    pub fn predictor(&self) -> Option<PredictorKind> {
        self.predictor
    }

    /// What the request computes.
    pub fn mode(&self) -> ProfileMode {
        self.mode
    }

    /// The scale the request resolves to, given the context default.
    pub fn resolved_scale(&self, default_scale: Scale) -> Scale {
        self.scale.unwrap_or(default_scale)
    }

    /// Resolves the request to a content-addressed [`JobSpec`], filling in
    /// `default_scale` when no scale was pinned.
    pub fn to_spec(&self, default_scale: Scale) -> JobSpec {
        let scale = self.resolved_scale(default_scale);
        match self.mode {
            ProfileMode::Count => JobSpec::count(&self.workload, &self.input, scale),
            ProfileMode::Accuracy => JobSpec::accuracy(
                &self.workload,
                &self.input,
                scale,
                self.predictor.expect("accuracy request has a predictor"),
            ),
            ProfileMode::TwoD => {
                let kind = self.predictor.expect("2D request has a predictor");
                match self.slice_len {
                    None => JobSpec::two_d(&self.workload, &self.input, scale, kind),
                    Some(len) => {
                        JobSpec::two_d_slice(&self.workload, &self.input, scale, kind, len)
                    }
                }
            }
        }
    }

    /// The recorded trace the request's simulation replays.
    pub fn trace_ref(&self, default_scale: Scale) -> TraceRef {
        TraceRef::new(
            &self.workload,
            &self.input,
            self.resolved_scale(default_scale),
        )
    }
}

/// Names one recorded trace: a (workload, input, scale) trio, independent
/// of any predictor. Every simulation of the trio replays the same trace.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceRef {
    /// Workload name.
    pub workload: String,
    /// Input-set name.
    pub input: String,
    /// Workload scale.
    pub scale: Scale,
}

impl TraceRef {
    /// Creates a trace reference.
    pub fn new(workload: &str, input: &str, scale: Scale) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
        }
    }

    /// The trace coordinates of any spec (its own kind is irrelevant: all
    /// kinds of one (workload, input, scale) trio share a trace).
    pub fn of_spec(spec: &JobSpec) -> Self {
        Self::new(&spec.workload, &spec.input, spec.scale)
    }

    /// The content-addressed spec of the trace-recording job itself.
    pub fn spec(&self) -> JobSpec {
        JobSpec {
            workload: self.workload.clone(),
            input: self.input.clone(),
            scale: self.scale,
            kind: JobKind::Trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders_resolve() {
        let req = ProfileRequest::count("gzip");
        assert_eq!(req.input_name(), "train");
        assert_eq!(req.predictor(), None);
        let spec = req.to_spec(Scale::Tiny);
        assert_eq!(spec, JobSpec::count("gzip", "train", Scale::Tiny));

        let req = ProfileRequest::two_d("gap", PredictorKind::Perceptron16Kb)
            .input("ref")
            .scale(Scale::Small);
        // a pinned scale wins over the context default
        let spec = req.to_spec(Scale::Full);
        assert_eq!(
            spec,
            JobSpec::two_d("gap", "ref", Scale::Small, PredictorKind::Perceptron16Kb)
        );
    }

    #[test]
    fn slice_override_resolves_to_its_own_kind() {
        let req = ProfileRequest::two_d("gzip", PredictorKind::Gshare4Kb).slice_len(8_000);
        assert_eq!(req.mode(), ProfileMode::TwoD);
        let spec = req.to_spec(Scale::Tiny);
        assert_eq!(
            spec.kind,
            JobKind::TwoDSlice(PredictorKind::Gshare4Kb, 8_000)
        );
        assert_eq!(spec.describe(), "twod-gshare4kb-slice8000 gzip/train @tiny");
        // the override replays the same trace as the plain 2D request
        assert_eq!(
            req.trace_ref(Scale::Tiny),
            ProfileRequest::two_d("gzip", PredictorKind::Gshare4Kb).trace_ref(Scale::Tiny)
        );
    }

    #[test]
    #[should_panic(expected = "only 2D requests have slices")]
    fn slice_override_needs_a_2d_request() {
        let _ = ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb).slice_len(8_000);
    }

    #[test]
    fn trace_ref_is_predictor_independent() {
        let acc = ProfileRequest::accuracy("mcf", PredictorKind::Gshare4Kb).trace_ref(Scale::Tiny);
        let two_d =
            ProfileRequest::two_d("mcf", PredictorKind::Perceptron16Kb).trace_ref(Scale::Tiny);
        assert_eq!(acc, two_d);
        assert_eq!(acc.spec().kind, JobKind::Trace);
        assert_eq!(acc.spec().describe(), "trace mcf/train @tiny");
    }

    #[test]
    fn of_spec_strips_the_kind() {
        let spec = JobSpec::accuracy("gzip", "ref", Scale::Small, PredictorKind::Gshare4Kb);
        let tref = TraceRef::of_spec(&spec);
        assert_eq!(tref, TraceRef::new("gzip", "ref", Scale::Small));
        assert_eq!(tref.spec().content_hash(), tref.spec().content_hash());
        assert_ne!(tref.spec().content_hash(), spec.content_hash());
    }
}
