//! Content-addressed job specifications.
//!
//! A [`JobSpec`] names one simulation run of the evaluation grid — a
//! (workload, input, job kind, scale) tuple — and hashes to a stable cache
//! key. The hash is FNV-1a over the spec's canonical encoding plus
//! [`CACHE_SCHEMA_VERSION`], so bumping the version (for any change to
//! simulation semantics or payload format) invalidates every cached result
//! at once without touching old files.

use bpred::PredictorKind;
use btrace::{read_varint, write_varint};
use std::io::{self, Read};
use workloads::Scale;

/// Version of the cache key scheme *and* payload format. Bump whenever
/// simulation semantics, spec encoding, or serialized payloads change; old
/// cache entries then simply stop being found.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

/// Ceiling on workload/input/predictor name lengths in the spec wire
/// encoding. Checked *before* allocating the string buffer, so a hostile
/// length prefix cannot make a decoder reserve memory it will never fill.
pub const MAX_SPEC_NAME_LEN: usize = 256;

/// What a job computes for its (workload, input) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// Total dynamic conditional branch count (a [`btrace::CountingTracer`]
    /// run).
    BranchCount,
    /// Per-branch accuracy profile under the given predictor
    /// ([`bpred::PredictorSim`]).
    Accuracy(PredictorKind),
    /// A full 2D-profiling run under the given predictor, with the
    /// auto-scaled slice configuration and the paper's thresholds.
    TwoD(PredictorKind),
    /// The recorded branch stream itself ([`btrace::RecordedTrace`]) —
    /// predictor-independent, so one trace job feeds every simulation of
    /// its (workload, input, scale) trio.
    Trace,
    /// A 2D-profiling run like [`TwoD`](Self::TwoD), but with the given
    /// slice length (in dynamic branches) instead of the auto-scaled one.
    /// The exec threshold follows
    /// [`SliceConfig::for_len`](twodprof_core::SliceConfig::for_len). The
    /// slice-length ablation runs these; a decoded spec never carries a
    /// zero length.
    TwoDSlice(PredictorKind, u64),
}

impl JobKind {
    /// Stable, filename-safe identifier of the kind.
    pub fn slug(self) -> String {
        match self {
            JobKind::BranchCount => "count".to_owned(),
            JobKind::Accuracy(k) => format!("acc-{}", k.id()),
            JobKind::TwoD(k) => format!("twod-{}", k.id()),
            JobKind::Trace => "trace".to_owned(),
            JobKind::TwoDSlice(k, len) => format!("twod-{}-slice{len}", k.id()),
        }
    }
}

/// Stable identifier of a workload scale (for keys and filenames).
pub fn scale_id(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// One run of the evaluation grid, in content-addressed form.
///
/// Workload and input are referenced *by name*: the worker that executes
/// the job reconstructs both from the registry, so specs are cheap to
/// clone, trivially `Send`, and hash independently of any in-memory object
/// identity.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Workload name (e.g. `"gzip"`).
    pub workload: String,
    /// Input-set name (e.g. `"train"`, `"ext-3"`).
    pub input: String,
    /// Workload scale of the run.
    pub scale: Scale,
    /// What to compute.
    pub kind: JobKind,
}

impl JobSpec {
    /// A branch-count job.
    pub fn count(workload: &str, input: &str, scale: Scale) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::BranchCount,
        }
    }

    /// An accuracy-profile job.
    pub fn accuracy(workload: &str, input: &str, scale: Scale, kind: PredictorKind) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::Accuracy(kind),
        }
    }

    /// A 2D-profiling job.
    pub fn two_d(workload: &str, input: &str, scale: Scale, kind: PredictorKind) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::TwoD(kind),
        }
    }

    /// A 2D-profiling job with a slice-length override (see
    /// [`JobKind::TwoDSlice`]).
    pub fn two_d_slice(
        workload: &str,
        input: &str,
        scale: Scale,
        kind: PredictorKind,
        slice_len: u64,
    ) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::TwoDSlice(kind, slice_len),
        }
    }

    /// A trace-recording job.
    pub fn trace(workload: &str, input: &str, scale: Scale) -> Self {
        Self {
            workload: workload.to_owned(),
            input: input.to_owned(),
            scale,
            kind: JobKind::Trace,
        }
    }

    /// Stable content hash of the spec (FNV-1a over its canonical
    /// encoding, seeded with [`CACHE_SCHEMA_VERSION`]).
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(CACHE_SCHEMA_VERSION as u64);
        h.write_str(&self.workload);
        h.write_str(&self.input);
        h.write_str(scale_id(self.scale));
        h.write_str(&self.kind.slug());
        h.finish()
    }

    /// Cache file name: human-readable slug plus the content hash.
    pub fn cache_file_name(&self) -> String {
        format!(
            "{}-{}-{}-{}-{:016x}.bin",
            self.workload,
            self.input,
            scale_id(self.scale),
            self.kind.slug(),
            self.content_hash()
        )
    }

    /// Short human-readable description for progress and error reporting.
    pub fn describe(&self) -> String {
        format!(
            "{} {}/{} @{}",
            self.kind.slug(),
            self.workload,
            self.input,
            scale_id(self.scale)
        )
    }

    /// Appends the spec's wire encoding to `buf`:
    ///
    /// ```text
    /// spec := string(workload) string(input) scale-u8 kind-u8
    ///         [string(predictor-id)]          (accuracy / 2D kinds only)
    ///         [varint(slice-len)]             (slice-override 2D only)
    /// ```
    ///
    /// Kind bytes: 0 count, 1 accuracy, 2 2D, 3 trace, 4 slice-override 2D.
    ///
    /// All strings are `varint(len)` + UTF-8 bytes, lengths capped at
    /// [`MAX_SPEC_NAME_LEN`] on the read side.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        write_name(buf, &self.workload);
        write_name(buf, &self.input);
        buf.push(match self.scale {
            Scale::Tiny => 0,
            Scale::Small => 1,
            Scale::Full => 2,
        });
        match self.kind {
            JobKind::BranchCount => buf.push(0),
            JobKind::Accuracy(k) => {
                buf.push(1);
                write_name(buf, k.id());
            }
            JobKind::TwoD(k) => {
                buf.push(2);
                write_name(buf, k.id());
            }
            JobKind::Trace => buf.push(3),
            JobKind::TwoDSlice(k, len) => {
                buf.push(4);
                write_name(buf, k.id());
                write_varint(buf, len).expect("vec write");
            }
        }
    }

    /// Decodes a spec written by [`encode_into`](Self::encode_into),
    /// consuming exactly the spec's bytes from `r`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on over-long names (checked before any
    /// allocation), unknown scale/kind bytes, unknown predictor ids, or a
    /// zero slice length; `UnexpectedEof` on truncation.
    pub fn decode_from(r: &mut &[u8]) -> io::Result<Self> {
        let workload = read_name(r)?;
        let input = read_name(r)?;
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let scale = match byte[0] {
            0 => Scale::Tiny,
            1 => Scale::Small,
            2 => Scale::Full,
            other => return Err(invalid(format!("unknown scale byte {other:#04x}"))),
        };
        r.read_exact(&mut byte)?;
        let kind = match byte[0] {
            0 => JobKind::BranchCount,
            1 => JobKind::Accuracy(read_predictor(r)?),
            2 => JobKind::TwoD(read_predictor(r)?),
            3 => JobKind::Trace,
            4 => {
                let kind = read_predictor(r)?;
                match read_varint(r)? {
                    0 => return Err(invalid("slice length is zero")),
                    len => JobKind::TwoDSlice(kind, len),
                }
            }
            other => return Err(invalid(format!("unknown job-kind byte {other:#04x}"))),
        };
        Ok(Self {
            workload,
            input,
            scale,
            kind,
        })
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn write_name(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_SPEC_NAME_LEN, "name {s:?} too long to wire");
    write_varint(buf, s.len() as u64).expect("vec write");
    buf.extend_from_slice(s.as_bytes());
}

fn read_name(r: &mut &[u8]) -> io::Result<String> {
    let len = read_varint(r)? as usize;
    if len > MAX_SPEC_NAME_LEN {
        return Err(invalid(format!(
            "name length {len} exceeds {MAX_SPEC_NAME_LEN}"
        )));
    }
    let mut bytes = vec![0u8; len];
    r.read_exact(&mut bytes)?;
    String::from_utf8(bytes).map_err(|_| invalid("name is not UTF-8"))
}

fn read_predictor(r: &mut &[u8]) -> io::Result<PredictorKind> {
    let id = read_name(r)?;
    PredictorKind::from_id(&id).ok_or_else(|| invalid(format!("unknown predictor id {id:?}")))
}

/// Minimal FNV-1a, kept local so cache keys never depend on the standard
/// library's unstable-across-releases `DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xFF]); // field separator: "ab","c" hashes unlike "a","bc"
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let a = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        assert_eq!(a.content_hash(), a.clone().content_hash());
        let variants = [
            JobSpec::accuracy("gzi", "ptrain", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Small, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Perceptron16Kb),
            JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::count("gzip", "train", Scale::Tiny),
        ];
        for v in &variants {
            assert_ne!(a.content_hash(), v.content_hash(), "{}", v.describe());
        }
    }

    #[test]
    fn file_names_are_unique_and_readable() {
        let a = JobSpec::count("mcf", "ref", Scale::Full);
        let name = a.cache_file_name();
        assert!(name.starts_with("mcf-ref-full-count-"));
        assert!(name.ends_with(".bin"));
        let b = JobSpec::count("mcf", "ref", Scale::Small);
        assert_ne!(name, b.cache_file_name());
    }

    #[test]
    fn wire_encoding_roundtrips_every_kind() {
        let specs = [
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::accuracy("mcf", "ext-1", Scale::Small, PredictorKind::Gshare4Kb),
            JobSpec::two_d("gap", "train", Scale::Full, PredictorKind::Perceptron16Kb),
            JobSpec::trace("parser", "ref", Scale::Tiny),
            JobSpec::two_d_slice("vpr", "train", Scale::Small, PredictorKind::Tage8Kb, 1),
        ];
        for spec in &specs {
            let mut buf = Vec::new();
            spec.encode_into(&mut buf);
            let mut r = buf.as_slice();
            let back = JobSpec::decode_from(&mut r).unwrap();
            assert_eq!(&back, spec);
            assert!(r.is_empty(), "decode consumed exactly the spec");
        }
    }

    #[test]
    fn wire_decoding_rejects_oversized_names_before_allocation() {
        // a frame declaring a multi-gigabyte workload name must be rejected
        // from the length prefix alone, with no buffer reserved
        let mut buf = Vec::new();
        btrace::write_varint(&mut buf, u64::MAX).unwrap();
        let err = JobSpec::decode_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // just past the cap is rejected the same way
        let mut buf = Vec::new();
        btrace::write_varint(&mut buf, (MAX_SPEC_NAME_LEN + 1) as u64).unwrap();
        buf.extend(std::iter::repeat_n(b'a', MAX_SPEC_NAME_LEN + 1));
        assert!(JobSpec::decode_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn wire_decoding_rejects_truncation_and_bad_bytes() {
        let spec = JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        for len in 0..buf.len() {
            assert!(
                JobSpec::decode_from(&mut &buf[..len]).is_err(),
                "prefix {len} must not decode"
            );
        }
        // unknown scale byte
        let mut bad = buf.clone();
        let scale_pos = 1 + 4 + 1 + 5; // len("gzip")+bytes, len("train")+bytes
        bad[scale_pos] = 9;
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
        // unknown kind byte
        let mut bad = buf.clone();
        bad[scale_pos + 1] = 9;
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
        // corrupted predictor id
        let mut bad = buf;
        let pos = bad
            .windows(9)
            .position(|w| w == b"gshare4kb")
            .expect("id embedded");
        bad[pos] = b'x';
        assert!(JobSpec::decode_from(&mut bad.as_slice()).is_err());
    }

    /// Cache keys, file names and wire bytes of the existing kinds are a
    /// compatibility contract: disk caches, fabric nodes and committed
    /// digests all depend on them. Adding a kind must leave these
    /// literals untouched.
    #[test]
    fn existing_kinds_keep_their_hash_file_name_and_wire_bytes() {
        let pinned: [(JobSpec, u64, &str, &[u8]); 3] = [
            (
                JobSpec::count("gzip", "train", Scale::Tiny),
                0x43cc_cdcb_6e3a_9462,
                "gzip-train-tiny-count-43cccdcb6e3a9462.bin",
                b"\x04gzip\x05train\x00\x00",
            ),
            (
                JobSpec::accuracy("mcf", "ext-1", Scale::Small, PredictorKind::Gshare4Kb),
                0x2c21_3077_1b9f_9cb8,
                "mcf-ext-1-small-acc-gshare4kb-2c2130771b9f9cb8.bin",
                b"\x03mcf\x05ext-1\x01\x01\x09gshare4kb",
            ),
            (
                JobSpec::two_d("gap", "train", Scale::Full, PredictorKind::Perceptron16Kb),
                0xf988_06d7_d437_a97f,
                "gap-train-full-twod-perceptron16kb-f98806d7d437a97f.bin",
                b"\x03gap\x05train\x02\x02\x0eperceptron16kb",
            ),
        ];
        for (spec, hash, file, wire) in pinned {
            assert_eq!(spec.content_hash(), hash, "{}", spec.describe());
            assert_eq!(spec.cache_file_name(), file);
            let mut buf = Vec::new();
            spec.encode_into(&mut buf);
            assert_eq!(buf, wire, "{}", spec.describe());
        }
        assert_eq!(CACHE_SCHEMA_VERSION, 2);
    }

    #[test]
    fn slice_kind_has_its_own_key_and_rejects_truncation() {
        let spec = JobSpec::two_d_slice(
            "gzip",
            "train",
            Scale::Tiny,
            PredictorKind::Gshare4Kb,
            512_000,
        );
        assert!(spec
            .cache_file_name()
            .starts_with("gzip-train-tiny-twod-gshare4kb-slice512000-"));
        // distinct from the auto-sliced 2D job and from other lengths
        let plain = JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        let other = JobSpec::two_d_slice(
            "gzip",
            "train",
            Scale::Tiny,
            PredictorKind::Gshare4Kb,
            2_000,
        );
        assert_ne!(spec.content_hash(), plain.content_hash());
        assert_ne!(spec.content_hash(), other.content_hash());
        // every truncation fails cleanly, the slice-length varint included
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        for len in 0..buf.len() {
            assert!(JobSpec::decode_from(&mut &buf[..len]).is_err());
        }
    }

    #[test]
    fn zero_slice_length_is_invalid_data_not_a_panic() {
        let spec = JobSpec::two_d_slice("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb, 0);
        let mut buf = Vec::new();
        spec.encode_into(&mut buf);
        let err = JobSpec::decode_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn describe_mentions_all_coordinates() {
        let s = JobSpec::two_d("gap", "train", Scale::Small, PredictorKind::Perceptron16Kb);
        let d = s.describe();
        for needle in ["gap", "train", "small", "twod", "perceptron16kb"] {
            assert!(d.contains(needle), "{d:?} lacks {needle}");
        }
    }
}
