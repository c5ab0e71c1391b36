//! The persistent on-disk result cache.
//!
//! Layout: `<root>/v<SCHEMA>/<workload>-<input>-<scale>-<kind>-<hash>.bin`.
//! Each entry is one job's output behind a small header:
//!
//! ```text
//! magic    "2DPC"                      4 bytes
//! version  u8                          currently 2
//! spec     u64 LE content hash         integrity check against key collisions
//! kind     u8                          0 = count, 1 = accuracy, 2 = 2D report,
//!                                      3 = recorded trace
//! payload  varint / profile encoding   see bpred::AccuracyProfile::write_to,
//!                                      twodprof_core::ProfileReport::write_to,
//!                                      btrace::RecordedTrace::write_to
//! checksum u64 LE FNV-1a of payload    catches bit flips structural decoding
//!                                      would otherwise swallow
//! ```
//!
//! Invalidation is by construction rather than by deletion: the schema
//! version participates in both the directory name and every content hash
//! (see [`crate::CACHE_SCHEMA_VERSION`]), so a version bump makes all old
//! entries unreachable. Corrupt or mismatched entries — a distinct
//! [`CacheLookup::Corrupt`] outcome so the engine can count recoveries —
//! are recomputed and overwritten on the next store; a cache can always be
//! deleted outright with `rm -r`.

use crate::{JobKind, JobSpec, CACHE_SCHEMA_VERSION};
use bpred::AccuracyProfile;
use btrace::{read_varint, write_varint, RecordedTrace};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use twodprof_core::ProfileReport;

const MAGIC: &[u8; 4] = b"2DPC";
const VERSION: u8 = 2;

/// One job's computed result.
///
/// Profiles and reports are behind `Arc` so cache hits can be shared with
/// experiment code without cloning `O(sites)` payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum JobOutput {
    /// Total dynamic conditional branches of the run.
    Count(u64),
    /// Per-branch accuracy profile.
    Accuracy(Arc<AccuracyProfile>),
    /// Full 2D-profiling report.
    Report(Arc<ProfileReport>),
    /// The recorded branch stream (record-once/simulate-many buffer).
    Trace(Arc<RecordedTrace>),
}

impl JobOutput {
    /// Dynamic branch events the result represents (for throughput
    /// accounting).
    pub fn events(&self) -> u64 {
        match self {
            JobOutput::Count(n) => *n,
            JobOutput::Accuracy(p) => p.total_executions(),
            JobOutput::Report(r) => r.total_branches(),
            JobOutput::Trace(t) => t.events(),
        }
    }

    fn tag(&self) -> u8 {
        match self {
            JobOutput::Count(_) => 0,
            JobOutput::Accuracy(_) => 1,
            JobOutput::Report(_) => 2,
            JobOutput::Trace(_) => 3,
        }
    }

    /// The tag an output for `kind` must carry.
    fn expected_tag(kind: JobKind) -> u8 {
        match kind {
            JobKind::BranchCount => 0,
            JobKind::Accuracy(_) => 1,
            JobKind::TwoD(_) | JobKind::TwoDSlice(..) => 2,
            JobKind::Trace => 3,
        }
    }

    /// Serializes the output's payload — the same encoding disk-cache
    /// entries carry between their header and trailing checksum, and the
    /// encoding job results cross the fabric wire in.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            JobOutput::Count(n) => write_varint(&mut payload, *n).expect("vec write"),
            JobOutput::Accuracy(p) => p.write_to(&mut payload).expect("vec write"),
            JobOutput::Report(r) => r.write_to(&mut payload).expect("vec write"),
            JobOutput::Trace(t) => t.write_to(&mut payload).expect("vec write"),
        }
        payload
    }

    /// Decodes a payload written by [`to_payload`](Self::to_payload), typed
    /// by the spec kind that produced it.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed payloads or trailing bytes;
    /// `UnexpectedEof` on truncation.
    pub fn from_payload(kind: JobKind, payload: &[u8]) -> io::Result<Self> {
        let mut p = payload;
        let output = match Self::expected_tag(kind) {
            0 => JobOutput::Count(read_varint(&mut p)?),
            1 => JobOutput::Accuracy(Arc::new(AccuracyProfile::read_from(&mut p)?)),
            3 => JobOutput::Trace(Arc::new(RecordedTrace::read_from(&mut p)?)),
            _ => JobOutput::Report(Arc::new(ProfileReport::read_from(&mut p)?)),
        };
        if !p.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes after job payload",
            ));
        }
        Ok(output)
    }
}

/// FNV-1a over a serialized payload — the checksum disk-cache entries and
/// fabric `JobResult` frames carry so receivers can verify payload bytes
/// end-to-end before decoding.
pub fn payload_checksum(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// The outcome of a cache probe (see [`DiskCache::lookup`]).
///
/// Distinguishing [`Corrupt`](Self::Corrupt) from [`Miss`](Self::Miss)
/// matters operationally: a rising corrupt count means disk trouble or a
/// torn write, while misses are just cold entries.
#[derive(Debug)]
pub enum CacheLookup {
    /// No entry on disk.
    Miss,
    /// A valid entry.
    Hit(JobOutput),
    /// An entry exists but failed validation (truncated, bit-flipped,
    /// version- or kind-mismatched). The caller recomputes and overwrites.
    Corrupt,
}

/// A directory of serialized job outputs, safe for concurrent use from many
/// worker threads (stores go through a unique temp file plus an atomic
/// rename).
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
}

impl DiskCache {
    /// Opens (creating if needed) the cache under `dir`. The schema
    /// version is a subdirectory, so caches from different schema eras
    /// coexist without interference.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let root = dir.join(format!("v{CACHE_SCHEMA_VERSION}"));
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The versioned cache directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the entry for `spec`.
    pub fn entry_path(&self, spec: &JobSpec) -> PathBuf {
        self.root.join(spec.cache_file_name())
    }

    /// Loads the cached output for `spec`, or `None` on a miss. Corrupt,
    /// truncated, or mismatched entries are misses, never errors: the
    /// worker will recompute and overwrite them.
    pub fn load(&self, spec: &JobSpec) -> Option<JobOutput> {
        match self.lookup(spec) {
            CacheLookup::Hit(output) => Some(output),
            CacheLookup::Miss | CacheLookup::Corrupt => None,
        }
    }

    /// Probes the cache for `spec`, distinguishing a cold miss from an
    /// entry that exists but fails validation. Never errors: an unreadable
    /// entry is [`CacheLookup::Corrupt`] and the caller recomputes.
    pub fn lookup(&self, spec: &JobSpec) -> CacheLookup {
        let path = self.entry_path(spec);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(_) => return CacheLookup::Corrupt,
        };
        match read_entry(&bytes, spec) {
            Ok(output) => CacheLookup::Hit(output),
            Err(_) => CacheLookup::Corrupt,
        }
    }

    /// Stores `output` as the result of `spec`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (callers typically degrade to warn-and-
    /// continue: a broken cache must not fail a sweep).
    pub fn store(&self, spec: &JobSpec, output: &JobOutput) -> io::Result<()> {
        // unique temp name per thread+spec, then atomic rename: concurrent
        // writers of the same entry race benignly (identical content)
        let tmp = self.root.join(format!(
            ".tmp-{:016x}-{:?}",
            spec.content_hash(),
            std::thread::current().id()
        ));
        // stream the entry to the file: buffering a whole entry would hold
        // a second copy of a multi-megabyte trace payload
        let written = fs::File::create(&tmp).and_then(|file| {
            let mut w = io::BufWriter::new(file);
            write_entry(&mut w, spec, output)?;
            w.flush()
        });
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        match fs::rename(&tmp, self.entry_path(spec)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// FNV-1a over the payload bytes. Not cryptographic — it guards against
/// torn writes and stray bit flips, not adversaries.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn write_entry<W: Write>(w: &mut W, spec: &JobSpec, output: &JobOutput) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    w.write_all(&spec.content_hash().to_le_bytes())?;
    w.write_all(&[output.tag()])?;
    let payload = output.to_payload();
    w.write_all(&payload)?;
    w.write_all(&fnv1a(&payload).to_le_bytes())
}

fn read_entry(bytes: &[u8], spec: &JobSpec) -> io::Result<JobOutput> {
    let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    let mut r = bytes;
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a 2DPC cache entry"));
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != VERSION {
        return Err(invalid("unsupported cache-entry version"));
    }
    let mut hash = [0u8; 8];
    r.read_exact(&mut hash)?;
    if u64::from_le_bytes(hash) != spec.content_hash() {
        return Err(invalid("cache entry is for a different spec"));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    if tag[0] != JobOutput::expected_tag(spec.kind) {
        return Err(invalid("cache entry holds a different result kind"));
    }
    // everything left is payload + trailing checksum; verify before decoding
    // so payload bit flips are caught even where decoding would succeed
    if r.len() < 8 {
        return Err(invalid("cache entry truncated before checksum"));
    }
    let (payload, checksum) = r.split_at(r.len() - 8);
    if fnv1a(payload) != u64::from_le_bytes(checksum.try_into().expect("8 bytes")) {
        return Err(invalid("cache-entry payload checksum mismatch"));
    }
    JobOutput::from_payload(spec.kind, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred::PredictorKind;
    use workloads::Scale;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("twodprof_cache_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn count_roundtrips_through_the_cache() {
        let dir = tmpdir("count");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        assert!(cache.load(&spec).is_none());
        cache.store(&spec, &JobOutput::Count(12_345)).unwrap();
        match cache.load(&spec) {
            Some(JobOutput::Count(12_345)) => {}
            other => panic!("expected Count(12345), got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("mcf", "ref", Scale::Tiny);
        cache.store(&spec, &JobOutput::Count(7)).unwrap();
        fs::write(cache.entry_path(&spec), b"garbage").unwrap();
        assert!(cache.load(&spec).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kind_mismatch_is_a_miss() {
        let dir = tmpdir("kind");
        let cache = DiskCache::open(&dir).unwrap();
        let count = JobSpec::count("gap", "train", Scale::Tiny);
        cache.store(&count, &JobOutput::Count(3)).unwrap();
        // same file, hand-rewritten to claim the accuracy spec's name
        let acc = JobSpec::accuracy("gap", "train", Scale::Tiny, PredictorKind::Gshare4Kb);
        fs::copy(cache.entry_path(&count), cache.entry_path(&acc)).unwrap();
        assert!(cache.load(&acc).is_none(), "hash check must reject");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lookup_distinguishes_miss_hit_and_corrupt() {
        let dir = tmpdir("lookup");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        assert!(matches!(cache.lookup(&spec), CacheLookup::Miss));
        cache.store(&spec, &JobOutput::Count(99)).unwrap();
        assert!(matches!(
            cache.lookup(&spec),
            CacheLookup::Hit(JobOutput::Count(99))
        ));
        // truncation
        let path = cache.entry_path(&spec);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(cache.lookup(&spec), CacheLookup::Corrupt));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let dir = tmpdir("bitflip");
        let cache = DiskCache::open(&dir).unwrap();
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        cache.store(&spec, &JobOutput::Count(1)).unwrap();
        let path = cache.entry_path(&spec);
        let clean = fs::read(&path).unwrap();
        // flip each single bit in turn; every variant must read as corrupt,
        // never as a hit with a silently different value
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.clone();
                flipped[byte] ^= 1 << bit;
                fs::write(&path, &flipped).unwrap();
                match cache.lookup(&spec) {
                    CacheLookup::Corrupt => {}
                    other => panic!("bit {bit} of byte {byte}: expected Corrupt, got {other:?}"),
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_version_partitions_the_directory() {
        let dir = tmpdir("schema");
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.root().ends_with(format!("v{CACHE_SCHEMA_VERSION}")));
        let _ = fs::remove_dir_all(&dir);
    }
}
