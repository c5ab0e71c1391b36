//! `twodprof-engine` — a parallel, fault-isolated sweep executor with a
//! persistent on-disk result cache.
//!
//! The paper's evaluation is a large grid: every (workload × input set ×
//! predictor) trio must be simulated to build ground truth, and every
//! figure and table re-runs subsets of that grid. Each run owns its
//! predictor state, so the grid is embarrassingly parallel across runs —
//! exactly the shape of a job scheduler. This crate turns each run into a
//! content-addressed [`JobSpec`], executes specs on a configurable worker
//! pool, persists results to a schema-versioned disk cache, and isolates
//! failures: a panicking job is caught, recorded as
//! [`JobStatus::Failed`] with its panic message, and never kills the sweep.
//!
//! Execution is trace-once/simulate-many: each (workload, input, scale)
//! trio's branch stream is recorded exactly once into a columnar
//! [`btrace::RecordedTrace`] (its own cacheable job), and every simulation
//! of that trio replays the trace through a tight decode loop instead of
//! re-executing the workload generator. Results pass through three cache
//! tiers — an in-memory memo, the disk cache, then computation — each
//! counted distinctly. Callers name work with the [`ProfileRequest`]
//! builder, which resolves to a spec and a [`TraceRef`].
//!
//! ```
//! use twodprof_engine::{Engine, EngineConfig, JobSpec};
//! use workloads::Scale;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let specs = vec![
//!     JobSpec::count("gzip", "train", Scale::Tiny),
//!     JobSpec::count("gap", "train", Scale::Tiny),
//! ];
//! let results = engine.run_jobs(&specs);
//! assert!(results.iter().all(|r| r.status.is_success()));
//! ```

mod backend;
mod bitgroup;
mod cache;
mod request;
mod spec;

pub use backend::{JobBackend, LocalBackend};
pub use cache::{payload_checksum, CacheLookup, DiskCache, JobOutput};
pub use request::{ProfileMode, ProfileRequest, TraceRef};
pub use spec::{scale_id, JobKind, JobSpec, CACHE_SCHEMA_VERSION, MAX_SPEC_NAME_LEN};

use bpred::{AccuracyProfile, BranchPredictor, PredictorHost, PredictorKind, PredictorSim};
use btrace::{CountingTracer, RecordedTrace, SiteId, Tracer};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use workloads::Scale;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for [`Engine::run_jobs`]; `0` means
    /// `std::thread::available_parallelism()`.
    pub jobs: usize,
    /// Directory of the persistent result cache; `None` disables disk
    /// caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Emit periodic progress lines on stderr during sweeps.
    pub progress: bool,
    /// Record each (workload, input, scale) branch stream once and replay
    /// it for every simulation (the default). `false` re-executes the
    /// workload generator per job — the seed behavior, kept for the
    /// `trace_replay` bench baseline and equivalence tests.
    pub replay: bool,
    /// Serve eligible fused-replay jobs from the bit-sliced lane group
    /// (transposed two-bit-counter planes, 64 lanes per word) instead of
    /// per-event scalar slots. On by default; results are bit-identical
    /// either way. The `TWODPROF_BITSLICE=off` environment variable (also
    /// `0`/`false`) disables it as an escape hatch.
    pub bitslice: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            jobs: 0,
            cache_dir: None,
            progress: false,
            replay: true,
            bitslice: bitslice_default(),
        }
    }
}

/// Reads the `TWODPROF_BITSLICE` escape hatch: any of `off`, `0`, or
/// `false` disables the bit-sliced replay path; everything else (including
/// the variable being unset) leaves it on.
fn bitslice_default() -> bool {
    !matches!(
        std::env::var("TWODPROF_BITSLICE").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// How a job's result was obtained (or lost).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Simulated by a worker in this sweep.
    Computed,
    /// Served from the disk cache without simulation.
    Cached,
    /// The job panicked; the sweep continued without it.
    Failed(String),
}

impl JobStatus {
    /// Whether the job produced a result.
    pub fn is_success(&self) -> bool {
        !matches!(self, JobStatus::Failed(_))
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The spec that ran.
    pub spec: JobSpec,
    /// How the result was obtained.
    pub status: JobStatus,
    /// The result, absent iff the job failed.
    pub output: Option<JobOutput>,
    /// Wall-clock time spent on this job (near zero for cache hits).
    pub duration: Duration,
}

impl JobResult {
    /// Dynamic branch events the job's result represents.
    pub fn events(&self) -> u64 {
        self.output.as_ref().map_or(0, JobOutput::events)
    }
}

/// Cumulative job-status counters (across every job the engine has run).
///
/// Cache tiers are counted distinctly: a job is exactly one of `memo`
/// (in-memory hit), `cached` (disk hit), `computed`, or `failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Jobs simulated by a worker.
    pub computed: u64,
    /// Jobs served from the disk cache.
    pub cached: u64,
    /// Jobs served from the in-memory memo (no disk probe, no simulation).
    pub memo: u64,
    /// Jobs that panicked.
    pub failed: u64,
    /// Corrupt cache entries recovered by recomputation (each such job is
    /// also counted in `computed`).
    pub corrupt: u64,
    /// Dynamic branch events across computed jobs.
    pub events: u64,
    /// Branch streams recorded from a live workload run (each one feeds
    /// every simulation of its (workload, input, scale) trio).
    pub traces_recorded: u64,
    /// Simulations served by replaying a recorded trace instead of
    /// re-executing the workload.
    pub replays: u64,
    /// Replayed simulations served by the bit-sliced lane group (each such
    /// job is also counted in `replays`).
    pub bitsliced: u64,
}

impl EngineCounters {
    /// Total jobs accounted for.
    pub fn total(&self) -> u64 {
        self.computed + self.cached + self.memo + self.failed
    }
}

/// The sweep executor. Cheap to share by reference across threads; all
/// mutability is internal.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: Option<DiskCache>,
    progress: bool,
    replay: bool,
    bitslice: bool,
    counters: Mutex<EngineCounters>,
    /// In-memory read-through memo of every finished job, keyed by
    /// [`JobSpec::content_hash`]. Outputs are `Arc`-backed, so a memo hit
    /// costs a reference count.
    memo: Mutex<HashMap<u64, JobOutput>>,
}

impl Engine {
    /// Creates an engine. An unusable cache directory degrades to
    /// cache-less operation with a warning — a broken cache must never
    /// fail a sweep.
    pub fn new(config: EngineConfig) -> Self {
        let cache = config.cache_dir.as_ref().and_then(|dir| {
            DiskCache::open(dir)
                .map_err(|e| {
                    eprintln!(
                        "[engine] warning: cache at {} unusable ({e}); running uncached",
                        dir.display()
                    )
                })
                .ok()
        });
        Self {
            jobs: config.jobs,
            cache,
            progress: config.progress,
            replay: config.replay,
            bitslice: config.bitslice,
            counters: Mutex::new(EngineCounters::default()),
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The number of worker threads a sweep will use.
    pub fn worker_count(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }

    /// Whether a disk cache is attached.
    pub fn has_cache(&self) -> bool {
        self.cache.is_some()
    }

    /// Cumulative status counters over the engine's lifetime.
    pub fn counters(&self) -> EngineCounters {
        *self.counters.lock().expect("counter lock")
    }

    /// Runs one job on the calling thread: in-memory memo lookup, then
    /// disk-cache lookup, then fault-isolated execution, then write-back.
    /// Each tier is counted distinctly (memo hits never reach the disk
    /// probe, so they can no longer inflate the miss counter).
    pub fn run_one(&self, spec: &JobSpec) -> JobResult {
        let _sp = twodprof_obs::span!("engine.job");
        let start = Instant::now();
        if let Some(hit) = self.probe(spec, start) {
            return hit;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| self.execute(spec)));
        self.settle(spec, outcome, start.elapsed())
    }

    /// The lookup tiers of [`run_one`](Self::run_one): the in-memory memo,
    /// then the disk cache. Returns the cached result on a hit; on a miss
    /// (or a corrupt disk entry) counts the outcome and returns `None`, and
    /// the caller computes.
    fn probe(&self, spec: &JobSpec, start: Instant) -> Option<JobResult> {
        let _sp = twodprof_obs::span!("engine.probe");
        twodprof_obs::counter!("engine_jobs_total", "Jobs the engine has run.").inc();
        if let Some(output) = self
            .memo
            .lock()
            .expect("memo lock")
            .get(&spec.content_hash())
            .cloned()
        {
            self.bump(|c| c.memo += 1);
            twodprof_obs::counter!(
                "engine_cache_memo_hits_total",
                "Jobs served from the in-memory memo."
            )
            .inc();
            return Some(JobResult {
                spec: spec.clone(),
                status: JobStatus::Cached,
                output: Some(output),
                duration: start.elapsed(),
            });
        }
        match self
            .cache
            .as_ref()
            .map_or(CacheLookup::Miss, |c| c.lookup(spec))
        {
            CacheLookup::Hit(output) => {
                self.bump(|c| c.cached += 1);
                twodprof_obs::counter!(
                    "engine_cache_hits_total",
                    "Jobs served from the disk cache."
                )
                .inc();
                self.memoize(spec, &output);
                return Some(JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Cached,
                    output: Some(output),
                    duration: start.elapsed(),
                });
            }
            CacheLookup::Corrupt => {
                self.bump(|c| c.corrupt += 1);
                twodprof_obs::counter!(
                    "engine_cache_corrupt_total",
                    "Corrupt cache entries recovered by recomputation."
                )
                .inc();
                eprintln!(
                    "[engine] warning: corrupt cache entry for {}; recomputing",
                    spec.describe()
                );
            }
            CacheLookup::Miss => {
                if self.cache.is_some() {
                    twodprof_obs::counter!(
                        "engine_cache_misses_total",
                        "Cache probes that found no entry in any tier."
                    )
                    .inc();
                }
            }
        }
        None
    }

    /// Records the outcome of a computed job — caching, memoizing, and
    /// counting on success; isolating the panic as [`JobStatus::Failed`]
    /// otherwise. The shared tail of [`run_one`](Self::run_one) and the
    /// fused fan-out path.
    fn settle(
        &self,
        spec: &JobSpec,
        outcome: std::thread::Result<JobOutput>,
        duration: Duration,
    ) -> JobResult {
        match outcome {
            Ok(output) => {
                if let Some(cache) = &self.cache {
                    let _sp = twodprof_obs::span!("engine.cache_write");
                    if let Err(e) = cache.store(spec, &output) {
                        eprintln!(
                            "[engine] warning: failed to cache {} ({e})",
                            spec.describe()
                        );
                    }
                }
                self.memoize(spec, &output);
                self.bump(|c| {
                    c.computed += 1;
                    c.events += output.events();
                });
                twodprof_obs::counter!(
                    "engine_events_total",
                    "Dynamic branch events across computed jobs."
                )
                .add(output.events());
                twodprof_obs::histogram!(
                    "engine_job_micros",
                    "Wall time per computed job, in microseconds."
                )
                .observe_duration(duration);
                JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Computed,
                    output: Some(output),
                    duration,
                }
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                self.bump(|c| c.failed += 1);
                twodprof_obs::counter!(
                    "engine_jobs_failed_total",
                    "Jobs that panicked (isolated; the sweep continued)."
                )
                .inc();
                JobResult {
                    spec: spec.clone(),
                    status: JobStatus::Failed(message),
                    output: None,
                    duration,
                }
            }
        }
    }

    /// Runs a batch of jobs on the worker pool and returns results in spec
    /// order. Failures are isolated per job; the returned vector always has
    /// one entry per spec.
    ///
    /// In replay mode this is two-stage: stage one records the deduplicated
    /// set of (workload, input, scale) traces the batch needs — each exactly
    /// once — and stage two fans the simulations out against those traces.
    /// Simulations that share a trace are *fused*: the worker decodes the
    /// recorded stream once and feeds every simulation per event, so a
    /// K-predictor sweep pays one generation and one decode per trace
    /// instead of K of each. Fused units start largest first, so a heavily
    /// loaded trace cannot start last and leave the rest of the pool idle
    /// at the end of the sweep. After the batch, recorded traces are dropped
    /// from the in-memory memo (the disk cache keeps them) so sweep memory
    /// stays bounded at Full scale.
    pub fn run_jobs(&self, specs: &[JobSpec]) -> Vec<JobResult> {
        if !self.replay {
            let units = (0..specs.len()).map(Unit::Single).collect();
            return self.run_pool(specs, units);
        }
        // only jobs whose results aren't already memoized need a trace;
        // without this filter a repeated sweep would re-record streams the
        // post-sweep memo release dropped, violating record-exactly-once
        let mut seen = HashSet::new();
        let trace_specs: Vec<JobSpec> = specs
            .iter()
            .filter(|s| s.kind != JobKind::Trace && !self.memoized(s))
            .map(|s| TraceRef::of_spec(s).spec())
            .filter(|t| seen.insert(t.content_hash()))
            .collect();
        let trace_units = (0..trace_specs.len()).map(Unit::Single).collect();
        self.run_pool(&trace_specs, trace_units);

        // fuse the simulations of each trace into one work unit; counts
        // (served from the trace header), trace jobs, and memoized results
        // stay singles — their replay path is O(1)
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut singles: Vec<Unit> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let fusible = matches!(
                spec.kind,
                JobKind::Accuracy(_) | JobKind::TwoD(_) | JobKind::TwoDSlice(..)
            ) && !self.memoized(spec);
            if fusible {
                groups
                    .entry(TraceRef::of_spec(spec).spec().content_hash())
                    .or_default()
                    .push(i);
            } else {
                singles.push(Unit::Single(i));
            }
        }
        // longest first, estimated as events × simulations, so the last
        // units to start are short ones and the workers finish together
        let mut fused: Vec<(u64, Vec<usize>)> = groups
            .into_iter()
            .map(|(trace_key, idxs)| (self.memo_trace_events(trace_key) * idxs.len() as u64, idxs))
            .collect();
        fused.sort_by_key(|(cost, idxs)| (std::cmp::Reverse(*cost), idxs[0]));
        let units = fused
            .into_iter()
            .map(|(_, idxs)| Unit::Fused(idxs))
            .chain(singles)
            .collect();
        let results = self.run_pool(specs, units);
        self.release_traces();
        results
    }

    /// Retrieves (recording on demand, through every cache tier) the
    /// recorded branch stream of one (workload, input, scale) trio.
    ///
    /// # Panics
    ///
    /// Panics if the recording job fails — inside a sweep the panic is
    /// caught by the enclosing job's fault isolation.
    pub fn trace(&self, tref: &TraceRef) -> Arc<RecordedTrace> {
        match self.run_one(&tref.spec()).output {
            Some(JobOutput::Trace(trace)) => trace,
            _ => panic!(
                "trace recording failed for {}/{} @{}",
                tref.workload,
                tref.input,
                scale_id(tref.scale)
            ),
        }
    }

    /// Drops recorded traces from the in-memory memo; the disk cache (when
    /// attached) still holds them for later sweeps. [`run_jobs`]
    /// (Self::run_jobs) calls this after every batch; long-lived hosts that
    /// drive [`run_one`](Self::run_one) directly (the daemon compute
    /// service) call it when their queue drains so resident memory stays
    /// bounded.
    pub fn release_traces(&self) {
        self.memo
            .lock()
            .expect("memo lock")
            .retain(|_, output| !matches!(output, JobOutput::Trace(_)));
    }

    /// Probes the in-memory memo and the disk cache for a finished result
    /// without computing, memoizing, or touching the engine's job counters
    /// — the side-effect-free lookup the daemon's shared-cache-tier
    /// `CacheQuery` path needs. Corrupt disk entries read as misses.
    pub fn peek(&self, spec: &JobSpec) -> Option<JobOutput> {
        if let Some(output) = self
            .memo
            .lock()
            .expect("memo lock")
            .get(&spec.content_hash())
            .cloned()
        {
            return Some(output);
        }
        self.cache.as_ref().and_then(|c| c.load(spec))
    }

    /// Runs `units` of work over `specs` on the worker pool and returns one
    /// result per spec, in spec order. Every spec index must appear in
    /// exactly one unit.
    fn run_pool(&self, specs: &[JobSpec], units: Vec<Unit>) -> Vec<JobResult> {
        let total = specs.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.worker_count().min(units.len());
        let queue_depth = twodprof_obs::gauge!(
            "engine_queue_depth",
            "Jobs admitted to the worker pool but not yet finished."
        );
        queue_depth.add(total as i64);
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let computed_events = AtomicU64::new(0);
        let slots: Vec<Mutex<Option<JobResult>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let sweep_start = Instant::now();
        // progress cadence: ~10 lines per sweep, and always the final one
        let step = (total / 10).max(1);
        let units = &units;
        // carry the caller's trace context onto every worker thread, so job
        // spans nest under the request span that scheduled the batch
        let trace_ctx = twodprof_obs::trace::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _g = trace_ctx
                        .is_active()
                        .then(|| twodprof_obs::trace::attach(trace_ctx));
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= units.len() {
                            break;
                        }
                        let produced: Vec<(usize, JobResult)> = match &units[u] {
                            Unit::Single(i) => vec![(*i, self.run_one(&specs[*i]))],
                            Unit::Fused(idxs) => self.run_group(specs, idxs),
                        };
                        for (i, result) in produced {
                            if matches!(result.status, JobStatus::Computed) {
                                computed_events.fetch_add(result.events(), Ordering::Relaxed);
                            }
                            *slots[i].lock().expect("result slot") = Some(result);
                            queue_depth.sub(1);
                            let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                            if self.progress && (finished.is_multiple_of(step) || finished == total)
                            {
                                self.print_progress(
                                    finished,
                                    total,
                                    computed_events.load(Ordering::Relaxed),
                                    sweep_start.elapsed(),
                                );
                            }
                        }
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Executes one fused group — simulation jobs that replay the same
    /// recorded trace — by decoding the stream once and feeding every
    /// simulation per event. Cache tiers are probed per job first, so a
    /// disk-cached simulation is never recomputed; failures (an unknown
    /// workload surfaces when the trace recording job panicked) fail the
    /// whole group, the same jobs that would fail one at a time.
    fn run_group(&self, specs: &[JobSpec], idxs: &[usize]) -> Vec<(usize, JobResult)> {
        let start = Instant::now();
        let mut out = Vec::with_capacity(idxs.len());
        let mut pending: Vec<usize> = Vec::new();
        for &i in idxs {
            match self.probe(&specs[i], start) {
                Some(hit) => out.push((i, hit)),
                None => pending.push(i),
            }
        }
        if pending.is_empty() {
            return out;
        }
        match catch_unwind(AssertUnwindSafe(|| self.fan_out(specs, &pending))) {
            Ok(outputs) => {
                // the decode pass is shared; attribute an equal share of the
                // group's wall time to each job it served
                let share = start.elapsed() / pending.len() as u32;
                for (&i, output) in pending.iter().zip(outputs) {
                    out.push((i, self.settle(&specs[i], Ok(output), share)));
                }
            }
            Err(payload) => {
                let elapsed = start.elapsed();
                for &i in &pending {
                    // re-box the message so each job settles independently
                    let msg: Box<dyn std::any::Any + Send> =
                        Box::new(panic_message(payload.as_ref()));
                    out.push((i, self.settle(&specs[i], Err(msg), elapsed)));
                }
            }
        }
        out
    }

    /// The fused replay loop: one [`RecordedTrace`] decode pass per lane
    /// family. Jobs whose predictor kind has a bit-sliced lane (and the
    /// engine has bit-slicing enabled) are served by the shared lane group
    /// in [`bitgroup`]; the rest are seated in per-event scalar slots fed
    /// by a second decode pass. Outputs come back in `pending` order.
    fn fan_out(&self, specs: &[JobSpec], pending: &[usize]) -> Vec<JobOutput> {
        let trace = self.trace(&TraceRef::of_spec(&specs[pending[0]]));
        let mut sliced: Vec<usize> = Vec::new(); // positions within `pending`
        let mut scalar: Vec<usize> = Vec::new();
        for (p, &i) in pending.iter().enumerate() {
            let lane_kind = match specs[i].kind {
                JobKind::Accuracy(kind) | JobKind::TwoD(kind) => Some(kind),
                // the lane group shares one auto slice configuration across
                // its 2D jobs, so a slice override takes a scalar slot
                JobKind::TwoDSlice(..) => None,
                _ => unreachable!("only simulation jobs are fused"),
            };
            if self.bitslice && lane_kind.is_some_and(bpred::bitslice::eligible) {
                sliced.push(p);
            } else {
                scalar.push(p);
            }
        }
        // A lane group exists to share one run decode across many jobs; a
        // lone eligible job gains nothing from it, so keep it on the
        // scalar slot path alongside everything else.
        if sliced.len() < 2 {
            scalar.append(&mut sliced);
            scalar.sort_unstable();
        }
        let mut outputs: Vec<Option<JobOutput>> = pending.iter().map(|_| None).collect();
        if !sliced.is_empty() {
            let jobs: Vec<bitgroup::LaneJob> = sliced
                .iter()
                .map(|&p| match specs[pending[p]].kind {
                    JobKind::Accuracy(kind) => bitgroup::LaneJob { kind, twod: false },
                    JobKind::TwoD(kind) => bitgroup::LaneJob { kind, twod: true },
                    _ => unreachable!("only simulation jobs are fused"),
                })
                .collect();
            for (&p, output) in sliced.iter().zip(bitgroup::run_lane_group(&trace, &jobs)) {
                self.note_replay();
                self.bump(|c| c.bitsliced += 1);
                twodprof_obs::counter!(
                    "engine_bitslice_jobs_total",
                    "Replayed simulations served by the bit-sliced lane group."
                )
                .inc();
                outputs[p] = Some(output);
            }
        }
        if !scalar.is_empty() {
            let mut slots: Vec<Box<dyn SimSlot>> = scalar
                .iter()
                .map(|&p| match specs[pending[p]].kind {
                    JobKind::Accuracy(kind) => kind.host(AccSlotHost {
                        num_sites: trace.num_sites(),
                    }),
                    JobKind::TwoD(kind) | JobKind::TwoDSlice(kind, _) => kind.host(TwoDSlotHost {
                        num_sites: trace.num_sites(),
                        config: slice_config(specs[pending[p]].kind, trace.events()),
                    }),
                    _ => unreachable!("only simulation jobs are fused"),
                })
                .collect();
            let mut fan = FanOut::new(&mut slots);
            {
                let _sp = twodprof_obs::span!("engine.decode");
                trace.replay_into(&mut fan);
                fan.flush();
            }
            drop(fan);
            for (&p, slot) in scalar.iter().zip(slots) {
                self.note_replay();
                outputs[p] = Some(slot.finish());
            }
        }
        outputs
            .into_iter()
            .map(|o| o.expect("every pending job served"))
            .collect()
    }

    /// Dynamic branch events of a trace in the memo, by the content hash
    /// of its trace job (0 when it is not in memory).
    fn memo_trace_events(&self, trace_key: u64) -> u64 {
        match self.memo.lock().expect("memo lock").get(&trace_key) {
            Some(JobOutput::Trace(trace)) => trace.events(),
            _ => 0,
        }
    }

    fn print_progress(&self, done: usize, total: usize, events: u64, elapsed: Duration) {
        let c = self.counters();
        let rate = events as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6;
        eprintln!(
            "[engine] {done}/{total} jobs · {} computed · {} cached · {} failed · {rate:.1} Mevents/s",
            c.computed, c.cached, c.failed
        );
    }

    fn bump(&self, f: impl FnOnce(&mut EngineCounters)) {
        f(&mut self.counters.lock().expect("counter lock"));
    }

    /// Whether the memo already holds the spec's result.
    fn memoized(&self, spec: &JobSpec) -> bool {
        self.memo
            .lock()
            .expect("memo lock")
            .contains_key(&spec.content_hash())
    }

    /// Inserts a finished job's output into the in-memory memo. Outputs are
    /// `Arc`-backed, so this clones a reference count, not the payload.
    fn memoize(&self, spec: &JobSpec, output: &JobOutput) {
        self.memo
            .lock()
            .expect("memo lock")
            .insert(spec.content_hash(), output.clone());
    }

    /// Executes a spec on the calling thread. Panics (caught by
    /// [`run_one`](Self::run_one)) on unknown workloads or inputs — the
    /// same contract the experiment context had.
    fn execute(&self, spec: &JobSpec) -> JobOutput {
        if spec.kind == JobKind::Trace {
            return self.record(spec);
        }
        if self.replay {
            self.execute_replay(spec)
        } else {
            self.execute_live(spec)
        }
    }

    /// Records the branch stream of the spec's (workload, input, scale)
    /// trio by running the workload once into a [`RecordedTrace`].
    fn record(&self, spec: &JobSpec) -> JobOutput {
        let _sp = twodprof_obs::span!("engine.record");
        let (workload, input) = resolve(spec);
        let mut trace = RecordedTrace::new(workload.sites().len());
        workload.run(&input, &mut trace);
        self.bump(|c| c.traces_recorded += 1);
        twodprof_obs::counter!(
            "trace_record_total",
            "Branch streams recorded from live workload runs."
        )
        .inc();
        JobOutput::Trace(Arc::new(trace))
    }

    /// Serves a simulation by replaying the trio's recorded trace instead
    /// of re-executing the workload. The trace carries the site-table size
    /// and the event count, so the slice configuration resolves without a
    /// nested branch-count job — and because a workload's branch stream
    /// cannot depend on which tracer observes it, replayed results are
    /// byte-identical to live ones.
    fn execute_replay(&self, spec: &JobSpec) -> JobOutput {
        let trace = self.trace(&TraceRef::of_spec(spec));
        let _sp = twodprof_obs::span!("engine.replay");
        match spec.kind {
            JobKind::BranchCount => JobOutput::Count(trace.events()),
            JobKind::Accuracy(kind) => {
                let profile = kind.host(AccuracyReplay(&trace));
                self.note_replay();
                JobOutput::Accuracy(profile.into())
            }
            JobKind::TwoD(kind) | JobKind::TwoDSlice(kind, _) => {
                let report = kind.host(TwoDReplay {
                    trace: &trace,
                    config: slice_config(spec.kind, trace.events()),
                });
                self.note_replay();
                JobOutput::Report(report.into())
            }
            JobKind::Trace => unreachable!("trace jobs record, never replay"),
        }
    }

    fn note_replay(&self) {
        self.bump(|c| c.replays += 1);
        twodprof_obs::counter!(
            "trace_replay_total",
            "Simulations served by replaying a recorded trace."
        )
        .inc();
    }

    /// The seed execution path: re-run the workload generator per job.
    /// Kept for the `trace_replay` bench baseline and equivalence tests.
    fn execute_live(&self, spec: &JobSpec) -> JobOutput {
        let (workload, input) = resolve(spec);
        match spec.kind {
            JobKind::BranchCount => {
                let mut tracer = CountingTracer::new();
                workload.run(&input, &mut tracer);
                JobOutput::Count(tracer.count())
            }
            JobKind::Accuracy(kind) => {
                let mut sim = PredictorSim::new(workload.sites().len(), kind.build());
                workload.run(&input, &mut sim);
                JobOutput::Accuracy(sim.into_profile().into())
            }
            JobKind::TwoD(kind) => {
                // the auto slice configuration needs the run length; resolve
                // it as its own job so the count lands in the cache too
                let count_spec = JobSpec {
                    kind: JobKind::BranchCount,
                    ..spec.clone()
                };
                let total = match self.run_one(&count_spec).output {
                    Some(JobOutput::Count(n)) => n,
                    _ => panic!("branch-count job failed for {}", spec.describe()),
                };
                let mut profiler = TwoDProfiler::new(
                    workload.sites().len(),
                    kind.build(),
                    SliceConfig::auto(total),
                );
                workload.run(&input, &mut profiler);
                JobOutput::Report(profiler.finish(Thresholds::paper()).into())
            }
            JobKind::TwoDSlice(kind, len) => {
                let mut profiler = TwoDProfiler::new(
                    workload.sites().len(),
                    kind.build(),
                    SliceConfig::for_len(len),
                );
                workload.run(&input, &mut profiler);
                JobOutput::Report(profiler.finish(Thresholds::paper()).into())
            }
            JobKind::Trace => unreachable!("trace jobs are handled by record()"),
        }
    }
}

/// Resolves a spec's workload and input set from the registry, panicking
/// (caught by job fault isolation) when either name is unknown.
fn resolve(spec: &JobSpec) -> (Box<dyn workloads::Workload>, workloads::InputSet) {
    let workload = workloads::by_name(&spec.workload, spec.scale)
        .unwrap_or_else(|| panic!("unknown workload {:?}", spec.workload));
    let input = workload
        .input_set(&spec.input)
        .unwrap_or_else(|| panic!("{} lacks input {:?}", workload.name(), spec.input));
    (workload, input)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The slice configuration of a 2D job over a run of `events` dynamic
/// branches: the auto-scaled one, or the job's slice-length override.
fn slice_config(kind: JobKind, events: u64) -> SliceConfig {
    match kind {
        JobKind::TwoDSlice(_, len) => SliceConfig::for_len(len),
        _ => SliceConfig::auto(events),
    }
}

/// One schedulable piece of work in [`Engine::run_jobs`]: either a single
/// spec (runs through [`Engine::run_one`]) or a fused group of simulation
/// specs sharing one recorded trace (runs through [`Engine::run_group`]).
/// Indices refer to the batch's spec slice.
enum Unit {
    Single(usize),
    Fused(Vec<usize>),
}

/// Events per fused-replay chunk. Sized so the chunk buffer (8 bytes per
/// event) stays within half an L1 data cache while still amortizing one
/// virtual `run_chunk` call per simulation across thousands of events.
const FAN_CHUNK: usize = 2048;

/// A type-erased simulation being fed by the fused replay fan-out. Built
/// through [`PredictorKind::host`], so the predictor inside is concrete:
/// `run_chunk` is a monomorphic decode-free loop, entered through one
/// virtual call per chunk rather than per event. Chunking also
/// cache-blocks the fan-out — each simulation streams through a chunk with
/// its own predictor tables hot instead of evicting them on every event as
/// a per-event round-robin over all seated simulations would.
trait SimSlot: Send {
    fn run_chunk(&mut self, events: &[(SiteId, bool)]);
    fn finish(self: Box<Self>) -> JobOutput;
}

struct AccSlot<P>(PredictorSim<P>);

impl<P: BranchPredictor + 'static> SimSlot for AccSlot<P> {
    fn run_chunk(&mut self, events: &[(SiteId, bool)]) {
        for &(site, taken) in events {
            Tracer::branch(&mut self.0, site, taken);
        }
    }
    fn finish(self: Box<Self>) -> JobOutput {
        JobOutput::Accuracy(self.0.into_profile().into())
    }
}

struct TwoDSlot<P>(TwoDProfiler<P>);

impl<P: BranchPredictor + 'static> SimSlot for TwoDSlot<P> {
    fn run_chunk(&mut self, events: &[(SiteId, bool)]) {
        for &(site, taken) in events {
            Tracer::branch(&mut self.0, site, taken);
        }
    }
    fn finish(self: Box<Self>) -> JobOutput {
        JobOutput::Report(self.0.finish(Thresholds::paper()).into())
    }
}

/// [`PredictorHost`] that seats an accuracy simulation in a fused-replay
/// slot.
struct AccSlotHost {
    num_sites: usize,
}

impl PredictorHost for AccSlotHost {
    type Out = Box<dyn SimSlot>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        Box::new(AccSlot(PredictorSim::new(self.num_sites, predictor)))
    }
}

/// [`PredictorHost`] that seats a 2D-profiling simulation in a fused-replay
/// slot.
struct TwoDSlotHost {
    num_sites: usize,
    config: SliceConfig,
}

impl PredictorHost for TwoDSlotHost {
    type Out = Box<dyn SimSlot>;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        Box::new(TwoDSlot(TwoDProfiler::new(
            self.num_sites,
            predictor,
            self.config,
        )))
    }
}

/// The fused decode target: buffers replayed events and hands each full
/// chunk to every seated simulation in turn. The final partial chunk is
/// delivered by [`FanOut::flush`], which the fused runner calls after the
/// decode pass.
struct FanOut<'a> {
    slots: &'a mut [Box<dyn SimSlot>],
    buf: Vec<(SiteId, bool)>,
}

impl<'a> FanOut<'a> {
    fn new(slots: &'a mut [Box<dyn SimSlot>]) -> Self {
        Self {
            slots,
            buf: Vec::with_capacity(FAN_CHUNK),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let _sp = twodprof_obs::span!("engine.fused_chunk");
        for slot in self.slots.iter_mut() {
            slot.run_chunk(&self.buf);
        }
        self.buf.clear();
    }
}

impl Tracer for FanOut<'_> {
    #[inline]
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.buf.push((site, taken));
        if self.buf.len() == FAN_CHUNK {
            self.flush();
        }
    }
}

/// [`PredictorHost`] that replays a recorded trace through an accuracy
/// simulation. Dispatching via [`PredictorKind::host`] monomorphizes the
/// decode + simulate loop per concrete predictor — no virtual call per
/// dynamic branch, unlike the live path where the workload generator only
/// sees `&mut dyn Tracer`.
struct AccuracyReplay<'a>(&'a RecordedTrace);

impl PredictorHost for AccuracyReplay<'_> {
    type Out = AccuracyProfile;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        let mut sim = PredictorSim::new(self.0.num_sites(), predictor);
        self.0.replay_into(&mut sim);
        sim.into_profile()
    }
}

/// [`PredictorHost`] twin of [`AccuracyReplay`] for 2D-profiling jobs.
struct TwoDReplay<'a> {
    trace: &'a RecordedTrace,
    config: SliceConfig,
}

impl PredictorHost for TwoDReplay<'_> {
    type Out = twodprof_core::ProfileReport;

    fn run<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Out {
        let mut profiler = TwoDProfiler::new(self.trace.num_sites(), predictor, self.config);
        self.trace.replay_into(&mut profiler);
        profiler.finish(Thresholds::paper())
    }
}

/// Enumerates the full evaluation grid at `scale`: for every workload and
/// every input set, a branch count and an accuracy profile under each
/// evaluation predictor, plus one 2D-profiling run per (workload,
/// predictor) on the `train` input — the superset of simulations the
/// paper's figures and tables consume.
pub fn full_grid(scale: Scale) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for workload in workloads::suite(scale) {
        let name = workload.name();
        for input in workload.input_sets() {
            specs.push(JobSpec::count(name, input.name, scale));
            for kind in PredictorKind::ALL {
                specs.push(JobSpec::accuracy(name, input.name, scale, kind));
            }
        }
        for kind in PredictorKind::ALL {
            specs.push(JobSpec::two_d(name, "train", scale, kind));
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_workload_and_kind() {
        let specs = full_grid(Scale::Tiny);
        let workload_count = workloads::suite(Scale::Tiny).len();
        assert!(specs.len() > workload_count * 5);
        for workload in workloads::suite(Scale::Tiny) {
            for kind in [
                JobKind::BranchCount,
                JobKind::Accuracy(PredictorKind::Gshare4Kb),
                JobKind::TwoD(PredictorKind::Perceptron16Kb),
            ] {
                assert!(
                    specs
                        .iter()
                        .any(|s| s.workload == workload.name() && s.kind == kind),
                    "{} lacks {kind:?}",
                    workload.name()
                );
            }
        }
        // no duplicate specs in the grid
        let mut keys: Vec<u64> = specs.iter().map(JobSpec::content_hash).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }

    #[test]
    fn worker_count_defaults_to_parallelism() {
        let default = Engine::new(EngineConfig::default());
        assert!(default.worker_count() >= 1);
        let fixed = Engine::new(EngineConfig {
            jobs: 3,
            ..EngineConfig::default()
        });
        assert_eq!(fixed.worker_count(), 3);
        assert!(!fixed.has_cache());
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        engine.run_one(&spec); // computes the trace job, then the count job
        engine.run_one(&spec); // served from the in-memory memo
        let c = engine.counters();
        assert_eq!(c.computed, 2);
        assert_eq!(c.memo, 1);
        assert_eq!(c.cached, 0);
        assert_eq!(c.traces_recorded, 1);
        assert!(c.events > 0);
    }

    #[test]
    fn live_mode_counts_like_the_seed() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            replay: false,
            ..EngineConfig::default()
        });
        let spec = JobSpec::count("gzip", "train", Scale::Tiny);
        engine.run_one(&spec);
        engine.run_one(&spec); // memoed, not recomputed
        let c = engine.counters();
        assert_eq!(c.computed, 1);
        assert_eq!(c.memo, 1);
        assert_eq!(c.traces_recorded, 0);
        assert_eq!(c.replays, 0);
    }

    #[test]
    fn run_jobs_records_each_trace_once_and_releases_memo() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let specs = vec![
            JobSpec::count("gzip", "train", Scale::Tiny),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Perceptron16Kb),
            JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
        ];
        let results = engine.run_jobs(&specs);
        assert!(results.iter().all(|r| r.status.is_success()));
        let c = engine.counters();
        assert_eq!(c.traces_recorded, 1, "one trio, one recording");
        assert_eq!(c.replays, 3, "two accuracy sims plus one 2D profile");
        // after the sweep the memo keeps results but not traces
        let memo = engine.memo.lock().expect("memo lock");
        assert!(!memo.is_empty());
        assert!(memo
            .values()
            .all(|output| !matches!(output, JobOutput::Trace(_))));
    }

    #[test]
    fn fused_fanout_matches_live_execution_for_every_survey_kind() {
        let mut specs = vec![JobSpec::count("gzip", "train", Scale::Tiny)];
        for kind in PredictorKind::SURVEY {
            specs.push(JobSpec::accuracy("gzip", "train", Scale::Tiny, kind));
            specs.push(JobSpec::two_d("gzip", "train", Scale::Tiny, kind));
        }
        let fused = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let live = Engine::new(EngineConfig {
            jobs: 2,
            replay: false,
            ..EngineConfig::default()
        });
        let a = fused.run_jobs(&specs);
        let b = live.run_jobs(&specs);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.status.is_success() && y.status.is_success());
            assert_eq!(
                x.output,
                y.output,
                "{} diverged between fused replay and live",
                x.spec.describe()
            );
        }
        let c = fused.counters();
        assert_eq!(c.traces_recorded, 1, "one shared trace for the batch");
        assert_eq!(
            c.replays as usize,
            specs.len() - 1,
            "every simulation was served from the fused replay"
        );
    }

    #[test]
    fn slice_overrides_fuse_on_scalar_slots_and_match_live() {
        let specs = vec![
            JobSpec::accuracy("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::two_d("gzip", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::two_d_slice(
                "gzip",
                "train",
                Scale::Tiny,
                PredictorKind::Gshare4Kb,
                2_000,
            ),
            JobSpec::two_d_slice(
                "gzip",
                "train",
                Scale::Tiny,
                PredictorKind::Gshare4Kb,
                32_000,
            ),
        ];
        let fused = Engine::new(EngineConfig {
            jobs: 2,
            bitslice: true,
            ..EngineConfig::default()
        });
        let live = Engine::new(EngineConfig {
            jobs: 2,
            replay: false,
            ..EngineConfig::default()
        });
        let a = fused.run_jobs(&specs);
        let b = live.run_jobs(&specs);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.status.is_success() && y.status.is_success());
            assert_eq!(x.output, y.output, "{} diverged", x.spec.describe());
        }
        let c = fused.counters();
        assert_eq!(c.traces_recorded, 1, "the overrides share the trace");
        assert_eq!(c.replays, 4);
        assert_eq!(c.bitsliced, 2, "only the auto-sliced jobs take lanes");
        let slices = |r: &JobResult| match &r.output {
            Some(JobOutput::Report(report)) => report.total_slices(),
            other => panic!("not a report: {other:?}"),
        };
        let events = a[0].events();
        assert_eq!(slices(&a[2]), events.div_ceil(2_000));
        assert_eq!(slices(&a[3]), events.div_ceil(32_000));
    }

    #[test]
    fn replay_results_match_live_execution() {
        let replayed = Engine::new(EngineConfig::default());
        let live = Engine::new(EngineConfig {
            replay: false,
            ..EngineConfig::default()
        });
        for spec in [
            JobSpec::count("mcf", "train", Scale::Tiny),
            JobSpec::accuracy("mcf", "train", Scale::Tiny, PredictorKind::Gshare4Kb),
            JobSpec::two_d("mcf", "train", Scale::Tiny, PredictorKind::Perceptron16Kb),
        ] {
            let a = replayed.run_one(&spec).output.expect("replay output");
            let b = live.run_one(&spec).output.expect("live output");
            assert_eq!(a, b, "{} diverged between replay and live", spec.describe());
        }
    }
}
