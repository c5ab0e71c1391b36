//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale tiny|small|full] [--out DIR] [--jobs N]
//!       [--cache-dir DIR | --no-cache] [--metrics]
//!       [--backend local|remote] [--node HOST:PORT ...] [EXPERIMENT ...]
//! repro serve [daemon options]
//! repro replay WORKLOAD INPUT [replay options]
//! repro stats [--addr HOST:PORT]
//! ```
//!
//! Experiments: `fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig10 fig11 fig12 fig13
//! fig14 fig15 fig16 table1 table2 table4 ablation bias2d predcmp`, or
//! `all` (the default); `detail <workload>` drills into one benchmark.
//!
//! `serve` and `replay` are the `twodprofd` daemon and its client (see the
//! `twodprof-serve` crate), exposed here so one binary covers the whole
//! toolchain; their options match `twodprofd --help` / `twodprof-client
//! --help`.

use experiments::registry::{self, Output, ALL, EXTRA};
use experiments::{Context, ProfileRequest, Table};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use twodprof_engine::{Engine, EngineConfig, JobBackend, JobStatus};
use twodprof_fabric::{FabricConfig, RemoteBackend};
use workloads::Scale;

#[derive(Clone, Copy, PartialEq, Eq)]
enum BackendKind {
    Local,
    Remote,
}

struct Args {
    scale: Scale,
    out: Option<PathBuf>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    metrics: bool,
    trace_out: Option<PathBuf>,
    backend: BackendKind,
    nodes: Vec<String>,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = Scale::Full;
    let mut out = None;
    let mut jobs = 0; // 0 = auto (available_parallelism)
    let mut cache_dir = Some(PathBuf::from(".twodprof-cache"));
    let mut metrics = false;
    let mut trace_out = None;
    let mut backend = BackendKind::Local;
    let mut nodes = Vec::new();
    let mut experiments = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = match v.as_str() {
                    "tiny" => Scale::Tiny,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    other => return Err(format!("unknown scale {other:?}")),
                };
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs needs a number, got {v:?}"))?;
            }
            "--cache-dir" => {
                cache_dir = Some(PathBuf::from(it.next().ok_or("--cache-dir needs a value")?));
            }
            "--no-cache" => cache_dir = None,
            "--metrics" => metrics = true,
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value")?;
                backend = match v.as_str() {
                    "local" => BackendKind::Local,
                    "remote" => BackendKind::Remote,
                    other => return Err(format!("unknown backend {other:?} (local|remote)")),
                };
            }
            "--node" => {
                nodes.push(it.next().ok_or("--node needs a HOST:PORT value")?);
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a value")?));
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: repro [--scale tiny|small|full] [--out DIR] [--jobs N]\n\
                     \x20            [--cache-dir DIR | --no-cache] [--metrics]\n\
                     \x20            [--trace-out PATH] [--backend local|remote]\n\
                     \x20            [--node HOST:PORT ...] [EXPERIMENT ...]\n\
                     --jobs 0 (default) sizes the worker pool to the machine\n\
                     results are cached in .twodprof-cache unless --no-cache\n\
                     --backend remote fans jobs out to twodprofd --compute nodes\n\
                     (one --node per daemon; results are byte-identical to local)\n\
                     --metrics dumps the process metrics snapshot to stderr at exit\n\
                     --trace-out writes the run's span trace as Chrome trace-event\n\
                     JSON (load in chrome://tracing or Perfetto)\n\
                     experiments: {} all\n\
                     drill-down: {} <workload>\n\
                     daemon: repro serve [...] / repro replay WORKLOAD INPUT [...] /\n\
                     \x20       repro stats [...]\n\
                     (see `repro serve --help`, `repro replay --help`, `repro stats --help`)",
                    ALL.join(" "),
                    EXTRA.join(" ")
                ));
            }
            "all" => experiments.extend(ALL.iter().map(|s| (*s).to_owned())),
            e if ALL.contains(&e) => experiments.push(e.to_owned()),
            "detail" => {
                let w = it.next().ok_or("detail needs a workload name")?;
                experiments.push(format!("detail:{w}"));
            }
            other => return Err(format!("unknown experiment {other:?} (try --help)")),
        }
    }
    if experiments.is_empty() {
        experiments.extend(ALL.iter().map(|s| (*s).to_owned()));
    }
    if backend == BackendKind::Remote && nodes.is_empty() {
        return Err("--backend remote needs at least one --node HOST:PORT".to_owned());
    }
    if backend == BackendKind::Local && !nodes.is_empty() {
        return Err("--node only makes sense with --backend remote".to_owned());
    }
    Ok(Args {
        scale,
        out,
        jobs,
        cache_dir,
        metrics,
        trace_out,
        backend,
        nodes,
        experiments,
    })
}

fn emit(table: &Table, name: &str, out: &Option<PathBuf>) {
    println!("{}", table.render());
    if let Some(dir) = out {
        if let Err(e) = table.write_csv(dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        }
    }
}

fn main() -> ExitCode {
    // daemon-mode dispatch: `repro serve ...` / `repro replay ...` are the
    // twodprofd daemon and its replay client under the one binary
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("serve") => {
            return match twodprof_serve::cli::serve_main(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("replay") => {
            return match twodprof_serve::cli::replay_main(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("stats") => {
            return match twodprof_serve::cli::stats_main(&raw[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("{msg}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // the root span covers engine construction through the last experiment;
    // every engine/context span nests under it in the exported timeline
    let root = args
        .trace_out
        .is_some()
        .then(|| twodprof_obs::trace::Span::root("repro.run"));
    let engine_config = EngineConfig {
        jobs: args.jobs,
        cache_dir: args.cache_dir.clone(),
        progress: true,
        ..EngineConfig::default()
    };
    // backend choice goes to stderr: every simulated table is byte-identical
    // across --jobs settings and backends (only fig16's wall-clock figure
    // carries noise)
    let mut ctx = match args.backend {
        BackendKind::Local => {
            let engine = Engine::new(engine_config);
            eprintln!("[engine] {} worker(s)", engine.worker_count());
            Context::with_engine(args.scale, engine)
        }
        BackendKind::Remote => {
            let backend = RemoteBackend::new(FabricConfig {
                nodes: args.nodes.clone(),
                fallback: engine_config,
                ..FabricConfig::default()
            });
            eprintln!("[engine] {}", backend.describe());
            Context::with_backend(args.scale, Arc::new(backend))
        }
    };
    println!(
        "# 2D-profiling reproduction — scale {:?}, {} experiment(s)\n",
        args.scale,
        args.experiments.len()
    );
    // plan-then-execute: every requested experiment names the simulations
    // it reads, their union runs as one batch on the worker pool, and the
    // experiments afterwards only hit warm memory
    let plan: Vec<ProfileRequest> = args
        .experiments
        .iter()
        .flat_map(|e| registry::plan(e, args.scale))
        .collect();
    if !plan.is_empty() {
        let start = std::time::Instant::now();
        let results = ctx.run_plan(&plan);
        let (mut computed, mut cached, mut failed) = (0usize, 0usize, 0usize);
        for r in &results {
            match &r.status {
                JobStatus::Computed => computed += 1,
                JobStatus::Cached => cached += 1,
                JobStatus::Failed(msg) => {
                    failed += 1;
                    eprintln!("[engine] job {} FAILED: {msg}", r.spec.describe());
                }
            }
        }
        eprintln!(
            "[engine] sweep of {} jobs in {:.1?}: {computed} computed · {cached} cached · {failed} failed",
            results.len(),
            start.elapsed()
        );
    }
    for e in &args.experiments {
        let start = std::time::Instant::now();
        {
            let _sp = twodprof_obs::span!(registry::span_name(e));
            for output in registry::render(&mut ctx, e, registry::FIG16_REPEATS) {
                match output {
                    Output::Table { name, table } => emit(&table, &name, &args.out),
                    Output::Note(text) => println!("{text}"),
                }
            }
        }
        eprintln!("[{e} done in {:.1?}]", start.elapsed());
    }
    if args.metrics {
        // stderr, so table/CSV output on stdout stays byte-stable
        eprint!(
            "# process metrics snapshot\n{}",
            twodprof_obs::global().snapshot().to_text()
        );
    }
    if let (Some(path), Some(root)) = (&args.trace_out, root) {
        let trace_id = root.trace();
        root.finish();
        let collector = twodprof_obs::trace::collector();
        collector.flush();
        let spans = collector.collect_trace(trace_id);
        let doc = twodprof_obs::chrome::to_json(&spans, &[(1, "repro")]);
        match std::fs::write(path, doc) {
            Ok(()) => eprintln!(
                "[repro] wrote {} span(s) of trace {:032x} to {}",
                spans.len(),
                trace_id,
                path.display()
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
