//! Raw predictor throughput on a recorded branch trace, one row per named
//! configuration (`PredictorKind::SURVEY`).

use bpred::{BranchPredictor, PredictorHost, PredictorKind};
use btrace::Trace;
use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use twodprof_bench::{bench_scale, record};

fn trace_for_bench() -> Trace {
    let w = workloads::by_name("gzip", bench_scale()).expect("gzip exists");
    record(&*w, "train")
}

/// Benchmarks the concrete predictor it is handed, so `predict_and_train`
/// inlines into the loop as it does in the engine's replay.
struct Bench<'g, 'c, 't> {
    group: &'g mut BenchmarkGroup<'c>,
    id: &'static str,
    trace: &'t Trace,
}

impl PredictorHost for Bench<'_, '_, '_> {
    type Out = ();

    fn run<P: BranchPredictor + 'static>(self, mut predictor: P) {
        let trace = self.trace;
        self.group.bench_function(self.id, |b| {
            b.iter(|| {
                predictor.reset();
                let mut correct = 0u64;
                for ev in trace.iter() {
                    let pc = bpred::site_pc(ev.site);
                    correct += (predictor.predict_and_train(pc, ev.taken) == ev.taken) as u64;
                }
                correct
            })
        });
    }
}

fn bench_predictors(c: &mut Criterion) {
    let trace = trace_for_bench();
    let mut group = c.benchmark_group("predictors");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for kind in PredictorKind::SURVEY {
        kind.host(Bench {
            group: &mut group,
            id: kind.id(),
            trace: &trace,
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predictors);
criterion_main!(benches);
