//! End-to-end engine throughput over a small shared corpus — the relative
//! costs behind the paper's ThroughputRatio comparison, isolated from the
//! disk model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mhd_bench::{run_engine, scaled_config, EngineKind};
use mhd_workload::{Corpus, CorpusSpec};
use std::hint::black_box;

fn bench_engines(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusSpec {
        seed: 3,
        machines: 4,
        snapshots: 4,
        machine_bytes: 512 << 10,
        ..CorpusSpec::paper_like(8 << 20)
    });
    let bytes = corpus.total_bytes();

    let mut group = c.benchmark_group("engines_end_to_end");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(bytes));
    for kind in EngineKind::ALL {
        group.bench_with_input(BenchmarkId::new("dedup", kind.label()), &corpus, |b, corpus| {
            b.iter(|| black_box(run_engine(kind, corpus, scaled_config(2048, 16, bytes))))
        });
    }
    group.finish();

    // The pure pass-through baseline the paper divides by.
    let mut group = c.benchmark_group("plain_copy");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("memcpy_stream", |b| {
        b.iter(|| {
            let mut out: Vec<u8> = Vec::with_capacity(bytes as usize);
            for s in &corpus.snapshots {
                for f in &s.files {
                    out.extend_from_slice(black_box(&f.data));
                }
            }
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
