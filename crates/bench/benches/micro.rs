//! Criterion micro-benchmarks / ablations backing the figure-level results:
//!
//! * `traversal` — cost of the Listing-1 traversal versus contribution-graph size
//!   (explains why Q3, with ≈192 sources per alert, has the highest traversal time).
//! * `instrumentation` — per-operator cost of creating GeneaLog metadata versus the
//!   variable-length baseline annotations (challenge C1).
//! * `baseline_growth` — how the baseline's annotation size grows with the window size
//!   while GeneaLog's metadata stays constant.
//! * `wire` — wire-codec throughput (sanity check that the simulated network, not the
//!   codec, dominates the inter-process numbers).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use genealog::{erase, find_provenance, GeneaLog, GlMeta};
use genealog_baseline::{AriadneBaseline, BlMeta};
use genealog_distributed::wire::{WireDecode, WireEncode};
use genealog_spe::operator::source::{SourceConfig, VecSource};
use genealog_spe::provenance::{NoProvenance, ProvenanceSystem, SourceContext};
use genealog_spe::query::Query;
use genealog_spe::tuple::GTuple;
use genealog_spe::PlannerConfig;
use genealog_spe::Timestamp;
use genealog_workloads::types::PositionReport;

type GlTuple = Arc<GTuple<PositionReport, GlMeta>>;
type BlTuple = Arc<GTuple<PositionReport, BlMeta>>;

fn gl_source(gl: &GeneaLog, seq: u64) -> GlTuple {
    let report = PositionReport {
        car_id: (seq % 100) as u32,
        speed: 0,
        pos: 7,
    };
    let ctx = SourceContext {
        source_id: 0,
        seq,
        ts: Timestamp::from_secs(seq),
    };
    let meta = gl.source_meta(&ctx, &report);
    Arc::new(GTuple::new(Timestamp::from_secs(seq), 0, report, meta))
}

fn bl_source(bl: &AriadneBaseline, seq: u64) -> BlTuple {
    let report = PositionReport {
        car_id: (seq % 100) as u32,
        speed: 0,
        pos: 7,
    };
    let ctx = SourceContext {
        source_id: 0,
        seq,
        ts: Timestamp::from_secs(seq),
    };
    let meta = bl.source_meta(&ctx, &report);
    Arc::new(GTuple::new(Timestamp::from_secs(seq), 0, report, meta))
}

/// Builds an aggregate output over a window of `size` source tuples.
fn gl_aggregate_of(gl: &GeneaLog, size: usize) -> GlTuple {
    let window: Vec<GlTuple> = (0..size as u64).map(|i| gl_source(gl, i)).collect();
    let meta = gl.aggregate_meta(&window);
    Arc::new(GTuple::new(
        Timestamp::from_secs(0),
        0,
        window[0].data,
        meta,
    ))
}

fn bench_traversal(c: &mut Criterion) {
    let mut group = c.benchmark_group("traversal");
    group.sample_size(30);
    for &size in &[4usize, 8, 24, 192, 1024] {
        let gl = GeneaLog::new();
        let root = erase(&gl_aggregate_of(&gl, size));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                let provenance = find_provenance(&root);
                assert_eq!(provenance.len(), size);
                provenance.len()
            })
        });
    }
    group.finish();
}

fn bench_instrumentation(c: &mut Criterion) {
    let mut group = c.benchmark_group("instrumentation");
    group.sample_size(30);

    let gl = GeneaLog::new();
    let gl_input = gl_source(&gl, 0);
    group.bench_function("gl_map_meta", |b| b.iter(|| gl.map_meta(&gl_input)));
    let gl_window: Vec<GlTuple> = (0..24).map(|i| gl_source(&gl, i)).collect();
    group.bench_function("gl_aggregate_meta_24", |b| {
        b.iter(|| gl.aggregate_meta(&gl_window))
    });

    let bl = AriadneBaseline::new();
    let bl_input = bl_source(&bl, 0);
    group.bench_function("bl_map_meta", |b| b.iter(|| bl.map_meta(&bl_input)));
    let bl_window: Vec<BlTuple> = (0..24).map(|i| bl_source(&bl, i)).collect();
    group.bench_function("bl_aggregate_meta_24", |b| {
        b.iter(|| bl.aggregate_meta(&bl_window))
    });
    group.finish();
}

fn bench_baseline_growth(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_growth");
    group.sample_size(20);
    for &window in &[24usize, 192, 1024] {
        let bl = AriadneBaseline::new();
        let tuples: Vec<BlTuple> = (0..window as u64).map(|i| bl_source(&bl, i)).collect();
        group.bench_with_input(
            BenchmarkId::new("bl_annotation", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let meta = bl.aggregate_meta(&tuples);
                    assert_eq!(meta.len(), window);
                    meta.size_bytes()
                })
            },
        );
        let gl = GeneaLog::new();
        let gl_tuples: Vec<GlTuple> = (0..window as u64).map(|i| gl_source(&gl, i)).collect();
        group.bench_with_input(
            BenchmarkId::new("gl_fixed_meta", window),
            &window,
            |b, _| {
                b.iter(|| {
                    let meta = gl.aggregate_meta(&gl_tuples);
                    std::mem::size_of_val(&meta)
                })
            },
        );
    }
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.sample_size(30);
    let report = PositionReport {
        car_id: 42,
        speed: 13,
        pos: 999,
    };
    group.bench_function("encode_position_report", |b| b.iter(|| report.to_bytes()));
    let bytes = report.to_bytes();
    group.bench_function("decode_position_report", |b| {
        b.iter(|| PositionReport::from_bytes(&bytes).unwrap())
    });
    group.finish();
}

/// Runs the quick-bench micro pipeline once under the given batch size and returns
/// the number of sink tuples (so the work cannot be optimised away).
fn run_np_pipeline(tuples: i64, batch_size: usize) -> u64 {
    let mut q = Query::with_config(
        NoProvenance,
        // Unfused: the comparison prices the channel hop between filter and map.
        PlannerConfig::default()
            .with_batch_size(batch_size)
            .with_fusion(false),
    );
    let src = q.source_with(
        "numbers",
        VecSource::with_period((0..tuples).collect(), 1),
        SourceConfig {
            watermark_every: 1_024,
            ..SourceConfig::default()
        },
    );
    let kept = q.filter("keep-odd", src, |v| v % 2 == 1);
    let mapped = q.map_one("affine", kept, |v| v.wrapping_mul(3) + 1);
    let stats = q.sink("count", mapped, |_| {});
    q.deploy().expect("deploy").wait().expect("run");
    stats.tuple_count()
}

/// Batched-vs-unbatched transport comparison on the same NP query: the per-tuple
/// channel cost (lock + wake-up per element) versus the amortised batched cost.
fn bench_batching(c: &mut Criterion) {
    let mut group = c.benchmark_group("batching");
    group.sample_size(10);
    const TUPLES: i64 = 20_000;
    for &batch in &[1usize, 32, 128] {
        group.bench_with_input(
            BenchmarkId::new("np_pipeline", batch),
            &batch,
            |b, &batch| {
                b.iter(|| {
                    let delivered = run_np_pipeline(TUPLES, batch);
                    assert_eq!(delivered, TUPLES as u64 / 2);
                    delivered
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_traversal,
    bench_instrumentation,
    bench_baseline_growth,
    bench_wire,
    bench_batching
);
criterion_main!(benches);
