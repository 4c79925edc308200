//! Engine-level behaviour exercised through the public API: back-pressure with tiny
//! channels, rate-limited sources, early stop, graph introspection, and provenance
//! flowing through every standard operator in one query.

use std::collections::BTreeSet;
use std::sync::Arc;

use genealog::prelude::*;
use genealog_spe::channel::{stream_channel, OutputSlot};
use genealog_spe::operator::source::{RateLimit, SourceConfig};
use genealog_spe::query::NodeKind;
use genealog_spe::PlannerConfig;

#[test]
fn tiny_channels_do_not_change_results_or_provenance() {
    let readings: Vec<(u32, i64)> = (0..200).map(|i| (i % 4, (i % 7) as i64 * 20)).collect();
    let run = |capacity: usize| {
        let mut q = GlQuery::with_config(
            GeneaLog::new(),
            PlannerConfig {
                channel_capacity: capacity,
                batch: BatchConfig::default(),
                ..PlannerConfig::default()
            },
        );
        let src = q.source("sensors", VecSource::with_period(readings.clone(), 10_000));
        let hot = q.filter("hot", src, |(_, v): &(u32, i64)| *v >= 100);
        let counts = q.aggregate(
            "count",
            hot,
            WindowSpec::tumbling(Duration::from_secs(60)).unwrap(),
            |(s, _): &(u32, i64)| *s,
            |w| (*w.key, w.len()),
        );
        let alerts = q.filter("alerts", counts, |(_, n): &(u32, usize)| *n >= 1);
        let (out, prov) = attach_provenance_sink(&mut q, "prov", alerts);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();
        prov.assignments()
            .iter()
            .map(|a| {
                (
                    a.sink_ts.as_millis(),
                    format!("{:?}", a.sink_data),
                    a.source_records::<(u32, i64)>()
                        .iter()
                        .map(|r| (r.ts.as_millis(), r.data))
                        .collect::<BTreeSet<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let wide = run(2048);
    let narrow = run(1);
    assert_eq!(wide, narrow);
    assert!(!wide.is_empty());
}

#[test]
fn rate_limited_source_and_early_stop() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source_with(
        "slow",
        VecSource::with_period((0..100_000i64).collect(), 1),
        SourceConfig {
            rate: RateLimit::TuplesPerSecond(20_000),
            watermark_every: 10,
        },
    );
    let sink = q.collecting_sink("sink", src);
    let handle = q.deploy().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.stop();
    let report = handle.wait().unwrap();
    // The stop flag ends the run long before the full stream is injected, and
    // everything injected reaches the sink.
    assert!(report.source_tuples() < 100_000);
    assert_eq!(report.source_tuples(), sink.len() as u64);
}

#[test]
fn every_standard_operator_participates_in_one_provenanced_query() {
    // Source -> Multiplex -> (Filter | Map) -> Union -> Aggregate -> Join -> Sink,
    // with provenance captured at the end: the contribution graph crosses every
    // operator kind of §2.
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source(
        "numbers",
        VecSource::with_period((1..=40i64).collect(), 15_000),
    );
    let branches = q.multiplex("mux", src, 2);
    let mut branches = branches.into_iter();
    let evens = q.filter("evens", branches.next().unwrap(), |v| v % 2 == 0);
    let tripled = q.map_one("triple", branches.next().unwrap(), |v| v * 3);
    let merged = q.union("union", vec![evens, tripled]);
    let per_minute = q.aggregate(
        "per-minute",
        merged,
        WindowSpec::tumbling(Duration::from_mins(1)).unwrap(),
        |_: &i64| 0u8,
        |w| w.payloads().sum::<i64>(),
    );
    let mux2 = q.multiplex("mux2", per_minute, 2);
    let mut mux2 = mux2.into_iter();
    let left = mux2.next().unwrap();
    let right = mux2.next().unwrap();
    let joined = q.join(
        "self-join",
        left,
        right,
        Duration::from_mins(2),
        |a: &i64, b: &i64| a != b,
        |a: &i64, b: &i64| a + b,
    );
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", joined);
    q.discard(out);
    q.deploy().unwrap().wait().unwrap();

    let assignments = provenance.assignments();
    assert!(!assignments.is_empty());
    for assignment in &assignments {
        assert!(assignment.source_count() >= 2);
        // Every originating tuple is one of the injected numbers.
        for value in assignment.source_payloads::<i64>() {
            assert!((1..=40).contains(&value));
        }
    }
}

#[test]
fn query_graph_introspection_lists_nodes_and_edges() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source("numbers", VecSource::with_period(vec![1i64, 2, 3], 1_000));
    let doubled = q.map_one("double", src, |v| v * 2);
    let _ = q.collecting_sink("sink", doubled);
    assert_eq!(q.node_count(), 3);
    assert_eq!(q.edges().len(), 2);
    let kinds: Vec<NodeKind> = q.node_summaries().iter().map(|(_, k)| *k).collect();
    assert_eq!(kinds, vec![NodeKind::Source, NodeKind::Map, NodeKind::Sink]);
    let dot = q.to_dot();
    assert!(dot.contains("digraph"));
    assert!(dot.contains("double"));
    q.deploy().unwrap().wait().unwrap();
}

#[test]
fn latency_is_reported_per_sink_tuple() {
    let mut q = GlQuery::new(GeneaLog::new());
    let src = q.source(
        "numbers",
        VecSource::with_period((0..50i64).collect(), 1_000),
    );
    let stats = q.sink("sink", src, |_| {});
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(stats.tuple_count(), 50);
    assert_eq!(stats.latencies_ns().len(), 50);
    assert!(stats.mean_latency_ms() >= 0.0);
    // Latencies are bounded by the run duration (well under a minute here).
    assert!(stats.latencies_ns().iter().all(|&ns| ns < 60_000_000_000));
}

// ---------------------------------------------------------------------------
// Batched-transport semantics
// ---------------------------------------------------------------------------

fn gl_tuple(ts: u64, v: i64) -> Arc<GTuple<i64, ()>> {
    Arc::new(GTuple::new(Timestamp::from_secs(ts), 0, v, ()))
}

#[test]
fn watermarks_are_never_reordered_past_data_within_a_batch() {
    // Data pushed before a watermark must arrive before it, even though the
    // watermark forces an immediate flush of the partial batch.
    let slot = OutputSlot::<i64, ()>::with_config(BatchConfig::with_size(1_000));
    let (tx, mut rx) = stream_channel(16);
    slot.connect(tx);
    let mut out = slot.open();
    for i in 0..5 {
        out.send_tuple(gl_tuple(i, i as i64)).unwrap();
    }
    out.send_watermark(Timestamp::from_secs(4)).unwrap();
    out.send_tuple(gl_tuple(5, 5)).unwrap();
    out.send_end().unwrap();

    let mut seen_watermark = false;
    let mut data_before_watermark = 0;
    let mut data_after_watermark = 0;
    loop {
        match rx.recv() {
            Element::Tuple(_) if seen_watermark => data_after_watermark += 1,
            Element::Tuple(_) => data_before_watermark += 1,
            Element::Watermark(ts) => {
                assert_eq!(ts, Timestamp::from_secs(4));
                seen_watermark = true;
            }
            Element::Barrier(_) => {}
            Element::End => break,
        }
    }
    assert_eq!(data_before_watermark, 5);
    assert_eq!(data_after_watermark, 1);
}

#[test]
fn end_of_stream_flushes_partial_batches() {
    // A batch size far larger than the stream length must not strand elements:
    // Element::End flushes whatever is buffered ahead of it.
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        PlannerConfig::default().with_batch_size(10_000),
    );
    let src = q.source(
        "numbers",
        VecSource::with_period((0..7i64).collect(), 1_000),
    );
    let doubled = q.map_one("double", src, |v| v * 2);
    let out = q.collecting_sink("sink", doubled);
    q.deploy().unwrap().wait().unwrap();
    let values: Vec<i64> = out.tuples().iter().map(|t| t.data).collect();
    assert_eq!(values, vec![0, 2, 4, 6, 8, 10, 12]);
}

#[test]
fn batch_size_one_matches_default_batching() {
    // With BatchConfig::unbatched() every element travels alone, reproducing the
    // original per-element transport; the observable behaviour must be identical.
    let run = |config: PlannerConfig| {
        let mut q = GlQuery::with_config(GeneaLog::new(), config);
        let src = q.source(
            "numbers",
            VecSource::with_period((0..100i64).collect(), 5_000),
        );
        let odd = q.filter("odd", src, |v| v % 2 == 1);
        let windowed = q.aggregate(
            "sum",
            odd,
            WindowSpec::tumbling(Duration::from_secs(60)).unwrap(),
            |_: &i64| 0u8,
            |w| w.payloads().sum::<i64>(),
        );
        let (out, prov) = attach_provenance_sink(&mut q, "prov", windowed);
        q.discard(out);
        q.deploy().unwrap().wait().unwrap();
        prov.assignments()
            .iter()
            .map(|a| {
                (
                    a.sink_ts.as_millis(),
                    a.sink_data,
                    a.source_payloads::<i64>()
                        .into_iter()
                        .collect::<BTreeSet<_>>(),
                )
            })
            .collect::<Vec<_>>()
    };
    let unbatched = run(PlannerConfig::default().unbatched());
    let batched = run(PlannerConfig::default().with_batch_size(64));
    assert_eq!(unbatched, batched);
    assert!(!unbatched.is_empty());
}

#[test]
fn backpressure_blocks_a_fast_source_under_batching() {
    // A capacity-1 channel holds a single batch: an unthrottled source must block
    // behind a deliberately slow sink rather than buffer or drop elements.
    let total: i64 = 300;
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        PlannerConfig {
            channel_capacity: 1,
            batch: BatchConfig::with_size(8),
            ..PlannerConfig::default()
        },
    );
    let src = q.source("fast", VecSource::with_period((0..total).collect(), 1_000));
    let stats = q.sink("slow-sink", src, |_| {
        std::thread::sleep(std::time::Duration::from_micros(50));
    });
    let report = q.deploy().unwrap().wait().unwrap();
    assert_eq!(report.source_tuples(), total as u64);
    assert_eq!(
        stats.tuple_count(),
        total as u64,
        "no element may be dropped"
    );
}

#[test]
fn per_operator_batch_config_is_applied_to_subsequent_operators() {
    let mut q = GlQuery::new(GeneaLog::new());
    assert_eq!(q.batch_config(), BatchConfig::default());
    q.set_batch_config(BatchConfig::with_size(128));
    let src = q.source(
        "numbers",
        VecSource::with_period((0..50i64).collect(), 1_000),
    );
    q.set_batch_config(BatchConfig::unbatched());
    let mapped = q.map_one("copy", src, |v| *v);
    assert_eq!(q.batch_config(), BatchConfig::unbatched());
    let out = q.collecting_sink("sink", mapped);
    q.deploy().unwrap().wait().unwrap();
    assert_eq!(out.len(), 50);
}
