//! Determinism: the engine's timestamp-driven execution (§2) makes both the query
//! results and the captured provenance independent of thread scheduling, channel
//! capacities and repeated runs.

use std::collections::BTreeSet;

use genealog::prelude::*;
use genealog_spe::PlannerConfig;
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::queries::{build_q1, build_q4};
use genealog_workloads::smart_grid::{SmartGridConfig, SmartGridGenerator};
use genealog_workloads::types::PositionReport;

type AlertKey = (u64, String);
type ProvenanceSet = BTreeSet<(u64, String)>;

fn run_q1_once(channel_capacity: usize) -> Vec<(AlertKey, ProvenanceSet)> {
    run_q1_with(channel_capacity, BatchConfig::default())
}

fn run_q1_with(channel_capacity: usize, batch: BatchConfig) -> Vec<(AlertKey, ProvenanceSet)> {
    let config = LinearRoadConfig {
        cars: 40,
        rounds: 30,
        ..LinearRoadConfig::default()
    };
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        PlannerConfig {
            channel_capacity,
            batch,
            ..PlannerConfig::default()
        },
    );
    let reports = q.source("lr", LinearRoadGenerator::new(config));
    let alerts = build_q1(&mut q, reports);
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", alerts);
    q.discard(out);
    q.deploy().unwrap().wait().unwrap();

    let mut result: Vec<(AlertKey, ProvenanceSet)> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
            let sources = a
                .source_records::<PositionReport>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (key, sources)
        })
        .collect();
    result.sort();
    result
}

#[test]
fn q1_alerts_and_provenance_are_identical_across_runs() {
    let first = run_q1_once(1024);
    for _ in 0..3 {
        assert_eq!(run_q1_once(1024), first);
    }
    assert!(!first.is_empty());
}

#[test]
fn q1_results_do_not_depend_on_channel_capacity() {
    // Tiny channels force constant back-pressure and very different interleavings;
    // results must not change.
    let large = run_q1_once(4096);
    let tiny = run_q1_once(2);
    assert_eq!(large, tiny);
}

#[test]
fn q1_results_do_not_depend_on_batch_size() {
    // The batched transport must be a pure transport optimisation: alerts and
    // their provenance are identical whether elements travel one by one
    // (the unbatched seed behaviour), in small batches or in large batches.
    let unbatched = run_q1_with(1024, BatchConfig::unbatched());
    let small = run_q1_with(1024, BatchConfig::with_size(7));
    let large = run_q1_with(1024, BatchConfig::with_size(256));
    assert_eq!(unbatched, small);
    assert_eq!(unbatched, large);
    assert!(!unbatched.is_empty());
}

#[test]
fn batching_composes_with_tiny_channels() {
    // Large batches through capacity-1 channels force a flush-blocked producer on
    // every send; determinism must survive the resulting interleavings.
    let reference = run_q1_with(1024, BatchConfig::unbatched());
    let stressed = run_q1_with(1, BatchConfig::with_size(64));
    assert_eq!(reference, stressed);
}

#[test]
fn q4_join_results_are_stable_across_runs() {
    let config = SmartGridConfig {
        meters: 30,
        days: 2,
        blackout_day: 0,
        anomaly_day: 1,
        ..SmartGridConfig::default()
    };
    let run = || {
        let mut q = GlQuery::new(GeneaLog::new());
        let readings = q.source("sg", SmartGridGenerator::new(config));
        let alerts = build_q4(&mut q, readings);
        let out = q.collecting_sink("alerts", alerts);
        q.deploy().unwrap().wait().unwrap();
        let mut alerts: Vec<(u64, u32, u32)> = out
            .tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data.meter_id, t.data.consumption_diff))
            .collect();
        alerts.sort_unstable();
        alerts
    };
    let first = run();
    assert_eq!(run(), first);
    assert_eq!(run(), first);
    assert!(!first.is_empty());
}

#[test]
fn ordered_sink_output_is_timestamp_sorted() {
    let config = LinearRoadConfig::default();
    let mut q = GlQuery::new(GeneaLog::new());
    let reports = q.source("lr", LinearRoadGenerator::new(config));
    let alerts = build_q1(&mut q, reports);
    let out = q.collecting_sink("alerts", alerts);
    q.deploy().unwrap().wait().unwrap();
    let timestamps: Vec<u64> = out.tuples().iter().map(|t| t.ts.as_millis()).collect();
    let mut sorted = timestamps.clone();
    sorted.sort_unstable();
    assert_eq!(timestamps, sorted);
}
