//! The four benchmark workloads. Each runs one closed-loop query in this
//! process (one `RateLimit::Unlimited` source, paced only by back-pressure),
//! measures it, and then checks its output against a reference computed from
//! the same generated inputs, outside the timed region.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genealog::{erase, find_provenance_with_stats, GeneaLog, GlMeta, GlWindowPersister};
use genealog_metrics::{MetricsRegistry, SampleValue};
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::operator::source::{SourceConfig, SourceGenerator};
use genealog_spe::persist::WindowPersister;
use genealog_spe::prelude::*;
use genealog_spe::state::{CheckpointConfig, CheckpointStore, StateBackend};
use genealog_store::{DurableBackend, StoreOptions};
use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
use genealog_workloads::oracle::{q2_oracle, q4_oracle, OracleAlert};
use genealog_workloads::queries::{build_q2, build_q4, Q3_DAY_WINDOW};
use genealog_workloads::smart_grid::{SmartGridConfig, SmartGridGenerator};
use genealog_workloads::types::{AccidentAlert, AnomalyAlert, MeterReading, PositionReport};

use crate::sys::{peak_rss_mb, Sampled, Sampler, Usage};
use crate::trace::{quantile, ratio};
use crate::traced::{TimedGenerator, TracedBackend, TracedGl, TracedPersister, Tracer};

/// The workloads, by command-line name.
pub const NAMES: [&str; 4] = ["lr-q2-np", "lr-q2-gl", "sg-q4-gl", "sg-daily-gl-durable"];

/// Input sizes of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Linear Road input of the `lr-*` workloads.
    pub linear_road: LinearRoadConfig,
    /// Smart Grid input of `sg-q4-gl`.
    pub smart_grid: SmartGridConfig,
    /// Smart Grid input of `sg-daily-gl-durable`.
    pub daily: SmartGridConfig,
    /// Source tuples per checkpoint epoch of `sg-daily-gl-durable`.
    pub checkpoint_interval: u64,
}

impl Sizes {
    /// Full sizes emit about a thousand alerts per run (enough samples for a
    /// p99); smoke sizes are for the self-test.
    pub fn new(seed: u64, smoke: bool) -> Sizes {
        let (cars, meters, daily_meters, daily_days, interval) = if smoke {
            (400, 200, 40, 4, 400)
        } else {
            (20_000, 10_000, 2_000, 10, 20_000)
        };
        Sizes {
            linear_road: LinearRoadConfig {
                cars,
                rounds: 60,
                seed,
                ..LinearRoadConfig::default()
            },
            // Q4 alerts all fire when the anomaly day's window closes, so an
            // iteration yields one latency burst. Two days with the anomalies
            // on the first keep that burst mid-stream (the second day still
            // flowing) at two thirds of the three-day cost, which leaves room
            // for more iterations, and so more bursts, per run.
            smart_grid: SmartGridConfig {
                meters,
                days: 2,
                anomaly_day: 0,
                seed,
                ..SmartGridConfig::default()
            },
            daily: SmartGridConfig {
                meters: daily_meters,
                days: daily_days,
                seed,
                ..SmartGridConfig::default()
            },
            checkpoint_interval: interval,
        }
    }

    /// The sizes as a JSON object.
    pub fn to_json(self) -> String {
        format!(
            "{{\"lr_cars\":{},\"lr_rounds\":{},\"q4_meters\":{},\"q4_days\":{},\"daily_meters\":{},\"daily_days\":{},\"checkpoint_interval\":{}}}",
            self.linear_road.cars,
            self.linear_road.rounds,
            self.smart_grid.meters,
            self.smart_grid.days,
            self.daily.meters,
            self.daily.days,
            self.checkpoint_interval
        )
    }
}

/// Output of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub source_tuples: u64,
    pub sink_tuples: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    pub usage: Usage,
    pub sampled: Sampled,
    pub peak_rss_mb: f64,
    pub latencies_ns: Vec<u64>,
    /// Time to open the durable store (`sg-daily-gl-durable` only).
    pub store_open_s: f64,
    /// Traversal time and sources found, one entry per alert (GL queries).
    pub traversals: Vec<(u64, usize)>,
    pub check: Check,
    /// Samples of the query's and the store's registries after the run.
    pub query_metrics: Vec<(String, SampleValue)>,
    pub store_metrics: Vec<(String, SampleValue)>,
}

/// The correctness gate: the run's sink output against the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Check {
    /// Sink tuples the reference predicts.
    pub expected: u64,
    /// Predicted sink tuples the run did not emit.
    pub missing: u64,
    /// Emitted sink tuples the reference does not predict.
    pub spurious: u64,
    /// Emitted alerts whose contribution set differs from the reference.
    pub wrong_provenance: u64,
}

impl Check {
    /// Wrong sink tuples. A tuple emitted in place of an expected one but
    /// differing from it is both missing and spurious; it counts once.
    pub fn failed(&self) -> u64 {
        self.missing.max(self.spurious) + self.wrong_provenance
    }
}

/// Counts the elements of `observed` and `expected` that the other lacks, as
/// multisets: `(missing, spurious)`.
fn multiset_diff<T: Ord>(expected: Vec<T>, observed: Vec<T>) -> (u64, u64) {
    let mut counts: BTreeMap<T, i64> = BTreeMap::new();
    for e in expected {
        *counts.entry(e).or_default() += 1;
    }
    for o in observed {
        *counts.entry(o).or_default() -= 1;
    }
    let missing = counts.values().filter(|&&c| c > 0).map(|&c| c as u64).sum();
    let spurious = counts
        .values()
        .filter(|&&c| c < 0)
        .map(|&c| (-c) as u64)
        .sum();
    (missing, spurious)
}

/// An alert in comparable form: timestamp and two payload fields.
type AlertKey = (u64, u32, u32);
/// A contributing source tuple in comparable form: timestamp and payload.
type SourceKey = (u64, u32, u32, u32);
/// An alert with its sorted contribution set.
type Record = (AlertKey, Vec<SourceKey>);

/// One of the paper's queries, run through `genealog_workloads`.
trait Scenario {
    type Item: TupleData;
    type Alert: TupleData;
    fn build<P: ProvenanceSystem>(
        q: &mut Query<P>,
        input: StreamRef<Self::Item, P::Meta>,
    ) -> StreamRef<Self::Alert, P::Meta>;
    fn oracle(inputs: &[(Timestamp, Self::Item)]) -> Vec<OracleAlert<Self::Alert, Self::Item>>;
    fn alert_key(ts: Timestamp, alert: &Self::Alert) -> AlertKey;
    fn source_key(ts: Timestamp, item: &Self::Item) -> SourceKey;
}

struct Q2;

impl Scenario for Q2 {
    type Item = PositionReport;
    type Alert = AccidentAlert;
    fn build<P: ProvenanceSystem>(
        q: &mut Query<P>,
        input: StreamRef<PositionReport, P::Meta>,
    ) -> StreamRef<AccidentAlert, P::Meta> {
        build_q2(q, input)
    }
    fn oracle(
        inputs: &[(Timestamp, PositionReport)],
    ) -> Vec<OracleAlert<AccidentAlert, PositionReport>> {
        q2_oracle(inputs)
    }
    fn alert_key(ts: Timestamp, a: &AccidentAlert) -> AlertKey {
        (ts.as_millis(), a.pos, a.stopped_cars)
    }
    fn source_key(ts: Timestamp, r: &PositionReport) -> SourceKey {
        (ts.as_millis(), r.car_id, r.speed, r.pos)
    }
}

struct Q4;

impl Scenario for Q4 {
    type Item = MeterReading;
    type Alert = AnomalyAlert;
    fn build<P: ProvenanceSystem>(
        q: &mut Query<P>,
        input: StreamRef<MeterReading, P::Meta>,
    ) -> StreamRef<AnomalyAlert, P::Meta> {
        build_q4(q, input)
    }
    fn oracle(
        inputs: &[(Timestamp, MeterReading)],
    ) -> Vec<OracleAlert<AnomalyAlert, MeterReading>> {
        q4_oracle(inputs)
    }
    fn alert_key(ts: Timestamp, a: &AnomalyAlert) -> AlertKey {
        (ts.as_millis(), a.meter_id, a.consumption_diff)
    }
    fn source_key(ts: Timestamp, r: &MeterReading) -> SourceKey {
        (ts.as_millis(), r.meter_id, r.consumption, r.hour_of_day)
    }
}

/// The oracle's alerts with their contribution sets, in comparable form.
fn expected_records<S: Scenario>(inputs: &[(Timestamp, S::Item)]) -> Vec<Record> {
    S::oracle(inputs)
        .iter()
        .map(|a| {
            let mut sources: Vec<SourceKey> = a
                .sources
                .iter()
                .map(|(ts, s)| S::source_key(*ts, s))
                .collect();
            sources.sort_unstable();
            (S::alert_key(a.ts, &a.alert), sources)
        })
        .collect()
}

/// Compares emitted alerts (and, for GL, their contribution sets) with the
/// oracle. A present alert whose provenance record is absent or differs
/// counts as wrong provenance.
fn check_alerts(
    expected: Vec<Record>,
    alerts: Vec<AlertKey>,
    records: Option<Vec<Record>>,
) -> Check {
    let expected_alerts: Vec<AlertKey> = expected.iter().map(|(a, _)| *a).collect();
    let count = expected.len() as u64;
    let (missing, spurious) = multiset_diff(expected_alerts, alerts);
    let wrong_provenance = match records {
        Some(records) => multiset_diff(expected, records).0.saturating_sub(missing),
        None => 0,
    };
    Check {
        expected: count,
        missing,
        spurious,
        wrong_provenance,
    }
}

/// Runs a deployed query to completion, measuring it from outside.
fn measure(handle: QueryHandle, tracer: Option<&Arc<Tracer>>, outcome: &mut Outcome) {
    let registry = handle.registry();
    let sampler = Sampler::start(tracer.map(|_| Arc::clone(&registry)));
    let before = Usage::now();
    let run_start = Instant::now();
    let report = handle
        .wait()
        .expect("the benchmark query runs to completion");
    if let Some(tracer) = tracer {
        tracer
            .spans
            .record("run", None, run_start, report.source_tuples());
    }
    outcome.usage = Usage::now().since(before);
    outcome.sampled = sampler.finish();
    outcome.peak_rss_mb = peak_rss_mb();
    outcome.source_tuples = report.source_tuples();
    outcome.wall_s = report.wall_time().as_secs_f64();
    outcome.query_metrics = flatten(&registry);
}

fn flatten(registry: &MetricsRegistry) -> Vec<(String, SampleValue)> {
    registry
        .snapshot()
        .into_iter()
        .map(|s| (s.name, s.value))
        .collect()
}

fn end_setup(start: Instant, tracer: Option<&Arc<Tracer>>, outcome: &mut Outcome) {
    outcome.setup_s = start.elapsed().as_secs_f64();
    if let Some(tracer) = tracer {
        tracer.spans.record("deploy", None, start, 0);
    }
}

/// `lr-q2-np`: Q2 under `NoProvenance`, as the Fig 12 harness deploys it.
fn run_np<S: Scenario, G: SourceGenerator<Item = S::Item>>(
    make: impl FnOnce() -> G,
    tracer: Option<&Arc<Tracer>>,
) -> (Outcome, Vec<AlertKey>) {
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let mut q = Query::new(NoProvenance);
    let source = q.source("source", make());
    let alerts = S::build(&mut q, source);
    let sink = q.collecting_sink("data-sink", alerts);
    let handle = q.deploy().expect("deploy the benchmark query");
    end_setup(start, tracer, &mut outcome);
    measure(handle, tracer, &mut outcome);
    outcome.latencies_ns = sink.stats().latencies_ns();
    let tuples = sink.tuples();
    outcome.sink_tuples = tuples.len() as u64;
    let keys = tuples.iter().map(|t| S::alert_key(t.ts, &t.data)).collect();
    (outcome, keys)
}

/// GL queries: the query plus the §5.1 single-stream unfolder (Multiplex and
/// a meta-aware Map) answering "why this alert?" for every alert.
fn run_gl<S, P, G>(
    provenance: P,
    make: impl FnOnce() -> G,
    tracer: Option<&Arc<Tracer>>,
) -> (Outcome, Vec<AlertKey>, Vec<Record>)
where
    S: Scenario,
    P: ProvenanceSystem<Meta = GlMeta>,
    G: SourceGenerator<Item = S::Item>,
{
    let mut outcome = Outcome::default();
    let traversals = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let mut q = Query::new(provenance);
    let source = q.source("source", make());
    let alerts = S::build(&mut q, source);
    let mut branches = q.multiplex("su-mux", alerts, 2).into_iter();
    let passthrough = branches.next().expect("two branches");
    let to_unfold = branches.next().expect("two branches");
    let data_sink = q.collecting_sink("data-sink", passthrough);
    let log = Arc::clone(&traversals);
    let span_tracer = tracer.cloned();
    let unfolded = q.map_with_meta("su-unfold", to_unfold, move |tuple| {
        let root = erase(tuple);
        let begin = Instant::now();
        let (provenance, stats) = find_provenance_with_stats(&root);
        let ns = begin.elapsed().as_nanos() as u64;
        if let Some(t) = &span_tracer {
            t.spans.record(
                "core.traversal",
                Some("run"),
                begin,
                stats.originating as u64,
            );
        }
        log.lock()
            .expect("no thread panics while holding the traversal log")
            .push((ns, stats.originating));
        let mut sources: Vec<SourceKey> = provenance
            .iter()
            .filter_map(|node| {
                node.payload::<S::Item>()
                    .map(|s| S::source_key(node.ts(), s))
            })
            .collect();
        sources.sort_unstable();
        vec![(S::alert_key(tuple.ts, &tuple.data), sources)]
    });
    let provenance_sink = q.collecting_sink("provenance-sink", unfolded);
    let handle = q.deploy().expect("deploy the benchmark query");
    end_setup(start, tracer, &mut outcome);
    measure(handle, tracer, &mut outcome);
    outcome.latencies_ns = data_sink.stats().latencies_ns();
    outcome.traversals = std::mem::take(
        &mut *traversals
            .lock()
            .expect("no thread panics while holding the traversal log"),
    );
    let tuples = data_sink.tuples();
    outcome.sink_tuples = tuples.len() as u64;
    let keys = tuples.iter().map(|t| S::alert_key(t.ts, &t.data)).collect();
    let records = provenance_sink
        .tuples()
        .iter()
        .map(|t| t.data.clone())
        .collect();
    (outcome, keys, records)
}

/// `lr-q2-np`, `lr-q2-gl` and `sg-q4-gl`.
fn run_query<S, G>(
    gl: bool,
    make: impl FnOnce() -> G,
    inputs: impl FnOnce() -> Vec<(Timestamp, S::Item)>,
    tracer: Option<&Arc<Tracer>>,
) -> Outcome
where
    S: Scenario,
    G: SourceGenerator<Item = S::Item>,
{
    let (mut outcome, alerts, records) = match (gl, tracer) {
        (false, None) => {
            let (o, a) = run_np::<S, _>(make, None);
            (o, a, None)
        }
        (false, Some(t)) => {
            let (o, a) = run_np::<S, _>(|| TimedGenerator::new(make(), Arc::clone(t)), tracer);
            (o, a, None)
        }
        (true, None) => {
            let (o, a, r) = run_gl::<S, _, _>(GeneaLog::new(), make, None);
            (o, a, Some(r))
        }
        (true, Some(t)) => {
            let (o, a, r) = run_gl::<S, _, _>(
                TracedGl::new(Arc::clone(t)),
                || TimedGenerator::new(make(), Arc::clone(t)),
                tracer,
            );
            (o, a, Some(r))
        }
    };
    outcome.check = check_alerts(expected_records::<S>(&inputs()), alerts, records);
    outcome
}

type Reading = (u32, i64);

/// Smart Grid readings as `(meter, consumption)` pairs.
struct DailyReadings(SmartGridGenerator);

impl SourceGenerator for DailyReadings {
    type Item = Reading;

    fn next_tuple(&mut self) -> Option<(Timestamp, Reading)> {
        self.0
            .next_tuple()
            .map(|(ts, r)| (ts, (r.meter_id, i64::from(r.consumption))))
    }
}

fn daily_sum(w: &WindowView<'_, u32, Reading, GlMeta>) -> Reading {
    (*w.key, w.payloads().map(|p| p.1).sum())
}

/// What the daily pipeline must emit: per day and meter, the doubled sum of
/// the non-zero readings.
fn expected_daily(readings: &[(Timestamp, MeterReading)]) -> Vec<(u64, u32, i64)> {
    let day = Q3_DAY_WINDOW.as_millis();
    let mut sums: BTreeMap<(u64, u32), i64> = BTreeMap::new();
    for (ts, r) in readings {
        if r.consumption > 0 {
            let start = ts.as_millis() - ts.as_millis() % day;
            *sums.entry((start, r.meter_id)).or_default() += 2 * i64::from(r.consumption);
        }
    }
    sums.into_iter().map(|((ts, m), s)| (ts, m, s)).collect()
}

/// `sg-daily-gl-durable`: the planner/fusion pipeline shape, checkpointing
/// every epoch's GeneaLog window state into an incremental `DurableBackend`.
fn run_daily<P, G>(
    provenance: P,
    make: impl FnOnce() -> G,
    persister: Arc<dyn WindowPersister<u32, Reading, GlMeta>>,
    sizes: &Sizes,
    state_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Outcome
where
    P: ProvenanceSystem<Meta = GlMeta>,
    G: SourceGenerator<Item = Reading>,
{
    let mut outcome = Outcome::default();
    let out: Arc<Mutex<Vec<(u64, u32, i64)>>> = Arc::new(Mutex::new(Vec::new()));
    let store_registry = MetricsRegistry::new();
    // The store open is a handful of fsyncs, whose latency follows the host's
    // disk load rather than the program; it is reported as `store.open_ms`
    // and kept out of `setup_s`.
    let open_start = Instant::now();
    let durable = DurableBackend::open_with(state_dir, StoreOptions::incremental())
        .expect("open the durable store");
    outcome.store_open_s = open_start.elapsed().as_secs_f64();
    let start = Instant::now();
    let backend: Arc<dyn StateBackend> = match tracer {
        Some(t) => {
            durable.publish_metrics(&store_registry);
            TracedBackend::new(durable, Arc::clone(t))
        }
        None => durable,
    };
    let store = CheckpointStore::new(backend);
    let checkpoints = CheckpointConfig::new(sizes.checkpoint_interval, Arc::clone(&store))
        .with_window_persister::<u32, Reading, GlMeta>(persister);
    let config = PlannerConfig::default()
        .with_batch_size(256)
        .with_checkpoints(checkpoints);
    let plan = LogicalPlan::with_config(provenance, config);
    let sink_out = Arc::clone(&out);
    let stats = plan
        .source_with(
            "readings",
            make(),
            SourceConfig {
                watermark_every: 4_096,
                ..SourceConfig::default()
            },
        )
        .filter("nonzero", |r: &Reading| r.1 > 0)
        .map_one("double", |r: &Reading| (r.0, r.1 * 2))
        .aggregate(
            "daily",
            WindowSpec::tumbling(Q3_DAY_WINDOW).expect("a day is a valid window"),
            |r: &Reading| r.0,
            daily_sum,
            |o: &Reading| o.0,
        )
        .sink("sink", move |t| {
            sink_out
                .lock()
                .expect("no thread panics while holding the sink output")
                .push((t.ts.as_millis(), t.data.0, t.data.1));
        });
    let handle = plan.deploy().expect("lower and deploy the daily pipeline");
    end_setup(start, tracer, &mut outcome);
    measure(handle, tracer, &mut outcome);
    assert!(
        store.latest_complete_epoch().is_some(),
        "a checkpointed run completes at least one epoch"
    );
    outcome.latencies_ns = stats.latencies_ns();
    outcome.store_metrics = flatten(&store_registry);
    let observed = std::mem::take(
        &mut *out
            .lock()
            .expect("no thread panics while holding the sink output"),
    );
    outcome.sink_tuples = observed.len() as u64;
    let expected = expected_daily(&SmartGridGenerator::to_vec(sizes.daily));
    let count = expected.len() as u64;
    let (missing, spurious) = multiset_diff(expected, observed);
    outcome.check = Check {
        expected: count,
        missing,
        spurious,
        wrong_provenance: 0,
    };
    outcome
}

/// Runs the named workload once.
pub fn run(name: &str, sizes: &Sizes, state_dir: &Path, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let lr = sizes.linear_road;
    let sg = sizes.smart_grid;
    match name {
        "lr-q2-np" | "lr-q2-gl" => run_query::<Q2, _>(
            name == "lr-q2-gl",
            || LinearRoadGenerator::new(lr),
            || LinearRoadGenerator::to_vec(lr),
            tracer,
        ),
        "sg-q4-gl" => run_query::<Q4, _>(
            true,
            || SmartGridGenerator::new(sg),
            || SmartGridGenerator::to_vec(sg),
            tracer,
        ),
        "sg-daily-gl-durable" => {
            let daily = sizes.daily;
            let make = || DailyReadings(SmartGridGenerator::new(daily));
            match tracer {
                None => run_daily(
                    GeneaLog::new(),
                    make,
                    Arc::new(GlWindowPersister::<u32, Reading, Reading>::new()),
                    sizes,
                    state_dir,
                    None,
                ),
                Some(t) => run_daily(
                    TracedGl::new(Arc::clone(t)),
                    || TimedGenerator::new(make(), Arc::clone(t)),
                    Arc::new(TracedPersister::<u32, Reading>::new(Arc::clone(t))),
                    sizes,
                    state_dir,
                    tracer,
                ),
            }
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Sum of the counter or gauge samples named `name`.
pub fn sample_sum(samples: &[(String, SampleValue)], name: &str) -> u64 {
    samples
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| match v {
            SampleValue::Counter(c) | SampleValue::Gauge(c) => *c,
            SampleValue::Histogram(h) => h.count(),
        })
        .sum()
}

/// The `q`-quantile of the histogram named `name`, or 0 without one.
pub fn sample_quantile(samples: &[(String, SampleValue)], name: &str, q: f64) -> u64 {
    samples
        .iter()
        .find_map(|(n, v)| match v {
            SampleValue::Histogram(h) if n == name => Some(h.quantile(q)),
            _ => None,
        })
        .unwrap_or(0)
}

/// The per-layer metrics of a traced run, each with its unit, plus the
/// self-check failures: a layer busier than the run allows, or a layer the
/// workload bypasses that does not read zero.
pub fn layer_metrics(
    name: &str,
    outcome: &Outcome,
    tracer: &Tracer,
    host_cpus: usize,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<String>) {
    let t = tracer;
    let traversal_ns: Vec<u64> = outcome.traversals.iter().map(|(ns, _)| *ns).collect();
    let sources: Vec<f64> = outcome.traversals.iter().map(|(_, n)| *n as f64).collect();
    let puts = t.spans.durations("store.put");
    let commits = t.commit_ns();
    let q = &outcome.query_metrics;
    let s = &outcome.store_metrics;
    let ktuples = outcome.source_tuples as f64 / 1000.0;
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let metrics = vec![
        ("workloads.next_tuple_ns", t.next_tuple.ns_per_call(), "ns"),
        (
            "core.source_meta.calls",
            t.source_meta.calls() as f64,
            "count",
        ),
        (
            "core.source_meta.ns_per_call",
            t.source_meta.ns_per_call(),
            "ns",
        ),
        ("core.map_meta.calls", t.map_meta.calls() as f64, "count"),
        ("core.map_meta.ns_per_call", t.map_meta.ns_per_call(), "ns"),
        (
            "core.multiplex_meta.calls",
            t.multiplex_meta.calls() as f64,
            "count",
        ),
        (
            "core.multiplex_meta.ns_per_call",
            t.multiplex_meta.ns_per_call(),
            "ns",
        ),
        ("core.join_meta.calls", t.join_meta.calls() as f64, "count"),
        (
            "core.join_meta.ns_per_call",
            t.join_meta.ns_per_call(),
            "ns",
        ),
        (
            "core.aggregate_meta.calls",
            t.aggregate_meta.calls() as f64,
            "count",
        ),
        (
            "core.aggregate_meta.ns_per_call",
            t.aggregate_meta.ns_per_call(),
            "ns",
        ),
        (
            "core.aggregate_meta.window_tuples",
            ratio(
                t.aggregate_meta.units() as f64,
                t.aggregate_meta.calls() as f64,
            ),
            "count",
        ),
        (
            "core.traversal.p50_us",
            us(quantile(&traversal_ns, 0.5)),
            "us",
        ),
        (
            "core.traversal.p99_us",
            us(quantile(&traversal_ns, 0.99)),
            "us",
        ),
        (
            "core.traversal.sources_mean",
            ratio(sources.iter().sum(), sources.len() as f64),
            "count",
        ),
        (
            "core.persist.encode_ns_per_epoch",
            ratio(t.persist_encode.total_ns() as f64, commits.len() as f64),
            "ns",
        ),
        ("core.persist.bytes", t.persist_encode.units() as f64, "B"),
        (
            "spe.channel.backpressure_stalls",
            sample_sum(q, "genealog_channel_backpressure_stalls_total") as f64,
            "count",
        ),
        (
            "spe.channel.queue_depth_max",
            outcome.sampled.queue_depth_max as f64,
            "count",
        ),
        (
            "spe.operator.tuples_in_total",
            sample_sum(q, "genealog_operator_tuples_in_total") as f64,
            "count",
        ),
        (
            "spe.runtime.threads",
            outcome.sampled.threads_max as f64,
            "count",
        ),
        (
            "spe.runtime.ctx_switches_per_ktuple",
            ratio(outcome.usage.ctx_switches as f64, ktuples),
            "count",
        ),
        (
            "spe.checkpoint.commit_p99_ms",
            ms(quantile(&commits, 0.99)),
            "ms",
        ),
        ("spe.checkpoint.epochs", commits.len() as f64, "count"),
        ("store.open_ms", outcome.store_open_s * 1e3, "ms"),
        ("store.put.calls", puts.len() as f64, "count"),
        ("store.put.p50_us", us(quantile(&puts, 0.5)), "us"),
        ("store.put.p99_us", us(quantile(&puts, 0.99)), "us"),
        (
            "store.bytes_written",
            sample_sum(s, "genealog_checkpoint_store_bytes_written_total") as f64,
            "B",
        ),
        (
            "store.fsync.p99_ms",
            ms(sample_quantile(
                s,
                "genealog_checkpoint_store_fsync_ns",
                0.99,
            )),
            "ms",
        ),
        (
            "store.records",
            sample_sum(s, "genealog_checkpoint_store_records_total") as f64,
            "count",
        ),
        (
            "store.compactions",
            sample_sum(s, "genealog_checkpoint_store_compactions_total") as f64,
            "count",
        ),
    ];

    let mut failures = Vec::new();
    let budget_ns = outcome.wall_s * 1e9 * host_cpus as f64;
    let meta_ns: u64 = t
        .call_stats()
        .iter()
        .filter(|(n, _)| n.starts_with("core."))
        .map(|(_, c)| c.total_ns())
        .sum();
    let busy = [
        ("workloads", t.next_tuple.total_ns() as f64),
        ("core", (meta_ns + traversal_ns.iter().sum::<u64>()) as f64),
        ("spe", outcome.usage.cpu_s * 1e9),
        ("store", puts.iter().sum::<u64>() as f64),
    ];
    for (layer, ns) in busy {
        if ns > budget_ns {
            failures.push(format!(
                "{layer} busy {ns:.0} ns exceeds wall x host_cpus = {budget_ns:.0} ns"
            ));
        }
    }
    let mut bypassed = Vec::new();
    if name == "lr-q2-np" {
        bypassed.push("core.");
    }
    if name != "sg-daily-gl-durable" {
        bypassed.extend(["store.", "spe.checkpoint.", "core.persist."]);
    }
    for (metric, value, _) in &metrics {
        if bypassed.iter().any(|p| metric.starts_with(p)) && *value != 0.0 {
            failures.push(format!(
                "{metric} reads {value} on {name}, which bypasses it"
            ));
        }
    }
    (metrics, failures)
}
