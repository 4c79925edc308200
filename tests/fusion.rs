//! Fusion-equivalence: collapsing a stateless operator chain into one thread must be
//! invisible in the results. A `filter → map → map` pipeline run with
//! `PlannerConfig::fusion` on and off must produce the *identical* sink-tuple stream —
//! same tuples, same order — and, under GeneaLog, identical per-sink-tuple
//! contribution sets. The same holds when the fused chain feeds a key-partitioned
//! aggregate: a fused 4-shard plan equals an unfused, unbatched 1-shard plan.
//!
//! This mirrors `tests/parallel_execution.rs`: GeneaLog tuple *ids* are allocated
//! from a shared atomic counter whose interleaving depends on thread scheduling, so
//! the comparisons use timestamps, payloads and contribution sets — the id is the one
//! meta-attribute that legitimately varies.

use std::collections::BTreeSet;

use proptest::prelude::*;

use genealog::prelude::*;
use genealog_spe::operator::aggregate::WindowView;
use genealog_spe::parallel::Parallelism;
use genealog_spe::provenance::NoProvenance;
use genealog_spe::{PlannerConfig, Query};

type Key = u32;
type Reading = (Key, i64);
/// `(ts_millis, debug-rendered payload)` — the byte-level identity of a sink tuple.
type SinkTuple = (u64, String);
/// A sink tuple plus the canonical set of source tuples contributing to it.
type Lineage = (SinkTuple, BTreeSet<SinkTuple>);

/// Runs `source -> filter -> map -> map -> sink` under GeneaLog with or without
/// fusion and returns the ordered sink stream plus the contribution sets.
fn run_gl_chain(reports: &[(Timestamp, Reading)], fusion: bool) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let mut q = GlQuery::with_config(
        GeneaLog::new(),
        PlannerConfig::default().with_fusion(fusion),
    );
    let src = q.source("readings", VecSource::new(reports.to_vec()));
    let kept = q.filter("keep", src, |r: &Reading| r.1 >= 0);
    let scaled = q.map_one("scale", kept, |r: &Reading| (r.0, r.1 * 3));
    let tagged = q.map_one("tag", scaled, |r: &Reading| (r.0, r.1 + 7));
    let (out, provenance) = attach_provenance_sink(&mut q, "prov", tagged);
    let sink = q.collecting_sink("sink", out);
    q.deploy().unwrap().wait().unwrap();

    let tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    let mut lineage: Vec<Lineage> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
            let sources: BTreeSet<SinkTuple> = a
                .source_records::<Reading>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    (tuples, lineage)
}

/// Runs `source -> filter -> map -> aggregate(shards) -> sink` under GeneaLog,
/// with fusion/batching either both on (the optimised plan) or both off (the
/// per-element seed transport), and returns sink stream plus lineage.
fn run_gl_chain_into_shards(
    reports: &[(Timestamp, Reading)],
    fusion: bool,
    instances: usize,
) -> (Vec<SinkTuple>, Vec<Lineage>) {
    let config = if fusion {
        PlannerConfig::default()
    } else {
        PlannerConfig::default().unbatched().with_fusion(false)
    };
    let plan = GlPlan::with_config(GeneaLog::new(), config);
    let sums = plan
        .source("readings", VecSource::new(reports.to_vec()))
        .filter("keep", |r: &Reading| r.1 % 5 != 0)
        .map_one("scale", |r: &Reading| (r.0, r.1 * 2))
        .aggregate(
            "sum",
            WindowSpec::new(Duration::from_secs(8), Duration::from_secs(4)).unwrap(),
            |r: &Reading| r.0,
            |w: &WindowView<'_, Key, Reading, GlMeta>| {
                (*w.key, w.payloads().map(|p| p.1).sum::<i64>())
            },
            |o: &Reading| o.0,
        )
        .with(Parallelism::shards(instances));
    let (out, provenance) = logical_provenance_sink(sums, "prov");
    let sink = out.collecting_sink("sink");
    plan.deploy().unwrap().wait().unwrap();

    let tuples: Vec<SinkTuple> = sink
        .tuples()
        .iter()
        .map(|t| (t.ts.as_millis(), format!("{:?}", t.data)))
        .collect();
    let mut lineage: Vec<Lineage> = provenance
        .assignments()
        .iter()
        .map(|a| {
            let key = (a.sink_ts.as_millis(), format!("{:?}", a.sink_data));
            let sources: BTreeSet<SinkTuple> = a
                .source_records::<Reading>()
                .iter()
                .map(|r| (r.ts.as_millis(), format!("{:?}", r.data)))
                .collect();
            (key, sources)
        })
        .collect();
    lineage.sort();
    (tuples, lineage)
}

/// Strategy: a timestamp-ordered stream of keyed readings with random keys, values
/// and (possibly repeating) timestamp gaps.
fn keyed_readings() -> impl Strategy<Value = Vec<(Timestamp, Reading)>> {
    proptest::collection::vec((0u32..8, 0u64..200, 0u64..5), 1..80).prop_map(|steps| {
        let mut ts = 0u64;
        steps
            .into_iter()
            .map(|(key, value, gap)| {
                ts += gap; // non-decreasing; repeated timestamps exercise tie-breaking
                (Timestamp::from_secs(ts), (key, value as i64 - 100))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole guarantee: for random streams, the fused stateless chain
    /// produces the identical sink stream and identical GeneaLog contribution sets
    /// as the thread-per-operator plan.
    #[test]
    fn fused_chain_is_equivalent_to_unfused(reports in keyed_readings()) {
        let (tuples_unfused, lineage_unfused) = run_gl_chain(&reports, false);
        let (tuples_fused, lineage_fused) = run_gl_chain(&reports, true);
        prop_assert_eq!(tuples_unfused, tuples_fused);
        prop_assert_eq!(lineage_unfused, lineage_fused);
    }

    /// Fusion composes with sharding and batching: a fused, batched, 4-shard plan
    /// equals the unfused, unbatched, single-instance plan — the whole optimisation
    /// stack is invisible in results and provenance.
    #[test]
    fn fused_sharded_plan_equals_unbatched_single_instance(reports in keyed_readings()) {
        let (tuples_base, lineage_base) = run_gl_chain_into_shards(&reports, false, 1);
        let (tuples_opt, lineage_opt) = run_gl_chain_into_shards(&reports, true, 4);
        prop_assert_eq!(tuples_base, tuples_opt);
        prop_assert_eq!(lineage_base, lineage_opt);
    }
}

/// NP smoke check (no provenance): fused and unfused plans agree tuple-for-tuple on
/// a deterministic input, including a flat-map stage producing 0..2 outputs per
/// input tuple.
#[test]
fn fused_flat_map_chain_matches_unfused() {
    let run = |fusion: bool| {
        let mut q = Query::with_config(NoProvenance, PlannerConfig::default().with_fusion(fusion));
        let src = q.source(
            "numbers",
            VecSource::with_period((0..100i64).collect(), 250),
        );
        let kept = q.filter("keep", src, |x| x % 3 != 0);
        let expanded = q.map("expand", kept, |x| {
            if x % 2 == 0 {
                vec![*x, -*x]
            } else {
                vec![]
            }
        });
        let shifted = q.map_one("shift", expanded, |x| x + 1);
        let out = q.collecting_sink("sink", shifted);
        q.deploy().unwrap().wait().unwrap();
        out.tuples()
            .iter()
            .map(|t| (t.ts.as_millis(), t.data))
            .collect::<Vec<_>>()
    };
    let unfused = run(false);
    let fused = run(true);
    assert!(!fused.is_empty());
    assert_eq!(unfused, fused);
}

/// A physical plan's shape as the runtime sees it: node count, edge list and
/// operator-thread count.
type Shape = (usize, Vec<(usize, usize)>, usize);

/// One of the paper's query builders (`genealog_workloads::queries::build_q*`).
type BuildQuery<P, I, A> = fn(
    &mut Query<P>,
    StreamRef<I, <P as ProvenanceSystem>::Meta>,
) -> StreamRef<A, <P as ProvenanceSystem>::Meta>;

/// Builds `source -> query -> sink` and returns its shape. With `unfold`, the
/// query's output instead feeds the §5.1 single-stream unfolder tail: a
/// Multiplex whose branches reach a sink directly and through a meta-aware Map.
fn query_shape<P, G, A>(
    provenance: P,
    config: PlannerConfig,
    generator: G,
    build: BuildQuery<P, G::Item, A>,
    unfold: bool,
) -> Shape
where
    P: ProvenanceSystem,
    G: SourceGenerator,
    A: genealog_spe::tuple::TupleData,
{
    let mut q = Query::with_config(provenance, config);
    let source = q.source("source", generator);
    let alerts = build(&mut q, source);
    if unfold {
        let mut branches = q.multiplex("su-mux", alerts, 2).into_iter();
        let passthrough = branches.next().expect("two branches");
        let to_unfold = branches.next().expect("two branches");
        let _ = q.collecting_sink("data-sink", passthrough);
        let unfolded = q.map_with_meta("su-unfold", to_unfold, |t| vec![t.data.clone()]);
        let _ = q.collecting_sink("provenance-sink", unfolded);
    } else {
        let _ = q.collecting_sink("data-sink", alerts);
    }
    (q.node_count(), q.edges().to_vec(), q.plan_facts().threads)
}

/// Asserts that the default (fused) and the unfused configuration build the
/// same plan for one query.
fn assert_default_plan_is_unfused<P, G, A>(
    label: &str,
    provenance: P,
    generator: impl Fn() -> G,
    build: BuildQuery<P, G::Item, A>,
    unfold: bool,
) where
    P: ProvenanceSystem,
    G: SourceGenerator,
    A: genealog_spe::tuple::TupleData,
{
    let unfused = PlannerConfig::default().with_fusion(false);
    assert_eq!(
        query_shape(
            provenance.clone(),
            PlannerConfig::default(),
            generator(),
            build,
            unfold
        ),
        query_shape(provenance, unfused, generator(), build, unfold),
        "{label}: the default plan differs from the unfused plan"
    );
}

/// `Query::new` fuses by default. On the paper's queries no two stateless
/// operators are adjacent, so the default plan of Q1–Q4 — under NP, and under GL
/// with the unfolder tail — is the unfused plan: same nodes, same edges, same
/// threads.
#[test]
fn default_fusion_leaves_q1_to_q4_plans_unchanged() {
    use genealog_workloads::linear_road::{LinearRoadConfig, LinearRoadGenerator};
    use genealog_workloads::queries::{build_q1, build_q2, build_q3, build_q4};
    use genealog_workloads::smart_grid::{SmartGridConfig, SmartGridGenerator};

    let lr = || LinearRoadGenerator::new(LinearRoadConfig::default());
    let sg = || SmartGridGenerator::new(SmartGridConfig::default());
    assert_default_plan_is_unfused("Q1 NP", NoProvenance, lr, build_q1, false);
    assert_default_plan_is_unfused("Q2 NP", NoProvenance, lr, build_q2, false);
    assert_default_plan_is_unfused("Q3 NP", NoProvenance, sg, build_q3, false);
    assert_default_plan_is_unfused("Q4 NP", NoProvenance, sg, build_q4, false);
    assert_default_plan_is_unfused("Q1 GL", GeneaLog::new(), lr, build_q1, true);
    assert_default_plan_is_unfused("Q2 GL", GeneaLog::new(), lr, build_q2, true);
    assert_default_plan_is_unfused("Q3 GL", GeneaLog::new(), sg, build_q3, true);
    assert_default_plan_is_unfused("Q4 GL", GeneaLog::new(), sg, build_q4, true);
}
