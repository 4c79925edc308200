//! Bench-side wrappers that time calls into each layer's public traits from
//! outside: the source generator (`workloads`), the GeneaLog provenance hooks
//! and window persister (`core`) and the durable state backend (`store`).
//! Each delegates every call to the real implementation; only traced runs use
//! them.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use genealog::{GeneaLog, GlMeta, GlWindowPersister};
use genealog_spe::operator::source::SourceGenerator;
use genealog_spe::persist::{PersistCodec, WindowPersister};
use genealog_spe::provenance::{ProvenanceSystem, RemoteContext, SourceContext};
use genealog_spe::state::{Snapshot, StateBackend};
use genealog_spe::tuple::{GTuple, TupleData};
use genealog_spe::window::WindowStoreSnapshot;
use genealog_spe::Timestamp;

use crate::trace::{CallStat, SpanLog};

/// Everything a traced run records.
pub struct Tracer {
    /// `SourceGenerator::next_tuple` calls.
    pub next_tuple: CallStat,
    /// GeneaLog meta construction, one record per hook.
    pub source_meta: CallStat,
    pub map_meta: CallStat,
    pub multiplex_meta: CallStat,
    pub join_meta: CallStat,
    /// Units are the window tuples the aggregate chained.
    pub aggregate_meta: CallStat,
    /// `GlWindowPersister::encode`; units are the encoded bytes.
    pub persist_encode: CallStat,
    /// Deploy, run, traversal and store-put spans.
    pub spans: SpanLog,
    /// Per epoch, the start of its first store `put`.
    epoch_started: Mutex<HashMap<u64, Instant>>,
    /// First put to completion of every completed epoch, in nanoseconds.
    commit_ns: Mutex<Vec<u64>>,
}

impl Tracer {
    /// A tracer with nothing recorded.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            next_tuple: CallStat::default(),
            source_meta: CallStat::default(),
            map_meta: CallStat::default(),
            multiplex_meta: CallStat::default(),
            join_meta: CallStat::default(),
            aggregate_meta: CallStat::default(),
            persist_encode: CallStat::default(),
            spans: SpanLog::new(),
            epoch_started: Mutex::new(HashMap::new()),
            commit_ns: Mutex::new(Vec::new()),
        })
    }

    /// The aggregated per-call records, named as in the trace file.
    pub fn call_stats(&self) -> [(&'static str, &CallStat); 7] {
        [
            ("workloads.next_tuple", &self.next_tuple),
            ("core.source_meta", &self.source_meta),
            ("core.map_meta", &self.map_meta),
            ("core.multiplex_meta", &self.multiplex_meta),
            ("core.join_meta", &self.join_meta),
            ("core.aggregate_meta", &self.aggregate_meta),
            ("core.persist.encode", &self.persist_encode),
        ]
    }

    /// Commit latencies of the completed epochs, in nanoseconds.
    pub fn commit_ns(&self) -> Vec<u64> {
        self.commit_ns
            .lock()
            .expect("no thread panics while holding the commit log")
            .clone()
    }
}

/// Times every `next_tuple` call of the wrapped generator.
pub struct TimedGenerator<G> {
    inner: G,
    tracer: Arc<Tracer>,
}

impl<G> TimedGenerator<G> {
    /// Wraps `inner`.
    pub fn new(inner: G, tracer: Arc<Tracer>) -> Self {
        TimedGenerator { inner, tracer }
    }
}

impl<G: SourceGenerator> SourceGenerator for TimedGenerator<G> {
    type Item = G::Item;

    fn next_tuple(&mut self) -> Option<(Timestamp, G::Item)> {
        let start = Instant::now();
        let next = self.inner.next_tuple();
        self.tracer.next_tuple.record(start, 0);
        next
    }
}

/// GeneaLog with every meta hook timed. `Meta` stays `GlMeta`, so the query
/// builders, unfolders and persisters type-check unchanged.
#[derive(Clone)]
pub struct TracedGl {
    inner: GeneaLog,
    tracer: Arc<Tracer>,
}

impl TracedGl {
    /// Wraps a fresh `GeneaLog`.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        TracedGl {
            inner: GeneaLog::new(),
            tracer,
        }
    }
}

impl ProvenanceSystem for TracedGl {
    type Meta = GlMeta;

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn source_meta<T: TupleData>(&self, ctx: &SourceContext, data: &T) -> GlMeta {
        let start = Instant::now();
        let meta = self.inner.source_meta(ctx, data);
        self.tracer.source_meta.record(start, 1);
        meta
    }

    fn map_meta<I: TupleData>(&self, input: &Arc<GTuple<I, GlMeta>>) -> GlMeta {
        let start = Instant::now();
        let meta = self.inner.map_meta(input);
        self.tracer.map_meta.record(start, 1);
        meta
    }

    fn multiplex_meta<I: TupleData>(&self, input: &Arc<GTuple<I, GlMeta>>) -> GlMeta {
        let start = Instant::now();
        let meta = self.inner.multiplex_meta(input);
        self.tracer.multiplex_meta.record(start, 1);
        meta
    }

    fn join_meta<L: TupleData, R: TupleData>(
        &self,
        left: &Arc<GTuple<L, GlMeta>>,
        right: &Arc<GTuple<R, GlMeta>>,
    ) -> GlMeta {
        let start = Instant::now();
        let meta = self.inner.join_meta(left, right);
        self.tracer.join_meta.record(start, 2);
        meta
    }

    fn aggregate_meta<I: TupleData>(&self, window: &[Arc<GTuple<I, GlMeta>>]) -> GlMeta {
        let start = Instant::now();
        let meta = self.inner.aggregate_meta(window);
        self.tracer
            .aggregate_meta
            .record(start, window.len() as u64);
        meta
    }

    fn remote_meta(&self, ctx: &RemoteContext) -> GlMeta {
        self.inner.remote_meta(ctx)
    }

    fn detach_meta(&self, meta: &GlMeta) -> GlMeta {
        self.inner.detach_meta(meta)
    }
}

/// `GlWindowPersister` with `encode` timed and its output size counted.
pub struct TracedPersister<K, T> {
    inner: GlWindowPersister<K, T, T>,
    tracer: Arc<Tracer>,
}

impl<K, T> TracedPersister<K, T> {
    /// Wraps a fresh persister.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        TracedPersister {
            inner: GlWindowPersister::new(),
            tracer,
        }
    }
}

impl<K, T> WindowPersister<K, T, GlMeta> for TracedPersister<K, T>
where
    K: PersistCodec + Ord + Clone,
    T: PersistCodec + TupleData,
{
    fn encode(&self, snapshot: &WindowStoreSnapshot<K, T, GlMeta>) -> Option<Vec<u8>> {
        let start = Instant::now();
        let bytes = self.inner.encode(snapshot);
        let len = bytes.as_ref().map_or(0, |b| b.len() as u64);
        self.tracer.persist_encode.record(start, len);
        bytes
    }

    fn decode(&self, bytes: &[u8]) -> Option<WindowStoreSnapshot<K, T, GlMeta>> {
        self.inner.decode(bytes)
    }
}

/// A state backend that records a span for every `put` and the commit latency
/// of every epoch, delegating everything to the wrapped backend.
pub struct TracedBackend {
    inner: Arc<dyn StateBackend>,
    tracer: Arc<Tracer>,
}

impl TracedBackend {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn StateBackend>, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(TracedBackend { inner, tracer })
    }
}

impl fmt::Debug for TracedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TracedBackend")
            .field("inner", &self.inner)
            .finish()
    }
}

impl StateBackend for TracedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn put(&self, participant: &str, epoch: u64, snapshot: Snapshot) {
        let start = Instant::now();
        let len = snapshot.serialized_len() as u64;
        self.inner.put(participant, epoch, snapshot);
        self.tracer
            .epoch_started
            .lock()
            .expect("no thread panics while holding the epoch map")
            .entry(epoch)
            .or_insert(start);
        self.tracer
            .spans
            .record("store.put", Some("run"), start, len);
    }

    fn get(&self, participant: &str, epoch: u64) -> Option<Snapshot> {
        self.inner.get(participant, epoch)
    }

    fn remove_after(&self, epoch: u64) {
        self.inner.remove_after(epoch)
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }

    fn serialized_bytes(&self) -> usize {
        self.inner.serialized_bytes()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn note_complete_epoch(&self, epoch: u64) {
        self.inner.note_complete_epoch(epoch);
        let started = self
            .tracer
            .epoch_started
            .lock()
            .expect("no thread panics while holding the epoch map")
            .remove(&epoch);
        if let Some(started) = started {
            self.tracer
                .commit_ns
                .lock()
                .expect("no thread panics while holding the commit log")
                .push(started.elapsed().as_nanos() as u64);
        }
    }

    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
}
