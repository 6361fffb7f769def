//! The traced pass's spans, the per-layer replays, and the per-layer
//! metrics computed from the written-out trace.
//!
//! Spans are `s2s_obs::SpanRecord`s, written with `render_jsonl_records`
//! and read back with `parse_jsonl`. The benchmark's own spans carry
//! their interval as `start_ns`/`end_ns` attributes (nanoseconds since
//! the pass began) and the op they belong to as `op`; the engine's
//! `with_tracing()` tree of each query is attached under the
//! benchmark's `S2s::query` span with `origin = engine`.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use s2s::core::extract::{extract_one, ExtractorManager, Strategy};
use s2s::core::instance::{self, GenerateOptions};
use s2s::core::mapping::MappingModule;
use s2s::core::source::SourceRegistry;
use s2s::core::{query, BootstrapReport, ResilienceContext, RuleCache};
use s2s::netsim::{ChangeKind, CostModel, FailureModel, WorkerPool};
use s2s::obs::{SpanKind, SpanRecord, Trace};
use s2s::owl::AttributePath;
use s2s::S2s;

use crate::drive::{Reference, Run};
use crate::stats::{mean, median, ratio, Metric};
use crate::workload::{self, Inputs, Op, Plan};

/// Traced reads replayed layer by layer.
const REPLAYED_READS: usize = 24;

/// `mutate_source` probes the traced pass records on workloads without a
/// write schedule.
const TRACED_PROBE_WRITES: usize = 64;

/// Mapping entries each mapping-lookup loop scans in total, at most:
/// the calls take nanoseconds on small tables, so they are repeated.
const LOOKUP_BUDGET: usize = 400_000;

/// An in-memory span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    base: u64,
    records: Vec<SpanRecord>,
}

impl Recorder {
    /// A log whose span ids start after `base`, timed from `origin`.
    pub fn new(origin: Instant, base: u64) -> Self {
        Recorder { origin, base, records: Vec::new() }
    }

    /// Opens a span whose interval is filled in by [`Recorder::close`].
    pub fn open(&mut self, parent: Option<u64>, kind: SpanKind, name: &str, op: u64) -> u64 {
        let id = self.base + self.records.len() as u64 + 1;
        self.records.push(SpanRecord {
            id,
            parent,
            kind: kind.as_str().to_string(),
            name: name.to_string(),
            outcome: "ok".to_string(),
            sim_us: 0,
            wall_us: 0,
            attrs: vec![("op".into(), op.to_string())],
        });
        id
    }

    /// Sets the interval and attributes of an open span.
    pub fn close(&mut self, id: u64, start: Instant, end: Instant, attrs: Vec<(&str, String)>) {
        let origin = self.origin;
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos().to_string();
        let record = &mut self.records[(id - self.base - 1) as usize];
        record.wall_us = (end - start).as_micros() as u64;
        record.attrs.push(("start_ns".into(), ns(start)));
        record.attrs.push(("end_ns".into(), ns(end)));
        record.attrs.extend(attrs.into_iter().map(|(k, v)| (k.to_string(), v)));
    }

    /// Records a finished span.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        parent: Option<u64>,
        kind: SpanKind,
        name: &str,
        op: u64,
        start: Instant,
        end: Instant,
        attrs: Vec<(&str, String)>,
    ) -> u64 {
        let id = self.open(parent, kind, name, op);
        self.close(id, start, end, attrs);
        id
    }

    /// Attaches the engine's trace tree of one query under `parent`.
    pub fn attach(&mut self, parent: u64, op: u64, trace: &Trace) {
        let offset = self.base + self.records.len() as u64;
        for mut r in s2s::obs::export::to_records(trace) {
            r.id += offset;
            r.parent = Some(r.parent.map_or(parent, |p| p + offset));
            r.attrs.push(("op".into(), op.to_string()));
            r.attrs.push(("origin".into(), "engine".into()));
            self.records.push(r);
        }
    }

    /// Takes the recorded spans out of the log.
    pub fn take_records(&mut self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Everything the replays need: the workload's mapping module and
/// source registry rebuilt by the benchmark, and the extraction
/// context the engine would use.
struct Replayer<'a> {
    inputs: &'a Inputs,
    module: MappingModule,
    registry: SourceRegistry,
    rules: RuleCache,
    pool: WorkerPool,
    resilience: ResilienceContext,
    strategy: Strategy,
    pushdown: bool,
    state: usize,
}

impl<'a> Replayer<'a> {
    /// Rebuilds the replay state of a workload.
    pub fn new(
        inputs: &'a Inputs,
        reports: &[BootstrapReport],
        strategy: Strategy,
        pushdown: bool,
    ) -> Self {
        let (module, registry) = workload::replay_state(inputs, reports);
        Replayer {
            inputs,
            module,
            registry,
            rules: RuleCache::new(),
            pool: WorkerPool::new(strategy.workers()),
            resilience: ResilienceContext::default(),
            strategy,
            pushdown,
            state: 0,
        }
    }

    /// Mappings in the rebuilt module.
    pub fn table_size(&self) -> usize {
        self.module.len()
    }

    /// Replays one read through each layer's public entry point in
    /// engine order, checking that the replayed answer equals the
    /// twin's.
    pub fn replay(
        &mut self,
        rec: &mut Recorder,
        op: u64,
        text: &str,
        expected: Option<&workload::Answer>,
        state: usize,
    ) -> Result<(), String> {
        if state != self.state {
            self.registry
                .apply_mutation(
                    &"DB".into(),
                    self.inputs.versions[state].clone(),
                    ChangeKind::RowUpdate,
                    vec!["price".into()],
                )
                .map_err(|e| e.to_string())?;
            self.state = state;
        }
        let ontology = &self.inputs.ontology;
        let began = Instant::now();
        let root = rec.open(None, SpanKind::Query, "op.replay", op);
        let layer = |l: &str| vec![("layer", l.to_string())];

        let s = Instant::now();
        let parsed = query::parse(text).map_err(|e| e.to_string())?;
        rec.add(Some(root), SpanKind::Parse, "query::parse", op, s, Instant::now(), layer("query"));

        let s = Instant::now();
        let plan = query::plan(&parsed, ontology).map_err(|e| e.to_string())?;
        rec.add(Some(root), SpanKind::Plan, "query::plan", op, s, Instant::now(), layer("query"));

        let reps =
            (LOOKUP_BUDGET / (self.module.len() * plan.attributes.len()).max(1)).clamp(1, 200);
        let calls = (reps * plan.attributes.len()).to_string();
        let s = Instant::now();
        for _ in 0..reps {
            for p in &plan.attributes {
                black_box(self.module.contains(black_box(p)));
            }
        }
        let lookup = vec![("layer", "mapping".to_string()), ("calls", calls.clone())];
        rec.add(
            Some(root),
            SpanKind::Map,
            "MappingModule::contains",
            op,
            s,
            Instant::now(),
            lookup,
        );
        let s = Instant::now();
        for _ in 0..reps {
            for p in &plan.attributes {
                black_box(self.module.mappings_for(black_box(p)).len());
            }
        }
        let lookup = vec![("layer", "mapping".to_string()), ("calls", calls)];
        rec.add(
            Some(root),
            SpanKind::Map,
            "MappingModule::mappings_for",
            op,
            s,
            Instant::now(),
            lookup,
        );

        let mapped: Vec<AttributePath> =
            plan.attributes.iter().filter(|p| self.module.contains(p)).cloned().collect();
        let s = Instant::now();
        let schemas =
            ExtractorManager::obtain_schemas(&self.module, &mapped).map_err(|e| e.to_string())?;
        rec.add(
            Some(root),
            SpanKind::Map,
            "ExtractorManager::obtain_schemas",
            op,
            s,
            Instant::now(),
            vec![("layer", "mapping".into()), ("schemas", schemas.len().to_string())],
        );

        let schemas = if self.pushdown && (plan.condition.is_some() || plan.projection.is_some()) {
            let s = Instant::now();
            let (schemas, _) = s2s::core::plan_pushdown(
                &self.registry,
                &schemas,
                plan.condition.as_ref(),
                plan.projection.as_deref(),
                &self.rules,
            );
            rec.add(
                Some(root),
                SpanKind::Pushdown,
                "planner::plan_pushdown",
                op,
                s,
                Instant::now(),
                layer("planner"),
            );
            schemas
        } else {
            schemas
        };

        let s = Instant::now();
        let report = ExtractorManager::extract_batched_traced(
            &self.registry,
            schemas.clone(),
            self.strategy,
            &self.resilience,
            &self.rules,
            false,
            &self.pool,
            None,
        );
        rec.add(
            Some(root),
            SpanKind::Batch,
            "ExtractorManager::extract_batched",
            op,
            s,
            Instant::now(),
            vec![("layer", "extract".into()), ("values", report.value_count().to_string())],
        );
        if !report.failures.is_empty() {
            return Err(format!("replay of {text}: {} failed tasks", report.failures.len()));
        }

        let s = Instant::now();
        let instances =
            instance::generate_with_options(ontology, &plan, &report, GenerateOptions::default());
        rec.add(
            Some(root),
            SpanKind::Query,
            "instance::generate_with_options",
            op,
            s,
            Instant::now(),
            layer("instance"),
        );
        let got = workload::answer_of(&instances);
        if expected.is_some_and(|e| *e != got) {
            return Err(format!("replay of {text}: answer differs from the twin's"));
        }

        let fresh = RuleCache::new();
        for schema in &schemas {
            let rule = schema.mapping.rule();
            let s = Instant::now();
            fresh.get_or_compile(rule).map_err(|e| e.to_string())?;
            rec.add(
                Some(root),
                SpanKind::Rule,
                "RuleCache::get_or_compile",
                op,
                s,
                Instant::now(),
                vec![("layer", "rules".into()), ("language", rule.language().into())],
            );
        }
        for schema in &schemas {
            let runs = std::iter::once(("run", &schema.mapping))
                .chain(schema.baseline.as_ref().map(|b| ("baseline", b)));
            for (variant, mapping) in runs {
                let s = Instant::now();
                let (values, _) =
                    extract_one(&self.registry, mapping).map_err(|e| e.to_string())?;
                rec.add(
                    Some(root),
                    SpanKind::Rule,
                    "extract::extract_one",
                    op,
                    s,
                    Instant::now(),
                    vec![
                        ("layer", "wrapper".into()),
                        ("language", mapping.rule().language().into()),
                        ("rule", variant.into()),
                        ("values", values.len().to_string()),
                    ],
                );
            }
        }
        rec.close(root, began, Instant::now(), vec![]);
        Ok(())
    }
}

/// Bootstraps every source of `inputs` on a fresh engine, one phase at
/// a time, recording `bootstrap_source` and `apply_bootstrap` spans.
fn replay_bootstrap(rec: &mut Recorder, inputs: &Inputs) -> Result<(), String> {
    let mut s2s = S2s::new(inputs.ontology.clone());
    for (id, connection) in &inputs.sources {
        s2s.register_remote_source(
            id,
            connection.clone(),
            CostModel::wan(),
            FailureModel::reliable(),
        )
        .map_err(|e| e.to_string())?;
    }
    let op = 1u64 << 48;
    let began = Instant::now();
    let root = rec.open(None, SpanKind::Query, "op.bootstrap", op);
    for (id, _) in &inputs.sources {
        let s = Instant::now();
        let mut report = s2s.bootstrap_source(id).map_err(|e| e.to_string())?;
        rec.add(
            Some(root),
            SpanKind::Query,
            "S2s::bootstrap_source",
            op,
            s,
            Instant::now(),
            vec![
                ("layer", "bootstrap".into()),
                ("candidates", report.candidates.len().to_string()),
                ("conflicts", report.conflicts.len().to_string()),
            ],
        );
        let s = Instant::now();
        let applied = s2s.apply_bootstrap(&mut report).map_err(|e| e.to_string())?;
        rec.add(
            Some(root),
            SpanKind::Query,
            "S2s::apply_bootstrap",
            op,
            s,
            Instant::now(),
            vec![("layer", "bootstrap".into()), ("applied", applied.to_string())],
        );
    }
    rec.close(root, began, Instant::now(), vec![]);
    Ok(())
}

/// Times `count` probe writes on an engine that has no write schedule.
fn record_probe_writes(rec: &mut Recorder, engine: &S2s, inputs: &Inputs, count: usize) {
    for k in 0..count {
        let op = (1u64 << 47) | k as u64;
        let start = Instant::now();
        let receipt = workload::probe_write(engine, inputs, k);
        let end = Instant::now();
        let root = rec.add(None, SpanKind::Query, "op.write", op, start, end, vec![]);
        rec.add(
            Some(root),
            SpanKind::Query,
            "S2s::mutate_source",
            op,
            start,
            end,
            vec![
                ("layer", "middleware".into()),
                ("dropped_results", receipt.dropped_results.to_string()),
                ("dropped_extraction", receipt.dropped_extraction.to_string()),
            ],
        );
    }
}

/// The reads of client 0's traced ops, as `(text, version)` pairs.
fn traced_reads(run: &Run) -> Vec<(usize, usize)> {
    run.clients[0]
        .samples
        .iter()
        .filter(|s| s.measured)
        .filter_map(|s| match s.op {
            Op::Read(t) => Some((t, s.state)),
            Op::Mutate(_) => None,
        })
        .collect()
}

/// Replays up to `limit` traced reads of `run`.
fn replay_reads(
    rec: &mut Recorder,
    replayer: &mut Replayer,
    plan: &Plan,
    reference: &Reference,
    run: &Run,
    limit: usize,
) -> Result<(), String> {
    for (k, (t, state)) in traced_reads(run).into_iter().take(limit).enumerate() {
        let op = (1u64 << 46) | k as u64;
        replayer.replay(rec, op, &plan.texts[t], reference.get(&(t, state)), state)?;
    }
    Ok(())
}

/// A parsed span with its interval, when the benchmark recorded one.
struct Node<'a> {
    record: &'a SpanRecord,
    interval: Option<(u64, u64)>,
    children: Vec<usize>,
}

impl Node<'_> {
    fn attr(&self, key: &str) -> Option<&str> {
        self.record.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn engine(&self) -> bool {
        self.attr("origin") == Some("engine")
    }

    fn duration_ns(&self) -> u64 {
        match self.interval {
            Some((s, e)) => e.saturating_sub(s),
            None => self.record.wall_us * 1000,
        }
    }
}

/// Self time of every span, in microseconds: its duration minus the
/// part of it its children cover. Children with an interval are merged
/// as intervals; the engine's spans carry only a duration, so they
/// count as that much covered time.
fn self_times(nodes: &[Node]) -> Vec<f64> {
    nodes
        .iter()
        .map(|n| {
            let mut covered = 0u64;
            let mut intervals: Vec<(u64, u64)> = Vec::new();
            for &c in &n.children {
                match nodes[c].interval {
                    Some(iv) if n.interval.is_some() => intervals.push(iv),
                    _ => covered += nodes[c].duration_ns(),
                }
            }
            intervals.sort_unstable();
            let mut end = 0u64;
            for (s, e) in intervals {
                let s = s.max(end);
                if e > s {
                    covered += e - s;
                    end = e;
                }
            }
            n.duration_ns().saturating_sub(covered) as f64 / 1000.0
        })
        .collect()
}

fn nodes(records: &[SpanRecord]) -> Vec<Node<'_>> {
    let index: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut nodes: Vec<Node> = records
        .iter()
        .map(|r| {
            let get = |k: &str| {
                r.attrs.iter().find(|(key, _)| key == k).and_then(|(_, v)| v.parse::<u64>().ok())
            };
            let interval = get("start_ns").zip(get("end_ns"));
            Node { record: r, interval, children: Vec::new() }
        })
        .collect();
    for (i, r) in records.iter().enumerate() {
        if let Some(p) = r.parent.and_then(|p| index.get(&p)) {
            nodes[*p].children.push(i);
        }
    }
    nodes
}

/// Inputs of the per-layer metrics besides the spans.
pub struct LayerInputs<'a> {
    /// The traced pass.
    pub traced: &'a Run,
    /// Median read latency of the untraced timed pass, ms.
    pub untraced_p50_ms: f64,
    /// Mappings in the rebuilt module.
    pub table_size: usize,
}

/// The per-layer metric names and units, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("query.plan_us", "us"),
    ("engine.plan_cache.hit_ratio", "ratio"),
    ("engine.result_cache.hit_ratio", "ratio"),
    ("engine.result_cache.invalidations_per_mutation", "count"),
    ("mapping.table_size", "count"),
    ("mapping.contains_ns", "ns"),
    ("mapping.mappings_for_ns", "ns"),
    ("mapping.obtain_schemas_us", "us"),
    ("planner.plan_pushdown_us", "us"),
    ("planner.pushed_predicates_per_query", "count"),
    ("planner.pruned_sources_per_query", "count"),
    ("planner.wire_bytes_saved_per_query", "B"),
    ("extract.batched_us", "us"),
    ("extract.batches_per_query", "count"),
    ("extract.tasks_per_query", "count"),
    ("extract.failed_tasks", "count"),
    ("rules.hit_ratio", "ratio"),
    ("rules.compile_us", "us"),
    ("wrapper.sql_us", "us"),
    ("wrapper.xpath_us", "us"),
    ("wrapper.webl_us", "us"),
    ("wrapper.regex_us", "us"),
    ("wrapper.values_per_call", "count"),
    ("wrapper.sql_baseline_us", "us"),
    ("wrapper.xpath_baseline_us", "us"),
    ("wrapper.webl_baseline_us", "us"),
    ("wrapper.regex_baseline_us", "us"),
    ("netsim.pool.jobs_per_query", "count"),
    ("netsim.pool.queue_wait_us_per_query", "us"),
    ("netsim.pool.peak_queue_depth", "count"),
    ("view.hit_ratio", "ratio"),
    ("view.refreshes_per_mutation", "count"),
    ("view.full_refreshes", "count"),
    ("view.feed_polls_per_mutation", "count"),
    ("view.staleness_max_ms", "ms"),
    ("cache.extraction.hit_ratio", "ratio"),
    ("cache.extraction.evictions", "count"),
    ("middleware.mutate_us", "us"),
    ("middleware.dropped_results_per_mutation", "count"),
    ("middleware.dropped_extraction_per_mutation", "count"),
    ("instance.count_per_query", "count"),
    ("instance.generate_us", "us"),
    ("instance.render_owl_us", "us"),
    ("instance.owl_bytes_per_query", "B"),
    ("bootstrap.introspect_us_per_source", "us"),
    ("bootstrap.apply_us_per_source", "us"),
    ("bootstrap.candidates_per_source", "count"),
    ("bootstrap.conflicts", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.self.query_us", "us"),
    ("obs.self.parse_us", "us"),
    ("obs.self.plan_us", "us"),
    ("obs.self.map_us", "us"),
    ("obs.self.pushdown_us", "us"),
    ("obs.self.batch_us", "us"),
    ("obs.self.attempt_us", "us"),
    ("obs.self.rule_us", "us"),
    ("host.calibration_ms", "ms"),
];

fn hit_ratio(before: s2s::core::cache::CacheStats, after: s2s::core::cache::CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    ratio(hits as f64, (hits + after.misses - before.misses) as f64)
}

/// Computes every per-layer metric from the parsed span records and
/// the traced pass's counters.
pub fn metrics(records: &[SpanRecord], li: &LayerInputs) -> Vec<Metric> {
    let nodes = nodes(records);
    let selfs = self_times(&nodes);
    // Self times of the benchmark's spans by call name (and, for the
    // wrappers, by language and rule variant).
    let mut calls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut per_call: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut engine_self: BTreeMap<&str, f64> = BTreeMap::new();
    let (mut root_wall, mut root_unattributed) = (0.0, 0.0);
    let (mut values, mut candidates, mut conflicts) = (Vec::new(), Vec::new(), 0.0);
    let (mut dropped_results, mut dropped_extraction) = (Vec::new(), Vec::new());
    let mut batches = 0.0;
    for (n, &self_us) in nodes.iter().zip(&selfs) {
        let name = n.record.name.as_str();
        if n.engine() {
            *engine_self.entry(n.record.kind.as_str()).or_default() += self_us;
            if n.record.kind == "batch" {
                batches += 1.0;
            }
            if n.record.kind == "query" {
                let wall = n.record.wall_us as f64;
                let children: f64 =
                    n.children.iter().map(|&c| nodes[c].record.wall_us as f64).sum();
                root_wall += wall;
                root_unattributed += (wall - children).max(0.0);
            }
            continue;
        }
        let num = |k: &str| n.attr(k).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
        let key = match name {
            "extract::extract_one" => {
                values.push(num("values"));
                format!(
                    "wrapper.{}{}_us",
                    n.attr("language").unwrap_or("?"),
                    if n.attr("rule") == Some("baseline") { "_baseline" } else { "" }
                )
            }
            "MappingModule::contains" | "MappingModule::mappings_for" => {
                per_call.entry(name.to_string()).or_default().push(self_us * 1000.0 / num("calls"));
                continue;
            }
            "S2s::bootstrap_source" => {
                candidates.push(num("candidates"));
                conflicts += num("conflicts");
                name.to_string()
            }
            "S2s::mutate_source" => {
                dropped_results.push(num("dropped_results"));
                dropped_extraction.push(num("dropped_extraction"));
                name.to_string()
            }
            _ => name.to_string(),
        };
        calls.entry(key).or_default().push(self_us);
    }
    let call = |name: &str| calls.get(name).map(|v| mean(v)).unwrap_or(0.0);
    let lookup = |name: &str| per_call.get(name).map(|v| median(v)).unwrap_or(0.0);

    let run = li.traced;
    let (b, a) = (&run.before, &run.after);
    let reads: Vec<_> = run.measured_reads().map(|(_, r)| r).collect();
    let n_reads = reads.len() as f64;
    let per_read = |f: &dyn Fn(&crate::drive::Read) -> f64| {
        mean(&reads.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let mutations =
        run.samples().filter(|s| s.measured && matches!(s.op, Op::Mutate(_))).count() as f64;
    let traced_p50 = median(&run.measured_reads().map(|(s, _)| s.scaled_ms).collect::<Vec<_>>());
    let views = (
        a.views.hits - b.views.hits,
        a.views.refreshes - b.views.refreshes,
        a.views.full_refreshes - b.views.full_refreshes,
        a.views.feed_polls - b.views.feed_polls,
    );
    let staleness =
        reads.iter().map(|r| r.stats.view_staleness.as_micros() as f64 / 1e3).fold(0.0, f64::max);
    let engine_per_read =
        |kind: &str| ratio(engine_self.get(kind).copied().unwrap_or(0.0), n_reads);

    let values_of = |name: &str| -> f64 {
        match name {
            "query.parse_us" => call("query::parse"),
            "query.plan_us" => call("query::plan"),
            "engine.plan_cache.hit_ratio" => hit_ratio(b.plan, a.plan),
            "engine.result_cache.hit_ratio" => hit_ratio(b.result, a.result),
            "engine.result_cache.invalidations_per_mutation" => {
                ratio((a.result_invalidations - b.result_invalidations) as f64, mutations)
            }
            "mapping.table_size" => li.table_size as f64,
            "mapping.contains_ns" => lookup("MappingModule::contains"),
            "mapping.mappings_for_ns" => lookup("MappingModule::mappings_for"),
            "mapping.obtain_schemas_us" => call("ExtractorManager::obtain_schemas"),
            "planner.plan_pushdown_us" => call("planner::plan_pushdown"),
            "planner.pushed_predicates_per_query" => {
                per_read(&|r| r.stats.pushed_predicates as f64)
            }
            "planner.pruned_sources_per_query" => per_read(&|r| r.stats.pruned_sources as f64),
            "planner.wire_bytes_saved_per_query" => per_read(&|r| r.stats.wire_bytes_saved as f64),
            "extract.batched_us" => call("ExtractorManager::extract_batched"),
            "extract.batches_per_query" => ratio(batches, n_reads),
            "extract.tasks_per_query" => per_read(&|r| r.stats.tasks as f64),
            "extract.failed_tasks" => reads.iter().map(|r| r.stats.failed_tasks as f64).sum(),
            "rules.hit_ratio" => hit_ratio(b.rules, a.rules),
            "rules.compile_us" => call("RuleCache::get_or_compile"),
            "wrapper.values_per_call" => mean(&values),
            "netsim.pool.jobs_per_query" => ratio((a.pool.jobs - b.pool.jobs) as f64, n_reads),
            "netsim.pool.queue_wait_us_per_query" => {
                ratio((a.pool.queue_wait_us - b.pool.queue_wait_us) as f64, n_reads)
            }
            "netsim.pool.peak_queue_depth" => a.pool.peak_queue_depth as f64,
            "view.hit_ratio" => ratio(views.0 as f64, (views.0 + views.1 + views.2) as f64),
            "view.refreshes_per_mutation" => ratio(views.1 as f64, mutations),
            "view.full_refreshes" => views.2 as f64,
            "view.feed_polls_per_mutation" => ratio(views.3 as f64, mutations),
            "view.staleness_max_ms" => staleness,
            "cache.extraction.hit_ratio" => hit_ratio(b.extraction, a.extraction),
            "cache.extraction.evictions" => {
                (a.extraction.evictions - b.extraction.evictions) as f64
            }
            "middleware.mutate_us" => {
                calls.get("S2s::mutate_source").map(|v| median(v)).unwrap_or(0.0)
            }
            "middleware.dropped_results_per_mutation" => mean(&dropped_results),
            "middleware.dropped_extraction_per_mutation" => mean(&dropped_extraction),
            "instance.count_per_query" => per_read(&|r| r.answer.individuals as f64),
            "instance.generate_us" => call("instance::generate_with_options"),
            "instance.render_owl_us" => call("QueryOutcome::render"),
            "instance.owl_bytes_per_query" => per_read(&|r| r.owl_bytes as f64),
            "bootstrap.introspect_us_per_source" => call("S2s::bootstrap_source"),
            "bootstrap.apply_us_per_source" => call("S2s::apply_bootstrap"),
            "bootstrap.candidates_per_source" => mean(&candidates),
            "bootstrap.conflicts" => conflicts,
            "obs.trace_overhead_ratio" => ratio(traced_p50, li.untraced_p50_ms),
            "obs.unattributed_share" => ratio(root_unattributed, root_wall),
            "host.calibration_ms" => run.calibration_ms(),
            other => match other.strip_prefix("obs.self.").and_then(|k| k.strip_suffix("_us")) {
                Some(kind) => engine_per_read(kind),
                None => call(other),
            },
        }
    };
    PER_LAYER.iter().map(|&(name, unit)| Metric { name, unit, value: values_of(name) }).collect()
}

/// Runs the whole traced pass: a fresh `with_tracing()` engine steps
/// through `plan.traced` ops per client, then the layer replays run on
/// the benchmark's own state. Returns the span log.
#[allow(clippy::too_many_arguments)]
pub fn traced_pass(
    name: &str,
    inputs: &Inputs,
    plan: &Plan,
    reference: &Reference,
    reports: &[BootstrapReport],
) -> Result<(Run, Vec<SpanRecord>, usize), String> {
    let (strategy, pushdown) = workload::engine_config(name);
    let origin = Instant::now();
    let (engine, _) = workload::deploy(name, inputs, workload::Build::Traced);
    let run =
        crate::drive::drive(&engine, inputs, plan, reference, crate::drive::Mode::Traced, origin);
    if let Some(e) = run.samples().find_map(|s| s.error.clone()) {
        return Err(format!("traced pass: {e}"));
    }
    let mut rec = Recorder::new(origin, 1u64 << 40);
    if !plan.has_writes() {
        record_probe_writes(&mut rec, &engine, inputs, TRACED_PROBE_WRITES);
    }
    drop(engine);
    let mut replayer = Replayer::new(inputs, reports, strategy, pushdown);
    replay_reads(&mut rec, &mut replayer, plan, reference, &run, REPLAYED_READS)?;
    if !reports.is_empty() {
        replay_bootstrap(&mut rec, inputs)?;
    }
    let mut run = run;
    let mut records: Vec<SpanRecord> = Vec::new();
    for client in &mut run.clients {
        records.extend(client.recorder.take_records());
    }
    records.extend(rec.take_records());
    let table_size = replayer.table_size();
    Ok((run, records, table_size))
}
