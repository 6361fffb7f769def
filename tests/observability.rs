//! Observability layer: trace-tree determinism, degraded-mode span
//! outcomes, exporter round-trips, attempt-latency histograms, and the
//! breaker accounting contract on `QueryStats::round_trips`.

use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, RecordScenario};
use s2s::core::source::Connection;
use s2s::core::ResiliencePolicy;
use s2s::minidb::Database;
use s2s::netsim::{BreakerConfig, CostModel, FailureModel, RetryPolicy, SimDuration};
use s2s::obs::SpanOutcome;
use s2s::owl::Ontology;
use s2s::S2s;

/// An ontology with one `Product` class and `attrs` string properties.
fn wide_ontology(attrs: usize) -> Ontology {
    let mut b = Ontology::builder("http://example.org/schema#").class("Product", None).unwrap();
    for j in 0..attrs {
        b = b
            .datatype_property(
                &format!("a{j}"),
                "Product",
                "http://www.w3.org/2001/XMLSchema#string",
            )
            .unwrap();
    }
    b.build().unwrap()
}

/// `sources` remote WAN databases, each mapping the same `attrs`
/// attributes, parallel workers, batching on, tracing on.
fn wide_traced(sources: usize, attrs: usize) -> S2s {
    let mut s2s = S2s::new(wide_ontology(attrs))
        .with_strategy(Strategy::Parallel { workers: 4 })
        .with_batching(true)
        .with_tracing();
    let columns: Vec<String> = (0..attrs).map(|j| format!("a{j} TEXT")).collect();
    for i in 0..sources {
        let mut db = Database::new(format!("shard{i}"));
        db.execute(&format!("CREATE TABLE t ({})", columns.join(", "))).unwrap();
        let values: Vec<String> = (0..attrs).map(|j| format!("'v{i}-{j}'")).collect();
        db.execute(&format!("INSERT INTO t VALUES ({})", values.join(", "))).unwrap();
        let id = format!("S{i:02}");
        s2s.register_remote_source(
            &id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            FailureModel::reliable(),
        )
        .unwrap();
        for j in 0..attrs {
            s2s.register_attribute(
                &format!("thing.product.a{j}"),
                ExtractionRule::Sql {
                    query: format!("SELECT a{j} FROM t"),
                    column: format!("a{j}"),
                },
                &id,
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
    }
    s2s
}

/// One healthy WAN source plus one hard-down source, per-attribute
/// serial extraction, retry budget 2, breaker trips after one failure:
/// the first down task fails on the wire, every later down task is
/// breaker-rejected.
fn degraded_traced() -> S2s {
    let policy = ResiliencePolicy::default()
        .with_retry(RetryPolicy::attempts(2))
        .with_breaker(BreakerConfig::new(1, SimDuration::from_millis(60_000)));
    let mut s2s = S2s::new(wide_ontology(3))
        .with_strategy(Strategy::Serial)
        .with_batching(false)
        .with_resilience(policy)
        .with_tracing();
    for (id, failure) in [("GOOD", FailureModel::reliable()), ("DOWN", FailureModel::unreachable())]
    {
        let mut db = Database::new(id.to_lowercase());
        db.execute("CREATE TABLE t (a0 TEXT, a1 TEXT, a2 TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES ('x', 'y', 'z')").unwrap();
        s2s.register_remote_source(
            id,
            Connection::Database { db: Arc::new(db) },
            CostModel::wan(),
            failure,
        )
        .unwrap();
        for j in 0..3 {
            s2s.register_attribute(
                &format!("thing.product.a{j}"),
                ExtractionRule::Sql {
                    query: format!("SELECT a{j} FROM t"),
                    column: format!("a{j}"),
                },
                id,
                RecordScenario::MultiRecord,
            )
            .unwrap();
        }
    }
    s2s
}

/// Zeroes the digits after every `"wall_us":` — the one field that is
/// wall-clock (nondeterministic) by design.
fn mask_wall(jsonl: &str) -> String {
    let mut out = String::new();
    let mut rest = jsonl;
    while let Some(idx) = rest.find("\"wall_us\":") {
        let after = idx + "\"wall_us\":".len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn traces_are_deterministic_across_runs() {
    let run = || {
        let s2s = wide_traced(6, 4);
        let outcome = s2s.query("SELECT product").unwrap();
        s2s::obs::render_jsonl(outcome.trace.as_ref().expect("tracing on"))
    };
    let a = mask_wall(&run());
    let b = mask_wall(&run());
    assert!(!a.is_empty());
    assert_eq!(a, b, "two runs of the same seeded workload must trace identically");
}

#[test]
fn untraced_query_attaches_no_trace() {
    let s2s = wide_traced(2, 2);
    assert!(s2s.tracing());
    let outcome = S2s::new(wide_ontology(1)).query("SELECT product").unwrap();
    assert!(outcome.trace.is_none());
}

#[test]
fn degraded_query_traces_breaker_rejections_and_completeness() {
    let s2s = degraded_traced();
    let outcome = s2s.query("SELECT product").unwrap();
    assert!(outcome.stats.completeness < 1.0);
    let trace = outcome.trace.as_ref().expect("tracing on");

    // The root is degraded and its completeness attr round-trips to the
    // exact stats value.
    assert_eq!(trace.root.outcome, SpanOutcome::Degraded);
    let attr: f64 = trace.root.get_attr("completeness").unwrap().parse().unwrap();
    assert_eq!(attr, outcome.stats.completeness);

    // The first DOWN task failed on the wire (after a retry); the later
    // DOWN tasks were refused by the open breaker, and that refusal is
    // visible as a breaker-rejected attempt span.
    let attempts = trace.spans_of(s2s::obs::SpanKind::Attempt);
    let rejected: Vec<_> =
        attempts.iter().filter(|s| s.outcome == SpanOutcome::BreakerRejected).collect();
    assert_eq!(rejected.len(), 2, "two of three DOWN tasks hit the open breaker");
    assert!(rejected.iter().all(|s| s.name == "DOWN"));
    assert!(rejected.iter().all(|s| s.sim_us == 0), "a rejected call never reaches the wire");
    let failed: Vec<_> = attempts.iter().filter(|s| s.outcome == SpanOutcome::Failed).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].get_attr("retries"), Some("1"));
}

#[test]
fn round_trips_exclude_breaker_rejections() {
    let s2s = degraded_traced();
    let outcome = s2s.query("SELECT product").unwrap();
    let health = &outcome.resilience;
    let rejections: u64 = health.values().map(|h| h.breaker_rejections).sum();
    let attempts: u64 = health.values().map(|h| h.attempts).sum();
    // GOOD: 3 tasks × 1 attempt. DOWN: first task burns the retry
    // budget (2 attempts), the other two tasks are breaker-rejected
    // and never reach the wire.
    assert_eq!(rejections, 2);
    assert_eq!(attempts, 5);
    assert_eq!(
        outcome.stats.round_trips, attempts,
        "round_trips counts wire attempts only, never breaker rejections"
    );
}

#[test]
fn exporters_round_trip_on_wide_workload() {
    let s2s = wide_traced(4, 3);
    let outcome = s2s.query("SELECT product").unwrap();
    let trace = outcome.trace.as_ref().expect("tracing on");

    // JSONL: parse back and re-render byte-identically.
    let jsonl = s2s::obs::render_jsonl(trace);
    let records = s2s::obs::parse_jsonl(&jsonl).expect("export must parse");
    assert_eq!(s2s::obs::render_jsonl_records(&records), jsonl);
    assert_eq!(records.len(), trace.spans().len());

    // Text tree: one line per span, root first.
    let tree = s2s::obs::render_tree(trace);
    assert_eq!(tree.lines().count(), trace.spans().len());
    assert!(tree.lines().next().unwrap().starts_with("query"));

    // Prometheus: a freshly-populated registry renders, parses, and
    // re-renders identically.
    s2s::obs::set_enabled(true);
    let s2s = wide_traced(4, 3);
    let _ = s2s.query("SELECT product").unwrap();
    let prom = s2s::obs::render_prometheus(s2s::obs::global());
    s2s::obs::set_enabled(false);
    let samples = s2s::obs::parse_prometheus(&prom).expect("snapshot must parse");
    assert!(!samples.is_empty());
}

#[test]
fn endpoint_attempt_histogram_has_nonzero_percentiles() {
    s2s::obs::set_enabled(true);
    let s2s = wide_traced(6, 4);
    let _ = s2s.query("SELECT product").unwrap();
    // The registry is process-global and shared with any concurrently
    // running test, so assert floors, not exact values.
    let h = s2s::obs::global().histogram("s2s_net_attempt_sim_us");
    s2s::obs::set_enabled(false);
    assert!(h.count() >= 6, "one wire attempt per batched source");
    assert!(h.p50() > 0.0, "WAN attempts take tens of ms of sim time");
    assert!(h.p99() > 0.0);
    assert!(h.p99() >= h.p50());
}

#[test]
fn every_span_outlasts_its_children() {
    // A batch span's wall time covers its rules' wrapper runs as well
    // as its wire leg, so no parent is ever shorter than a child.
    for s2s in [wide_traced(6, 4), degraded_traced()] {
        let outcome = s2s.query("SELECT product").unwrap();
        let trace = outcome.trace.as_ref().expect("tracing on");
        for span in trace.spans() {
            for child in &span.children {
                assert!(
                    span.wall_us >= child.wall_us,
                    "{} {} ({} us) is shorter than its child {} {} ({} us)",
                    span.kind.as_str(),
                    span.name,
                    span.wall_us,
                    child.kind.as_str(),
                    child.name,
                    child.wall_us
                );
            }
        }
    }
}
