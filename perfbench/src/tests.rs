//! Tests of the benchmark itself: its generators, its schedule and the
//! agreement between what it prints and what `BENCHMARK.json` lists.

use std::collections::{BTreeSet, HashSet};

use s2s::core::extract::Strategy;

use crate::workload::*;

/// `(lo, hi)` of a `price >= lo AND price < hi` text.
fn bounds(text: &str) -> (f64, f64) {
    let lo = text.split("price >= ").nth(1).and_then(|r| r.split(' ').next());
    let hi = text.split("price < ").nth(1);
    let parse = |v: Option<&str>| v.and_then(|v| v.parse::<f64>().ok()).expect("window text");
    (parse(lo), parse(hi))
}

fn matching(records: &[s2s_bench::Record], (lo, hi): (f64, f64)) -> usize {
    records.iter().filter(|r| r.price >= lo && r.price < hi).count()
}

#[test]
fn generators_are_deterministic_for_a_seed() {
    for name in WORKLOADS {
        let (a, b) = (plan(name, 7, 10).unwrap(), plan(name, 7, 10).unwrap());
        assert_eq!(a.texts, b.texts, "{name}");
        assert_eq!(a.clients, b.clients, "{name}");
        let (x, y) = (inputs(name, 7), inputs(name, 7));
        assert_eq!(x.records, y.records, "{name}");
        let ids = |i: &Inputs| -> Vec<_> {
            i.sources.iter().map(|(id, c)| (id.clone(), c.kind())).collect()
        };
        assert_eq!(ids(&x), ids(&y), "{name}");
    }
    let records = s2s_bench::records(VIEW_RECORDS, catalog_seed(7));
    assert_eq!(view_versions(&records, 7), view_versions(&records, 7));
    // Another seed gives other inputs.
    assert_ne!(
        plan("cold_federated", 7, 10).unwrap().texts,
        plan("cold_federated", 8, 10).unwrap().texts
    );
    assert_ne!(
        plan("catalog_scale", 7, 10).unwrap().clients,
        plan("catalog_scale", 8, 10).unwrap().clients
    );
    assert_ne!(inputs("mutating_views", 7).records, inputs("mutating_views", 8).records);
}

#[test]
fn cold_texts_are_distinct_with_fixed_selectivity() {
    for seed in 0..4 {
        let records = s2s_bench::records(COLD_RECORDS, catalog_seed(seed));
        let texts = cold_texts(&records, seed);
        assert!(texts.len() > 800, "seed {seed}: only {} texts", texts.len());
        assert_eq!(
            texts.iter().collect::<HashSet<_>>().len(),
            texts.len(),
            "seed {seed}: a text repeats"
        );
        for text in &texts {
            assert_eq!(matching(&records, bounds(text)), COLD_MATCHES, "seed {seed}: {text}");
        }
    }
}

#[test]
fn cold_answers_all_hold_the_same_number_of_individuals() {
    let seed = 3;
    let plan = plan("cold_federated", seed, 10).unwrap();
    let engine =
        s2s_bench::deploy_paced(COLD_RECORDS, catalog_seed(seed), 0, Strategy::Serial, false)
            .with_pushdown();
    for text in plan.texts.iter().step_by(97) {
        let outcome = engine.query(text).unwrap();
        assert_eq!(Some(outcome.individuals().len()), plan.answer_size, "{text}");
    }
}

#[test]
fn view_texts_match_a_fixed_number_of_records() {
    for seed in 0..4 {
        let records = s2s_bench::records(VIEW_RECORDS, catalog_seed(seed));
        let texts = view_texts(&records, seed);
        assert_eq!(texts.iter().collect::<HashSet<_>>().len(), VIEW_TEXTS);
        for text in &texts {
            assert_eq!(matching(&records, bounds(text)), VIEW_MATCHES, "seed {seed}: {text}");
        }
    }
}

#[test]
fn mutation_schedule_writes_five_per_hundred_ops_and_cycles_versions() {
    let plan = plan("mutating_views", 5, 10).unwrap();
    let ops: Vec<Op> = (0..2000).map(|i| plan.op(0, i).unwrap()).collect();
    for hundred in ops.chunks(100) {
        let writes = hundred.iter().filter(|op| matches!(op, Op::Mutate(_))).count();
        assert_eq!(writes, 5);
    }
    let versions: Vec<usize> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Mutate(v) => Some(*v),
            Op::Read(_) => None,
        })
        .collect();
    let expected: Vec<usize> = (1..=versions.len()).map(|k| k % VIEW_VERSIONS).collect();
    assert_eq!(versions, expected, "writes step through the versions in order");
    let period = plan.clients[0].len();
    assert_eq!(period % VIEW_BLOCK, 0);
    assert_eq!(period % VIEW_TEXTS, 0);
    assert_eq!(versions[period / VIEW_BLOCK - 1], 0, "a period ends back at version 0");
    let read: BTreeSet<usize> = plan.clients[0]
        .iter()
        .filter_map(|op| match op {
            Op::Read(t) => Some(*t),
            Op::Mutate(_) => None,
        })
        .collect();
    assert_eq!(read.len(), VIEW_TEXTS, "one period reads every text");

    // Each write rewrites only prices, in at most the drawn rows.
    let records = s2s_bench::records(VIEW_RECORDS, catalog_seed(5));
    let versions = view_versions(&records, 5);
    assert_eq!(versions.len(), VIEW_VERSIONS);
    assert_eq!(versions[0], records);
    for version in &versions[1..] {
        let changed = records.iter().zip(version).filter(|(a, b)| a != b).count();
        assert!((1..=VIEW_ROWS_PER_VERSION).contains(&changed));
        for (a, b) in records.iter().zip(version) {
            assert_eq!((a.id, &a.brand, &a.case), (b.id, &b.brand, &b.case));
        }
    }
}

/// `(section, name, unit)` of every metric line of `BENCHMARK.json`.
fn listed_metrics() -> Vec<(String, String, String)> {
    let json = include_str!("../../BENCHMARK.json");
    let field = |line: &str, key: &str| {
        line.split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|r| r.split('"').next())
            .map(String::from)
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in json.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.contains(s) {
                section = s.trim_matches('"').to_string();
            }
        }
        if let (Some(name), Some(unit)) = (field(line, "name"), field(line, "unit")) {
            out.push((section.clone(), name, unit));
        }
    }
    out
}

#[test]
fn every_printed_metric_is_listed_in_benchmark_json() {
    let listed = listed_metrics();
    let of = |section: &str| -> BTreeSet<(String, String)> {
        listed
            .iter()
            .filter(|(s, _, _)| s == section)
            .map(|(_, n, u)| (n.clone(), u.clone()))
            .collect()
    };
    let printed = |list: &[(&str, &str)]| -> BTreeSet<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(printed(crate::END_TO_END), of("end_to_end"));
    assert_eq!(printed(crate::layers::PER_LAYER), of("per_layer"));
    let json = include_str!("../../BENCHMARK.json");
    for name in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{name}\", \"why\": ")), "{name} is listed");
    }
}
