//! E2 — raw extraction cost per source type (paper §2.1 taxonomy):
//! structured (SQL) vs semi-structured (XPath) vs unstructured (WebL,
//! regex), same 1000-record catalog in every format.
//!
//! Expected shape: SQL fastest (indexed engine), XPath next, the
//! unstructured wrappers slowest (full-text scans through the regex
//! engine).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use s2s_bench::{
    catalog_db, catalog_html, catalog_text, catalog_xml, map_db, map_text, map_web, map_xml,
    ontology, records,
};
use s2s_core::extract::extract_one;
use s2s_core::source::{Connection, SourceRegistry};
use s2s_core::S2s;
use s2s_webdoc::WebStore;

fn bench(c: &mut Criterion) {
    let recs = records(1000, 42);

    // Build one registry + one mapping per source type through a
    // throwaway middleware (reusing the canonical mapping sets).
    let mut s2s = S2s::new(ontology());
    s2s.register_source("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) }).unwrap();
    s2s.register_source("XML", Connection::Xml { document: Arc::new(catalog_xml(&recs)) }).unwrap();
    let mut web = WebStore::new();
    web.register_html("http://shop/list", catalog_html(&recs));
    web.register_text("file:///export.txt", catalog_text(&recs));
    let web = Arc::new(web);
    s2s.register_source(
        "WEB",
        Connection::Web { store: web.clone(), url: "http://shop/list".into() },
    )
    .unwrap();
    s2s.register_source(
        "TXT",
        Connection::Text { store: web.clone(), url: "file:///export.txt".into() },
    )
    .unwrap();
    map_db(&mut s2s, "DB");
    map_xml(&mut s2s, "XML");
    map_web(&mut s2s, "WEB");
    map_text(&mut s2s, "TXT");

    // Rebuild the same registry standalone for direct extract_one calls.
    let mut registry = SourceRegistry::new();
    registry
        .register_local("DB", Connection::Database { db: Arc::new(catalog_db(&recs)) })
        .unwrap();
    registry
        .register_local("XML", Connection::Xml { document: Arc::new(catalog_xml(&recs)) })
        .unwrap();
    registry
        .register_local(
            "WEB",
            Connection::Web { store: web.clone(), url: "http://shop/list".into() },
        )
        .unwrap();
    registry
        .register_local("TXT", Connection::Text { store: web, url: "file:///export.txt".into() })
        .unwrap();

    let mut group = c.benchmark_group("e2_source_types");
    group.sample_size(10);
    // One representative attribute (brand) per source type, plus two
    // price rules over the same text: a literal-led pattern the regex VM
    // prescans for, and a class-led one it must seed at every char.
    let decimals = recs.iter().filter(|r| r.price.to_string().contains('.')).count();
    let text = |pattern: &str, group| s2s_core::mapping::ExtractionRule::TextRegex {
        pattern: pattern.into(),
        group,
    };
    let cases = [
        (
            "DB",
            "DB",
            "brand",
            s2s_core::mapping::ExtractionRule::Sql {
                query: "SELECT brand FROM watches ORDER BY id".into(),
                column: "brand".into(),
            },
            1000,
        ),
        (
            "XML",
            "XML",
            "brand",
            s2s_core::mapping::ExtractionRule::XPath { path: "/catalog/watch/brand/text()".into() },
            1000,
        ),
        (
            "WEB",
            "WEB",
            "brand",
            s2s_core::mapping::ExtractionRule::Webl {
                program: "var b = TagTexts(Text(PAGE), \"b\");".into(),
            },
            1000,
        ),
        ("TXT", "TXT", "brand", text(r"brand: ([\w-]+)", 1), 1000),
        ("TXT literal-led", "TXT", "price", text(r"price: ([0-9.]+)", 1), 1000),
        ("TXT class-led", "TXT", "price", text(r"[0-9]+\.[0-9]+", 0), decimals),
    ];
    // Reach the mapping through a fresh module holding just this rule.
    let mapping = |src: &str, attr: &str, rule| {
        let path: s2s_owl::AttributePath = format!("thing.product.watch.{attr}").parse().unwrap();
        let mut m = s2s_core::mapping::MappingModule::new();
        m.register(
            &ontology(),
            path.clone(),
            rule,
            src.into(),
            s2s_core::mapping::RecordScenario::MultiRecord,
        )
        .unwrap();
        s2s_core::extract::ExtractorManager::obtain_schemas(&m, &[path]).unwrap().remove(0).mapping
    };

    for (name, src, attr, rule, expected) in cases {
        let mapping = mapping(src, attr, rule);
        group.bench_function(name, |b| {
            b.iter(|| {
                let (values, _) = extract_one(&registry, &mapping).unwrap();
                assert_eq!(values.len(), expected);
                values
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
