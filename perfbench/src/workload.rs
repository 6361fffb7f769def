//! Seeded inputs, deployments and op schedules of the three workloads.
//!
//! Everything here is a pure function of the workload name and the
//! seed: the catalogs come from the `s2s_bench` generators, and the
//! query texts, source order and mutation rows come from a splitmix64
//! stream derived from the seed. The program under test only ever sees
//! the generated inputs.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use s2s::core::extract::Strategy;
use s2s::core::mapping::{ExtractionRule, MappingModule, RecordScenario};
use s2s::core::middleware::QueryOutcome;
use s2s::core::source::{Connection, SourceRegistry};
use s2s::core::BootstrapReport;
use s2s::netsim::{ChangeKind, CostModel, FailureModel};
use s2s::owl::{AttributePath, Ontology};
use s2s::webdoc::WebStore;
use s2s::S2s;
use s2s_bench::Record;

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["cold_federated", "catalog_scale", "mutating_views"];

/// Records per source on `cold_federated`.
pub const COLD_RECORDS: usize = 500;
/// Records each `cold_federated` window matches in every source.
pub const COLD_MATCHES: usize = 5;
/// Records per source on `mutating_views`.
pub const VIEW_RECORDS: usize = 1000;
/// Records each `mutating_views` text matches in every source at
/// version 0.
pub const VIEW_MATCHES: usize = 2;
/// Distinct texts `mutating_views` repeats.
pub const VIEW_TEXTS: usize = 16;
/// Data versions the `mutating_views` DB source cycles through.
pub const VIEW_VERSIONS: usize = 4;
/// Rows whose price each non-base version rewrites.
pub const VIEW_ROWS_PER_VERSION: usize = 10;
/// One mutation closes every block of this many ops (5 per 100).
pub const VIEW_BLOCK: usize = 20;
/// Sources registered on `catalog_scale`.
pub const FLEET_SOURCES: usize = 1000;
/// Classes of the `catalog_scale` ontology.
pub const FLEET_CLASSES: usize = 63;
/// Datatype properties per class of the `catalog_scale` ontology.
pub const FLEET_PROPS: usize = 4;
/// Rows per `catalog_scale` source.
pub const FLEET_ROWS: usize = 8;

/// A splitmix64 stream: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so that each consumer of one seed
    /// draws an independent sequence.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One step of a client's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `S2s::query` of text `n`, then an OWL render.
    Read(usize),
    /// `S2s::mutate_source` of the DB source to data version `n`.
    Mutate(usize),
}

/// The generated op schedule of a workload.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload name.
    pub name: &'static str,
    /// The query texts ops refer to.
    pub texts: Vec<String>,
    /// One schedule per client thread.
    pub clients: Vec<Vec<Op>>,
    /// Whether each client's schedule repeats (op `i` is
    /// `schedule[i % len]`); otherwise ops past the end do not exist.
    pub periodic: bool,
    /// Ops per client the twin steps through before the timed pass.
    pub planned: usize,
    /// Leading ops per client excluded from the timed statistics.
    pub warmup: usize,
    /// Ops per client after the warm-up over which the deterministic
    /// counters are taken; a run never stops before completing them.
    pub counted: usize,
    /// Ops per client the traced pass runs after its warm-up.
    pub traced: usize,
    /// Percentile reported as `latency_tail_ms`.
    pub tail_pct: usize,
    /// Individuals every answer must hold, where the generator fixes
    /// the selectivity.
    pub answer_size: Option<usize>,
}

impl Plan {
    /// Whether the schedule has writes.
    pub fn has_writes(&self) -> bool {
        self.clients.iter().flatten().any(|op| matches!(op, Op::Mutate(_)))
    }

    /// Op `i` of client `c`, or `None` past the end of a non-periodic
    /// schedule.
    pub fn op(&self, c: usize, i: usize) -> Option<Op> {
        let schedule = &self.clients[c];
        if self.periodic {
            Some(schedule[i % schedule.len()])
        } else {
            schedule.get(i).copied()
        }
    }
}

/// Distinct prices of `records`, ascending, with how many records carry
/// each.
fn price_levels(records: &[Record]) -> Vec<(f64, usize)> {
    let mut prices: Vec<f64> = records.iter().map(|r| r.price).collect();
    prices.sort_by(|a, b| a.partial_cmp(b).expect("generated prices are finite"));
    let mut levels: Vec<(f64, usize)> = Vec::new();
    for p in prices {
        match levels.last_mut() {
            Some((q, n)) if *q == p => *n += 1,
            _ => levels.push((p, 1)),
        }
    }
    levels
}

/// Half-open price windows `[lo, hi)` that each hold exactly `k`
/// records: `lo` is a distinct price and `hi` the first distinct price
/// past the `k` records starting there.
pub fn exact_windows(records: &[Record], k: usize) -> Vec<(f64, f64)> {
    let levels = price_levels(records);
    let mut windows = Vec::new();
    for start in 0..levels.len() {
        let mut count = 0;
        let mut end = start;
        while end < levels.len() && count < k {
            count += levels[end].1;
            end += 1;
        }
        if count == k && end < levels.len() {
            windows.push((levels[start].0, levels[end].0));
        }
    }
    windows
}

fn window_text(lo: f64, hi: f64) -> String {
    format!("SELECT watch WHERE price >= {lo} AND price < {hi}")
}

/// The `cold_federated` texts: every window of [`exact_windows`] in a
/// seeded order, then again with the lower bound moved halfway down to
/// the previous distinct price (same records, new text). No text
/// repeats.
pub fn cold_texts(records: &[Record], seed: u64) -> Vec<String> {
    let levels = price_levels(records);
    let mut windows = exact_windows(records, COLD_MATCHES);
    Rng::new(seed, 1).shuffle(&mut windows);
    let mut texts: Vec<String> = windows.iter().map(|&(lo, hi)| window_text(lo, hi)).collect();
    for &(lo, hi) in &windows {
        let below = levels.iter().rev().map(|l| l.0).find(|&p| p < lo);
        if let Some(prev) = below {
            let mid = (prev + lo) / 2.0;
            if mid > prev && mid < lo {
                texts.push(window_text(mid, hi));
            }
        }
    }
    texts
}

/// The catalog seed of a workload seed.
pub fn catalog_seed(seed: u64) -> u64 {
    Rng::new(seed, 2).next()
}

/// The data versions the `mutating_views` DB source cycles through:
/// version 0 is the generated catalog, version `v > 0` rewrites the
/// price of [`VIEW_ROWS_PER_VERSION`] seeded rows.
pub fn view_versions(records: &[Record], seed: u64) -> Vec<Vec<Record>> {
    let mut rng = Rng::new(seed, 3);
    let mut versions = vec![records.to_vec()];
    for _ in 1..VIEW_VERSIONS {
        let mut recs = records.to_vec();
        for _ in 0..VIEW_ROWS_PER_VERSION {
            let row = rng.below(recs.len());
            recs[row].price = (2000 + rng.below(48_000)) as f64 / 100.0;
        }
        versions.push(recs);
    }
    versions
}

/// The `mutating_views` texts: [`VIEW_TEXTS`] windows of
/// [`VIEW_MATCHES`] records, spread over the price range.
pub fn view_texts(records: &[Record], seed: u64) -> Vec<String> {
    let windows = exact_windows(records, VIEW_MATCHES);
    let offset = Rng::new(seed, 4).below(windows.len() / VIEW_TEXTS);
    (0..VIEW_TEXTS)
        .map(|i| {
            let (lo, hi) = windows[offset + i * (windows.len() / VIEW_TEXTS)];
            window_text(lo, hi)
        })
        .collect()
}

/// The `mutating_views` schedule period: every [`VIEW_BLOCK`]-th op
/// moves the DB source to the next version, the other ops read the
/// texts round robin. The period covers every version and every text
/// phase, so the schedule repeats exactly after it.
pub fn view_schedule() -> Vec<Op> {
    let period = lcm(VIEW_BLOCK * VIEW_VERSIONS, VIEW_TEXTS);
    (0..period)
        .map(|i| {
            if i % VIEW_BLOCK == VIEW_BLOCK - 1 {
                Op::Mutate((i / VIEW_BLOCK + 1) % VIEW_VERSIONS)
            } else {
                Op::Read(i % VIEW_TEXTS)
            }
        })
        .collect()
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}

/// The leaf classes `catalog_scale` queries, one text each.
pub fn fleet_texts() -> Vec<String> {
    s2s_bench::fleet_leaf_classes(FLEET_CLASSES).iter().map(|c| format!("SELECT c{c}")).collect()
}

/// Builds the op schedule of `name` for `seed`; `seconds` sizes the
/// planned prefix of the non-periodic `cold_federated` schedule.
pub fn plan(name: &str, seed: u64, seconds: u64) -> Option<Plan> {
    match name {
        "cold_federated" => {
            let records = s2s_bench::records(COLD_RECORDS, catalog_seed(seed));
            let texts = cold_texts(&records, seed);
            let schedule = (0..texts.len()).map(Op::Read).collect();
            // Planned for 1.5x today's ~16 qps; a faster program runs
            // on into the rest of the texts, checked after the pass.
            let planned = (8 + 24 * seconds as usize).min(texts.len());
            Some(Plan {
                name: "cold_federated",
                texts,
                clients: vec![schedule],
                periodic: false,
                planned,
                warmup: 8,
                counted: 64,
                traced: 24,
                tail_pct: 90,
                // Four sources, each contributing the window's records.
                answer_size: Some(4 * COLD_MATCHES),
            })
        }
        "catalog_scale" => {
            let texts = fleet_texts();
            let mut order: Vec<usize> = (0..texts.len()).collect();
            Rng::new(seed, 5).shuffle(&mut order);
            let half = texts.len() / 2;
            let clients = (0..2)
                .map(|c| {
                    (0..order.len())
                        .map(|i| Op::Read(order[(c * half + i) % order.len()]))
                        .collect()
                })
                .collect();
            Some(Plan {
                name: "catalog_scale",
                texts,
                clients,
                periodic: true,
                planned: 32,
                warmup: 32,
                counted: 64,
                traced: 32,
                tail_pct: 95,
                answer_size: None,
            })
        }
        "mutating_views" => {
            let records = s2s_bench::records(VIEW_RECORDS, catalog_seed(seed));
            let period = view_schedule().len();
            Some(Plan {
                name: "mutating_views",
                texts: view_texts(&records, seed),
                clients: vec![view_schedule()],
                periodic: true,
                planned: period,
                warmup: period,
                counted: 4 * period,
                traced: 4 * period,
                tail_pct: 99,
                answer_size: None,
            })
        }
        _ => None,
    }
}

/// The generated source data of a workload: everything a deployment is
/// built from, made before any timed call.
pub struct Inputs {
    /// The ontology schema.
    pub ontology: Ontology,
    /// `(source id, connection)` in registration order.
    pub sources: Vec<(String, Connection)>,
    /// The catalog records (watch workloads only).
    pub records: Vec<Record>,
    /// Connections of the DB source's data versions (`mutating_views`).
    pub versions: Vec<Connection>,
}

/// The four watch-catalog sources of `s2s_bench::deploy_paced`.
fn watch_sources(records: &[Record]) -> Vec<(String, Connection)> {
    let mut web = WebStore::new();
    web.register_html("http://shop/list", s2s_bench::catalog_html(records));
    web.register_text("file:///export.txt", s2s_bench::catalog_text(records));
    let web = Arc::new(web);
    vec![
        ("DB".into(), Connection::Database { db: Arc::new(s2s_bench::catalog_db(records)) }),
        ("XML".into(), Connection::Xml { document: Arc::new(s2s_bench::catalog_xml(records)) }),
        ("WEB".into(), Connection::Web { store: web.clone(), url: "http://shop/list".into() }),
        ("TXT".into(), Connection::Text { store: web, url: "file:///export.txt".into() }),
    ]
}

/// Generates the inputs of `name` for `seed`.
pub fn inputs(name: &str, seed: u64) -> Inputs {
    match name {
        "cold_federated" => {
            let records = s2s_bench::records(COLD_RECORDS, catalog_seed(seed));
            Inputs {
                ontology: s2s_bench::ontology(),
                sources: watch_sources(&records),
                records,
                versions: Vec::new(),
            }
        }
        "catalog_scale" => {
            let mut order: Vec<usize> = (0..FLEET_SOURCES).collect();
            Rng::new(seed, 6).shuffle(&mut order);
            let sources = order
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    let (_, _, connection) =
                        s2s_bench::fleet_source(i, FLEET_CLASSES, FLEET_PROPS, FLEET_ROWS);
                    (format!("F{j}"), connection)
                })
                .collect();
            Inputs {
                ontology: s2s_bench::synthetic_ontology(FLEET_CLASSES, FLEET_PROPS),
                sources,
                records: Vec::new(),
                versions: Vec::new(),
            }
        }
        _ => {
            let records = s2s_bench::records(VIEW_RECORDS, catalog_seed(seed));
            let versions = view_versions(&records, seed)
                .iter()
                .map(|recs| Connection::Database { db: Arc::new(s2s_bench::catalog_db(recs)) })
                .collect();
            Inputs {
                ontology: s2s_bench::ontology(),
                sources: watch_sources(&records),
                records,
                versions,
            }
        }
    }
}

/// How a deployment is built: the engine under test, or its twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Build {
    /// The workload's engine.
    Engine,
    /// The workload's engine with `with_tracing()`.
    Traced,
}

/// The extraction strategy of a workload's engine, and whether it plans
/// pushdown.
pub fn engine_config(name: &str) -> (Strategy, bool) {
    match name {
        "cold_federated" => (Strategy::Parallel { workers: 2 }, true),
        "catalog_scale" => (Strategy::Reactor { shards: 1 }, false),
        _ => (Strategy::Serial, false),
    }
}

/// Builds the deployment of `name` from `inputs`: the calls `setup_s`
/// times. Returns the engine and, on `catalog_scale`, the bootstrap
/// reports of every source.
pub fn deploy(name: &str, inputs: &Inputs, build: Build) -> (S2s, Vec<BootstrapReport>) {
    let (strategy, pushdown) = engine_config(name);
    let mut s2s = S2s::new(inputs.ontology.clone()).with_strategy(strategy);
    if pushdown {
        s2s = s2s.with_pushdown();
    }
    if name == "mutating_views" {
        s2s = s2s.with_result_cache().with_cache().with_views();
    }
    if build == Build::Traced {
        s2s = s2s.with_tracing();
    }
    let reports = register(&mut s2s, name, inputs);
    (s2s, reports)
}

/// The cache-free, pushdown-free serial twin of the deployment: the
/// reference every timed answer is checked against. On the watch
/// workloads it is `s2s_bench::deploy_paced` itself.
pub fn twin(name: &str, inputs: &Inputs, seed: u64) -> S2s {
    match name {
        "catalog_scale" => {
            let mut s2s = S2s::new(inputs.ontology.clone());
            register(&mut s2s, name, inputs);
            s2s
        }
        _ => s2s_bench::deploy_paced(
            inputs.records.len(),
            catalog_seed(seed),
            0,
            Strategy::Serial,
            false,
        ),
    }
}

fn register(s2s: &mut S2s, name: &str, inputs: &Inputs) -> Vec<BootstrapReport> {
    let reliable = FailureModel::reliable();
    for (id, connection) in &inputs.sources {
        s2s.register_remote_source(id, connection.clone(), CostModel::wan(), reliable)
            .expect("generated source ids are distinct");
    }
    if name == "catalog_scale" {
        return inputs
            .sources
            .iter()
            .map(|(id, _)| s2s.register_bootstrapped(id).expect("fleet sources bootstrap"))
            .collect();
    }
    s2s_bench::map_db(s2s, "DB");
    s2s_bench::map_xml(s2s, "XML");
    s2s_bench::map_web(s2s, "WEB");
    s2s_bench::map_text(s2s, "TXT");
    Vec::new()
}

/// The mapping module and source registry of a deployment, rebuilt by
/// the benchmark for the per-layer replays: the watch workloads
/// re-register the rules of the `s2s_bench::map_*` generators, and
/// `catalog_scale` the applied candidates of its bootstrap reports (as
/// E17 does).
pub fn replay_state(
    inputs: &Inputs,
    reports: &[BootstrapReport],
) -> (MappingModule, SourceRegistry) {
    let mut registry = SourceRegistry::new();
    for (id, connection) in &inputs.sources {
        registry
            .register_remote(
                id.as_str(),
                connection.clone(),
                CostModel::wan(),
                FailureModel::reliable(),
            )
            .expect("generated source ids are distinct");
    }
    let mut module = MappingModule::new();
    let mut add = |path: &str, rule: ExtractionRule, source: &str, scenario: RecordScenario| {
        let path: AttributePath = path.parse().expect("generated paths parse");
        module
            .register(&inputs.ontology, path, rule, source.into(), scenario)
            .expect("generated mappings resolve");
    };
    if !reports.is_empty() {
        for report in reports {
            for c in report.candidates.iter().filter(|c| c.applied) {
                add(&c.path, c.rule.clone(), &report.source, c.scenario);
            }
        }
        return (module, registry);
    }
    let multi = RecordScenario::MultiRecord;
    for (attr, col) in [("brand", "brand"), ("price", "price"), ("case", "case_m")] {
        let rule = ExtractionRule::Sql {
            query: format!("SELECT {col} FROM watches ORDER BY id"),
            column: col.into(),
        };
        add(&format!("thing.product.watch.{attr}"), rule, "DB", multi);
    }
    for (attr, el) in [("brand", "brand"), ("price", "price"), ("case", "case")] {
        let rule = ExtractionRule::XPath { path: format!("/catalog/watch/{el}/text()") };
        add(&format!("thing.product.watch.{attr}"), rule, "XML", multi);
    }
    for (attr, tag) in [("brand", "b"), ("price", "span"), ("case", "i")] {
        let var = &attr[..1];
        let rule = ExtractionRule::Webl {
            program: format!("var {var} = TagTexts(Text(PAGE), \"{tag}\");"),
        };
        add(&format!("thing.product.watch.{attr}"), rule, "WEB", multi);
    }
    for (attr, pat) in
        [("brand", r"brand: ([\w-]+)"), ("price", r"price: ([0-9.]+)"), ("case", r"case: ([\w-]+)")]
    {
        let rule = ExtractionRule::TextRegex { pattern: pat.into(), group: 1 };
        add(&format!("thing.product.watch.{attr}"), rule, "TXT", multi);
    }
    (module, registry)
}

/// Applies data version `version` of the DB source to an engine.
pub fn mutate(s2s: &S2s, inputs: &Inputs, version: usize) -> s2s::core::MutationReceipt {
    s2s.mutate_source(
        "DB",
        inputs.versions[version].clone(),
        ChangeKind::RowUpdate,
        vec!["price".into()],
    )
    .expect("DB is registered with a database connection")
}

/// Sources the write probes rotate over.
const PROBED_SOURCES: usize = 64;

/// Probe write `k` of the workloads without a write schedule: one of the
/// first [`PROBED_SOURCES`] sources, in turn, re-published with
/// unchanged data as a one-field row update. Rotating spreads the probes
/// over the registry instead of timing one entry.
pub fn probe_write(s2s: &S2s, inputs: &Inputs, k: usize) -> s2s::core::MutationReceipt {
    let (id, connection) = &inputs.sources[k % inputs.sources.len().min(PROBED_SOURCES)];
    let field = if inputs.records.is_empty() { "p0" } else { "price" };
    s2s.mutate_source(id, connection.clone(), ChangeKind::RowUpdate, vec![field.to_string()])
        .expect("probed sources are registered")
}

/// What a correct answer must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Individuals in the answer.
    pub individuals: usize,
    /// Triples in the instance graph.
    pub triples: usize,
    /// Order-independent hash of the individuals' value maps — the
    /// same content `s2s_bench::result_key` compares, without building
    /// the string.
    pub hash: u64,
}

/// The fingerprint of an answer.
pub fn answer(outcome: &QueryOutcome) -> Answer {
    answer_of(&outcome.instances)
}

/// The fingerprint of an instance set.
pub fn answer_of(instances: &s2s::core::instance::InstanceSet) -> Answer {
    let mut keys: Vec<u64> = instances
        .individuals
        .iter()
        .map(|i| {
            let mut h = DefaultHasher::new();
            for (property, values) in &i.values {
                property.as_str().hash(&mut h);
                values.hash(&mut h);
            }
            h.finish()
        })
        .collect();
    keys.sort_unstable();
    let mut h = DefaultHasher::new();
    keys.hash(&mut h);
    Answer {
        individuals: instances.individuals.len(),
        triples: instances.graph.len(),
        hash: h.finish(),
    }
}
