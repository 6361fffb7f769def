//! The closed-loop clients: each steps through its schedule, timing
//! every op and checking every answer against the twin's.

use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use s2s::core::cache::CacheStats;
use s2s::core::instance::OutputFormat;
use s2s::core::middleware::QueryStats;
use s2s::core::ViewStats;
use s2s::netsim::PoolStats;
use s2s::obs::SpanKind;
use s2s::S2s;

use crate::calib::Calibrator;
use crate::layers::Recorder;
use crate::workload::{self, Answer, Inputs, Op, Plan};

/// Every `OWL_SAMPLE`-th op of a client keeps its rendered OWL for the
/// parse-back check after the pass.
pub const OWL_SAMPLE: usize = 32;

/// Reference answers keyed by `(text index, DB data version)`.
pub type Reference = HashMap<(usize, usize), Answer>;

/// Steps the twin through every client's planned schedule, mutations
/// included, and records the answer of each `(text, version)` it meets.
pub fn reference(twin: &S2s, inputs: &Inputs, plan: &Plan) -> Result<Reference, String> {
    let mut answers = Reference::new();
    for c in 0..plan.clients.len() {
        let mut state = 0;
        for i in 0..plan.planned {
            match plan.op(c, i) {
                Some(Op::Mutate(v)) => {
                    workload::mutate(twin, inputs, v);
                    state = v;
                }
                Some(Op::Read(t)) => {
                    if let std::collections::hash_map::Entry::Vacant(slot) =
                        answers.entry((t, state))
                    {
                        slot.insert(twin_answer(twin, &plan.texts[t])?);
                    }
                }
                None => break,
            }
        }
    }
    Ok(answers)
}

/// The twin's answer to one text, refusing degraded answers.
pub fn twin_answer(twin: &S2s, text: &str) -> Result<Answer, String> {
    let outcome = twin.query(text).map_err(|e| format!("twin: {text}: {e}"))?;
    check_stats(&outcome.stats).map_err(|e| format!("twin: {text}: {e}"))?;
    Ok(workload::answer(&outcome))
}

fn check_stats(stats: &QueryStats) -> Result<(), String> {
    if stats.shed {
        Err("shed".into())
    } else if stats.failed_tasks > 0 || stats.completeness < 1.0 {
        Err(format!(
            "degraded: {} failed tasks, completeness {}",
            stats.failed_tasks, stats.completeness
        ))
    } else {
        Ok(())
    }
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Until the window has lasted this long and every client has run
    /// its counted ops.
    Timed(Duration),
    /// Exactly `plan.traced` ops per client after the warm-up, with
    /// spans recorded.
    Traced,
}

/// One completed read.
#[derive(Debug, Clone)]
pub struct Read {
    /// The answer's fingerprint.
    pub answer: Answer,
    /// The engine's statistics for the query.
    pub stats: QueryStats,
    /// Bytes of the OWL/RDF-XML rendering.
    pub owl_bytes: usize,
}

/// One op as it ran.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the op in its client's schedule.
    pub index: usize,
    /// The op.
    pub op: Op,
    /// DB data version the op ran at (after it, for a mutation).
    pub state: usize,
    /// When the op began.
    pub start: Instant,
    /// Wall time of the op's calls into the program, ms.
    pub wall_ms: f64,
    /// `wall_ms` scaled to the reference host (see [`crate::calib`]).
    pub scaled_ms: f64,
    /// Past the warm-up.
    pub measured: bool,
    /// Within the first `plan.counted` measured ops.
    pub counted: bool,
    /// Read outcome.
    pub read: Option<Read>,
    /// Why the op failed, if it did.
    pub error: Option<String>,
    /// Reads the twin had not planned for: checked after the pass.
    pub unchecked: bool,
}

/// One client's pass.
#[derive(Debug)]
pub struct ClientRun {
    /// Every op, warm-up included.
    pub samples: Vec<Sample>,
    /// Sampled OWL renderings with the triple count of their graph.
    pub owl: Vec<(String, usize)>,
    /// When this client's measured window began.
    pub start: Instant,
    /// Median duration of the calibration loop during the pass, ms.
    pub calibration_ms: f64,
    /// Spans of the traced pass.
    pub recorder: Recorder,
}

impl ClientRun {
    /// Reads completed per second of this client's scaled busy time
    /// (the scaled walls of its measured ops, writes included).
    pub fn throughput(&self) -> f64 {
        let measured = self.samples.iter().filter(|s| s.measured);
        let busy_s: f64 = measured.clone().map(|s| s.scaled_ms).sum::<f64>() / 1e3;
        let reads = measured.filter(|s| s.read.is_some()).count();
        crate::stats::ratio(reads as f64, busy_s)
    }
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Plan cache.
    pub plan: CacheStats,
    /// Result cache.
    pub result: CacheStats,
    /// Result-cache entries dropped by mutations.
    pub result_invalidations: u64,
    /// Compiled-rule cache.
    pub rules: CacheStats,
    /// Extraction cache.
    pub extraction: CacheStats,
    /// Materialized views.
    pub views: ViewStats,
    /// Shared worker pool.
    pub pool: PoolStats,
}

impl Counters {
    /// Reads every counter of `engine`.
    pub fn of(engine: &S2s) -> Self {
        Counters {
            plan: engine.plan_cache_stats(),
            result: engine.result_cache_stats(),
            result_invalidations: engine.result_cache_invalidations(),
            rules: engine.rule_cache_stats(),
            extraction: engine.cache_stats(),
            views: engine.view_stats(),
            pool: engine.pool_stats(),
        }
    }
}

/// A whole pass over every client.
#[derive(Debug)]
pub struct Run {
    /// Per-client results.
    pub clients: Vec<ClientRun>,
    /// Counters when the measured window began.
    pub before: Counters,
    /// Counters when the last client finished.
    pub after: Counters,
}

impl Run {
    /// Every sample of every client.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| c.samples.iter())
    }

    /// Measured reads.
    pub fn measured_reads(&self) -> impl Iterator<Item = (&Sample, &Read)> {
        self.samples().filter(|s| s.measured).filter_map(|s| s.read.as_ref().map(|r| (s, r)))
    }

    /// Reads within the deterministic prefix.
    pub fn counted_reads(&self) -> impl Iterator<Item = &Read> {
        self.samples().filter(|s| s.counted).filter_map(|s| s.read.as_ref())
    }

    /// Reads per second of all clients together, scaled to the
    /// reference host.
    pub fn throughput(&self) -> f64 {
        self.clients.iter().map(ClientRun::throughput).sum()
    }

    /// Median duration of the calibration loop over all clients, ms.
    pub fn calibration_ms(&self) -> f64 {
        crate::stats::median(&self.clients.iter().map(|c| c.calibration_ms).collect::<Vec<_>>())
    }

    /// The measured window: from the first client's start to the last
    /// measured op's end.
    pub fn window(&self) -> Duration {
        let start = self.clients.iter().map(|c| c.start).min().expect("at least one client");
        let end = self
            .samples()
            .filter(|s| s.measured)
            .map(|s| s.start + Duration::from_secs_f64(s.wall_ms / 1e3))
            .max()
            .unwrap_or(start);
        end.duration_since(start)
    }
}

/// Runs `plan` against `engine` with one thread per client.
pub fn drive(
    engine: &S2s,
    inputs: &Inputs,
    plan: &Plan,
    reference: &Reference,
    mode: Mode,
    origin: Instant,
) -> Run {
    let clients = plan.clients.len();
    let barrier = Barrier::new(clients);
    let before = Mutex::new(Counters::default());
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, before) = (&barrier, &before);
                scope.spawn(move || {
                    let client = Client::new(engine, inputs, plan, reference, mode, origin, c);
                    client.run(barrier, before)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let before = *before.lock().expect("no client panicked holding the snapshot");
    Run { clients: runs, before, after: Counters::of(engine) }
}

struct Client<'a> {
    engine: &'a S2s,
    inputs: &'a Inputs,
    plan: &'a Plan,
    reference: &'a Reference,
    mode: Mode,
    c: usize,
    state: usize,
    samples: Vec<Sample>,
    owl: Vec<(String, usize)>,
    recorder: Recorder,
    calibrator: Calibrator,
}

impl<'a> Client<'a> {
    fn new(
        engine: &'a S2s,
        inputs: &'a Inputs,
        plan: &'a Plan,
        reference: &'a Reference,
        mode: Mode,
        origin: Instant,
        c: usize,
    ) -> Self {
        Client {
            engine,
            inputs,
            plan,
            reference,
            mode,
            c,
            state: 0,
            samples: Vec::new(),
            owl: Vec::new(),
            recorder: Recorder::new(origin, (c as u64) << 32),
            calibrator: Calibrator::default(),
        }
    }

    fn run(mut self, barrier: &Barrier, before: &Mutex<Counters>) -> ClientRun {
        self.calibrator.sample();
        let mut i = 0;
        while i < self.plan.warmup {
            self.calibrator.tick();
            match self.plan.op(self.c, i) {
                Some(op) => self.step(i, op, false),
                None => break,
            }
            i += 1;
        }
        barrier.wait();
        if self.c == 0 {
            *before.lock().expect("no client panicked holding the snapshot") =
                Counters::of(self.engine);
        }
        barrier.wait();
        let start = Instant::now();
        loop {
            let measured = i - self.plan.warmup.min(i);
            let done = match self.mode {
                Mode::Timed(d) => measured >= self.plan.counted && start.elapsed() >= d,
                Mode::Traced => measured >= self.plan.traced,
            };
            if done {
                break;
            }
            self.calibrator.tick();
            match self.plan.op(self.c, i) {
                Some(op) => self.step(i, op, true),
                None => break,
            }
            i += 1;
        }
        self.calibrator.sample();
        for s in &mut self.samples {
            let middle = s.start + Duration::from_secs_f64(s.wall_ms / 2e3);
            s.scaled_ms = self.calibrator.scale(middle, s.wall_ms);
        }
        ClientRun {
            samples: self.samples,
            owl: self.owl,
            start,
            calibration_ms: self.calibrator.median_ms(),
            recorder: self.recorder,
        }
    }

    fn step(&mut self, index: usize, op: Op, measured: bool) {
        let counted = measured && index - self.plan.warmup < self.plan.counted;
        let traced = measured && matches!(self.mode, Mode::Traced);
        let op_id = ((self.c as u64) << 32) | index as u64;
        let mut sample = Sample {
            index,
            op,
            state: self.state,
            start: Instant::now(),
            wall_ms: 0.0,
            scaled_ms: 0.0,
            measured,
            counted,
            read: None,
            error: None,
            unchecked: false,
        };
        match op {
            Op::Mutate(v) => {
                let start = Instant::now();
                let receipt = workload::mutate(self.engine, self.inputs, v);
                let end = Instant::now();
                self.state = v;
                sample.state = v;
                sample.start = start;
                sample.wall_ms = ms(end - start);
                if traced {
                    let root = self.recorder.add(
                        None,
                        SpanKind::Query,
                        "op.write",
                        op_id,
                        start,
                        end,
                        vec![],
                    );
                    self.recorder.add(
                        Some(root),
                        SpanKind::Query,
                        "S2s::mutate_source",
                        op_id,
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
            Op::Read(t) => {
                let text = &self.plan.texts[t];
                let start = Instant::now();
                let outcome = self.engine.query(text);
                let queried = Instant::now();
                let outcome = match outcome {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        sample.error = Some(format!("{text}: {e}"));
                        sample.start = start;
                        sample.wall_ms = ms(queried - start);
                        self.samples.push(sample);
                        return;
                    }
                };
                let owl = outcome.render(self.engine.ontology(), OutputFormat::OwlRdfXml);
                let end = Instant::now();
                sample.start = start;
                sample.wall_ms = ms(end - start);
                let answer = workload::answer(&outcome);
                if let Err(e) = check_stats(&outcome.stats) {
                    sample.error = Some(format!("{text}: {e}"));
                }
                if self.plan.answer_size.is_some_and(|n| n != answer.individuals) {
                    sample.error = Some(format!(
                        "{text}: {} individuals where the generator fixes {:?}",
                        answer.individuals, self.plan.answer_size
                    ));
                }
                match self.reference.get(&(t, self.state)) {
                    Some(expected) if *expected != answer => {
                        sample.error = Some(format!(
                            "{text}: answer differs from the twin's ({} vs {} individuals)",
                            answer.individuals, expected.individuals
                        ));
                    }
                    Some(_) => {}
                    None => sample.unchecked = true,
                }
                if index.is_multiple_of(OWL_SAMPLE) {
                    self.owl.push((owl.clone(), answer.triples));
                }
                if traced {
                    let root = self.recorder.add(
                        None,
                        SpanKind::Query,
                        "op.read",
                        op_id,
                        start,
                        end,
                        vec![],
                    );
                    let call = self.recorder.add(
                        Some(root),
                        SpanKind::Query,
                        "S2s::query",
                        op_id,
                        start,
                        queried,
                        vec![("layer", "middleware".into())],
                    );
                    if let Some(trace) = &outcome.trace {
                        self.recorder.attach(call, op_id, trace);
                    }
                    self.recorder.add(
                        Some(root),
                        SpanKind::Query,
                        "QueryOutcome::render",
                        op_id,
                        queried,
                        end,
                        vec![("layer", "instance".into()), ("bytes", owl.len().to_string())],
                    );
                }
                sample.read = Some(Read { answer, stats: outcome.stats, owl_bytes: owl.len() });
            }
        }
        self.samples.push(sample);
    }
}

/// Milliseconds of a duration, with all digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
