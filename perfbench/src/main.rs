//! The S2S benchmark: one command that runs a seeded workload against
//! the public `S2s` API and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_federated --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each run builds the workload's deployment (timed as `setup_s`), steps
//! a cache-free serial twin through the op schedule to record the
//! reference answers, then runs the closed-loop timed pass and checks
//! every answer against the twin's. With `--trace 0` the last line of
//! standard output carries the end-to-end metrics; with `--trace 1` a
//! traced pass and the per-layer replays follow, their spans are
//! written to `perfbench/out/` as JSON lines, and the last line carries
//! the per-layer metrics computed from that file. A wrong answer, an op
//! error or an OWL output that does not parse back exits with code 1.

mod calib;
mod drive;
mod layers;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::time::{Duration, Instant};

use drive::{Mode, Run};
use stats::{mean, median, percentile, Metric};
use workload::{Build, Inputs, Op, Plan};

/// The end-to-end metric names and units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("sim_latency_mean_ms", "ms"),
    ("wire_bytes_per_query", "B"),
    ("round_trips_per_query", "count"),
    ("peak_rss_mb", "MB"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", workload::WORKLOADS));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Setup repetitions: `setup_s` is their median.
fn setup_reps(name: &str) -> usize {
    if name == "catalog_scale" {
        7
    } else {
        51
    }
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload.as_str();
    let plan = workload::plan(name, args.seed, args.seconds).expect("workload name was checked");
    let inputs = workload::inputs(name, args.seed);
    calib::warm_up();

    // Set-up, several times; the last deployment is the one measured.
    let mut setup = Vec::new();
    let mut deployed = None;
    for _ in 0..setup_reps(name) {
        drop(deployed.take());
        let (d, ms) = calib::timed(|| workload::deploy(name, &inputs, Build::Engine));
        setup.push(ms / 1e3);
        deployed = Some(d);
    }
    let (engine, reports) = deployed.expect("at least one set-up");

    let reference = {
        let twin = workload::twin(name, &inputs, args.seed);
        drive::reference(&twin, &inputs, &plan)?
    };

    let rss_reset = stats::reset_peak_rss();
    let timed = drive::drive(
        &engine,
        &inputs,
        &plan,
        &reference,
        Mode::Timed(Duration::from_secs(args.seconds)),
        Instant::now(),
    );
    let peak_rss = stats::peak_rss_mb();
    if !rss_reset {
        eprintln!("perfbench: peak RSS could not be reset; peak_rss_mb covers the whole process");
    }
    let failures = verify(&timed, &plan, &inputs, name, args.seed)?;

    drop(engine);

    let attempted = timed.samples().count() as u64;
    let e2e = end_to_end(&timed, &plan, median(&setup), peak_rss);
    report_deterministic(&timed, &plan);

    let metrics = if args.trace {
        let (traced, records, table_size) =
            layers::traced_pass(name, &inputs, &plan, &reference, &reports)?;
        let jsonl = s2s::obs::render_jsonl_records(&records);
        let parsed = s2s::obs::parse_jsonl(&jsonl)?;
        if parsed != records {
            return Err("trace JSONL does not round-trip through parse_jsonl".into());
        }
        write_trace(name, args.seed, &jsonl);
        let li = layers::LayerInputs {
            traced: &traced,
            untraced_p50_ms: metric(&e2e, "latency_p50_ms"),
            table_size,
        };
        layers::metrics(&parsed, &li)
    } else {
        e2e
    };

    let correct = failures == 0;
    println!("{}", stats::result_line(correct, attempted, failures, &metrics));
    if correct {
        Ok(())
    } else {
        Err(format!("{failures} failed ops"))
    }
}

fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value)
}

/// Counts failed ops: errors and answer mismatches found during the
/// pass, reads the twin had not planned for (checked now against a
/// fresh twin), and sampled OWL renderings that do not parse back to
/// their graph's triple count. Failures are listed on standard error.
fn verify(run: &Run, plan: &Plan, inputs: &Inputs, name: &str, seed: u64) -> Result<u64, String> {
    let mut failures = 0u64;
    for s in run.samples() {
        if let Some(e) = &s.error {
            failures += 1;
            if failures <= 5 {
                eprintln!("perfbench: op {} failed: {e}", s.index);
            }
        }
    }
    let unchecked: Vec<_> = run.samples().filter(|s| s.unchecked).collect();
    if !unchecked.is_empty() {
        let twin = workload::twin(name, inputs, seed);
        for s in unchecked {
            let (Op::Read(t), Some(read)) = (s.op, &s.read) else { continue };
            if drive::twin_answer(&twin, &plan.texts[t])? != read.answer {
                failures += 1;
                eprintln!("perfbench: op {} differs from the twin's answer", s.index);
            }
        }
    }
    for (owl, triples) in run.clients.iter().flat_map(|c| c.owl.iter()) {
        match s2s::rdf::rdfxml::parse(owl) {
            Ok(graph) if graph.len() == *triples => {}
            Ok(graph) => {
                failures += 1;
                eprintln!("perfbench: OWL parsed to {} triples, graph had {triples}", graph.len());
            }
            Err(e) => {
                failures += 1;
                eprintln!("perfbench: OWL output does not parse: {e}");
            }
        }
    }
    Ok(failures)
}

fn end_to_end(run: &Run, plan: &Plan, setup_s: f64, peak_rss: f64) -> Vec<Metric> {
    let latencies: Vec<f64> = run.measured_reads().map(|(s, _)| s.scaled_ms).collect();
    let (tail, beyond) = percentile(&latencies, plan.tail_pct);
    if beyond < 10 {
        eprintln!(
            "perfbench: only {beyond} of {} samples lie beyond p{}; the tail is not resolved",
            latencies.len(),
            plan.tail_pct
        );
    }
    let counted: Vec<_> = run.counted_reads().collect();
    let sims: Vec<f64> =
        counted.iter().map(|r| r.stats.simulated.as_micros() as f64 / 1e3).collect();
    let per_query =
        |f: &dyn Fn(&drive::Read) -> f64| mean(&counted.iter().map(|r| f(r)).collect::<Vec<_>>());
    let values = [
        setup_s,
        median(&latencies),
        tail,
        run.throughput(),
        mean(&sims),
        per_query(&|r| r.stats.wire_bytes as f64),
        per_query(&|r| r.stats.round_trips as f64),
        peak_rss,
    ];
    let raw: Vec<f64> = run.measured_reads().map(|(s, _)| s.wall_ms).collect();
    eprintln!(
        "perfbench: {}: {} measured reads in {:.3} s, tail p{} with {beyond} samples beyond it; \
         unscaled p50 {:.4} ms, calibration loop {:.4} ms (reference {} ms)",
        plan.name,
        latencies.len(),
        run.window().as_secs_f64(),
        plan.tail_pct,
        median(&raw),
        run.calibration_ms(),
        calib::REFERENCE_MS,
    );
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Prints the counters that must repeat exactly for one seed.
fn report_deterministic(run: &Run, plan: &Plan) {
    let counted: Vec<_> = run.counted_reads().collect();
    let sum = |f: &dyn Fn(&drive::Read) -> u64| counted.iter().map(|r| f(r)).sum::<u64>();
    eprintln!(
        "perfbench: {} deterministic over {} counted reads: wire_bytes={} round_trips={} \
         individuals={} sim_us={} view_hits={} view_refreshes={} result_hits={} extraction_hits={}",
        plan.name,
        counted.len(),
        sum(&|r| r.stats.wire_bytes),
        sum(&|r| r.stats.round_trips),
        sum(&|r| r.answer.individuals as u64),
        sum(&|r| r.stats.simulated.as_micros()),
        sum(&|r| r.stats.view_hits),
        sum(&|r| r.stats.view_refreshes),
        sum(&|r| r.stats.result_cache.hits),
        sum(&|r| r.stats.extraction_cache.hits),
    );
}

/// Writes the traced pass's spans next to the benchmark's sources.
fn write_trace(name: &str, seed: u64, jsonl: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{name}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, jsonl));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
