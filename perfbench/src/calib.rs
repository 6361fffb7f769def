//! Machine-speed calibration.
//!
//! The host's speed drifts by a third over tens of seconds, because
//! other tenants share its cores and caches. So a wall time alone says
//! as much about the host as about the program. The benchmark
//! interleaves a fixed loop of its own with the ops. The loop formats,
//! splits, hashes and sorts strings, like the program's wrappers do.
//! Every wall time is scaled by `REFERENCE_MS / (the loop's local
//! duration)`, so it reads as milliseconds on a host where the loop
//! takes [`REFERENCE_MS`]. The loop is the benchmark's own code and
//! never calls the program, so a change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Duration of [`kernel`] on the reference host, ms.
pub const REFERENCE_MS: f64 = 0.4;

/// A client samples the loop when this long has passed since its last
/// sample.
const EVERY: Duration = Duration::from_millis(20);

/// How long [`warm_up`] spins.
const WARM_UP: Duration = Duration::from_millis(100);

/// An op's speed factor is the median of the samples this close to it.
const HALF_WINDOW: Duration = Duration::from_millis(50);

/// The calibration loop; returns its wall time in ms.
fn kernel() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lines = Vec::with_capacity(600);
    for i in 0..600u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        lines.push(format!(
            "brand: b{} | price: {}.{:02} | case: c{}\n",
            x % 8,
            20 + x % 480,
            x % 100,
            i % 5
        ));
    }
    let text: String = lines.concat();
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut digits = 0usize;
    for line in text.lines() {
        for field in line.split(" | ") {
            if let Some((key, value)) = field.split_once(": ") {
                *counts.entry(key.to_string()).or_insert(0) += value.len();
                digits += value.bytes().filter(u8::is_ascii_digit).count();
            }
        }
    }
    let mut upper: Vec<String> = lines.iter().map(|l| l.to_uppercase()).collect();
    upper.sort();
    black_box((counts, digits, upper));
    started.elapsed().as_secs_f64() * 1e3
}

/// One thread's calibration samples.
#[derive(Debug, Default)]
pub struct Calibrator {
    samples: Vec<(Instant, f64)>,
}

impl Calibrator {
    /// Samples the loop if none ran in the last [`EVERY`].
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|(at, _)| at.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Samples the loop now.
    pub fn sample(&mut self) {
        let ms = kernel();
        self.samples.push((Instant::now(), ms));
    }

    /// The loop's local duration around `at`: the median of the samples
    /// within [`HALF_WINDOW`] of it, or the nearest sample.
    fn local_ms(&self, at: Instant) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| distance(*t, at) <= HALF_WINDOW)
            .map(|(_, ms)| *ms)
            .collect();
        if !near.is_empty() {
            return median(&near);
        }
        self.samples
            .iter()
            .min_by_key(|(t, _)| distance(*t, at))
            .map_or(REFERENCE_MS, |(_, ms)| *ms)
    }

    /// Scales a wall time measured around `at` to the reference host.
    pub fn scale(&self, at: Instant, ms: f64) -> f64 {
        ms * REFERENCE_MS / self.local_ms(at)
    }

    /// Median of every sample taken.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples.iter().map(|(_, ms)| *ms).collect::<Vec<_>>())
    }
}

fn distance(a: Instant, b: Instant) -> Duration {
    if a > b {
        a - b
    } else {
        b - a
    }
}

/// Runs the loop for [`WARM_UP`] without keeping samples, so the host
/// leaves any idle state before the first timed call.
pub fn warm_up() {
    let started = Instant::now();
    while started.elapsed() < WARM_UP {
        kernel();
    }
}

/// Times `f` scaled to the reference host, sampling the loop before and
/// after it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel();
    let started = Instant::now();
    let value = f();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let after = kernel();
    (value, ms * REFERENCE_MS / ((before + after) / 2.0))
}
