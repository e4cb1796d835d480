//! Pieces every workload shares: run settings, the set-up loop with its
//! untraced/traced phases, and per-class sample summaries.

use crate::report::Report;
use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An error from any layer, as the message a failed run reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Settings of one run, from the command line.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: expression parameters and the operation mix
    /// derive from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Resident rows per table (the harness's XS size by default).
    pub records: usize,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is the median of their times.
pub const SETUP_REPEATS: usize = 3;

/// One measured phase: how long, and whether spans are recorded.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Whether this phase records spans.
    pub traced: bool,
    /// How long the phase measures.
    pub length: Duration,
}

/// Build the system under test [`SETUP_REPEATS`] times, timing each
/// build, and measure a share of the run on each: the measured time is
/// split evenly across the set-ups, so no set-up is wasted and the
/// samples average over set-ups. Each set-up is dropped before the next
/// is built. On each set-up the traced run measures an untraced phase
/// and then a traced one of equal length, so it can report what
/// tracing itself costs. Returns the set-up times in seconds.
pub fn run_setups<T>(
    cfg: &RunConfig,
    mut build: impl FnMut() -> Result<T, String>,
    mut measure: impl FnMut(&mut T, Phase) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let share = Duration::from_secs_f64(cfg.seconds) / SETUP_REPEATS as u32;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let mut built = build()?;
        times.push(started.elapsed().as_secs_f64());
        if cfg.trace {
            for traced in [false, true] {
                measure(
                    &mut built,
                    Phase {
                        traced,
                        length: share / 2,
                    },
                )?;
            }
        } else {
            measure(
                &mut built,
                Phase {
                    traced: false,
                    length: share,
                },
            )?;
        }
    }
    Ok(times)
}

/// Record `setup_s`, the median set-up time.
pub fn record_setup(report: &mut Report, times: &[f64]) {
    let setup_s = stats::median(times).expect("at least one set-up");
    report.metric("setup_s", setup_s, "s", times.len());
}

/// Latency samples (ms) grouped by operation class.
pub type Classes = BTreeMap<String, Vec<f64>>;

/// Median of each class.
pub fn class_medians(classes: &Classes) -> BTreeMap<String, f64> {
    classes
        .iter()
        .filter_map(|(k, v)| stats::median(v).map(|m| (k.clone(), m)))
        .collect()
}

/// Geometric mean over the classes whose name passes `keep` of each
/// class's median, with the number of samples behind it.
pub fn geomean_of_medians(classes: &Classes, keep: impl Fn(&str) -> bool) -> (f64, usize) {
    let kept: Vec<(&String, &Vec<f64>)> = classes.iter().filter(|(k, _)| keep(k)).collect();
    let medians: Vec<f64> = kept.iter().filter_map(|(_, v)| stats::median(v)).collect();
    let samples = kept.iter().map(|(_, v)| v.len()).sum();
    (stats::geomean(&medians).unwrap_or(f64::NAN), samples)
}

/// Record the end-to-end metrics every workload reports from its
/// untraced samples: `action_geomean_ms` over all classes,
/// `read_geomean_ms` over the classes `is_read` accepts,
/// `action_tail_ms` at `tail_pct` over every sample pooled, and
/// `ops_per_s` over `elapsed`.
pub fn end_to_end(
    report: &mut Report,
    classes: &Classes,
    is_read: impl Fn(&str) -> bool,
    tail_pct: f64,
    elapsed: Duration,
) {
    let (all, n) = geomean_of_medians(classes, |_| true);
    report.metric("action_geomean_ms", all, "ms", n);
    let (reads, n_reads) = geomean_of_medians(classes, is_read);
    report.metric("read_geomean_ms", reads, "ms", n_reads);
    let pooled: Vec<f64> = classes.values().flatten().copied().collect();
    report.metric(
        "action_tail_ms",
        stats::percentile(&pooled, tail_pct).unwrap_or(f64::NAN),
        "ms",
        pooled.len(),
    );
    report.setting("action_tail_percentile", tail_pct);
    report.setting(
        "action_tail_samples_beyond",
        stats::samples_beyond(pooled.len(), tail_pct),
    );
    // The tail percentile is fixed per workload so it means the same on
    // every run; this records whether the run had enough samples for it
    // (at least ten beyond).
    report.setting(
        "action_tail_rule_met",
        stats::highest_supported_percentile(pooled.len()).is_some_and(|p| p >= tail_pct),
    );
    // Within-run noise: the median over classes of each class's
    // interquartile range as a share of its median.
    let spreads: Vec<f64> = classes
        .values()
        .filter_map(|v| {
            let (q1, q3) = stats::quartiles(v)?;
            Some((q3 - q1) / stats::median(v)?)
        })
        .collect();
    if let Some(spread) = stats::median(&spreads) {
        report.setting("within_class_iqr_share", format!("{spread:.4}"));
    }
    report.metric(
        "ops_per_s",
        pooled.len() as f64 / elapsed.as_secs_f64(),
        "1/s",
        pooled.len(),
    );
}

/// `100 * (traced / untraced - 1)`: what recording spans added to the
/// geometric mean of per-class medians.
pub fn tracing_overhead(report: &mut Report, untraced: &Classes, traced: &Classes) {
    let (u, _) = geomean_of_medians(untraced, |_| true);
    let (t, n) = geomean_of_medians(traced, |_| true);
    report.metric("trace.overhead_pct", 100.0 * (t / u - 1.0), "%", n);
}
