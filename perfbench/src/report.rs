//! The result of one run: metrics with units and sample counts, the
//! settings and host facts they were measured under, and the
//! correctness verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a single count or ratio).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Settings and host facts, by name.
    pub settings: BTreeMap<String, String>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
}

impl Report {
    /// Record a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.insert(
            name.into(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// Record a setting or host fact.
    pub fn setting(&mut self, name: impl Into<String>, value: impl ToString) {
        self.settings.insert(name.into(), value.to_string());
    }

    /// Keep only the metrics named in `names`, failing if any is missing.
    pub fn select(&mut self, names: &[String]) -> Result<(), String> {
        let mut kept = BTreeMap::new();
        for name in names {
            let m = self
                .metrics
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            kept.insert(name.clone(), m);
        }
        self.metrics = kept;
        Ok(())
    }

    /// Human-readable lines: one per metric with unit and sample count,
    /// then one per setting.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "{name:<40} {:>14.4} {:<6} n={}",
                m.value, m.unit, m.samples
            );
        }
        for (name, v) in &self.settings {
            let _ = writeln!(out, "# {name} = {v}");
        }
        out
    }

    /// The settings and per-metric sample counts as one JSON object.
    pub fn info_json(&self) -> String {
        let settings: Vec<String> = self
            .settings
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
            .collect();
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| format!("{}:{}", json_str(k), m.samples))
            .collect();
        format!(
            "{{\"settings\":{{{}}},\"samples\":{{{}}}}}",
            settings.join(","),
            samples.join(",")
        )
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, m)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(k),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    // `{:?}` keeps every digit and always prints a decimal point or exponent.
    format!("{v:?}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
