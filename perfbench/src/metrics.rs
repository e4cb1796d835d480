//! The metric set `BENCHMARK.json` declares, with units and the workload
//! that measures each per-layer metric.
//!
//! Every run prints every end-to-end metric (untraced) or every
//! per-layer metric (traced). A per-layer metric of a layer the workload
//! does not reach reads 0 with 0 samples: that layer did no work.

use crate::paper_read::Backend;
use polyframe_bench::ALL_EXPRESSIONS;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table III on four backends, one client, no writes.
    PaperRead,
    /// Single-row inserts beside reads on three durable stores.
    TrickleWrite,
    /// Two sessions through the server over a replicated cluster.
    ServeMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRead,
        Workload::TrickleWrite,
        Workload::ServeMixed,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRead => "paper-read",
            Workload::TrickleWrite => "trickle-write",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// The workload that measures it; `None` for every workload.
    pub owner: Option<Workload>,
}

fn spec(name: impl Into<String>, unit: &'static str, owner: Option<Workload>) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        higher_is_better: false,
        owner,
    }
}

fn higher(spec: MetricSpec) -> MetricSpec {
    MetricSpec {
        higher_is_better: true,
        ..spec
    }
}

/// End-to-end metrics: every workload reports all of them.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("setup_s", "s", None),
        spec("action_geomean_ms", "ms", None),
        spec("read_geomean_ms", "ms", None),
        spec("action_tail_ms", "ms", None),
        higher(spec("ops_per_s", "1/s", None)),
    ]
}

/// Per-layer metrics.
pub fn per_layer() -> Vec<MetricSpec> {
    let pr = Some(Workload::PaperRead);
    let tw = Some(Workload::TrickleWrite);
    let sm = Some(Workload::ServeMixed);
    let mut out = vec![spec("trace.overhead_pct", "%", None)];
    for b in Backend::ALL {
        let n = b.name();
        out.push(spec(format!("read_suite_s.{n}"), "s", pr));
        out.push(spec(format!("core.rewrite_us.{n}"), "us", pr));
        out.push(spec(format!("core.connector_us.{n}"), "us", pr));
        out.push(spec(format!("core.query_bytes.{n}"), "bytes", pr));
        if b.layer() == "sqlengine" {
            out.push(spec(format!("sqlengine.compile_us.{n}"), "us", pr));
        }
        out.push(higher(spec(
            format!("{}.plan_cache_hit_ratio.{n}", b.layer()),
            "ratio",
            pr,
        )));
        for e in ALL_EXPRESSIONS {
            out.push(spec(format!("{}.ms.{n}.e{}", b.layer(), e.0), "ms", pr));
        }
    }
    for (store, layer) in [
        ("sql", "sqlengine"),
        ("doc", "docstore"),
        ("graph", "graphstore"),
    ] {
        out.push(spec(format!("insert_p50_ms.{store}"), "ms", tw));
        out.push(spec(format!("storage.insert_scaling.{store}"), "ratio", tw));
        out.push(spec(
            format!("storage.wal_bytes_per_insert.{store}"),
            "bytes",
            tw,
        ));
        out.push(spec(format!("rw.read_ms.{store}"), "ms", tw));
        out.push(higher(spec(
            format!("{layer}.plan_cache_hit_ratio.{store}"),
            "ratio",
            tw,
        )));
    }
    out.push(spec("storage.checkpoints", "count", tw));
    for (name, unit) in [
        ("cluster.query_ms", "ms"),
        ("cluster.load_ms", "ms"),
        ("cluster.replica_lag_max", "count"),
        ("cluster.failovers", "count"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.rejected", "count"),
        ("serve.max_depth", "count"),
    ] {
        out.push(spec(name, unit, sm));
    }
    out
}
