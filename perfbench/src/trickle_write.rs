//! `trickle-write`: single-row inserts beside reads, as a closed loop
//! with one client, over the SQL engine (PostgreSQL personality), the
//! document store and the graph store. Each store holds the resident
//! table with two secondary indexes and logs to a write-ahead log on
//! in-memory `LogMedia`. Each round inserts one row into every store,
//! then reads every store through an `AFrame`: `len()` and a point
//! selection on the new key, which must see the row (read-your-write).

use crate::common::{self, err, Classes, RunConfig};
use crate::data::{self, DS, NS};
use crate::report::Report;
use crate::trace::Tracer;
use polyframe::prelude::*;
use polyframe_datamodel::Record;
use polyframe_docstore::DocStore;
use polyframe_graphstore::GraphStore;
use polyframe_observe::CacheStats;
use polyframe_sqlengine::{Engine, EngineConfig};
use polyframe_storage::{CheckpointPolicy, LogMedia, WalStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Secondary indexes on every store's resident table.
const INDEXED: [&str; 2] = ["unique1", "onePercent"];

/// WAL checkpoint interval in appended ops. A run makes over a hundred
/// rounds, so every store checkpoints several times per run.
const CHECKPOINT_EVERY: u64 = 32;

/// Resident rows of the small tables `storage.insert_scaling` divides
/// by: insert cost that is flat in table size gives a ratio near 1.
const SMALL_ROWS: usize = 1_000;

/// Pooled percentile reported as `action_tail_ms`: a run makes over a
/// hundred rounds of six operations, so dozens of samples lie beyond p95.
const TAIL_PCT: f64 = 95.0;

/// Untimed warm-up rounds per set-up (read plans cached and promoted).
const WARMUP_ROUNDS: usize = 2;

/// The three stores, in metric-name form.
const STORES: [&str; 3] = ["sql", "doc", "graph"];

/// One store of each kind over the same resident table, each with its
/// own log media.
struct Stores {
    sql: Arc<Engine>,
    doc: Arc<DocStore>,
    graph: Arc<GraphStore>,
    media: [Arc<LogMedia>; 3],
    connectors: [Arc<dyn DatabaseConnector>; 3],
    resident: usize,
    appended: usize,
}

impl Stores {
    /// Durable stores holding `records` with [`INDEXED`]. Durability is
    /// enabled first, so the load and index builds are logged too.
    fn load(records: &[Record]) -> Result<Stores, String> {
        let policy = CheckpointPolicy::every(CHECKPOINT_EVERY);
        let media = [LogMedia::new(), LogMedia::new(), LogMedia::new()];
        let sql = Arc::new(Engine::new(EngineConfig::postgres()));
        sql.enable_durability(Arc::clone(&media[0]), policy)
            .map_err(err)?;
        sql.create_dataset(NS, DS, Some("unique2")).map_err(err)?;
        sql.load(NS, DS, records.to_vec()).map_err(err)?;
        let doc = Arc::new(DocStore::new());
        doc.enable_durability(Arc::clone(&media[1]), policy)
            .map_err(err)?;
        let coll = format!("{NS}.{DS}");
        doc.create_collection(&coll).map_err(err)?;
        doc.insert_many(&coll, records.to_vec()).map_err(err)?;
        let graph = Arc::new(GraphStore::new());
        graph
            .enable_durability(Arc::clone(&media[2]), policy)
            .map_err(err)?;
        graph.create_label(DS).map_err(err)?;
        graph.insert_nodes(DS, records.to_vec()).map_err(err)?;
        for attr in INDEXED {
            sql.create_index(NS, DS, attr).map_err(err)?;
            doc.create_index(&coll, attr).map_err(err)?;
            graph.create_index(DS, attr).map_err(err)?;
        }
        let connectors: [Arc<dyn DatabaseConnector>; 3] = [
            Arc::new(PostgresConnector::new(Arc::clone(&sql))),
            Arc::new(MongoConnector::new(Arc::clone(&doc))),
            Arc::new(Neo4jConnector::new(Arc::clone(&graph))),
        ];
        Ok(Stores {
            sql,
            doc,
            graph,
            media,
            connectors,
            resident: records.len(),
            appended: 0,
        })
    }

    /// Insert one row into store `s` (index into [`STORES`]).
    fn insert(&self, s: usize, row: Record) -> Result<(), String> {
        match s {
            0 => self.sql.load(NS, DS, [row]).map_err(err),
            1 => self
                .doc
                .insert_many(&format!("{NS}.{DS}"), [row])
                .map(|_| ())
                .map_err(err),
            _ => self.graph.insert_nodes(DS, [row]).map(|_| ()).map_err(err),
        }
    }

    fn wal_stats(&self, s: usize) -> WalStats {
        match s {
            0 => self.sql.wal_stats(),
            1 => self.doc.wal_stats(),
            _ => self.graph.wal_stats(),
        }
        .expect("durability is enabled on every store")
    }

    fn plan_cache_stats(&self, s: usize) -> CacheStats {
        match s {
            0 => self.sql.plan_cache_stats(),
            1 => self.doc.plan_cache_stats(),
            _ => self.graph.plan_cache_stats(),
        }
    }

    fn checkpoints(&self) -> u64 {
        (0..STORES.len())
            .map(|s| self.wal_stats(s).checkpoints)
            .sum()
    }

    /// The read half of a round on store `s`: `len()` and a point
    /// selection on `key`. Returns the count and the rows the point
    /// selection found.
    fn read(&self, s: usize, key: i64) -> polyframe::Result<(usize, usize)> {
        let df = AFrame::new(NS, DS, Arc::clone(&self.connectors[s]))?;
        let len = df.len()?;
        let found = df.mask(&col("unique1").eq(key))?.head(1)?.len();
        Ok((len, found))
    }

    /// One round: insert the next row everywhere, then read everywhere.
    /// Insert and read latencies (ms) land in `classes`; read-your-write
    /// violations are errors, failed operations are counted.
    fn round(
        &mut self,
        tracer: &Tracer,
        request: u64,
        classes: &mut Classes,
        report: &mut Report,
        wal_bytes: &mut Classes,
    ) -> Result<(), String> {
        let row_id = self.appended;
        let key = (self.resident + row_id) as i64;
        for (s, store) in STORES.iter().enumerate() {
            report.attempted += 1;
            let log_before = self.media[s].log_len();
            let checkpoints_before = self.wal_stats(s).checkpoints;
            let row = data::appended_row(self.resident, row_id);
            let started = Instant::now();
            let out = tracer.span("storage.insert", store, None, request, |_| {
                self.insert(s, row)
            });
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok(()) => {
                    classes
                        .entry(format!("insert.{store}"))
                        .or_default()
                        .push(ms);
                    // A checkpoint truncates the log; count plain appends.
                    if self.wal_stats(s).checkpoints == checkpoints_before {
                        let grown = self.media[s].log_len().saturating_sub(log_before);
                        wal_bytes
                            .entry(store.to_string())
                            .or_default()
                            .push(grown as f64);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("error: insert into {store}: {e}");
                }
            }
        }
        self.appended += 1;
        let want = self.resident + self.appended;
        for (s, store) in STORES.iter().enumerate() {
            report.attempted += 1;
            let started = Instant::now();
            let out = tracer.span("rw.read", store, None, request, |_| self.read(s, key));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            match out {
                Ok((len, found)) => {
                    if len != want || found != 1 {
                        return Err(format!(
                            "{store}: read-your-write failed after inserting key {key}: \
                             len {len} (want {want}), point selection found {found} (want 1)"
                        ));
                    }
                    classes.entry(format!("read.{store}")).or_default().push(ms);
                }
                Err(e) => {
                    report.failed += 1;
                    eprintln!("error: read of {store}: {e}");
                }
            }
        }
        Ok(())
    }
}

/// Build the stores and warm up their read plans.
fn setup(records: usize) -> Result<Stores, String> {
    let mut stores = Stores::load(&data::wisconsin(records))?;
    let off = Tracer::new(false);
    let mut scratch = Report::default();
    for _ in 0..WARMUP_ROUNDS {
        stores.round(
            &off,
            0,
            &mut Classes::new(),
            &mut scratch,
            &mut Classes::new(),
        )?;
    }
    if scratch.failed > 0 {
        return Err("warm-up operations failed".to_string());
    }
    Ok(stores)
}

/// Samples and counters gathered across set-ups and phases.
#[derive(Default)]
struct Acc {
    untraced: Classes,
    traced: Classes,
    small: Classes,
    wal_bytes: Classes,
    untraced_elapsed: Duration,
    /// Plan-cache (hits, lookups) per store over untraced phases.
    cache: [(u64, u64); 3],
    /// Checkpoints over every measured phase, across the three stores.
    checkpoints: u64,
    request: u64,
    rounds: usize,
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    // The traced run also inserts into small tables, to see how insert
    // cost scales with table size.
    let mut small = if cfg.trace {
        Some(setup(SMALL_ROWS.min(cfg.records))?)
    } else {
        None
    };
    let mut acc = Acc::default();
    let setup_times = common::run_setups(
        cfg,
        || setup(cfg.records),
        |stores, phase| measure(stores, small.as_mut(), phase, tracer, &mut acc, &mut report),
    )?;
    common::record_setup(&mut report, &setup_times);

    report.setting("rounds", acc.rounds);
    report.setting("resident_rows", cfg.records);
    report.setting("indexes", INDEXED.join("+"));
    report.setting("checkpoint_policy", format!("every {CHECKPOINT_EVERY} ops"));
    report.setting("wal_media", "in-memory LogMedia");
    report.setting("checkpoints_measured", acc.checkpoints);
    common::end_to_end(
        &mut report,
        &acc.untraced,
        |c| c.starts_with("read."),
        TAIL_PCT,
        acc.untraced_elapsed,
    );
    if cfg.trace {
        per_layer(&mut report, &acc);
    }
    Ok(report)
}

/// Closed-loop rounds on one set-up for one phase; the traced phase
/// also runs a round on the small stores after each round.
fn measure(
    stores: &mut Stores,
    mut small: Option<&mut Stores>,
    phase: common::Phase,
    tracer: &Tracer,
    acc: &mut Acc,
    report: &mut Report,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let phase_tracer = if phase.traced { tracer } else { &off };
    let cache_before: Vec<CacheStats> = (0..STORES.len())
        .map(|s| stores.plan_cache_stats(s))
        .collect();
    let checkpoints_before = stores.checkpoints();
    let started = Instant::now();
    let mut first = true;
    while first || started.elapsed() < phase.length {
        first = false;
        acc.request += 1;
        let classes = if phase.traced {
            &mut acc.traced
        } else {
            &mut acc.untraced
        };
        stores.round(
            phase_tracer,
            acc.request,
            classes,
            report,
            &mut acc.wal_bytes,
        )?;
        if let Some(small) = small.as_deref_mut().filter(|_| phase.traced) {
            let mut scratch = Report::default();
            small.round(
                &off,
                acc.request,
                &mut acc.small,
                &mut scratch,
                &mut Classes::new(),
            )?;
        }
        acc.rounds += 1;
    }
    acc.checkpoints += stores.checkpoints() - checkpoints_before;
    if !phase.traced {
        acc.untraced_elapsed += started.elapsed();
        for (s, before) in cache_before.iter().enumerate() {
            let after = stores.plan_cache_stats(s);
            let hits = after.hits - before.hits;
            acc.cache[s].0 += hits;
            acc.cache[s].1 += hits + after.misses - before.misses;
        }
    }
    Ok(())
}

/// Per-layer metrics of the traced run.
fn per_layer(report: &mut Report, acc: &Acc) {
    common::tracing_overhead(report, &acc.untraced, &acc.traced);
    report.metric("storage.checkpoints", acc.checkpoints as f64, "count", 1);
    let medians = common::class_medians(&acc.untraced);
    let traced = common::class_medians(&acc.traced);
    let small = common::class_medians(&acc.small);
    let wal = common::class_medians(&acc.wal_bytes);
    let count = |c: &Classes, k: &str| c.get(k).map_or(0, Vec::len);
    let layers = ["sqlengine", "docstore", "graphstore"];
    for (s, store) in STORES.iter().enumerate() {
        let insert = format!("insert.{store}");
        let read = format!("read.{store}");
        let get = |m: &std::collections::BTreeMap<String, f64>, k: &str| {
            m.get(k).copied().unwrap_or(f64::NAN)
        };
        report.metric(
            format!("insert_p50_ms.{store}"),
            get(&medians, &insert),
            "ms",
            count(&acc.untraced, &insert),
        );
        // Traced-phase medians on both sides, so the ratio compares
        // like with like.
        report.metric(
            format!("storage.insert_scaling.{store}"),
            get(&traced, &insert) / get(&small, &insert),
            "ratio",
            count(&acc.small, &insert),
        );
        report.metric(
            format!("storage.wal_bytes_per_insert.{store}"),
            get(&wal, store),
            "bytes",
            count(&acc.wal_bytes, store),
        );
        report.metric(
            format!("rw.read_ms.{store}"),
            get(&medians, &read),
            "ms",
            count(&acc.untraced, &read),
        );
        let (hits, lookups) = acc.cache[s];
        report.metric(
            format!("{}.plan_cache_hit_ratio.{store}", layers[s]),
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        );
    }
}
