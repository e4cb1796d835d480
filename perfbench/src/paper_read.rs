//! `paper-read`: the paper's own evaluation as a closed loop with one
//! client. Every round runs the 13 Table III expressions on AsterixDB,
//! PostgreSQL, MongoDB and Neo4j; each action starts from `AFrame::new`.
//! Round parameters come from the seed, so the literal-bearing
//! expressions (3, 10, 11) change text from round to round; set-up has
//! run every text their parameter domain allows, so every action finds
//! its plan cached (see [`data::literal_domain`]). No writes.

use crate::common::{self, err, Classes, RunConfig};
use crate::data::{self, act, final_query, transform, ParamStream, DS, DS2, NS};
use crate::report::Report;
use crate::trace::Tracer;
use polyframe::prelude::*;
use polyframe_bench::expressions::Outcome;
use polyframe_bench::systems::INDEXED;
use polyframe_bench::{BenchExpr, BenchParams, ALL_EXPRESSIONS};
use polyframe_datamodel::{Record, Value};
use polyframe_docstore::DocStore;
use polyframe_eager::{EagerFrame, MemoryBudget};
use polyframe_graphstore::GraphStore;
use polyframe_observe::CacheStats;
use polyframe_sqlengine::{Engine, EngineConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pooled percentile reported as `action_tail_ms`: a run yields over a
/// thousand actions (about 50 a second), so dozens lie beyond p95.
const TAIL_PCT: f64 = 95.0;

/// Untimed warm-up rounds per set-up: the first round caches plans and
/// runs kernels generic, the second promotes them, after which repeated
/// texts are steady.
const WARMUP_ROUNDS: usize = 2;

/// The four single-node backends of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AsterixDB (SQL++) on the SQL engine.
    AsterixDb,
    /// PostgreSQL (SQL) on the SQL engine.
    PostgreSql,
    /// MongoDB (aggregation pipelines) on the document store.
    MongoDb,
    /// Neo4j (Cypher) on the graph store.
    Neo4j,
}

impl Backend {
    /// Every backend, in the paper's legend order.
    pub const ALL: [Backend; 4] = [
        Backend::AsterixDb,
        Backend::PostgreSql,
        Backend::MongoDb,
        Backend::Neo4j,
    ];

    /// Metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            Backend::AsterixDb => "asterixdb",
            Backend::PostgreSql => "postgresql",
            Backend::MongoDb => "mongodb",
            Backend::Neo4j => "neo4j",
        }
    }

    /// The workspace crate that executes this backend's queries.
    pub fn layer(self) -> &'static str {
        match self {
            Backend::AsterixDb | Backend::PostgreSql => "sqlengine",
            Backend::MongoDb => "docstore",
            Backend::Neo4j => "graphstore",
        }
    }

    /// Span name of a direct call into the backend.
    fn direct_span(self) -> &'static str {
        match self {
            Backend::AsterixDb | Backend::PostgreSql => "sqlengine.query",
            Backend::MongoDb => "docstore.aggregate",
            Backend::Neo4j => "graphstore.query",
        }
    }
}

/// The four loaded backends and a connector over each.
struct Backends {
    asterix: Arc<Engine>,
    postgres: Arc<Engine>,
    mongo: Arc<DocStore>,
    neo4j: Arc<GraphStore>,
    connectors: Vec<Arc<dyn DatabaseConnector>>,
}

impl Backends {
    /// Load `records` as both datasets of every backend, with the
    /// harness's standard indexes.
    fn load(records: &[Record]) -> Result<Backends, String> {
        let asterix = Arc::new(Engine::new(EngineConfig::asterixdb()));
        let postgres = Arc::new(Engine::new(EngineConfig::postgres()));
        for engine in [&asterix, &postgres] {
            for ds in [DS, DS2] {
                engine
                    .create_dataset(NS, ds, Some("unique2"))
                    .map_err(err)?;
                engine.load(NS, ds, records.to_vec()).map_err(err)?;
                for attr in INDEXED {
                    engine.create_index(NS, ds, attr).map_err(err)?;
                }
            }
        }
        let mongo = Arc::new(DocStore::new());
        let neo4j = Arc::new(GraphStore::new());
        for ds in [DS, DS2] {
            let coll = format!("{NS}.{ds}");
            mongo.create_collection(&coll).map_err(err)?;
            mongo.insert_many(&coll, records.to_vec()).map_err(err)?;
            neo4j.create_label(ds).map_err(err)?;
            neo4j.insert_nodes(ds, records.to_vec()).map_err(err)?;
            for attr in INDEXED {
                mongo.create_index(&coll, attr).map_err(err)?;
                neo4j.create_index(ds, attr).map_err(err)?;
            }
        }
        let connectors: Vec<Arc<dyn DatabaseConnector>> = vec![
            Arc::new(AsterixConnector::new(Arc::clone(&asterix))),
            Arc::new(PostgresConnector::new(Arc::clone(&postgres))),
            Arc::new(MongoConnector::new(Arc::clone(&mongo))),
            Arc::new(Neo4jConnector::new(Arc::clone(&neo4j))),
        ];
        Ok(Backends {
            asterix,
            postgres,
            mongo,
            neo4j,
            connectors,
        })
    }

    fn connector(&self, b: Backend) -> Arc<dyn DatabaseConnector> {
        let i = Backend::ALL
            .iter()
            .position(|x| *x == b)
            .expect("known backend");
        Arc::clone(&self.connectors[i])
    }

    fn engine(&self, b: Backend) -> Option<&Engine> {
        match b {
            Backend::AsterixDb => Some(&self.asterix),
            Backend::PostgreSql => Some(&self.postgres),
            Backend::MongoDb | Backend::Neo4j => None,
        }
    }

    /// Run preprocessed query text on the backend itself, bypassing
    /// PolyFrame.
    fn direct(&self, b: Backend, text: &str) -> Result<Vec<Value>, String> {
        match b {
            Backend::AsterixDb => self.asterix.query(text).map_err(err),
            Backend::PostgreSql => self.postgres.query(text).map_err(err),
            Backend::MongoDb => self
                .mongo
                .aggregate(&format!("{NS}.{DS}"), text)
                .map_err(err),
            Backend::Neo4j => self.neo4j.query(text).map_err(err),
        }
    }

    fn plan_cache_stats(&self, b: Backend) -> CacheStats {
        match b {
            Backend::AsterixDb => self.asterix.plan_cache_stats(),
            Backend::PostgreSql => self.postgres.plan_cache_stats(),
            Backend::MongoDb => self.mongo.plan_cache_stats(),
            Backend::Neo4j => self.neo4j.plan_cache_stats(),
        }
    }

    /// One action, timed from `AFrame::new` to the eager outcome. With
    /// tracing on, `core.rewrite` covers frame creation and the
    /// transformations, `core.act` the action call.
    fn action(
        &self,
        b: Backend,
        expr: BenchExpr,
        p: &BenchParams,
        tracer: &Tracer,
        request: u64,
    ) -> (polyframe::Result<(Outcome, AFrame, data::Action)>, f64) {
        let tag = cell(b, expr);
        let conn = self.connector(b);
        let started = Instant::now();
        let out = tracer.span("action", &tag, None, request, |id| {
            let (frame, action) = tracer.span("core.rewrite", &tag, id, request, |_| {
                let df = AFrame::new(NS, DS, Arc::clone(&conn))?;
                let df2 = AFrame::new(NS, DS2, conn)?;
                transform(expr, &df, &df2, p)
            })?;
            let outcome = tracer.span("core.act", &tag, id, request, |_| act(&frame, action))?;
            Ok((outcome, frame, action))
        });
        (out, started.elapsed().as_secs_f64() * 1e3)
    }
}

fn cell(b: Backend, expr: BenchExpr) -> String {
    format!("{}.e{}", b.name(), expr.0)
}

/// The eager (Pandas) baseline as an untimed oracle, memoized per
/// expression and parameter values.
struct Oracle {
    df: EagerFrame,
    df2: EagerFrame,
    memo: HashMap<(u8, i64, i64), Outcome>,
}

impl Oracle {
    fn new(records: &[Record]) -> Result<Oracle, String> {
        let budget = MemoryBudget::unlimited();
        Ok(Oracle {
            df: EagerFrame::from_records(records, &budget).map_err(err)?,
            df2: EagerFrame::from_records(records, &budget).map_err(err)?,
            memo: HashMap::new(),
        })
    }

    fn outcome(&mut self, expr: BenchExpr, p: &BenchParams) -> Result<Outcome, String> {
        let key = (expr.0, p.ten, p.range_lo);
        if let Some(o) = self.memo.get(&key) {
            return Ok(o.clone());
        }
        let o = expr.run_pandas(&self.df, &self.df2, p).map_err(err)?;
        self.memo.insert(key, o.clone());
        Ok(o)
    }
}

/// Check one outcome against the generator's ground truth and the eager
/// oracle (agreement across backends follows).
fn check(
    oracle: &mut Oracle,
    rows: usize,
    b: Backend,
    expr: BenchExpr,
    p: &BenchParams,
    got: &Outcome,
) -> Result<(), String> {
    if let Some(want) = data::expected(expr, rows, rows, p) {
        if *got != want {
            return Err(format!(
                "{}: got {got:?}, ground truth is {want:?}",
                cell(b, expr)
            ));
        }
    }
    let want = oracle.outcome(expr, p)?;
    if *got != want {
        return Err(format!(
            "{}: got {got:?}, eager oracle says {want:?}",
            cell(b, expr)
        ));
    }
    Ok(())
}

/// Build the backends and warm them up.
fn setup(cfg: &RunConfig) -> Result<Backends, String> {
    let records = data::wisconsin(cfg.records);
    let backends = Backends::load(&records)?;
    let mut params = ParamStream::new(cfg.seed.wrapping_add(1));
    let off = Tracer::new(false);
    for _ in 0..WARMUP_ROUNDS {
        let p = params.next_params();
        for expr in ALL_EXPRESSIONS {
            for b in Backend::ALL {
                let (out, _) = backends.action(b, expr, &p, &off, 0);
                out.map_err(|e| format!("warm-up {}: {e}", cell(b, expr)))?;
            }
        }
    }
    for (expr, p) in data::literal_domain() {
        for b in Backend::ALL {
            let (out, _) = backends.action(b, expr, &p, &off, 0);
            out.map_err(|e| format!("warm-up {}: {e}", cell(b, expr)))?;
        }
    }
    Ok(backends)
}

/// Check that the benchmark's transform/action split gives the same
/// outcome as the harness's own expression runner, on every cell.
fn check_split(backends: &Backends, p: &BenchParams) -> Result<(), String> {
    let off = Tracer::new(false);
    for expr in ALL_EXPRESSIONS {
        for b in Backend::ALL {
            let (out, _) = backends.action(b, expr, p, &off, 0);
            let (got, _, _) = out.map_err(|e| format!("{}: {e}", cell(b, expr)))?;
            let conn = backends.connector(b);
            let df = AFrame::new(NS, DS, Arc::clone(&conn)).map_err(err)?;
            let df2 = AFrame::new(NS, DS2, conn).map_err(err)?;
            let reference = expr.run_polyframe(&df, &df2, p).map_err(err)?;
            if got != reference {
                return Err(format!(
                    "{}: split action gave {got:?}, run_polyframe {reference:?}",
                    cell(b, expr)
                ));
            }
        }
    }
    Ok(())
}

/// Samples and counters gathered across set-ups and phases.
#[derive(Default)]
struct Acc {
    untraced: Classes,
    traced: Classes,
    untraced_elapsed: Duration,
    /// Plan-cache (hits, lookups) per backend over untraced phases.
    cache: BTreeMap<&'static str, (u64, u64)>,
    query_bytes: Classes,
    request: u64,
    rounds: usize,
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let mut oracle = Oracle::new(&data::wisconsin(cfg.records))?;
    let mut params = ParamStream::new(cfg.seed);
    let mut acc = Acc::default();
    let mut split_checked = false;
    let setup_times = common::run_setups(
        cfg,
        || setup(cfg),
        |backends, phase| {
            if !split_checked {
                check_split(backends, &params.next_params())?;
                split_checked = true;
            }
            measure(
                backends,
                phase,
                cfg,
                tracer,
                &mut params,
                &mut oracle,
                &mut acc,
                &mut report,
            )
        },
    )?;
    common::record_setup(&mut report, &setup_times);

    report.setting("rounds", acc.rounds);
    report.setting("resident_rows", cfg.records);
    report.setting("indexes_per_dataset", INDEXED.join("+"));
    common::end_to_end(
        &mut report,
        &acc.untraced,
        |_| true,
        TAIL_PCT,
        acc.untraced_elapsed,
    );
    let medians = common::class_medians(&acc.untraced);
    for b in Backend::ALL {
        let suite: f64 = ALL_EXPRESSIONS
            .iter()
            .filter_map(|e| medians.get(&cell(b, *e)))
            .sum();
        report.metric(format!("read_suite_s.{}", b.name()), suite / 1e3, "s", 13);
        let (hits, lookups) = acc.cache.get(b.name()).copied().unwrap_or_default();
        report.metric(
            format!("{}.plan_cache_hit_ratio.{}", b.layer(), b.name()),
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        );
    }
    if cfg.trace {
        common::tracing_overhead(&mut report, &acc.untraced, &acc.traced);
        per_layer(&mut report, tracer, &acc.query_bytes);
    }
    Ok(report)
}

/// Closed-loop rounds on one set-up for one phase.
#[allow(clippy::too_many_arguments)]
fn measure(
    backends: &mut Backends,
    phase: common::Phase,
    cfg: &RunConfig,
    tracer: &Tracer,
    params: &mut ParamStream,
    oracle: &mut Oracle,
    acc: &mut Acc,
    report: &mut Report,
) -> Result<(), String> {
    let off = Tracer::new(false);
    let phase_tracer = if phase.traced { tracer } else { &off };
    let cache_before: Vec<CacheStats> = Backend::ALL
        .iter()
        .map(|b| backends.plan_cache_stats(*b))
        .collect();
    let started = Instant::now();
    let mut first = true;
    while first || started.elapsed() < phase.length {
        first = false;
        let p = params.next_params();
        for expr in ALL_EXPRESSIONS {
            for k in 0..Backend::ALL.len() {
                // Rotate the backend order so none always runs first.
                let b = Backend::ALL[(k + acc.rounds) % Backend::ALL.len()];
                acc.request += 1;
                report.attempted += 1;
                let (out, ms) = backends.action(b, expr, &p, phase_tracer, acc.request);
                let (got, frame, action) = match out {
                    Ok(v) => v,
                    Err(e) => {
                        report.failed += 1;
                        eprintln!("error: {}: {e}", cell(b, expr));
                        continue;
                    }
                };
                check(oracle, cfg.records, b, expr, &p, &got)?;
                let classes = if phase.traced {
                    &mut acc.traced
                } else {
                    &mut acc.untraced
                };
                classes.entry(cell(b, expr)).or_default().push(ms);
                if phase.traced {
                    let bytes =
                        trace_backend(backends, b, expr, &frame, action, tracer, acc.request)?;
                    acc.query_bytes
                        .entry(cell(b, expr))
                        .or_default()
                        .push(bytes as f64);
                }
            }
        }
        acc.rounds += 1;
    }
    if !phase.traced {
        acc.untraced_elapsed += started.elapsed();
        for (b, before) in Backend::ALL.iter().zip(cache_before) {
            let after = backends.plan_cache_stats(*b);
            let hits = after.hits - before.hits;
            let e = acc.cache.entry(b.name()).or_default();
            e.0 += hits;
            e.1 += hits + after.misses - before.misses;
        }
    }
    Ok(())
}

/// Traced-phase extras for one action, outside its `action` span: a
/// direct backend call on the same final text and, on the SQL engine, a
/// compile of it to a physical plan.
/// Returns the text's length in bytes.
fn trace_backend(
    backends: &Backends,
    b: Backend,
    expr: BenchExpr,
    frame: &AFrame,
    action: data::Action,
    tracer: &Tracer,
    request: u64,
) -> Result<usize, String> {
    let tag = cell(b, expr);
    let text = final_query(frame, action).map_err(err)?;
    tracer.span(b.direct_span(), &tag, None, request, |_| {
        backends.direct(b, &text)
    })?;
    if let Some(engine) = backends.engine(b) {
        tracer.span("sqlengine.compile", &tag, None, request, |_| {
            engine.compile_to_physical(&text).map_err(err)
        })?;
    }
    Ok(text.len())
}

/// Per-layer metrics from the traced phase's spans.
fn per_layer(report: &mut Report, tracer: &Tracer, query_bytes: &Classes) {
    let rewrite = common::class_medians(&tracer.durations_by_tag("core.rewrite"));
    let compile = common::class_medians(&tracer.durations_by_tag("sqlengine.compile"));
    let bytes = common::class_medians(query_bytes);
    let acts = tracer.by_request("core.act");
    let mut connector = Classes::new();
    for b in Backend::ALL {
        let direct = tracer.by_request(b.direct_span());
        for (req, (tag, direct_ms)) in &direct {
            if let Some((_, act_ms)) = acts.get(req) {
                connector
                    .entry(tag.clone())
                    .or_default()
                    .push(act_ms - direct_ms);
            }
        }
        let direct_by_cell = common::class_medians(&tracer.durations_by_tag(b.direct_span()));
        for expr in ALL_EXPRESSIONS {
            let tag = cell(b, expr);
            let n = tracer
                .durations_by_tag(b.direct_span())
                .get(&tag)
                .map_or(0, Vec::len);
            report.metric(
                format!("{}.ms.{}.e{}", b.layer(), b.name(), expr.0),
                direct_by_cell.get(&tag).copied().unwrap_or(f64::NAN),
                "ms",
                n,
            );
        }
    }
    let connector = common::class_medians(&connector);
    let sum_over_exprs = |m: &BTreeMap<String, f64>, b: Backend| -> f64 {
        ALL_EXPRESSIONS
            .iter()
            .filter_map(|e| m.get(&cell(b, *e)))
            .sum()
    };
    for b in Backend::ALL {
        let name = b.name();
        report.metric(
            format!("core.rewrite_us.{name}"),
            1e3 * sum_over_exprs(&rewrite, b),
            "us",
            13,
        );
        report.metric(
            format!("core.connector_us.{name}"),
            1e3 * sum_over_exprs(&connector, b),
            "us",
            13,
        );
        report.metric(
            format!("core.query_bytes.{name}"),
            sum_over_exprs(&bytes, b),
            "bytes",
            13,
        );
        if matches!(b, Backend::AsterixDb | Backend::PostgreSql) {
            report.metric(
                format!("sqlengine.compile_us.{name}"),
                1e3 * sum_over_exprs(&compile, b),
                "us",
                13,
            );
        }
    }
}
