//! `serve-mixed`: two closed-loop sessions through a `Server` with two
//! workers over a two-shard AsterixDB `SqlCluster`, one follower replica
//! per shard, reads preferring replicas. Each session issues a seeded
//! mix of Table III actions plus a fixed share of single-row
//! `SqlCluster::load`s into the table being read, so snapshot reads run
//! under concurrent writes. Every count must lie within the window of
//! rows committed between the request's send and its return.

use crate::common::{self, err, Classes, RunConfig};
use crate::data::{self, act, final_query, transform, ParamStream, DS, DS2, NS};
use crate::report::Report;
use crate::trace::Tracer;
use polyframe::prelude::*;
use polyframe::Server;
use polyframe_bench::expressions::Outcome;
use polyframe_bench::systems::INDEXED;
use polyframe_bench::{BenchExpr, BenchParams, ALL_EXPRESSIONS};
use polyframe_cluster::SqlCluster;
use polyframe_datamodel::Value;
use polyframe_eager::{EagerFrame, MemoryBudget};
use polyframe_observe::Rng;
use polyframe_sqlengine::EngineConfig;
use polyframe_storage::CheckpointPolicy;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const REPLICAS_PER_SHARD: usize = 1;
const WORKERS: usize = 2;
/// Client sessions: one per core of the 2-vCPU reference host.
const SESSIONS: usize = 2;
/// Admission-queue capacity: room for every session's request.
const QUEUE_CAPACITY: usize = 2 * SESSIONS;
/// One operation in this many is a single-row load.
const LOAD_ONE_IN: usize = 16;
/// WAL checkpoint interval of every shard, in appended ops.
const CHECKPOINT_EVERY: u64 = 64;
/// Pooled percentile reported as `action_tail_ms`: a run completes
/// thousands of operations (over 100 a second), so dozens lie beyond p99.
const TAIL_PCT: f64 = 99.0;
/// Untimed warm-up rounds of all 13 expressions per set-up.
const WARMUP_ROUNDS: usize = 2;

/// Reads prefer a caught-up replica; admission backpressure costs a
/// backoff, not the operation.
fn client_policy() -> ExecPolicy {
    ExecPolicy::default()
        .with_prefer_replica(true)
        .with_retry(RetryPolicy::retries(64).with_base_backoff(Duration::from_micros(200)))
}

/// The replicated cluster and the server in front of it.
struct Serving {
    cluster: Arc<SqlCluster>,
    server: Server,
    resident: usize,
    writes: Writes,
}

impl Serving {
    fn start(records: usize, seed: u64) -> Result<Serving, String> {
        let rows = data::wisconsin(records);
        let cluster = Arc::new(SqlCluster::new(
            SHARDS,
            EngineConfig::asterixdb(),
            "unique2",
        ));
        cluster
            .enable_durability(CheckpointPolicy::every(CHECKPOINT_EVERY))
            .map_err(err)?;
        for ds in [DS, DS2] {
            cluster
                .create_dataset(NS, ds, Some("unique2"))
                .map_err(err)?;
            cluster.load(NS, ds, rows.clone()).map_err(err)?;
            for attr in INDEXED {
                cluster.create_index(NS, ds, attr).map_err(err)?;
            }
        }
        cluster
            .enable_replication(REPLICAS_PER_SHARD)
            .map_err(err)?;
        let server = Server::start(
            Arc::new(SqlClusterConnector::asterixdb(Arc::clone(&cluster))),
            ServeConfig::default()
                .with_workers(WORKERS)
                .with_queue_capacity(QUEUE_CAPACITY),
        );
        let serving = Serving {
            cluster,
            server,
            resident: records,
            writes: Writes {
                next: Mutex::new(0),
                started: AtomicUsize::new(0),
                committed: AtomicUsize::new(0),
            },
        };
        let session: Arc<dyn DatabaseConnector> = Arc::new(serving.server.session());
        let mut params = ParamStream::new(seed.wrapping_add(1));
        let off = Tracer::new(false);
        let rounds = (0..WARMUP_ROUNDS).flat_map(|_| {
            let p = params.next_params();
            ALL_EXPRESSIONS.map(|expr| (expr, p))
        });
        for (expr, p) in rounds
            .collect::<Vec<_>>()
            .into_iter()
            .chain(data::literal_domain())
        {
            let (out, _) = read(&session, expr, &p, &off, 0);
            out.map_err(|e| format!("warm-up e{}: {e}", expr.0))?;
        }
        Ok(serving)
    }
}

/// One served read action from `AFrame::new`, timed; with tracing on,
/// `core.rewrite` covers frame creation and transformations and
/// `core.act` the action through the session.
fn read(
    session: &Arc<dyn DatabaseConnector>,
    expr: BenchExpr,
    p: &BenchParams,
    tracer: &Tracer,
    request: u64,
) -> (polyframe::Result<(Outcome, AFrame, data::Action)>, f64) {
    let tag = format!("e{}", expr.0);
    let started = Instant::now();
    let out = tracer.span("action", &tag, None, request, |id| {
        let (frame, action) = tracer.span("core.rewrite", &tag, id, request, |_| {
            let df = AFrame::new(NS, DS, Arc::clone(session))?.with_policy(client_policy());
            let df2 = AFrame::new(NS, DS2, Arc::clone(session))?.with_policy(client_policy());
            transform(expr, &df, &df2, p)
        })?;
        let outcome = tracer.span("core.act", &tag, id, request, |_| act(&frame, action))?;
        Ok((outcome, frame, action))
    });
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Single-row loads, serialized so the committed rows are always a
/// prefix of the appended sequence. `started` rises before a load,
/// `committed` after it returns.
struct Writes {
    next: Mutex<usize>,
    started: AtomicUsize,
    committed: AtomicUsize,
}

/// What a read must return given the appended rows it may have seen:
/// counts and extremes lie between their values at the window's ends;
/// every other outcome does not depend on appended rows.
struct Gate {
    resident: usize,
    invariant: BTreeMap<u8, Outcome>,
}

impl Gate {
    fn new(records: usize) -> Result<Gate, String> {
        let rows = data::wisconsin(records);
        let budget = MemoryBudget::unlimited();
        let df = EagerFrame::from_records(&rows, &budget).map_err(err)?;
        let p = BenchParams::default();
        let mut invariant = BTreeMap::new();
        for expr in ALL_EXPRESSIONS {
            if data::expected(expr, records, records, &p).is_none() {
                invariant.insert(expr.0, expr.run_pandas(&df, &df, &p).map_err(err)?);
            }
        }
        Ok(Gate {
            resident: records,
            invariant,
        })
    }

    fn check(
        &self,
        expr: BenchExpr,
        p: &BenchParams,
        got: &Outcome,
        floor: usize,
        ceiling: usize,
    ) -> Result<(), String> {
        let n = self.resident;
        let ok = match (
            data::expected(expr, n + floor, n, p),
            data::expected(expr, n + ceiling, n, p),
        ) {
            (Some(lo), Some(hi)) => match (value(&lo), value(got), value(&hi)) {
                (Some(lo), Some(v), Some(hi)) => lo <= v && v <= hi,
                _ => false,
            },
            _ => self.invariant.get(&expr.0) == Some(got),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "e{}: {got:?} is outside what {floor}..={ceiling} appended rows allow",
                expr.0
            ))
        }
    }
}

fn value(o: &Outcome) -> Option<i64> {
    match o {
        Outcome::Count(n) | Outcome::Rows(n) => i64::try_from(*n).ok(),
        Outcome::Scalar(Value::Int(v)) => Some(*v),
        Outcome::Scalar(_) => None,
    }
}

/// Per-session results of one phase.
#[derive(Default)]
struct SessionOut {
    classes: Classes,
    attempted: u64,
    failed: u64,
}

/// Shared, read-only context of a phase's sessions.
struct Phase<'a> {
    serving: &'a Serving,
    gate: &'a Gate,
    tracer: &'a Tracer,
    traced: bool,
    deadline: Instant,
    requests: &'a AtomicU64,
    failovers: &'a AtomicU64,
    lag_max: &'a AtomicU64,
}

impl Phase<'_> {
    /// One closed-loop session until the deadline.
    fn session(&self, seed: u64) -> Result<SessionOut, String> {
        let session: Arc<dyn DatabaseConnector> = Arc::new(self.serving.server.session());
        let mut rng = Rng::seed_from_u64(seed);
        let mut params = ParamStream::new(seed);
        let mut out = SessionOut::default();
        let mut first = true;
        while first || Instant::now() < self.deadline {
            first = false;
            let request = self.requests.fetch_add(1, Ordering::Relaxed);
            out.attempted += 1;
            if rng.gen_range_usize(LOAD_ONE_IN) == 0 {
                match self.load(request) {
                    Ok(ms) => out.classes.entry("load".to_string()).or_default().push(ms),
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("error: load: {e}");
                    }
                }
            } else {
                let expr = ALL_EXPRESSIONS[rng.gen_range_usize(ALL_EXPRESSIONS.len())];
                let p = params.next_params();
                let floor = self.serving.writes.committed.load(Ordering::SeqCst);
                let (res, ms) = read(&session, expr, &p, self.tracer, request);
                let ceiling = self.serving.writes.started.load(Ordering::SeqCst);
                match res {
                    Ok((got, frame, action)) => {
                        self.gate.check(expr, &p, &got, floor, ceiling)?;
                        out.classes
                            .entry(format!("read.e{}", expr.0))
                            .or_default()
                            .push(ms);
                        if self.traced {
                            self.trace_direct(&frame, action, request)?;
                        }
                    }
                    Err(e) => {
                        out.failed += 1;
                        eprintln!("error: e{}: {e}", expr.0);
                    }
                }
            }
            // Drain the cluster's per-query stats so they do not pile up.
            let failovers: usize = self
                .serving
                .cluster
                .take_stats()
                .iter()
                .map(|s| s.failovers)
                .sum();
            self.failovers
                .fetch_add(failovers as u64, Ordering::Relaxed);
            if self.traced {
                let lag = self
                    .serving
                    .cluster
                    .replication_status()
                    .iter()
                    .flatten()
                    .map(|r| r.lag)
                    .max()
                    .unwrap_or(0);
                self.lag_max.fetch_max(lag, Ordering::Relaxed);
            }
        }
        Ok(out)
    }

    /// Append the next row; returns the load's latency (ms).
    fn load(&self, request: u64) -> Result<f64, String> {
        let mut next = self
            .serving
            .writes
            .next
            .lock()
            .expect("write sequence lock");
        self.serving.writes.started.fetch_add(1, Ordering::SeqCst);
        let row = data::appended_row(self.serving.resident, *next);
        let started = Instant::now();
        let res = self
            .tracer
            .span("cluster.load", "load", None, request, |_| {
                self.serving.cluster.load(NS, DS, [row]).map_err(err)
            });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        res?;
        *next += 1;
        self.serving.writes.committed.fetch_add(1, Ordering::SeqCst);
        Ok(ms)
    }

    /// Traced extra: the same final text straight on the cluster, with
    /// no server in between.
    fn trace_direct(
        &self,
        frame: &AFrame,
        action: data::Action,
        request: u64,
    ) -> Result<(), String> {
        let text = final_query(frame, action).map_err(err)?;
        self.tracer
            .span("cluster.query", "direct", None, request, |_| {
                self.serving.cluster.query(&text).map_err(err)
            })?;
        Ok(())
    }
}

/// Samples and counters gathered across set-ups and phases.
#[derive(Default)]
struct Acc {
    untraced: Classes,
    traced: Classes,
    untraced_elapsed: Duration,
    rows_appended: usize,
    rejected: u64,
    max_depth: usize,
}

/// Run the workload.
pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let gate = Gate::new(cfg.records)?;
    let requests = AtomicU64::new(1);
    let failovers = AtomicU64::new(0);
    let lag_max = AtomicU64::new(0);
    let mut acc = Acc::default();
    let mut session_seed = cfg.seed;
    let setup_times = common::run_setups(
        cfg,
        || Serving::start(cfg.records, cfg.seed),
        |serving, phase| {
            let off = Tracer::new(false);
            let queue_before = serving.server.stats();
            let phase_ctx = Phase {
                serving,
                gate: &gate,
                tracer: if phase.traced { tracer } else { &off },
                traced: phase.traced,
                deadline: Instant::now() + phase.length,
                requests: &requests,
                failovers: &failovers,
                lag_max: &lag_max,
            };
            let started = Instant::now();
            let outs: Vec<Result<SessionOut, String>> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..SESSIONS)
                    .map(|_| {
                        let phase_ctx = &phase_ctx;
                        session_seed = session_seed.wrapping_mul(31).wrapping_add(1);
                        let seed = session_seed;
                        scope.spawn(move || phase_ctx.session(seed))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread panicked"))
                    .collect()
            });
            if !phase.traced {
                acc.untraced_elapsed += started.elapsed();
            }
            for out in outs {
                let out = out?;
                report.attempted += out.attempted;
                report.failed += out.failed;
                let classes = if phase.traced {
                    &mut acc.traced
                } else {
                    &mut acc.untraced
                };
                for (k, v) in out.classes {
                    classes.entry(k).or_default().extend(v);
                }
            }
            let queue = serving.server.stats();
            acc.rejected += queue.rejected - queue_before.rejected;
            acc.max_depth = acc.max_depth.max(queue.max_depth);
            acc.rows_appended += serving.writes.committed.load(Ordering::SeqCst);
            Ok(())
        },
    )?;
    common::record_setup(&mut report, &setup_times);

    report.setting("resident_rows", cfg.records);
    report.setting("shards", SHARDS);
    report.setting("replicas_per_shard", REPLICAS_PER_SHARD);
    report.setting("server_workers", WORKERS);
    report.setting("sessions", SESSIONS);
    report.setting("load_share", format!("1/{LOAD_ONE_IN}"));
    report.setting("rows_appended", acc.rows_appended);
    report.setting(
        "checkpoint_policy",
        format!("every {CHECKPOINT_EVERY} ops per shard"),
    );
    report.setting(
        "exec_mode",
        format!("{:?}", polyframe_cluster::ExecMode::auto(SHARDS)),
    );
    common::end_to_end(
        &mut report,
        &acc.untraced,
        |c| c.starts_with("read."),
        TAIL_PCT,
        acc.untraced_elapsed,
    );
    if cfg.trace {
        common::tracing_overhead(&mut report, &acc.untraced, &acc.traced);
        let median = |v: &[f64]| crate::stats::median(v).unwrap_or(f64::NAN);
        // Served minus direct time of the same text: what the server's
        // admission queue and workers (plus the connector) add.
        let acts = tracer.by_request("core.act");
        let direct = tracer.by_request("cluster.query");
        let query_ms: Vec<f64> = direct.values().map(|(_, ms)| *ms).collect();
        let wait_ms: Vec<f64> = direct
            .iter()
            .filter_map(|(req, (_, d))| acts.get(req).map(|(_, a)| a - d))
            .collect();
        report.metric("cluster.query_ms", median(&query_ms), "ms", query_ms.len());
        let loads = acc.untraced.get("load").cloned().unwrap_or_default();
        report.metric("cluster.load_ms", median(&loads), "ms", loads.len());
        report.metric(
            "cluster.replica_lag_max",
            lag_max.load(Ordering::Relaxed) as f64,
            "count",
            1,
        );
        report.metric(
            "cluster.failovers",
            failovers.load(Ordering::Relaxed) as f64,
            "count",
            1,
        );
        report.metric("serve.queue_wait_ms", median(&wait_ms), "ms", wait_ms.len());
        report.metric("serve.rejected", acc.rejected as f64, "count", 1);
        report.metric("serve.max_depth", acc.max_depth as f64, "count", 1);
    }
    Ok(report)
}
