//! The document store: collections, indexes, metadata counts and the
//! `aggregate` entry point.

use crate::error::{DocError, Result};
use crate::pipeline::exec::run_pipeline;
use crate::pipeline::expr::Vars;
use crate::pipeline::optimizer::{optimize, PhysicalPipeline};
use crate::pipeline::{parse_pipeline, Stage};
use polyframe_datamodel::{Record, Value};
use polyframe_observe::{CacheStats, FaultPlan, Span, SpanTimer, VersionedCache};
use polyframe_storage::{
    CheckpointPolicy, DurableCell, DurableOp, DurableState, IndexKind, LogMedia, NullPolicy,
    RecoveryReport, Table, TableOptions, Wal, WalStats,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Cached plans per store (`(collection, pipeline text)` keys).
const PLAN_CACHE_CAPACITY: usize = 128;

/// A compiled pipeline: the parsed stage list plus the physical pipeline
/// optimized for its body (everything before a trailing `$out`).
struct CachedPipeline {
    stages: Vec<Stage>,
    body: PhysicalPipeline,
}

/// A compiled pipeline plus how compilation went (cache hit or miss) and
/// the timed `parse`/`plan` spans describing it.
struct Compiled {
    plan: Arc<CachedPipeline>,
    hit: bool,
    parse_span: Span,
    plan_span: Span,
}

/// The document store's durable state: the collection map, the catalog
/// version its plan cache keys on, and the largest `Int` `_id` ingested
/// so far. This is what every write commits to and every read pins.
#[derive(Clone, Default)]
pub struct DocState {
    collections: HashMap<String, Table>,
    /// Bumped on every op: DDL, and inserts, which can change
    /// `Index::is_complete` and with it the optimizer's index choices.
    version: u64,
    /// Auto-assigned `_id`s continue past this; advanced by every ingested
    /// `Int` `_id`, so live writes, replay and replicas share one rule.
    last_id: i64,
}

/// Advance the `_id` watermark past `doc`'s `Int` `_id`, if it has one.
fn advance_last_id(last_id: &mut i64, doc: &Record) {
    if let Some(Value::Int(id)) = doc.get("_id") {
        *last_id = (*last_id).max(*id);
    }
}

impl DocState {
    /// Give every document without an `_id` the next one, in order, past
    /// every `Int` `_id` ingested before it. `_id` leads the document,
    /// like MongoDB's insertion rule.
    fn assign_ids(&self, docs: Vec<Record>) -> Vec<Record> {
        let mut last_id = self.last_id;
        docs.into_iter()
            .map(|doc| {
                if doc.contains("_id") {
                    advance_last_id(&mut last_id, &doc);
                    return doc;
                }
                last_id = last_id.saturating_add(1);
                let mut with_id = Record::with_capacity(doc.len() + 1);
                with_id.insert("_id", last_id);
                for (k, v) in doc.iter() {
                    with_id.insert(k.to_string(), v.clone());
                }
                with_id
            })
            .collect()
    }

    fn table(&self, collection: &str) -> Result<&Table> {
        self.collections
            .get(collection)
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))
    }
}

impl DurableState for DocState {
    type Error = DocError;

    fn validate(&self, op: &DurableOp) -> Result<()> {
        match op {
            DurableOp::Create { .. } => Ok(()),
            DurableOp::Ingest { name, .. } | DurableOp::Index { name, .. } => {
                self.table(name).map(drop)
            }
        }
    }

    fn apply(&mut self, op: DurableOp) -> Result<()> {
        match op {
            DurableOp::Create { name, .. } => {
                self.collections.insert(
                    name.clone(),
                    Table::new(
                        name,
                        TableOptions {
                            primary_key: Some("_id".to_string()),
                            // Paper (section IV.E): "missing values are not
                            // present in their indexes" for MongoDB.
                            secondary_null_policy: NullPolicy::SkipNulls,
                        },
                    ),
                );
            }
            DurableOp::Ingest { name, records, .. } => {
                let table = self.collections.get_mut(&name).ok_or_else(|| {
                    DocError::Corruption(format!("log ingests into unknown collection {name}"))
                })?;
                for doc in &records {
                    advance_last_id(&mut self.last_id, doc);
                }
                table.insert_all(records);
            }
            DurableOp::Index {
                name, attribute, ..
            } => {
                let table = self.collections.get_mut(&name).ok_or_else(|| {
                    DocError::Corruption(format!("log indexes unknown collection {name}"))
                })?;
                table.create_index(&attribute);
            }
        }
        self.version += 1;
        Ok(())
    }

    /// Per collection (sorted by name) a `Create`, its secondary
    /// `Index`es, and one `Ingest` of the heap in scan order — so replay
    /// feeds every B+tree the same key sequence the original history did.
    fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut names: Vec<&String> = self.collections.keys().collect();
        names.sort();
        let mut ops = Vec::new();
        for name in names {
            let table = &self.collections[name];
            ops.push(DurableOp::Create {
                namespace: String::new(),
                name: name.clone(),
                key: None,
            });
            for ix in table
                .indexes()
                .iter()
                .filter(|ix| ix.kind() == IndexKind::Secondary)
            {
                ops.push(DurableOp::Index {
                    namespace: String::new(),
                    name: name.clone(),
                    attribute: ix.attribute().to_string(),
                });
            }
            ops.push(DurableOp::Ingest {
                namespace: String::new(),
                name: name.clone(),
                records: table.heap().scan().map(|(_, r)| r.clone()).collect(),
            });
        }
        ops
    }

    fn version_mut(&mut self) -> &mut u64 {
        &mut self.version
    }
}

/// A MongoDB-like document store.
///
/// The [`DocState`] lives in a [`DurableCell`]: writes commit through it
/// and publish a copy-on-write snapshot; reads pin the snapshot and never
/// hold the master lock across pipeline execution.
pub struct DocStore {
    cell: DurableCell<DocState>,
    /// Ablation switch: disable index selection in the pipeline optimizer.
    use_indexes: bool,
    /// Compiled pipelines keyed by `(collection, pipeline text)`, at the
    /// catalog version of the snapshot they were planned on.
    plan_cache: VersionedCache<(String, String), CachedPipeline>,
}

impl Default for DocStore {
    fn default() -> Self {
        DocStore::new()
    }
}

impl DocStore {
    /// Empty store.
    pub fn new() -> DocStore {
        DocStore {
            cell: DurableCell::new("docstore", DocState::default()),
            use_indexes: true,
            plan_cache: VersionedCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// Install (or clear) a fault-injection plan consulted at every
    /// `aggregate` entry point. Cluster shard execution
    /// ([`DocStore::aggregate_stages`]) is exempt — the cluster layer
    /// injects at its own shard boundary instead.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.cell.set_fault_plan(plan);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.cell.fault_plan()
    }

    /// Epoch of the most recent snapshot publication (0 = construction).
    pub fn snapshot_epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Empty store with index selection disabled (ablation benchmarks).
    pub fn without_indexes() -> DocStore {
        DocStore {
            use_indexes: false,
            ..DocStore::new()
        }
    }

    /// Create (or replace) a collection. Every collection has a unique-`_id`
    /// primary index, like MongoDB.
    pub fn create_collection(&self, name: &str) -> Result<()> {
        self.cell
            .commit(DurableOp::Create {
                namespace: String::new(),
                name: name.to_string(),
                key: None,
            })
            .map(drop)
    }

    /// Insert documents, assigning `_id`s where absent. The durable log
    /// records the post-assignment documents, so replay reproduces the
    /// same `_id`s without re-running the assignment.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        let docs: Vec<Record> = docs.into_iter().collect();
        let n = docs.len();
        self.cell.commit_with(|state| DurableOp::Ingest {
            namespace: String::new(),
            name: collection.to_string(),
            records: state.assign_ids(docs),
        })?;
        Ok(n)
    }

    /// Create a secondary index.
    pub fn create_index(&self, collection: &str, attribute: &str) -> Result<String> {
        let state = self.cell.commit(DurableOp::Index {
            namespace: String::new(),
            name: collection.to_string(),
            attribute: attribute.to_string(),
        })?;
        state
            .table(collection)?
            .index_on(attribute)
            .map(|ix| ix.name().to_string())
            .ok_or_else(|| DocError::UnknownCollection(collection.to_string()))
    }

    /// Attach a write-ahead log backed by `media` and recover whatever
    /// committed state it holds (empty media recovers to an empty store).
    /// Subsequent DDL and inserts are logged before they are applied.
    pub fn enable_durability(
        &self,
        media: Arc<LogMedia>,
        policy: CheckpointPolicy,
    ) -> Result<RecoveryReport> {
        self.cell.enable(media, policy)
    }

    /// Whether a WAL is attached.
    pub fn durability_enabled(&self) -> bool {
        self.cell.wal().is_some()
    }

    /// WAL activity counters, when durability is enabled.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.cell.wal().map(|w| w.stats())
    }

    /// Wipe in-memory state and rebuild it from the attached log, as a
    /// restarted process would. Errors when durability is not enabled.
    pub fn recover(&self) -> Result<RecoveryReport> {
        self.cell.recover()
    }

    /// The compacted op list that rebuilds this store's current state
    /// from empty — what a checkpoint writes. Exposed so tests can
    /// assert two stores are byte-identical.
    pub fn durable_snapshot(&self) -> Vec<DurableOp> {
        self.cell.durable_snapshot()
    }

    /// The attached WAL, when durability is enabled. The replication
    /// layer installs its shipping observer and reads the committed
    /// tail through this handle.
    pub fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.cell.wal()
    }

    /// The durable cell holding this store's state; replication commits
    /// shipped ops through it.
    pub fn durable_cell(&self) -> &DurableCell<DocState> {
        &self.cell
    }

    /// Atomically pin the current committed state and its log position:
    /// the compacted op list plus the LSN the next append will receive.
    /// Errors when durability is not enabled.
    pub fn pinned_ops(&self) -> Result<(Vec<DurableOp>, u64)> {
        self.cell.pinned_ops()
    }

    /// O(1) metadata count — the fast path `aggregate` pipelines CANNOT use
    /// (the paper's expression-1 observation).
    pub fn count_documents(&self, collection: &str) -> Result<usize> {
        Ok(self.cell.pin()?.table(collection)?.stats().record_count())
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.cell.snapshot().collections.keys().cloned().collect()
    }

    /// The one text-compile path: probe the plan cache at the catalog
    /// version of the pinned `state`; on a miss, parse the pipeline and
    /// optimize its body against that same state. Shared by `aggregate`,
    /// `aggregate_traced` and `explain`.
    fn compiled(
        &self,
        state: &DocState,
        collection: &str,
        pipeline_json: &str,
    ) -> Result<Compiled> {
        let version = state.version;
        let key = (collection.to_string(), pipeline_json.to_string());
        let probe_started = std::time::Instant::now();
        if let Some(plan) = self.plan_cache.get(&key, version) {
            let mut parse_span = Span::new("parse").with_duration(Duration::ZERO);
            parse_span.set_metric("query_len", pipeline_json.len() as i64);
            parse_span.set_metric("stages", plan.stages.len() as i64);
            return Ok(Compiled {
                plan,
                hit: true,
                parse_span,
                plan_span: Span::new("plan").with_duration(probe_started.elapsed()),
            });
        }
        let mut parse_t = SpanTimer::start("parse");
        let stages = parse_pipeline(pipeline_json)?;
        parse_t
            .span_mut()
            .set_metric("query_len", pipeline_json.len() as i64);
        parse_t.span_mut().set_metric("stages", stages.len() as i64);
        let parse_span = parse_t.finish();

        let plan_t = SpanTimer::start("plan");
        let body = match stages.split_last() {
            Some((Stage::Out(_), rest)) => rest,
            _ => &stages[..],
        };
        let phys = self.optimize_for(state, collection, body)?;
        let plan = self
            .plan_cache
            .insert(key, version, CachedPipeline { stages, body: phys });
        Ok(Compiled {
            plan,
            hit: false,
            parse_span,
            plan_span: plan_t.finish(),
        })
    }

    /// Run an aggregation pipeline given as JSON text.
    pub fn aggregate(&self, collection: &str, pipeline_json: &str) -> Result<Vec<Value>> {
        let (results, out_target) = {
            let state = self.cell.pin_query()?;
            let compiled = self.compiled(&state, collection, pipeline_json)?;
            let out_target = match compiled.plan.stages.last() {
                Some(Stage::Out(target)) => Some(target.clone()),
                _ => None,
            };
            let rows = run_pipeline(
                &state.collections,
                collection,
                &compiled.plan.body,
                &Vars::new(),
            )?;
            (rows, out_target)
        };
        if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = results
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            return Ok(Vec::new());
        }
        Ok(results)
    }

    /// Run a parsed aggregation pipeline.
    pub fn aggregate_stages(&self, collection: &str, stages: &[Stage]) -> Result<Vec<Value>> {
        // `$out` (if present) must be last; intercept it.
        let (stages, out_target) = match stages.split_last() {
            Some((Stage::Out(target), rest)) => (rest, Some(target.clone())),
            _ => (stages, None),
        };
        let results = {
            let state = self.cell.pin()?;
            let phys = self.optimize_for(&state, collection, stages)?;
            run_pipeline(&state.collections, collection, &phys, &Vars::new())?
        };
        if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = results
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            return Ok(Vec::new());
        }
        Ok(results)
    }

    /// Like [`DocStore::aggregate`], but also reports where the time went
    /// as an `execute` span with `parse`/`plan`/`exec` children. The `plan`
    /// child carries the chosen access path; `docs_scanned` is reported for
    /// collection scans (index access paths only touch matching entries).
    pub fn aggregate_traced(
        &self,
        collection: &str,
        pipeline_json: &str,
    ) -> Result<(Vec<Value>, Span)> {
        let started = std::time::Instant::now();

        let (rows, out_target, parse_span, plan_span, exec_span) = {
            let state = self.cell.pin_query()?;
            let Compiled {
                plan,
                hit,
                parse_span,
                mut plan_span,
            } = self.compiled(&state, collection, pipeline_json)?;
            let access_path = plan.body.describe();
            let index_used = access_path.contains("IXSCAN");
            plan_span.set_metric("index_used", i64::from(index_used));
            plan_span.set_note("access_path", &access_path);
            plan_span.set_note("cache", if hit { "hit" } else { "miss" });
            plan_span.set_metric("cache_hit", i64::from(hit));
            plan_span.set_metric("cache_lookup", 1);

            let mut exec_t = SpanTimer::start("exec");
            let rows = run_pipeline(&state.collections, collection, &plan.body, &Vars::new())?;
            if !index_used {
                if let Some(table) = state.collections.get(collection) {
                    exec_t
                        .span_mut()
                        .set_metric("docs_scanned", table.stats().record_count() as i64);
                }
            }
            exec_t.span_mut().set_metric("docs_out", rows.len() as i64);
            let out_target = match plan.stages.last() {
                Some(Stage::Out(target)) => Some(target.clone()),
                _ => None,
            };
            (rows, out_target, parse_span, plan_span, exec_t.finish())
        };
        // `$out` (only reachable through the save-results rule) still
        // writes its target collection on the traced path.
        let rows = if let Some(target) = out_target {
            self.create_collection(&target)?;
            let docs = rows
                .into_iter()
                .map(|v| v.into_obj().map_err(|e| DocError::Exec(e.to_string())))
                .collect::<Result<Vec<_>>>()?;
            self.insert_many(&target, docs)?;
            Vec::new()
        } else {
            rows
        };

        let span = Span::new("execute")
            .with_duration(started.elapsed())
            .with_child(parse_span)
            .with_child(plan_span)
            .with_child(exec_span);
        Ok((rows, span))
    }

    /// EXPLAIN-style description of the access path chosen for a pipeline.
    pub fn explain(&self, collection: &str, pipeline_json: &str) -> Result<String> {
        let state = self.cell.pin()?;
        Ok(self
            .compiled(&state, collection, pipeline_json)?
            .plan
            .body
            .describe())
    }

    /// Plan-cache hit/miss tallies since construction.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    fn optimize_for(
        &self,
        state: &DocState,
        collection: &str,
        stages: &[Stage],
    ) -> Result<PhysicalPipeline> {
        let table = state.table(collection)?;
        Ok(optimize(
            stages,
            &|attr| table.index_on(attr).map(|ix| ix.is_complete()),
            self.use_indexes,
        ))
    }

    /// Index point-probe (used by the cluster layer). Returns matching
    /// documents.
    pub fn probe_index(
        &self,
        collection: &str,
        attribute: &str,
        key: &Value,
    ) -> Result<Vec<Record>> {
        let state = self.cell.pin()?;
        let table = state.table(collection)?;
        match table.index_on(attribute) {
            Some(ix) => Ok(ix
                .lookup(key)
                .into_iter()
                .filter_map(|rid| table.get(rid).cloned())
                .collect()),
            None => Ok(table
                .heap()
                .scan()
                .filter(|(_, d)| {
                    polyframe_datamodel::cmp_total(&d.get_or_missing(attribute), key)
                        == std::cmp::Ordering::Equal
                })
                .map(|(_, d)| d.clone())
                .collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;
    use polyframe_storage::{Direction, RecordId, ScanRange};

    fn users_store() -> DocStore {
        let store = DocStore::new();
        store.create_collection("Test.Users").unwrap();
        let langs = ["en", "fr", "en", "de", "en"];
        store
            .insert_many(
                "Test.Users",
                (0..50i64).map(|i| {
                    record! {
                        "name" => format!("user{i}"),
                        "address" => format!("{i} main st"),
                        "lang" => langs[(i % 5) as usize],
                        "age" => 20 + (i % 30),
                    }
                }),
            )
            .unwrap();
        store
    }

    #[test]
    fn figure4_pipeline_end_to_end() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$match":{"$expr":{"$eq":["$lang","en"]}}},
                    {"$project":{"name": 1, "address": 1}},
                    {"$project":{"_id": 0}},
                    {"$limit":10}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 10);
        assert!(out[0].get_path("name").as_str().is_some());
        assert!(out[0].get_path("_id").is_missing());
        assert!(out[0].get_path("lang").is_missing());
    }

    #[test]
    fn id_is_assigned_and_kept_by_inclusion_projection() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{}},{"$project":{"lang":1}},{"$limit":1}]"#,
            )
            .unwrap();
        assert!(!out[0].get_path("_id").is_missing());
        assert_eq!(store.count_documents("Test.Users").unwrap(), 50);
    }

    #[test]
    fn group_pipeline() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$group":{"_id":{"lang":"$lang"},"cnt":{"$sum":1}}},
                    {"$addFields":{"lang":"$_id.lang"}},
                    {"$project":{"_id":0}}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 3);
        let en = out
            .iter()
            .find(|d| d.get_path("lang") == Value::str("en"))
            .unwrap();
        assert_eq!(en.get_path("cnt"), Value::Int(30));
    }

    #[test]
    fn scalar_group_min_max() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$match":{}},
                    {"$project":{"age":1}},
                    {"$group":{"_id":{},"max":{"$max":"$age"}}},
                    {"$project":{"_id":0}}
                ]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_path("max"), Value::Int(49));
    }

    #[test]
    fn count_on_empty_selection_emits_nothing() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{"$expr":{"$eq":["$lang","zz"]}}},{"$count":"count"}]"#,
            )
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn sort_limit_backward_scan() {
        let store = users_store();
        store.create_index("Test.Users", "age").unwrap();
        let explain = store
            .explain(
                "Test.Users",
                r#"[{"$match":{}},{"$sort":{"age":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
            )
            .unwrap();
        assert!(explain.contains("IXSCAN ordered(age desc)"), "{explain}");
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{}},{"$sort":{"age":-1}},{"$project":{"_id":0}},{"$limit":5}]"#,
            )
            .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].get_path("age"), Value::Int(49));
    }

    #[test]
    fn lookup_unwind_count_join() {
        let store = users_store();
        store.create_collection("Test.Users2").unwrap();
        store
            .insert_many(
                "Test.Users2",
                (0..25i64).map(|i| record! {"name" => format!("user{i}"), "age" => 20 + (i % 30)}),
            )
            .unwrap();
        store.create_index("Test.Users2", "name").unwrap();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[
                    {"$lookup":{"from":"Test.Users2","as":"m",
                        "let":{"left":"$name"},
                        "pipeline":[{"$match":{}},{"$match":{"$expr":{"$eq":["$name","$$left"]}}}]}},
                    {"$unwind":{"path":"$m","preserveNullAndEmptyArrays":false}},
                    {"$count":"count"}
                ]"#,
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(25));
    }

    #[test]
    fn missing_value_count_via_lt_null() {
        let store = DocStore::new();
        store.create_collection("c").unwrap();
        store
            .insert_many(
                "c",
                (0..20i64).map(|i| {
                    if i % 10 == 0 {
                        record! {"a" => i} // "tenPercent" missing
                    } else {
                        record! {"a" => i, "tenPercent" => i % 10}
                    }
                }),
            )
            .unwrap();
        let out = store
            .aggregate(
                "c",
                r#"[{"$match":{}},{"$match":{"$expr":{"$lt":["$tenPercent", null]}}},{"$count":"count"}]"#,
            )
            .unwrap();
        assert_eq!(out[0].get_path("count"), Value::Int(2));
    }

    #[test]
    fn out_stage_writes_collection() {
        let store = users_store();
        let out = store
            .aggregate(
                "Test.Users",
                r#"[{"$match":{"$expr":{"$eq":["$lang","en"]}}},{"$out":"Test.EnUsers"}]"#,
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(store.count_documents("Test.EnUsers").unwrap(), 30);
    }

    #[test]
    fn index_eq_explain() {
        let store = users_store();
        store.create_index("Test.Users", "lang").unwrap();
        let explain = store
            .explain(
                "Test.Users",
                r#"[{"$match":{}},{"$match":{"$expr":{"$eq":["$lang","en"]}}},{"$count":"c"}]"#,
            )
            .unwrap();
        assert!(explain.contains("IXSCAN eq(lang)"), "{explain}");
    }

    /// `_id`s of a collection, in heap order.
    fn ids(store: &DocStore, collection: &str) -> Vec<Value> {
        store
            .aggregate(collection, r#"[{"$match":{}}]"#)
            .unwrap()
            .iter()
            .map(|d| d.get_path("_id"))
            .collect()
    }

    #[test]
    fn plan_compiled_on_an_old_pin_is_keyed_at_that_pins_version() {
        let store = DocStore::new();
        store.create_collection("c").unwrap();
        store
            .insert_many("c", (0..5i64).map(|i| record! {"age" => i}))
            .unwrap();
        store.create_index("c", "age").unwrap();
        let pipeline = r#"[{"$match":{}},{"$sort":{"age":1}},{"$limit":100}]"#;
        // A reader pins the state while the age index is complete...
        let pin = store.cell.pin().unwrap();
        // ...a writer makes it incomplete (a document without `age`)...
        store.insert_many("c", vec![record! {"x" => 1i64}]).unwrap();
        // ...and the reader plans on its old pin: an index-ordered scan.
        store.compiled(&pin, "c", pipeline).unwrap();
        // Readers of the new state must not reuse that plan, which would
        // drop the document the index does not hold.
        assert_eq!(store.aggregate("c", pipeline).unwrap().len(), 6);
    }

    #[test]
    fn auto_ids_continue_past_explicit_ids() {
        let store = DocStore::new();
        store.create_collection("c").unwrap();
        store
            .insert_many("c", vec![record! {"_id" => 2i64}])
            .unwrap();
        store
            .insert_many("c", vec![record! {"x" => 1i64}, record! {"x" => 2i64}])
            .unwrap();
        assert_eq!(
            ids(&store, "c"),
            vec![Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn auto_ids_do_not_depend_on_a_restart() {
        let history = |restart: bool| {
            let store = DocStore::new();
            store
                .enable_durability(LogMedia::new(), CheckpointPolicy::never())
                .unwrap();
            store.create_collection("c").unwrap();
            store.insert_many("c", vec![record! {"x" => 0i64}]).unwrap();
            store
                .insert_many("c", vec![record! {"_id" => 100i64}])
                .unwrap();
            if restart {
                store.recover().unwrap();
            }
            store.insert_many("c", vec![record! {"x" => 1i64}]).unwrap();
            ids(&store, "c")
        };
        assert_eq!(history(false), history(true));
        assert_eq!(
            history(false),
            vec![Value::Int(1), Value::Int(100), Value::Int(101)]
        );
    }

    #[test]
    fn unknown_collection_errors() {
        let store = DocStore::new();
        assert!(store.aggregate("nope", r#"[{"$match":{}}]"#).is_err());
        assert!(store.count_documents("nope").is_err());
    }

    fn index_entries(state: &DocState, direction: Direction) -> Vec<(Value, RecordId)> {
        state
            .table("Test.T")
            .unwrap()
            .index_on("k")
            .unwrap()
            .scan(&ScanRange::all(), direction)
            .map(|(k, rid)| (k.clone(), rid))
            .collect()
    }

    #[test]
    fn pinned_snapshot_survives_chunk_and_root_splits() {
        use polyframe_storage::chunked::CHUNK_LEN;
        let media = LogMedia::new();
        let store = DocStore::new();
        store
            .enable_durability(Arc::clone(&media), CheckpointPolicy::every(16))
            .unwrap();
        store.create_collection("Test.T").unwrap();
        store.create_index("Test.T", "k").unwrap();
        let doc = |i: i64| record! {"k" => i % 7, "s" => format!("s{i}")};
        store.insert_many("Test.T", (0..20).map(doc)).unwrap();
        let pinned = store.cell.pin().unwrap();
        let ops = pinned.snapshot_ops();
        let (fwd, bwd) = (
            index_entries(&pinned, Direction::Forward),
            index_entries(&pinned, Direction::Backward),
        );
        for i in 20..(CHUNK_LEN as i64 + 40) {
            store.insert_many("Test.T", vec![doc(i)]).unwrap();
        }
        let now = store.cell.snapshot();
        let table = now.table("Test.T").unwrap();
        assert!(table.heap().num_slots() > CHUNK_LEN);
        // A B+tree leaf holds at most 32 entries: past that the root split.
        assert!(fwd.len() <= 32 && table.index_on("k").unwrap().len() > 32);
        // The pinned snapshot is untouched.
        assert_eq!(pinned.snapshot_ops(), ops);
        assert_eq!(index_entries(&pinned, Direction::Forward), fwd);
        assert_eq!(index_entries(&pinned, Direction::Backward), bwd);
        assert_eq!(pinned.table("Test.T").unwrap().len(), 20);
        // The live state is what a fresh replay of the log rebuilds.
        let replay = DocStore::new();
        replay
            .enable_durability(media, CheckpointPolicy::every(16))
            .unwrap();
        assert_eq!(replay.durable_snapshot(), store.durable_snapshot());
    }
}
