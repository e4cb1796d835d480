//! Node storage: fixed-size property records, a separate string store,
//! label metadata counts and property indexes.

use crate::cypher::CypherQuery;
use crate::error::{GraphError, Result};
use polyframe_datamodel::{Record, Value};
use polyframe_observe::{CacheStats, FaultPlan, Span, SpanTimer, VersionedCache};
use polyframe_storage::{
    CheckpointPolicy, ChunkedVec, DurableCell, DurableOp, DurableState, LogMedia, RecoveryReport,
    WalStats,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub(crate) use polyframe_storage::{BPlusTree, Direction, ScanRange};

/// Inline property value in a node record. Strings are out-of-line pointers
/// into the label's string store (the Neo4j layout the paper credits for
/// its short-record scan advantage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InlineProp {
    /// Inline integer.
    Int(i64),
    /// Inline double.
    Double(f64),
    /// Inline boolean.
    Bool(bool),
    /// Pointer into the string store.
    StrRef(u32),
    /// Explicit null property.
    Null,
}

/// A node's property record: `(property-name id, inline value)` pairs.
pub type NodeRecord = Vec<(u16, InlineProp)>;

/// Most property names one label can hold: ids are `u16`.
const MAX_PROPS: usize = u16::MAX as usize + 1;

/// Per-label storage.
///
/// `Clone` — the copy-on-write snapshot [`GraphStore`] publishes for
/// readers — shares the node and string stores' sealed chunks and the
/// index trees; only the property-name table is copied. A write after a
/// clone copies one tail chunk per store and one path per index.
#[derive(Clone)]
pub struct LabelStore {
    prop_names: Vec<String>,
    name_ids: HashMap<String, u16>,
    nodes: ChunkedVec<NodeRecord>,
    strings: ChunkedVec<String>,
    indexes: HashMap<String, BPlusTree>,
}

impl LabelStore {
    fn new() -> LabelStore {
        LabelStore {
            prop_names: Vec::new(),
            name_ids: HashMap::new(),
            nodes: ChunkedVec::new(),
            strings: ChunkedVec::new(),
            indexes: HashMap::new(),
        }
    }

    /// O(1) metadata node count.
    pub fn count(&self) -> usize {
        self.nodes.len()
    }

    fn prop_id(&mut self, name: &str) -> Result<u16> {
        if let Some(id) = self.name_ids.get(name) {
            return Ok(*id);
        }
        let id = u16::try_from(self.prop_names.len()).map_err(|_| too_many_props(name))?;
        self.prop_names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        Ok(id)
    }

    /// Append one node per record. All node records are built before any
    /// string is copied into the string store, so a bulk ingest lays both
    /// stores out in scan order in memory — label scans walk the nodes
    /// in order, and interleaving each node with its string copies made
    /// them measurably slower.
    fn insert_all(&mut self, records: &[Record]) -> Result<()> {
        let mut new_strings: Vec<&str> = Vec::new();
        let mut new_nodes: Vec<NodeRecord> = Vec::with_capacity(records.len());
        for record in records {
            let mut node: NodeRecord = Vec::with_capacity(record.len());
            for (name, value) in record.iter() {
                let inline = match value {
                    Value::Int(i) => InlineProp::Int(*i),
                    Value::Double(d) => InlineProp::Double(*d),
                    Value::Bool(b) => InlineProp::Bool(*b),
                    Value::Str(s) => {
                        let ptr = (self.strings.len() + new_strings.len()) as u32;
                        new_strings.push(s);
                        InlineProp::StrRef(ptr)
                    }
                    Value::Null => InlineProp::Null,
                    // Absent fields simply do not produce a property.
                    Value::Missing => continue,
                    other => {
                        return Err(GraphError::UnsupportedProperty(format!(
                            "{name}: {} (Neo4j properties are scalars)",
                            other.type_name()
                        )))
                    }
                };
                let id = self.prop_id(name)?;
                node.push((id, inline));
            }
            new_nodes.push(node);
        }
        for s in new_strings {
            self.strings.push(s.to_string());
        }
        for node in new_nodes {
            let idx = self.nodes.len();
            // Maintain indexes.
            for (prop, tree) in self.indexes.iter_mut() {
                if let Some(id) = self.name_ids.get(prop) {
                    if let Some((_, inline)) = node.iter().find(|(pid, _)| pid == id) {
                        let key = inline_to_value(*inline, &self.strings);
                        if !key.is_unknown() {
                            tree.insert(key, idx as u64);
                        }
                    }
                }
            }
            self.nodes.push(node);
        }
        Ok(())
    }

    fn create_index(&mut self, prop: &str) {
        if self.indexes.contains_key(prop) {
            return;
        }
        let mut tree = BPlusTree::new();
        if let Some(&id) = self.name_ids.get(prop) {
            for (idx, node) in self.nodes.iter().enumerate() {
                if let Some((_, inline)) = node.iter().find(|(pid, _)| *pid == id) {
                    let key = inline_to_value(*inline, &self.strings);
                    if !key.is_unknown() {
                        tree.insert(key, idx as u64);
                    }
                }
            }
        }
        self.indexes.insert(prop.to_string(), tree);
    }

    /// Whether an index exists on `prop`.
    pub fn has_index(&self, prop: &str) -> bool {
        self.indexes.contains_key(prop)
    }

    /// Indexed property names, sorted (checkpoint snapshots need a
    /// deterministic order).
    pub fn index_props(&self) -> Vec<String> {
        let mut props: Vec<String> = self.indexes.keys().cloned().collect();
        props.sort();
        props
    }

    /// Index lookup: node indices with `prop == key`.
    pub fn index_lookup(&self, prop: &str, key: &Value) -> Option<Vec<usize>> {
        let tree = self.indexes.get(prop)?;
        Some(
            tree.scan(&ScanRange::eq(key.clone()), Direction::Forward)
                .map(|(_, idx)| idx as usize)
                .collect(),
        )
    }

    /// Index range scan: node indices with `prop` in `range`.
    pub fn index_range(&self, prop: &str, range: &ScanRange) -> Option<Vec<usize>> {
        let tree = self.indexes.get(prop)?;
        Some(
            tree.scan(range, Direction::Forward)
                .map(|(_, idx)| idx as usize)
                .collect(),
        )
    }

    /// Read a single property of a node *without* materializing the rest of
    /// the record. Strings are fetched from the string store only when the
    /// property actually is a string.
    pub fn prop_value(&self, node: usize, prop: &str) -> Value {
        let Some(&id) = self.name_ids.get(prop) else {
            return Value::Missing;
        };
        match self.nodes[node].iter().find(|(pid, _)| *pid == id) {
            Some((_, inline)) => inline_to_value(*inline, &self.strings),
            None => Value::Missing,
        }
    }

    /// Materialize a whole node (touches the string store).
    pub fn materialize(&self, node: usize) -> Record {
        let mut rec = Record::with_capacity(self.nodes[node].len());
        for (pid, inline) in &self.nodes[node] {
            rec.insert(
                self.prop_names[*pid as usize].clone(),
                inline_to_value(*inline, &self.strings),
            );
        }
        rec
    }

    /// All node indices.
    pub fn node_indices(&self) -> std::ops::Range<usize> {
        0..self.nodes.len()
    }
}

fn inline_to_value(p: InlineProp, strings: &ChunkedVec<String>) -> Value {
    match p {
        InlineProp::Int(i) => Value::Int(i),
        InlineProp::Double(d) => Value::Double(d),
        InlineProp::Bool(b) => Value::Bool(b),
        InlineProp::StrRef(ptr) => Value::Str(strings[ptr as usize].clone()),
        InlineProp::Null => Value::Null,
    }
}

fn too_many_props(name: &str) -> GraphError {
    GraphError::UnsupportedProperty(format!(
        "{name}: a label holds at most {MAX_PROPS} property names"
    ))
}

/// Pre-append validation: every property must be a scalar (or absent),
/// mirroring the checks [`LabelStore::insert_all`] performs, so a logged
/// ingest can never fail when applied.
fn validate_node(record: &Record) -> Result<()> {
    for (name, value) in record.iter() {
        match value {
            Value::Int(_)
            | Value::Double(_)
            | Value::Bool(_)
            | Value::Str(_)
            | Value::Null
            | Value::Missing => {}
            other => {
                return Err(GraphError::UnsupportedProperty(format!(
                    "{name}: {} (Neo4j properties are scalars)",
                    other.type_name()
                )))
            }
        }
    }
    Ok(())
}

/// Pre-append validation: the ingest must not register more property
/// names than `u16` ids can address ([`MAX_PROPS`] per label), or ids
/// would wrap and alias earlier names.
fn validate_prop_names(label: Option<&LabelStore>, records: &[Record]) -> Result<()> {
    let known = label.map_or(0, |l| l.prop_names.len());
    let mut fresh: HashSet<&str> = HashSet::new();
    for record in records {
        for (name, value) in record.iter() {
            // Absent fields register no name (see `LabelStore::insert_all`).
            if matches!(value, Value::Missing)
                || label.is_some_and(|l| l.name_ids.contains_key(name))
            {
                continue;
            }
            if fresh.insert(name) && known + fresh.len() > MAX_PROPS {
                return Err(too_many_props(name));
            }
        }
    }
    Ok(())
}

/// The graph store's durable state: the label map plus the catalog
/// version its plan cache keys on. This is what every write commits to
/// and every read pins.
#[derive(Clone, Default)]
pub(crate) struct GraphState {
    labels: HashMap<String, LabelStore>,
    /// Bumped on every op (label DDL and inserts).
    version: u64,
}

impl DurableState for GraphState {
    type Error = GraphError;

    /// `LabelStore::insert_all` rejects non-scalar properties; index DDL
    /// needs its label. Ingest creates its label implicitly.
    fn validate(&self, op: &DurableOp) -> Result<()> {
        match op {
            DurableOp::Create { .. } => Ok(()),
            DurableOp::Ingest { name, records, .. } => {
                records.iter().try_for_each(validate_node)?;
                validate_prop_names(self.labels.get(name), records)
            }
            DurableOp::Index { name, .. } if !self.labels.contains_key(name) => {
                Err(GraphError::UnknownLabel(name.clone()))
            }
            DurableOp::Index { .. } => Ok(()),
        }
    }

    fn apply(&mut self, op: DurableOp) -> Result<()> {
        match op {
            DurableOp::Create { name, .. } => {
                self.labels.entry(name).or_insert_with(LabelStore::new);
            }
            DurableOp::Ingest { name, records, .. } => {
                let store = self
                    .labels
                    .entry(name.clone())
                    .or_insert_with(LabelStore::new);
                store
                    .insert_all(&records)
                    .map_err(|e| GraphError::Corruption(format!("replaying {name} ingest: {e}")))?;
            }
            DurableOp::Index {
                name, attribute, ..
            } => {
                let store = self.labels.get_mut(&name).ok_or_else(|| {
                    GraphError::Corruption(format!("log indexes unknown label {name}"))
                })?;
                store.create_index(&attribute);
            }
        }
        self.version += 1;
        Ok(())
    }

    /// Per label (sorted by name) a `Create`, its property `Index`es, and
    /// one `Ingest` of the nodes in insertion order. Replaying
    /// materialized nodes re-registers property names and re-fills the
    /// string store in the original encounter order, so the rebuilt
    /// layout is identical.
    fn snapshot_ops(&self) -> Vec<DurableOp> {
        let mut names: Vec<&String> = self.labels.keys().collect();
        names.sort();
        let mut ops = Vec::new();
        for name in names {
            let store = &self.labels[name];
            ops.push(DurableOp::Create {
                namespace: String::new(),
                name: name.clone(),
                key: None,
            });
            for prop in store.index_props() {
                ops.push(DurableOp::Index {
                    namespace: String::new(),
                    name: name.clone(),
                    attribute: prop,
                });
            }
            ops.push(DurableOp::Ingest {
                namespace: String::new(),
                name: name.clone(),
                records: store
                    .node_indices()
                    .map(|idx| store.materialize(idx))
                    .collect(),
            });
        }
        ops
    }

    fn version_mut(&mut self) -> &mut u64 {
        &mut self.version
    }
}

/// Cached parsed queries per store.
const PLAN_CACHE_CAPACITY: usize = 128;

/// The graph store: labels with their node stores.
///
/// The [`GraphState`] lives in a [`DurableCell`]: writes commit through
/// it and publish a copy-on-write snapshot; reads pin the snapshot and
/// never hold the master lock across query execution.
pub struct GraphStore {
    cell: DurableCell<GraphState>,
    use_indexes: bool,
    /// Parsed queries keyed by Cypher text, at the catalog version of the
    /// snapshot they were parsed for.
    plan_cache: VersionedCache<String, CypherQuery>,
}

impl Default for GraphStore {
    fn default() -> Self {
        GraphStore::new()
    }
}

impl GraphStore {
    /// Empty store.
    pub fn new() -> GraphStore {
        GraphStore {
            cell: DurableCell::new("graphstore", GraphState::default()),
            use_indexes: true,
            plan_cache: VersionedCache::new(PLAN_CACHE_CAPACITY),
        }
    }

    /// Install (or clear) a fault-injection plan consulted at every query
    /// entry point.
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

    /// Empty store with index usage disabled (ablation benchmarks).
    pub fn without_indexes() -> GraphStore {
        GraphStore {
            use_indexes: false,
            ..GraphStore::new()
        }
    }

    /// Cache-aware parse: probe the cache at `state`'s catalog version,
    /// parse and insert on a miss. Returns the shared AST and whether the
    /// lookup hit. Shared by `query`, `query_traced` and `explain`.
    fn parsed(&self, state: &GraphState, cypher: &str) -> Result<(Arc<CypherQuery>, bool)> {
        if let Some(ast) = self.plan_cache.get(&cypher.to_string(), state.version) {
            return Ok((ast, true));
        }
        let ast = crate::cypher::parse(cypher)?;
        Ok((
            self.plan_cache
                .insert(cypher.to_string(), state.version, ast),
            false,
        ))
    }

    /// Plan-cache hit/miss tallies since construction.
    pub fn plan_cache_stats(&self) -> CacheStats {
        self.plan_cache.stats()
    }

    /// Whether the planner may use indexes.
    pub fn indexes_enabled(&self) -> bool {
        self.use_indexes
    }

    /// Create an (empty) label.
    pub fn create_label(&self, label: &str) -> Result<()> {
        self.cell
            .commit(DurableOp::Create {
                namespace: String::new(),
                name: label.to_string(),
                key: None,
            })
            .map(drop)
    }

    /// Insert nodes under a label (created implicitly when absent).
    pub fn insert_nodes(
        &self,
        label: &str,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<usize> {
        let records: Vec<Record> = records.into_iter().collect();
        let n = records.len();
        self.cell.commit(DurableOp::Ingest {
            namespace: String::new(),
            name: label.to_string(),
            records,
        })?;
        Ok(n)
    }

    /// Create a property index on a label.
    pub fn create_index(&self, label: &str, prop: &str) -> Result<()> {
        self.cell
            .commit(DurableOp::Index {
                namespace: String::new(),
                name: label.to_string(),
                attribute: prop.to_string(),
            })
            .map(drop)
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

    /// O(1) metadata count for a label.
    pub fn count_nodes(&self, label: &str) -> Result<usize> {
        self.cell
            .pin()?
            .labels
            .get(label)
            .map(LabelStore::count)
            .ok_or_else(|| GraphError::UnknownLabel(label.to_string()))
    }

    /// Execute a Cypher query.
    pub fn query(&self, cypher: &str) -> Result<Vec<Value>> {
        let state = self.cell.pin_query()?;
        let (ast, _) = self.parsed(&state, cypher)?;
        crate::cypher::execute(&ast, &state.labels, self.use_indexes)
    }

    /// Like [`GraphStore::query`], but also reports where the time went as
    /// an `execute` span with `parse`/`plan`/`exec` children. The `plan`
    /// child carries the chosen access path, whether an index was used,
    /// and whether the parsed query came from the cache.
    pub fn query_traced(&self, cypher: &str) -> Result<(Vec<Value>, Span)> {
        let state = self.cell.pin_query()?;
        let started = std::time::Instant::now();

        let mut parse_t = SpanTimer::start("parse");
        let (ast, hit) = self.parsed(&state, cypher)?;
        parse_t
            .span_mut()
            .set_metric("query_len", cypher.len() as i64);
        let parse_span = parse_t.finish();

        let mut plan_t = SpanTimer::start("plan");
        let access_path = crate::cypher::explain(&ast, &state.labels, self.use_indexes)?;
        let index_used =
            access_path.contains("NodeIndexSeek") || access_path.contains("NodeIndexRange");
        plan_t
            .span_mut()
            .set_metric("index_used", i64::from(index_used));
        plan_t.span_mut().set_note("access_path", &access_path);
        plan_t
            .span_mut()
            .set_note("cache", if hit { "hit" } else { "miss" });
        plan_t.span_mut().set_metric("cache_hit", i64::from(hit));
        plan_t.span_mut().set_metric("cache_lookup", 1);
        let plan_span = plan_t.finish();

        let mut exec_t = SpanTimer::start("exec");
        let rows = crate::cypher::execute(&ast, &state.labels, self.use_indexes)?;
        exec_t.span_mut().set_metric("rows_out", rows.len() as i64);
        let exec_span = exec_t.finish();

        let span = Span::new("execute")
            .with_duration(started.elapsed())
            .with_child(parse_span)
            .with_child(plan_span)
            .with_child(exec_span);
        Ok((rows, span))
    }

    /// EXPLAIN-style description of the chosen access path.
    pub fn explain(&self, cypher: &str) -> Result<String> {
        let state = self.cell.pin()?;
        let (ast, _) = self.parsed(&state, cypher)?;
        crate::cypher::explain(&ast, &state.labels, self.use_indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    #[test]
    fn insert_and_materialize() {
        let g = GraphStore::new();
        g.insert_nodes(
            "Users",
            vec![
                record! {"id" => 1i64, "name" => "ann"},
                record! {"id" => 2i64, "flag" => true, "score" => 1.5},
            ],
        )
        .unwrap();
        assert_eq!(g.count_nodes("Users").unwrap(), 2);
        let state = g.cell.snapshot();
        let store = state.labels.get("Users").unwrap();
        let rec = store.materialize(0);
        assert_eq!(rec.get_or_missing("name"), Value::str("ann"));
        assert_eq!(store.prop_value(1, "score"), Value::Double(1.5));
        assert_eq!(store.prop_value(1, "name"), Value::Missing);
    }

    #[test]
    fn strings_live_out_of_line() {
        let g = GraphStore::new();
        g.insert_nodes("L", vec![record! {"a" => 1i64, "s" => "hello"}])
            .unwrap();
        let state = g.cell.snapshot();
        let store = state.labels.get("L").unwrap();
        assert_eq!(store.strings.len(), 1);
        assert!(matches!(
            store.nodes[0]
                .iter()
                .find(|(p, _)| *p == store.name_ids["s"]),
            Some((_, InlineProp::StrRef(0)))
        ));
    }

    #[test]
    fn nested_properties_rejected() {
        let g = GraphStore::new();
        let err = g
            .insert_nodes("L", vec![record! {"x" => Value::Array(vec![])}])
            .unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedProperty(_)));
    }

    #[test]
    fn index_lookup_skips_unknown() {
        let g = GraphStore::new();
        g.insert_nodes(
            "L",
            (0..10i64).map(|i| {
                if i % 2 == 0 {
                    record! {"a" => i}
                } else {
                    record! {"b" => i}
                }
            }),
        )
        .unwrap();
        g.create_index("L", "a").unwrap();
        let state = g.cell.snapshot();
        let store = state.labels.get("L").unwrap();
        assert_eq!(store.index_lookup("a", &Value::Int(4)).unwrap(), vec![4]);
        assert!(store.index_lookup("a", &Value::Int(5)).unwrap().is_empty());
        assert!(store.index_lookup("zzz", &Value::Int(1)).is_none());
    }

    #[test]
    fn unknown_label_errors() {
        let g = GraphStore::new();
        assert!(g.count_nodes("nope").is_err());
        assert!(g.create_index("nope", "a").is_err());
    }

    fn one_prop(name: String, value: i64) -> Record {
        let mut r = Record::new();
        r.insert(name, value);
        r
    }

    #[test]
    fn property_ids_never_wrap() {
        let g = GraphStore::new();
        // One name past the u16 id space, in a single op on a new label:
        // rejected before it is logged, and the label is not created.
        let err = g
            .insert_nodes(
                "Wide",
                (0..=MAX_PROPS).map(|i| one_prop(format!("p{i}"), i as i64)),
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedProperty(_)), "{err}");
        assert!(g.count_nodes("Wide").is_err());
        // Exactly the id space fits, and every name keeps its own id.
        g.insert_nodes(
            "Wide",
            (0..MAX_PROPS).map(|i| one_prop(format!("p{i}"), i as i64)),
        )
        .unwrap();
        let before = g.durable_snapshot();
        let err = g
            .insert_nodes(
                "Wide",
                vec![one_prop("p0".into(), -1), one_prop("extra".into(), -2)],
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::UnsupportedProperty(_)), "{err}");
        assert_eq!(g.durable_snapshot(), before);
        // Names the label already holds are still accepted.
        g.insert_nodes("Wide", vec![one_prop(format!("p{}", MAX_PROPS - 1), -3)])
            .unwrap();
        let state = g.cell.snapshot();
        let store = &state.labels["Wide"];
        let last = MAX_PROPS - 1;
        assert_eq!(
            store.prop_value(last, &format!("p{last}")),
            Value::Int(last as i64)
        );
        assert_eq!(store.prop_value(0, "p0"), Value::Int(0));
        assert_eq!(store.materialize(MAX_PROPS).len(), 1);
        assert_eq!(
            store.prop_value(MAX_PROPS, &format!("p{last}")),
            Value::Int(-3)
        );
    }

    fn all_keys(tree: &BPlusTree, direction: Direction) -> Vec<(Value, u64)> {
        tree.scan(&ScanRange::all(), direction)
            .map(|(k, p)| (k.clone(), p))
            .collect()
    }

    #[test]
    fn pinned_snapshot_survives_chunk_and_root_splits() {
        use polyframe_storage::chunked::CHUNK_LEN;
        let media = LogMedia::new();
        let g = GraphStore::new();
        g.enable_durability(Arc::clone(&media), CheckpointPolicy::every(16))
            .unwrap();
        g.create_label("L").unwrap();
        g.create_index("L", "k").unwrap();
        let node = |i: i64| record! {"k" => i % 7, "s" => format!("s{i}")};
        g.insert_nodes("L", (0..20).map(node)).unwrap();
        let pinned = g.cell.pin().unwrap();
        let ops = pinned.snapshot_ops();
        let tree = &pinned.labels["L"].indexes["k"];
        assert_eq!(tree.height(), 1);
        let (fwd, bwd) = (
            all_keys(tree, Direction::Forward),
            all_keys(tree, Direction::Backward),
        );
        let threes = pinned.labels["L"].index_lookup("k", &Value::Int(3));
        for i in 20..(CHUNK_LEN as i64 + 40) {
            g.insert_nodes("L", vec![node(i)]).unwrap();
        }
        let now = g.cell.snapshot();
        assert!(now.labels["L"].count() > CHUNK_LEN);
        assert!(now.labels["L"].indexes["k"].height() > 1);
        // The pinned snapshot is untouched.
        assert_eq!(pinned.snapshot_ops(), ops);
        assert_eq!(all_keys(tree, Direction::Forward), fwd);
        assert_eq!(all_keys(tree, Direction::Backward), bwd);
        assert_eq!(pinned.labels["L"].index_lookup("k", &Value::Int(3)), threes);
        assert_eq!(pinned.labels["L"].count(), 20);
        // The live state is what a fresh replay of the log rebuilds.
        let replay = GraphStore::new();
        replay
            .enable_durability(media, CheckpointPolicy::every(16))
            .unwrap();
        assert_eq!(replay.durable_snapshot(), g.durable_snapshot());
    }
}
