//! The engine's catalog: namespaces ("dataverses" in AsterixDB parlance,
//! "schemas" in PostgreSQL) containing tables.

use crate::error::{EngineError, Result};
use polyframe_storage::{NullPolicy, Table, TableOptions};
use std::collections::HashMap;

/// All data managed by one engine instance.
///
/// `Clone` is the copy-on-write snapshot the engine publishes for
/// concurrent readers after each committed write; [`Table`]'s own clone
/// shares its heap chunks and index trees, so it costs O(delta), not
/// O(table). The catalog version is a plain field, so each snapshot
/// carries the version it was published at.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: HashMap<(String, String), Table>,
    /// Monotonic catalog version: bumped on DDL and bulk loads, consumed
    /// by the plan cache to invalidate entries compiled against an older
    /// catalog (a new index — or new data making an index incomplete —
    /// changes which physical plan is correct). Crash recovery advances
    /// it past the pre-crash value.
    version: u64,
    /// Null policy of the secondary indexes of every dataset created here
    /// (the engine's personality decides it).
    secondary_null_policy: NullPolicy,
}

impl Database {
    /// Empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Empty database whose secondary indexes follow `policy`.
    pub fn with_secondary_null_policy(policy: NullPolicy) -> Database {
        Database {
            secondary_null_policy: policy,
            ..Database::default()
        }
    }

    /// Null policy for secondary indexes of datasets created here.
    pub(crate) fn secondary_null_policy(&self) -> NullPolicy {
        self.secondary_null_policy
    }

    /// Current catalog version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Mutable catalog version (recovery moves it past the pre-crash
    /// value).
    pub(crate) fn version_mut(&mut self) -> &mut u64 {
        &mut self.version
    }

    /// Advance the catalog version (callers: DDL and bulk-load paths).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Create a dataset. Replaces any existing dataset of the same name.
    pub fn create_dataset(
        &mut self,
        namespace: &str,
        dataset: &str,
        options: TableOptions,
    ) -> &mut Table {
        let key = (namespace.to_string(), dataset.to_string());
        let table = Table::new(format!("{namespace}.{dataset}"), options);
        self.version += 1;
        self.tables.entry(key).insert_entry(table).into_mut()
    }

    /// Look a dataset up.
    pub fn dataset(&self, namespace: &str, dataset: &str) -> Result<&Table> {
        self.tables
            .get(&(namespace.to_string(), dataset.to_string()))
            .ok_or_else(|| EngineError::UnknownDataset {
                namespace: namespace.to_string(),
                dataset: dataset.to_string(),
            })
    }

    /// Mutable dataset lookup. Writes through it copy only the heap
    /// chunks and index paths a published snapshot still shares.
    pub fn dataset_mut(&mut self, namespace: &str, dataset: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&(namespace.to_string(), dataset.to_string()))
            .ok_or_else(|| EngineError::UnknownDataset {
                namespace: namespace.to_string(),
                dataset: dataset.to_string(),
            })
    }

    /// True when the dataset exists.
    pub fn contains(&self, namespace: &str, dataset: &str) -> bool {
        self.tables
            .contains_key(&(namespace.to_string(), dataset.to_string()))
    }

    /// Rebuild every table's statistics exactly from its heap — the
    /// checkpoint path, where the write-ahead log is compacted and the
    /// incremental (sketched) statistics are replaced with exact ones.
    /// Bumps the catalog version so cached stats-informed plans recompile
    /// against the fresh statistics.
    pub fn rebuild_stats(&mut self) {
        for table in self.tables.values_mut() {
            table.rebuild_stats();
        }
        self.version += 1;
    }

    /// Iterate `(namespace, dataset)` names.
    pub fn dataset_names(&self) -> impl Iterator<Item = (&str, &str)> {
        self.tables
            .keys()
            .map(|(ns, ds)| (ns.as_str(), ds.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    #[test]
    fn version_bumps_on_ddl() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.create_dataset("Test", "Users", TableOptions::default());
        assert_eq!(db.version(), 1);
        db.bump_version();
        assert_eq!(db.version(), 2);
    }

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_dataset("Test", "Users", TableOptions::default());
        assert!(db.contains("Test", "Users"));
        assert!(!db.contains("Test", "Ghosts"));
        db.dataset_mut("Test", "Users")
            .unwrap()
            .insert(record! {"id" => 1i64});
        assert_eq!(db.dataset("Test", "Users").unwrap().len(), 1);
        assert!(matches!(
            db.dataset("Nope", "Users"),
            Err(EngineError::UnknownDataset { .. })
        ));
    }
}
