//! The durable-store shell every single-node substrate runs inside.
//!
//! A [`DurableCell`] owns everything the SQL engine, the document store
//! and the graph store used to hand-roll separately: the master state
//! behind a write lock, the copy-on-write snapshot readers pin, the
//! write-ahead log, the fault plan with its site name, heal-on-entry,
//! crash recovery, checkpointing and the `<site>/apply` panic point.
//! A store supplies only the state-specific hooks of [`DurableState`]:
//! how to validate an op before it is logged, how to apply it, how to
//! compact the state into ops, and what to do after a checkpoint.
//!
//! **Write path** ([`DurableCell::commit`]): heal → lock the master →
//! validate → append to the log (the commit point) → apply → checkpoint
//! when due → publish a fresh snapshot. An injected crash at any WAL
//! site rebuilds the master from the log in place and surfaces as a
//! transient error; the rebuilt state is published like any other.
//!
//! **Read path** ([`DurableCell::pin`]): heal → pin the published
//! snapshot. A panic between the log append and the apply leaves the
//! master torn and its lock poisoned; the next entry of any kind sees
//! the poison, rebuilds from the log, and only then serves.
//!
//! The catalog version the stores' plan caches key on lives *inside*
//! the state, so a pinned snapshot always carries the version it was
//! published at, and recovery moves it strictly past its pre-crash
//! value in one place.

use crate::wal::{CheckpointPolicy, DurableOp, LogMedia, RecoveryReport, Wal, WalError};
use polyframe_observe::sync::{Mutex, RwLock};
use polyframe_observe::{FaultKind, FaultPlan, SnapshotCell};
use std::fmt;
use std::sync::Arc;

/// The state-specific hooks a store plugs into a [`DurableCell`].
///
/// `Clone` is the snapshot publication: the cell clones the master
/// after every committed write, so it must cost O(delta), not O(state).
/// Per-row data belongs in structures whose clones share it —
/// [`crate::ChunkedVec`], [`crate::BPlusTree`], [`crate::Table`] — so a
/// clone copies only spines and roots, and the next write copies only
/// the chunk and tree paths it touches.
pub trait DurableState: Clone + Send + Sync {
    /// The store's error type.
    type Error: From<DurableError> + fmt::Display;

    /// Reject an op that could fail when applied. Runs under the master
    /// write lock, before the op is logged, so a logged op never fails.
    fn validate(&self, op: &DurableOp) -> Result<(), Self::Error>;

    /// Apply one op, bumping the catalog version. A failure on a
    /// validated op means the log references state it never created.
    fn apply(&mut self, op: DurableOp) -> Result<(), Self::Error>;

    /// The compacted op list that rebuilds this state from empty — what
    /// a checkpoint writes and what byte-identity tests compare.
    fn snapshot_ops(&self) -> Vec<DurableOp>;

    /// The catalog version the store's plan cache keys on.
    fn version_mut(&mut self) -> &mut u64;

    /// Maintenance after a checkpoint was installed (default: none).
    fn after_checkpoint(&mut self) {}
}

/// Failures the cell itself produces; each store maps them onto its own
/// error type with one `From` impl.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// Retryable: an injected fault at a query site, or a crash the store
    /// has already recovered from.
    Transient(String),
    /// Non-retryable: the log is damaged, or the state is torn and there
    /// is no log to rebuild it from.
    Corruption(String),
    /// The operation needs a write-ahead log and none is attached.
    NotDurable,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Transient(m) | DurableError::Corruption(m) => f.write_str(m),
            DurableError::NotDurable => f.write_str("durability is not enabled"),
        }
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> DurableError {
        match e {
            WalError::Crashed { site } => {
                DurableError::Transient(format!("process crashed at {site}"))
            }
            WalError::Corruption(m) => DurableError::Corruption(m),
        }
    }
}

/// One store's master state, published snapshot, log and fault plan.
pub struct DurableCell<S> {
    /// Fault site of the store's query entry points; WAL sites hang off
    /// it as `<site>/wal/...`, the panic point is `<site>/apply`.
    site: String,
    /// The empty state recovery replays into.
    empty: S,
    master: RwLock<S>,
    published: SnapshotCell<S>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
    wal: Mutex<Option<Arc<Wal>>>,
}

impl<S: DurableState> DurableCell<S> {
    /// A cell publishing `empty`, with no log and no fault plan.
    pub fn new(site: impl Into<String>, empty: S) -> DurableCell<S> {
        DurableCell {
            site: site.into(),
            master: RwLock::new(empty.clone()),
            published: SnapshotCell::new(empty.clone()),
            empty,
            faults: Mutex::new(None),
            wal: Mutex::new(None),
        }
    }

    /// Install (or clear) the fault plan consulted at the query site, the
    /// apply panic point and every WAL site.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan.clone();
        if let Some(wal) = self.wal() {
            wal.set_faults(plan);
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<Arc<Wal>> {
        self.wal.lock().clone()
    }

    /// Epoch of the most recent snapshot publication (0 = construction).
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Attach a log on `media` and rebuild the state it holds (a fresh
    /// media recovers to the empty state). Also heals a torn master.
    pub fn enable(
        &self,
        media: Arc<LogMedia>,
        policy: CheckpointPolicy,
    ) -> Result<RecoveryReport, S::Error> {
        let wal = Arc::new(Wal::new(media, self.site.clone(), policy));
        wal.set_faults(self.fault_plan());
        let mut master = self.master.write();
        let report = self.rebuild(&mut master, &wal)?;
        *self.wal.lock() = Some(wal);
        Ok(report)
    }

    /// Wipe the state and rebuild it from the log, as a restarted
    /// process would.
    pub fn recover(&self) -> Result<RecoveryReport, S::Error> {
        let wal = self.wal().ok_or(DurableError::NotDurable)?;
        let mut master = self.master.write();
        self.rebuild(&mut master, &wal)
    }

    /// Heal, then pin the current committed snapshot. Every read entry
    /// point starts here.
    pub fn pin(&self) -> Result<Arc<S>, S::Error> {
        self.heal()?;
        Ok(self.published.load())
    }

    /// Like [`DurableCell::pin`], but first draw a fault at the query
    /// site (query entry points; cluster shard paths inject elsewhere).
    pub fn pin_query(&self) -> Result<Arc<S>, S::Error> {
        self.heal()?;
        self.query_fault()?;
        Ok(self.published.load())
    }

    /// The committed state, healed when possible. Never fails: a store
    /// that cannot heal still returns its last published (whole) state.
    pub fn snapshot(&self) -> Arc<S> {
        let _ = self.heal();
        self.published.load()
    }

    /// [`DurableState::snapshot_ops`] of the healed committed state.
    pub fn durable_snapshot(&self) -> Vec<DurableOp> {
        self.snapshot().snapshot_ops()
    }

    /// Atomically pin the compacted state and the LSN the next append
    /// will receive. The master read lock excludes writers, so the two
    /// always agree.
    pub fn pinned_ops(&self) -> Result<(Vec<DurableOp>, u64), S::Error> {
        let wal = self.wal().ok_or(DurableError::NotDurable)?;
        self.heal()?;
        let master = self.master.read();
        Ok((master.snapshot_ops(), wal.next_lsn()))
    }

    /// Validate, log, apply and publish `op`. Returns the snapshot this
    /// write published.
    pub fn commit(&self, op: DurableOp) -> Result<Arc<S>, S::Error> {
        self.commit_with(|_| op)
    }

    /// [`DurableCell::commit`] for an op that depends on the state it
    /// lands on (e.g. id assignment): `build` runs under the master
    /// write lock, so no other write can interleave.
    pub fn commit_with(&self, build: impl FnOnce(&S) -> DurableOp) -> Result<Arc<S>, S::Error> {
        self.heal()?;
        let mut master = self.master.write();
        let op = build(&master);
        master.validate(&op)?;
        let result = self.log_apply(&mut master, op);
        // Publish failures too: a crash rebuilt the master in place, and
        // readers must see the rebuilt state.
        let published = self.publish(&master);
        result.map(|()| published)
    }

    /// Publish a clone of the master. Callers hold the master write lock,
    /// so publications are ordered and never show a torn state.
    fn publish(&self, master: &S) -> Arc<S> {
        let snapshot = Arc::new(master.clone());
        self.published.publish_arc(Arc::clone(&snapshot));
        snapshot
    }

    /// Log `op` (when a log is attached), apply it, and checkpoint when
    /// due. A crash at a WAL site rebuilds `master` from the log.
    fn log_apply(&self, master: &mut S, op: DurableOp) -> Result<(), S::Error> {
        let wal = self.wal();
        if let Some(wal) = &wal {
            if let Err(e) = wal.append(&op) {
                return Err(self.crash_recover(master, wal, e));
            }
        }
        self.apply_panic_point();
        master.apply(op)?;
        if let Some(wal) = &wal {
            if wal.checkpoint_due() {
                if let Err(e) = wal.checkpoint(&master.snapshot_ops()) {
                    return Err(self.crash_recover(master, wal, e));
                }
                master.after_checkpoint();
            }
        }
        Ok(())
    }

    /// The injected-panic point between the log append (the commit
    /// point) and the apply: a [`FaultPlan::panic_at`] target at
    /// `<site>/apply` dies here with the master write lock held, leaving
    /// the op logged but unapplied and the lock poisoned — the torn state
    /// [`DurableCell::heal`] repairs. Plans that never aim here draw
    /// nothing.
    fn apply_panic_point(&self) {
        if let Some(plan) = self.fault_plan() {
            let site = format!("{}/apply", self.site);
            if plan.has_target_at(&site) && plan.next_fault(&site) == Some(FaultKind::Panic) {
                panic!("injected panic at {site}");
            }
        }
    }

    /// A master lock poisoned by a panic mid-write means the master may
    /// miss an op the log holds: rebuild it before serving anything.
    fn heal(&self) -> Result<(), S::Error> {
        if !self.master.poisoned() {
            return Ok(());
        }
        let mut master = self.master.write();
        if !self.master.poisoned() {
            return Ok(()); // another session healed while we waited
        }
        let wal = self.wal().ok_or_else(|| {
            DurableError::Corruption(
                "store state torn by a panic mid-apply and no log is attached to rebuild from"
                    .to_string(),
            )
        })?;
        self.rebuild(&mut master, &wal).map(drop)
    }

    /// Draw a fault at the query site.
    fn query_fault(&self) -> Result<(), S::Error> {
        let Some(plan) = self.fault_plan() else {
            return Ok(());
        };
        let site = &self.site;
        let transient =
            |m: String| -> Result<(), S::Error> { Err(DurableError::Transient(m).into()) };
        match plan.next_fault(site) {
            None => Ok(()),
            Some(FaultKind::Error) => transient(format!("injected fault at {site}")),
            Some(FaultKind::Latency(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Hang(d)) => {
                std::thread::sleep(d);
                transient(format!("injected hang at {site}"))
            }
            // A crash at a read-only site puts no committed state at
            // risk, but the restart wipes memory: rebuild from the log
            // (when there is one) so the caller's retry lands on it.
            Some(FaultKind::Crash) | Some(FaultKind::TornWrite(_)) => {
                if let Some(wal) = self.wal() {
                    let mut master = self.master.write();
                    self.rebuild(&mut master, &wal)?;
                }
                transient(format!("process crashed at {site}; store recovered"))
            }
            Some(FaultKind::Panic) => panic!("injected panic at {site}"),
        }
    }

    /// Recover `master` from `wal`, clear any poison and publish.
    fn rebuild(&self, master: &mut S, wal: &Wal) -> Result<RecoveryReport, S::Error> {
        let report = self.recover_locked(master, wal)?;
        self.master.clear_poison();
        self.publish(master);
        Ok(report)
    }

    /// Replace `master` with the state replayed from `wal`'s media,
    /// moving the catalog version strictly past its pre-crash value so a
    /// plan cached before the crash can never be served again.
    fn recover_locked(&self, master: &mut S, wal: &Wal) -> Result<RecoveryReport, S::Error> {
        let seen = *master.version_mut();
        let (ops, report) = wal.recover().map_err(DurableError::from)?;
        let mut fresh = self.empty.clone();
        for op in ops {
            fresh.apply(op)?;
        }
        let version = fresh.version_mut();
        *version = (*version).max(seen.saturating_add(1));
        *master = fresh;
        Ok(report)
    }

    /// Handle a WAL failure under the master write lock: a crash
    /// recovers in place, corruption is fatal.
    fn crash_recover(&self, master: &mut S, wal: &Wal, err: WalError) -> S::Error {
        match err {
            WalError::Crashed { site } => match self.recover_locked(master, wal) {
                Ok(_) => DurableError::Transient(format!(
                    "process crashed at {site}; store recovered from log"
                ))
                .into(),
                Err(e) => e,
            },
            WalError::Corruption(m) => DurableError::Corruption(m).into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    /// The smallest durable state: named containers with record counts.
    #[derive(Clone, Debug, Default)]
    struct Counts {
        names: Vec<(String, usize)>,
        version: u64,
    }

    impl DurableState for Counts {
        type Error = DurableError;

        fn validate(&self, op: &DurableOp) -> Result<(), DurableError> {
            match op {
                DurableOp::Ingest { name, .. } if !self.names.iter().any(|(n, _)| n == name) => {
                    Err(DurableError::Transient(format!("unknown {name}")))
                }
                _ => Ok(()),
            }
        }

        fn apply(&mut self, op: DurableOp) -> Result<(), DurableError> {
            match op {
                DurableOp::Create { name, .. } => self.names.push((name, 0)),
                DurableOp::Ingest { name, records, .. } => {
                    let slot = self.names.iter_mut().find(|(n, _)| *n == name);
                    let (_, count) = slot.ok_or(DurableError::Corruption(name))?;
                    *count += records.len();
                }
                DurableOp::Index { .. } => {}
            }
            self.version += 1;
            Ok(())
        }

        fn snapshot_ops(&self) -> Vec<DurableOp> {
            self.names
                .iter()
                .flat_map(|(name, count)| [create(name), ingest(name, *count)])
                .collect()
        }

        fn version_mut(&mut self) -> &mut u64 {
            &mut self.version
        }
    }

    fn create(name: &str) -> DurableOp {
        DurableOp::Create {
            namespace: String::new(),
            name: name.to_string(),
            key: None,
        }
    }

    fn ingest(name: &str, n: usize) -> DurableOp {
        DurableOp::Ingest {
            namespace: String::new(),
            name: name.to_string(),
            records: (0..n as i64).map(|i| record! {"i" => i}).collect(),
        }
    }

    fn durable_cell(media: &Arc<LogMedia>) -> DurableCell<Counts> {
        let cell = DurableCell::new("toy", Counts::default());
        cell.enable(Arc::clone(media), CheckpointPolicy::every(3))
            .expect("enable");
        cell
    }

    #[test]
    fn commit_validates_logs_applies_and_publishes() {
        let media = LogMedia::new();
        let cell = durable_cell(&media);
        let before = cell.epoch();
        assert!(cell.commit(ingest("t", 1)).is_err(), "validation rejects");
        assert_eq!(cell.epoch(), before, "a rejected op publishes nothing");
        cell.commit(create("t")).expect("create");
        let state = cell.commit(ingest("t", 2)).expect("ingest");
        assert_eq!(state.names, vec![("t".to_string(), 2)]);
        assert_eq!(cell.pin().expect("pin").names, state.names);
        // Five ops with a checkpoint every three: replay sees them all.
        for _ in 0..3 {
            cell.commit(ingest("t", 1)).expect("ingest");
        }
        assert_eq!(cell.wal().expect("wal").stats().checkpoints, 1);
        let replayed = durable_cell(&media);
        assert_eq!(replayed.durable_snapshot(), cell.durable_snapshot());
    }

    #[test]
    fn wal_crash_recovers_in_place_and_advances_the_version() {
        let media = LogMedia::new();
        let cell = durable_cell(&media);
        cell.commit(create("t")).expect("create");
        let seen = cell.pin().expect("pin").version;
        cell.set_fault_plan(Some(Arc::new(FaultPlan::crash_at(1, "toy/wal/append", 0))));
        let err = cell.commit(ingest("t", 4)).expect_err("crash");
        assert!(matches!(err, DurableError::Transient(_)), "{err}");
        let state = cell.pin().expect("pin");
        assert_eq!(
            state.names,
            vec![("t".to_string(), 0)],
            "the op never committed"
        );
        assert!(
            state.version > seen,
            "recovery moves the version past the crash"
        );
    }

    #[test]
    fn a_mid_apply_panic_heals_on_the_next_entry() {
        let media = LogMedia::new();
        let cell = durable_cell(&media);
        cell.commit(create("t")).expect("create");
        cell.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(1, "toy/apply", 0))));
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cell.commit(ingest("t", 2));
        }));
        assert!(torn.is_err());
        cell.set_fault_plan(None);
        assert_eq!(cell.snapshot().names, vec![("t".to_string(), 2)]);
        let bare = DurableCell::new("bare", Counts::default());
        assert_eq!(bare.recover().err(), Some(DurableError::NotDurable));
    }
}
