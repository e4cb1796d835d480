//! Append-only table heap.

use crate::chunked::ChunkedVec;
use polyframe_datamodel::Record;

/// Physical address of a record inside a [`TableHeap`].
///
/// Stored as a plain `u64` so it packs tightly into index entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u64);

impl RecordId {
    /// Index into the heap's record vector.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// An append-only heap of records.
///
/// Deletions are tombstoned (`None` slots) so `RecordId`s stay stable —
/// secondary indexes hold `RecordId`s and must never dangle. Slots live in
/// a [`ChunkedVec`], so `Clone` shares every sealed chunk and a write
/// after a clone copies only the chunk it touches.
#[derive(Debug, Default, Clone)]
pub struct TableHeap {
    slots: ChunkedVec<Option<Record>>,
    live: usize,
}

impl TableHeap {
    /// Create an empty heap.
    pub fn new() -> TableHeap {
        TableHeap::default()
    }

    /// Create an empty heap pre-sized for `n` records.
    pub fn with_capacity(n: usize) -> TableHeap {
        TableHeap {
            slots: ChunkedVec::with_capacity(n),
            live: 0,
        }
    }

    /// Append a record, returning its stable id.
    pub fn insert(&mut self, record: Record) -> RecordId {
        let rid = RecordId(self.slots.len() as u64);
        self.slots.push(Some(record));
        self.live += 1;
        rid
    }

    /// Fetch a record by id (`None` if deleted or out of range).
    pub fn get(&self, rid: RecordId) -> Option<&Record> {
        self.slots.get(rid.as_usize()).and_then(|s| s.as_ref())
    }

    /// Tombstone a record; returns the removed record.
    pub fn delete(&mut self, rid: RecordId) -> Option<Record> {
        let removed = self.slots.get_mut(rid.as_usize())?.take();
        if removed.is_some() {
            self.live -= 1;
        }
        removed
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live records remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sequential scan over `(RecordId, &Record)` pairs in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RecordId(i as u64), r)))
    }

    /// Total number of slots, live **and** tombstoned — the exclusive upper
    /// bound for slot-range partitioning (morsel scans).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Sequential scan restricted to the half-open slot range `[lo, hi)`.
    ///
    /// Concatenating `scan_range` over a partition of `0..num_slots()` in
    /// range order yields exactly `scan()` — the property morsel-parallel
    /// scans rely on for determinism.
    pub fn scan_range(&self, lo: usize, hi: usize) -> impl Iterator<Item = (RecordId, &Record)> {
        let lo = lo.min(hi).min(self.slots.len());
        self.slots
            .range(lo, hi)
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(move |r| (RecordId((lo + i) as u64), r)))
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_size(&self) -> usize {
        self.slots.iter().flatten().map(Record::approx_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    #[test]
    fn insert_get_scan() {
        let mut heap = TableHeap::new();
        let a = heap.insert(record! {"x" => 1i64});
        let b = heap.insert(record! {"x" => 2i64});
        assert_eq!(heap.len(), 2);
        assert_eq!(
            heap.get(a).unwrap().get_or_missing("x"),
            polyframe_datamodel::Value::Int(1)
        );
        let scanned: Vec<_> = heap.scan().map(|(rid, _)| rid).collect();
        assert_eq!(scanned, vec![a, b]);
    }

    #[test]
    fn delete_tombstones_and_preserves_ids() {
        let mut heap = TableHeap::new();
        let a = heap.insert(record! {"x" => 1i64});
        let b = heap.insert(record! {"x" => 2i64});
        assert!(heap.delete(a).is_some());
        assert!(heap.delete(a).is_none());
        assert_eq!(heap.len(), 1);
        assert!(heap.get(a).is_none());
        assert!(heap.get(b).is_some());
        assert_eq!(heap.scan().count(), 1);
    }

    #[test]
    fn range_scans_partition_full_scan() {
        let mut heap = TableHeap::new();
        for i in 0..10i64 {
            heap.insert(record! {"x" => i});
        }
        heap.delete(RecordId(3));
        heap.delete(RecordId(7));
        assert_eq!(heap.num_slots(), 10);
        let full: Vec<RecordId> = heap.scan().map(|(rid, _)| rid).collect();
        let mut pieced = Vec::new();
        for lo in (0..10).step_by(4) {
            pieced.extend(heap.scan_range(lo, lo + 4).map(|(rid, _)| rid));
        }
        assert_eq!(pieced, full);
        // Out-of-range bounds clamp instead of panicking.
        assert_eq!(heap.scan_range(8, 99).count(), 2);
        assert_eq!(heap.scan_range(99, 4).count(), 0);
    }

    #[test]
    fn clone_is_isolated_from_later_writes() {
        let mut heap = TableHeap::new();
        for i in 0..200i64 {
            heap.insert(record! {"x" => i});
        }
        let pinned = heap.clone();
        let before: Vec<Record> = pinned.scan().map(|(_, r)| r.clone()).collect();
        heap.insert(record! {"x" => 200i64});
        heap.delete(RecordId(5));
        heap.delete(RecordId(199));
        let after: Vec<Record> = pinned.scan().map(|(_, r)| r.clone()).collect();
        assert_eq!(after, before);
        assert_eq!(pinned.len(), 200);
        assert_eq!(heap.len(), 199);
        assert!(pinned.get(RecordId(5)).is_some());
        assert!(heap.get(RecordId(5)).is_none());
    }

    #[test]
    fn out_of_range_get() {
        let heap = TableHeap::new();
        assert!(heap.get(RecordId(99)).is_none());
        assert!(heap.is_empty());
    }
}
