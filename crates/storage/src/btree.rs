//! An in-memory B+tree over [`Value`] keys with duplicate support.
//!
//! Every entry is a `(key, payload)` pair; duplicates are disambiguated by
//! the payload (a [`crate::heap::RecordId`] in practice), so the tree's
//! internal ordering is `(cmp_total(key), payload)`. Scans run in either
//! direction off a root-to-leaf cursor stack, which is what makes the
//! paper's *backward index scan* (expression 9: `ORDER BY unique1 DESC
//! LIMIT 5`) a cheap operation: it touches the rightmost path only.
//!
//! Nodes are `Arc`-shared and updates *path-copy*: `Clone` is one
//! refcount bump, and an insert or remove copies only the nodes on its
//! root-to-leaf path that another clone still shares — O(log n) nodes of
//! at most 32 entries. That is what makes publishing a
//! snapshot of an indexed table O(delta). Sibling links between leaves
//! would have to be rewritten on every copy, so there are none.
//!
//! Deletion removes entries without merging underfull leaves — the classic
//! "lazy deletion" trade-off (correct scans, slightly lower occupancy after
//! heavy deletes). The PolyFrame workloads are append-mostly, so occupancy
//! decay is not a concern; tests cover scan correctness after deletes.

use polyframe_datamodel::{cmp_total, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Maximum number of entries in a node before it splits.
const MAX_KEYS: usize = 32;

/// Scan direction for range scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Ascending key order.
    Forward,
    /// Descending key order (backward index scan).
    Backward,
}

/// One edge of a scan range.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyBound {
    /// No bound on this side.
    Unbounded,
    /// Closed bound.
    Included(Value),
    /// Open bound.
    Excluded(Value),
}

/// A `[lo, hi]` range over index keys.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRange {
    /// Lower edge.
    pub lo: KeyBound,
    /// Upper edge.
    pub hi: KeyBound,
}

impl ScanRange {
    /// The full key space.
    pub fn all() -> ScanRange {
        ScanRange {
            lo: KeyBound::Unbounded,
            hi: KeyBound::Unbounded,
        }
    }

    /// Exactly one key value (all duplicates of it).
    pub fn eq(key: Value) -> ScanRange {
        ScanRange {
            lo: KeyBound::Included(key.clone()),
            hi: KeyBound::Included(key),
        }
    }

    /// True when `key` satisfies both edges.
    pub fn contains(&self, key: &Value) -> bool {
        let lo_ok = match &self.lo {
            KeyBound::Unbounded => true,
            KeyBound::Included(b) => cmp_total(key, b) != Ordering::Less,
            KeyBound::Excluded(b) => cmp_total(key, b) == Ordering::Greater,
        };
        let hi_ok = match &self.hi {
            KeyBound::Unbounded => true,
            KeyBound::Included(b) => cmp_total(key, b) != Ordering::Greater,
            KeyBound::Excluded(b) => cmp_total(key, b) == Ordering::Less,
        };
        lo_ok && hi_ok
    }
}

#[derive(Debug, Clone)]
enum Node {
    Internal {
        /// `separators[i]` is the smallest entry of `children[i + 1]`'s subtree.
        separators: Vec<(Value, u64)>,
        /// Never empty: nodes only split, they never merge.
        children: Vec<Arc<Node>>,
    },
    Leaf {
        entries: Vec<(Value, u64)>,
    },
}

/// The B+tree. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    root: Arc<Node>,
    len: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        BPlusTree::new()
    }
}

#[inline]
fn entry_cmp(a: &(Value, u64), b: &(Value, u64)) -> Ordering {
    cmp_total(&a.0, &b.0).then(a.1.cmp(&b.1))
}

/// The child of an internal node whose subtree would contain `probe`.
#[inline]
fn child_index(separators: &[(Value, u64)], probe: &(Value, u64)) -> usize {
    separators.partition_point(|s| entry_cmp(s, probe) != Ordering::Greater)
}

impl BPlusTree {
    /// Create an empty tree.
    pub fn new() -> BPlusTree {
        BPlusTree {
            root: Arc::new(Node::Leaf {
                entries: Vec::new(),
            }),
            len: 0,
        }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a `(key, payload)` entry. Duplicate `(key, payload)` pairs are
    /// tolerated (both are stored).
    pub fn insert(&mut self, key: Value, payload: u64) {
        if let Some((sep, right)) = insert_into(&mut self.root, (key, payload)) {
            // Root split: grow the tree by one level.
            self.root = Arc::new(Node::Internal {
                separators: vec![sep],
                children: vec![Arc::clone(&self.root), right],
            });
        }
        self.len += 1;
    }

    /// Remove one entry matching `(key, payload)` exactly. Returns whether an
    /// entry was removed.
    pub fn remove(&mut self, key: &Value, payload: u64) -> bool {
        let removed = remove_from(&mut self.root, &(key.clone(), payload));
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Smallest entry, if any.
    pub fn first(&self) -> Option<(&Value, u64)> {
        self.scan(&ScanRange::all(), Direction::Forward).next()
    }

    /// Largest entry, if any.
    pub fn last(&self) -> Option<(&Value, u64)> {
        self.scan(&ScanRange::all(), Direction::Backward).next()
    }

    /// Iterate entries inside `range` in the given `direction`.
    pub fn scan<'a>(&'a self, range: &ScanRange, direction: Direction) -> Scan<'a> {
        let mut scan = Scan {
            path: [(&[], 0); MAX_HEIGHT],
            depth: 0,
            leaf: &[],
            pos: 0,
            range: range.clone(),
            direction,
            done: false,
        };
        // Forward cursors start at the first entry >= the lower bound;
        // backward ones just after the last entry <= the upper bound
        // (backward cursors pre-decrement).
        let probe = match (direction, &range.lo, &range.hi) {
            (Direction::Forward, KeyBound::Included(v), _)
            | (Direction::Backward, _, KeyBound::Excluded(v)) => Some((v.clone(), 0)),
            (Direction::Forward, KeyBound::Excluded(v), _)
            | (Direction::Backward, _, KeyBound::Included(v)) => Some((v.clone(), u64::MAX)),
            (_, _, _) => None,
        };
        match probe {
            Some(probe) => scan.seek(&self.root, &probe),
            None => scan.descend(&self.root),
        }
        scan
    }

    /// Count entries in `range` by walking leaf entries only (no heap access
    /// — the physical operation behind index-based `COUNT(*)`).
    pub fn count_range(&self, range: &ScanRange) -> usize {
        self.scan(range, Direction::Forward).count()
    }

    /// Height of the tree (1 = a single leaf). Exposed for tests and planner
    /// cost estimates.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &*self.root;
        while let Node::Internal { children, .. } = node {
            node = &children[0];
            h += 1;
        }
        h
    }
}

/// Insert below `node`, copying it first when another tree shares it.
/// Returns `Some((separator, new_right_sibling))` when `node` split.
fn insert_into(node: &mut Arc<Node>, entry: (Value, u64)) -> Option<((Value, u64), Arc<Node>)> {
    match Arc::make_mut(node) {
        Node::Leaf { entries } => {
            let pos = entries.partition_point(|e| entry_cmp(e, &entry) != Ordering::Greater);
            entries.insert(pos, entry);
            if entries.len() <= MAX_KEYS {
                return None;
            }
            let right = entries.split_off(entries.len() / 2);
            let sep = right[0].clone();
            Some((sep, Arc::new(Node::Leaf { entries: right })))
        }
        Node::Internal {
            separators,
            children,
        } => {
            let idx = child_index(separators, &entry);
            let (sep, right) = insert_into(&mut children[idx], entry)?;
            separators.insert(idx, sep);
            children.insert(idx + 1, right);
            if separators.len() <= MAX_KEYS {
                return None;
            }
            let mid = separators.len() / 2;
            let mut right_seps = separators.split_off(mid);
            // The middle separator moves up, not right.
            let sep = right_seps.remove(0);
            let right_children = children.split_off(mid + 1);
            Some((
                sep,
                Arc::new(Node::Internal {
                    separators: right_seps,
                    children: right_children,
                }),
            ))
        }
    }
}

/// Remove `probe` below `node`, copying the root-to-leaf path first where
/// another tree shares it. Returns whether an entry was removed.
fn remove_from(node: &mut Arc<Node>, probe: &(Value, u64)) -> bool {
    match Arc::make_mut(node) {
        Node::Leaf { entries } => match entries.binary_search_by(|e| entry_cmp(e, probe)) {
            Ok(pos) => {
                entries.remove(pos);
                true
            }
            Err(_) => false,
        },
        Node::Internal {
            separators,
            children,
        } => {
            let idx = child_index(separators, probe);
            remove_from(&mut children[idx], probe)
        }
    }
}

/// One internal level of a cursor's root-to-leaf path: the node's
/// children and the index of the child the cursor is inside.
type Level<'a> = (&'a [Arc<Node>], usize);

/// Most internal levels a cursor path holds. Nodes never merge, and a
/// split leaves each half at least 17 children (16 entries per leaf),
/// so building a tree taller than this takes more than 10^18 inserts.
const MAX_HEIGHT: usize = 16;

/// Cursor over a [`BPlusTree`] range scan.
///
/// Leaves are not linked (path copying could not keep sibling links
/// valid), so the cursor keeps its root-to-leaf path and steps to the
/// neighbouring leaf by climbing to the nearest ancestor with a sibling
/// in the scan direction and descending its outer edge.
pub struct Scan<'a> {
    /// `path[..depth]`: the internal levels from the root down, inline
    /// so that a point lookup allocates nothing.
    path: [Level<'a>; MAX_HEIGHT],
    depth: usize,
    leaf: &'a [(Value, u64)],
    pos: usize,
    range: ScanRange,
    direction: Direction,
    done: bool,
}

impl<'a> Scan<'a> {
    fn push(&mut self, children: &'a [Arc<Node>], idx: usize) {
        self.path[self.depth] = (children, idx);
        self.depth += 1;
    }

    /// Descend from `node` to the leaf that would contain `probe` and park
    /// at the first entry >= `probe`.
    fn seek(&mut self, mut node: &'a Node, probe: &(Value, u64)) {
        loop {
            match node {
                Node::Internal {
                    separators,
                    children,
                } => {
                    let idx = child_index(separators, probe);
                    self.push(children, idx);
                    node = &children[idx];
                }
                Node::Leaf { entries } => {
                    self.leaf = entries;
                    self.pos = entries.partition_point(|e| entry_cmp(e, probe) == Ordering::Less);
                    return;
                }
            }
        }
    }

    /// Descend from `node` along its outer edge in the scan direction
    /// (leftmost forward, rightmost backward) and park at the leaf's
    /// start (forward) or end (backward).
    fn descend(&mut self, mut node: &'a Node) {
        loop {
            match node {
                Node::Internal { children, .. } => {
                    let idx = match self.direction {
                        Direction::Forward => 0,
                        Direction::Backward => children.len() - 1,
                    };
                    self.push(children, idx);
                    node = &children[idx];
                }
                Node::Leaf { entries } => {
                    self.leaf = entries;
                    self.pos = match self.direction {
                        Direction::Forward => 0,
                        Direction::Backward => entries.len(),
                    };
                    return;
                }
            }
        }
    }

    /// Move to the neighbouring leaf in the scan direction; false when
    /// the cursor is already at the outermost leaf.
    fn step_leaf(&mut self) -> bool {
        while self.depth > 0 {
            let (children, idx) = self.path[self.depth - 1];
            let sibling = match self.direction {
                Direction::Forward => Some(idx + 1).filter(|&i| i < children.len()),
                Direction::Backward => idx.checked_sub(1),
            };
            if let Some(sibling) = sibling {
                self.path[self.depth - 1].1 = sibling;
                self.descend(&children[sibling]);
                return true;
            }
            self.depth -= 1;
        }
        false
    }
}

impl<'a> Iterator for Scan<'a> {
    type Item = (&'a Value, u64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let leaf = self.leaf;
            match self.direction {
                Direction::Forward => {
                    if self.pos < leaf.len() {
                        let (k, p) = &leaf[self.pos];
                        self.pos += 1;
                        if !self.range.contains(k) {
                            // Past the upper bound (keys ascend): stop.
                            if !below_upper(k, &self.range.hi) {
                                self.done = true;
                                return None;
                            }
                            continue;
                        }
                        return Some((k, *p));
                    }
                }
                Direction::Backward => {
                    if self.pos > 0 {
                        self.pos -= 1;
                        let (k, p) = &leaf[self.pos];
                        if !self.range.contains(k) {
                            // Below the lower bound (keys descend): stop.
                            if !above_lower(k, &self.range.lo) {
                                self.done = true;
                                return None;
                            }
                            continue;
                        }
                        return Some((k, *p));
                    }
                }
            }
            if !self.step_leaf() {
                self.done = true;
                return None;
            }
        }
    }
}

fn below_upper(key: &Value, hi: &KeyBound) -> bool {
    match hi {
        KeyBound::Unbounded => true,
        KeyBound::Included(b) => cmp_total(key, b) != Ordering::Greater,
        KeyBound::Excluded(b) => cmp_total(key, b) == Ordering::Less,
    }
}

fn above_lower(key: &Value, lo: &KeyBound) -> bool {
    match lo {
        KeyBound::Unbounded => true,
        KeyBound::Included(b) => cmp_total(key, b) != Ordering::Less,
        KeyBound::Excluded(b) => cmp_total(key, b) == Ordering::Greater,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tree_with(keys: impl IntoIterator<Item = i64>) -> BPlusTree {
        let mut t = BPlusTree::new();
        for (i, k) in keys.into_iter().enumerate() {
            t.insert(Value::Int(k), i as u64);
        }
        t
    }

    #[test]
    fn sorted_forward_scan() {
        let t = tree_with((0..500).rev());
        let keys: Vec<i64> = t
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
        assert_eq!(t.len(), 500);
        assert!(t.height() > 1);
    }

    #[test]
    fn backward_scan() {
        let t = tree_with(0..500);
        let keys: Vec<i64> = t
            .scan(&ScanRange::all(), Direction::Backward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, (0..500).rev().collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_bounds() {
        let t = tree_with(0..100);
        let range = ScanRange {
            lo: KeyBound::Included(Value::Int(10)),
            hi: KeyBound::Excluded(Value::Int(20)),
        };
        let keys: Vec<i64> = t
            .scan(&range, Direction::Forward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, (10..20).collect::<Vec<_>>());
        let back: Vec<i64> = t
            .scan(&range, Direction::Backward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(back, (10..20).rev().collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_all_returned() {
        let mut t = BPlusTree::new();
        for i in 0..200 {
            t.insert(Value::Int(i % 5), i as u64);
        }
        let dups: Vec<u64> = t
            .scan(&ScanRange::eq(Value::Int(3)), Direction::Forward)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(dups.len(), 40);
        // Payload order within duplicates is ascending.
        assert!(dups.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.count_range(&ScanRange::eq(Value::Int(3))), 40);
    }

    #[test]
    fn first_last() {
        let t = tree_with([5, 1, 9, 3]);
        assert_eq!(t.first().unwrap().0, &Value::Int(1));
        assert_eq!(t.last().unwrap().0, &Value::Int(9));
        let empty = BPlusTree::new();
        assert!(empty.first().is_none());
        assert!(empty.last().is_none());
    }

    #[test]
    fn remove_entries() {
        let mut t = tree_with(0..100);
        for i in (0..100).step_by(2) {
            // payload == insertion order == key here
            assert!(t.remove(&Value::Int(i), i as u64));
        }
        assert!(!t.remove(&Value::Int(0), 0));
        let keys: Vec<i64> = t
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(keys, (1..100).step_by(2).collect::<Vec<_>>());
        assert_eq!(t.len(), 50);
    }

    #[test]
    fn mixed_type_keys_follow_total_order() {
        let mut t = BPlusTree::new();
        t.insert(Value::str("b"), 0);
        t.insert(Value::Int(10), 1);
        t.insert(Value::Null, 2);
        t.insert(Value::str("a"), 3);
        let keys: Vec<Value> = t
            .scan(&ScanRange::all(), Direction::Forward)
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            vec![
                Value::Null,
                Value::Int(10),
                Value::str("a"),
                Value::str("b")
            ]
        );
    }

    #[test]
    fn exclusive_bounds_skip_duplicates() {
        let mut t = BPlusTree::new();
        for p in 0..10 {
            t.insert(Value::Int(5), p);
            t.insert(Value::Int(6), p + 100);
        }
        let range = ScanRange {
            lo: KeyBound::Excluded(Value::Int(5)),
            hi: KeyBound::Unbounded,
        };
        let got: Vec<u64> = t.scan(&range, Direction::Forward).map(|(_, p)| p).collect();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|p| *p >= 100));
    }

    /// Every node of `tree`, by address.
    fn node_ptrs(tree: &BPlusTree) -> Vec<*const Node> {
        let mut out = Vec::new();
        let mut stack = vec![&tree.root];
        while let Some(node) = stack.pop() {
            out.push(Arc::as_ptr(node));
            if let Node::Internal { children, .. } = &**node {
                stack.extend(children);
            }
        }
        out
    }

    /// Nodes of `tree` that `other` does not share.
    fn unshared(tree: &BPlusTree, other: &BPlusTree) -> usize {
        let theirs: std::collections::HashSet<_> = node_ptrs(other).into_iter().collect();
        node_ptrs(tree)
            .into_iter()
            .filter(|p| !theirs.contains(p))
            .count()
    }

    fn keys(t: &BPlusTree, direction: Direction) -> Vec<(i64, u64)> {
        t.scan(&ScanRange::all(), direction)
            .map(|(k, p)| (k.as_i64().unwrap(), p))
            .collect()
    }

    #[test]
    fn clone_shares_the_root() {
        let t = tree_with((0..2000).map(|k| k * 2));
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.root, &c.root));
        assert_eq!(Arc::strong_count(&t.root), 2);
        assert_eq!(unshared(&t, &c), 0);
    }

    #[test]
    fn insert_after_clone_copies_only_its_path() {
        // Ascending keys leave every leaf but the last half full, so one
        // more key in the middle lands without a split.
        let mut t = tree_with((0..2000).map(|k| k * 2));
        let pinned = t.clone();
        let before = keys(&pinned, Direction::Forward);
        assert!(t.height() >= 3);
        t.insert(Value::Int(1001), 9999);
        assert_eq!(unshared(&t, &pinned), t.height());
        assert_eq!(node_ptrs(&t).len(), node_ptrs(&pinned).len());
        // Off-path nodes are held by both trees.
        let Node::Internal { children, .. } = &*t.root else {
            panic!("root is internal")
        };
        assert!(
            children
                .iter()
                .filter(|c| Arc::strong_count(c) == 2)
                .count()
                >= children.len() - 1
        );
        assert_eq!(keys(&pinned, Direction::Forward), before);
        assert_eq!(pinned.len(), 2000);
        assert_eq!(t.len(), 2001);
    }

    #[test]
    fn remove_after_clone_copies_only_its_path() {
        let mut t = tree_with((0..2000).map(|k| k * 2));
        let pinned = t.clone();
        assert!(t.remove(&Value::Int(1000), 500));
        assert_eq!(unshared(&t, &pinned), t.height());
        assert_eq!(pinned.count_range(&ScanRange::eq(Value::Int(1000))), 1);
        assert_eq!(t.count_range(&ScanRange::eq(Value::Int(1000))), 0);
    }

    #[test]
    fn root_split_after_clone_leaves_the_clone_intact() {
        let mut t = tree_with(0..32);
        assert_eq!(t.height(), 1);
        let pinned = t.clone();
        t.insert(Value::Int(32), 32);
        assert_eq!(t.height(), 2);
        assert_eq!(pinned.height(), 1);
        assert_eq!(keys(&pinned, Direction::Backward).len(), 32);
        assert_eq!(keys(&t, Direction::Backward).len(), 33);
        assert_eq!(t.last().unwrap().0, &Value::Int(32));
        assert_eq!(pinned.last().unwrap().0, &Value::Int(31));
    }

    #[test]
    fn scans_cross_empty_leaves_in_both_directions() {
        let mut t = tree_with(0..500);
        // Empty a run of leaves in the middle and both outer edges.
        for k in (0..60).chain(200..300).chain(440..500) {
            assert!(t.remove(&Value::Int(k), k as u64));
        }
        let want: Vec<i64> = (60..200).chain(300..440).collect();
        let fwd: Vec<i64> = keys(&t, Direction::Forward)
            .into_iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(fwd, want);
        let mut bwd: Vec<i64> = keys(&t, Direction::Backward)
            .into_iter()
            .map(|e| e.0)
            .collect();
        bwd.reverse();
        assert_eq!(bwd, want);
        assert_eq!(t.first().unwrap().0, &Value::Int(60));
        assert_eq!(t.last().unwrap().0, &Value::Int(439));
        let range = ScanRange {
            lo: KeyBound::Included(Value::Int(150)),
            hi: KeyBound::Excluded(Value::Int(350)),
        };
        assert_eq!(t.count_range(&range), 100);
        let back: Vec<i64> = t
            .scan(&range, Direction::Backward)
            .map(|(k, _)| k.as_i64().unwrap())
            .collect();
        assert_eq!(back, (150..200).chain(300..350).rev().collect::<Vec<_>>());
    }
}
