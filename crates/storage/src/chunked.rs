//! A vector of fixed-size chunks whose clones share every sealed chunk.
//!
//! [`ChunkedVec`] is the storage behind the table heap and the graph
//! store's node and string stores. Elements live in chunks of
//! [`CHUNK_LEN`]. Full chunks are *sealed*: each sits behind an `Arc`, in
//! a spine that is itself behind an `Arc`. Only the last, partial chunk
//! (the *tail*) takes writes. A clone — a published snapshot — bumps two
//! refcounts and shares everything with the master. The first push after
//! a clone copies the tail (`Arc::make_mut`, at most `CHUNK_LEN - 1`
//! elements); the push that fills the tail seals it into the spine,
//! copying the spine's chunk pointers (not the chunks) when a clone still
//! shares it — once per [`CHUNK_LEN`] pushes. That makes snapshot
//! publication O(delta) instead of O(table).
//!
//! Element `i` lives at chunk `i / CHUNK_LEN`, offset `i % CHUNK_LEN`, and
//! iteration visits chunks in order, so iteration order is index order —
//! exactly that of a flat `Vec`.

use std::ops::Index;
use std::sync::Arc;

/// Elements per chunk. The first push after a clone copies up to one
/// chunk of elements, and sealing a chunk copies the spine's
/// `len / CHUNK_LEN` pointers. Measured single-row insert p50 (SQL store,
/// 20k resident Wisconsin rows) was 0.26 / 0.23 / 0.32 / 0.42 / 0.67 ms
/// at 8 / 16 / 32 / 64 / 128, and flat from 1k to 100k rows at each.
/// Shorter chunks stop paying off below 16 while seals grow more
/// frequent.
pub const CHUNK_LEN: usize = 16;

/// An append-mostly vector whose clones share every chunk they have not
/// written to. See the module docs.
#[derive(Debug)]
pub struct ChunkedVec<T> {
    /// Full chunks, each exactly [`CHUNK_LEN`] elements.
    sealed: Arc<Vec<Arc<Vec<T>>>>,
    /// The partial last chunk: fewer than [`CHUNK_LEN`] elements.
    tail: Arc<Vec<T>>,
}

impl<T> Clone for ChunkedVec<T> {
    /// Shares everything: two refcount bumps, no element is copied.
    fn clone(&self) -> Self {
        ChunkedVec {
            sealed: Arc::clone(&self.sealed),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec {
            sealed: Arc::new(Vec::new()),
            tail: Arc::new(Vec::new()),
        }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// An empty vector.
    pub fn new() -> ChunkedVec<T> {
        ChunkedVec::default()
    }

    /// An empty vector whose spine has room for `n` elements.
    pub fn with_capacity(n: usize) -> ChunkedVec<T> {
        ChunkedVec {
            sealed: Arc::new(Vec::with_capacity(n / CHUNK_LEN)),
            tail: Arc::new(Vec::new()),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_LEN + self.tail.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an element. Copies the tail first when a clone still shares
    /// it; a tail this push fills is sealed into the spine.
    pub fn push(&mut self, value: T) {
        let tail = Arc::make_mut(&mut self.tail);
        tail.push(value);
        if tail.len() == CHUNK_LEN {
            let full = std::mem::replace(&mut self.tail, Arc::new(Vec::with_capacity(CHUNK_LEN)));
            Arc::make_mut(&mut self.sealed).push(full);
        }
    }

    /// The chunk with index `n`: a sealed one, or the tail past them.
    #[inline]
    fn chunk(&self, n: usize) -> &[T] {
        match self.sealed.get(n) {
            Some(chunk) => chunk,
            None => &self.tail,
        }
    }

    /// The element at `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        match self.sealed.get(i / CHUNK_LEN) {
            Some(chunk) => chunk.get(i % CHUNK_LEN),
            None => self.tail.get(i - self.sealed.len() * CHUNK_LEN),
        }
    }

    /// Mutable access to the element at `i`, copying its chunk (and, for
    /// a sealed chunk, the spine) first when a clone still shares it.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let sealed_len = self.sealed.len() * CHUNK_LEN;
        if i < sealed_len {
            let chunk = &mut Arc::make_mut(&mut self.sealed)[i / CHUNK_LEN];
            Arc::make_mut(chunk).get_mut(i % CHUNK_LEN)
        } else {
            Arc::make_mut(&mut self.tail).get_mut(i - sealed_len)
        }
    }

    /// All elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.range(0, self.len())
    }

    /// The elements with index in the half-open range `[lo, hi)`, in
    /// index order. Out-of-range bounds clamp to `len()`.
    pub fn range(&self, lo: usize, hi: usize) -> impl Iterator<Item = &T> {
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        (lo / CHUNK_LEN..hi.div_ceil(CHUNK_LEN)).flat_map(move |n| {
            let base = n * CHUNK_LEN;
            let chunk = self.chunk(n);
            chunk[lo.saturating_sub(base)..(hi - base).min(chunk.len())].iter()
        })
    }
}

impl<T: Clone> Index<usize> for ChunkedVec<T> {
    type Output = T;

    /// Panics when `i` is out of range, like slice indexing.
    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(value) => value,
            None => panic!("index {i} out of range for length {}", self.len()),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn filled(n: usize) -> ChunkedVec<String> {
        let mut v = ChunkedVec::new();
        for i in 0..n {
            v.push(i.to_string());
        }
        v
    }

    #[test]
    fn behaves_like_a_vec() {
        let n = 3 * CHUNK_LEN + 5;
        let v = filled(n);
        let flat: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        assert_eq!(v.len(), n);
        assert!(!v.is_empty());
        assert!(v.iter().eq(flat.iter()));
        assert_eq!(v[CHUNK_LEN], flat[CHUNK_LEN]);
        assert_eq!(v.get(n - 1), flat.last());
        assert_eq!(v.get(n), None);
        let empty: ChunkedVec<String> = ChunkedVec::new();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.iter().count(), 0);
        assert_eq!(empty.range(0, 10).count(), 0);
    }

    #[test]
    fn ranges_match_slices_and_clamp() {
        let n = 2 * CHUNK_LEN + 7;
        let v = filled(n);
        let flat: Vec<String> = (0..n).map(|i| i.to_string()).collect();
        for lo in [0, 1, CHUNK_LEN - 1, CHUNK_LEN, CHUNK_LEN + 3, n - 1, n] {
            for hi in [lo, lo + 1, CHUNK_LEN, 2 * CHUNK_LEN, n, n + 50] {
                let want: Vec<&String> = flat[lo.min(n)..hi.min(n).max(lo.min(n))].iter().collect();
                let got: Vec<&String> = v.range(lo, hi).collect();
                assert_eq!(got, want, "range({lo}, {hi})");
            }
        }
        assert_eq!(v.range(n + 9, 3).count(), 0);
    }

    #[test]
    fn get_mut_writes_one_element() {
        let mut v = filled(CHUNK_LEN + 2);
        *v.get_mut(CHUNK_LEN + 1).unwrap() = "x".to_string();
        assert_eq!(v[CHUNK_LEN + 1], "x");
        assert!(v.get_mut(CHUNK_LEN + 2).is_none());
        assert!(v.get_mut(10 * CHUNK_LEN).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_past_the_end_panics() {
        let v = filled(CHUNK_LEN + 3);
        let _ = &v[5 * CHUNK_LEN + 1];
    }

    #[test]
    fn clone_shares_everything() {
        let v = filled(4 * CHUNK_LEN + 9);
        let c = v.clone();
        assert_eq!(v.sealed.len(), 4);
        assert!(Arc::ptr_eq(&v.sealed, &c.sealed));
        assert!(Arc::ptr_eq(&v.tail, &c.tail));
        assert_eq!(Arc::strong_count(&v.sealed), 2);
        assert_eq!(Arc::strong_count(&v.tail), 2);
        for chunk in v.sealed.iter() {
            assert_eq!(
                Arc::strong_count(chunk),
                1,
                "held once, by the shared spine"
            );
        }
    }

    #[test]
    fn push_after_clone_copies_only_the_tail() {
        let mut v = filled(4 * CHUNK_LEN + 9);
        let pinned = v.clone();
        v.push("new".to_string());
        // The spine, and with it every sealed chunk, is still shared; the
        // partial tail was copied once and the pinned clone keeps its own.
        assert!(Arc::ptr_eq(&v.sealed, &pinned.sealed));
        assert!(!Arc::ptr_eq(&v.tail, &pinned.tail));
        assert_eq!(Arc::strong_count(&v.tail), 1);
        assert_eq!(pinned.len(), 4 * CHUNK_LEN + 9);
        assert_eq!(v.len(), 4 * CHUNK_LEN + 10);
        assert_eq!(v[4 * CHUNK_LEN + 9], "new");
        assert!(v.iter().take(pinned.len()).eq(pinned.iter()));
    }

    #[test]
    fn sealing_after_clone_copies_spine_pointers_not_chunks() {
        let mut v = filled(3 * CHUNK_LEN - 1);
        let pinned = v.clone();
        v.push("fills the tail".to_string());
        assert_eq!(v.sealed.len(), 3);
        assert!(v.tail.is_empty());
        assert_eq!(pinned.sealed.len(), 2);
        for (a, b) in v.sealed.iter().zip(pinned.sealed.iter()) {
            assert!(Arc::ptr_eq(a, b));
            assert_eq!(Arc::strong_count(a), 2);
        }
        assert_eq!(pinned.len(), 3 * CHUNK_LEN - 1);
        assert!(v.iter().take(pinned.len()).eq(pinned.iter()));
        // The next push starts a fresh tail; nothing is shared to copy.
        v.push("next".to_string());
        assert_eq!(v.len(), 3 * CHUNK_LEN + 1);
    }

    #[test]
    fn get_mut_after_clone_copies_only_its_chunk() {
        let mut v = filled(3 * CHUNK_LEN + 1);
        let pinned = v.clone();
        *v.get_mut(3 * CHUNK_LEN).unwrap() = "tail".to_string();
        assert!(
            Arc::ptr_eq(&v.sealed, &pinned.sealed),
            "a tail write leaves the spine shared"
        );
        *v.get_mut(CHUNK_LEN).unwrap() = "changed".to_string();
        assert!(Arc::ptr_eq(&v.sealed[0], &pinned.sealed[0]));
        assert!(!Arc::ptr_eq(&v.sealed[1], &pinned.sealed[1]));
        assert!(Arc::ptr_eq(&v.sealed[2], &pinned.sealed[2]));
        assert_eq!(pinned[CHUNK_LEN], CHUNK_LEN.to_string());
        assert_eq!(pinned[3 * CHUNK_LEN], (3 * CHUNK_LEN).to_string());
        assert_eq!(v[CHUNK_LEN], "changed");
        assert_eq!(v[3 * CHUNK_LEN], "tail");
    }
}
