//! A fixed-capacity bitset used for pebbling states and graph algorithms.
//!
//! Pebbling solvers hash millions of states, so the representation is kept
//! as lean as possible: a boxed slice of `u64` words with no stored length
//! beyond the word count. All operations are branch-light and allocation-free
//! after construction.

use std::fmt;

/// Number of bits per storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `capacity` bits (at least one, so
/// empty universes still have a valid word row).
///
/// This is the shared sizing rule for every packed-word representation in
/// the workspace: [`BitSet`], the [`Dag`](crate::Dag) adjacency masks, and
/// the exact solver's state keys all agree on it, which lets them combine
/// word rows with plain `AND`/`ANDN` loops.
#[inline]
pub const fn words_for(capacity: usize) -> usize {
    let w = capacity.div_ceil(WORD_BITS);
    if w == 0 {
        1
    } else {
        w
    }
}

/// A fixed-capacity set of `usize` indices backed by `u64` words.
///
/// Capacity is fixed at construction; indices must be `< capacity`.
/// Two bitsets are equal iff they have the same words (the capacity is
/// intentionally not part of equality so that sets from equally-sized
/// universes compare cheaply).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Box<[u64]>,
}

impl BitSet {
    /// Creates an empty set with room for `capacity` indices.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0u64; words_for(capacity)].into_boxed_slice(),
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.insert(i);
        }
        s
    }

    /// Creates a set from an iterator of indices, sized to `capacity`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, iter: I) -> Self {
        let mut s = Self::new(capacity);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Inserts `index`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let mask = 1u64 << b;
        let had = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !had
    }

    /// Removes `index`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        let mask = 1u64 << b;
        let had = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        had
    }

    /// Tests membership.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        let (w, b) = (index / WORD_BITS, index % WORD_BITS);
        self.words[w] & (1u64 << b) != 0
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// `self ∪= other`. Panics if word counts differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.words.len(), other.words.len(), "bitset size mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// `self ∩= other`. Panics if word counts differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.words.len(), other.words.len(), "bitset size mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= b;
        }
    }

    /// `self \= other`. Panics if word counts differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.words.len(), other.words.len(), "bitset size mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Whether `self` and `other` share no element.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Size of `self ∩ other` without materializing it.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterates over the contained indices in increasing order.
    pub fn iter(&self) -> BitSetIter<'_> {
        BitSetIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Raw words, little-endian bit order; used by state hashing.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a bitset sized to the maximum index seen.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let cap = indices.iter().copied().max().map_or(0, |m| m + 1);
        Self::from_indices(cap, indices)
    }
}

/// Iterator over set bits, produced by [`BitSet::iter`].
pub struct BitSetIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = BitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert!(!s.contains(99));
    }

    #[test]
    fn insert_and_remove_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 4);
        assert!(s.contains(129));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = BitSet::from_indices(200, [5, 199, 0, 64, 63]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn full_contains_everything_below_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70), "bits beyond capacity stay clear");
    }

    #[test]
    fn union_intersect_difference() {
        let a0 = BitSet::from_indices(10, [1, 2, 3]);
        let b = BitSet::from_indices(10, [3, 4]);

        let mut u = a0.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);

        let mut i = a0.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);

        let mut d = a0.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn subset_and_disjoint_relations() {
        let a = BitSet::from_indices(100, [10, 20]);
        let b = BitSet::from_indices(100, [10, 20, 30]);
        let c = BitSet::from_indices(100, [40]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.intersection_len(&c), 0);
    }

    #[test]
    fn equality_and_hash_follow_content() {
        use std::collections::HashSet;
        let a = BitSet::from_indices(64, [1, 2]);
        let mut b = BitSet::new(64);
        b.insert(2);
        b.insert(1);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn clear_resets() {
        let mut s = BitSet::from_indices(10, [0, 9]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn words_for_rounds_up_and_never_returns_zero() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [3usize, 7, 1].into_iter().collect();
        assert!(s.contains(7));
        assert_eq!(s.len(), 3);
    }
}
