//! A minimal growable bitset: the visited set of [`Dag::le`]'s
//! reachability search. The construction's frontier does not use it;
//! that is one prefix length per process chain (see the module notes of
//! [`construct`](mod@crate::construct)).
//!
//! [`Dag::le`]: crate::Dag::le

/// A growable set of small integers backed by `u64` words.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        BitSet::default()
    }

    /// An empty set with capacity for values below `n`.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Inserts `i`; returns whether it was newly inserted.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1 << b) == 0;
        if fresh {
            self.words[w] |= 1 << b;
            self.len += 1;
        }
        fresh
    }

    /// Whether `i` is in the set.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(s.contains(5));
        assert!(s.contains(64));
        assert!(s.contains(1000));
        assert!(!s.contains(6));
        assert!(!s.contains(10_000));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn iter_in_order() {
        let s: BitSet = [100, 3, 64, 63].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![3, 63, 64, 100]);
    }

    #[test]
    fn empty_set() {
        let s = BitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut s = BitSet::with_capacity(128);
        assert!(s.is_empty());
        s.insert(127);
        assert!(s.contains(127));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            /// The bitset agrees with a reference `BTreeSet` under any
            /// insertion sequence.
            #[test]
            fn behaves_like_a_set(values in prop::collection::vec(0usize..2048, 0..200)) {
                let mut bs = BitSet::new();
                let mut reference = BTreeSet::new();
                for v in values {
                    prop_assert_eq!(bs.insert(v), reference.insert(v));
                }
                prop_assert_eq!(bs.len(), reference.len());
                let iterated: Vec<usize> = bs.iter().collect();
                let expected: Vec<usize> = reference.iter().copied().collect();
                prop_assert_eq!(iterated, expected);
                for probe in [0usize, 1, 63, 64, 1000, 2047, 4096] {
                    prop_assert_eq!(bs.contains(probe), reference.contains(&probe));
                }
            }
        }
    }
}
