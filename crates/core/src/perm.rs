//! Permutations π ∈ Sₙ: the input of the construction step.
//!
//! The paper fixes a permutation `π = (π₁, …, πₙ)` and builds an
//! execution in which process `p_{π₁}` enters the critical section first,
//! then `p_{π₂}`, and so on. [`Permutation`] stores exactly that order.

use exclusion_shmem::ProcessId;
use rand::seq::SliceRandom;
use rand::Rng;

/// A permutation of the `n` processes, in critical-section entry order.
///
/// # Example
///
/// ```
/// use exclusion_lb::Permutation;
/// let pi = Permutation::identity(3);
/// assert_eq!(pi.len(), 3);
/// assert_eq!(pi.rank(), Some(0));
/// let rev = Permutation::reversed(3);
/// assert_eq!(rev.rank(), Some(5)); // the last of the 3! = 6 permutations
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Permutation {
    order: Vec<ProcessId>,
}

impl Permutation {
    /// The identity permutation `(p₀, p₁, …)`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Permutation {
            order: ProcessId::all(n).collect(),
        }
    }

    /// The reversed permutation `(pₙ₋₁, …, p₀)`.
    #[must_use]
    pub fn reversed(n: usize) -> Self {
        Permutation {
            order: (0..n).rev().map(ProcessId::new).collect(),
        }
    }

    /// A permutation from an explicit process order.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..n`.
    #[must_use]
    pub fn from_order(order: Vec<ProcessId>) -> Self {
        let n = order.len();
        let mut seen = vec![false; n];
        for p in &order {
            assert!(p.index() < n, "{p} out of range");
            assert!(!seen[p.index()], "{p} appears twice");
            seen[p.index()] = true;
        }
        Permutation { order }
    }

    /// A uniformly random permutation drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut order: Vec<ProcessId> = ProcessId::all(n).collect();
        order.shuffle(rng);
        Permutation { order }
    }

    /// The permutation of rank `k` (0-based) in lexicographic order —
    /// the inverse of [`rank`](Permutation::rank). Every `u64` is a
    /// valid rank for `n > 20`, where `n!` exceeds `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ n!` (for `n ≤ 20`).
    #[must_use]
    pub fn unrank(n: usize, mut k: u64) -> Self {
        if let Some(total) = checked_factorial(n) {
            assert!(k < total, "rank {k} out of range for n = {n}");
        }
        let mut pool: Vec<ProcessId> = ProcessId::all(n).collect();
        let mut order = Vec::with_capacity(n);
        for i in (0..n).rev() {
            // An `i!` past `u64::MAX` exceeds every rank: its digit is 0.
            let idx = checked_factorial(i).map_or(0, |f| {
                let digit = k / f;
                k %= f;
                digit as usize
            });
            order.push(pool.remove(idx));
        }
        Permutation { order }
    }

    /// The lexicographic rank of this permutation in `0..n!`, or `None`
    /// when it does not fit in a `u64` (only possible for `n > 20`).
    #[must_use]
    pub fn rank(&self) -> Option<u64> {
        let n = self.order.len();
        let mut pool: Vec<usize> = (0..n).collect();
        let mut rank = 0u64;
        for (i, p) in self.order.iter().enumerate() {
            let idx = pool.iter().position(|&x| x == p.index()).expect("member");
            pool.remove(idx);
            if idx > 0 {
                let digit = checked_factorial(n - 1 - i)?.checked_mul(idx as u64)?;
                rank = rank.checked_add(digit)?;
            }
        }
        Some(rank)
    }

    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the permutation is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The processes in critical-section entry order.
    #[must_use]
    pub fn order(&self) -> &[ProcessId] {
        &self.order
    }

    /// The `i`-th process to enter the critical section (`π_{i+1}` in the
    /// paper's 1-based notation).
    #[must_use]
    pub fn at(&self, i: usize) -> ProcessId {
        self.order[i]
    }

    /// Iterates over all `n!` permutations in lexicographic order.
    ///
    /// Intended for exhaustive experiments with small `n` (the paper's
    /// counting argument); `n ≤ 10` keeps this tractable.
    pub fn all(n: usize) -> impl Iterator<Item = Permutation> {
        (0..factorial(n)).map(move |k| Permutation::unrank(n, k))
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, p) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", p.index())?;
        }
        write!(f, ")")
    }
}

/// `n!` as a `u64`.
///
/// # Panics
///
/// Panics if `n > 20` (overflow).
#[must_use]
pub fn factorial(n: usize) -> u64 {
    checked_factorial(n).expect("n! overflows u64 for n > 20")
}

/// `n!` as a `u64`, or `None` past `u64::MAX` (`n > 20`).
fn checked_factorial(n: usize) -> Option<u64> {
    (1..=n as u64).try_fold(1u64, u64::checked_mul)
}

/// `log₂(n!)` in bits — the information-theoretic minimum size of a
/// string identifying one of the `n!` canonical executions, and hence
/// (Theorem 7.5) the lower bound on the cost of the worst one.
#[must_use]
pub fn log2_factorial(n: usize) -> f64 {
    (2..=n).map(|k| (k as f64).log2()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn identity_and_reversed() {
        let id = Permutation::identity(4);
        assert_eq!(
            id.order().iter().map(|p| p.index()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        let rev = Permutation::reversed(4);
        assert_eq!(
            rev.order().iter().map(|p| p.index()).collect::<Vec<_>>(),
            [3, 2, 1, 0]
        );
    }

    #[test]
    fn rank_unrank_roundtrip() {
        for n in 1..=5 {
            for k in 0..factorial(n) {
                let p = Permutation::unrank(n, k);
                assert_eq!(p.rank(), Some(k), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    fn unrank_accepts_every_u64_rank_past_n_20() {
        for n in [21, 64, 256] {
            for k in [0, 1, u64::MAX] {
                let p = Permutation::unrank(n, k);
                assert_eq!(p.len(), n);
                let _ = Permutation::from_order(p.order().to_vec());
                assert_eq!(p.rank(), Some(k), "n = {n}, k = {k}");
            }
            // Rank 1 swaps the last two processes.
            let one = Permutation::unrank(n, 1);
            assert_eq!(one.at(n - 2).index(), n - 1);
            assert_eq!(one.at(n - 1).index(), n - 2);
            // The last permutation's rank n! - 1 does not fit in a u64.
            assert_eq!(Permutation::reversed(n).rank(), None);
        }
        let last = factorial(20) - 1;
        assert_eq!(Permutation::unrank(20, last), Permutation::reversed(20));
        assert_eq!(Permutation::reversed(20).rank(), Some(last));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unrank_rejects_ranks_past_n_factorial() {
        let _ = Permutation::unrank(20, factorial(20));
    }

    #[test]
    fn all_enumerates_n_factorial_distinct() {
        let perms: HashSet<_> = Permutation::all(4).collect();
        assert_eq!(perms.len(), 24);
    }

    #[test]
    fn random_is_reproducible_and_valid() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        let pa = Permutation::random(10, &mut a);
        let pb = Permutation::random(10, &mut b);
        assert_eq!(pa, pb);
        // validity: from_order does not panic
        let _ = Permutation::from_order(pa.order().to_vec());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn from_order_rejects_duplicates() {
        let p = ProcessId::new(0);
        let _ = Permutation::from_order(vec![p, p]);
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial(0), 1);
        assert_eq!(factorial(5), 120);
        assert_eq!(factorial(10), 3_628_800);
    }

    #[test]
    fn log2_factorial_matches_direct_computation() {
        let expected = (120f64).log2();
        assert!((log2_factorial(5) - expected).abs() < 1e-9);
        assert_eq!(log2_factorial(1), 0.0);
        // Stirling sanity: log2(64!) ≈ 296.
        assert!((log2_factorial(64) - 296.0).abs() < 1.0);
    }

    #[test]
    fn display_form() {
        assert_eq!(Permutation::identity(3).to_string(), "(0 1 2)");
    }
}
