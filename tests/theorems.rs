//! Integration: property-based checks of the paper's theorems over
//! random (algorithm, permutation, seed) triples.

use exclusion::cost::sc_cost;
use exclusion::lb::{construct, encode, run_pipeline, ConstructConfig, Permutation};
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, ResolvedAlgorithm};
use exclusion::shmem::{Automaton, DynRef};
use proptest::prelude::*;

/// The paper's locks (registry entries that are register-only,
/// deadlock-free and not crash-recoverable) at `n` processes, in
/// report order.
fn paper_locks(n: usize) -> Vec<ResolvedAlgorithm> {
    AlgorithmRegistry::global().resolve_where(n, AlgorithmInfo::paper_lock)
}

fn small_perm(n: usize, raw: u64) -> Permutation {
    Permutation::unrank(n, raw % exclusion::lb::factorial(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full pipeline (Thm 5.5, Lemma 6.1, Thm 6.2 accounting,
    /// Thm 7.4) holds for arbitrary small instances.
    #[test]
    fn pipeline_holds(
        n in 2usize..=6,
        alg_idx in 0usize..6,
        raw in any::<u64>(),
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let pi = small_perm(n, raw);
        run_pipeline(&alg, &pi, &ConstructConfig::default(), 3)
            .map_err(|e| TestCaseError::fail(format!("{} {pi}: {e}", alg.name())))?;
    }

    /// Lemma 6.1 in isolation, with many more linearizations: every
    /// random linear extension of (M, ≼) has the same SC cost.
    #[test]
    fn linearization_costs_agree(
        n in 2usize..=5,
        alg_idx in 0usize..6,
        raw in any::<u64>(),
        seeds in prop::collection::vec(any::<u64>(), 4),
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let pi = small_perm(n, raw);
        let c = construct(&alg, &pi, &ConstructConfig::default()).expect("construct");
        let expected = c.cost();
        for seed in seeds {
            let lin = c.linearize_random(seed);
            let cost = sc_cost(&alg, &lin).expect("replay").total();
            prop_assert_eq!(cost, expected);
        }
    }

    /// Theorem 6.2 with an explicit constant: |E_π| ≤ 8·C + 16n bits.
    /// (The O(n) additive term covers the critical-step cells — four
    /// 3-bit cells per process plus the column terminator — which the
    /// SC model prices at zero.)
    #[test]
    fn encoding_is_linear_in_cost(
        n in 2usize..=6,
        alg_idx in 0usize..6,
        raw in any::<u64>(),
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let pi = small_perm(n, raw);
        let c = construct(&alg, &pi, &ConstructConfig::default()).expect("construct");
        let bits = encode(&c).bit_len();
        prop_assert!(bits <= 8 * c.cost() + 16 * n);
    }

    /// The construction is deterministic: same (algorithm, π) — same
    /// metasteps, same cost, same encoding.
    #[test]
    fn construction_is_deterministic(
        n in 2usize..=5,
        alg_idx in 0usize..6,
        raw in any::<u64>(),
    ) {
        let r = paper_locks(n).remove(alg_idx);
        let alg = DynRef(r.automaton.as_ref());
        let pi = small_perm(n, raw);
        let a = construct(&alg, &pi, &ConstructConfig::default()).expect("construct");
        let b = construct(&alg, &pi, &ConstructConfig::default()).expect("construct");
        prop_assert_eq!(a.cost(), b.cost());
        prop_assert_eq!(a.metasteps().len(), b.metasteps().len());
        prop_assert_eq!(encode(&a).to_bits(), encode(&b).to_bits());
    }
}

/// Lemma 5.4, directly: for every stage prefix k, the first k processes
/// of π take *exactly the same steps* in the k-stage construction
/// `(M_k, ≼_k)` as in the full `(M_n, ≼_n)` — later processes are
/// invisible to them.
#[test]
fn stage_prefixes_preserve_projections() {
    use exclusion::lb::construct_stages;
    for r in paper_locks(5) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(5, 101);
        let full = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for k in 1..5 {
            let prefix = construct_stages(&alg, &pi.order()[..k], &ConstructConfig::default())
                .unwrap_or_else(|e| panic!("{} k={k}: {e}", alg.name()));
            for &p in &pi.order()[..k] {
                let full_steps: Vec<_> = full
                    .chain(p)
                    .iter()
                    .map(|&m| *full.metastep(m).step_of(p).expect("p owns a step"))
                    .collect();
                let prefix_steps: Vec<_> = prefix
                    .chain(p)
                    .iter()
                    .map(|&m| *prefix.metastep(m).step_of(p).expect("p owns a step"))
                    .collect();
                assert_eq!(
                    full_steps,
                    prefix_steps,
                    "{}: projection of {p} differs between (M_{k}) and (M_5)",
                    alg.name()
                );
            }
            // And the prefix construction's linearizations are canonical
            // for exactly the k participating processes.
            let lin = prefix.linearize();
            assert_eq!(lin.critical_order(), &pi.order()[..k], "{}", alg.name());
        }
    }
}

/// Theorem 5.5's visibility corollary, tested directly: the projection
/// of a lower-indexed (earlier-in-π) process is identical whether or
/// not higher-indexed processes are in the system (Lemma 5.4).
#[test]
fn earlier_processes_cannot_see_later_ones() {
    use exclusion::shmem::Step;
    let n = 5;
    for r in paper_locks(n) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(n, 77);
        let full = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let alpha_full = full.linearize();
        // Directly check Lemma 5.4's consequence on the full build: the
        // projection of π_1 contains no value written by later
        // processes' winning writes... its reads were all routed to
        // earlier writes. The first process in π reads only initial or
        // its own values:
        let first = pi.order()[0];
        let mut firsts_reads = Vec::new();
        for m in full.metasteps() {
            for r in m.reads() {
                if r.pid() == first {
                    firsts_reads.push(m.winner().map(Step::pid));
                }
            }
        }
        for winner in firsts_reads {
            // π_1 never reads a value written by any other process: it
            // runs "alone" in its own view.
            assert!(
                winner.is_none() || winner == Some(first),
                "{}: π_1 saw {winner:?}",
                alg.name()
            );
        }
        assert_eq!(alpha_full.critical_order(), pi.order());
    }
}
