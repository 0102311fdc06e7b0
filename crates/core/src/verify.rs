//! Executable statements of the paper's theorems: the full
//! construct → encode → decode pipeline with every intermediate claim
//! checked, plus the Theorem 7.5 counting argument.

use std::collections::HashSet;

use exclusion_cost::sc_cost;
use exclusion_shmem::Automaton;

use crate::construct::{construct, ConstructConfig};
use crate::decode::decode;
use crate::encode::{encode, Encoding};
use crate::error::{ConstructError, DecodeError};
use crate::perm::{log2_factorial, Permutation};

/// Everything measured by one run of the pipeline for one permutation.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// The permutation π.
    pub pi: Permutation,
    /// `C(α_π)`: the state-change cost shared by all linearizations.
    pub cost: usize,
    /// `|E_π|` in bits.
    pub bits: usize,
    /// Number of metasteps in `M`.
    pub metasteps: usize,
    /// Total process steps across all metasteps (= |α_π|).
    pub steps: usize,
}

impl PipelineReport {
    /// The encoding-efficiency ratio `|E_π| / C(α_π)` — the constant of
    /// Theorem 6.2, measured.
    #[must_use]
    pub fn bits_per_cost(&self) -> f64 {
        self.bits as f64 / self.cost as f64
    }
}

/// A failed pipeline check.
#[derive(Clone, Debug)]
pub enum PipelineError {
    /// The construction step failed (algorithm not livelock-free for π).
    Construct(ConstructError),
    /// The decoding step failed.
    Decode(DecodeError),
    /// A theorem's executable statement did not hold; the payload names
    /// it.
    TheoremViolated(&'static str),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Construct(e) => write!(f, "construction failed: {e}"),
            PipelineError::Decode(e) => write!(f, "decoding failed: {e}"),
            PipelineError::TheoremViolated(which) => write!(f, "check failed: {which}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ConstructError> for PipelineError {
    fn from(e: ConstructError) -> Self {
        PipelineError::Construct(e)
    }
}

impl From<DecodeError> for PipelineError {
    fn from(e: DecodeError) -> Self {
        PipelineError::Decode(e)
    }
}

/// Runs the full pipeline for one `(algorithm, π)` pair and verifies
/// every theorem along the way:
///
/// * the deterministic linearization of `(M, ≼)` is a canonical
///   execution of `alg` whose critical-section order is π (Theorem 5.5);
/// * `linearization_seeds` random linearizations replay correctly and
///   all have the same SC cost, equal to the metastep accounting
///   (Lemma 6.1);
/// * the encoding round-trips through its bit serialization;
/// * decoding the bits yields a linearization of `(M, ≼)` with
///   critical-section order π (Theorem 7.4).
///
/// # Errors
///
/// Returns the first failed step or violated check.
pub fn run_pipeline<A: Automaton>(
    alg: &A,
    pi: &Permutation,
    cfg: &ConstructConfig,
    linearization_seeds: u64,
) -> Result<PipelineReport, PipelineError> {
    let c = construct(alg, pi, cfg)?;
    let n = alg.processes();

    // Theorem 5.5 on the deterministic linearization.
    let lin = c.linearize();
    check(c.is_linearization(&lin), "Lin(M,≼) is a linearization")?;
    check(lin.is_canonical(n), "Thm 5.5: linearization is canonical")?;
    check(
        lin.critical_order() == pi.order(),
        "Thm 5.5: critical sections complete in order π",
    )?;

    // Lemma 6.1 across random linearizations, with replay validation.
    let base_cost = sc_cost(alg, &lin)
        .map_err(|_| PipelineError::TheoremViolated("linearization replays against δ"))?
        .total();
    check(
        base_cost == c.cost(),
        "Thm 6.2 accounting: C(α) equals the metastep cost sum",
    )?;
    for seed in 0..linearization_seeds {
        let rl = c.linearize_random(seed);
        check(c.is_linearization(&rl), "random Lin is a linearization")?;
        let cost = sc_cost(alg, &rl)
            .map_err(|_| PipelineError::TheoremViolated("random linearization replays against δ"))?
            .total();
        check(cost == base_cost, "Lemma 6.1: all linearizations cost C")?;
        check(
            rl.critical_order() == pi.order(),
            "Thm 5.5 on random linearizations",
        )?;
    }

    // Encoding: bit round-trip.
    let enc = encode(&c);
    let (bytes, bits) = enc.to_bits();
    let back = Encoding::from_bits(&bytes, bits, n)?;
    check(back == enc, "encoding round-trips through bits")?;

    // Theorem 7.4: decode produces a linearization; π is recovered.
    let alpha = decode(alg, &back)?;
    check(
        c.is_linearization(&alpha),
        "Thm 7.4: decode(E) is a linearization of (M,≼)",
    )?;
    check(
        alpha.critical_order() == pi.order(),
        "decode recovers the critical-section order π",
    )?;

    Ok(PipelineReport {
        pi: pi.clone(),
        cost: c.cost(),
        bits,
        metasteps: c.metasteps().len(),
        steps: c.total_steps(),
    })
}

fn check(ok: bool, name: &'static str) -> Result<(), PipelineError> {
    if ok {
        Ok(())
    } else {
        Err(PipelineError::TheoremViolated(name))
    }
}

/// The Theorem 7.5 counting argument, verified exhaustively: over **all**
/// n! permutations, the encodings are pairwise distinct, so the longest
/// (and even the average) must have at least `log₂ n!` bits — and by
/// Theorem 6.2, the worst-case cost is Ω(n log n).
#[derive(Clone, Debug)]
pub struct CountingReport {
    /// Number of processes.
    pub n: usize,
    /// `n!`, the number of pipelines run.
    pub permutations: u64,
    /// Whether all encodings were pairwise distinct.
    pub all_distinct: bool,
    /// Minimum `|E_π|` in bits.
    pub min_bits: usize,
    /// Mean `|E_π|` in bits.
    pub avg_bits: f64,
    /// Maximum `|E_π|` in bits.
    pub max_bits: usize,
    /// Minimum cost `C(α_π)`.
    pub min_cost: usize,
    /// Maximum cost `C(α_π)`.
    pub max_cost: usize,
    /// The information-theoretic floor `log₂ n!`.
    pub log2_nfact: f64,
}

impl CountingReport {
    /// Whether the counting argument holds: all distinct and the mean
    /// encoding length is at least `log₂ n!` bits (paper, footnote 10).
    #[must_use]
    pub fn holds(&self) -> bool {
        self.all_distinct && self.avg_bits >= self.log2_nfact
    }
}

/// Runs the full pipeline over **every** π ∈ Sₙ and checks the counting
/// argument. Exponential in `n`; intended for `n ≤ 6`.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn verify_counting<A: Automaton>(
    alg: &A,
    cfg: &ConstructConfig,
) -> Result<CountingReport, PipelineError> {
    let n = alg.processes();
    let mut seen: HashSet<(Vec<u8>, usize)> = HashSet::new();
    let mut all_distinct = true;
    let mut min_bits = usize::MAX;
    let mut max_bits = 0usize;
    let mut sum_bits = 0u64;
    let mut min_cost = usize::MAX;
    let mut max_cost = 0usize;
    let mut count = 0u64;
    for pi in Permutation::all(n) {
        let c = construct(alg, &pi, cfg)?;
        let enc = encode(&c);
        let bits = enc.to_bits();
        let len = bits.1;
        if !seen.insert(bits) {
            all_distinct = false;
        }
        min_bits = min_bits.min(len);
        max_bits = max_bits.max(len);
        sum_bits += len as u64;
        min_cost = min_cost.min(c.cost());
        max_cost = max_cost.max(c.cost());
        count += 1;
    }
    Ok(CountingReport {
        n,
        permutations: count,
        all_distinct,
        min_bits,
        avg_bits: sum_bits as f64 / count as f64,
        max_bits,
        min_cost,
        max_cost,
        log2_nfact: log2_factorial(n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, DekkerTournament};
    use exclusion_shmem::{Automaton, DynRef};

    #[test]
    fn pipeline_passes_for_the_whole_suite() {
        for r in AlgorithmRegistry::global().resolve_where(4, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 9, 23] {
                let pi = Permutation::unrank(4, rank);
                run_pipeline(&alg, &pi, &ConstructConfig::default(), 5)
                    .unwrap_or_else(|e| panic!("{} π#{rank}: {e}", alg.name()));
            }
        }
    }

    #[test]
    fn counting_argument_holds_for_dekker_n4() {
        let alg = DekkerTournament::new(4);
        let report = verify_counting(&alg, &ConstructConfig::default()).unwrap();
        assert_eq!(report.permutations, 24);
        assert!(report.all_distinct);
        assert!(report.holds(), "{report:?}");
        assert!(report.min_bits <= report.max_bits);
    }

    #[test]
    fn report_ratio_is_finite() {
        let alg = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let r = run_pipeline(&alg, &pi, &ConstructConfig::default(), 3).unwrap();
        let ratio = r.bits_per_cost();
        assert!(ratio > 0.0 && ratio < 10.0, "ratio {ratio}");
    }
}
