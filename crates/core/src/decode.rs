//! The decoding step — procedure `Decode` of the paper's Figure 3.
//!
//! The decoder reconstructs a linearization of `(M, ≼)` from the cell
//! table `E_π` and the algorithm's transition function δ alone — it does
//! **not** know the permutation π. It maintains one pending step per
//! parked process, per-register pending reader/writer pools, the
//! signature slot of the register's minimal unexecuted write metastep,
//! and a preread counter; a write metastep *fires* when the pools match
//! its signature exactly (writes first, the winner last among them, then
//! the reads — a legal `Seq` expansion).
//!
//! Two deviations from the figure:
//!
//! 1. Readers that arrive before their register's signature are parked
//!    and re-examined whenever the signature changes. The figure's line
//!    19 classifies a reader against the signature on arrival, which
//!    assumes the signature is already there; but the winner carrying
//!    it may be a later column, or reach its cell in a later round. A
//!    parked reader joins the metastep iff the winner's value changes
//!    its state (Lemma 5.9), checked when the metastep is about to fire.
//! 2. The preread counter is compared with `≥` and decremented by the
//!    signature's count on firing, not reset. Prereads execute at once,
//!    as read metasteps, so those of a later write metastep on the same
//!    register can run before the earlier one fires. A reset would drop
//!    them from the later metastep's count.
//!
//! Each round is driven from two worklists. Phase 1 visits only the
//! unparked processes, in index order. Phase 2 looks only at the
//! registers phase 1 touched, in index order. That fires the same
//! metasteps in the same order as rescanning every register: whether a
//! register fires depends only on its pools, its signature and its
//! preread count, which only phase 1 changes, and on the states of its
//! parked readers, which are frozen while they are parked. A register
//! that did not fire when last examined therefore cannot fire until
//! phase 1 touches it again.

use exclusion_shmem::{
    Automaton, CritKind, Execution, NextStep, Observation, ProcessId, RegisterId, Step, Value,
};

use crate::encode::{Cell, Encoding};
use crate::error::DecodeError;

#[derive(Clone, Copy, Debug)]
struct Signature {
    winner: ProcessId,
    r: usize,
    w: usize,
    pr: usize,
}

/// Runs `Decode(E)` (Figure 3): reconstructs a linearization of the
/// construction that produced `enc`.
///
/// # Errors
///
/// Returns [`DecodeError`] if `enc` is not an encoding of a construction
/// of `alg` (cells diverge from δ, or the pools never complete a
/// signature).
///
/// # Example
///
/// ```
/// use exclusion_lb::{construct, decode, encode, ConstructConfig, Permutation};
/// use exclusion_mutex::DekkerTournament;
///
/// let alg = DekkerTournament::new(3);
/// let pi = Permutation::reversed(3);
/// let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
/// let alpha = decode(&alg, &encode(&c)).unwrap();
/// // Theorem 7.4: the decoded execution is a linearization of (M, ≼) —
/// // in particular the critical-section order is π, though the decoder
/// // never saw π.
/// assert!(c.is_linearization(&alpha));
/// assert_eq!(alpha.critical_order(), pi.order());
/// ```
pub fn decode<A: Automaton>(alg: &A, enc: &Encoding) -> Result<Execution, DecodeError> {
    let n = alg.processes();
    assert_eq!(enc.processes(), n, "encoding size must match the algorithm");
    let regs_n = alg.registers();

    let mut exec: Vec<Step> = Vec::new();
    let mut states: Vec<A::State> = ProcessId::all(n).map(|p| alg.initial_state(p)).collect();
    let mut regs: Vec<Value> = RegisterId::all(regs_n)
        .map(|r| alg.initial_value(r))
        .collect();
    let mut pc = vec![0usize; n];
    // Pending shared-memory step of each parked process.
    let mut pending: Vec<Option<NextStep>> = vec![None; n];

    let mut sig: Vec<Option<Signature>> = vec![None; regs_n];
    let mut writers: Vec<Vec<ProcessId>> = vec![Vec::new(); regs_n];
    let mut readers: Vec<Vec<ProcessId>> = vec![Vec::new(); regs_n];
    let mut pr_count = vec![0usize; regs_n];

    // Phase 1's worklist: the unparked, unfinished processes in index
    // order. Phase 2's: the registers phase 1 touched this round.
    let mut active: Vec<ProcessId> = ProcessId::all(n).collect();
    let mut next_active: Vec<ProcessId> = Vec::with_capacity(n);
    let mut touched: Vec<usize> = Vec::new();
    let mut finished = 0;

    let mismatch =
        |pid: ProcessId, row: usize, detail: String| DecodeError::CellMismatch { pid, row, detail };

    loop {
        let mut progress = !active.is_empty();

        // Phase 1 (Figure 3, lines 6–37): consume one cell per unparked
        // process, computing its pending step from δ.
        for &pid in &active {
            let i = pid.index();
            let column = enc.column(pid);
            if pc[i] >= column.len() {
                finished += 1;
                continue;
            }
            let row = pc[i];
            let cell = column[row];
            pc[i] += 1;
            let next = alg.next_step(pid, &states[i]);
            let parked_on = match (cell, next) {
                (Cell::Crit, NextStep::Crit(kind)) => {
                    exec.push(Step::crit(pid, kind));
                    alg.observe_in_place(pid, &mut states[i], Observation::Crit);
                    if kind == CritKind::Rem && pc[i] >= column.len() {
                        finished += 1;
                        continue;
                    }
                    None
                }
                (Cell::SoloRead | Cell::Preread, NextStep::Read(reg)) => {
                    // Read metasteps execute immediately; prereads also
                    // count towards their write metastep's gate.
                    let v = regs[reg.index()];
                    exec.push(Step::read(pid, reg));
                    alg.observe_in_place(pid, &mut states[i], Observation::Read(v));
                    if cell == Cell::Preread {
                        pr_count[reg.index()] += 1;
                        touched.push(reg.index());
                    }
                    None
                }
                (Cell::Read, NextStep::Read(reg)) => {
                    readers[reg.index()].push(pid);
                    Some(reg)
                }
                (Cell::Write, NextStep::Write(reg, _)) => {
                    writers[reg.index()].push(pid);
                    Some(reg)
                }
                (Cell::Winner { pr, r, w }, NextStep::Write(reg, _)) => {
                    writers[reg.index()].push(pid);
                    sig[reg.index()] = Some(Signature {
                        winner: pid,
                        r: r as usize,
                        w: w as usize,
                        pr: pr as usize,
                    });
                    Some(reg)
                }
                (cell, next) => {
                    return Err(mismatch(
                        pid,
                        row,
                        format!("cell {cell:?} but δ produces {next:?}"),
                    ));
                }
            };
            match parked_on {
                Some(reg) => {
                    pending[i] = Some(next);
                    touched.push(reg.index());
                }
                None => next_active.push(pid),
            }
        }

        // Phase 2 (lines 38–45): fire write metasteps whose pools match
        // their signature.
        touched.sort_unstable();
        touched.dedup();
        for reg in touched.drain(..) {
            let Some(s) = sig[reg] else { continue };
            let Some(NextStep::Write(_, v_win)) = pending[s.winner.index()] else {
                return Err(DecodeError::Stalled {
                    decoded_steps: exec.len(),
                });
            };
            // Classify pending readers against the winner's value: a
            // reader belongs to this metastep iff the value changes its
            // state (Lemma 5.9).
            let in_group: Vec<ProcessId> = readers[reg]
                .iter()
                .copied()
                .filter(|&p| alg.observe_changes(p, &states[p.index()], Observation::Read(v_win)))
                .collect();
            if writers[reg].len() != s.w || in_group.len() != s.r || pr_count[reg] < s.pr {
                continue;
            }
            // Fire: non-winning writes, the winning write, then reads.
            for &p in writers[reg].iter().filter(|&&p| p != s.winner) {
                let Some(NextStep::Write(wr, v)) = pending[p.index()] else {
                    unreachable!("writer pool holds writers")
                };
                exec.push(Step::write(p, wr, v));
                regs[wr.index()] = v;
                alg.observe_in_place(p, &mut states[p.index()], Observation::Write);
                pending[p.index()] = None;
                next_active.push(p);
            }
            let wreg = RegisterId::new(reg);
            exec.push(Step::write(s.winner, wreg, v_win));
            regs[reg] = v_win;
            alg.observe_in_place(s.winner, &mut states[s.winner.index()], Observation::Write);
            pending[s.winner.index()] = None;
            next_active.push(s.winner);
            for &p in &in_group {
                exec.push(Step::read(p, wreg));
                alg.observe_in_place(p, &mut states[p.index()], Observation::Read(v_win));
                pending[p.index()] = None;
                next_active.push(p);
            }
            readers[reg].retain(|p| !in_group.contains(p));
            writers[reg].clear();
            pr_count[reg] -= s.pr;
            sig[reg] = None;
            progress = true;
        }

        // A process finishes only in phase 1, which skips parked ones,
        // so once all have finished none is left parked.
        if finished == n {
            return Ok(Execution::from_steps(exec));
        }
        if !progress {
            return Err(DecodeError::Stalled {
                decoded_steps: exec.len(),
            });
        }
        next_active.sort_unstable();
        std::mem::swap(&mut active, &mut next_active);
        next_active.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{construct, ConstructConfig};
    use crate::encode::encode;
    use crate::perm::Permutation;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, DekkerTournament};
    use exclusion_shmem::{Automaton, DynRef};

    #[test]
    fn decode_reproduces_a_linearization_for_the_whole_suite() {
        for r in AlgorithmRegistry::global().resolve_where(4, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 5, 13, 23] {
                let pi = Permutation::unrank(4, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
                let alpha = decode(&alg, &encode(&c))
                    .unwrap_or_else(|e| panic!("{} π#{rank}: {e}", alg.name()));
                assert!(
                    c.is_linearization(&alpha),
                    "{} π#{rank}: decode is not a linearization",
                    alg.name()
                );
                assert_eq!(alpha.critical_order(), pi.order(), "{}", alg.name());
            }
        }
    }

    #[test]
    fn decode_works_from_serialized_bits_alone() {
        // The full paper pipeline: (M, ≼) → bits → α_π.
        let alg = DekkerTournament::new(5);
        let pi = Permutation::unrank(5, 42);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let (bytes, len) = encode(&c).to_bits();
        let enc = Encoding::from_bits(&bytes, len, 5).unwrap();
        let alpha = decode(&alg, &enc).unwrap();
        assert!(c.is_linearization(&alpha));
    }

    #[test]
    fn decoder_never_sees_pi_yet_recovers_the_order() {
        let alg = DekkerTournament::new(4);
        for pi in Permutation::all(4) {
            let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
            let alpha = decode(&alg, &encode(&c)).unwrap();
            assert_eq!(alpha.critical_order(), pi.order(), "π = {pi}");
        }
    }

    #[test]
    fn wrong_algorithm_is_rejected() {
        // An encoding from a 4-process bakery cannot drive dekker.
        let bakery = exclusion_mutex::Bakery::new(4);
        let dekker = DekkerTournament::new(4);
        let pi = Permutation::identity(4);
        let c = construct(&bakery, &pi, &ConstructConfig::default()).unwrap();
        let enc = encode(&c);
        assert!(decode(&dekker, &enc).is_err());
    }

    #[test]
    fn corrupted_encoding_is_rejected() {
        let alg = DekkerTournament::new(3);
        let pi = Permutation::identity(3);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let enc = encode(&c);
        // Drop the last cell of the first column: the decoder must not
        // produce a full linearization.
        let mut cols: Vec<Vec<Cell>> = enc.columns().to_vec();
        let dropped = cols[0].pop().unwrap();
        assert_eq!(dropped, Cell::Crit);
        let (bytes, len) = rebuild(&cols).to_bits();
        let hacked = Encoding::from_bits(&bytes, len, 3).unwrap();
        match decode(&alg, &hacked) {
            Err(_) => {}
            Ok(alpha) => assert!(!c.is_linearization(&alpha)),
        }
    }

    fn rebuild(cols: &[Vec<Cell>]) -> Encoding {
        // Encoding has no public constructor from raw cells; round-trip
        // through bits by emitting cells manually.
        let mut w = crate::bits::BitWriter::new();
        for col in cols {
            for cell in col {
                match *cell {
                    Cell::Read => w.push_bits(0b00, 2),
                    Cell::Write => w.push_bits(0b010, 3),
                    Cell::Crit => w.push_bits(0b011, 3),
                    Cell::Preread => w.push_bits(0b100, 3),
                    Cell::SoloRead => w.push_bits(0b101, 3),
                    Cell::Winner { pr, r, w: wc } => {
                        w.push_bits(0b110, 3);
                        w.push_gamma(u64::from(pr) + 1);
                        w.push_gamma(u64::from(r) + 1);
                        w.push_gamma(u64::from(wc));
                    }
                }
            }
            w.push_bits(0b111, 3);
        }
        let (bytes, len) = w.into_parts();
        Encoding::from_bits(&bytes, len, cols.len()).unwrap()
    }
}
