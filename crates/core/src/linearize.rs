//! Linearization — procedure `Lin(M, ≼)` of Figure 1 — and the
//! membership test "is this execution a linearization of `(M, ≼)`?"
//! used to validate the decoder (Theorem 7.4).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use exclusion_shmem::{Execution, ProcessId};

use crate::construct::Construction;
use crate::metastep::MetastepId;

impl Construction {
    /// A topological order of the metasteps: `Lin`'s line 50. With
    /// `rng`, ready metasteps are picked uniformly at random (exercising
    /// the nondeterminism of `Lin`); without, the smallest-id ready
    /// metastep is taken.
    fn topological_order(&self, mut rng: Option<&mut StdRng>) -> Vec<MetastepId> {
        let m = self.metasteps.len();
        let mut indegree: Vec<usize> = (0..m)
            .map(|i| self.dag().preds(MetastepId(i as u32)).len())
            .collect();
        let mut ready: Vec<MetastepId> = (0..m)
            .filter(|&i| indegree[i] == 0)
            .map(|i| MetastepId(i as u32))
            .collect();
        // Keep the deterministic variant stable: smallest id first.
        ready.sort_unstable_by_key(|m| std::cmp::Reverse(m.index()));
        let mut out = Vec::with_capacity(m);
        while !ready.is_empty() {
            let next = match rng.as_deref_mut() {
                Some(r) => ready.swap_remove(r.random_range(0..ready.len())),
                None => ready.pop().expect("nonempty"),
            };
            out.push(next);
            for &s in self.dag().succs(next) {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    if rng.is_some() {
                        ready.push(s);
                    } else {
                        // Insert keeping descending-id order for pop().
                        let pos = ready
                            .binary_search_by(|x| s.index().cmp(&x.index()))
                            .unwrap_or_else(|p| p);
                        ready.insert(pos, s);
                    }
                }
            }
        }
        assert_eq!(out.len(), m, "the metastep order contains a cycle");
        out
    }

    /// The deterministic linearization: smallest-id topological order,
    /// insertion-order expansion of each metastep.
    #[must_use]
    pub fn linearize(&self) -> Execution {
        self.topological_order(None)
            .into_iter()
            .flat_map(|m| self.metastep(m).seq())
            .collect()
    }

    /// A random linearization of `(M, ≼)` — random topological order and
    /// random `concat` orders inside each metastep — exercising the
    /// nondeterminism of `Lin` and `Seq` (the paper's Lemmas 5.4 and 6.1
    /// say all of these are "essentially the same").
    #[must_use]
    pub fn linearize_random(&self, seed: u64) -> Execution {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = self.topological_order(Some(&mut rng));
        order
            .into_iter()
            .flat_map(|m| self.metastep(m).seq_random(&mut rng))
            .collect()
    }

    /// `Plin(M, ≼, m)` (Figure 1): a linearization of exactly the
    /// metasteps `≼ m` — the prefix the construction's `Generate` loop
    /// conceptually replays to compute a process's next step.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a metastep of this construction.
    #[must_use]
    pub fn plin(&self, m: MetastepId) -> Execution {
        assert!(m.index() < self.metasteps.len(), "unknown metastep {m}");
        // Ancestor set of m (inclusive) by reverse DFS.
        let mut keep = vec![false; self.metasteps.len()];
        let mut stack = vec![m];
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut keep[x.index()], true) {
                continue;
            }
            for &p in self.dag().preds(x) {
                if !keep[p.index()] {
                    stack.push(p);
                }
            }
        }
        // Kahn restricted to the kept subset, smallest id first.
        let mut indegree: Vec<usize> = (0..self.metasteps.len())
            .map(|i| {
                self.dag()
                    .preds(MetastepId(i as u32))
                    .iter()
                    .filter(|p| keep[p.index()])
                    .count()
            })
            .collect();
        let mut ready: Vec<usize> = (0..self.metasteps.len())
            .filter(|&i| keep[i] && indegree[i] == 0)
            .collect();
        ready.sort_unstable_by_key(|&i| std::cmp::Reverse(i));
        let mut out = Execution::new();
        while let Some(i) = ready.pop() {
            out.extend(self.metastep(MetastepId(i as u32)).seq());
            for &s in self.dag().succs(MetastepId(i as u32)) {
                if keep[s.index()] {
                    indegree[s.index()] -= 1;
                    if indegree[s.index()] == 0 {
                        let pos = ready
                            .binary_search_by(|x| s.index().cmp(x))
                            .unwrap_or_else(|p| p);
                        ready.insert(pos, s.index());
                    }
                }
            }
        }
        out
    }

    /// Whether `exec` is a linearization of `(M, ≼)`: a concatenation of
    /// legal `Seq` expansions of all metasteps, in an order consistent
    /// with `≼`.
    #[must_use]
    pub fn is_linearization(&self, exec: &Execution) -> bool {
        if exec.len() != self.total_steps() {
            return false;
        }
        // Match every step of `exec` to a metastep via the per-process
        // chains (a process's execution order equals its chain order).
        let m = self.metasteps.len();
        let mut chain_pos = vec![0usize; self.n];
        let mut first = vec![usize::MAX; m];
        let mut last = vec![0usize; m];
        let mut owner_of_position = Vec::with_capacity(exec.len());
        for (t, step) in exec.iter().enumerate() {
            let p = step.pid();
            let chain = self.chain(p);
            let Some(&mid) = chain.get(chain_pos[p.index()]) else {
                return false; // more steps of p than its chain holds
            };
            chain_pos[p.index()] += 1;
            // The step must be exactly p's step in that metastep.
            if self.metastep(mid).step_of(p) != Some(step) {
                return false;
            }
            first[mid.index()] = first[mid.index()].min(t);
            last[mid.index()] = last[mid.index()].max(t);
            owner_of_position.push(mid);
        }
        for (p, chain) in self.chains.iter().enumerate() {
            if chain_pos[p] != chain.len() {
                return false; // some steps of p are missing
            }
        }
        // Each metastep's steps must be contiguous and a legal Seq
        // expansion.
        for ms in self.metasteps() {
            let i = ms.id().index();
            if first[i] == usize::MAX || last[i] - first[i] + 1 != ms.size() {
                return false;
            }
            if !ms.is_seq(&exec.steps()[first[i]..=last[i]]) {
                return false;
            }
        }
        // The block order must respect the partial order.
        for ms in self.metasteps() {
            let b = ms.id().index();
            for &a in self.dag().preds(ms.id()) {
                if last[a.index()] >= first[b] {
                    return false;
                }
            }
        }
        true
    }

    /// The critical-section entry order implied by the construction: the
    /// stage order — the permutation π for a full construction
    /// (Theorem 5.5).
    #[must_use]
    pub fn expected_order(&self) -> Vec<ProcessId> {
        self.stages().to_vec()
    }

    /// Renders the metastep DAG in Graphviz DOT format: one node per
    /// metastep (labelled with its contents), one edge per generating
    /// relation, preread edges dashed. Useful for inspecting small
    /// constructions (`dot -Tsvg`).
    #[must_use]
    pub fn to_dot<A>(&self, alg: &A) -> String
    where
        A: exclusion_shmem::Automaton,
    {
        use crate::metastep::MetastepKind;
        use std::fmt::Write as _;
        let mut out = String::from(
            "digraph construction {\n  rankdir=TB;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        for m in self.metasteps() {
            let (label, color) = match m.kind() {
                MetastepKind::Crit => (format!("{}", m.crit().expect("crit step")), "lightgray"),
                MetastepKind::Read => (
                    format!(
                        "{}\\n{}",
                        m.reads()[0],
                        if m.preread_of().is_some() { "PR" } else { "SR" }
                    ),
                    "lightyellow",
                ),
                MetastepKind::Write => {
                    let reg = m
                        .register()
                        .map_or_else(String::new, |r| alg.register_name(r));
                    (
                        format!(
                            "{reg}\\nW:{} win:p{} R:{}",
                            m.writes().len() + 1,
                            m.winner().expect("winner").pid().index(),
                            m.reads().len()
                        ),
                        "lightblue",
                    )
                }
            };
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{label}\", style=filled, fillcolor={color}];",
                m.id().index(),
                m.id()
            );
        }
        for m in self.metasteps() {
            let prereads: std::collections::HashSet<_> = m.pread().iter().copied().collect();
            for &p in self.dag().preds(m.id()) {
                let style = if prereads.contains(&p) {
                    " [style=dashed]"
                } else {
                    ""
                };
                let _ = writeln!(out, "  {} -> {}{style};", p.index(), m.id().index());
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::construct::{construct, ConstructConfig};
    use crate::perm::Permutation;
    use exclusion_mutex::{AlgorithmInfo, AlgorithmRegistry, DekkerTournament};
    use exclusion_shmem::{Automaton, DynRef};

    fn build(n: usize, rank: u64) -> (DekkerTournament, crate::Construction) {
        let alg = DekkerTournament::new(n);
        let pi = Permutation::unrank(n, rank);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        (alg, c)
    }

    #[test]
    fn deterministic_linearization_is_a_linearization() {
        let (_, c) = build(4, 17);
        let lin = c.linearize();
        assert!(c.is_linearization(&lin));
    }

    #[test]
    fn random_linearizations_are_linearizations() {
        let (_, c) = build(5, 100);
        for seed in 0..20 {
            let lin = c.linearize_random(seed);
            assert!(c.is_linearization(&lin), "seed {seed}");
        }
    }

    #[test]
    fn linearizations_replay_against_the_automaton() {
        // The deepest consistency check of the construction: the woven
        // execution really is an execution of the algorithm.
        for r in AlgorithmRegistry::global().resolve_where(4, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 7, 23] {
                let pi = Permutation::unrank(4, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default())
                    .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
                for seed in 0..5 {
                    let lin = c.linearize_random(seed);
                    exclusion_shmem::replay(&alg, lin.steps(), |_| {})
                        .unwrap_or_else(|e| panic!("{} π#{rank} seed {seed}: {e}", alg.name()));
                }
            }
        }
    }

    #[test]
    fn linearizations_are_canonical_with_cs_order_pi() {
        // Theorem 5.5, experimentally.
        for r in AlgorithmRegistry::global().resolve_where(4, AlgorithmInfo::paper_lock) {
            let alg = DynRef(r.automaton.as_ref());
            for rank in [0u64, 11, 23] {
                let pi = Permutation::unrank(4, rank);
                let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
                for seed in 0..5 {
                    let lin = c.linearize_random(seed);
                    assert!(lin.is_canonical(4), "{} π#{rank}", alg.name());
                    assert!(lin.mutual_exclusion(4), "{} π#{rank}", alg.name());
                    assert_eq!(
                        lin.critical_order(),
                        pi.order(),
                        "{} π#{rank} seed {seed}",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn plin_is_a_replayable_prefix_closed_fragment() {
        // The incremental-state optimization in `construct` is justified
        // by Plin: for every metastep m of a process's chain, the Plin
        // up to m replays against the automaton and leaves the process
        // in a well-defined state (its projection is prefix-closed).
        let alg = DekkerTournament::new(4);
        let pi = Permutation::unrank(4, 19);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        for p in exclusion_shmem::ProcessId::all(4) {
            for &mid in c.chain(p).iter().step_by(3) {
                let plin = c.plin(mid);
                exclusion_shmem::replay(&alg, plin.steps(), |_| {})
                    .unwrap_or_else(|e| panic!("plin({mid}): {e}"));
                // The fragment contains the full chain of p up to mid.
                let expected: Vec<_> = c
                    .chain(p)
                    .iter()
                    .take_while(|&&x| x != mid)
                    .chain(std::iter::once(&mid))
                    .collect();
                let steps_of_p = plin.projection(p).count();
                assert_eq!(steps_of_p, expected.len());
            }
        }
    }

    #[test]
    fn plin_of_a_maximal_metastep_is_smaller_than_lin() {
        let alg = DekkerTournament::new(3);
        let pi = Permutation::identity(3);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let first_chain_mid = c.chain(exclusion_shmem::ProcessId::new(0))[1];
        let plin = c.plin(first_chain_mid);
        assert!(plin.len() < c.linearize().len());
    }

    #[test]
    fn dot_export_mentions_every_metastep() {
        let alg = DekkerTournament::new(3);
        let pi = Permutation::reversed(3);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let dot = c.to_dot(&alg);
        assert!(dot.starts_with("digraph"));
        for m in c.metasteps() {
            assert!(
                dot.contains(&format!("\"{}\\n", m.id())),
                "{} missing",
                m.id()
            );
        }
        // Edges are present and preread edges are dashed when they exist.
        assert!(dot.contains("->"));
    }

    #[test]
    fn foreign_executions_are_rejected() {
        let (alg, c) = build(3, 2);
        // A genuine execution of the algorithm that is NOT a
        // linearization of this construction (different schedule).
        let order: Vec<_> = exclusion_shmem::ProcessId::all(alg.processes()).collect();
        let other = exclusion_shmem::sched::run_sequential(&alg, &order, 100_000).unwrap();
        assert!(!c.is_linearization(&other));
        // Truncations are rejected too.
        let lin = c.linearize();
        assert!(!c.is_linearization(&lin.prefix(lin.len() - 1)));
    }

    #[test]
    fn swapping_adjacent_dependent_steps_is_rejected() {
        let (_, c) = build(3, 4);
        let lin = c.linearize();
        // Swap the first two steps belonging to different metasteps where
        // an order violation results; scan for a swap that breaks it.
        let mut rejected = false;
        for i in 0..lin.len() - 1 {
            let mut steps = lin.steps().to_vec();
            steps.swap(i, i + 1);
            if !c.is_linearization(&exclusion_shmem::Execution::from_steps(steps)) {
                rejected = true;
                break;
            }
        }
        assert!(rejected);
    }
}
