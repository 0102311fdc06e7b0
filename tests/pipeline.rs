//! Integration: the full construct → encode → bits → decode pipeline
//! across crates, at sizes beyond the unit tests.

use exclusion::lb::{
    construct, decode, encode, run_pipeline, verify_counting, ConstructConfig, Encoding,
    Permutation,
};
use exclusion::mutex::{AlgorithmInfo, AlgorithmRegistry, Bakery, DekkerTournament};
use exclusion::shmem::{Automaton, DynRef};

#[test]
fn pipeline_dekker_n16() {
    let alg = DekkerTournament::new(16);
    for rank in [0u64, 1 << 20, u64::MAX % exclusion::lb::factorial(16)] {
        let pi = Permutation::unrank(16, rank);
        let report = run_pipeline(&alg, &pi, &ConstructConfig::default(), 3)
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        // 16 processes, 4 levels: canonical shape 4·16·4 = 256 is the
        // floor; the adversarial construction may cost more.
        assert!(report.cost >= 256, "cost {}", report.cost);
        assert!(report.bits >= report.cost, "γ cells are ≥ 1 bit per unit");
    }
}

#[test]
fn pipeline_bakery_n12() {
    let alg = Bakery::new(12);
    let pi = Permutation::reversed(12);
    let report = run_pipeline(&alg, &pi, &ConstructConfig::default(), 3).unwrap();
    // Bakery's doorway scan is quadratic.
    assert!(report.cost >= 12 * 12, "cost {}", report.cost);
}

#[test]
fn whole_suite_pipeline_n8() {
    for r in AlgorithmRegistry::global().resolve_where(8, AlgorithmInfo::paper_lock) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(8, 4321);
        run_pipeline(&alg, &pi, &ConstructConfig::default(), 2)
            .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
    }
}

#[test]
fn counting_exhaustive_n5_dekker() {
    let alg = DekkerTournament::new(5);
    let report = verify_counting(&alg, &ConstructConfig::default()).unwrap();
    assert_eq!(report.permutations, 120);
    assert!(report.all_distinct);
    assert!(report.holds());
    // The information floor: log2(120) ≈ 6.9 bits.
    assert!(report.min_bits as f64 >= report.log2_nfact);
}

#[test]
fn decode_from_bits_only_across_algorithms() {
    // Serialize the encoding, forget everything but the bytes and the
    // algorithm, and reconstruct α_π.
    for r in AlgorithmRegistry::global().resolve_where(6, AlgorithmInfo::paper_lock) {
        let alg = DynRef(r.automaton.as_ref());
        let pi = Permutation::unrank(6, 599);
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        let (bytes, bits) = encode(&c).to_bits();
        let enc = Encoding::from_bits(&bytes, bits, 6).unwrap();
        let alpha = decode(&alg, &enc).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert!(c.is_linearization(&alpha), "{}", alg.name());
        assert_eq!(alpha.critical_order(), pi.order(), "{}", alg.name());
        assert!(alpha.mutual_exclusion(6), "{}", alg.name());
    }
}

#[test]
fn encodings_injective_across_permutations_and_costs_bounded() {
    use std::collections::HashSet;
    let alg = DekkerTournament::new(4);
    let mut encodings = HashSet::new();
    let mut max_cost = 0;
    for pi in Permutation::all(4) {
        let c = construct(&alg, &pi, &ConstructConfig::default()).unwrap();
        max_cost = max_cost.max(c.cost());
        assert!(encodings.insert(encode(&c).to_bits()), "collision at {pi}");
    }
    assert_eq!(encodings.len(), 24);
    // Theorem 7.5 numerically: max cost ≥ log2(4!)/κ with κ ≤ 8.
    assert!((max_cost * 8) as f64 >= exclusion::lb::log2_factorial(4));
}

/// FNV-1a over 64 bits. Its output is fixed by its definition, so the
/// pins below hold on every Rust release (`DefaultHasher`'s do not).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn index(&mut self, x: Option<usize>) {
        self.u64(x.map_or(u64::MAX, |i| i as u64));
    }

    fn ids(&mut self, ids: &[exclusion::lb::MetastepId]) {
        self.u64(ids.len() as u64);
        for id in ids {
            self.index(Some(id.index()));
        }
    }

    fn step(&mut self, s: Option<&exclusion::shmem::Step>) {
        use exclusion::shmem::Step;
        match s.copied() {
            None => self.u64(0),
            Some(Step::Read { pid, reg }) => {
                self.u64(1);
                self.index(Some(pid.index()));
                self.index(Some(reg.index()));
            }
            Some(Step::Write { pid, reg, value }) => {
                self.u64(2);
                self.index(Some(pid.index()));
                self.index(Some(reg.index()));
                self.u64(value);
            }
            Some(Step::Crit { pid, kind }) => {
                self.u64(3);
                self.index(Some(pid.index()));
                self.u64(kind as u64);
            }
            Some(other) => panic!("the register-only pipeline never emits {other:?}"),
        }
    }

    fn steps(&mut self, steps: &[exclusion::shmem::Step]) {
        self.u64(steps.len() as u64);
        for s in steps {
            self.step(Some(s));
        }
    }
}

/// Re-serializes raw cells through the public [`BitWriter`] in the
/// format of `Encoding::to_bits`, so a test can hand `decode` a table
/// that no construction produced.
///
/// [`BitWriter`]: exclusion::lb::bits::BitWriter
fn rebuild(cols: &[Vec<exclusion::lb::Cell>]) -> Encoding {
    use exclusion::lb::Cell;
    let mut w = exclusion::lb::bits::BitWriter::new();
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
    Encoding::from_bits(&bytes, len, cols.len()).expect("rebuilt cells parse")
}

/// Three fixed corruptions of an encoding: the last cell of column 0
/// dropped, columns 0 and 1 swapped, and the first winner's read count
/// raised by one.
fn corruptions(enc: &Encoding) -> [Vec<Vec<exclusion::lb::Cell>>; 3] {
    use exclusion::lb::Cell;
    let mut dropped = enc.columns().to_vec();
    dropped[0].pop();
    let mut swapped = enc.columns().to_vec();
    swapped.swap(0, 1);
    let mut recounted = enc.columns().to_vec();
    if let Some(Cell::Winner { r, .. }) = recounted
        .iter_mut()
        .flatten()
        .find(|c| matches!(c, Cell::Winner { .. }))
    {
        *r += 1;
    }
    [dropped, swapped, recounted]
}

/// Everything the pipeline produces for one (algorithm, π): each
/// metastep, the DAG's stored edge order, the encoding's bits, the
/// decoded steps, and `decode`'s verdict on three corrupted encodings.
fn pipeline_digest<A: Automaton>(alg: &A, pi: &Permutation) -> u64 {
    let mut h = Fnv::new();
    let c = construct(alg, pi, &ConstructConfig::default()).unwrap_or_else(|e| panic!("{pi}: {e}"));
    h.u64(c.metasteps().len() as u64);
    for m in c.metasteps() {
        h.u64(m.kind() as u64);
        h.index(m.register().map(|r| r.index()));
        h.step(m.winner());
        h.steps(m.writes());
        h.steps(m.reads());
        h.step(m.crit());
        h.ids(m.pread());
        h.index(m.preread_of().map(|r| r.index()));
    }
    for m in c.metasteps() {
        h.ids(c.dag().preds(m.id()));
        h.ids(c.dag().succs(m.id()));
    }
    let enc = encode(&c);
    let (bytes, len) = enc.to_bits();
    h.u64(len as u64);
    h.bytes(&bytes);
    let alpha = decode(alg, &enc).unwrap_or_else(|e| panic!("{pi}: {e}"));
    assert!(c.is_linearization(&alpha), "{pi}");
    h.steps(alpha.steps());
    for cols in corruptions(&enc) {
        match decode(alg, &rebuild(&cols)) {
            Ok(alpha) => {
                h.u64(0);
                h.steps(alpha.steps());
            }
            Err(e) => {
                h.u64(1);
                h.bytes(format!("{e:?}").as_bytes());
            }
        }
    }
    h.0
}

/// One registry entry at `n`: the digests of [`pipeline_digest`] over
/// the identity, the reversal and two seeded permutations, folded.
fn four_pi_digest(name: &str, n: usize) -> u64 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let resolved = AlgorithmRegistry::global()
        .resolve_str(name, n)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let alg = DynRef(resolved.automaton.as_ref());
    let mut perms = vec![Permutation::identity(n), Permutation::reversed(n)];
    perms.extend([1u64, 2].map(|seed| Permutation::random(n, &mut StdRng::seed_from_u64(seed))));
    let mut h = Fnv::new();
    for pi in &perms {
        h.u64(pipeline_digest(&alg, pi));
    }
    h.0
}

/// The nine registry entries the construction accepts, with one pinned
/// [`four_pi_digest`] per size in [`DIGEST_SIZES`].
#[rustfmt::skip]
const PINNED_DIGESTS: [(&str, [u64; 4]); 9] = [
    ("dekker-tree", [0xb78935a92eabbca5, 0xc8123f652dca1495, 0x6ecd92bd9e9cffe7, 0x5f49d91a04b63c59]),
    ("peterson", [0x2851894f2e6026b9, 0x8059be19f47556c1, 0x6d7fc44f1baef809, 0x5628319f3c4ac630]),
    ("rpeterson", [0x2851894f2e6026b9, 0x8059be19f47556c1, 0x6d7fc44f1baef809, 0x5628319f3c4ac630]),
    ("bakery", [0x853d587eb8def54d, 0xbb5a020cdb8866a5, 0x1979485fe33a9645, 0x0f8f31e790e22345]),
    ("filter", [0x2851894f2e6026b9, 0x2ce2c03d6991bb41, 0x49ef09a38954a52f, 0x91780ba0aeafffbf]),
    ("dijkstra", [0x7f9e4576551ea82d, 0x6746c63e1baf9e5d, 0xadc921e101aa107a, 0xdd23beece63ed31e]),
    ("burns-lynch", [0x7a4b0a5387fddb6d, 0x8e19376eae2b7791, 0x8e789882b0b26dff, 0x34caa6a61de8bc33]),
    ("splitter", [0x7bfe3319e1d6fb85, 0xc1592c9f2d9310cd, 0xe4c541388e6b66fd, 0xc969c3f0bb266546]),
    ("splitter-gate", [0x3067ed2821bcb6f1, 0xf9db01b57a24e7d5, 0xec975ebd0522a694, 0x376417e183c82c5b]),
];

const DIGEST_SIZES: [usize; 4] = [2, 3, 5, 8];

#[test]
fn pipeline_outputs_match_their_pinned_digests() {
    let got: Vec<_> = PINNED_DIGESTS
        .iter()
        .map(|&(name, _)| (name, DIGEST_SIZES.map(|n| four_pi_digest(name, n))))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert!(
        got.iter()
            .zip(&PINNED_DIGESTS)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1),
        "pipeline output changed; digests now:\n{table}"
    );
}

/// The sizes the benchmark's pipeline workload runs, where chains are
/// long and metasteps with several owners or prereads are many: one
/// [`four_pi_digest`] per row.
#[rustfmt::skip]
const PINNED_LARGE_DIGESTS: [(&str, usize, u64); 5] = [
    ("bakery", 64, 0x3840545e22dea81d),
    ("burns-lynch", 64, 0xb27dd2e545e672c7),
    ("dijkstra", 64, 0xb054e31f492e3817),
    ("dekker-tree", 256, 0x4136a940cb931660),
    ("peterson", 256, 0xf9bb356693459c72),
];

#[test]
fn pipeline_outputs_at_benchmark_sizes_match_their_pinned_digests() {
    let got: Vec<_> = PINNED_LARGE_DIGESTS
        .iter()
        .map(|&(name, n, _)| (name, n, four_pi_digest(name, n)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, n, d)| format!("    (\"{name}\", {n}, {d:#018x}),\n"))
        .collect();
    assert!(
        got == PINNED_LARGE_DIGESTS,
        "pipeline output changed; digests now:\n{table}"
    );
}
