//! `lb-pipeline`: the paper's proof run end to end — `construct`
//! (Fig. 1) → `encode` plus the bit round-trip (Fig. 2) → `decode`
//! (Fig. 3) → the linearization and critical-order check — over seeded
//! permutations π, one thread.
//!
//! Cases (unit of work: one π through the whole pipeline), each round
//! taking the next permutations of a fixed seeded sample:
//! 1. `bakery` at n = 64, one π per round — quadratic cost,
//!    construct-bound;
//! 2. `burns-lynch` at n = 64, one π per round — quadratic cost,
//!    construct-bound;
//! 3. `nlogn` — `dekker-tree` and `peterson` at n = 256, two π each per
//!    round — where decode and the check take a visible share.

use std::time::Instant;

use exclusion_lb::{
    construct, decode, encode, run_pipeline, ConstructConfig, Encoding, Permutation,
};
use exclusion_mutex::registry::{AlgorithmRegistry, DynAlgorithm};
use exclusion_shmem::DynRef;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tracer::Tracer;
use crate::{CaseTime, Checks, Config, Counts, Ledger, Workload};

/// One algorithm instance and its sampled permutations.
struct Instance {
    spec: &'static str,
    n: usize,
    alg: DynAlgorithm,
    perms: Vec<Permutation>,
    /// Permutations each round takes.
    per_round: usize,
    /// `C(α_π)`, identical for every π of this algorithm and n.
    cost: u64,
    /// `|E_π|` per π under the default seed.
    bits: &'static [u64],
}

/// Per case: `(spec, n, π per round, pinned cost, pinned bits per π)`;
/// the seeded sample holds one π per pinned bit count.
type Plan = [&'static [(&'static str, usize, usize, u64, &'static [u64])]; 3];

const FULL: Plan = [
    &[("bakery", 64, 1, 12416, &[39165, 39165])],
    &[("burns-lynch", 64, 1, 6240, &[20445, 20445])],
    &[
        (
            "dekker-tree",
            256,
            2,
            8192,
            &[
                49073, 49103, 49133, 49047, 49093, 49094, 49101, 49032, 49089, 49126, 49083, 49098,
                49102, 49088, 49091, 49100,
            ],
        ),
        (
            "peterson",
            256,
            2,
            8192,
            &[
                49102, 49065, 49080, 49087, 49118, 49143, 49088, 49111, 49089, 49158, 49064, 49063,
                49072, 49121, 49130, 49030,
            ],
        ),
    ],
];

const QUICK: Plan = [
    &[("bakery", 12, 1, 456, &[1725, 1725])],
    &[("burns-lynch", 12, 1, 234, &[1023, 1023])],
    &[
        ("dekker-tree", 32, 2, 640, &[4032, 4031, 4021, 4020]),
        ("peterson", 32, 2, 640, &[4024, 4016, 4017, 4023]),
    ],
];

/// Size of the warm-up instance each algorithm runs during set-up.
const WARM_N: usize = 24;

/// The set-up `lb-pipeline` workload.
pub struct Pipeline {
    cfg: Config,
    cases: [Vec<Instance>; 3],
}

impl Pipeline {
    /// Resolves the algorithms, samples π from the seed, and warms the
    /// pipeline up on one small instance per algorithm.
    ///
    /// # Errors
    ///
    /// An algorithm that fails to resolve.
    pub fn setup(cfg: &Config) -> Result<Self, String> {
        let plan = if cfg.quick { QUICK } else { FULL };
        let reg = AlgorithmRegistry::global();
        let mut cases: [Vec<Instance>; 3] = Default::default();
        for (case, rows) in cases.iter_mut().zip(plan) {
            for (k, &(spec, n, per_round, cost, bits)) in rows.iter().enumerate() {
                let alg = reg
                    .resolve_str(spec, n)
                    .map_err(|e| format!("{spec}: {e}"))?
                    .automaton;
                let mut rng = StdRng::seed_from_u64(
                    cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (n as u64) << 8 ^ k as u64,
                );
                let perms = bits
                    .iter()
                    .map(|_| Permutation::random(n, &mut rng))
                    .collect();
                let small = reg
                    .resolve_str(spec, WARM_N)
                    .map_err(|e| format!("{spec}: {e}"))?
                    .automaton;
                let pi = Permutation::random(WARM_N, &mut rng);
                run_pipeline(&DynRef(small.as_ref()), &pi, &ConstructConfig::default(), 0)
                    .map_err(|e| format!("{spec} warm-up: {e}"))?;
                case.push(Instance {
                    spec,
                    n,
                    alg,
                    perms,
                    per_round,
                    cost,
                    bits,
                });
            }
        }
        Ok(Pipeline { cfg: *cfg, cases })
    }

    /// One π through the pipeline, every step checked.
    fn pass(&self, inst: &Instance, idx: usize, tr: &mut Tracer, counts: &mut Counts) -> Checks {
        let mut ck = Checks::default();
        let alg = DynRef(inst.alg.as_ref());
        let pi = &inst.perms[idx];
        let cfg = ConstructConfig::default();
        let c = match tr.span("lb.construct", |_| construct(&alg, pi, &cfg)) {
            Ok(c) => c,
            Err(e) => {
                ck.ok(false, format!("construct failed: {e}"));
                return ck;
            }
        };
        let (enc, bits, back) = tr.span("lb.encode", |_| {
            let enc = encode(&c);
            let (bytes, bits) = enc.to_bits();
            let back = Encoding::from_bits(&bytes, bits, inst.n);
            (enc, bits, back)
        });
        let back = match back {
            Ok(back) if back == enc => back,
            _ => {
                ck.ok(false, "encoding does not round-trip through its bits");
                return ck;
            }
        };
        let alpha = match tr.span("lb.decode", |_| decode(&alg, &back)) {
            Ok(alpha) => alpha,
            Err(e) => {
                ck.ok(false, format!("decode failed: {e}"));
                return ck;
            }
        };
        let (is_lin, order_ok) = tr.span("lb.check", |_| {
            (
                c.is_linearization(&alpha),
                alpha.critical_order() == pi.order(),
            )
        });
        ck.ok(is_lin, "decode(E) is not a linearization of (M, ≼)");
        ck.ok(order_ok, "decode does not recover π's critical order");
        ck.eq("C(α_π)", c.cost() as u64, self.cfg.pin(inst.cost));
        if self.cfg.pinned() {
            ck.eq("|E_π|", bits as u64, inst.bits[idx]);
        }
        *counts.entry("lb.cost").or_default() += c.cost() as f64;
        *counts.entry("lb.bits").or_default() += bits as f64;
        *counts.entry("lb.metasteps").or_default() += c.metasteps().len() as f64;
        ck
    }
}

impl Workload for Pipeline {
    fn round(
        &self,
        round: usize,
        tr: &mut Tracer,
        ledger: &mut Ledger,
        counts: &mut Counts,
    ) -> [CaseTime; 3] {
        let mut out = [CaseTime::default(); 3];
        for (case, time) in self.cases.iter().zip(&mut out) {
            let start = Instant::now();
            for inst in case {
                for j in 0..inst.per_round {
                    let idx = (round * inst.per_round + j) % inst.perms.len();
                    let ck = self.pass(inst, idx, tr, counts);
                    ledger.record(&format!("{} n={} π#{idx}", inst.spec, inst.n), ck.0);
                    time.items += 1.0;
                }
            }
            time.secs = start.elapsed().as_secs_f64();
        }
        out
    }

    fn layer_metrics(
        &self,
        rounds: &Tracer,
        count: usize,
        _tr: &mut Tracer,
        _ledger: &mut Ledger,
        layer: &mut Counts,
    ) {
        for (span, key) in [
            ("lb.construct", "lb.construct_ms"),
            ("lb.encode", "lb.encode_ms"),
            ("lb.decode", "lb.decode_ms"),
            ("lb.check", "lb.check_ms"),
        ] {
            layer.insert(key, rounds.total_ms(span) / count.max(1) as f64);
        }
        let cost = layer.get("lb.cost").copied().unwrap_or(0.0);
        let bits = layer.get("lb.bits").copied().unwrap_or(0.0);
        if cost > 0.0 {
            layer.insert("lb.bits_per_cost", bits / cost);
        }
    }
}
