//! Determinism and bounded memory of the open-stream serve engine:
//! reports are a pure function of `(job, options)` — bit-identical
//! across worker counts and repeated runs — and the live structures
//! (in-flight lanes, pending ring) never exceed their configured
//! capacities no matter how long the stream is.

use exclusion::serve::{serve, ServeJob, ServeOptions};
use proptest::prelude::*;

/// Registry algorithms cheap enough for a property grid.
const ALGORITHMS: [&str; 4] = ["peterson", "dekker-tree", "tas-sim", "ticket"];

/// One spec per arrival-model family, parameters picked to exercise
/// idle gaps, saturation, and everything between.
const ARRIVALS: [&str; 4] = [
    "steady:gap=3",
    "poisson:rate=0.3",
    "bursty:size=3,gap=7",
    "diurnal:period=128,peak=1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same job served on 1, 2 and 4 workers — and served twice —
    /// yields `==` reports and byte-identical JSON. The stripes are kept
    /// small so every run spans many stripes and the merge order
    /// actually matters: 12 stripes of 256 requests, and 188 stripes of
    /// 16, more than four workers' window holds.
    #[test]
    fn reports_are_bit_identical_across_workers_and_reruns(
        alg_idx in 0..ALGORITHMS.len(),
        arr_idx in 0..ARRIVALS.len(),
        n in 2usize..5,
        deadline_raw in 0u64..100,
        seed in any::<u64>(),
    ) {
        // Half the cases wait forever; the rest get patience 0..50.
        let deadline = (deadline_raw < 50).then_some(deadline_raw);
        let job = ServeJob::new(ALGORITHMS[alg_idx], n, 3_000)
            .unwrap()
            .arrivals(ARRIVALS[arr_idx])
            .unwrap();
        for stripe in [256, 16] {
            let opts = |workers| ServeOptions {
                workers,
                stripe,
                deadline,
                seed,
                ..ServeOptions::default()
            };
            let one = serve(&job, &opts(1));
            let two = serve(&job, &opts(2));
            let four = serve(&job, &opts(4));
            let again = serve(&job, &opts(4));
            prop_assert_eq!(&one, &two);
            prop_assert_eq!(&one, &four);
            prop_assert_eq!(&four, &again);
            prop_assert_eq!(one.to_json(), four.to_json());
            // Conservation: every offered request ends somewhere.
            prop_assert_eq!(one.completed + one.abandoned + one.unserved, 3_000);
            prop_assert!(one.errors.is_empty());
        }
    }
}

/// A million requests fit in bounded memory: at most `n` requests are
/// ever in flight and the pending ring never exceeds its capacity —
/// the stream is materialized one arrival at a time, so nothing scales
/// with the request count.
#[test]
fn a_million_requests_stay_within_the_ring_and_lanes() {
    let job = ServeJob::new("tas-sim", 2, 1_000_000)
        .unwrap()
        .arrivals("steady:gap=8")
        .unwrap();
    let opts = ServeOptions {
        ring: 4,
        stripe: 65_536,
        ..ServeOptions::default()
    };
    let report = serve(&job, &opts);
    assert_eq!(report.completed + report.abandoned, 1_000_000);
    assert!(report.errors.is_empty());
    assert!(
        report.peak_in_flight <= 2,
        "peak in-flight {} exceeds the {} lanes",
        report.peak_in_flight,
        2
    );
    assert!(
        report.peak_queue <= 4,
        "peak queue {} exceeds the ring capacity 4",
        report.peak_queue
    );
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

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn hist(&mut self, h: &exclusion::trace::Hist) {
        self.str(&h.to_json());
        for q in [0.5, 0.9, 0.99, 0.999] {
            self.u64(h.quantile(q));
        }
    }
}

/// Everything a serve report carries: its identity, every count and
/// total, the four histograms and the stripe errors.
fn report_digest(r: &exclusion::serve::ServeReport) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.algorithm);
    h.str(&r.scheduler);
    h.str(&r.arrivals);
    for x in [
        r.n as u64,
        r.requests,
        r.stripe,
        r.ring as u64,
        r.deadline.unwrap_or(u64::MAX),
        r.seed,
        r.completed,
        r.abandoned,
        r.unserved,
        r.steps,
        r.ticks,
        r.total_latency,
        r.sc_total,
        r.cc_total,
        r.dsm_total,
        r.peak_in_flight as u64,
        r.peak_queue as u64,
    ] {
        h.u64(x);
    }
    for hist in [&r.latency, &r.cost_sc, &r.cost_cc, &r.cost_dsm] {
        h.hist(hist);
    }
    h.u64(r.errors.len() as u64);
    for e in &r.errors {
        h.str(e);
    }
    h.0
}

/// The digest grid's arrival specs: every family, a saturating and a
/// sparse spec of the two seeded ones, and the sparse streams
/// (`steady:gap=64`, `poisson:rate=0.02`, a diurnal trough) on which
/// admissions are mostly solo.
const DIGEST_ARRIVALS: [&str; 6] = [
    "steady:gap=3",
    "steady:gap=64",
    "poisson:rate=0.3",
    "poisson:rate=0.02",
    "bursty:size=3,gap=7",
    "diurnal:period=512,peak=0.5,trough=0.01",
];

/// The digest grid's schedulers: two stateful rotations and the
/// preview-reading greedy adversary.
const DIGEST_SCHEDULERS: [&str; 3] = ["round-robin", "random", "greedy-adversary"];

/// One pinned digest per (algorithm, arrivals) row and scheduler; each
/// folds n = 2 under a deadline of 8 ticks and n = 4 with none.
#[rustfmt::skip]
const PINNED_SERVE_DIGESTS: [(&str, &str, [u64; 3]); 24] = [
    ("peterson", "steady:gap=3", [0x6f9e276d53aadfda, 0xfbb338501835c540, 0x5f2c846c2c3592f5]),
    ("peterson", "steady:gap=64", [0x69017587d36eb668, 0x4d305f881c5e815f, 0xaf37174645fe1ec3]),
    ("peterson", "poisson:rate=0.3", [0x2c82aa0211c9d27b, 0xd4d42ef60ff17324, 0x7331d6084e34ebbd]),
    ("peterson", "poisson:rate=0.02", [0xaccf29b335e965c9, 0x586afb7daa8908ec, 0xba9792c413333099]),
    ("peterson", "bursty:size=3,gap=7", [0x39ab1ca791279bc7, 0xac4e0e0c64cb0733, 0x90c0187df4a65ec8]),
    ("peterson", "diurnal:period=512,peak=0.5,trough=0.01", [0x24951343eadbaef4, 0xe065a91947fb4ea8, 0x32b0e08ae6996cf0]),
    ("dekker-tree", "steady:gap=3", [0x541806799a987075, 0x5dddab29a8c39d91, 0xad5842df51fa0857]),
    ("dekker-tree", "steady:gap=64", [0xa6c73cd664a30d3f, 0x3474c2c3e7110f3d, 0x63459930e22c0f6b]),
    ("dekker-tree", "poisson:rate=0.3", [0x04d4927fe55f3652, 0x2b1dc8a68e39b2b7, 0x0d4704629942358b]),
    ("dekker-tree", "poisson:rate=0.02", [0x4044cf1b7718111b, 0x8a7c7a06e4311f1e, 0xf7b3bfe38f6463fb]),
    ("dekker-tree", "bursty:size=3,gap=7", [0x945ac2d0b7cfc78d, 0xb9f92389706ae46d, 0xb296835e11d3c94d]),
    ("dekker-tree", "diurnal:period=512,peak=0.5,trough=0.01", [0x3e5acc88638a50cc, 0xa3b457343e0b0acf, 0x06c1dc28940632eb]),
    ("tas-sim", "steady:gap=3", [0x69ab5db55a203360, 0xea08b200d841511c, 0x46b5b76b5ed17bc8]),
    ("tas-sim", "steady:gap=64", [0x665bc1b64d72049b, 0x9e9b45de4f54451d, 0x6d06f1e31ee705eb]),
    ("tas-sim", "poisson:rate=0.3", [0xe2871b2777fab1c1, 0x040137b40818b573, 0x5cbf12080d254269]),
    ("tas-sim", "poisson:rate=0.02", [0xa94a3dfbfe9d84ad, 0x74646b64d3fa281c, 0x827f185729ce19cb]),
    ("tas-sim", "bursty:size=3,gap=7", [0x32c6280145a8862a, 0x837ccc3a03475121, 0x1ecd33fab908b32d]),
    ("tas-sim", "diurnal:period=512,peak=0.5,trough=0.01", [0xa1c39270bc376ac9, 0x6f1e6d65620244fe, 0xefe4fe19088d4a08]),
    ("ticket", "steady:gap=3", [0x39ac6e13a0e09215, 0x4b599c935a1769cc, 0x8bda49fc56764c94]),
    ("ticket", "steady:gap=64", [0x267e7328585d1c23, 0x5ffe42d40bef8cb7, 0x6cad765f074951e5]),
    ("ticket", "poisson:rate=0.3", [0xef944adbe0efbe36, 0x4f5b6d014d21b2c5, 0x447c954a889154be]),
    ("ticket", "poisson:rate=0.02", [0xbe87a38f29d0961a, 0x9fc6548cc6ebb3d6, 0x7b15e6640f632833]),
    ("ticket", "bursty:size=3,gap=7", [0x2a7a223aaed13ea3, 0xbf26f35b5222d6ef, 0xdd4d2ff2a0b99bc6]),
    ("ticket", "diurnal:period=512,peak=0.5,trough=0.01", [0x445633e83673914f, 0x392bbad61f231b0c, 0x0f8feb289110acbf]),
];

#[test]
fn serve_outputs_match_their_pinned_digests() {
    use exclusion::shmem::sched::{GreedyAdversary, Random, RoundRobin};
    use exclusion::shmem::Scheduler;

    let build = |sched: &str| -> fn(u64) -> Box<dyn Scheduler> {
        match sched {
            "round-robin" => |_| Box::new(RoundRobin::new()),
            "random" => |seed| Box::new(Random::new(seed)),
            _ => |_| Box::new(GreedyAdversary::new()),
        }
    };
    let mut got = Vec::new();
    for alg in ALGORITHMS {
        for arrivals in DIGEST_ARRIVALS {
            let digests = DIGEST_SCHEDULERS.map(|sched| {
                let mut h = Fnv::new();
                for (n, deadline) in [(2, Some(8)), (4, None)] {
                    let job = ServeJob::new(alg, n, 1_500)
                        .unwrap()
                        .arrivals(arrivals)
                        .unwrap()
                        .scheduler(sched, build(sched));
                    let report = serve(
                        &job,
                        &ServeOptions {
                            workers: 1,
                            stripe: 256,
                            deadline,
                            seed: 11,
                            ..ServeOptions::default()
                        },
                    );
                    h.u64(report_digest(&report));
                }
                h.0
            });
            got.push((alg, arrivals, digests));
        }
    }
    let table: String = got
        .iter()
        .map(|(alg, arrivals, d)| {
            format!(
                "    (\"{alg}\", \"{arrivals}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2]
            )
        })
        .collect();
    assert!(
        got.len() == PINNED_SERVE_DIGESTS.len()
            && got
                .iter()
                .zip(&PINNED_SERVE_DIGESTS)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && a.2 == b.2),
        "serve output changed; digests now:\n{table}"
    );
}
