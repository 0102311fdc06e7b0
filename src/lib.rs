//! `exclusion` — an executable reproduction of Fan & Lynch, *An
//! Ω(n log n) Lower Bound on the Cost of Mutual Exclusion* (PODC 2006).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`shmem`] — the paper's shared-memory model: deterministic process
//!   automata over registers, executions, replay, schedulers and crash
//!   injection;
//! * [`mutex`] — register-only mutual exclusion algorithms as automata
//!   (tournaments, bakery, filter, Dijkstra, Burns–Lynch, and
//!   deliberately broken locks);
//! * [`cost`] — the state-change (SC) cost model of Definition 3.1,
//!   plus cache-coherent (CC) and distributed-shared-memory (DSM)
//!   accounting;
//! * [`bound`] — the adaptive lower-bound adversary: the paper's
//!   information-theoretic strategy as an executable scheduler
//!   (`fanlynch`), the `force` game driver, and forced-cost curves
//!   fitted against `c·n·log₂n` at scales exhaustive search cannot
//!   reach;
//! * [`explore`] — bounded exhaustive state-space exploration:
//!   certified mutual-exclusion and deadlock-freedom verdicts (with
//!   replayable counterexamples for broken locks) and exact worst-case
//!   cost tables with witness schedules;
//! * [`lb`] — the lower-bound machinery itself: `construct` (Figure 1),
//!   `encode` (Figure 2), `decode` (Figure 3), and validators for every
//!   theorem;
//! * [`serve`] — the open-stream lock-service engine: composable
//!   seeded arrival models (Poisson, bursty, diurnal), a bounded
//!   in-flight ring with deadlines and abandonment, and sharded
//!   bit-identical reports with bounded-memory live percentiles;
//! * [`spin`] — real-hardware locks on `std::sync::atomic` mirroring
//!   the simulated family;
//! * [`workload`] — the adversarial scenario engine: pluggable
//!   schedulers (greedy cost-maximizing adversary, burst and staggered
//!   arrivals), scenario grids, and parallel sharded sweeps pricing
//!   executions under all three cost models;
//! * [`trace`] — the observability layer: structured probe events from
//!   every engine (cost charges, awareness merges, explorer layers),
//!   deterministic metrics aggregation, Chrome trace-event export, and
//!   count-throttled live progress — zero overhead when off.
//!
//! See `README.md` for a tour of the crates, the paper's pipeline and
//! the experiment tables.
//!
//! # Quickstart
//!
//! Run the paper's pipeline end to end for one permutation:
//!
//! ```
//! use exclusion::lb::{construct, decode, encode, ConstructConfig, Permutation};
//! use exclusion::mutex::DekkerTournament;
//!
//! let alg = DekkerTournament::new(8);
//! let pi = Permutation::unrank(8, 12_345);
//!
//! // Construct the adversarial execution α_π …
//! let c = construct(&alg, &pi, &ConstructConfig::default())?;
//! // … compress it to O(C(α_π)) bits …
//! let (bytes, bits) = encode(&c).to_bits();
//! println!("C = {} state changes, |E| = {bits} bits", c.cost());
//! // … and decompress it without knowing π.
//! let enc = exclusion::lb::Encoding::from_bits(&bytes, bits, 8)?;
//! let alpha = decode(&alg, &enc)?;
//! assert_eq!(alpha.critical_order(), pi.order());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use exclusion_bound as bound;
pub use exclusion_cost as cost;
pub use exclusion_explore as explore;
pub use exclusion_lb as lb;
pub use exclusion_mutex as mutex;
pub use exclusion_serve as serve;
pub use exclusion_shmem as shmem;
pub use exclusion_spin as spin;
pub use exclusion_trace as trace;
pub use exclusion_workload as workload;
