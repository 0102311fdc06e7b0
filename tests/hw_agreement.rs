//! Formal-vs-hardware agreement: the same registry name, resolved as a
//! priced formal automaton and as a real-atomics spin lock, served the
//! same arrival schedule, must tell the same story — who got in how
//! often — while each leg reports the cost the other cannot measure
//! (simulated SC/CC/DSM charges vs. wall-clock nanoseconds).
//!
//! The two gates run over the whole quick grid, five locks ×
//! [`ARRIVALS`] × [`NS`] (40 rows): every scenario's legs agree, and
//! the queue locks' simulated RMR per passage stays flat across sizes
//! where the register-only tournament's grows.

use exclusion::workload::hwbench::{passage_counts, run_scenario, HwRow, HwScenario};

/// The queue locks under test — the rows the flatness gate covers.
const QUEUE_LOCKS: [&str; 3] = ["mcs", "clh", "ticket"];

/// Contrast entries: a non-queue RMW lock and the register-only
/// tournament the lower bound applies to.
const CONTRAST: [&str; 2] = ["ttas-sim", "dekker-tree"];

/// Arrival scenarios. The first is the low-contention schedule the
/// flatness gate measures on: passages are disjoint in time, so
/// per-passage cost is the lock's uncontended footprint. The second
/// overlaps arrivals in bursts to exercise real queueing.
const ARRIVALS: [&str; 2] = ["steady:gap=64", "bursty"];

/// Process/thread counts the grid sweeps.
const NS: [usize; 4] = [2, 3, 4, 6];

/// Tolerated spread (max − min) of RMR per passage across [`NS`] on
/// the low-contention scenario. The schedule is deterministic and
/// uncontended, so a genuinely O(1) lock is *exactly* flat; anything
/// per-process leaks at least one whole access per added process.
const FLATNESS: f64 = 0.5;

fn scenario(alg: &str, arrivals: &str, n: usize) -> HwScenario {
    HwScenario {
        alg: alg.into(),
        arrivals: arrivals.into(),
        n,
        requests_per_process: 4,
        seed: 1,
        ns_per_tick: 200,
    }
}

/// Runs the quick grid, ([`QUEUE_LOCKS`] + [`CONTRAST`]) ×
/// [`ARRIVALS`] × [`NS`].
fn quick_grid() -> Vec<HwRow> {
    let mut rows = Vec::new();
    for alg in QUEUE_LOCKS.into_iter().chain(CONTRAST) {
        for arrivals in ARRIVALS {
            for n in NS {
                rows.push(
                    run_scenario(&scenario(alg, arrivals, n))
                        .unwrap_or_else(|e| panic!("{alg} under {arrivals} n={n}: {e}")),
                );
            }
        }
    }
    assert_eq!(rows.len(), 40);
    rows
}

/// The simulated RMR-per-passage spread (max − min) of `alg` across
/// the grid's sizes on the low-contention scenario.
fn rmr_spread(rows: &[HwRow], alg: &str) -> f64 {
    let series: Vec<f64> = rows
        .iter()
        .filter(|r| r.alg == alg && r.arrivals == ARRIVALS[0])
        .map(|r| r.sim.rmr_per_passage())
        .collect();
    assert_eq!(series.len(), NS.len(), "{alg}: one steady row per size");
    let max = series.iter().copied().fold(f64::MIN, f64::max);
    let min = series.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

/// Both legs of every grid scenario agree on the acquisition multiset:
/// per-thread passage counts match, and each leg's order is a
/// permutation of the other's (same length, same counts).
#[test]
fn sim_and_hw_legs_agree_on_acquisition_multisets() {
    for row in quick_grid() {
        let (alg, arrivals, n) = (&row.alg, &row.arrivals, row.n);
        assert!(row.agree, "{alg} under {arrivals} n={n}: legs must agree");
        assert_eq!(
            row.sim.passages, row.hw.passages,
            "{alg} under {arrivals} n={n}"
        );
        assert_eq!(
            passage_counts(&row.sim.order, n),
            passage_counts(&row.hw.order, n),
            "{alg} under {arrivals} n={n}: per-thread passage counts"
        );
        assert_eq!(row.sim.order.len(), row.hw.order.len());
    }
}

/// Every row carries both cost vocabularies: the simulated model
/// charges (SC/CC/DSM) and the measured wall-clock fields, with the
/// JSON noting that timing is excluded from byte-identity.
#[test]
fn rows_co_report_simulated_charges_and_measured_time() {
    let row = run_scenario(&scenario("mcs", ARRIVALS[0], 2)).expect("mcs scenario runs");
    assert!(row.sim.cc > 0, "simulated CC charges must be reported");
    assert!(row.sim.sc > 0, "simulated SC charges must be reported");
    assert!(row.hw.elapsed_ns > 0, "hardware leg must be timed");
    let json = row.to_json();
    for field in [
        "\"sc\":",
        "\"cc\":",
        "\"dsm\":",
        "\"elapsed_ns\":",
        "\"mean_wait_ns\":",
    ] {
        assert!(json.contains(field), "row JSON must carry {field}: {json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// The O(1)-RMR gate: across [`NS`] on the uncontended steady schedule
/// each queue lock's simulated RMR per passage is flat (within
/// [`FLATNESS`]), while the register-only tournament contrast entry
/// grows — the model boundary the harness exists to draw.
#[test]
fn queue_locks_are_rmr_flat_where_the_tournament_grows() {
    let rows = quick_grid();
    for alg in QUEUE_LOCKS {
        let spread = rmr_spread(&rows, alg);
        assert!(
            spread <= FLATNESS,
            "{alg}: RMR per passage must be flat across sizes, spread {spread}"
        );
    }
    let tournament = rmr_spread(&rows, "dekker-tree");
    assert!(
        tournament > FLATNESS,
        "dekker-tree: per-passage RMR should grow with n, spread {tournament}"
    );
}
