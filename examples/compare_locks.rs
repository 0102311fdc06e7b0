//! Compare the whole simulated algorithm suite — register-only locks
//! and RMW-based locks — under all three cost models, uncontended and
//! contended.
//!
//! ```text
//! cargo run --release --example compare_locks [n]
//! ```

use exclusion::cost::all_costs;
use exclusion::mutex::{AlgorithmRegistry, ResolvedAlgorithm};
use exclusion::shmem::sched::{run_random, run_sequential};
use exclusion::shmem::{Automaton, DynRef, ProcessId};

/// The paper's register-only locks, then the RMW locks: every registry
/// entry that completes its runs and is not crash-recoverable.
fn suite(n: usize) -> Vec<ResolvedAlgorithm> {
    AlgorithmRegistry::global().resolve_where(n, |i| i.deadlock_free && !i.recoverable)
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let order: Vec<_> = ProcessId::all(n).collect();

    println!("canonical sequential executions, n = {n}:");
    println!(
        "{:>14} {:>8} {:>8} {:>8} {:>8}",
        "algorithm", "steps", "SC", "CC", "DSM"
    );
    for r in suite(n) {
        let alg = DynRef(r.automaton.as_ref());
        let exec = run_sequential(&alg, &order, 10_000_000).expect("canonical run");
        let (sc, cc, dsm) = all_costs(&alg, &exec).expect("replay");
        println!(
            "{:>14} {:>8} {:>8} {:>8} {:>8}",
            alg.name(),
            exec.shared_accesses(),
            sc.total(),
            cc.total(),
            dsm.total()
        );
    }

    println!("\ncontended random schedules (3 passages each, 4 seeds), n = {n}:");
    println!(
        "{:>14} {:>12} {:>12} {:>14}",
        "algorithm", "SC/passage", "CC/passage", "max SC/process"
    );
    for r in suite(n) {
        let alg = DynRef(r.automaton.as_ref());
        let mut sc_sum = 0usize;
        let mut cc_sum = 0usize;
        let mut max_proc = 0usize;
        let seeds = 4u64;
        for seed in 0..seeds {
            let exec = run_random(&alg, 3, 50_000_000, seed).expect("run");
            let (sc, cc, _) = all_costs(&alg, &exec).expect("replay");
            sc_sum += sc.total();
            cc_sum += cc.total();
            max_proc = max_proc.max(sc.max_process());
        }
        let passages = (n * 3 * seeds as usize) as f64;
        println!(
            "{:>14} {:>12.1} {:>12.1} {:>14}",
            alg.name(),
            sc_sum as f64 / passages,
            cc_sum as f64 / passages,
            max_proc
        );
    }
    println!(
        "\nThe SC model (the paper's) only charges state-changing accesses, so\n\
         single-register busy-waits are free; under contention the tournaments\n\
         pay Θ(log n) per passage and the scanners Θ(n)."
    );
}
