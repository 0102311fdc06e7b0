//! Integration: the acceptance bar for the open registries — a brand
//! new algorithm and a brand new scheduler, defined here in a test
//! crate, are registered and swept **using only public registry APIs**:
//! no enum variant, no parser arm, no CLI match was edited anywhere.

use std::sync::Arc;

use exclusion::cost::run_priced;
use exclusion::mutex::registry::{AlgorithmEntry, AlgorithmInfo, AlgorithmRegistry};
use exclusion::shmem::spec::ParamInfo;
use exclusion::shmem::{
    Automaton, CritKind, DynRef, NextStep, Observation, ProcessId, RegisterId, SchedContext,
    Scheduler, Spec, Value,
};
use exclusion::workload::{
    sweep, Scenario, SchedSpec, SchedulerEntry, SchedulerInfo, SchedulerRegistry, SweepOptions,
};

/// A downstream lock the built-in suite knows nothing about: a token
/// ring over a single `turn` register, with a configurable number of
/// courtesy re-reads (`linger`) before entering — enough structure to
/// exercise a spec parameter.
#[derive(Clone, Copy, Debug)]
struct TokenRing {
    n: usize,
    linger: u8,
}

impl Automaton for TokenRing {
    /// `(phase, lingers remaining)`.
    type State = (u8, u8);

    fn processes(&self) -> usize {
        self.n
    }
    fn registers(&self) -> usize {
        1
    }
    fn initial_state(&self, _pid: ProcessId) -> (u8, u8) {
        (0, self.linger)
    }
    fn next_step(&self, pid: ProcessId, state: &(u8, u8)) -> NextStep {
        match state.0 {
            0 => NextStep::Crit(CritKind::Try),
            1 => NextStep::Read(RegisterId::new(0)),
            2 => NextStep::Crit(CritKind::Enter),
            3 => NextStep::Crit(CritKind::Exit),
            4 => NextStep::Write(RegisterId::new(0), ((pid.index() + 1) % self.n) as Value),
            _ => NextStep::Crit(CritKind::Rem),
        }
    }
    fn observe(&self, pid: ProcessId, state: &(u8, u8), obs: Observation) -> (u8, u8) {
        match (state.0, obs) {
            (0, Observation::Crit) => (1, state.1),
            (1, Observation::Read(v)) if v == pid.index() as Value => {
                if state.1 > 0 {
                    // Courtesy re-read: holds the token but looks again.
                    (1, state.1 - 1)
                } else {
                    (2, 0)
                }
            }
            (1, _) => *state,
            (2, Observation::Crit) => (3, 0),
            (3, Observation::Crit) => (4, 0),
            (4, Observation::Write) => (5, 0),
            (5, Observation::Crit) => (0, self.linger),
            _ => *state,
        }
    }
    fn name(&self) -> String {
        "token-ring".into()
    }
}

/// A downstream scheduling policy: round robin in *descending* process
/// order — fair, deterministic, and not a built-in.
#[derive(Clone, Debug, Default)]
struct ReverseRobin {
    next: usize,
}

impl Scheduler for ReverseRobin {
    fn name(&self) -> String {
        "reverse-robin".into()
    }
    fn pick(&mut self, ctx: &SchedContext<'_>) -> Option<ProcessId> {
        let n = ctx.views.len();
        for _ in 0..n {
            let v = &ctx.views[n - 1 - (self.next % n)];
            self.next = (self.next + 1) % n;
            if !v.done {
                return Some(v.pid);
            }
        }
        None
    }
}

fn extended_registries() -> (AlgorithmRegistry, SchedulerRegistry) {
    let mut algs = AlgorithmRegistry::standard();
    algs.register(AlgorithmEntry::new(
        AlgorithmInfo {
            name: "token-ring".into(),
            aliases: vec![],
            summary: "single-register token ring with courtesy lingering".into(),
            min_n: 1,
            uses_rmw: false,
            recoverable: false,
            symmetric: false,
            deadlock_free: true,
            cost_class: "Θ(n)/handoff".into(),
            params: vec![ParamInfo {
                key: "linger",
                help: "courtesy re-reads before entering (default 0)",
            }],
        },
        |spec, n| {
            spec.expect_params(&["linger"], false)?;
            let linger = spec.usize_param("linger", 0)?;
            Ok(Arc::new(TokenRing {
                n,
                linger: u8::try_from(linger).map_err(|_| {
                    exclusion::shmem::SpecError::InvalidParam {
                        spec: spec.label(),
                        key: "linger".into(),
                        value: linger.to_string(),
                        expected: "at most 255".into(),
                    }
                })?,
            }))
        },
    ));
    let mut scheds = SchedulerRegistry::standard();
    scheds.register(SchedulerEntry::new(
        SchedulerInfo {
            name: "reverse-robin".into(),
            aliases: vec!["rrr".into()],
            summary: "round robin in descending pid order".into(),
            seeded: false,
            params: vec![],
        },
        |spec, _n| {
            spec.expect_params(&[], false)?;
            Ok((
                Spec::new("reverse-robin"),
                Arc::new(|_passages, _seed| Box::new(ReverseRobin::default()) as _),
            ))
        },
    ));
    (algs, scheds)
}

/// The headline: a scenario over the custom algorithm under the custom
/// scheduler builds, sweeps, and reports — through exactly the same
/// engine the built-ins use.
#[test]
fn custom_algorithm_and_scheduler_sweep_through_the_standard_engine() {
    let (algs, scheds) = extended_registries();
    let scenarios = vec![
        Scenario::builder("token-ring", 4)
            .passages(2)
            .sched(SchedSpec::parse("reverse-robin").unwrap())
            .build_with(&algs, &scheds)
            .unwrap(),
        Scenario::builder("token-ring:linger=3", 4)
            .passages(2)
            .sched(SchedSpec::parse("rrr").unwrap())
            .build_with(&algs, &scheds)
            .unwrap(),
        Scenario::builder("token-ring", 4)
            .passages(2)
            .sched(SchedSpec::random())
            .seeds(1..=4)
            .build_with(&algs, &scheds)
            .unwrap(),
    ];
    assert_eq!(scenarios[0].name, "token-ring/reverse-robin/n4x2");
    assert_eq!(scenarios[1].algorithm, "token-ring:linger=3");
    assert_eq!(scenarios[1].scheduler, "reverse-robin", "aliases normalize");

    let report = sweep(&scenarios, &SweepOptions::default());
    assert_eq!(report.records.len(), 1 + 1 + 4);
    for r in &report.records {
        assert!(r.error.is_none(), "{}: {:?}", r.scenario, r.error);
        assert!(r.sc > 0 && r.steps > 0);
    }
    // Lingering performs extra charged re-reads, so it strictly
    // outprices the plain ring under the same schedule.
    assert!(
        report.summaries[1].sc.max > report.summaries[0].sc.max,
        "linger=3 must cost more: {:?} vs {:?}",
        report.summaries[1].sc,
        report.summaries[0].sc
    );
    // And the JSON report carries the custom labels.
    let json = report.to_json();
    assert!(json.contains("token-ring:linger=3"));
    assert!(json.contains("reverse-robin"));
}

/// Custom entries also work through the direct streaming API, and
/// validation catches their parameter errors like any built-in's.
#[test]
fn custom_entries_validate_and_stream_like_builtins() {
    let (algs, scheds) = extended_registries();
    let handle = algs.resolve_str("token-ring:linger=2", 3).unwrap();
    let sched = scheds.resolve_str("reverse-robin", 3).unwrap();
    let priced = run_priced(
        &DynRef(handle.automaton.as_ref()),
        sched.build(1, 0).as_mut(),
        1,
        100_000,
    )
    .unwrap();
    assert!(priced.sc.total() > 0);

    let err = algs.resolve_str("token-ring:linger=999", 3).unwrap_err();
    assert!(err.to_string().contains("at most 255"), "{err}");
    let err = algs.resolve_str("token-ring:spin=1", 3).unwrap_err();
    assert!(err.to_string().contains("linger"), "{err}");
    // The custom name participates in suggestions too.
    let err = algs.resolve_str("token-rang", 3).unwrap_err();
    assert!(
        err.to_string().contains("did you mean `token-ring`"),
        "{err}"
    );
}
