//! Property-based invariants over whole experiments: conservation,
//! determinism, and metric sanity for randomly drawn configurations.

use gridmon::core::{run_experiment, ExperimentResult, ExperimentSpec, Observe, SystemUnderTest};
use gridmon::jms::AckMode;
use gridmon::simcore::{SimDuration, SimTime};
use gridmon::simfault::{FaultKind, FaultSchedule};
use gridmon::simnet::Transport;
use gridmon::simos::NodeId;
use proptest::prelude::*;

fn arb_system() -> impl Strategy<Value = SystemUnderTest> {
    prop_oneof![
        Just(SystemUnderTest::NaradaSingle),
        Just(SystemUnderTest::NaradaDbn { brokers: 3 }),
        Just(SystemUnderTest::RgmaSingle),
        Just(SystemUnderTest::RgmaDistributed),
        Just(SystemUnderTest::GridlogSingle),
    ]
}

fn arb_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![
        Just(Transport::Tcp),
        Just(Transport::Nio),
        Just(Transport::Udp),
    ]
}

prop_compose! {
    fn arb_spec()(
        system in arb_system(),
        transport in arb_transport(),
        client_ack in any::<bool>(),
        generators in 2usize..40,
        msgs in 1u32..5,
        seed in any::<u64>(),
    ) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_default("prop", system, generators).scaled(msgs);
        spec.transport = transport;
        spec.ack_mode = if client_ack { AckMode::Client } else { AckMode::Auto };
        spec.seed = seed;
        spec
    }
}

/// One arbitrary fault (a crash brings its paired restart along), timed
/// so it can land inside the short publishing window of the scaled-down
/// specs above. Events firing past the horizon are legal — they simply
/// never trigger.
fn arb_fault() -> impl Strategy<Value = Vec<(u64, FaultKind)>> {
    let at = 10u64..80;
    prop_oneof![
        (at.clone(), 1u64..10, 1u32..10).prop_map(|(at, dur, prob)| {
            vec![(
                at,
                FaultKind::LinkLossBurst {
                    duration: SimDuration::from_secs(dur),
                    loss_prob: f64::from(prob) / 20.0,
                    node: None,
                },
            )]
        }),
        (at.clone(), 1u64..10).prop_map(|(at, dur)| {
            vec![(
                at,
                FaultKind::Partition {
                    duration: SimDuration::from_secs(dur),
                    group: vec![NodeId(0)],
                },
            )]
        }),
        // Crash with a scheduled restart: the paired case is the
        // recovery-interesting one; unpaired crashes exhaust the
        // reconnect budget, which the conformance suite covers.
        (at.clone(), 1u64..20).prop_map(|(at, down)| {
            vec![
                (at, FaultKind::BrokerCrash { broker: 0 }),
                (at + down, FaultKind::BrokerRestart { broker: 0 }),
            ]
        }),
        at.clone()
            .prop_map(|at| vec![(at, FaultKind::RegistryRestart)]),
        (at.clone(), 2u64..8).prop_map(|(at, dur)| {
            vec![(
                at,
                FaultKind::ServletStall {
                    node: NodeId(0),
                    duration: SimDuration::from_secs(dur),
                },
            )]
        }),
        (at, 2u64..15, 2u32..5).prop_map(|(at, dur, factor)| {
            vec![(
                at,
                FaultKind::NodeSlowdown {
                    node: NodeId(0),
                    duration: SimDuration::from_secs(dur),
                    factor: f64::from(factor),
                },
            )]
        }),
    ]
}

prop_compose! {
    /// 1–3 arbitrary faults merged into one schedule.
    fn arb_fault_schedule()(
        faults in proptest::collection::vec(arb_fault(), 1..3),
    ) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        for (at, kind) in faults.into_iter().flatten() {
            schedule = schedule.at(SimTime::from_secs(at), kind);
        }
        schedule
    }
}

/// The planes a run carries artifacts for.
fn carried(r: &ExperimentResult) -> Observe {
    [
        (r.trace.is_some(), Observe::TRACE),
        (r.profile.is_some(), Observe::PROFILE),
        (r.scope.is_some(), Observe::SCOPE),
        (r.slo.is_some(), Observe::SLO),
    ]
    .into_iter()
    .filter(|&(on, _)| on)
    .fold(Observe::default(), |set, (_, plane)| set | plane)
}

/// Runs a traced `base` plain and with the planes of `added` armed too,
/// and checks what arming any plane must leave alone: the reading
/// counts, the bit-identical RTT mean and spread, the kernel events and
/// the trace exports. Each side carries the artifacts of its own planes
/// and no others. Returns the (plain, armed) results for the plane's
/// own checks.
fn run_inert(
    base: ExperimentSpec,
    added: Observe,
) -> Result<(ExperimentResult, ExperimentResult), TestCaseError> {
    let armed = base.clone().observed(added);
    let a = run_experiment(&base);
    let b = run_experiment(&armed);
    prop_assert_eq!(a.summary.sent, b.summary.sent);
    prop_assert_eq!(a.summary.received, b.summary.received);
    prop_assert_eq!(
        a.summary.rtt_mean_ms.to_bits(),
        b.summary.rtt_mean_ms.to_bits()
    );
    prop_assert_eq!(
        a.summary.rtt_stddev_ms.to_bits(),
        b.summary.rtt_stddev_ms.to_bits()
    );
    prop_assert_eq!(
        a.events,
        b.events,
        "{:?} may not add or move kernel events",
        added
    );
    prop_assert_eq!(
        carried(&a),
        base.observe,
        "plain run carries only its own artifacts"
    );
    prop_assert_eq!(
        carried(&b),
        armed.observe,
        "armed run carries its planes' artifacts"
    );
    let (ta, tb) = (
        a.trace.as_ref().expect("traced"),
        b.trace.as_ref().expect("traced"),
    );
    prop_assert_eq!(&ta.jsonl, &tb.jsonl, "JSONL exports must be byte-identical");
    prop_assert_eq!(
        &ta.chrome,
        &tb.chrome,
        "Chrome exports must be byte-identical"
    );
    Ok((a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_and_sanity(spec in arb_spec()) {
        let r = run_experiment(&spec);
        let s = &r.summary;
        // Conservation: everything sent is either received or lost.
        prop_assert!(s.received <= s.sent, "received {} > sent {}", s.received, s.sent);
        prop_assert_eq!(s.sent, u64::from(spec.msgs_per_generator) * u64::from(r.connected));
        // Only UDP may lose (R-GMA at these scales, with warm-up, is
        // lossless, and gridlog always runs over TCP).
        if spec.transport != Transport::Udp
            || spec.system.is_rgma()
            || spec.system == SystemUnderTest::GridlogSingle
        {
            prop_assert_eq!(s.received, s.sent, "lossless configuration lost messages");
        }
        // Metric sanity.
        prop_assert!(s.rtt_mean_ms >= 0.0);
        prop_assert!(s.rtt_stddev_ms >= 0.0);
        prop_assert!((0.0..=1.0).contains(&s.loss_rate));
        prop_assert!((0.0..=1.0).contains(&r.server_idle));
        for w in s.percentiles_ms.windows(2) {
            prop_assert!(w[0].1 <= w[1].1, "percentiles must be monotone");
        }
        // Decomposition adds up (when all phases were observed).
        if s.received > 0 && s.prt_mean_ms > 0.0 && s.srt_mean_ms > 0.0 {
            let total = s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms;
            prop_assert!(
                (total - s.rtt_mean_ms).abs() < s.rtt_mean_ms * 0.05 + 0.1,
                "RTT {} != PRT+PT+SRT {}", s.rtt_mean_ms, total
            );
        }
    }

    #[test]
    fn determinism(spec in arb_spec()) {
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        prop_assert_eq!(a.summary.sent, b.summary.sent);
        prop_assert_eq!(a.summary.received, b.summary.received);
        prop_assert_eq!(a.summary.rtt_mean_ms.to_bits(), b.summary.rtt_mean_ms.to_bits());
        prop_assert_eq!(a.events, b.events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation and determinism under arbitrary fault schedules:
    /// the same seed must produce the same faults and the same
    /// degradation accounting, and nothing may be delivered that was
    /// never sent.
    #[test]
    fn faulted_runs_conserve_and_replay(
        spec in arb_spec(),
        schedule in arb_fault_schedule(),
    ) {
        let spec = spec.with_faults(schedule.clone());
        let a = run_experiment(&spec);
        // Conservation: after the drain, every sent message is either
        // delivered, attributably dropped, or still queued behind a
        // slowdown — never duplicated into view.
        prop_assert!(a.summary.received <= a.summary.sent,
            "received {} > sent {}", a.summary.received, a.summary.sent);
        let f = a.fault_stats.expect("faulted run reports stats");
        prop_assert!(f.reconnects <= f.reconnect_attempts);
        prop_assert!(f.injected <= schedule.events.len() as u64,
            "more faults fired than scheduled");
        // Determinism: same seed ⇒ same faults ⇒ identical run,
        // including the per-cause degradation accounting.
        let b = run_experiment(&spec);
        prop_assert_eq!(a.summary.sent, b.summary.sent);
        prop_assert_eq!(a.summary.received, b.summary.received);
        prop_assert_eq!(a.summary.rtt_mean_ms.to_bits(), b.summary.rtt_mean_ms.to_bits());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.fault_stats, b.fault_stats);
    }

    /// Zero overhead when off: a profiled run must be observationally
    /// identical to an unprofiled one — same events, bit-identical RTTs,
    /// byte-identical trace exports. The profiler only ever *reads* the
    /// effective cost the CPU model already computed (`execute_metered`
    /// diffs `total_work`), so turning it on may not move a single event.
    #[test]
    fn profiled_runs_are_byte_identical_to_plain(spec in arb_spec()) {
        run_inert(spec.traced(), Observe::PROFILE)?;
    }

    /// Zero interference from wall-clock scoping: a scoped run must be
    /// observationally identical to an unscoped one — same events,
    /// bit-identical RTTs, byte-identical trace AND profile exports.
    /// The hot-path probes only read the monotonic clock; they never
    /// touch the RNG, the event queue, or actor state, so arming them
    /// may not move a single event. Every conserved counter of the
    /// always-on kernel accounting is identical on both sides for the
    /// same reason (queue depths are shard-local heap shape, which two
    /// sharded runs of one spec need not share).
    #[test]
    fn scoped_runs_are_byte_identical_to_plain(spec in arb_spec()) {
        let (a, b) = run_inert(spec.traced().profiled(), Observe::SCOPE)?;
        prop_assert_eq!(a.kernel.determinism_digest(), b.kernel.determinism_digest(),
            "kernel event accounting must not change under scoping");
        let scope = b.scope.expect("scoped run carries hot-path artifacts");
        prop_assert_eq!(scope.report.to_json(), scope.json, "hotpath JSON re-generates byte-stably");
        let dispatch = scope.report.site("kernel.dispatch").expect("dispatch site present");
        prop_assert_eq!(dispatch.count, a.events, "one dispatch timing per kernel event");
        let (pa, pb) = (a.profile.expect("profiled"), b.profile.expect("profiled"));
        prop_assert_eq!(&pa.collapsed, &pb.collapsed,
            "virtual-time flamegraphs must be byte-identical");
        prop_assert_eq!(&pa.metrics_csv, &pb.metrics_csv,
            "metric time series must be byte-identical");
    }

    /// Zero perturbation from the freshness plane: an SLO-enabled run
    /// must be observationally identical to a plain one on every
    /// pre-existing artifact — same events, bit-identical RTTs,
    /// byte-identical trace exports. Arming it only adds the topic and
    /// per-subscriber columns to the RTT record, and every statistic is
    /// derived post-merge, so it may not move a single kernel event.
    #[test]
    fn slo_runs_are_byte_identical_to_plain(spec in arb_spec()) {
        let (_, b) = run_inert(spec.traced(), Observe::SLO)?;
        let s = b.slo.expect("SLO run carries artifacts");
        // Accounting closes: every published reading is exactly one of
        // on-time, late, or lost.
        prop_assert_eq!(
            s.report.on_time + s.report.late + s.report.lost,
            s.report.published,
            "SLO accounting does not close"
        );
        prop_assert!(s.csv.starts_with("t_s,metric,value"));
    }

    /// Profiler conservation: the attributed self-time table must sum to
    /// exactly the kernel's total submitted CPU work — every microsecond
    /// any CPU executed is charged to exactly one component (same spirit
    /// as `telemetry::Conservation` for messages).
    #[test]
    fn profiler_attributes_all_cpu_work(spec in arb_spec()) {
        let r = run_experiment(&spec.profiled());
        let p = r.profile.expect("profiled run carries artifacts");
        prop_assert_eq!(
            p.unattributed.as_micros(), 0,
            "unattributed CPU work: {} of {} µs (a charge site is missing)",
            p.unattributed.as_micros(), p.kernel_busy.as_micros()
        );
        prop_assert_eq!(p.attributed.as_micros(), p.kernel_busy.as_micros());
        // The rendered table carries the conservation evidence: a TOTAL
        // row equal to the kernel busy time.
        prop_assert!(p.table.contains("TOTAL"), "table has a TOTAL footer");
        // The metrics plane sampled something on the vmstat cadence.
        prop_assert!(p.metrics_csv.starts_with("t_s,metric,value"));
        prop_assert!(!p.prometheus.is_empty());
    }

    /// gridlog byte-identity (the dedicated guard over the new crate's
    /// instrumentation sites): a same-seed gridlog run must be
    /// bit-identical with trace, profile, and scope all enabled vs.
    /// plain, and the trace decomposition must agree with the
    /// independent `RttCollector` instants on every probe.
    #[test]
    fn gridlog_runs_byte_identical_under_observation(
        generators in 2usize..30,
        msgs in 1u32..5,
        seed in any::<u64>(),
    ) {
        let mut spec = ExperimentSpec::paper_default(
            "prop/gridlog",
            SystemUnderTest::GridlogSingle,
            generators,
        )
        .scaled(msgs);
        spec.seed = seed;
        let plain = run_experiment(&spec);
        let traced = run_experiment(&spec.clone().traced());
        let observed = run_experiment(&spec.clone().traced().profiled().scoped());
        // Measurements and kernel events are identical across all three
        // observation levels: the planes sample on the vmstat tick every
        // run has.
        for r in [&traced, &observed] {
            prop_assert_eq!(plain.events, r.events, "a plane added kernel events");
            prop_assert_eq!(
                plain.kernel.determinism_digest(),
                r.kernel.determinism_digest()
            );
            prop_assert_eq!(plain.summary.sent, r.summary.sent);
            prop_assert_eq!(plain.summary.received, r.summary.received);
            prop_assert_eq!(
                plain.summary.rtt_mean_ms.to_bits(),
                r.summary.rtt_mean_ms.to_bits()
            );
            prop_assert_eq!(
                plain.summary.rtt_stddev_ms.to_bits(),
                r.summary.rtt_stddev_ms.to_bits()
            );
        }
        // The append-only log loses nothing fault-free.
        prop_assert_eq!(plain.summary.received, plain.summary.sent);
        prop_assert!(observed.trace.is_some(), "traced run carries artifacts");
        let p = observed.profile.expect("profiled run carries artifacts");
        prop_assert_eq!(p.unattributed.as_micros(), 0,
            "gridlog left CPU work unattributed");
        prop_assert!(p.table.contains("gridlog."),
            "profile table attributes gridlog components");
    }

    /// An empty schedule must be indistinguishable from a build without
    /// fault support: no injector service, no recovery policies, and
    /// byte-identical trace exports (the determinism guard over the
    /// fault probes sprinkled through simnet/narada/rgma).
    #[test]
    fn empty_schedule_is_byte_identical_to_no_faults(spec in arb_spec()) {
        let plain = spec.clone().traced();
        let gated = spec.traced().with_faults(FaultSchedule::new());
        let a = run_experiment(&plain);
        let b = run_experiment(&gated);
        prop_assert_eq!(a.summary.sent, b.summary.sent);
        prop_assert_eq!(a.summary.rtt_mean_ms.to_bits(), b.summary.rtt_mean_ms.to_bits());
        prop_assert_eq!(a.events, b.events);
        prop_assert!(b.fault_stats.is_none(), "no injector may be registered");
        let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
        prop_assert_eq!(&ta.jsonl, &tb.jsonl, "JSONL exports must be byte-identical");
        prop_assert_eq!(&ta.chrome, &tb.chrome, "Chrome exports must be byte-identical");
        prop_assert!(!ta.jsonl.contains("fault"),
            "no-fault exports must not mention fault counters");
    }
}
