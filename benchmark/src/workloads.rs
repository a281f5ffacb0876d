//! The workloads, the two passes over them, and the correctness gate.
//!
//! Everything here reaches the simulator through its public API
//! (`gridmon_core::run_experiment` and the public `ExperimentResult`)
//! and times it from outside: `ExperimentResult::wall_secs` is stamped
//! before the merge and the artifact rendering, which on an observed run
//! is almost half the cost.

use crate::alloc::counted;
use crate::layers;
use crate::metrics::{median, Outcome, Values};
use crate::spans::{SpanId, Spans};
use crate::yardstick;
use gridmon_core::scenarios::three_way_specs;
use gridmon_core::{run_experiment, ExperimentResult, ExperimentSpec, SloSpec, SystemUnderTest};
use std::time::Instant;

/// Messages per generator of the discarded warm-up before the timed
/// reps: the first run in a process measured up to 1.66x slower.
const WARMUP_MSGS: u32 = 5;
/// One rep of a workload with its yardstick bursts takes 7 s to 11 s on
/// the 2-core host the bounds were measured on; `--seconds` buys
/// `seconds / 10` reps.
const REP_NOMINAL_S: u64 = 10;
/// The seeds one rep of a single-spec workload runs back to back.
const SEEDS_PER_REP: u64 = 3;
/// Set-ups: 3 discarded, then 7 before each rep — a fixed number, so
/// that the heap every rep finds, and with it peak_rss_mb, repeats.
const SETUP_DISCARDED: usize = 3;
const SETUPS_PER_REP: usize = 7;
/// Yardstick chunks between two set-ups (7 ms) and two legs (0.3 s).
const SETUP_CHUNKS: usize = 1;
const LEG_CHUNKS: usize = 40;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The experiments of one rep, in order, for a seed and a message
    /// count per generator.
    legs: fn(u64, u32) -> Vec<ExperimentSpec>,
    /// The legs whose simulated statistics the workload reports (their
    /// mean): legs of one spec that differ in the seed alone.
    reference_legs: std::ops::Range<usize>,
    /// The legs of a rep after which every spec of the workload has run
    /// once. `peak_rss_mb` is read there: what running the workload
    /// costs on a heap no earlier run fragmented. Legs that repeat a spec
    /// with another seed sit on the heap the earlier ones left, and at
    /// random reach a peak up to 12 % higher.
    distinct_legs: usize,
    /// Whether the trace pass also times the two probe specs.
    hosts_probes: bool,
}

fn seeded(mut spec: ExperimentSpec, seed: u64) -> ExperimentSpec {
    spec.seed = seed;
    spec
}

fn dbn(name: &str, generators: usize, seed: u64, msgs: u32) -> ExperimentSpec {
    let system = SystemUnderTest::NaradaDbn { brokers: 3 };
    seeded(
        ExperimentSpec::paper_default(name, system, generators).scaled(msgs),
        seed,
    )
}

/// Three seeds of a third of the messages each: the work of one
/// 180-message run in legs short enough for the yardstick bursts around
/// them to see the host they ran on (an 11 s leg is not, see NOISE.md).
fn narada_dbn_4000(seed: u64, msgs: u32) -> Vec<ExperimentSpec> {
    (0..SEEDS_PER_REP)
        .map(|i| {
            dbn(
                &format!("narada-dbn-4000/{i}"),
                4000,
                seed.wrapping_add(i),
                msgs.div_ceil(SEEDS_PER_REP as u32),
            )
        })
        .collect()
}

fn rgma_dist_1000(seed: u64, msgs: u32) -> Vec<ExperimentSpec> {
    (0..SEEDS_PER_REP)
        .map(|i| {
            let spec = ExperimentSpec::paper_default(
                format!("rgma-dist-1000/{i}"),
                SystemUnderTest::RgmaDistributed,
                1000,
            );
            seeded(spec.scaled(msgs), seed.wrapping_add(i))
        })
        .collect()
}

fn three_way_observed_400(seed: u64, msgs: u32) -> Vec<ExperimentSpec> {
    three_way_specs(msgs)
        .into_iter()
        .map(|s| {
            seeded(s, seed)
                .traced()
                .profiled()
                .with_slo(SloSpec::grid_default())
        })
        .collect()
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "narada-dbn-4000",
        why: "Paper ceiling (figs 6, 7, 9), 3 seeds x 60 msgs: 5 M events of simcore queue/dispatch, simnet fabric and \
              narada route/match/DBN flood; rgma, minisql, gridlog and the planes do nothing.",
        legs: narada_dbn_4000,
        reference_legs: 0..SEEDS_PER_REP as usize,
        distinct_legs: 1,
        hosts_probes: true,
    },
    Workload {
        name: "rgma-dist-1000",
        why: "R-GMA ceiling (figs 11, 13, 14), 3 seeds: simnet::http, rgma servlets and polling, \
              minisql, simos metering; no jms or narada code runs, so it bypasses every broker change.",
        legs: rgma_dist_1000,
        reference_legs: 0..SEEDS_PER_REP as usize,
        distinct_legs: 1,
        hosts_probes: false,
    },
    Workload {
        name: "three-way-observed-400",
        why: "narada, rgma, gridlog at 400 generators, traced+profiled+SLO: the recording side of \
              every plane, merge_results and export rendering (about half the wall), and the only gridlog leg.",
        legs: three_way_observed_400,
        // gridlog: the contender no other workload runs.
        reference_legs: 2..3,
        distinct_legs: 3,
        hosts_probes: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One finished experiment, its exports already consumed.
struct Leg {
    system: SystemUnderTest,
    msgs: u32,
    result: ExperimentResult,
    start: Instant,
    /// Wall from outside `run_experiment`, merge, rendering and the
    /// release of the rendered exports included.
    outer_s: f64,
    /// Bytes of the JSONL and Chrome trace exports.
    export_bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
}

fn run_leg(spec: &ExperimentSpec, count_allocs: bool) -> Leg {
    let start = Instant::now();
    let (mut result, allocs, alloc_bytes) = if count_allocs {
        counted(|| run_experiment(spec))
    } else {
        (run_experiment(spec), 0, 0)
    };
    // A user writes the rendered exports out and lets them go; holding
    // three legs' worth would only inflate peak_rss_mb.
    let mut export_bytes = 0;
    if let Some(t) = &mut result.trace {
        export_bytes = (t.jsonl.len() + t.chrome.len()) as u64;
        t.jsonl = String::new();
        t.chrome = String::new();
    }
    if let Some(p) = &mut result.profile {
        p.prometheus = String::new();
        p.metrics_csv = String::new();
    }
    if let Some(s) = &mut result.slo {
        s.csv = String::new();
    }
    Leg {
        system: spec.system,
        msgs: spec.msgs_per_generator,
        result,
        start,
        outer_s: start.elapsed().as_secs_f64(),
        export_bytes,
        allocs,
        alloc_bytes,
    }
}

/// One rep: every leg back to back, with the wall around all of them.
struct Rep {
    legs: Vec<Leg>,
    start: Instant,
    wall_s: f64,
}

impl Rep {
    fn run(specs: &[ExperimentSpec], count_allocs: bool) -> Rep {
        let start = Instant::now();
        let legs = specs.iter().map(|s| run_leg(s, count_allocs)).collect();
        Rep {
            legs,
            start,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// A rep whose legs were run one by one.
    fn of(legs: Vec<Leg>) -> Rep {
        Rep {
            start: legs[0].start,
            wall_s: legs.iter().map(|l| l.outer_s).sum(),
            legs,
        }
    }

    fn attempted(&self) -> u64 {
        self.legs
            .iter()
            .map(|l| l.result.generators as u64 * u64::from(l.msgs))
            .sum()
    }

    fn received(&self) -> u64 {
        self.legs.iter().map(|l| l.result.summary.received).sum()
    }

    fn events(&self) -> u64 {
        self.legs.iter().map(|l| l.result.events).sum()
    }

    fn leg_of(&self, system: SystemUnderTest) -> Option<&Leg> {
        self.legs.iter().find(|l| l.system == system)
    }

    /// Mean of `f` over the workload's reference legs.
    fn reference(&self, w: &Workload, f: fn(&ExperimentResult) -> f64) -> f64 {
        let legs = &self.legs[w.reference_legs.clone()];
        legs.iter().map(|l| f(&l.result)).sum::<f64>() / legs.len() as f64
    }
}

fn warm_up(w: &Workload, seed: u64) {
    Rep::run(&(w.legs)(seed, WARMUP_MSGS), false);
}

fn p99_ms(result: &ExperimentResult) -> f64 {
    result
        .summary
        .percentiles_ms
        .iter()
        .find(|(p, _)| *p == 99)
        .map_or(0.0, |(_, ms)| *ms)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The correctness gate of one leg; failures go to `failed`.
fn check_leg(leg: &Leg, failed: &mut Vec<String>) {
    let r = &leg.result;
    let mut check = |ok: bool, what: String| {
        if !ok {
            failed.push(format!("{}: {what}", r.name));
        }
    };
    check(r.refused == 0, format!("{} generators refused", r.refused));
    check(
        r.published == u64::from(r.connected) * u64::from(leg.msgs),
        format!(
            "published {} != connected {} x msgs {}",
            r.published, r.connected, leg.msgs
        ),
    );
    check(
        r.summary.sent == r.published,
        format!("probed {} != published {}", r.summary.sent, r.published),
    );
    check(
        r.summary.received <= r.summary.sent,
        format!("received {} > sent {}", r.summary.received, r.summary.sent),
    );
    if let Some(t) = &r.trace {
        check(
            t.disagreements.is_empty(),
            format!("{} trace/RTT disagreements", t.disagreements.len()),
        );
    }
    if let Some(p) = &r.profile {
        check(
            p.unattributed.as_micros() == 0,
            format!("{} us of CPU unattributed", p.unattributed.as_micros()),
        );
    }
    if let Some(s) = &r.slo {
        let rep = &s.report;
        check(
            rep.stamp_disagreements == 0,
            format!("{} publish-stamp disagreements", rep.stamp_disagreements),
        );
        check(
            rep.on_time + rep.late + rep.lost == r.published,
            format!(
                "on_time {} + late {} + lost {} != published {}",
                rep.on_time, rep.late, rep.lost, r.published
            ),
        );
    }
}

/// The gate of one rep: every leg, plus the paper's ordering where the
/// three contenders ran the same workload.
fn check_rep(rep: &Rep, failed: &mut Vec<String>) {
    for leg in &rep.legs {
        check_leg(leg, failed);
    }
    let mean_of = |system| rep.leg_of(system).map(|l| l.result.summary.rtt_mean_ms);
    if let (Some(narada), Some(rgma), Some(gridlog)) = (
        mean_of(SystemUnderTest::NaradaSingle),
        mean_of(SystemUnderTest::RgmaSingle),
        mean_of(SystemUnderTest::GridlogSingle),
    ) {
        if !(rgma > gridlog && gridlog > narada) {
            failed.push(format!(
                "paper ordering rgma > gridlog > narada broken: {rgma} / {gridlog} / {narada} ms"
            ));
        }
    }
}

/// Two runs of one spec that must be the same simulation: equal kernel
/// digests and equal RTT summaries.
fn check_same_simulation(
    what: &str,
    a: &ExperimentResult,
    b: &ExperimentResult,
    failed: &mut Vec<String>,
) {
    if a.kernel.determinism_digest() != b.kernel.determinism_digest() {
        failed.push(format!("{}: kernel digest differs {what}", a.name));
    }
    if format!("{:?}", a.summary) != format!("{:?}", b.summary) {
        failed.push(format!("{}: RTT summary differs {what}", a.name));
    }
}

/// `host_s` as it would be on the reference host, by the yardstick burst
/// before it (`chunk_s`) and one of `chunks` run now, which replaces it.
fn scaled(host_s: f64, chunk_s: &mut f64, chunks: usize) -> f64 {
    let before = std::mem::replace(chunk_s, yardstick::burst(chunks));
    yardstick::on_reference_host(host_s, (before + *chunk_s) / 2.0)
}

/// `--trace 0`: the end-to-end metrics, every plane as the workload
/// states, no spans, no allocation counting. `msgs` is 180 outside tests.
///
/// Every rep is the same simulation. Host time is taken leg by leg and
/// set-up by set-up, each between two bursts of the yardstick and scaled
/// by them to the reference host (`yardstick`); `wall_s` sums over the
/// legs the median of a leg's reps, `setup_s` is the median set-up.
pub fn end_to_end(w: &Workload, seed: u64, seconds: u64, msgs: u32) -> Outcome {
    let mut checks_failed = Vec::new();
    let specs = (w.legs)(seed, msgs);
    // Set-up: world build, simulated connect/subscribe ramp and an empty
    // merge, i.e. the workload with nothing to publish.
    let idle = (w.legs)(seed, 0);
    for _ in 0..SETUP_DISCARDED {
        Rep::run(&idle, false);
    }
    warm_up(w, seed);

    let reps = (seconds / REP_NOMINAL_S).max(1) as usize;
    let mut setup_s = Vec::new();
    let mut leg_s = vec![Vec::new(); specs.len()];
    let mut first: Option<Rep> = None;
    let mut rss_mb = 0.0;
    let mut chunk_s = yardstick::burst(SETUP_CHUNKS);
    for k in 0..reps {
        for _ in 0..SETUPS_PER_REP {
            let host_s = Rep::run(&idle, false).wall_s;
            setup_s.push(scaled(host_s, &mut chunk_s, SETUP_CHUNKS));
        }
        chunk_s = yardstick::burst(LEG_CHUNKS);

        let mut legs = Vec::new();
        for (spec, reps_s) in specs.iter().zip(&mut leg_s) {
            let leg = run_leg(spec, false);
            reps_s.push(scaled(leg.outer_s, &mut chunk_s, LEG_CHUNKS));
            eprintln!(
                "{} rep {k}: {:.3} s, {:.3} s on the reference host (yardstick {:.3} ms)",
                leg.result.name,
                leg.outer_s,
                reps_s[k],
                chunk_s * 1e3
            );
            legs.push(leg);
            if k == 0 && legs.len() == w.distinct_legs {
                rss_mb = peak_rss_mb();
            }
        }
        match &first {
            None => {
                let rep = Rep::of(legs);
                check_rep(&rep, &mut checks_failed);
                first = Some(rep);
            }
            Some(first) => {
                for (a, b) in first.legs.iter().zip(&legs) {
                    check_same_simulation(
                        &format!("between rep 0 and rep {k}"),
                        &a.result,
                        &b.result,
                        &mut checks_failed,
                    );
                }
            }
        }
    }

    let rep = first.expect("at least one rep");
    let wall_s: f64 = leg_s.iter().map(|reps_s| median(reps_s)).sum();
    let (attempted, received) = (rep.attempted(), rep.received());
    let values = Values::from([
        ("wall_s", wall_s),
        ("readings_per_s", received as f64 / wall_s),
        ("peak_rss_mb", rss_mb),
        ("setup_s", median(&setup_s)),
        (
            "sim_rtt_mean_ms",
            rep.reference(w, |r| r.summary.rtt_mean_ms),
        ),
        (
            "sim_delivered_ppm",
            received as f64 / attempted as f64 * 1e6,
        ),
    ]);
    Outcome {
        values,
        attempted,
        failed: attempted - received,
        checks_failed,
    }
}

/// Host seconds (probe overhead subtracted) and count of a `simscope`
/// site, summed over the legs.
fn site(rep: &Rep, name: &str) -> (f64, f64) {
    let (mut nanos, mut count) = (0, 0);
    for leg in &rep.legs {
        let report = &leg
            .result
            .scope
            .as_ref()
            .expect("traced legs are scoped")
            .report;
        if let Some(row) = report.site(name) {
            nanos += report.corrected_nanos(row);
            count += row.count;
        }
    }
    (nanos as f64 / 1e9, count as f64)
}

/// Simulated self-time of a `simprof` component in seconds, summed over
/// the legs: the collapsed stacks whose leaf frame is the component.
fn self_time_s(rep: &Rep, component: &str) -> f64 {
    let mut micros = 0u64;
    for leg in &rep.legs {
        let profile = leg
            .result
            .profile
            .as_ref()
            .expect("traced legs are profiled");
        for line in profile.collapsed.lines() {
            let (stack, us) = line.rsplit_once(' ').expect("`stack micros` line");
            if stack.rsplit(';').next() == Some(component) {
                micros += us.parse::<u64>().expect("integer microseconds");
            }
        }
    }
    micros as f64 / 1e6
}

/// `--trace 1`: the per-layer metrics. The reference rep once as the
/// workload states (plain) and once more with `.scoped().profiled()` and
/// allocation counting (traced), then the layers pass, then the probes.
/// Spans of all of it go to `trace_path`.
pub fn per_layer(w: &Workload, seed: u64, msgs: u32, trace_path: &std::path::Path) -> Outcome {
    let mut checks_failed = Vec::new();
    let mut spans = Spans::new();
    let mut v = Values::new();
    let specs = (w.legs)(seed, msgs);
    let (mut attempted, mut received) = (0, 0);

    spans.time(w.name, None, |spans, root| {
        warm_up(w, seed);
        let plain = Rep::run(&specs, false);
        let traced_specs: Vec<ExperimentSpec> = specs
            .iter()
            .map(|s| s.clone().scoped().profiled())
            .collect();
        let traced = Rep::run(&traced_specs, true);
        for (name, rep) in [("pass.plain", &plain), ("pass.traced", &traced)] {
            check_rep(rep, &mut checks_failed);
            let pass = spans.add(name, Some(root), rep.start, rep.wall_s);
            for leg in &rep.legs {
                let id = spans.add(&leg.result.name, Some(pass), leg.start, leg.outer_s);
                let run_s = leg.result.wall_secs;
                spans.add("core.run", Some(id), leg.start, run_s);
                let merge_start = leg.start + std::time::Duration::from_secs_f64(run_s);
                spans.add(
                    "core.merge_render",
                    Some(id),
                    merge_start,
                    leg.outer_s - run_s,
                );
            }
        }
        for (a, b) in plain.legs.iter().zip(&traced.legs) {
            check_same_simulation(
                "between the plain and the traced run",
                &a.result,
                &b.result,
                &mut checks_failed,
            );
        }
        attempted = plain.attempted() + traced.attempted();
        received = plain.received() + traced.received();

        let events = traced.events() as f64;
        let sum = |f: fn(&Leg) -> f64| traced.legs.iter().map(f).sum::<f64>();
        let max = |f: fn(&Leg) -> f64| traced.legs.iter().map(f).fold(0.0, f64::max);
        v.insert("simcore.events", events);
        v.insert("simcore.host_ns_per_event", plain.wall_s * 1e9 / events);
        v.insert("simcore.dispatch_s", site(&traced, "kernel.dispatch").0);
        v.insert("simcore.queue_push_s", site(&traced, "kernel.queue.push").0);
        v.insert("simcore.queue_pop_s", site(&traced, "kernel.queue.pop").0);
        v.insert(
            "simcore.timer_event_share",
            sum(|l| l.result.kernel.timer_scheduled as f64)
                / sum(|l| l.result.kernel.scheduled_total as f64),
        );
        v.insert(
            "simcore.peak_queue_depth",
            max(|l| l.result.kernel.peak_queue_depth as f64),
        );
        v.insert("core.allocs_per_event", sum(|l| l.allocs as f64) / events);
        v.insert(
            "core.alloc_bytes_per_event",
            sum(|l| l.alloc_bytes as f64) / events,
        );
        let run_s = sum(|l| l.result.wall_secs);
        v.insert("core.run_s", run_s);
        v.insert("core.merge_render_s", traced.wall_s - run_s);
        v.insert("core.trace_overhead_ratio", traced.wall_s / plain.wall_s);
        for (metric, system) in [
            ("core.leg_narada_s", SystemUnderTest::NaradaSingle),
            ("core.leg_rgma_s", SystemUnderTest::RgmaSingle),
            ("core.leg_gridlog_s", SystemUnderTest::GridlogSingle),
        ] {
            if let Some(leg) = traced.leg_of(system) {
                v.insert(metric, leg.outer_s);
            }
        }
        let (fabric_s, fabric_n) = site(&traced, "net.fabric.send");
        v.insert("simnet.fabric_send_s", fabric_s);
        v.insert("simnet.fabric_sends", fabric_n);
        let (execute_s, execute_n) = site(&traced, "os.execute");
        v.insert("simos.execute_s", execute_s);
        v.insert("simos.executes", execute_n);
        let (match_s, match_n) = site(&traced, "jms.match");
        v.insert("jms.match_s", match_s);
        v.insert("jms.matches", match_n);
        for (metric, component) in [
            ("simos.gc_sim_s", "simos.gc"),
            ("narada.route_sim_s", "narada.route"),
            ("narada.match_sim_s", "narada.match"),
            ("narada.transport_sim_s", "narada.transport"),
            ("rgma.servlet_sim_s", "rgma.servlet"),
            ("rgma.insert_sim_s", "rgma.insert"),
            ("rgma.select_sim_s", "rgma.select"),
            ("rgma.registry_sim_s", "rgma.registry"),
            ("rgma.client_sim_s", "rgma.client"),
            ("gridlog.append_sim_s", "gridlog.append"),
            ("gridlog.fetch_sim_s", "gridlog.fetch"),
            ("gridlog.client_sim_s", "gridlog.client"),
        ] {
            v.insert(metric, self_time_s(&traced, component));
        }
        v.insert(
            "simos.server_idle_frac",
            sum(|l| l.result.server_idle) / traced.legs.len() as f64,
        );
        v.insert("simos.server_mem_mb", max(|l| l.result.server_mem_mb));
        v.insert(
            "narada.forwards_per_reading",
            sum(|l| l.result.broker_forwards as f64) / sum(|l| l.result.published as f64),
        );
        v.insert("simtrace.export_bytes", sum(|l| l.export_bytes as f64));
        v.insert(
            "powergrid.connected",
            sum(|l| f64::from(l.result.connected)),
        );
        v.insert("powergrid.refused", sum(|l| f64::from(l.result.refused)));
        v.insert("telemetry.sim_rtt_p99_ms", traced.reference(w, p99_ms));

        spans.time("pass.layers", Some(root), |spans, pass| {
            v.extend(layers::run(spans, pass))
        });

        if w.hosts_probes {
            spans.time("pass.probes", Some(root), |spans, pass| {
                probes(seed, msgs, spans, pass, &mut v, &mut checks_failed)
            });
        }
    });

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    std::fs::write(trace_path, spans.to_chrome_json()).expect("write the trace file");

    Outcome {
        values: v,
        attempted,
        failed: attempted - received,
        checks_failed,
    }
}

/// Two specs whose wall is too unsteady from seed to seed for an
/// end-to-end bound (see README.md), timed once each at the scale
/// ROADMAP item 2 argues about.
///
/// * narada over UDP, 800 generators: the subscriber's selective-ack set
///   never drains after the first unrecovered gap, so cost per event
///   grows with run length. The exponent is log2(wall at `msgs / 2` over
///   wall at `msgs / 4`): about 1 when cost per event is flat.
/// * narada DBN, 2000 generators, serial against `.sharded(2)`: the
///   speed-up `simshard` delivers, and serial == sharded at paper scale.
fn probes(
    seed: u64,
    msgs: u32,
    spans: &mut Spans,
    pass: SpanId,
    v: &mut Values,
    failed: &mut Vec<String>,
) {
    let mut timed = |spec: &ExperimentSpec| {
        let leg = spans.time(&spec.name, Some(pass), |_, _| run_leg(spec, false));
        // UDP loses datagrams, connects included, by design: the gate
        // holds the leg to its accounting, not to full delivery.
        check_leg(&leg, failed);
        leg
    };

    let udp = |msgs: u32| {
        let mut spec = ExperimentSpec::paper_default(
            format!("probe/narada-udp-800/msgs{msgs}"),
            SystemUnderTest::NaradaSingle,
            800,
        );
        spec.transport = simnet::Transport::Udp;
        seeded(spec.scaled(msgs), seed)
    };
    let short = timed(&udp((msgs / 4).max(1)));
    let long = timed(&udp((msgs / 2).max(2)));
    v.insert("narada.udp_wall_s", long.outer_s);
    v.insert(
        "narada.udp_wall_growth_exponent",
        (long.outer_s / short.outer_s).log2(),
    );

    let serial = timed(&dbn("probe/narada-dbn-2000/serial", 2000, seed, msgs));
    let sharded = timed(&dbn("probe/narada-dbn-2000/shards2", 2000, seed, msgs).sharded(2));
    check_same_simulation(
        "between serial and 2 shards",
        &serial.result,
        &sharded.result,
        failed,
    );
    v.insert("simshard.sharded_wall_s", sharded.outer_s);
    v.insert(
        "simshard.speedup_vs_serial",
        serial.outer_s / sharded.outer_s,
    );
}
