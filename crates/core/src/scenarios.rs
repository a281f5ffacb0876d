//! The scenario catalogue: one spec set per table/figure of the paper.
//!
//! Every function takes a `msgs_per_generator` scale: `180` reproduces
//! the paper's 30-minute runs; smaller values exercise identical
//! mechanisms for tests.

use crate::experiment::{ExperimentSpec, SystemUnderTest};
use jms::AckMode;
use rgma::RgmaConfig;
use simcore::SimDuration;
use simnet::Transport;

/// The paper's full scale (30 min at one message per 10 s).
pub const FULL_SCALE: u32 = 180;

/// `Err` when `msgs` messages per generator would run a spec of the
/// catalogue past [`MAX_HORIZON`](crate::experiment::MAX_HORIZON). The
/// longest run at every scale is distributed R-GMA at 1000 connections:
/// a 500 s creation ramp and a 30 s drain (a test keeps it the longest).
pub fn check_scale(msgs: u32) -> Result<(), String> {
    // Longest first, so the error names it.
    rgma_distributed_specs(msgs)
        .iter()
        .rev()
        .try_for_each(|s| s.horizon().map(drop))
}

/// Table II / fig 3 / fig 4: the six comparison tests at 800 generators
/// (80 for test 6 at 10× rate; test 5 uses triple payload at 1/3 rate).
pub fn table2_specs(msgs: u32) -> Vec<ExperimentSpec> {
    let base = |name: &str| {
        ExperimentSpec::paper_default(format!("table2/{name}"), SystemUnderTest::NaradaSingle, 800)
            .scaled(msgs)
    };
    let mut specs = Vec::new();
    // Test 1: UDP, AUTO_ACKNOWLEDGE.
    let mut udp = base("UDP");
    udp.transport = Transport::Udp;
    specs.push(udp);
    // Test 2: UDP, CLIENT_ACKNOWLEDGE.
    let mut udp_cli = base("UDP CLI");
    udp_cli.transport = Transport::Udp;
    udp_cli.ack_mode = AckMode::Client;
    specs.push(udp_cli);
    // Test 3: NIO.
    let mut nio = base("NIO");
    nio.transport = Transport::Nio;
    specs.push(nio);
    // Test 4: TCP.
    specs.push(base("TCP"));
    // Test 5: triple payload at one third the rate (same bytes total).
    let mut triple = base("Triple");
    triple.payload_repeat = 3;
    triple.publish_interval = SimDuration::from_secs(30);
    triple.msgs_per_generator = msgs.div_ceil(3).max(1);
    specs.push(triple);
    // Test 6: 80 connections at 10× the rate (same messages total).
    let mut eighty = base("80");
    eighty.generators = 80;
    eighty.publish_interval = SimDuration::from_secs(1);
    eighty.msgs_per_generator = msgs * 10;
    specs.push(eighty);
    specs
}

/// Figs 6–8: single-broker scalability (500–3000 connections, plus the
/// 4000-connection attempt the paper reports as refused).
pub fn narada_single_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [500usize, 1000, 2000, 3000]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("narada/single/{n}"),
                SystemUnderTest::NaradaSingle,
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// The paper's failed attempt: 4000 connections on one broker.
pub fn narada_single_4000(msgs: u32) -> ExperimentSpec {
    ExperimentSpec::paper_default("narada/single/4000", SystemUnderTest::NaradaSingle, 4000)
        .scaled(msgs)
}

/// Figs 6, 7, 9: Distributed Broker Network (4 brokers) at 2000–4000.
pub fn narada_dbn_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [2000usize, 3000, 4000]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("narada/dbn/{n}"),
                SystemUnderTest::NaradaDbn { brokers: 3 },
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// Fig 10: Primary + Secondary Producer chain at 50–200 connections.
pub fn rgma_secondary_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [50usize, 100, 200]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("rgma/secondary/{n}"),
                SystemUnderTest::RgmaSecondary,
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// Figs 11–13: single R-GMA server at 100–600 connections (800 refused).
pub fn rgma_single_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [100usize, 200, 400, 600]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("rgma/single/{n}"),
                SystemUnderTest::RgmaSingle,
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// The paper's failed attempt: 800 connections on one R-GMA server.
pub fn rgma_single_800(msgs: u32) -> ExperimentSpec {
    ExperimentSpec::paper_default("rgma/single/800", SystemUnderTest::RgmaSingle, 800).scaled(msgs)
}

/// Figs 11, 13, 14: distributed R-GMA at 400–1000 connections.
pub fn rgma_distributed_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [400usize, 600, 800, 1000]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("rgma/dist/{n}"),
                SystemUnderTest::RgmaDistributed,
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// gridlog: single-broker scalability series for the third contender
/// (same workload shape as the Narada series; the batching/long-poll
/// pipeline trades per-message latency for per-connection cost).
pub fn gridlog_single_specs(msgs: u32) -> Vec<ExperimentSpec> {
    [500usize, 1000, 2000]
        .into_iter()
        .map(|n| {
            ExperimentSpec::paper_default(
                format!("gridlog/single/{n}"),
                SystemUnderTest::GridlogSingle,
                n,
            )
            .scaled(msgs)
        })
        .collect()
}

/// Three-way comparison: the identical workload (400 generators — the
/// largest all three deployments accept — same period, same payload,
/// same seed) across Narada, R-GMA, and gridlog. The basis of the
/// EXPERIMENTS.md RTT + crash-loss comparison.
pub fn three_way_specs(msgs: u32) -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::paper_default("compare/narada", SystemUnderTest::NaradaSingle, 400)
            .scaled(msgs),
        ExperimentSpec::paper_default("compare/rgma", SystemUnderTest::RgmaSingle, 400)
            .scaled(msgs),
        ExperimentSpec::paper_default("compare/gridlog", SystemUnderTest::GridlogSingle, 400)
            .scaled(msgs),
    ]
}

/// The outage leg of the three-way comparison: the [`three_way_specs`]
/// workload with each contender's analogous mid-run outage injected.
/// Narada and gridlog lose their broker at t = 120 s (restart 150 s);
/// R-GMA has no broker, so its equivalent is the 20 s producer-servlet
/// stall. The fourth spec re-runs gridlog with CLIENT_ACKNOWLEDGE,
/// which maps onto committed-offset resume: the consumer group replays
/// the crash window from the durable log and loses nothing.
pub fn three_way_outage_specs(msgs: u32) -> Vec<ExperimentSpec> {
    let crash = simfault::FaultSchedule::scenario("broker-crash").expect("known scenario");
    let stall = simfault::FaultSchedule::scenario("servlet-stall").expect("known scenario");
    let mut narada =
        ExperimentSpec::paper_default("compare/narada+crash", SystemUnderTest::NaradaSingle, 400)
            .scaled(msgs);
    narada.faults = crash.clone();
    let mut rgma =
        ExperimentSpec::paper_default("compare/rgma+stall", SystemUnderTest::RgmaSingle, 400)
            .scaled(msgs);
    rgma.faults = stall;
    let mut gridlog =
        ExperimentSpec::paper_default("compare/gridlog+crash", SystemUnderTest::GridlogSingle, 400)
            .scaled(msgs);
    gridlog.faults = crash.clone();
    let mut committed = ExperimentSpec::paper_default(
        "compare/gridlog-committed+crash",
        SystemUnderTest::GridlogSingle,
        400,
    )
    .scaled(msgs);
    committed.ack_mode = AckMode::Client;
    committed.faults = crash;
    vec![narada, rgma, gridlog, committed]
}

/// Fig 15: RTT decomposition — Narada TCP at 800 and R-GMA single at 400.
pub fn fig15_specs(msgs: u32) -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::paper_default("fig15/narada", SystemUnderTest::NaradaSingle, 800)
            .scaled(msgs),
        ExperimentSpec::paper_default("fig15/rgma", SystemUnderTest::RgmaSingle, 400).scaled(msgs),
    ]
}

/// §III.F.1: 400 generators publishing with no warm-up wait (loss test).
pub fn rgma_no_warmup_spec(msgs: u32) -> ExperimentSpec {
    let mut spec =
        ExperimentSpec::paper_default("rgma/no-warmup/400", SystemUnderTest::RgmaSingle, 400)
            .scaled(msgs);
    spec.warmup = (SimDuration::from_millis(100), SimDuration::from_millis(300));
    spec
}

/// Ablation: DBN broadcast (v1.1.3) vs subscription-aware routing.
pub fn dbn_routing_ablation(msgs: u32, generators: usize) -> Vec<ExperimentSpec> {
    let mut broadcast = ExperimentSpec::paper_default(
        format!("ablation/dbn-broadcast/{generators}"),
        SystemUnderTest::NaradaDbn { brokers: 3 },
        generators,
    )
    .scaled(msgs);
    broadcast.dbn_broadcast = true;
    let mut routed = broadcast.clone();
    routed.name = format!("ablation/dbn-routed/{generators}");
    routed.dbn_broadcast = false;
    vec![broadcast, routed]
}

/// Ablation: the Secondary Producer's deliberate 30 s delay on vs off.
pub fn secondary_delay_ablation(msgs: u32) -> Vec<ExperimentSpec> {
    let with = ExperimentSpec::paper_default(
        "ablation/secondary-30s",
        SystemUnderTest::RgmaSecondary,
        100,
    )
    .scaled(msgs);
    let mut without = with.clone();
    without.name = "ablation/secondary-fast".into();
    without.rgma_config = Some(RgmaConfig::no_secondary_delay());
    vec![with, without]
}

/// Ablation: subscriber poll period (the paper's 100 ms quantization).
pub fn poll_period_ablation(msgs: u32) -> Vec<ExperimentSpec> {
    [10u64, 100, 500, 1000]
        .into_iter()
        .map(|ms| {
            let mut spec = ExperimentSpec::paper_default(
                format!("ablation/poll-{ms}ms"),
                SystemUnderTest::RgmaSingle,
                100,
            )
            .scaled(msgs);
            let mut cfg = RgmaConfig::glite_3_0();
            cfg.poll_period = SimDuration::from_millis(ms);
            spec.rgma_config = Some(cfg);
            spec
        })
        .collect()
}

/// Ablation: sender-side message aggregation (related work §IV, IBM
/// RMM): hold the byte rate constant while varying how many logical
/// readings share one wire message. Shows that message *quantity*, not
/// size, dominates middleware overhead.
pub fn aggregation_ablation(msgs: u32, generators: usize) -> Vec<ExperimentSpec> {
    [1usize, 3, 10]
        .into_iter()
        .map(|k| {
            let mut spec = ExperimentSpec::paper_default(
                format!("ablation/aggregate-{k}"),
                SystemUnderTest::NaradaSingle,
                generators,
            );
            spec.payload_repeat = k;
            spec.publish_interval = SimDuration::from_secs(10 * k as u64);
            spec.msgs_per_generator = (msgs / k as u32).max(1);
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper_settings() {
        let specs = table2_specs(FULL_SCALE);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].transport, Transport::Udp);
        assert_eq!(specs[1].ack_mode, AckMode::Client);
        assert_eq!(specs[3].transport, Transport::Tcp);
        // Equal total data: triple sends a third of the messages at 3×
        // payload; "80" sends 10× messages over a tenth the connections.
        assert_eq!(specs[4].payload_repeat, 3);
        assert_eq!(specs[4].msgs_per_generator, 60);
        assert_eq!(specs[5].generators, 80);
        assert_eq!(specs[5].msgs_per_generator, 1800);
        assert_eq!(
            specs[5].generators as u64 * u64::from(specs[5].msgs_per_generator),
            specs[3].generators as u64 * u64::from(specs[3].msgs_per_generator)
        );
        // Paper totals: 800 generators × 180 messages = 144,000.
        assert_eq!(
            specs[0].generators * specs[0].msgs_per_generator as usize,
            144_000
        );
    }

    #[test]
    fn scalability_series_cover_paper_axes() {
        let single = narada_single_specs(10);
        assert_eq!(single.len(), 4);
        assert_eq!(single.last().unwrap().generators, 3000);
        let dbn = narada_dbn_specs(10);
        assert_eq!(dbn.last().unwrap().generators, 4000);
        let rs = rgma_single_specs(10);
        assert_eq!(rs.last().unwrap().generators, 600);
        let rd = rgma_distributed_specs(10);
        assert_eq!(rd.last().unwrap().generators, 1000);
        let sec = rgma_secondary_specs(10);
        assert_eq!(sec[0].generators, 50);
        assert_eq!(narada_single_4000(10).generators, 4000);
        assert_eq!(rgma_single_800(10).generators, 800);
        assert_eq!(fig15_specs(10).len(), 2);
    }

    #[test]
    fn gridlog_series_and_three_way_share_the_workload() {
        let gl = gridlog_single_specs(10);
        assert_eq!(gl.len(), 3);
        assert!(gl
            .iter()
            .all(|s| s.system == SystemUnderTest::GridlogSingle));
        let tw = three_way_specs(10);
        assert_eq!(tw.len(), 3);
        // Identical workload and seed across the three contenders.
        for s in &tw {
            assert_eq!(s.generators, 400);
            assert_eq!(s.seed, tw[0].seed);
            assert_eq!(s.publish_interval, tw[0].publish_interval);
            assert_eq!(s.msgs_per_generator, tw[0].msgs_per_generator);
        }
        // The outage leg keeps the workload and flips only the fault
        // schedule (plus the ack axis on the committed-offset spec).
        let ow = three_way_outage_specs(10);
        assert_eq!(ow.len(), 4);
        for s in &ow {
            assert_eq!(s.generators, 400);
            assert_eq!(s.seed, tw[0].seed);
            assert!(!s.faults.is_empty());
        }
        assert_eq!(ow[3].ack_mode, AckMode::Client);
        assert_eq!(ow[2].system, SystemUnderTest::GridlogSingle);
    }

    #[test]
    fn ablations_flip_one_knob() {
        let ab = dbn_routing_ablation(5, 100);
        assert!(ab[0].dbn_broadcast && !ab[1].dbn_broadcast);
        let sec = secondary_delay_ablation(5);
        assert!(sec[0].rgma_config.is_none() && sec[1].rgma_config.is_some());
        assert_eq!(poll_period_ablation(5).len(), 4);
        let nw = rgma_no_warmup_spec(5);
        assert!(nw.warmup.1 < SimDuration::from_secs(1));
        let agg = aggregation_ablation(30, 100);
        assert_eq!(agg.len(), 3);
        // Constant byte rate: payload × messages is invariant.
        let volume: Vec<u64> = agg
            .iter()
            .map(|s| s.payload_repeat as u64 * u64::from(s.msgs_per_generator))
            .collect();
        assert_eq!(volume[0], volume[1]);
        assert_eq!(volume[0], volume[2]);
    }

    #[test]
    fn check_scale_reads_the_longest_spec_of_the_catalogue() {
        for msgs in [1, 7, FULL_SCALE, 54_920] {
            let specs = [
                table2_specs(msgs),
                narada_single_specs(msgs),
                vec![narada_single_4000(msgs)],
                narada_dbn_specs(msgs),
                rgma_secondary_specs(msgs),
                rgma_single_specs(msgs),
                vec![rgma_single_800(msgs)],
                gridlog_single_specs(msgs),
                three_way_specs(msgs),
                three_way_outage_specs(msgs),
                fig15_specs(msgs),
                vec![rgma_no_warmup_spec(msgs)],
                dbn_routing_ablation(msgs, 2000),
                secondary_delay_ablation(msgs),
                poll_period_ablation(msgs),
                aggregation_ablation(msgs, 800),
            ];
            let longest = rgma_distributed_specs(msgs).pop().expect("four specs");
            let bound = longest.horizon().expect("within the limit");
            for s in specs.iter().flatten() {
                assert!(
                    s.horizon().expect("within the limit") <= bound,
                    "{}",
                    s.name
                );
            }
            assert_eq!(check_scale(msgs), Ok(()));
        }
        // 10 s a message, plus a 500 s ramp, 20 s of warm-up and a 30 s
        // drain, within 2^39 µs = 549 755.8 s.
        let err = check_scale(54_921).expect_err("past 2^39 µs");
        assert!(
            err.contains("rgma/dist/1000") && err.contains("2^39"),
            "{err}"
        );
        assert!(check_scale(u32::MAX).is_err());
    }
}
