//! Golden numbers: one representative run per deployment shape (both
//! Narada transports, the DBN flood, the three R-GMA servlet chains,
//! gridlog), measured against the grid-default SLO and compared for
//! *equality* with a literal table. Every number is read off the virtual
//! clock, so it is the same on any host and at any shard count; a line
//! that moves means the simulation changed, and the PR that moves it
//! replaces the literal and says why.

use gridmon::core::{run_all, ExperimentResult, ExperimentSpec, SystemUnderTest};
use gridmon::simnet::Transport;
use gridmon::simslo::SloSpec;

/// Messages per generator (the paper's runs are 180).
const MSGS: u32 = 20;

fn spec(name: &str, system: SystemUnderTest, generators: usize) -> ExperimentSpec {
    ExperimentSpec::paper_default(format!("golden/{name}"), system, generators)
        .scaled(MSGS)
        .with_slo(SloSpec::grid_default())
}

/// Each spec beside the line [`render`] must produce for it.
fn golden() -> Vec<(ExperimentSpec, &'static str)> {
    let mut udp = spec("narada-udp", SystemUnderTest::NaradaSingle, 800);
    udp.transport = Transport::Udp;
    vec![
        (
            spec("narada-tcp", SystemUnderTest::NaradaSingle, 800),
            "sent=16000 received=16000 rtt_mean_ms=6.535130 rtt_p99_ms=8.704000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=8.704000",
        ),
        (
            udp,
            "sent=15960 received=15952 rtt_mean_ms=10.494266 rtt_p99_ms=18.176000 \
             on_time=15952 late=0 lost=8 worst_burn=0.291971 delivery_p99_ms=18.176000",
        ),
        (
            spec("narada-dbn", SystemUnderTest::NaradaDbn { brokers: 3 }, 800),
            "sent=16000 received=16000 rtt_mean_ms=8.191986 rtt_p99_ms=10.624000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=10.624000",
        ),
        (
            spec("rgma-single", SystemUnderTest::RgmaSingle, 400),
            "sent=8000 received=8000 rtt_mean_ms=884.774008 rtt_p99_ms=1605.632000 \
             on_time=8000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=1605.632000",
        ),
        (
            spec("rgma-dist", SystemUnderTest::RgmaDistributed, 800),
            "sent=16000 received=16000 rtt_mean_ms=904.091204 rtt_p99_ms=1654.784000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=1654.784000",
        ),
        (
            spec("rgma-secondary", SystemUnderTest::RgmaSecondary, 100),
            "sent=2000 received=2000 rtt_mean_ms=17687.888007 rtt_p99_ms=32243.712000 \
             on_time=131 late=1869 lost=0 worst_burn=100.000000 delivery_p99_ms=32243.712000",
        ),
        (
            // Moved once (was rtt_mean_ms=11.341019, both p99s 16.128000):
            // the consumer applied every re-pushed same-epoch assignment
            // and ran nine fetch loops per partition, whose broker CPU the
            // readings queued behind. One loop per partition since.
            spec("gridlog", SystemUnderTest::GridlogSingle, 800),
            "sent=16000 received=16000 rtt_mean_ms=11.241422 rtt_p99_ms=15.104000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=15.104000",
        ),
    ]
}

/// Floats go through `{:.6}`, so the table holds decimal text, not bit
/// patterns typed by hand.
fn render(r: &ExperimentResult) -> String {
    let p99 = r.summary.percentiles_ms.iter().find(|(q, _)| *q == 99);
    let slo = &r.slo.as_ref().expect("spec carries an SLO").report;
    format!(
        "sent={} received={} rtt_mean_ms={:.6} rtt_p99_ms={:.6} \
         on_time={} late={} lost={} worst_burn={:.6} delivery_p99_ms={:.6}",
        r.summary.sent,
        r.summary.received,
        r.summary.rtt_mean_ms,
        p99.map_or(0.0, |(_, ms)| *ms),
        slo.on_time,
        slo.late,
        slo.lost,
        slo.worst_burn,
        slo.age_us.map_or(0.0, |h| h.p99 as f64 / 1000.0),
    )
}

#[test]
fn virtual_clock_numbers_match_the_golden_table() {
    let (specs, lines): (Vec<_>, Vec<_>) = golden().into_iter().unzip();
    for (result, line) in run_all(&specs, 0).iter().zip(lines) {
        assert_eq!(render(result), line, "{}", result.name);
    }
}
