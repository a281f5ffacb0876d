//! Golden numbers: one representative run per deployment shape (both
//! Narada transports, the DBN flood, the three R-GMA servlet chains,
//! gridlog), measured against the grid-default SLO and compared for
//! *equality* with a literal table. Every number is read off the virtual
//! clock or counted by the kernel (`events=`, every event executes on
//! exactly one shard), so it is the same on any host and at any shard
//! count; a line that moves means the simulation changed, and the PR
//! that moves it replaces the literal and says why. A change that leaves
//! the simulated numbers alone but adds, drops or moves an event shows
//! in `events=`.
//!
//! Beside each line sits the run's `KernelStats::determinism_digest()`:
//! per payload type, the events scheduled, executed, dropped and the
//! timers among them, and the totals those columns sum to. It is
//! shard-invariant by construction (`tests/shard_equivalence.rs`), so it
//! pins the kernel's one accounting record exactly at every
//! `GRIDMON_SHARDS` value.
//!
//! `fabric_sends=`, `executes=` and `jms_matches=` are the operation
//! counts of the `--scope` site table (each spec runs scoped; scoping is
//! inert, `scoped_runs_are_byte_identical_to_plain`). They catch a
//! host-cost change that leaves every simulated number and every event
//! alone — a second fabric send, CPU submission or selector match per
//! reading, or a quadratic re-send like a UDP ack list that grows with
//! the run.

use gridmon::core::{
    run_all, run_experiment, ExperimentResult, ExperimentSpec, Observe, SystemUnderTest,
};
use gridmon::simnet::Transport;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, Counting};

/// Messages per generator (the paper's runs are 180).
const MSGS: u32 = 20;

fn spec(name: &str, system: SystemUnderTest, generators: usize) -> ExperimentSpec {
    ExperimentSpec::paper_default(format!("golden/{name}"), system, generators)
        .scaled(MSGS)
        .observed(Observe::SLO)
        .scoped()
}

/// Each spec beside the line [`render`] must produce for it and its
/// kernel's `determinism_digest()`.
fn golden() -> Vec<(ExperimentSpec, &'static str, &'static str)> {
    let mut udp = spec("narada-udp", SystemUnderTest::NaradaSingle, 800);
    udp.transport = Transport::Udp;
    vec![
        (
            spec("narada-tcp", SystemUnderTest::NaradaSingle, 800),
            "connected=800 refused=0 \
             sent=16000 received=16000 rtt_mean_ms=6.535130 rtt_p99_ms=8.704000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=8.704000 \
             events=51055 \
             fabric_sends=33604 executes=64823 jms_matches=16000",
            "processed=51055 dropped=0 scheduled=51057 timers=17453 messages=33604\n\
             type Delivery scheduled=33604 executed=33604 dropped=0 timers=0\n\
             type PubTick scheduled=16000 executed=16000 dropped=0 timers=16000\n\
             type CreateGen scheduled=800 executed=800 dropped=0 timers=800\n\
             type Tick scheduled=653 executed=651 dropped=0 timers=653\n",
        ),
        (
            udp,
            "connected=798 refused=0 \
             sent=15960 received=15952 rtt_mean_ms=10.494266 rtt_p99_ms=18.176000 \
             on_time=15952 late=0 lost=8 worst_burn=0.291971 delivery_p99_ms=18.176000 \
             events=98808 \
             fabric_sends=65455 executes=96578 jms_matches=15960",
            "processed=98808 dropped=0 scheduled=98810 timers=33385 messages=65425\n\
             type Delivery scheduled=65425 executed=65425 dropped=0 timers=0\n\
             type ClientTimer scheduled=15972 executed=15972 dropped=0 timers=15972\n\
             type PubTick scheduled=15960 executed=15960 dropped=0 timers=15960\n\
             type CreateGen scheduled=800 executed=800 dropped=0 timers=800\n\
             type Tick scheduled=653 executed=651 dropped=0 timers=653\n",
        ),
        (
            spec("narada-dbn", SystemUnderTest::NaradaDbn { brokers: 3 }, 800),
            "connected=800 refused=0 \
             sent=16000 received=16000 rtt_mean_ms=8.191986 rtt_p99_ms=10.624000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=10.624000 \
             events=115109 \
             fabric_sends=97606 executes=192864 jms_matches=48000",
            "processed=115109 dropped=0 scheduled=115113 timers=17504 messages=97609\n\
             type Delivery scheduled=97606 executed=97606 dropped=0 timers=0\n\
             type PubTick scheduled=16000 executed=16000 dropped=0 timers=16000\n\
             type CreateGen scheduled=800 executed=800 dropped=0 timers=800\n\
             type Tick scheduled=704 executed=700 dropped=0 timers=704\n\
             type <untyped> scheduled=3 executed=3 dropped=0 timers=0\n",
        ),
        (
            spec("rgma-single", SystemUnderTest::RgmaSingle, 400),
            "connected=400 refused=0 \
             sent=8000 received=8000 rtt_mean_ms=884.774008 rtt_p99_ms=1605.632000 \
             on_time=8000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=1605.632000 \
             events=45505 \
             fabric_sends=29943 executes=43624 jms_matches=0",
            "processed=45505 dropped=0 scheduled=45513 timers=15568 messages=29945\n\
             type Delivery scheduled=29943 executed=29942 dropped=0 timers=0\n\
             type PubTick scheduled=8000 executed=8000 dropped=0 timers=8000\n\
             type RgmaTimer scheduled=5763 executed=5762 dropped=0 timers=5763\n\
             type Tick scheduled=709 executed=706 dropped=0 timers=709\n\
             type FlushTick scheduled=434 executed=433 dropped=0 timers=434\n\
             type CreateGen scheduled=400 executed=400 dropped=0 timers=400\n\
             type PlanTick scheduled=131 executed=130 dropped=0 timers=131\n\
             type SweepTick scheduled=131 executed=130 dropped=0 timers=131\n\
             type <untyped> scheduled=2 executed=2 dropped=0 timers=0\n",
        ),
        (
            spec("rgma-dist", SystemUnderTest::RgmaDistributed, 800),
            "connected=800 refused=0 \
             sent=16000 received=16000 rtt_mean_ms=904.091204 rtt_p99_ms=1654.784000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=1654.784000 \
             events=92147 \
             fabric_sends=61368 executes=89813 jms_matches=0",
            "processed=92147 dropped=0 scheduled=92166 timers=30794 messages=61372\n\
             type Delivery scheduled=61368 executed=61365 dropped=0 timers=0\n\
             type PubTick scheduled=16000 executed=16000 dropped=0 timers=16000\n\
             type RgmaTimer scheduled=11715 executed=11714 dropped=0 timers=11715\n\
             type Tick scheduled=887 executed=878 dropped=0 timers=887\n\
             type FlushTick scheduled=868 executed=866 dropped=0 timers=868\n\
             type CreateGen scheduled=800 executed=800 dropped=0 timers=800\n\
             type PlanTick scheduled=262 executed=260 dropped=0 timers=262\n\
             type SweepTick scheduled=262 executed=260 dropped=0 timers=262\n\
             type <untyped> scheduled=4 executed=4 dropped=0 timers=0\n",
        ),
        (
            spec("rgma-secondary", SystemUnderTest::RgmaSecondary, 100),
            "connected=100 refused=0 \
             sent=2000 received=2000 rtt_mean_ms=17687.888007 rtt_p99_ms=32243.712000 \
             on_time=131 late=1869 lost=0 worst_burn=100.000000 delivery_p99_ms=32243.712000 \
             events=20286 \
             fabric_sends=13064 executes=19107 jms_matches=0",
            "processed=20286 dropped=0 scheduled=20299 timers=7233 messages=13066\n\
             type Delivery scheduled=13064 executed=13062 dropped=0 timers=0\n\
             type RgmaTimer scheduled=4033 executed=4032 dropped=0 timers=4033\n\
             type PubTick scheduled=2000 executed=2000 dropped=0 timers=2000\n\
             type Tick scheduled=524 executed=519 dropped=0 timers=524\n\
             type FlushTick scheduled=309 executed=307 dropped=0 timers=309\n\
             type PlanTick scheduled=178 executed=176 dropped=0 timers=178\n\
             type CreateGen scheduled=100 executed=100 dropped=0 timers=100\n\
             type SweepTick scheduled=89 executed=88 dropped=0 timers=89\n\
             type <untyped> scheduled=2 executed=2 dropped=0 timers=0\n",
        ),
        (
            // Moved once (was rtt_mean_ms=11.341019, both p99s 16.128000):
            // the consumer applied every re-pushed same-epoch assignment
            // and ran nine fetch loops per partition, whose broker CPU the
            // readings queued behind. One loop per partition since.
            spec("gridlog", SystemUnderTest::GridlogSingle, 800),
            "connected=800 refused=0 \
             sent=16000 received=16000 rtt_mean_ms=11.241422 rtt_p99_ms=15.104000 \
             on_time=16000 late=0 lost=0 worst_burn=0.000000 delivery_p99_ms=15.104000 \
             events=128064 \
             fabric_sends=74599 executes=69308 jms_matches=0",
            "processed=128064 dropped=0 scheduled=128074 timers=53475 messages=74599\n\
             type Delivery scheduled=74599 executed=74599 dropped=0 timers=0\n\
             type BrokerTimer scheduled=20022 executed=20014 dropped=0 timers=20022\n\
             type ClientTimer scheduled=16000 executed=16000 dropped=0 timers=16000\n\
             type PubTick scheduled=16000 executed=16000 dropped=0 timers=16000\n\
             type CreateGen scheduled=800 executed=800 dropped=0 timers=800\n\
             type Tick scheduled=653 executed=651 dropped=0 timers=653\n",
        ),
    ]
}

/// Floats go through `{:.6}`, so the table holds decimal text, not bit
/// patterns typed by hand.
fn render(r: &ExperimentResult) -> String {
    let p99 = r.summary.percentiles_ms.iter().find(|(q, _)| *q == 99);
    let slo = &r.slo.as_ref().expect("spec carries an SLO").report;
    let scope = &r.scope.as_ref().expect("spec is scoped").report;
    let count = |site| scope.site(site).map_or(0, |row| row.count);
    format!(
        "connected={} refused={} sent={} received={} rtt_mean_ms={:.6} rtt_p99_ms={:.6} \
         on_time={} late={} lost={} worst_burn={:.6} delivery_p99_ms={:.6} \
         events={} fabric_sends={} executes={} jms_matches={}",
        r.connected,
        r.refused,
        r.summary.sent,
        r.summary.received,
        r.summary.rtt_mean_ms,
        p99.map_or(0.0, |(_, ms)| *ms),
        slo.on_time,
        slo.late,
        slo.lost,
        slo.worst_burn,
        slo.age_us.map_or(0.0, |h| h.p99 as f64 / 1000.0),
        r.events,
        count("net.fabric.send"),
        count("os.execute"),
        count("jms.match"),
    )
}

#[test]
fn virtual_clock_numbers_match_the_golden_table() {
    let (specs, lines): (Vec<_>, Vec<_>) = golden()
        .into_iter()
        .map(|(spec, line, digest)| (spec, (line, digest)))
        .unzip();
    for (result, (line, digest)) in run_all(&specs, 0).iter().zip(lines) {
        assert_eq!(render(result), line, "{}", result.name);
        let kernel = result.kernel.determinism_digest();
        assert_eq!(kernel, digest, "{}", result.name);
    }
}

/// Counts per thread, so the other tests of this binary, on their own
/// threads, do not leak into a count.
#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// No table draws a `RandomState` seed, so nothing about a run — not
/// even when a table regrows — differs between two runs of one seed:
/// they make the same number of allocation calls. (Under
/// `GRIDMON_SHARDS` the shards run on threads of their own and this
/// counts the build-and-merge side only.)
#[test]
fn same_seed_runs_allocate_identically() {
    let small = |name, system| {
        ExperimentSpec::paper_default(format!("allocs/{name}"), system, 60).scaled(5)
    };
    for spec in [
        small("narada-dbn", SystemUnderTest::NaradaDbn { brokers: 3 }),
        small("rgma-dist", SystemUnderTest::RgmaDistributed),
        small("gridlog", SystemUnderTest::GridlogSingle),
    ] {
        let counted = || allocations(|| run_experiment(&spec).events);
        // The first run on a thread also fills its lazily built statics.
        counted();
        let (first, second) = (counted(), counted());
        assert!(first.1 > 0, "{}: the counter is live", spec.name);
        assert_eq!(first, second, "{}: (events, allocations)", spec.name);
    }
}

/// What one more R-GMA reading allocates, end to end (publisher, HTTP
/// hops, both servlets, storage, stream, poll), as the difference
/// between runs of 10, 20 and 40 messages per generator: exact counts,
/// no wall clock. The ceiling holds the text written once, the two-block
/// tuple and the order-free binder in place (25.6 before them) and the
/// lifecycle record in its lane's chunk rather than a B-tree node (18.574
/// before, 18.244 since); the second difference matching the first says
/// the cost per reading does not grow with the run.
#[test]
fn an_rgma_reading_allocates_a_bounded_constant_number_of_blocks() {
    if std::env::var("GRIDMON_SHARDS").is_ok_and(|n| n != "1") {
        // The shards' threads are not this thread: nothing to count.
        return;
    }
    const GENERATORS: usize = 200;
    let allocs = |msgs: u32| {
        let spec = ExperimentSpec::paper_default(
            "allocs/rgma",
            SystemUnderTest::RgmaDistributed,
            GENERATORS,
        )
        .scaled(msgs);
        let (result, allocs) = allocations(|| run_experiment(&spec));
        assert_eq!(result.summary.sent, GENERATORS as u64 * u64::from(msgs));
        allocs as f64
    };
    // The first run on a thread also fills its lazily built statics.
    allocs(1);
    let (ten, twenty, forty) = (allocs(10), allocs(20), allocs(40));
    let early = (twenty - ten) / (GENERATORS * 10) as f64;
    let late = (forty - twenty) / (GENERATORS * 20) as f64;
    assert!(early <= 18.35, "{early} allocations per reading");
    assert!(
        (late / early - 1.0).abs() <= 0.02,
        "{early} then {late} per reading"
    );
}
