//! The four lifecycle stamps, driven by scripted actors with no
//! middleware between them: which recorder receives what, with every
//! plane on and with only the RTT collector registered.

use simcore::{Actor, ActorId, Context, Payload, SimDuration, SimTime, Simulation};
use simnet::probe;
use simslo::{SloCollector, SloReport, SloSpec, DEFAULT_WINDOW, SAMPLE_CADENCE};
use simtrace::{TraceCollector, TraceId, TraceSummary};
use telemetry::{ProbeId, ProbeInstants, RttCollector};

/// One stamp for the receiving actor to make. `Sent` and the receive side
/// name their instant, as a client that has just charged CPU does.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    Published,
    Sent(SimTime),
    Available(ProbeId, SimTime),
    Delivered(ProbeId, SimTime, Option<SimTime>),
}

/// Makes the stamps it is sent; remembers the probe it published.
#[derive(Default)]
struct Stamper {
    minted: Option<ProbeId>,
}

impl Actor for Stamper {
    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        match *msg.downcast::<Stamp>().expect("a stamp") {
            Stamp::Published => self.minted = Some(probe::published(ctx, "grid/readings")),
            Stamp::Sent(at) => probe::sent(ctx, self.minted.expect("published first"), at),
            Stamp::Available(probe, at) => probe::available(ctx, probe, at),
            Stamp::Delivered(probe, at, carried) => probe::delivered(ctx, probe, at, carried),
        }
    }
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

struct World {
    sim: Simulation,
    publisher: ActorId,
    subscribers: [ActorId; 2],
}

impl World {
    /// A publisher on lane 0 and two subscribers on lanes 1 and 2, with
    /// the RTT collector and, if `planes`, the trace and SLO collectors.
    fn new(planes: bool) -> World {
        let mut sim = Simulation::new(7);
        sim.add_service(RttCollector::new());
        if planes {
            sim.add_service(TraceCollector::new());
            sim.add_service(SloCollector::new());
        }
        let publisher = sim.add_actor(Stamper::default());
        let subscribers = [
            sim.add_actor(Stamper::default()),
            sim.add_actor(Stamper::default()),
        ];
        World {
            sim,
            publisher,
            subscribers,
        }
    }

    fn at(&mut self, when: u64, actor: ActorId, stamp: Stamp) {
        self.sim.schedule_at(ms(when), actor, Box::new(stamp));
    }

    /// Published at 10 ms, the call returns at 12; within subscriber 0's
    /// reach at 40, in its hands at 45 with the publish stamp carried.
    fn one_reading(&mut self) -> ProbeId {
        let probe = ProbeId::compose(0, 0);
        let sub = self.subscribers[0];
        self.at(10, self.publisher, Stamp::Published);
        self.at(11, self.publisher, Stamp::Sent(ms(12)));
        self.at(40, sub, Stamp::Available(probe, ms(40)));
        self.at(41, sub, Stamp::Delivered(probe, ms(45), Some(ms(10))));
        probe
    }

    fn run(&mut self) {
        self.sim.run_until(SimTime::from_secs(1));
    }

    fn instants(&self, probe: ProbeId) -> Option<ProbeInstants> {
        self.sim.service::<RttCollector>().unwrap().instants(probe)
    }

    /// What the trace says against the instants `one_reading` stamps.
    fn trace_check(&self, probe: ProbeId) -> Option<String> {
        let trace = self.sim.service::<TraceCollector>().unwrap();
        TraceSummary::from_collector(trace).check_probe(
            TraceId(probe.0),
            ms(10),
            Some(ms(12)),
            Some(ms(40)),
            Some(ms(45)),
        )
    }

    fn slo_report(&self) -> SloReport {
        self.sim.service::<SloCollector>().unwrap().report(
            &SloSpec::grid_default(),
            SimTime::from_secs(1),
            SAMPLE_CADENCE,
            DEFAULT_WINDOW,
        )
    }
}

const ONE_READING: ProbeInstants = ProbeInstants {
    before_sending: SimTime::from_millis(10),
    after_sending: Some(SimTime::from_millis(12)),
    before_receiving: Some(SimTime::from_millis(40)),
    after_receiving: Some(SimTime::from_millis(45)),
};

#[test]
fn one_lifecycle_reaches_all_three_recorders() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    assert_eq!(w.trace_check(probe), None);
    let trace = w.sim.service::<TraceCollector>().unwrap();
    // Filed under the stamping actor: publisher twice, subscriber twice.
    let actors: Vec<u64> = trace.events().map(|e| e.actor).collect();
    assert_eq!(actors, [0, 0, 1, 1]);
    let report = w.slo_report();
    assert_eq!((report.published, report.delivered), (1, 1));
    assert_eq!(report.stamp_disagreements, 0);
    // Age of the reading at delivery: 45 − 10 ms, inside the deadline.
    assert_eq!((report.on_time, report.late, report.lost), (1, 0, 0));
}

#[test]
fn with_only_the_rtt_collector_the_stamps_touch_nothing_else() {
    let mut w = World::new(false);
    let probe = w.one_reading();
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    assert!(w.sim.service::<TraceCollector>().is_none());
    assert!(w.sim.service::<SloCollector>().is_none());
}

#[test]
fn a_duplicate_delivery_at_a_later_instant_changes_no_recorder() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    let sub = w.subscribers[0];
    w.at(60, sub, Stamp::Available(probe, ms(60)));
    w.at(61, sub, Stamp::Delivered(probe, ms(65), Some(ms(10))));
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    assert_eq!(w.trace_check(probe), None);
    let report = w.slo_report();
    assert_eq!((report.published, report.delivered), (1, 1));
    let age = report.age_us.expect("one delivery");
    assert_eq!(age.max, SimDuration::from_millis(35).as_micros());
}

#[test]
fn two_subscribers_are_one_rtt_record_and_two_slo_deliveries() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    let other = w.subscribers[1];
    w.at(50, other, Stamp::Available(probe, ms(50)));
    w.at(51, other, Stamp::Delivered(probe, ms(55), Some(ms(10))));
    w.run();
    let rtt = w.sim.service::<RttCollector>().unwrap();
    assert_eq!(rtt.probe_ids().collect::<Vec<_>>(), [probe]);
    // First delivery wins the RTT record; the freshness plane keeps one
    // delivery per subscriber lane.
    assert_eq!(w.instants(probe), Some(ONE_READING));
    let report = w.slo_report();
    assert_eq!((report.published, report.delivered), (1, 2));
    assert_eq!(report.stamp_disagreements, 0);
}
