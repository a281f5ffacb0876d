//! The four lifecycle stamps, driven by scripted actors with no
//! middleware between them: what the one record of a reading and the
//! trace receive, with every plane on and with only the plain RTT
//! collector registered.

use simcore::{Actor, ActorId, Context, Payload, SimTime, Simulation};
use simnet::probe;
use simtrace::{TraceCollector, TraceId, TraceSummary};
use telemetry::{ProbeId, ProbeInstants, RttCollector};

/// One stamp for the receiving actor to make. `Sent` and the receive side
/// name their instant, as a client that has just charged CPU does.
#[derive(Debug, Clone, Copy)]
enum Stamp {
    Published,
    Sent(SimTime),
    Available(ProbeId, SimTime),
    Delivered(ProbeId, SimTime),
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
            Stamp::Delivered(probe, at) => probe::delivered(ctx, probe, at),
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
    /// the RTT collector and, if `planes`, its freshness columns and the
    /// trace collector.
    fn new(planes: bool) -> World {
        let mut sim = Simulation::new(7);
        if planes {
            sim.add_service(RttCollector::with_freshness());
            sim.add_service(TraceCollector::new());
        } else {
            sim.add_service(RttCollector::new());
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
        let at = ms(when).saturating_since(self.sim.now());
        self.sim.schedule(at, actor, Box::new(stamp));
    }

    /// Published at 10 ms, the call returns at 12; within subscriber 0's
    /// reach at 40, in its hands at 45.
    fn one_reading(&mut self) -> ProbeId {
        let probe = ProbeId::compose(0, 0);
        let sub = self.subscribers[0];
        self.at(10, self.publisher, Stamp::Published);
        self.at(11, self.publisher, Stamp::Sent(ms(12)));
        self.at(40, sub, Stamp::Available(probe, ms(40)));
        self.at(41, sub, Stamp::Delivered(probe, ms(45)));
        probe
    }

    fn run(&mut self) {
        self.sim.run_until(SimTime::from_secs(1));
    }

    fn rtt(&self) -> &RttCollector {
        self.sim.service::<RttCollector>().unwrap()
    }

    fn instants(&self, probe: ProbeId) -> Option<ProbeInstants> {
        self.rtt().instants(probe)
    }

    /// The trace's rebuild of `probe` equals the collector's record,
    /// instant for instant.
    fn assert_trace_matches_the_record(&self, probe: ProbeId) {
        let trace = self.sim.service::<TraceCollector>().unwrap();
        let b = *TraceSummary::from_collector(trace)
            .probe(TraceId(probe.0))
            .expect("a traced probe");
        let i = self.instants(probe).expect("a record");
        assert_eq!(
            (
                b.publish_begin(),
                b.publish_end(),
                b.available(),
                b.delivered()
            ),
            (
                Some(i.before_sending),
                i.after_sending,
                i.before_receiving,
                i.after_receiving
            )
        );
    }

    fn deliveries(&self) -> Vec<(u32, ProbeId, SimTime)> {
        self.rtt().deliveries().collect()
    }
}

const ONE_READING: ProbeInstants = ProbeInstants {
    before_sending: SimTime::from_millis(10),
    after_sending: Some(SimTime::from_millis(12)),
    before_receiving: Some(SimTime::from_millis(40)),
    after_receiving: Some(SimTime::from_millis(45)),
};

/// The three: the record's instants, its freshness columns, the trace.
#[test]
fn one_lifecycle_reaches_all_three_recorders() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    w.assert_trace_matches_the_record(probe);
    let trace = w.sim.service::<TraceCollector>().unwrap();
    // Filed under the stamping actor: publisher twice, subscriber twice.
    let actors: Vec<u32> = trace.events().map(|e| e.actor).collect();
    assert_eq!(actors, [0, 0, 1, 1]);
    assert_eq!(w.rtt().topic(probe), Some("grid/readings"));
    assert_eq!(w.deliveries(), [(1, probe, ms(45))]);
}

#[test]
fn with_only_the_rtt_collector_the_stamps_touch_nothing_else() {
    let mut w = World::new(false);
    let probe = w.one_reading();
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    assert!(w.sim.service::<TraceCollector>().is_none());
    // No freshness columns: no topic, no per-subscriber copy.
    assert_eq!(w.rtt().topic(probe), None);
    assert!(w.deliveries().is_empty());
}

#[test]
fn a_duplicate_delivery_at_a_later_instant_changes_no_recorder() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    let sub = w.subscribers[0];
    w.at(60, sub, Stamp::Available(probe, ms(60)));
    w.at(61, sub, Stamp::Delivered(probe, ms(65)));
    w.run();
    assert_eq!(w.instants(probe), Some(ONE_READING));
    w.assert_trace_matches_the_record(probe);
    assert_eq!(w.deliveries(), [(1, probe, ms(45))]);
}

#[test]
fn two_subscribers_are_one_rtt_record_and_two_slo_deliveries() {
    let mut w = World::new(true);
    let probe = w.one_reading();
    let other = w.subscribers[1];
    w.at(50, other, Stamp::Available(probe, ms(50)));
    w.at(51, other, Stamp::Delivered(probe, ms(55)));
    w.run();
    assert_eq!(w.rtt().probe_ids().collect::<Vec<_>>(), [probe]);
    // First delivery wins the record's instants; the freshness column
    // keeps one copy per subscriber lane.
    assert_eq!(w.instants(probe), Some(ONE_READING));
    w.assert_trace_matches_the_record(probe);
    assert_eq!(w.deliveries(), [(1, probe, ms(45)), (2, probe, ms(55))]);
}
