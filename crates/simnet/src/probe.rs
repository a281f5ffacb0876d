//! A reading's lifecycle, stamped in one place: the four instants of the
//! paper's RTT = PRT + PT + SRT decomposition (`before_sending`,
//! `after_sending`, `before_receiving`, `after_receiving`).
//!
//! A client (narada's, gridlog's, R-GMA's) or a servlet calls
//! [`published`], [`sent`], [`available`] and [`delivered`] where the
//! reading reaches that stage and knows nothing of who listens. Each call
//! writes the reading's one record, the [`RttCollector`] (which also
//! keeps the topic and each subscriber's copy when the run measures
//! freshness), and the [`simtrace::TraceCollector`]'s lifecycle event
//! when the trace plane is on. The lane and the actor a stamp is filed
//! under are the calling actor's own. Hop events (a broker's receive, a
//! selector match, a batch flush) are not lifecycle stamps: their sites
//! make them through the same `simtrace::hop`, which also adds the
//! counters a hop moves.

use simcore::{Context, SimTime};
use simtrace::{EventKind, TraceId};
use telemetry::{ProbeId, RttCollector};

/// The application hands a reading for `topic` to its middleware, now
/// (`before_sending`): mints the reading's probe.
#[inline]
pub fn published(ctx: &mut Context<'_>, topic: &str) -> ProbeId {
    let now = ctx.now();
    let lane = ctx.self_id().lane();
    let probe = ctx
        .service_mut::<RttCollector>()
        .published(lane, topic, now);
    simtrace::hop(ctx, now, Some(TraceId(probe.0)), EventKind::PublishBegin);
    probe
}

/// The middleware's publish call returns to the application at `at`
/// (`after_sending`).
#[inline]
pub fn sent(ctx: &mut Context<'_>, probe: ProbeId, at: SimTime) {
    ctx.service_mut::<RttCollector>().after_sending(probe, at);
    simtrace::hop(ctx, at, Some(TraceId(probe.0)), EventKind::PublishEnd);
}

/// The reading is within the subscriber's reach at `at`
/// (`before_receiving`): on its connection, or in the servlet it polls.
#[inline]
pub fn available(ctx: &mut Context<'_>, probe: ProbeId, at: SimTime) {
    ctx.service_mut::<RttCollector>()
        .before_receiving(probe, at);
    simtrace::hop(ctx, at, Some(TraceId(probe.0)), EventKind::Available);
}

/// The subscribing application has the reading at `at`
/// (`after_receiving`).
#[inline]
pub fn delivered(ctx: &mut Context<'_>, probe: ProbeId, at: SimTime) {
    let lane = ctx.self_id().lane();
    ctx.service_mut::<RttCollector>().delivered(probe, lane, at);
    simtrace::hop(ctx, at, Some(TraceId(probe.0)), EventKind::Delivered);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{Actor, Payload, Simulation};

    /// Publishes once on start.
    struct Publisher;

    impl Actor for Publisher {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            published(ctx, "t");
        }
        fn handle(&mut self, _: Payload, _: &mut Context<'_>) {}
    }

    #[test]
    fn a_probe_is_keyed_by_its_publishers_actor_index() {
        let mut sim = Simulation::new(1);
        sim.add_service(RttCollector::new());
        for _ in 0..3 {
            sim.add_actor(Publisher);
        }
        sim.run_until(SimTime::from_secs(1));
        let rtt = sim.service::<RttCollector>().expect("registered");
        let minted: Vec<ProbeId> = rtt.probe_ids().collect();
        let expected: Vec<ProbeId> = (0..3).map(|lane| ProbeId::compose(lane, 0)).collect();
        assert_eq!(minted, expected);
    }
}
