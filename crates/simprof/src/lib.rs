#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # simprof — virtual-time profiling for the gridmon simulation stack
//!
//! The paper's evaluation hinges on *where* time goes: the RTT = PRT +
//! PT + SRT decomposition and the vmstat CPU-idle curves both attribute
//! latency to layers of the middleware. `simtrace` records per-message
//! lifecycles, but nothing attributes *scheduler time* to components —
//! how much of a broker node's busy time was selector matching versus
//! routing versus ack processing. This crate closes that gap with a
//! profiler that runs on simulated time, so its output is deterministic
//! and exactly conserved.
//!
//! Pieces:
//!
//! * [`Component`] — the fixed component taxonomy (narada
//!   route/match/ack/transport, rgma servlet/insert/select/registry,
//!   simnet fabric/link, simos sched/gc).
//! * [`Profiler`] — a kernel service (same shape as
//!   `simtrace::TraceCollector` and `simfault::FaultInjector`)
//!   accumulating per-component self time, event counts, and
//!   collapsed call-stack frames. Instrumentation sites look it up with
//!   `Context::try_service_mut`, so when profiling is off (service
//!   absent) each site costs one failed type-map probe and nothing else
//!   — profiled-off runs are byte-identical to builds without profiler
//!   support.
//! * [`profile_span!`] — scoped attribution: charges inside the span
//!   land under the span's stack path, producing flamegraph-compatible
//!   collapsed stacks.
//! * [`ProfileReport`] — the self-time/total-time table whose total
//!   equals the kernel's total simulated busy time (conservation: every
//!   microsecond a CPU accepted is attributed to exactly one
//!   component, with any shortfall surfaced as `unattributed`).
//!
//! The time-series metrics plane (`telemetry::MetricsRegistry`) is
//! snapshotted by `simos::VmstatSampler` on its existing tick, so a
//! profiled run adds no kernel events at all.
//!
//! The profiler observes and never perturbs: charges are recorded from
//! the *effective* (inflated) cost the CPU model accepted, so enabling
//! it changes no completion time, no RNG draw, and no event order.

mod component;
mod profiler;

pub use component::{Component, COMPONENT_COUNT};
pub use profiler::{FrameStat, ProfileReport, ProfileRow, Profiler};

use simcore::{Context, SimDuration};

/// Run `f` against the profiler if one is registered; no-op (one failed
/// type-map probe) otherwise. The standard instrumentation entry point,
/// mirroring `telemetry::with_metrics`.
#[inline]
pub fn with_profile(ctx: &mut Context<'_>, f: impl FnOnce(&mut Profiler)) {
    if let Some(p) = ctx.try_service_mut::<Profiler>() {
        f(p);
    }
}

/// Open a span: subsequent charges nest under `c`. Prefer
/// [`profile_span!`] which pairs the close for you.
#[inline]
pub fn enter(ctx: &mut Context<'_>, c: Component) {
    with_profile(ctx, |p| p.enter(c));
}

/// Close the innermost span (must be `c`; checked in debug builds).
#[inline]
pub fn exit(ctx: &mut Context<'_>, c: Component) {
    with_profile(ctx, |p| p.exit(c));
}

/// Count one event against `c` without attributing any time (used for
/// zero-cost components such as fabric hops).
#[inline]
pub fn hit(ctx: &mut Context<'_>, c: Component) {
    with_profile(ctx, |p| p.hit(c));
}

/// Attribute `d` of simulated busy time to `c`, nested under the
/// current span stack. `d` must be the *effective* cost the CPU model
/// accepted (post inflation/slowdown) so the report conserves exactly.
#[inline]
pub fn charge(ctx: &mut Context<'_>, c: Component, d: SimDuration) {
    with_profile(ctx, |p| p.charge(c, d));
}

/// Attribute one effective cost across two components in proportion to
/// their base-cost parts: `part_base / total_base` of `effective` goes
/// to `part_comp`, the remainder to `rest_comp`. Integer arithmetic, so
/// the two charges sum exactly to `effective` (conservation) and the
/// split is deterministic. Used where one CPU submission covers two
/// taxonomy components (e.g. broker publish = route + selector match).
#[inline]
pub fn charge_split(
    ctx: &mut Context<'_>,
    rest_comp: Component,
    part_comp: Component,
    effective: SimDuration,
    part_base: SimDuration,
    total_base: SimDuration,
) {
    with_profile(ctx, |p| {
        let part = split_part(effective, part_base, total_base);
        p.charge(part_comp, part);
        p.charge(rest_comp, effective.saturating_sub(part));
    });
}

/// `effective * part / total` in microseconds, saturating and safe for
/// the full range (u128 intermediate).
fn split_part(effective: SimDuration, part: SimDuration, total: SimDuration) -> SimDuration {
    let t = total.as_micros();
    if t == 0 {
        return SimDuration::ZERO;
    }
    let scaled = u128::from(effective.as_micros()) * u128::from(part.as_micros()) / u128::from(t);
    SimDuration::from_micros(scaled.min(u128::from(u64::MAX)) as u64)
}

/// Scoped span attribution: `profile_span!(ctx, Component::X, { body })`
/// opens the span, evaluates the body, closes the span, and yields the
/// body's value. Charges inside the body nest under `X` in the
/// collapsed-stack output.
///
/// The body must not `return`/`?` out of the enclosing function —
/// the span close would be skipped (debug builds catch the imbalance on
/// the next exit).
#[macro_export]
macro_rules! profile_span {
    ($ctx:expr, $comp:expr, $body:expr) => {{
        $crate::enter($ctx, $comp);
        let __simprof_span_result = $body;
        $crate::exit($ctx, $comp);
        __simprof_span_result
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_exact_and_conserves() {
        let eff = SimDuration::from_micros(1001);
        let part = split_part(
            eff,
            SimDuration::from_micros(1),
            SimDuration::from_micros(3),
        );
        assert_eq!(part.as_micros(), 333);
        // rest = 668; part + rest == effective.
        assert_eq!(
            eff.saturating_sub(part).as_micros() + part.as_micros(),
            1001
        );
        assert_eq!(
            split_part(eff, SimDuration::ZERO, SimDuration::ZERO),
            SimDuration::ZERO
        );
        assert_eq!(
            split_part(
                eff,
                SimDuration::from_micros(3),
                SimDuration::from_micros(3)
            ),
            eff
        );
    }
}
