//! End-to-end tests for the `simtrace` lifecycle-tracing subsystem: the
//! trace agrees with the RTT summary, the RTT decomposition telescopes
//! exactly, and same-seed runs export byte-identical traces.

use gridmon_core::{run_experiment, ExperimentSpec, SystemUnderTest};

fn traced_spec(name: &str, system: SystemUnderTest, generators: usize) -> ExperimentSpec {
    ExperimentSpec::paper_default(name, system, generators)
        .scaled(4)
        .traced()
}

#[test]
fn untraced_run_produces_no_trace() {
    let spec =
        ExperimentSpec::paper_default("untraced", SystemUnderTest::NaradaSingle, 4).scaled(2);
    let r = run_experiment(&spec);
    assert!(r.trace.is_none(), "tracing must be off by default");
}

/// The trace rebuilds as many finished round trips as the RTT summary
/// counts, at the same mean: both read one `simnet::probe` stamp.
fn assert_trace_matches_the_summary(r: &gridmon_core::ExperimentResult) {
    let trace = r.trace.as_ref().expect("traced spec yields artifacts");
    assert_eq!(trace.summary.evicted_events, 0, "ring must not wrap here");
    let rtts: Vec<u64> = trace
        .summary
        .probes
        .iter()
        .map(|(_, p)| p)
        .filter_map(|p| p.rtt())
        .collect();
    assert_eq!(rtts.len() as u64, r.summary.received);
    let mean_ms = rtts.iter().sum::<u64>() as f64 / rtts.len() as f64 / 1000.0;
    assert!(
        (mean_ms - r.summary.rtt_mean_ms).abs() < 1e-6,
        "trace mean {mean_ms} ms vs summary {} ms",
        r.summary.rtt_mean_ms
    );
}

#[test]
fn traced_narada_run_cross_checks_clean() {
    let r = run_experiment(&traced_spec("tr-narada", SystemUnderTest::NaradaSingle, 6));
    assert_trace_matches_the_summary(&r);
    let trace = r.trace.expect("traced spec yields artifacts");
    assert!(trace.summary.total_events > 0);
    assert!(!trace.summary.probes.is_empty());
    assert!(!trace.jsonl.is_empty());
    assert!(trace.chrome.starts_with('{'));
}

#[test]
fn traced_rgma_run_cross_checks_clean() {
    let r = run_experiment(&traced_spec("tr-rgma", SystemUnderTest::RgmaSingle, 6));
    assert_trace_matches_the_summary(&r);
    let trace = r.trace.expect("traced spec yields artifacts");
    assert!(!trace.summary.probes.is_empty());
}

#[test]
fn trace_rtt_decomposition_telescopes_per_probe() {
    // For every completed probe the reconstructed phases must satisfy
    // RTT = PRT + PT + SRT *exactly* — these are integer microsecond
    // instants, not floats, so there is no tolerance.
    for system in [SystemUnderTest::NaradaSingle, SystemUnderTest::RgmaSingle] {
        let r = run_experiment(&traced_spec("tr-decomp", system, 4));
        let trace = r.trace.expect("traced");
        let mut complete = 0;
        for (id, probe) in &trace.summary.probes {
            if !probe.complete() {
                continue;
            }
            complete += 1;
            let (prt, pt, srt, rtt) = (
                probe.prt().unwrap(),
                probe.pt().unwrap(),
                probe.srt().unwrap(),
                probe.rtt().unwrap(),
            );
            assert_eq!(
                prt + pt + srt,
                rtt,
                "probe {id:?}: {prt} + {pt} + {srt} != {rtt}"
            );
        }
        assert!(complete > 0, "at least one probe completes end to end");
    }
}

#[test]
fn trace_covers_every_delivered_probe() {
    let r = run_experiment(&traced_spec(
        "tr-coverage",
        SystemUnderTest::NaradaSingle,
        4,
    ));
    let trace = r.trace.expect("traced");
    assert_eq!(trace.summary.evicted_events, 0, "ring must not wrap here");
    // Every probe the telemetry says was sent must appear in the trace
    // with a publish-begin instant. Probe ids are content-derived
    // (lane, seq) pairs — not dense — so coverage is checked by count:
    // the trace only ever learns a probe id from a publish event, so
    // begin-count == sent-count ⇔ every sent probe is traced.
    let with_begin = trace
        .summary
        .probes
        .iter()
        .map(|(_, p)| p)
        .filter(|p| p.publish_begin().is_some())
        .count() as u64;
    assert_eq!(
        with_begin, r.summary.sent,
        "every sent probe must appear in the trace with a publish begin"
    );
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let spec = traced_spec("tr-det", SystemUnderTest::NaradaSingle, 6);
    let a = run_experiment(&spec).trace.expect("traced");
    let b = run_experiment(&spec).trace.expect("traced");
    assert_eq!(a.jsonl, b.jsonl, "JSONL export must be deterministic");
    assert_eq!(a.chrome, b.chrome, "Chrome export must be deterministic");
}

#[test]
fn different_seed_traces_differ() {
    let spec = traced_spec("tr-seeds", SystemUnderTest::NaradaSingle, 6);
    let mut other = spec.clone();
    other.seed += 1;
    let a = run_experiment(&spec).trace.expect("traced");
    let b = run_experiment(&other).trace.expect("traced");
    assert_ne!(
        a.jsonl, b.jsonl,
        "different seeds must perturb event timing"
    );
}

#[test]
fn a_traced_run_times_its_merge_and_render_beside_the_run() {
    let r = run_experiment(&traced_spec("tr-merge", SystemUnderTest::NaradaSingle, 6));
    assert!(r.trace.is_some_and(|t| !t.chrome.is_empty()));
    assert!(r.wall_secs > 0.0, "the run");
    assert!(
        r.merge_render_secs > 0.0,
        "the merge and the exports after it"
    );
}
