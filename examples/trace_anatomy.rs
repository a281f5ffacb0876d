//! Trace anatomy: run one tiny Narada scenario and one tiny R-GMA
//! scenario with `simtrace` lifecycle tracing enabled, then print each
//! message's hop-by-hop decomposition — where every microsecond of its
//! round trip went.
//!
//! ```sh
//! cargo run --release --example trace_anatomy
//! ```
//!
//! The same data is what `repro --trace` exports as JSONL and Chrome
//! `trace_event` files; here it is reconstructed in-process to show the
//! anatomy of a single message in each middleware.

use gridmon::core::{run_experiment, ExperimentSpec, SystemUnderTest, TraceArtifacts};

fn main() {
    for (label, system) in [
        ("Narada (TCP broker)", SystemUnderTest::NaradaSingle),
        ("R-GMA (HTTP + SQL)", SystemUnderTest::RgmaSingle),
    ] {
        let spec = ExperimentSpec::paper_default(format!("anatomy/{label}"), system, 3)
            .scaled(3)
            .traced();
        let result = run_experiment(&spec);
        let trace = result.trace.as_ref().expect("tracing was enabled");
        print_anatomy(label, trace);
    }
}

fn print_anatomy(label: &str, trace: &TraceArtifacts) {
    println!("=== {label} ===");
    println!(
        "{} events recorded ({} probes tracked, {} evicted)",
        trace.summary.total_events,
        trace.summary.probes.len(),
        trace.summary.evicted_events,
    );
    println!(
        "{:>6}  {:>10} {:>10} {:>10} {:>10}  {:>5}",
        "probe", "PRT µs", "PT µs", "SRT µs", "RTT µs", "hops"
    );
    for (id, probe) in &trace.summary.probes {
        if !probe.complete() {
            println!("{:>6}  (incomplete — lost or still in flight)", id.0);
            continue;
        }
        let (prt, pt, srt, rtt) = (
            probe.prt().unwrap(),
            probe.pt().unwrap(),
            probe.srt().unwrap(),
            probe.rtt().unwrap(),
        );
        println!(
            "{:>6}  {prt:>10} {pt:>10} {srt:>10} {rtt:>10}  {:>5}",
            id.0,
            probe.hops()
        );
        assert_eq!(prt + pt + srt, rtt, "decomposition must telescope");
    }
    // One line of the machine-readable export, to show its shape.
    if let Some(line) = trace.jsonl.lines().find(|l| l.contains("\"trace\":0")) {
        println!("first traced JSONL event: {line}");
    }
    println!();
}
