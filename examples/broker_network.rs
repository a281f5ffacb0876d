//! The Distributed Broker Network study: scale past a single broker's
//! connection ceiling, and quantify the v1.1.3 broadcast deficiency
//! against subscription-aware routing (the fix the paper anticipated).
//!
//! ```sh
//! cargo run --release --example broker_network
//! ```

use gridmon::core::{run_experiment, scenarios, ExperimentSpec, SystemUnderTest};

fn main() {
    let msgs = 10;

    // 1. A single broker refuses 4000 connections (native memory).
    let single = run_experiment(&scenarios::narada_single_4000(msgs));
    println!(
        "single broker at 4000 connections: {} accepted, {} refused (out of native memory)",
        single.connected, single.refused
    );

    // 2. The DBN accepts them all.
    let dbn = run_experiment(
        &ExperimentSpec::paper_default(
            "example/dbn/4000",
            SystemUnderTest::NaradaDbn { brokers: 3 },
            4000,
        )
        .scaled(msgs),
    );
    println!(
        "3-broker DBN at 4000 connections:  {} accepted, {} refused, mean RTT {:.1} ms",
        dbn.connected, dbn.refused, dbn.summary.rtt_mean_ms
    );

    // 3. Broadcast (v1.1.3) vs routed forwarding.
    println!("\nbroadcast deficiency ablation (2000 connections):");
    for spec in scenarios::dbn_routing_ablation(msgs, 2000) {
        let r = run_experiment(&spec);
        println!(
            "  {:<28} RTT {:>6.2} ms, inter-broker messages {:>7}, broker idle {:>5.1}%",
            r.name.trim_start_matches("ablation/"),
            r.summary.rtt_mean_ms,
            r.broker_forwards,
            r.server_idle * 100.0
        );
    }

    assert!(single.refused > 0);
    assert_eq!(dbn.refused, 0);
}
