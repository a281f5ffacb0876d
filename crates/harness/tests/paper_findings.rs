//! The paper's findings hold at `MSGS` messages per generator: every row
//! of `harness::claims::CLAIMS`, evaluated once on the specs its
//! artifacts run. Each test is named for a finding and asserts the rows
//! that state it, by index; together they cover the table.

use gridmon_core::FaultSchedule;
use harness::claims::CLAIMS;
use harness::Campaign;
use std::sync::OnceLock;

/// The smallest scale at which the aggregation ablation's three legs
/// send different numbers of wire messages (`msgs / k`, k = 1, 3, 10).
const MSGS: u32 = 6;

/// Each row's measured text and whether it holds, in `CLAIMS` order.
fn outcomes() -> &'static [(String, bool)] {
    static OUTCOMES: OnceLock<Vec<(String, bool)>> = OnceLock::new();
    OUTCOMES.get_or_init(|| {
        let mut campaign = Campaign::new(0, 1, FaultSchedule::new(), Vec::new());
        CLAIMS
            .iter()
            .map(|c| c.check(&mut campaign, MSGS))
            .collect()
    })
}

/// Every row in `rows` holds; each one that does not is printed with
/// its measured text.
fn assert_hold(rows: &[usize]) {
    let failed: Vec<String> = rows
        .iter()
        .filter(|&&row| !outcomes()[row].1)
        .map(|&row| format!("{}: {}", CLAIMS[row].label, outcomes()[row].0))
        .collect();
    assert!(
        failed.is_empty(),
        "at MSGS = {MSGS}:\n{}",
        failed.join("\n")
    );
}

macro_rules! findings {
    ($($test:ident: $rows:expr,)+) => {
        $(#[test] fn $test() { assert_hold(&$rows); })+
        /// The rows of every test above.
        const ASSERTED: &[&[usize]] = &[$(&$rows),+];
    };
}

findings! {
    fig3_transport_ordering: [0, 14],
    udp_loss_rates_match_paper_mechanisms: [1, 2, 15],
    fig7_rtt_grows_with_connections: [3, 4, 16, 17],
    narada_connection_ceiling_between_3000_and_4000: [5, 17],
    fig7_dbn_scales_past_single_broker_without_speedup: [6, 7, 18],
    rgma_is_orders_of_magnitude_slower_than_narada: [8, 13, 19],
    rgma_connection_ceiling_near_800: [10, 20],
    rgma_distributed_beats_single_and_reaches_1000: [11, 21],
    fig10_secondary_producer_delays_dominate: [12, 22],
    warmup_loss_appears_and_disappears: [23],
    table3_quadrant_holds: [9, 24],
    ablation_aggregation_trades_latency_for_broker_cpu: [25],
    ablation_poll_period_sets_subscribing_response_time: [26],
    ablation_routing_fix_removes_waste_without_hurting_delivery: [27],
}

#[test]
fn every_claim_is_asserted_by_a_finding() {
    for (row, claim) in CLAIMS.iter().enumerate() {
        let asserted = ASSERTED.iter().any(|rows| rows.contains(&row));
        assert!(asserted, "no test asserts row {row}, {:?}", claim.label);
    }
}
