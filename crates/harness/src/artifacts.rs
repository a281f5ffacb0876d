//! The paper's tables and figures: [`ARTIFACTS`] names each one once,
//! and the builders below it turn experiment results into the rows and
//! series it reports.

use crate::campaign::{slo_table, Campaign, Runs};
use crate::claims::{self, CLAIMS};
use gridmon_core::{scenarios, ExperimentResult};
use telemetry::{trim_float, Figure, Table};

/// One thing an artifact prints and writes.
pub struct Sheet {
    /// Follows the artifact's name in the CSV file's stem.
    pub suffix: &'static str,
    /// Terminal rendering.
    pub text: String,
    /// CSV rendering.
    pub csv: String,
    /// Findings on it that do not hold; any fails the invocation.
    pub failed: usize,
}

impl From<Table> for Sheet {
    fn from(t: Table) -> Self {
        Sheet {
            suffix: "",
            text: t.render(),
            csv: t.to_csv(),
            failed: 0,
        }
    }
}

impl From<Figure> for Sheet {
    fn from(f: Figure) -> Self {
        Sheet {
            suffix: "",
            text: f.render(),
            csv: f.to_csv(),
            failed: 0,
        }
    }
}

fn one(sheet: impl Into<Sheet>) -> Vec<Sheet> {
    vec![sheet.into()]
}

/// A table or figure `repro` can regenerate.
pub struct Artifact {
    /// Command-line name, CSV file stem and (for a figure) its id.
    pub name: &'static str,
    /// One-line description, as `--list-scenarios` prints it.
    pub about: &'static str,
    /// Build it under its `name`, running what it needs on the campaign
    /// at that many messages per generator.
    pub render: fn(&str, &mut Campaign, u32) -> Vec<Sheet>,
}

/// Every artifact, in the order `all` builds them. The one place a name
/// is written: the usage text, `all`, `--list-scenarios`, validation,
/// "did you mean" and dispatch all read this table.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "table1",
        about: "hardware and software calibration constants (Table I)",
        render: |_, _, _| one(table1()),
    },
    Artifact {
        name: "table2",
        about: "Narada comparison test settings and measured loss (Table II)",
        render: |_, c, n| one(table2(c, n)),
    },
    Artifact {
        name: "fig3",
        about: "Narada comparison tests: RTT mean and standard deviation",
        render: |id, c, n| one(fig3(id, c, n)),
    },
    Artifact {
        name: "fig4",
        about: "Narada comparison tests: RTT percentiles 95-100",
        render: |id, c, n| one(fig4(id, c, n)),
    },
    Artifact {
        name: "fig5",
        about: "distributed broker architecture as deployed (topology)",
        render: |_, _, _| one(fig5()),
    },
    Artifact {
        name: "fig6",
        about: "Narada CPU idle and memory vs connections",
        render: |id, c, n| {
            let title =
                "Narada tests, CPU idle (%) and memory (MB); CPU/MEM single server, CPU2/MEM2 DBN";
            one(cpu_mem(id, title, &narada_scalability(c, n)))
        },
    },
    Artifact {
        name: "fig7",
        about: "Narada RTT and stddev vs connections (single vs DBN)",
        render: |id, c, n| {
            let title = "Narada tests, round-trip time and standard deviation; \
                         RTT/STDDEV single, RTT2/STDDEV2 DBN";
            one(rtt_stddev(id, title, EXACT_MS, &narada_scalability(c, n)))
        },
    },
    Artifact {
        name: "fig8",
        about: "Narada single-broker RTT percentiles per connection count",
        render: |id, c, n| {
            let title = "Narada single server tests, percentile of RTT (500–3000 connections)";
            let runs = c.ensure(&scenarios::narada_single_specs(n));
            one(percentile_curves(id, title, EXACT_MS, &runs))
        },
    },
    Artifact {
        name: "fig9",
        about: "Narada DBN RTT percentiles per connection count",
        render: |id, c, n| {
            let title = "Narada DBN tests, percentile of RTT (2000–4000 connections)";
            let runs = c.ensure(&scenarios::narada_dbn_specs(n));
            one(percentile_curves(id, title, EXACT_MS, &runs))
        },
    },
    Artifact {
        name: "fig10",
        about: "R-GMA Primary + Secondary Producer RTT percentiles",
        render: |id, c, n| {
            let title = "R-GMA Primary and Secondary Producer tests, \
                         percentile of RTT (50–200 connections)";
            // Largest series first, in seconds, as the paper plots it.
            let mut runs = c.ensure(&scenarios::rgma_secondary_specs(n));
            runs.reverse();
            one(percentile_curves(id, title, TENTH_S, &runs))
        },
    },
    Artifact {
        name: "fig11",
        about: "R-GMA RTT and stddev vs connections (single vs distributed)",
        render: |id, c, n| {
            let title = "R-GMA Primary Producer and Consumer tests; \
                         RTT/STDDEV single server, RTT2/STDDEV2 distributed";
            one(rtt_stddev(id, title, WHOLE_MS, &rgma_scalability(c, n)))
        },
    },
    Artifact {
        name: "fig12",
        about: "R-GMA single-server RTT percentiles per connection count",
        render: |id, c, n| {
            let title = "R-GMA Primary Producer and Consumer single server tests, \
                         percentile of RTT (100–600)";
            let runs = c.ensure(&scenarios::rgma_single_specs(n));
            one(percentile_curves(id, title, WHOLE_MS, &runs))
        },
    },
    Artifact {
        name: "fig13",
        about: "R-GMA CPU idle and memory (single vs distributed)",
        render: |id, c, n| {
            let title = "R-GMA Consumer tests, CPU idle (%) and memory (MB); \
                         CPU/MEM single, CPU2/MEM2 distributed";
            one(cpu_mem(id, title, &rgma_scalability(c, n)))
        },
    },
    Artifact {
        name: "fig14",
        about: "R-GMA distributed RTT percentiles per connection count",
        render: |id, c, n| {
            let title = "R-GMA distributed network tests, percentile of RTT (400–1000)";
            let runs = c.ensure(&scenarios::rgma_distributed_specs(n));
            one(percentile_curves(id, title, WHOLE_MS, &runs))
        },
    },
    Artifact {
        name: "fig15",
        about: "RTT decomposition (PRT / PT / SRT), cumulative phases",
        render: |id, c, n| one(fig15(id, c, n)),
    },
    Artifact {
        name: "table3",
        about: "qualitative comparison derived from the measurements (Table III)",
        render: |_, c, n| one(table3(c, n)),
    },
    Artifact {
        name: "rgma-warmup",
        about: "S-III.F warm-up loss study (with vs without the wait)",
        render: |_, c, n| one(rgma_warmup(c, n)),
    },
    Artifact {
        name: "ablation-routing",
        about: "DBN broadcast (v1.1.3) vs subscription-aware routing",
        render: |_, c, n| one(ablation_routing(c, n)),
    },
    Artifact {
        name: "ablation-secondary",
        about: "Secondary Producer 30 s delay on vs off",
        render: |_, c, n| one(ablation_secondary(c, n)),
    },
    Artifact {
        name: "ablation-poll",
        about: "subscriber poll period sweep (10 ms - 1 s)",
        render: |_, c, n| one(ablation_poll(c, n)),
    },
    Artifact {
        name: "ablation-aggregation",
        about: "sender-side aggregation at constant byte rate",
        render: |_, c, n| one(ablation_aggregation(c, n)),
    },
    Artifact {
        name: "gridlog",
        about: "gridlog partitioned-log scalability series (500-2000 conns)",
        render: |_, c, n| one(gridlog_scaling(c, n)),
    },
    Artifact {
        name: "compare",
        about: "three-way Narada/R-GMA/gridlog RTT + outage-loss comparison",
        render: |_, c, n| {
            let mut sheets = one(three_way(c, n));
            sheets.extend(three_way_slo(c, n).map(|t| Sheet {
                suffix: "-slo",
                ..t.into()
            }));
            sheets
        },
    },
    Artifact {
        name: "checks",
        about: "headline paper findings checked against measurements",
        render: |_, c, n| {
            let (table, failed) = claims::table(CLAIMS, c, n);
            vec![Sheet {
                failed,
                ..table.into()
            }]
        },
    },
];

pub(crate) fn ms(v: f64) -> String {
    trim_float((v * 100.0).round() / 100.0)
}

pub(crate) fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

pub(crate) fn percentile(r: &ExperimentResult, p: u32) -> f64 {
    let series = &r.summary.percentiles_ms;
    series.iter().find(|x| x.0 == p).map_or(0.0, |x| x.1)
}

/// gridlog single-broker scalability — the third contender's analogue
/// of the fig 6/7 series: RTT, loss, and server cost at 500–2000
/// connections (8 partitions, 2-member consumer group).
pub fn gridlog_scaling(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::gridlog_single_specs(msgs));
    let mut t = Table::new(
        "gridlog single-broker scalability (8 partitions, 2-member consumer group)",
        &[
            "conns",
            "sent",
            "received",
            "loss",
            "RTT mean ms",
            "stddev ms",
            "p99 ms",
            "CPU idle",
            "mem MB",
        ],
    );
    for r in &results {
        t.push_row(vec![
            r.generators.to_string(),
            r.summary.sent.to_string(),
            r.summary.received.to_string(),
            pct(r.summary.loss_rate),
            ms(r.summary.rtt_mean_ms),
            ms(r.summary.rtt_stddev_ms),
            ms(percentile(r, 99)),
            pct(r.server_idle),
            format!("{:.1}", r.server_mem_mb),
        ]);
    }
    t
}

/// Three-contender comparison: Narada vs R-GMA vs gridlog on the
/// identical 400-generator workload and seed, fault-free and under each
/// contender's analogous mid-run outage (broker crash; servlet stall
/// for R-GMA, which has no broker). The gridlog CLIENT row maps
/// CLIENT_ACKNOWLEDGE onto committed-offset resume, so its consumer
/// group replays the crash window from the durable log.
pub fn three_way(campaign: &mut Campaign, msgs: u32) -> Table {
    let clean = campaign.ensure(&scenarios::three_way_specs(msgs));
    let outage = campaign.ensure(&scenarios::three_way_outage_specs(msgs));
    let mut t = Table::new(
        "Three-contender comparison — identical workload and seed, 400 generators",
        &[
            "contender",
            "RTT mean ms",
            "stddev ms",
            "p99 ms",
            "loss",
            "outage",
            "outage loss",
            "reconnects",
            "recovered",
        ],
    );
    // (label, fault-free run index, outage run index, outage scenario).
    let rows: [(&str, Option<usize>, usize, &str); 4] = [
        ("Narada (AUTO)", Some(0), 0, "broker-crash"),
        ("R-GMA (AUTO)", Some(1), 1, "servlet-stall"),
        ("gridlog (AUTO → latest)", Some(2), 2, "broker-crash"),
        ("gridlog (CLIENT → committed)", None, 3, "broker-crash"),
    ];
    for (label, ci, oi, scenario) in rows {
        let o = &outage[oi];
        let fs = o.fault_stats.unwrap_or_default();
        let (mean, sd, p, loss) = match ci {
            Some(i) => {
                let c = &clean[i];
                (
                    ms(c.summary.rtt_mean_ms),
                    ms(c.summary.rtt_stddev_ms),
                    ms(percentile(c, 99)),
                    pct(c.summary.loss_rate),
                )
            }
            // The committed-offset variant only differs once a fault
            // makes offsets matter; its fault-free numbers are the AUTO
            // row's.
            None => ("—".into(), "—".into(), "—".into(), "—".into()),
        };
        t.push_row(vec![
            label.into(),
            mean,
            sd,
            p,
            loss,
            scenario.into(),
            pct(o.summary.loss_rate),
            fs.reconnects.to_string(),
            fs.recovered.to_string(),
        ]);
    }
    t
}

/// Three-contender freshness comparison (the `--slo` companion to
/// [`three_way`]): deadline compliance, windowed delivery-latency
/// percentiles and error-budget burn for the same fault-free and
/// outage runs — degradation reported as SLO burn rather than raw
/// loss. `None` when the campaign does not measure freshness.
pub fn three_way_slo(campaign: &mut Campaign, msgs: u32) -> Option<Table> {
    let mut runs = campaign.ensure(&scenarios::three_way_specs(msgs));
    runs.extend(campaign.ensure(&scenarios::three_way_outage_specs(msgs)));
    slo_table(
        "Three-contender freshness — deadline-SLO compliance, identical workload and seed",
        &runs,
    )
}

/// Table I — hardware specifications and software versions (documented
/// constants of the calibration).
pub fn table1() -> Table {
    let mut t = Table::new(
        "TABLE I — hardware specifications and software versions (simulated testbed)",
        &[
            "CPU and memory",
            "OS and JVM (modelled)",
            "Middleware (reproduced)",
        ],
    );
    t.push_row(vec![
        "PentiumIII 866MHz (single core), 2GB".into(),
        "Linux 2.4-era scheduler model, JVM thread-per-connection".into(),
        "narada crate (NaradaBrokering v1.1.3 behaviour), rgma crate (R-GMA gLite 3.0 behaviour)"
            .into(),
    ]);
    t.push_row(vec![
        "8-node isolated 100Mbps switched LAN".into(),
        "effective 7.5 MB/s, 150us switch latency".into(),
        "Narada JVM -Xms1024m -Xmx1024m; Tomcat -Xmx1024m".into(),
    ]);
    t
}

/// Table II — comparison test settings plus measured totals/loss
/// (§III.E.1 reports the loss rates in prose).
pub fn table2(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::table2_specs(msgs));
    let mut t = Table::new(
        "TABLE II — comparison test settings and measured outcomes",
        &[
            "test",
            "transport",
            "ACK mode",
            "comment",
            "sent",
            "received",
            "loss",
        ],
    );
    let meta = [
        ("Test1 (UDP)", "UDP", "AUTO", ""),
        ("Test2 (UDP CLI)", "UDP", "CLIENT", ""),
        ("Test3 (NIO)", "NIO", "AUTO", ""),
        ("Test4 (TCP)", "TCP", "AUTO", ""),
        ("Test5 (Triple)", "TCP", "AUTO", "Triple payload"),
        ("Test6 (80)", "TCP", "AUTO", "80 connections"),
    ];
    for ((name, transport, ack, comment), r) in meta.iter().zip(&results) {
        t.push_row(vec![
            (*name).into(),
            (*transport).into(),
            (*ack).into(),
            (*comment).into(),
            r.summary.sent.to_string(),
            r.summary.received.to_string(),
            pct(r.summary.loss_rate),
        ]);
    }
    t
}

/// Fig 3 — Narada comparison tests: RTT and standard deviation.
pub fn fig3(id: &str, campaign: &mut Campaign, msgs: u32) -> Figure {
    let results = campaign.ensure(&scenarios::table2_specs(msgs));
    let mut f = Figure::new(
        id,
        "Narada comparison tests: round-trip time and standard deviation",
        "test",
        "millisecond",
    );
    // X positions follow the paper's bar order: UDP, UDP CLI, NIO, Triple, TCP, 80.
    let order = [0usize, 1, 2, 4, 3, 5];
    let bars = |y: fn(&ExperimentResult) -> f64| {
        order
            .iter()
            .enumerate()
            .map(|(x, &i)| (x as f64, y(&results[i])))
            .collect()
    };
    f.push_series("RTT", bars(|r| r.summary.rtt_mean_ms));
    f.push_series("STDDEV", bars(|r| r.summary.rtt_stddev_ms));
    f
}

/// A figure's y unit: the axis label, and what a measured millisecond
/// value becomes on that axis.
type Unit = (&'static str, fn(f64) -> f64);
/// Narada's figures: milliseconds as measured.
const EXACT_MS: Unit = ("millisecond", |v| v);
/// R-GMA's figures: whole milliseconds.
const WHOLE_MS: Unit = ("millisecond", f64::round);
/// Fig 10: seconds to one decimal, as in the paper.
const TENTH_S: Unit = ("second", |v| (v / 100.0).round() / 10.0);

/// One run's RTT percentile curve (95–100 %) in `unit`.
fn percentile_curve(r: &ExperimentResult, unit: Unit) -> Vec<(f64, f64)> {
    let series = &r.summary.percentiles_ms;
    series
        .iter()
        .map(|&(p, v)| (f64::from(p), (unit.1)(v)))
        .collect()
}

/// Fig 4 — comparison tests, percentile of RTT (95–100 %).
pub fn fig4(id: &str, campaign: &mut Campaign, msgs: u32) -> Figure {
    let results = campaign.ensure(&scenarios::table2_specs(msgs));
    let mut f = Figure::new(
        id,
        "Narada comparison tests, percentile of RTT",
        "percentile",
        EXACT_MS.0,
    );
    // The paper plots NIO, TCP, UDP, Triple, 80 (UDP CLI omitted).
    for (label, ix) in [("NIO", 2), ("TCP", 3), ("UDP", 0), ("Triple", 4), ("80", 5)] {
        f.push_series(label, percentile_curve(&results[ix], EXACT_MS));
    }
    f
}

/// Fig 5 — the distributed architecture (topology description).
pub fn fig5() -> Table {
    let mut t = Table::new(
        "Fig 5 — distributed broker architecture (as deployed)",
        &["role", "nodes", "detail"],
    );
    t.push_row(vec![
        "publishing brokers".into(),
        "2".into(),
        "accept generator connections (≤ m per broker)".into(),
    ]);
    t.push_row(vec![
        "subscribing broker".into(),
        "1".into(),
        "serves the receiving programs (throughput ≤ n)".into(),
    ]);
    t.push_row(vec![
        "unit controller (BDN)".into(),
        "1".into(),
        "assigns broker addresses; full TCP mesh between brokers".into(),
    ]);
    t.push_row(vec![
        "v1.1.3 behaviour".into(),
        "-".into(),
        "messages are flooded to every broker regardless of subscriptions".into(),
    ]);
    t
}

/// A middleware's scalability series: one server, then its scaled-out
/// deployment.
type Pair = (Runs, Runs);

fn narada_scalability(campaign: &mut Campaign, msgs: u32) -> Pair {
    let single = campaign.ensure(&scenarios::narada_single_specs(msgs));
    let dbn = campaign.ensure(&scenarios::narada_dbn_specs(msgs));
    (single, dbn)
}

fn rgma_scalability(campaign: &mut Campaign, msgs: u32) -> Pair {
    let single = campaign.ensure(&scenarios::rgma_single_specs(msgs));
    let dist = campaign.ensure(&scenarios::rgma_distributed_specs(msgs));
    (single, dist)
}

/// `y` of every run against its connection count.
fn by_connections(runs: &Runs, y: impl Fn(&ExperimentResult) -> f64) -> Vec<(f64, f64)> {
    runs.iter().map(|r| (r.generators as f64, y(r))).collect()
}

/// Figs 6 and 13 — server CPU idle (%) and memory (MB) vs connections.
fn cpu_mem(id: &str, title: &str, (single, scaled): &Pair) -> Figure {
    let mut f = Figure::new(
        id,
        title,
        "concurrent connections",
        "CPU idle % / memory (MB)",
    );
    let idle = |r: &ExperimentResult| (r.server_idle * 100.0).round();
    let mem = |r: &ExperimentResult| r.server_mem_mb.round();
    f.push_series("CPU", by_connections(single, idle));
    f.push_series("CPU2", by_connections(scaled, idle));
    f.push_series("MEM", by_connections(single, mem));
    f.push_series("MEM2", by_connections(scaled, mem));
    f
}

/// Figs 7 and 11 — RTT mean and standard deviation vs connections.
fn rtt_stddev(id: &str, title: &str, unit: Unit, (single, scaled): &Pair) -> Figure {
    let mut f = Figure::new(id, title, "concurrent connections", unit.0);
    let mean = |r: &ExperimentResult| (unit.1)(r.summary.rtt_mean_ms);
    let stddev = |r: &ExperimentResult| (unit.1)(r.summary.rtt_stddev_ms);
    f.push_series("RTT", by_connections(single, mean));
    f.push_series("STDDEV", by_connections(single, stddev));
    f.push_series("RTT2", by_connections(scaled, mean));
    f.push_series("STDDEV2", by_connections(scaled, stddev));
    f
}

/// Figs 8, 9, 10, 12 and 14 — percentile of RTT, one curve per
/// connection count.
fn percentile_curves(id: &str, title: &str, unit: Unit, runs: &Runs) -> Figure {
    let mut f = Figure::new(id, title, "percentile", unit.0);
    for r in runs {
        f.push_series(r.generators.to_string(), percentile_curve(r, unit));
    }
    f
}

/// Fig 15 — RTT decomposition (PRT / PT / SRT), cumulative phase plot.
pub fn fig15(id: &str, campaign: &mut Campaign, msgs: u32) -> Figure {
    let results = campaign.ensure(&scenarios::fig15_specs(msgs));
    let mut f = Figure::new(
        id,
        "RTT decomposition: cumulative time at each phase boundary",
        "phase (0=before_sending 1=after_sending 2=before_receiving 3=after_receiving)",
        "millisecond",
    );
    for (label, r) in [("Narada", &results[0]), ("RGMA", &results[1])] {
        let s = &r.summary;
        let pts = vec![
            (0.0, 0.0),
            (1.0, s.prt_mean_ms),
            (2.0, s.prt_mean_ms + s.pt_mean_ms),
            (3.0, s.prt_mean_ms + s.pt_mean_ms + s.srt_mean_ms),
        ];
        f.push_series(label, pts);
    }
    f
}

/// Table III — qualitative comparison, derived from the measured data.
pub fn table3(campaign: &mut Campaign, msgs: u32) -> Table {
    let (nsingle, ndbn) = narada_scalability(campaign, msgs);
    let (rsingle, rdist) = rgma_scalability(campaign, msgs);
    // The connections column rests on the attempt each single server
    // refuses, which `checks` tests: run them here, one at a time, so
    // that `all` runs each spec under an artifact that states it.
    campaign.ensure(&[scenarios::narada_single_4000(msgs)]);
    let rgma_800 = campaign.ensure(&[scenarios::rgma_single_800(msgs)]);
    let (rgma_conns, rgma_ceiling) = if rgma_800[0].refused > 0 {
        ("Average", "refuses near 800")
    } else {
        ("Good", "accepts all 800")
    };
    let grade_rtt = |ms: f64| {
        if ms < 50.0 {
            "Very good"
        } else if ms < 1000.0 {
            "Good"
        } else {
            "Average"
        }
    };
    // Scalability: how much extra capacity the distributed deployment
    // adds, and at what cost.
    let last_rtt = |runs: &Runs| runs.last().map(|r| r.summary.rtt_mean_ms);
    let narada_rtt = last_rtt(&nsingle).unwrap_or(0.0);
    let rgma_rtt = last_rtt(&rsingle).unwrap_or(0.0);
    let narada_scal = if ndbn.iter().all(|r| r.refused == 0)
        && last_rtt(&ndbn).unwrap_or(0.0) <= narada_rtt * 1.5
    {
        "Average" // more connections, but no RTT benefit and wasted CPU
    } else {
        "Poor"
    };
    let rgma_scal = if rdist.iter().all(|r| r.refused == 0)
        && last_rtt(&rdist).unwrap_or(f64::MAX) < rgma_rtt
    {
        "Very good"
    } else {
        "Good"
    };
    let mut t = Table::new(
        "TABLE III — R-GMA and NaradaBrokering comparison (derived from measurements)",
        &[
            "",
            "Real-time performance",
            "Concurrent connections & throughput",
            "Scalability",
        ],
    );
    t.push_row(vec![
        "R-GMA".into(),
        grade_rtt(rgma_rtt).into(),
        format!(
            "{rgma_conns} (single server {rgma_ceiling}; mean RTT {} ms at 600)",
            ms(rgma_rtt)
        ),
        rgma_scal.into(),
    ]);
    t.push_row(vec![
        "Narada".into(),
        grade_rtt(narada_rtt).into(),
        format!("Very good ({} ms at 3000 connections)", ms(narada_rtt)),
        narada_scal.into(),
    ]);
    t
}

/// §III.F warm-up loss study: loss with and without the warm-up wait.
pub fn rgma_warmup(campaign: &mut Campaign, msgs: u32) -> Table {
    let no_warm = campaign.ensure(&[scenarios::rgma_no_warmup_spec(msgs)]);
    let warm = campaign.ensure(&scenarios::rgma_single_specs(msgs));
    let mut t = Table::new(
        "§III.F — R-GMA warm-up loss (400 generators)",
        &["configuration", "sent", "received", "loss"],
    );
    let r400 = warm
        .iter()
        .find(|r| r.generators == 400)
        .expect("400 in series");
    for (configuration, r) in [
        ("publish immediately", &no_warm[0]),
        ("wait 10-20s before publishing", r400),
    ] {
        t.push_row(vec![
            configuration.into(),
            r.summary.sent.to_string(),
            r.summary.received.to_string(),
            pct(r.summary.loss_rate),
        ]);
    }
    t
}

/// Ablation: DBN broadcast (v1.1.3) vs subscription-aware routing.
pub fn ablation_routing(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::dbn_routing_ablation(msgs, 2000));
    let mut t = Table::new(
        "Ablation — DBN forwarding: v1.1.3 broadcast flood vs subscription-aware routing",
        &[
            "mode",
            "RTT (ms)",
            "inter-broker messages",
            "broker CPU idle",
        ],
    );
    for r in &results {
        t.push_row(vec![
            if r.name.contains("broadcast") {
                "broadcast (v1.1.3)".into()
            } else {
                "routed (fixed)".into()
            },
            ms(r.summary.rtt_mean_ms),
            r.broker_forwards.to_string(),
            pct(r.server_idle),
        ]);
    }
    t
}

/// Ablation: the Secondary Producer's deliberate 30 s delay.
pub fn ablation_secondary(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::secondary_delay_ablation(msgs));
    let mut t = Table::new(
        "Ablation — Secondary Producer deliberate batch delay",
        &["flush", "mean RTT (ms)", "p100 (ms)"],
    );
    for r in &results {
        t.push_row(vec![
            if r.name.contains("30s") {
                "30 s (gLite 3.0)".into()
            } else {
                "0.5 s".into()
            },
            ms(r.summary.rtt_mean_ms),
            ms(percentile(r, 100)),
        ]);
    }
    t
}

/// Ablation: subscriber poll period.
pub fn ablation_poll(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::poll_period_ablation(msgs));
    let mut t = Table::new(
        "Ablation — subscriber poll period (the paper's 100 ms quantization)",
        &["poll period", "mean RTT (ms)", "mean SRT (ms)"],
    );
    for r in &results {
        let label = r.name.trim_start_matches("ablation/poll-").to_owned();
        t.push_row(vec![
            label,
            ms(r.summary.rtt_mean_ms),
            ms(r.summary.srt_mean_ms),
        ]);
    }
    t
}

/// Ablation: sender-side message aggregation (related work: IBM RMM).
pub fn ablation_aggregation(campaign: &mut Campaign, msgs: u32) -> Table {
    let results = campaign.ensure(&scenarios::aggregation_ablation(msgs, 800));
    let mut t = Table::new(
        "Ablation — message aggregation at constant byte rate (RMM, related work §IV)",
        &[
            "readings per message",
            "wire messages",
            "mean RTT (ms)",
            "broker CPU idle",
        ],
    );
    for r in &results {
        let k = r.name.trim_start_matches("ablation/aggregate-").to_owned();
        t.push_row(vec![
            k,
            r.summary.sent.to_string(),
            ms(r.summary.rtt_mean_ms),
            pct(r.server_idle),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain() -> Campaign {
        Campaign::new(0, 1, gridmon_core::FaultSchedule::new(), Vec::new())
    }

    #[test]
    fn table1_and_fig5_are_static() {
        assert!(table1().render().contains("PentiumIII"));
        assert!(fig5().render().contains("unit controller"));
    }

    #[test]
    fn gridlog_and_three_way_artifacts_build() {
        let mut c = plain();
        let g = gridlog_scaling(&mut c, 1);
        assert_eq!(g.rows.len(), 3);
        let t = three_way(&mut c, 1);
        assert_eq!(t.rows.len(), 4);
        // 3 scaling runs + 3 fault-free + 4 outage runs, no rerun overlap.
        assert_eq!(c.runs(), 10);
        // Every outage row carries its scenario name.
        assert!(t.render().contains("broker-crash"));
        assert!(t.render().contains("servlet-stall"));
    }

    /// Every claim reads runs that an artifact stating it makes, so
    /// `checks` adds no experiment to `all`.
    #[test]
    fn checks_adds_no_experiment_to_all() {
        let mut c = plain();
        let (checks, others): (Vec<&Artifact>, _) =
            ARTIFACTS.iter().partition(|a| a.name == "checks");
        for a in others {
            (a.render)(a.name, &mut c, 1);
        }
        let before = c.runs();
        assert_eq!(before, 50);
        (checks[0].render)(checks[0].name, &mut c, 1);
        assert_eq!(c.runs(), before);
    }

    /// The R-GMA connections cell reads the 800-connection attempt: a
    /// smaller run under that spec's name, which accepts everyone, is
    /// what `table3` finds cached and must report.
    #[test]
    fn table3_reads_the_refusals_of_the_800_connection_attempt() {
        let mut c = plain();
        let refused = table3(&mut c, 1).render();
        assert!(
            refused.contains("single server refuses near 800"),
            "{refused}"
        );

        let mut c = plain();
        let mut accepted = scenarios::rgma_single_800(1);
        accepted.generators = 100;
        assert_eq!(c.ensure(&[accepted])[0].refused, 0);
        let accepted = table3(&mut c, 1).render();
        assert!(!accepted.contains("refuses"), "{accepted}");
        assert!(accepted.contains("accepts all 800"), "{accepted}");
    }

    #[test]
    fn artifacts_build_at_tiny_scale() {
        let mut c = plain();
        let t2 = table2(&mut c, 2);
        assert_eq!(t2.rows.len(), 6);
        let f3 = fig3("fig3", &mut c, 2);
        assert_eq!(f3.series.len(), 2);
        let f4 = fig4("fig4", &mut c, 2);
        assert_eq!(f4.series.len(), 5);
        // fig3/fig4 reuse the table2 runs.
        assert_eq!(c.runs(), 6);
        let f15 = fig15("fig15", &mut c, 2);
        assert_eq!(f15.series.len(), 2);
        // Cumulative phases are non-decreasing.
        for s in &f15.series {
            for w in s.points.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }
}
