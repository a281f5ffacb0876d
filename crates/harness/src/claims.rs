//! The paper's findings as one table: [`CLAIMS`] states each finding
//! once, with the numbers that test it and the band each must lie in.
//! The `checks` artifact prints it, `repro`'s exit status counts the
//! rows that do not hold, and the `paper_findings` test requires every
//! row to hold at a small scale.

use crate::artifacts::{ms, pct, percentile};
use crate::campaign::{Campaign, Runs};
use gridmon_core::{scenarios, ExperimentResult};
use telemetry::Table;
use Band::{Above, Below, Between, Exactly};

/// Where one measured number must lie for its claim to hold.
#[derive(Clone, Copy, Debug)]
pub enum Band {
    /// Strictly above the bound.
    Above(f64),
    /// Strictly below the bound.
    Below(f64),
    /// Strictly between the two bounds.
    Between(f64, f64),
    /// Equal to the value.
    Exactly(f64),
}

impl Band {
    /// Whether `x` lies in the band; a NaN lies in none.
    pub fn contains(self, x: f64) -> bool {
        match self {
            Above(lo) => x > lo,
            Below(hi) => x < hi,
            Between(lo, hi) => lo < x && x < hi,
            Exactly(v) => x == v,
        }
    }
}

/// One finding of the paper, checked against the measurements.
pub struct Claim {
    /// The finding, as the `claim` column prints it.
    pub label: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// One band per number `measure` returns, in its order.
    pub bands: &'static [Band],
    /// Run the specs the claim reads, at that many messages per
    /// generator, and return its numbers and the `measured` column.
    pub measure: fn(&mut Campaign, u32) -> (Vec<f64>, String),
}

impl Claim {
    /// The `measured` text, and whether every number lies in its band.
    pub fn check(&self, campaign: &mut Campaign, msgs: u32) -> (String, bool) {
        let (numbers, text) = (self.measure)(campaign, msgs);
        let holds = numbers.len() == self.bands.len()
            && numbers.iter().zip(self.bands).all(|(&x, b)| b.contains(x));
        (text, holds)
    }
}

/// The findings table over `claims`, and how many of its rows do not
/// hold.
pub fn table(claims: &[Claim], campaign: &mut Campaign, msgs: u32) -> (Table, usize) {
    let columns = ["claim", "paper", "measured", "holds"];
    let mut table = Table::new("Paper findings vs measurements", &columns);
    let mut failures = 0;
    for claim in claims {
        let (measured, holds) = claim.check(campaign, msgs);
        failures += usize::from(!holds);
        let holds = if holds { "yes" } else { "NO" };
        let row = [claim.label, claim.paper, &measured, holds];
        table.push_row(row.map(String::from).to_vec());
    }
    (table, failures)
}

fn table2(c: &mut Campaign, n: u32) -> Runs {
    c.ensure(&scenarios::table2_specs(n))
}

fn narada_single(c: &mut Campaign, n: u32) -> Runs {
    c.ensure(&scenarios::narada_single_specs(n))
}

fn narada_dbn(c: &mut Campaign, n: u32) -> Runs {
    c.ensure(&scenarios::narada_dbn_specs(n))
}

fn rgma_single(c: &mut Campaign, n: u32) -> Runs {
    c.ensure(&scenarios::rgma_single_specs(n))
}

fn last(runs: &Runs) -> &ExperimentResult {
    runs.last().expect("a series has runs")
}

/// One number of each run.
fn field(runs: &Runs, f: fn(&ExperimentResult) -> f64) -> Vec<f64> {
    runs.iter().map(|r| f(r)).collect()
}

/// Each run's mean RTT.
fn rtt(runs: &Runs) -> Vec<f64> {
    field(runs, |r| r.summary.rtt_mean_ms)
}

/// The smallest ratio of a value in `series` to the one before it.
fn min_step(series: &[f64]) -> f64 {
    let steps = series.windows(2).map(|w| w[1] / w[0]);
    steps.fold(f64::INFINITY, f64::min)
}

/// Each value of `series` shown by `show`, ` / ` between them.
fn each(series: &[f64], show: fn(f64) -> String) -> String {
    let shown: Vec<String> = series.iter().map(|&v| show(v)).collect();
    shown.join(" / ")
}

/// A count held as a float, shown whole.
fn count(v: f64) -> String {
    v.to_string()
}

/// One number, shown by `show`.
fn shown(x: f64, show: fn(f64) -> String) -> (Vec<f64>, String) {
    (vec![x], show(x))
}

/// How many connections a run refused.
fn refused(count: u32) -> (Vec<f64>, String) {
    (vec![count.into()], format!("{count} refused"))
}

/// The ratio of two RTTs, shown as both, then `at`.
fn versus(a: f64, b: f64, at: &str) -> (Vec<f64>, String) {
    (vec![a / b], format!("{} ms vs {} ms{at}", ms(a), ms(b)))
}

/// Every finding `checks` prints, in its row order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        label: "UDP slower than TCP (fig 3)",
        paper: "12 ms vs 4 ms",
        bands: &[Above(1.3)],
        measure: |c, n| {
            let rtt = rtt(&table2(c, n));
            versus(rtt[0], rtt[3], "")
        },
    },
    Claim {
        label: "UDP AUTO loss ≈ 0.06 %",
        paper: "0.06 %",
        bands: &[Between(0.0001, 0.002)],
        measure: |c, n| shown(table2(c, n)[0].summary.loss_rate, pct),
    },
    Claim {
        label: "TCP loss zero",
        paper: "0",
        bands: &[Exactly(0.0)],
        measure: |c, n| shown(table2(c, n)[3].summary.loss_rate, pct),
    },
    Claim {
        label: "99.8 % of Narada messages within 100 ms",
        paper: "99.8 %",
        bands: &[Above(0.99)],
        measure: |c, n| {
            let runs = narada_single(c, n);
            let within = runs.iter().map(|r| r.summary.within_100ms);
            shown(within.fold(f64::INFINITY, f64::min), pct)
        },
    },
    Claim {
        label: "smooth RTT increase with connections (fig 7)",
        paper: "~5x from 500→3000",
        bands: &[Between(2.0, 10.0)],
        measure: |c, n| {
            let rtt = rtt(&narada_single(c, n));
            shown(rtt[3] / rtt[0], |growth| format!("{growth:.1}x"))
        },
    },
    Claim {
        label: "single broker cannot accept 4000 connections",
        paper: "refused",
        bands: &[Above(0.0)],
        measure: |c, n| refused(c.ensure(&[scenarios::narada_single_4000(n)])[0].refused),
    },
    Claim {
        label: "DBN accepts 4000+ connections",
        paper: "accepted",
        bands: &[Exactly(0.0)],
        measure: |c, n| refused(last(&narada_dbn(c, n)).refused),
    },
    Claim {
        label: "DBN no faster than single server (broadcast deficiency)",
        paper: "RTT2 ≥ RTT",
        bands: &[Above(0.5)],
        measure: |c, n| {
            let dbn = narada_dbn(c, n)[1].summary.rtt_mean_ms;
            versus(dbn, rtt(&narada_single(c, n))[3], " at 3000")
        },
    },
    Claim {
        label: "R-GMA RTT ≫ Narada RTT",
        paper: "seconds vs milliseconds",
        bands: &[Above(50.0)],
        measure: |c, n| {
            let rgma = last(&rgma_single(c, n)).summary.rtt_mean_ms;
            versus(rgma, rtt(&narada_single(c, n))[1], "")
        },
    },
    Claim {
        label: "99 % of R-GMA messages within 4000 ms",
        paper: "p99 ≤ ~4000 ms",
        // No percentile at all (nothing delivered) is not a pass.
        bands: &[Between(0.0, 8000.0)],
        measure: |c, n| {
            let p99 = percentile(last(&rgma_single(c, n)), 99);
            shown(p99, |p99| format!("p99 = {} ms at 600", ms(p99)))
        },
    },
    Claim {
        label: "one R-GMA server cannot accept 800 connections",
        paper: "refused",
        bands: &[Above(0.0)],
        measure: |c, n| refused(c.ensure(&[scenarios::rgma_single_800(n)])[0].refused),
    },
    Claim {
        label: "distributed R-GMA accepts 1000 and outperforms single",
        paper: "RTT2 < RTT, no refusals",
        bands: &[Exactly(0.0), Below(1.0)],
        measure: |c, n| {
            let single = last(&rgma_single(c, n)).summary.rtt_mean_ms;
            let dist = c.ensure(&scenarios::rgma_distributed_specs(n));
            let (dist, refused) = (last(&dist).summary.rtt_mean_ms, last(&dist).refused);
            let (ratio, text) = versus(dist, single, &format!(", {refused} refused"));
            ([vec![refused.into()], ratio].concat(), text)
        },
    },
    Claim {
        label: "Secondary Producer delays up to ~35 s (fig 10)",
        paper: "25-35 s",
        bands: &[Between(25_000.0, 45_000.0)],
        measure: |c, n| {
            let p100 = percentile(last(&c.ensure(&scenarios::rgma_secondary_specs(n))), 100);
            shown(p100, |p100| format!("p100 = {:.1} s", p100 / 1000.0))
        },
    },
    Claim {
        label: "R-GMA Process Time dominates RTT (fig 15)",
        paper: "PT ≫ PRT, SRT",
        bands: &[Above(5.0), Above(5.0)],
        measure: |c, n| {
            let s = &c.ensure(&scenarios::fig15_specs(n))[1].summary;
            let (prt, pt, srt) = (s.prt_mean_ms, s.pt_mean_ms, s.srt_mean_ms);
            let text = format!("PRT {} / PT {} / SRT {} ms", ms(prt), ms(pt), ms(srt));
            (vec![pt / prt, pt / srt], text)
        },
    },
    Claim {
        label: "UDP CLIENT, Triple and NIO slower than TCP, 80 faster (fig 3)",
        paper: "10 / 7 / 5 / 3 ms vs 4 ms",
        bands: &[
            Above(1.0),
            Below(1.1),
            Above(1.0),
            Between(1.0, 2.0),
            Below(1.0),
        ],
        measure: |c, n| {
            let rtt = rtt(&table2(c, n));
            let (udp, cli, nio, tcp, triple, eighty) =
                (rtt[0], rtt[1], rtt[2], rtt[3], rtt[4], rtt[5]);
            let others = each(&[cli, triple, nio, eighty], ms);
            let text = format!("{others} ms vs TCP {} ms, UDP {} ms", ms(tcp), ms(udp));
            (
                vec![cli / tcp, cli / udp, triple / tcp, nio / tcp, eighty / tcp],
                text,
            )
        },
    },
    Claim {
        label: "UDP CLIENT ack loses less than AUTO (Table II)",
        paper: "0.03 % vs 0.06 %",
        bands: &[Below(1.0)],
        measure: |c, n| {
            let t2 = table2(c, n);
            let (auto, client) = (t2[0].summary.loss_rate, t2[1].summary.loss_rate);
            (
                vec![client / auto],
                format!("{} vs {}", pct(client), pct(auto)),
            )
        },
    },
    Claim {
        label: "Narada RTT rises at every step from 500 to 3000 (fig 7)",
        paper: "smooth increase",
        bands: &[Above(1.0)],
        measure: |c, n| {
            let rtt = rtt(&narada_single(c, n));
            (vec![min_step(&rtt)], format!("{} ms", each(&rtt, ms)))
        },
    },
    Claim {
        label: "single broker accepts 3000 connections and most of 4000",
        paper: "3000 accepted",
        bands: &[Exactly(0.0), Above(3800.0)],
        measure: |c, n| {
            let refused: u32 = narada_single(c, n).iter().map(|r| r.refused).sum();
            let connected = c.ensure(&[scenarios::narada_single_4000(n)])[0].connected;
            let text = format!("{refused} refused at 500-3000, {connected} of 4000 connected");
            (vec![refused.into(), connected.into()], text)
        },
    },
    Claim {
        label: "DBN accepts 2000-4000 connections and floods between brokers",
        paper: "broadcast between brokers",
        bands: &[Exactly(0.0), Above(0.0)],
        measure: |c, n| {
            let dbn = narada_dbn(c, n);
            let refused: u32 = dbn.iter().map(|r| r.refused).sum();
            let forwards = dbn[1].broker_forwards;
            let text = format!("{refused} refused, {forwards} inter-broker messages at 3000");
            (vec![refused.into(), forwards as f64], text)
        },
    },
    Claim {
        label: "Narada's three phases are all short (fig 15)",
        paper: "PRT ~5 / PT ~5 / SRT ~5 ms",
        bands: &[Below(10.0), Below(20.0), Below(10.0)],
        measure: |c, n| {
            let s = &c.ensure(&scenarios::fig15_specs(n))[0].summary;
            let (prt, pt, srt) = (s.prt_mean_ms, s.pt_mean_ms, s.srt_mean_ms);
            let text = format!("PRT {} / PT {} / SRT {} ms", ms(prt), ms(pt), ms(srt));
            (vec![prt, pt, srt], text)
        },
    },
    Claim {
        label: "one R-GMA server accepts 600 connections",
        paper: "600 accepted",
        bands: &[Exactly(0.0)],
        measure: |c, n| refused(last(&rgma_single(c, n)).refused),
    },
    Claim {
        label: "distributed R-GMA beats single at 600 and spreads CPU (figs 11, 13)",
        paper: "1050 ms vs 1800 ms",
        bands: &[Below(1.0), Above(0.0)],
        measure: |c, n| {
            let single = &rgma_single(c, n)[3];
            let dist = &c.ensure(&scenarios::rgma_distributed_specs(n))[1];
            let (idle, idle2) = (single.server_idle, dist.server_idle);
            let at = format!(", CPU idle {} vs {}", pct(idle2), pct(idle));
            let (ratio, text) = versus(dist.summary.rtt_mean_ms, single.summary.rtt_mean_ms, &at);
            ([ratio, vec![idle2 - idle]].concat(), text)
        },
    },
    Claim {
        label: "Secondary Producer chain takes tens of seconds (fig 10)",
        paper: "25-37 s",
        bands: &[Above(10_000.0), Below(45_000.0)],
        measure: |c, n| {
            let sec = c.ensure(&scenarios::rgma_secondary_specs(n));
            let mean = rtt(&sec).into_iter().fold(f64::INFINITY, f64::min);
            let p100 = sec.iter().map(|r| percentile(r, 100)).fold(0.0, f64::max);
            let text = format!(
                "mean ≥ {:.1} s, p100 ≤ {:.1} s",
                mean / 1000.0,
                p100 / 1000.0
            );
            (vec![mean, p100], text)
        },
    },
    Claim {
        label: "publishing at once loses early tuples, waiting loses none (§III.F)",
        paper: "0.17 % vs 0",
        bands: &[Between(0.0, 0.2), Exactly(0.0)],
        measure: |c, n| {
            let lossy = c.ensure(&[scenarios::rgma_no_warmup_spec(n)])[0]
                .summary
                .loss_rate;
            let waited = rgma_single(c, n)[2].summary.loss_rate;
            (
                vec![lossy, waited],
                format!("{} vs {}", pct(lossy), pct(waited)),
            )
        },
    },
    Claim {
        label: "Narada real-time very good, R-GMA average within 5 s (Table III)",
        paper: "very good vs average",
        bands: &[Below(50.0), Above(200.0), Above(0.99)],
        measure: |c, n| {
            let narada = rtt(&narada_single(c, n))[3];
            let runs = rgma_single(c, n);
            let s = &last(&runs).summary;
            let text = format!(
                "{} ms at 3000 vs {} ms at 600",
                ms(narada),
                ms(s.rtt_mean_ms)
            );
            let text = format!("{text}, {} within 5 s", pct(s.within_5s));
            (vec![narada, s.rtt_mean_ms, s.within_5s], text)
        },
    },
    Claim {
        label: "aggregation sends fewer messages, idles the broker, costs RTT",
        paper: "message quantity dominates (RMM)",
        bands: &[Above(1.0), Above(1.0), Above(0.0), Above(1.0)],
        measure: |c, n| {
            let runs = c.ensure(&scenarios::aggregation_ablation(n, 800));
            let (sent, rtt) = (field(&runs, |r| r.summary.sent as f64), rtt(&runs));
            let idle = field(&runs, |r| r.server_idle);
            let (sent_text, idle_text) = (each(&sent, count), each(&idle, pct));
            let text = format!(
                "{sent_text} messages, idle {idle_text}, RTT {} ms",
                each(&rtt, ms)
            );
            let fewer = (sent[0] / sent[1], sent[1] / sent[2]);
            (
                vec![fewer.0, fewer.1, idle[2] - idle[0], rtt[2] / rtt[0]],
                text,
            )
        },
    },
    Claim {
        label: "subscriber SRT grows with the poll period, by ~half of it",
        paper: "100 ms poll error",
        bands: &[Above(1.0), Between(350.0, 650.0)],
        measure: |c, n| {
            let runs = c.ensure(&scenarios::poll_period_ablation(n));
            let srt = field(&runs, |r| r.summary.srt_mean_ms);
            let text = format!("SRT {} ms at 10 / 100 / 500 / 1000 ms", each(&srt, ms));
            (vec![min_step(&srt), srt[3] - srt[0]], text)
        },
    },
    Claim {
        label: "routing removes the DBN flood without losing a message",
        paper: "the fix v1.1.3 lacked",
        bands: &[Exactly(0.0), Exactly(0.0), Above(3.0), Above(0.0)],
        measure: |c, n| {
            let runs = c.ensure(&scenarios::dbn_routing_ablation(n, 2000));
            let lost = field(&runs, |r| r.summary.sent as f64 - r.summary.received as f64);
            let forwards = field(&runs, |r| r.broker_forwards as f64);
            let idle = field(&runs, |r| r.server_idle);
            let (forwards_text, idle_text) = (each(&forwards, count), each(&idle, pct));
            let text = format!("{forwards_text} inter-broker messages, idle {idle_text}");
            let text = format!("{text}, {} lost", each(&lost, count));
            let waste = forwards[0] / forwards[1];
            (vec![lost[0], lost[1], waste, idle[1] - idle[0]], text)
        },
    },
];
