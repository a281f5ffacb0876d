//! The `gridmon-hotpath/1` exchange format: one scoped run's kernel
//! wall-clock site table (`simcore::Simulation::hotpath`, summed over
//! shards) as line-oriented JSON (hand-rolled: one key per line so diffs
//! stay trivial) plus a collapsed-stack rendering in simprof's flamegraph
//! format (`path;to;frame <micros>`).

use simcore::{Site, WallAccum};
use std::time::Instant;

/// Schema tag embedded in every report.
pub const SCHEMA: &str = "gridmon-hotpath/1";

/// Wall-clock totals for one instrumented site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRow {
    /// Dotted site name ([`Site::name`]).
    pub site: String,
    /// Total wall-clock nanoseconds attributed to the site.
    pub nanos: u64,
    /// Number of timed operations.
    pub count: u64,
}

/// One run's hot-path attribution report.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// Schema tag (`gridmon-hotpath/1`).
    pub schema: String,
    /// Run name (e.g. `compare/narada`).
    pub run: String,
    /// Measured cost of one timing probe pair on the producing machine,
    /// in nanoseconds — the observer overhead baked into each counted
    /// operation.
    pub probe_overhead_ns: u64,
    /// Total wall-clock seconds of the run (attributed + unattributed).
    pub wall_secs: f64,
    /// Per-site totals, in [`Site::ALL`] order.
    pub sites: Vec<SiteRow>,
}

impl HotpathReport {
    /// The report of `run`'s site table, stamped with this machine's
    /// probe overhead.
    pub fn new(run: &str, wall_secs: f64, table: &[WallAccum; Site::COUNT]) -> Self {
        HotpathReport {
            schema: SCHEMA.to_owned(),
            run: run.to_owned(),
            probe_overhead_ns: calibrate_probe_ns(),
            wall_secs,
            sites: Site::ALL
                .iter()
                .map(|&site| SiteRow {
                    site: site.name().to_owned(),
                    nanos: table[site as usize].nanos,
                    count: table[site as usize].count,
                })
                .collect(),
        }
    }

    /// Totals for one site by name.
    pub fn site(&self, name: &str) -> Option<&SiteRow> {
        self.sites.iter().find(|s| s.site == name)
    }

    /// A site's total with the measurement overhead (`count *
    /// probe_overhead_ns`) subtracted.
    pub fn corrected_nanos(&self, row: &SiteRow) -> u64 {
        row.nanos
            .saturating_sub(row.count.saturating_mul(self.probe_overhead_ns))
    }

    /// Serialise; stable key order, one key per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", self.schema));
        out.push_str(&format!("  \"run\": \"{}\",\n", self.run));
        out.push_str(&format!(
            "  \"probe_overhead_ns\": {},\n",
            self.probe_overhead_ns
        ));
        out.push_str(&format!("  \"wall_secs\": {:.6},\n", self.wall_secs));
        out.push_str("  \"sites\": [\n");
        for (i, s) in self.sites.iter().enumerate() {
            let comma = if i + 1 == self.sites.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"site\": \"{}\", \"nanos\": {}, \"count\": {} }}{}\n",
                s.site, s.nanos, s.count, comma
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Collapsed stacks in simprof's flamegraph format. Queue push/pop
    /// are kernel-loop roots; every non-kernel site nests under
    /// `kernel.dispatch` (that is where actor callbacks run), and
    /// dispatch self-time is the remainder after subtracting those
    /// children. Values are microseconds.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        let mut dispatch_total = 0u64;
        let mut child_total = 0u64;
        for s in &self.sites {
            match s.site.as_str() {
                "kernel.dispatch" => dispatch_total = s.nanos,
                "kernel.queue.push" | "kernel.queue.pop" => {
                    out.push_str(&format!("{} {}\n", s.site, s.nanos / 1_000));
                }
                _ => {
                    child_total += s.nanos;
                    out.push_str(&format!("kernel.dispatch;{} {}\n", s.site, s.nanos / 1_000));
                }
            }
        }
        out.push_str(&format!(
            "kernel.dispatch {}\n",
            dispatch_total.saturating_sub(child_total) / 1_000
        ));
        out
    }
}

/// Measure the wall-clock cost of one start/record probe pair (two
/// monotonic clock reads plus an elapsed conversion) in nanoseconds, so
/// report readers can subtract observer overhead: a site with N counted
/// operations carries roughly `N * probe_overhead_ns` of measurement
/// cost inside its total.
pub fn calibrate_probe_ns() -> u64 {
    const ITERS: u32 = 10_000;
    let outer = Instant::now();
    let mut sink = 0u64;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        sink = sink.wrapping_add(t0.elapsed().as_nanos() as u64);
    }
    let total = outer.elapsed().as_nanos() as u64;
    std::hint::black_box(sink);
    total / u64::from(ITERS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HotpathReport {
        let row = |site: &str, nanos, count| SiteRow {
            site: site.to_owned(),
            nanos,
            count,
        };
        HotpathReport {
            schema: SCHEMA.to_owned(),
            run: "compare/narada".to_owned(),
            probe_overhead_ns: 30,
            wall_secs: 1.5,
            sites: vec![
                row("kernel.dispatch", 900_000_000, 1_000),
                row("kernel.queue.push", 100_000_000, 1_200),
                row("kernel.queue.pop", 50_000_000, 1_200),
                row("net.fabric.send", 300_000_000, 400),
                row("jms.match", 200_000_000, 300),
            ],
        }
    }

    #[test]
    fn json_bytes_are_pinned() {
        assert_eq!(
            sample().to_json(),
            r#"{
  "schema": "gridmon-hotpath/1",
  "run": "compare/narada",
  "probe_overhead_ns": 30,
  "wall_secs": 1.500000,
  "sites": [
    { "site": "kernel.dispatch", "nanos": 900000000, "count": 1000 },
    { "site": "kernel.queue.push", "nanos": 100000000, "count": 1200 },
    { "site": "kernel.queue.pop", "nanos": 50000000, "count": 1200 },
    { "site": "net.fabric.send", "nanos": 300000000, "count": 400 },
    { "site": "jms.match", "nanos": 200000000, "count": 300 }
  ]
}
"#
        );
    }

    #[test]
    fn collapsed_subtracts_children_from_dispatch() {
        let r = sample();
        let c = r.collapsed();
        assert!(c.contains("kernel.queue.push 100000\n"));
        assert!(c.contains("kernel.dispatch;net.fabric.send 300000\n"));
        assert!(c.contains("kernel.dispatch;jms.match 200000\n"));
        // 900ms dispatch - 500ms children = 400ms self.
        assert!(c.ends_with("kernel.dispatch 400000\n"));
    }

    #[test]
    fn corrected_nanos_subtracts_probe_overhead() {
        let r = sample();
        let row = r.site("jms.match").unwrap();
        assert_eq!(r.corrected_nanos(row), 200_000_000 - 300 * 30);
    }
}
