//! The `gridmon-hotpath/1` exchange format: per-site wall-clock totals
//! for one run, as line-oriented JSON (hand-rolled: one key per line so
//! diffs stay trivial) plus a collapsed-stack rendering in simprof's
//! flamegraph format (`path;to;frame <micros>`).

/// Schema tag embedded in every report.
pub const SCHEMA: &str = "gridmon-hotpath/1";

/// Wall-clock totals for one instrumented site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRow {
    /// Dotted site name (see [`crate::Site::name`]).
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
    /// Per-site totals, in [`crate::Site::ALL`] order.
    pub sites: Vec<SiteRow>,
}

impl HotpathReport {
    /// Empty report for `run`, stamped with this machine's probe
    /// overhead.
    pub fn new(run: &str, wall_secs: f64) -> Self {
        HotpathReport {
            schema: SCHEMA.to_owned(),
            run: run.to_owned(),
            probe_overhead_ns: crate::calibrate_probe_ns(),
            wall_secs,
            sites: Vec::new(),
        }
    }

    /// Append one site's totals.
    pub fn push(&mut self, site: &str, accum: simcore::WallAccum) {
        self.sites.push(SiteRow {
            site: site.to_owned(),
            nanos: accum.nanos,
            count: accum.count,
        });
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

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::WallAccum;

    fn sample() -> HotpathReport {
        let mut r = HotpathReport {
            schema: SCHEMA.to_owned(),
            run: "compare/narada".to_owned(),
            probe_overhead_ns: 30,
            wall_secs: 1.5,
            sites: Vec::new(),
        };
        r.push(
            "kernel.dispatch",
            WallAccum {
                nanos: 900_000_000,
                count: 1_000,
            },
        );
        r.push(
            "kernel.queue.push",
            WallAccum {
                nanos: 100_000_000,
                count: 1_200,
            },
        );
        r.push(
            "kernel.queue.pop",
            WallAccum {
                nanos: 50_000_000,
                count: 1_200,
            },
        );
        r.push(
            "net.fabric.send",
            WallAccum {
                nanos: 300_000_000,
                count: 400,
            },
        );
        r.push(
            "jms.match",
            WallAccum {
                nanos: 200_000_000,
                count: 300,
            },
        );
        r
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
