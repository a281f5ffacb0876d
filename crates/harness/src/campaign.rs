//! Memoized parallel execution of experiment specs.

use gridmon_core::{run_all, ExperimentResult, ExperimentSpec, FaultSchedule, FaultStats, SloSpec};
use simcore::FastMap;

/// Runs specs on demand, caching results by spec name so artifacts that
/// share runs (fig 3 / fig 4; figs 6–9) pay for them once.
pub struct Campaign {
    threads: usize,
    shards: usize,
    trace: bool,
    profile: bool,
    scope: bool,
    slo: Option<SloSpec>,
    faults: FaultSchedule,
    results: FastMap<String, ExperimentResult>,
    /// Wall-clock seconds spent running experiments.
    pub wall_seconds: f64,
}

impl Campaign {
    /// New campaign; `threads = 0` uses all cores.
    pub fn new(threads: usize) -> Self {
        Campaign {
            threads,
            shards: 1,
            trace: false,
            profile: false,
            scope: false,
            slo: None,
            faults: FaultSchedule::new(),
            results: FastMap::default(),
            wall_seconds: 0.0,
        }
    }

    /// Enable `simtrace` lifecycle tracing on every spec this campaign
    /// runs from now on (`--trace`).
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
    }

    /// Enable the virtual-time profiler + metrics plane on every spec
    /// this campaign runs from now on (`--profile`).
    pub fn set_profile(&mut self, on: bool) {
        self.profile = on;
    }

    /// Enable wall-clock hot-path attribution (`simscope`) on every
    /// spec this campaign runs from now on (`--scope`).
    pub fn set_scope(&mut self, on: bool) {
        self.scope = on;
    }

    /// Inject this fault schedule into every spec this campaign runs
    /// from now on (`--faults <scenario>`).
    pub fn set_faults(&mut self, faults: FaultSchedule) {
        self.faults = faults;
    }

    /// Measure data freshness and deadline compliance against `spec` on
    /// every run this campaign executes from now on (`--slo`).
    pub fn set_slo(&mut self, spec: Option<SloSpec>) {
        self.slo = spec;
    }

    /// Run every spec on `shards` conservative parallel shards
    /// (`--shards N`; 1 = the serial event loop). Results are
    /// byte-identical across shard counts, so this only changes how the
    /// wall clock is spent.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards.max(1);
    }

    /// Ensure every spec has been run; returns results in spec order.
    pub fn ensure(&mut self, specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
        let missing: Vec<ExperimentSpec> = specs
            .iter()
            .filter(|s| !self.results.contains_key(&s.name))
            .cloned()
            .map(|mut s| {
                s.trace |= self.trace;
                s.profile |= self.profile;
                s.scope |= self.scope;
                s.shards = s.shards.max(self.shards);
                if s.faults.is_empty() {
                    s.faults = self.faults.clone();
                }
                if s.slo.is_none() {
                    s.slo = self.slo.clone();
                }
                s
            })
            .collect();
        if !missing.is_empty() {
            let t0 = std::time::Instant::now();
            for r in run_all(&missing, self.threads) {
                self.results.insert(r.name.clone(), r);
            }
            self.wall_seconds += t0.elapsed().as_secs_f64();
        }
        specs
            .iter()
            .map(|s| self.results[&s.name].clone())
            .collect()
    }

    /// Number of distinct experiments run so far.
    pub fn runs(&self) -> usize {
        self.results.len()
    }

    /// Degradation accounting of every fault-injected run, sorted by
    /// run name. Empty when no spec carried a fault schedule.
    pub fn fault_stats(&self) -> Vec<(String, FaultStats)> {
        let mut rows: Vec<(String, FaultStats)> = self
            .results
            .iter()
            .filter_map(|(name, r)| r.fault_stats.map(|s| (name.clone(), s)))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Write the trace artifacts of every traced run under `dir`:
    /// `<name>.trace.jsonl` (events + unified resource log) and
    /// `<name>.trace.json` (Chrome `trace_event`, Perfetto-loadable).
    /// Returns `(files written, cross-check disagreements)`.
    pub fn write_traces(&self, dir: &std::path::Path) -> std::io::Result<(usize, usize)> {
        let mut files = 0;
        let mut disagreements = 0;
        let mut names: Vec<&String> = self.results.keys().collect();
        names.sort_unstable();
        for name in names {
            let r = &self.results[name];
            let Some(trace) = &r.trace else { continue };
            std::fs::create_dir_all(dir)?;
            let stem: String = name
                .chars()
                .map(|c| if c == '/' || c == ' ' { '_' } else { c })
                .collect();
            std::fs::write(dir.join(format!("{stem}.trace.jsonl")), &trace.jsonl)?;
            std::fs::write(dir.join(format!("{stem}.trace.json")), &trace.chrome)?;
            files += 2;
            for d in &trace.disagreements {
                eprintln!("trace cross-check [{name}]: {d}");
            }
            disagreements += trace.disagreements.len();
        }
        Ok((files, disagreements))
    }
}

impl Campaign {
    /// Rendered per-component self-time tables of every profiled run,
    /// sorted by run name (the `--profile` terminal output).
    pub fn profile_tables(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = self
            .results
            .iter()
            .filter_map(|(name, r)| r.profile.as_ref().map(|p| (name.clone(), p.table.clone())))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Write the profiler artifacts of every profiled run under `dir`:
    /// `<name>.selftime.txt` (the rendered per-component table),
    /// `<name>.collapsed.txt` (flamegraph collapsed stacks — feed to
    /// `flamegraph.pl` / inferno), `<name>.prom.txt` (Prometheus text
    /// exposition) and `<name>.metrics.csv` (deterministic time series).
    /// Returns the number of files written.
    pub fn write_profiles(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        let mut files = 0;
        let mut names: Vec<&String> = self.results.keys().collect();
        names.sort_unstable();
        for name in names {
            let r = &self.results[name];
            let Some(prof) = &r.profile else { continue };
            std::fs::create_dir_all(dir)?;
            let stem: String = name
                .chars()
                .map(|c| if c == '/' || c == ' ' { '_' } else { c })
                .collect();
            std::fs::write(dir.join(format!("{stem}.selftime.txt")), &prof.table)?;
            std::fs::write(dir.join(format!("{stem}.collapsed.txt")), &prof.collapsed)?;
            std::fs::write(dir.join(format!("{stem}.prom.txt")), &prof.prometheus)?;
            std::fs::write(dir.join(format!("{stem}.metrics.csv")), &prof.metrics_csv)?;
            files += 4;
        }
        Ok(files)
    }

    /// One compliance table covering every SLO-measured run, sorted by
    /// run name (the `--slo` terminal output). `None` when no run
    /// carried an SLO spec.
    pub fn slo_table(&self) -> Option<String> {
        let rows = self.slo_rows();
        if rows.is_empty() {
            return None;
        }
        let mut table = telemetry::Table::new(
            "Deadline-SLO compliance".to_string(),
            gridmon_core::SloReport::table_columns(),
        );
        for (_, row) in rows {
            table.push_row(row);
        }
        Some(table.render())
    }

    /// The same compliance rows as a GitHub-flavoured markdown table
    /// (committed next to `slo.csv` by `--slo=DIR`).
    pub fn slo_markdown(&self) -> Option<String> {
        let rows = self.slo_rows();
        if rows.is_empty() {
            return None;
        }
        let cols = gridmon_core::SloReport::table_columns();
        let mut out = String::from("# Deadline-SLO compliance\n\n");
        out.push_str(&format!("| {} |\n", cols.join(" | ")));
        out.push_str(&format!("|{}\n", " --- |".repeat(cols.len())));
        for (_, row) in rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        Some(out)
    }

    fn slo_rows(&self) -> Vec<(String, Vec<String>)> {
        let mut rows: Vec<(String, Vec<String>)> = self
            .results
            .iter()
            .filter_map(|(name, r)| {
                r.slo
                    .as_ref()
                    .map(|s| (name.clone(), s.report.table_row(name)))
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Write the freshness artifacts of every SLO-measured run under
    /// `dir`: `<name>.slo.csv` (AoI sawtooth + burn-window time series)
    /// plus one `compliance.md` markdown table covering all runs.
    /// Returns the number of files written.
    pub fn write_slo(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        let mut files = 0;
        let mut names: Vec<&String> = self.results.keys().collect();
        names.sort_unstable();
        for name in names {
            let r = &self.results[name];
            let Some(slo) = &r.slo else { continue };
            std::fs::create_dir_all(dir)?;
            let stem: String = name
                .chars()
                .map(|c| if c == '/' || c == ' ' { '_' } else { c })
                .collect();
            std::fs::write(dir.join(format!("{stem}.slo.csv")), &slo.csv)?;
            files += 1;
        }
        if let Some(md) = self.slo_markdown() {
            std::fs::create_dir_all(dir)?;
            std::fs::write(dir.join("compliance.md"), md)?;
            files += 1;
        }
        Ok(files)
    }

    /// Rendered hot-path attribution + kernel event-accounting summary
    /// of every scoped run, sorted by run name (the `--scope` terminal
    /// output).
    pub fn scope_tables(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = self
            .results
            .iter()
            .filter_map(|(name, r)| {
                r.scope
                    .as_ref()
                    .map(|s| (name.clone(), render_scope(name, s, &r.kernel)))
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Write the hot-path artifacts of every scoped run under `dir`:
    /// `<name>.hotpath.json` (`gridmon-hotpath/1`) and
    /// `<name>.hotpath.collapsed.txt` (flamegraph collapsed stacks,
    /// wall-clock microseconds). Returns the number of files written.
    pub fn write_scopes(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        let mut files = 0;
        let mut names: Vec<&String> = self.results.keys().collect();
        names.sort_unstable();
        for name in names {
            let r = &self.results[name];
            let Some(scope) = &r.scope else { continue };
            std::fs::create_dir_all(dir)?;
            let stem: String = name
                .chars()
                .map(|c| if c == '/' || c == ' ' { '_' } else { c })
                .collect();
            std::fs::write(dir.join(format!("{stem}.hotpath.json")), &scope.json)?;
            std::fs::write(
                dir.join(format!("{stem}.hotpath.collapsed.txt")),
                &scope.collapsed,
            )?;
            files += 2;
        }
        Ok(files)
    }
}

/// Terminal summary of one scoped run: a wall-clock hot-path table and
/// the always-on kernel event accounting next to it, so a regression
/// hunt starts from one screen of context.
fn render_scope(
    name: &str,
    scope: &gridmon_core::ScopeArtifacts,
    kernel: &simcore::KernelStats,
) -> String {
    let mut hot = telemetry::Table::new(
        format!("Hot-path wall time — {name}"),
        &["site", "ms", "count", "ns/op"],
    );
    for row in &scope.report.sites {
        let ns_per_op = row.nanos.checked_div(row.count).unwrap_or(0);
        hot.push_row(vec![
            row.site.clone(),
            format!("{:.3}", row.nanos as f64 / 1e6),
            row.count.to_string(),
            ns_per_op.to_string(),
        ]);
    }
    let mut mix = telemetry::Table::new(
        format!(
            "Kernel event accounting — {name} (peak queue depth {}, {} timers / {} messages)",
            kernel.peak_queue_depth, kernel.timer_scheduled, kernel.message_scheduled
        ),
        &["event type", "scheduled", "executed", "dropped", "timers"],
    );
    for t in &kernel.by_type {
        mix.push_row(vec![
            t.name.clone(),
            t.scheduled.to_string(),
            t.executed.to_string(),
            t.dropped.to_string(),
            t.timers.to_string(),
        ]);
    }
    format!(
        "{}\n(probe overhead ~{} ns/pair)\n\n{}",
        hot.render(),
        scope.report.probe_overhead_ns,
        mix.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmon_core::SystemUnderTest;

    #[test]
    fn memoizes_by_name() {
        let mut c = Campaign::new(2);
        let spec =
            ExperimentSpec::paper_default("memo", SystemUnderTest::NaradaSingle, 4).scaled(2);
        let a = c.ensure(std::slice::from_ref(&spec));
        assert_eq!(c.runs(), 1);
        let b = c.ensure(std::slice::from_ref(&spec));
        assert_eq!(c.runs(), 1, "second call hits the cache");
        assert_eq!(a[0].summary.sent, b[0].summary.sent);
    }
}
