//! Memoized parallel execution of experiment specs, and the observation
//! planes ([`PLANES`]) whose exports are written as each run finishes.

use gridmon_core::{
    run_all, ExperimentResult, ExperimentSpec, FaultSchedule, FaultStats, Observe, SloReport,
};
use simcore::FastMap;
use std::mem::take;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use telemetry::Table;

/// Finished runs, shared between the campaign's cache and the artifacts.
pub type Runs = Vec<Rc<ExperimentResult>>;

/// One observation plane `repro` can arm on every run of a campaign.
pub struct Plane {
    /// Command-line flag, taken as `<flag>[=DIR]`.
    pub flag: &'static str,
    /// Where a bare `<flag>` writes.
    pub default_dir: &'static str,
    /// What the `N <noun> files written` line calls the files.
    pub noun: &'static str,
    /// The plane's bit in the set each spec about to run observes.
    pub observe: Observe,
    /// Take a finished run's exports out of it, as (file suffix,
    /// contents): once written they are let go, and only the small
    /// things `terminal` and the artifacts read stay in the result.
    pub files: fn(&mut ExperimentResult) -> Vec<(&'static str, String)>,
    /// After the last artifact, over every run sorted by name: print the
    /// plane's tables, write any campaign-wide file under the directory
    /// and return how many were written.
    pub terminal: fn(&[Rc<ExperimentResult>], &Path) -> usize,
}

/// `--slo`: data freshness (Age-of-Information) and deadline compliance
/// against the grid default SLO. Named because `--list-scenarios`
/// describes it.
pub const SLO: Plane = Plane {
    flag: "--slo",
    default_dir: "results/slo",
    noun: "freshness",
    observe: Observe::SLO,
    files: |r| match &mut r.slo {
        Some(s) => vec![(".slo.csv", take(&mut s.csv))],
        None => Vec::new(),
    },
    terminal: |runs, dir| {
        let Some(table) = slo_table("Deadline-SLO compliance", runs) else {
            return 0;
        };
        println!("{}", table.render());
        let md = table.to_markdown();
        usize::from(write_file(dir, "compliance", ".md", md.as_bytes()))
    },
};

/// Every observation plane, in the order their tables close the output.
pub const PLANES: &[Plane] = &[
    // Per-message lifecycle traces: JSONL events + unified resource log,
    // and Chrome `trace_event` (Perfetto-loadable).
    Plane {
        flag: "--trace",
        default_dir: "results/trace",
        noun: "trace",
        observe: Observe::TRACE,
        files: |r| match &mut r.trace {
            Some(t) => vec![
                (".trace.jsonl", take(&mut t.jsonl)),
                (".trace.json", take(&mut t.chrome)),
            ],
            None => Vec::new(),
        },
        terminal: |_, _| 0,
    },
    // Virtual-time profiler + metrics: the self-time table, flamegraph
    // collapsed stacks, Prometheus text exposition, metric time series.
    Plane {
        flag: "--profile",
        default_dir: "results/prof",
        noun: "profile",
        observe: Observe::PROFILE,
        files: |r| match &mut r.profile {
            Some(p) => vec![
                (".selftime.txt", p.table.clone()),
                (".collapsed.txt", take(&mut p.collapsed)),
                (".prom.txt", take(&mut p.prometheus)),
                (".metrics.csv", take(&mut p.metrics_csv)),
            ],
            None => Vec::new(),
        },
        terminal: |runs, _| {
            for p in runs.iter().filter_map(|r| r.profile.as_ref()) {
                println!("{}", p.table);
            }
            0
        },
    },
    // Wall-clock hot-path attribution (the kernel's site table):
    // `gridmon-hotpath/1` JSON and collapsed stacks in wall-clock
    // microseconds.
    Plane {
        flag: "--scope",
        default_dir: "results/scope",
        noun: "hot-path",
        observe: Observe::SCOPE,
        files: |r| match &mut r.scope {
            Some(s) => vec![
                (".hotpath.json", take(&mut s.json)),
                (".hotpath.collapsed.txt", take(&mut s.collapsed)),
            ],
            None => Vec::new(),
        },
        terminal: |runs, _| {
            for r in runs {
                if let Some(scope) = &r.scope {
                    println!("{}", render_scope(&r.name, scope, &r.kernel));
                }
            }
            0
        },
    },
    SLO,
];

/// Write `bytes` to `<dir>/<stem><suffix>`; a run name's `/` and spaces
/// become `_` in the stem. A failure is one warning on stderr and
/// `false` — never a panic or an early return, so the files after it
/// are still written and the exit status says nothing about the disk.
pub fn write_file(dir: &Path, stem: &str, suffix: &str, bytes: &[u8]) -> bool {
    let path = dir.join(format!("{}{suffix}", stem.replace(['/', ' '], "_")));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, bytes)) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            false
        }
    }
}

/// The compliance rows of every SLO-measured run among `runs`, in their
/// order; `None` when there is none.
pub(crate) fn slo_table(title: &str, runs: &[Rc<ExperimentResult>]) -> Option<Table> {
    let mut table = Table::new(title, SloReport::table_columns());
    for r in runs {
        if let Some(slo) = &r.slo {
            table.push_row(slo.report.table_row(&r.name));
        }
    }
    (!table.rows.is_empty()).then_some(table)
}

/// Runs specs on demand, caching results by spec name so artifacts that
/// share runs (fig 3 / fig 4; figs 6–9) pay for them once.
pub struct Campaign {
    threads: usize,
    shards: usize,
    faults: FaultSchedule,
    /// Each armed plane, its directory and the files written there so far.
    planes: Vec<(&'static Plane, PathBuf, usize)>,
    results: FastMap<String, Rc<ExperimentResult>>,
    /// Wall-clock seconds spent running experiments (not writing files).
    pub wall_seconds: f64,
}

impl Campaign {
    /// New campaign on `threads` workers (0 = all cores). Every spec it
    /// runs is raised to `shards` conservative parallel shards (results
    /// are byte-identical at any count), carries `faults` unless it has a
    /// schedule of its own, and is observed by each of `planes`, whose
    /// files go under the directory paired with it.
    pub fn new(
        threads: usize,
        shards: usize,
        faults: FaultSchedule,
        planes: Vec<(&'static Plane, PathBuf)>,
    ) -> Self {
        Campaign {
            threads,
            shards,
            faults,
            planes: planes.into_iter().map(|(p, dir)| (p, dir, 0)).collect(),
            results: FastMap::default(),
            wall_seconds: 0.0,
        }
    }

    /// Ensure every spec has been run; returns results in spec order.
    /// A newly finished run's plane files are written here, right after
    /// its batch returns, so no export outlives the batch that made it.
    pub fn ensure(&mut self, specs: &[ExperimentSpec]) -> Runs {
        let planes = self.planes.iter();
        let observe = planes.fold(Observe::default(), |set, p| set | p.0.observe);
        let missing: Vec<ExperimentSpec> = specs
            .iter()
            .filter(|s| !self.results.contains_key(&s.name))
            .cloned()
            .map(|mut s| {
                s.observe = s.observe | observe;
                s.shards = s.shards.max(self.shards);
                if s.faults.is_empty() {
                    s.faults = self.faults.clone();
                }
                s
            })
            .collect();
        if !missing.is_empty() {
            let t0 = std::time::Instant::now();
            let finished = run_all(&missing, self.threads);
            self.wall_seconds += t0.elapsed().as_secs_f64();
            for mut r in finished {
                for (plane, dir, written) in &mut self.planes {
                    for (suffix, text) in (plane.files)(&mut r) {
                        *written += usize::from(write_file(dir, &r.name, suffix, text.as_bytes()));
                    }
                }
                self.results.insert(r.name.clone(), Rc::new(r));
            }
        }
        specs
            .iter()
            .map(|s| Rc::clone(&self.results[&s.name]))
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

    /// After the last artifact: each armed plane's terminal tables on
    /// stdout and its `N files written` line on stderr.
    pub fn report_planes(&self) {
        let mut runs: Runs = self.results.values().cloned().collect();
        runs.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        for (plane, dir, written) in &self.planes {
            let files = written + (plane.terminal)(&runs, dir);
            eprintln!(
                "{files} {} files written under {}",
                plane.noun,
                dir.display()
            );
        }
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
    let mut hot = Table::new(
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
    let mut mix = Table::new(
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
    use gridmon_core::{run_experiment, SystemUnderTest};

    #[test]
    fn memoizes_by_name() {
        let mut c = Campaign::new(2, 1, FaultSchedule::new(), Vec::new());
        let spec =
            ExperimentSpec::paper_default("memo", SystemUnderTest::NaradaSingle, 4).scaled(2);
        let a = c.ensure(std::slice::from_ref(&spec));
        assert_eq!(c.runs(), 1);
        let b = c.ensure(std::slice::from_ref(&spec));
        assert_eq!(c.runs(), 1, "second call hits the cache");
        assert!(Rc::ptr_eq(&a[0], &b[0]), "one shared result, not a copy");
    }

    /// Every export is on disk, byte for byte what a direct run of the
    /// same spec renders, and gone from the result the campaign keeps;
    /// what the terminal tables read stays.
    #[test]
    fn ensure_writes_each_runs_exports_and_lets_them_go() {
        let dir = std::env::temp_dir().join(format!("harness-ensure-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let armed = |flag: &str| {
            let plane = PLANES.iter().find(|p| p.flag == flag).expect("a plane");
            (plane, dir.join(&flag[2..]))
        };
        let mut c = Campaign::new(
            1,
            1,
            FaultSchedule::new(),
            vec![armed("--trace"), armed("--profile"), armed("--slo")],
        );
        let spec =
            ExperimentSpec::paper_default("let go/1", SystemUnderTest::GridlogSingle, 6).scaled(3);
        let kept = c.ensure(std::slice::from_ref(&spec)).remove(0);
        let direct = run_experiment(&spec.traced().profiled().observed(Observe::SLO));

        let (trace, prof, slo) = (
            direct.trace.expect("traced"),
            direct.profile.expect("profiled"),
            direct.slo.expect("measured"),
        );
        let expected = [
            ("trace/let_go_1.trace.jsonl", &trace.jsonl),
            ("trace/let_go_1.trace.json", &trace.chrome),
            ("profile/let_go_1.selftime.txt", &prof.table),
            ("profile/let_go_1.collapsed.txt", &prof.collapsed),
            ("profile/let_go_1.prom.txt", &prof.prometheus),
            ("profile/let_go_1.metrics.csv", &prof.metrics_csv),
            ("slo/let_go_1.slo.csv", &slo.csv),
        ];
        for (file, text) in expected {
            assert!(!text.is_empty(), "{file} has content");
            let on_disk = std::fs::read_to_string(dir.join(file)).expect(file);
            assert!(on_disk == *text, "{file} differs from the direct run's");
        }
        let written: usize = c.planes.iter().map(|p| p.2).sum();
        assert_eq!(written, expected.len());

        let (t, p, s) = (
            kept.trace.as_ref().expect("traced"),
            kept.profile.as_ref().expect("profiled"),
            kept.slo.as_ref().expect("measured"),
        );
        assert!(t.jsonl.is_empty() && t.chrome.is_empty());
        assert!(p.collapsed.is_empty() && p.prometheus.is_empty() && p.metrics_csv.is_empty());
        assert!(s.csv.is_empty());
        assert_eq!(p.table, prof.table);
        assert_eq!(t.summary.probes, trace.summary.probes);
        assert_eq!(
            s.report.table_row("x"),
            slo.report.table_row("x"),
            "the compliance row outlives the CSV"
        );
        std::fs::remove_dir_all(&dir).expect("scratch directory");
    }

    /// A file that cannot be written costs one `false`, not the files
    /// after it.
    #[test]
    fn a_write_error_is_reported_and_the_next_file_still_written() {
        let dir = std::env::temp_dir().join(format!("harness-write-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(write_file(&dir, "a/b c", ".csv", b"x"));
        assert_eq!(std::fs::read(dir.join("a_b_c.csv")).expect("written"), b"x");
        // A regular file where a directory is wanted.
        assert!(!write_file(&dir.join("a_b_c.csv"), "t", ".csv", b"y"));
        assert!(write_file(&dir, "after", ".csv", b"z"));
        std::fs::remove_dir_all(&dir).expect("scratch directory");
    }
}
