#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale=N] [--threads=N] [--shards=N] [--out=DIR | --no-csv]
//!       [--trace[=DIR]] [--faults=SCENARIO] [--profile[=DIR]]
//!       [--scope[=DIR]] [--slo[=DIR]] <artifact>...
//!
//! artifacts: the rows of `harness::artifacts::ARTIFACTS`, or `all`
//!            (`repro --help` lists them)
//!
//! Every value-taking option accepts both `--opt value` and
//! `--opt=value`. Unknown options are rejected with the valid list;
//! unknown artifact / fault-scenario names suggest the nearest match.
//! `--list-scenarios` prints every named scenario (artifacts, fault
//! schedules, gridlog + compare experiment specs) with a one-line
//! description.
//!
//! --scale N        messages per generator (default 180 = the paper's
//!                  30 min)
//! --threads N      worker threads (default: all cores)
//! --shards N       run every experiment on N conservative parallel
//!                  shards (simshard LBTS lockstep; default 1 = the
//!                  serial event loop). Results and artifacts are
//!                  byte-identical at any shard count — this only
//!                  trades threads-across-runs for threads-within-runs
//! --out DIR        also write CSV files under DIR (default: results/)
//! --no-csv         do not write CSV files
//! --trace[=DIR]    record per-message lifecycle traces for every run
//!                  and write `<run>.trace.jsonl` + `<run>.trace.json`
//!                  (Chrome trace_event) under DIR (default:
//!                  results/trace/)
//! --faults SCENARIO  inject a named fault scenario into every run and
//!                  report the per-cause degradation accounting
//!                  (scenarios: broker-crash registry-restart link-burst
//!                  partition servlet-stall slowdown chaos)
//! --profile[=DIR]  attribute simulated CPU time to components with the
//!                  virtual-time profiler, print each run's self-time
//!                  table, and write `<run>.selftime.txt`,
//!                  `<run>.collapsed.txt` (flamegraph collapsed stacks),
//!                  `<run>.prom.txt` (Prometheus text exposition) and
//!                  `<run>.metrics.csv` under DIR (default:
//!                  results/prof/)
//! --scope[=DIR]    attribute real wall-clock time to the hot paths
//!                  (dispatch, queue push/pop, fabric send, JMS selector
//!                  matching, OS metering) in the kernel's one site
//!                  table, print each run's hot-path + kernel
//!                  event-accounting tables, and write
//!                  `<run>.hotpath.json` (gridmon-hotpath/1) and
//!                  `<run>.hotpath.collapsed.txt` (flamegraph collapsed
//!                  stacks) under DIR (default: results/scope/);
//!                  instrumented runs stay byte-identical to plain ones
//!                  at the same seed
//! --slo[=DIR]      measure data freshness (Age-of-Information) and
//!                  deadline compliance against the grid default SLO
//!                  (5 s deadline, 99% target) on every run, print the
//!                  compliance table, and write `<run>.slo.csv` (AoI
//!                  sawtooth + burn-window time series) plus
//!                  `compliance.md` under DIR (default: results/slo/);
//!                  the publish stamps ride out-of-band, so measured
//!                  runs stay byte-identical to plain ones on every
//!                  other artifact
//! ```
//!
//! A plane's files are written as each run finishes; a file that cannot
//! be written is a `warning:` on stderr and never changes the exit
//! status (0; 1 when a finding prints `NO`; 2 for a bad command line).

use gridmon_core::{scenarios, FaultSchedule, SloSpec};
use harness::artifacts::{Artifact, ARTIFACTS};
use harness::campaign::{write_file, Campaign, Plane, PLANES, SLO};
use std::path::PathBuf;

/// Stands for every row of `ARTIFACTS`, in order.
const ALL: &str = "all";

/// How a plane's flag is listed.
fn listed(plane: &Plane) -> String {
    format!("{}[=DIR]", plane.flag)
}

/// The plane flags where every listing of the options puts them: the
/// first before `--faults`, the rest after it (the text scripts and the
/// grammar proptests have pinned).
fn plane_flags(show: impl Fn(&Plane) -> String) -> (String, String) {
    let shown: Vec<String> = PLANES.iter().map(show).collect();
    (shown[0].clone(), shown[1..].join(" "))
}

fn valid_options() -> String {
    let (first, rest) = plane_flags(listed);
    format!(
        "--scale --threads --shards --out --no-csv {first} --faults {rest} \
         --list-scenarios --help"
    )
}

fn usage() -> String {
    let (first, rest) = plane_flags(|p| format!("[{}]", listed(p)));
    format!(
        "usage: repro [--scale=N] [--threads=N] [--shards=N] [--out=DIR | --no-csv] \
         {first} [--faults=SCENARIO] {rest} [--list-scenarios] <artifact>..."
    )
}

/// Every artifact name and `all`, as the usage text and the
/// unknown-artifact error list them.
fn artifact_names() -> String {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).chain([ALL]).collect();
    names.join(" ")
}

struct Options {
    scale: u32,
    threads: usize,
    shards: usize,
    out: Option<PathBuf>,
    /// The directory of each armed plane, row for row with `PLANES`.
    planes: Vec<Option<PathBuf>>,
    faults: Option<FaultSchedule>,
    artifacts: Vec<String>,
}

fn parse_fault_scenario(name: &str) -> Result<FaultSchedule, String> {
    FaultSchedule::scenario(name).ok_or_else(|| {
        format!(
            "unknown fault scenario {name:?} (one of: {}){}",
            FaultSchedule::SCENARIOS.join(" "),
            suggestion(name, FaultSchedule::SCENARIOS.iter().copied())
        )
    })
}

/// Edit distance between two ASCII-ish names (full Levenshtein; the
/// candidate lists are tiny, so the O(a·b) table is irrelevant).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// ` — did you mean "X"?` for the closest candidate within a third of
/// its length (so rubbish input gets no misleading suggestion), or "".
fn suggestion<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|c| (edit_distance(name, c), c))
        .min()
        .filter(|&(d, c)| d > 0 && d <= (c.len() / 3).max(2))
        .map(|(_, c)| format!(" — did you mean {c:?}?"))
        .unwrap_or_default()
}

/// The value of `--opt value` / `--opt=value`, from `inline` (the text
/// after `=`, if any) or the next argument, parsed as a `T`.
fn take_value<T: std::str::FromStr>(
    opt: &str,
    inline: Option<&str>,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let text = match inline {
        Some(v) if !v.is_empty() => v.to_owned(),
        Some(_) => return Err(format!("{opt}= needs a value")),
        None => args.next().ok_or_else(|| format!("{opt} needs a value"))?,
    };
    text.parse().map_err(|e| format!("bad {opt}: {e}"))
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        scale: 180,
        threads: 0,
        shards: 1,
        out: Some(PathBuf::from("results")),
        planes: vec![None; PLANES.len()],
        faults: None,
        artifacts: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if !a.starts_with('-') {
            opts.artifacts.push(a);
            continue;
        }
        let (opt, inline) = match a.split_once('=') {
            Some((o, v)) => (o, Some(v)),
            None => (a.as_str(), None),
        };
        match opt {
            "--scale" => {
                opts.scale = take_value(opt, inline, &mut args)?;
                scenarios::check_scale(opts.scale).map_err(|e| format!("bad --scale: {e}"))?;
            }
            "--threads" => opts.threads = take_value(opt, inline, &mut args)?,
            "--shards" => {
                opts.shards = take_value(opt, inline, &mut args)?;
                if opts.shards == 0 {
                    return Err("bad --shards: need at least 1".into());
                }
            }
            "--out" => opts.out = Some(take_value(opt, inline, &mut args)?),
            "--no-csv" => opts.out = None,
            "--faults" => {
                let name: String = take_value(opt, inline, &mut args)?;
                opts.faults = Some(parse_fault_scenario(&name)?);
            }
            "--list-scenarios" => opts.artifacts.push("list-scenarios".to_owned()),
            "--help" | "-h" => opts.artifacts.push("help".to_owned()),
            _ => {
                let Some(row) = PLANES.iter().position(|p| p.flag == opt) else {
                    return Err(format!(
                        "unknown option {opt} (valid options: {})",
                        valid_options()
                    ));
                };
                opts.planes[row] = Some(PathBuf::from(match inline {
                    Some("") => return Err(format!("{opt}= needs a directory (or bare {opt})")),
                    Some(dir) => dir,
                    None => PLANES[row].default_dir,
                }));
            }
        }
    }
    if opts.artifacts.is_empty() {
        opts.artifacts.push("help".to_owned());
    }
    Ok(opts)
}

/// One-line descriptions of the named fault scenarios, keyed to
/// `FaultSchedule::SCENARIOS` (a unit test keeps them in lockstep).
const FAULT_SCENARIOS: &[(&str, &str)] = &[
    (
        "broker-crash",
        "broker 0 JVM dies at t=120 s, restarts at t=150 s",
    ),
    (
        "registry-restart",
        "R-GMA registry soft state wiped at t=120 s",
    ),
    ("link-burst", "25% random frame loss on every link for 30 s"),
    ("partition", "node 0 cut off from the network for 20 s"),
    ("servlet-stall", "node 0 servlets answer 503 for 20 s"),
    ("slowdown", "node 0 CPU 4x slower for 60 s"),
    (
        "chaos",
        "loss burst + broker crash/restart + registry wipe + slowdown",
    ),
];

/// `--list-scenarios`: every named scenario — artifacts, fault
/// schedules, and the named experiment specs behind `gridlog` and
/// `compare` — with one-line descriptions.
fn list_scenarios(scale: u32) {
    println!("artifacts (repro <name>):");
    for a in ARTIFACTS {
        println!("  {:<22} {}", a.name, a.about);
    }
    println!("  {ALL:<22} every artifact above");
    println!("\nfault scenarios (--faults=<name>):");
    for (name, desc) in FAULT_SCENARIOS {
        println!("  {name:<22} {desc}");
    }
    let slo = SloSpec::grid_default();
    println!(
        "\nfreshness / SLO plane ({}): grid default = {} ms \
         deadline, {:.0}% on-time target; applies to every spec below",
        listed(&SLO),
        slo.deadline.as_millis_f64(),
        slo.target_fraction * 100.0
    );
    println!("\nexperiment specs (run via the artifacts that own them):");
    let specs = scenarios::gridlog_single_specs(scale)
        .into_iter()
        .chain(scenarios::three_way_specs(scale))
        .chain(scenarios::three_way_outage_specs(scale));
    for s in specs {
        // A spec's name starts with the artifact that runs it.
        let owner = s.name.split('/').next().unwrap_or_default();
        let faults = if s.faults.is_empty() {
            String::new()
        } else {
            format!(", {} fault event(s)", s.faults.events.len())
        };
        println!(
            "  {:<30} [{owner}] {:?}, {} generators x {} msgs{faults}",
            s.name, s.system, s.generators, s.msgs_per_generator
        );
    }
}

/// The rows `names` ask for — all of them once `all` is among the names
/// — or the unknown-artifact error.
fn select(names: &[String]) -> Result<Vec<&'static Artifact>, String> {
    if names.iter().any(|n| n == ALL) {
        return Ok(ARTIFACTS.iter().collect());
    }
    let row = |name: &String| {
        ARTIFACTS.iter().find(|a| a.name == name).ok_or_else(|| {
            format!(
                "unknown artifact {name:?} (artifacts: {}){}",
                artifact_names(),
                suggestion(name, ARTIFACTS.iter().map(|a| a.name).chain([ALL]))
            )
        })
    };
    names.iter().map(row).collect()
}

fn main() {
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2)
    };
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    if opts.artifacts.iter().any(|a| a == "help") {
        eprintln!(
            "repro — regenerate the IPPS 2007 pub/sub study artifacts\n\n\
             {}\n\n\
             artifacts: {}\n\
             fault scenarios: {}\n\n\
             --list-scenarios describes every named scenario",
            usage(),
            artifact_names(),
            FaultSchedule::SCENARIOS.join(" ")
        );
        return;
    }
    if opts.artifacts.iter().any(|a| a == "list-scenarios") {
        list_scenarios(opts.scale);
        return;
    }
    // Validate artifact names before running anything: a typo at the end
    // of the list must not cost a full campaign first.
    let rows = select(&opts.artifacts).unwrap_or_else(|e| fail(e));

    let armed = PLANES.iter().zip(opts.planes);
    let mut campaign = Campaign::new(
        opts.threads,
        opts.shards,
        opts.faults.clone().unwrap_or_default(),
        armed.filter_map(|(p, dir)| Some((p, dir?))).collect(),
    );
    let csv = |stem: &str, suffix: &str, text: String| {
        if let Some(dir) = &opts.out {
            write_file(dir, stem, suffix, text.as_bytes());
        }
    };
    let started = std::time::Instant::now();
    let mut failed_checks = 0;
    for a in rows {
        for sheet in (a.render)(a.name, &mut campaign, opts.scale) {
            println!("{}", sheet.text);
            csv(a.name, &format!("{}.csv", sheet.suffix), sheet.csv);
            if sheet.failed > 0 {
                eprintln!("{} checks failed", sheet.failed);
            }
            failed_checks += sheet.failed;
        }
    }
    if opts.faults.is_some() {
        for (name, stats) in campaign.fault_stats() {
            let table = telemetry::degradation_table(
                format!("Fault campaign degradation — {name}"),
                &stats.rows(),
            );
            println!("{}", table.render());
            csv(&name, ".faults.csv", table.to_csv());
        }
    }
    campaign.report_planes();
    eprintln!(
        "{} experiments, {:.1}s simulated-experiment wall time, {:.1}s total",
        campaign.runs(),
        campaign.wall_seconds,
        started.elapsed().as_secs_f64()
    );
    // Every requested artifact is written by now; a finding that does
    // not hold fails the invocation so scripts and CI can gate on it.
    if failed_checks > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fault_descriptions_cover_every_scenario() {
        let described: Vec<&str> = FAULT_SCENARIOS.iter().map(|(n, _)| *n).collect();
        assert_eq!(described, FaultSchedule::SCENARIOS);
    }

    #[test]
    fn artifact_list_has_no_duplicates_and_reserved_names() {
        let mut names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        assert!(!names.contains(&ALL));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn suggestion_finds_near_misses_and_ignores_rubbish() {
        assert_eq!(edit_distance("fig13", "fig13"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        let arts = || ARTIFACTS.iter().map(|a| a.name);
        assert_eq!(suggestion("checkz", arts()), " — did you mean \"checks\"?");
        assert_eq!(
            suggestion("broker-cash", FaultSchedule::SCENARIOS.iter().copied()),
            " — did you mean \"broker-crash\"?"
        );
        assert_eq!(suggestion("zzzzzzzz", arts()), "");
        // Exact matches never reach `suggestion`, but guard anyway.
        assert_eq!(suggestion("fig3", arts()), "");
    }

    #[test]
    fn parse_args_handles_slo_flag_grammar() {
        let slo = |o: &Options| o.planes[PLANES.len() - 1].clone();
        let bare = parse_args(["--slo".to_owned(), "compare".to_owned()].into_iter()).unwrap();
        assert_eq!(slo(&bare), Some(PathBuf::from("results/slo")));
        assert_eq!(bare.planes.iter().flatten().count(), 1);
        let with_dir = parse_args(["--slo=fresh".to_owned()].into_iter()).unwrap();
        assert_eq!(slo(&with_dir), Some(PathBuf::from("fresh")));
        let err = parse_args(["--slo=".to_owned()].into_iter()).err().unwrap();
        assert!(err.contains("--slo="), "{err}");
        let unknown = parse_args(["--sloo".to_owned()].into_iter()).err().unwrap();
        assert!(unknown.contains("--slo[=DIR]"), "{unknown}");
    }

    /// The option listings are built around the plane table; their text
    /// is what scripts and the proptests below have always seen.
    #[test]
    fn option_listings_keep_their_text() {
        assert_eq!(
            valid_options(),
            "--scale --threads --shards --out --no-csv --trace[=DIR] --faults --profile[=DIR] \
             --scope[=DIR] --slo[=DIR] --list-scenarios --help"
        );
        assert_eq!(
            usage(),
            "usage: repro [--scale=N] [--threads=N] [--shards=N] [--out=DIR | --no-csv] \
             [--trace[=DIR]] [--faults=SCENARIO] [--profile[=DIR]] [--scope[=DIR]] [--slo[=DIR]] \
             [--list-scenarios] <artifact>..."
        );
        assert_eq!(SLO.flag, PLANES[PLANES.len() - 1].flag);
    }

    /// `select` expands `all`, keeps repeats, and names the nearest
    /// artifact for a typo.
    #[test]
    fn select_resolves_names_against_the_table() {
        let pick = |names: &[&str]| {
            let names: Vec<String> = names.iter().map(|n| (*n).to_owned()).collect();
            select(&names).map(|rows| rows.iter().map(|a| a.name).collect::<Vec<_>>())
        };
        assert_eq!(
            pick(&["fig7", "fig7", "table1"]).unwrap(),
            ["fig7", "fig7", "table1"]
        );
        assert_eq!(pick(&["fig7", "all"]).unwrap().len(), ARTIFACTS.len());
        let err = pick(&["fig7", "checkz"]).unwrap_err();
        assert!(
            err.starts_with("unknown artifact \"checkz\" (artifacts: table1 "),
            "{err}"
        );
        assert!(
            err.ends_with("checks all) — did you mean \"checks\"?"),
            "{err}"
        );
    }

    /// The committed `results/` are this binary's: one CSV per row of
    /// the table and no other file (CI diffs their bytes at paper
    /// scale). Directories are a bare plane flag's, and ignored.
    #[test]
    fn results_directory_holds_one_csv_per_artifact() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut found: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ is committed")
            .map(|e| e.expect("entry"))
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name().into_string().expect("utf-8 name"))
            .collect();
        found.sort();
        let mut expected: Vec<String> = ARTIFACTS
            .iter()
            .map(|a| format!("{}.csv", a.name))
            .collect();
        expected.sort();
        assert_eq!(found, expected);
    }

    /// A value the run cannot take is a usage error before anything
    /// runs: no shards, or a scale whose runs would pass the 2^39 µs a
    /// stored instant allows (about 54 900 messages at one per 10 s).
    #[test]
    fn parse_args_refuses_zero_shards_and_a_scale_past_the_horizon() {
        let parse = |a: &str| parse_args([a.to_owned()].into_iter()).err();
        assert_eq!(
            parse("--shards=0").as_deref(),
            Some("bad --shards: need at least 1")
        );
        for scale in ["--scale=54921", "--scale=4000000000"] {
            let err = parse(scale).expect("refused");
            assert!(
                err.starts_with("bad --scale: rgma/dist/1000 would run to ")
                    && err.contains("2^39"),
                "{err}"
            );
        }
        assert_eq!(parse("--scale=54920"), None);
    }

    #[test]
    fn parse_args_accepts_list_scenarios() {
        let opts = parse_args(["--list-scenarios".to_owned()].into_iter()).unwrap();
        assert_eq!(opts.artifacts, vec!["list-scenarios"]);
        let err = parse_fault_scenario("broker-cash").unwrap_err();
        assert!(err.contains("did you mean"), "{err}");
    }

    /// A row whose number falls outside its band prints `NO` and counts
    /// once; the rows that hold count nothing.
    #[test]
    fn failed_check_counts_towards_the_exit_status() {
        use harness::claims::{table, Band, Claim};
        let row = |label, measure: fn(&mut Campaign, u32) -> (Vec<f64>, String)| Claim {
            label,
            paper: "p",
            bands: &[Band::Above(1.0), Band::Exactly(0.0)],
            measure,
        };
        let rows = [
            row("in", |_, _| (vec![2.0, 0.0], "m".into())),
            row("out", |_, _| (vec![2.0, 1.0], "m".into())),
        ];
        let mut campaign = Campaign::new(1, 1, FaultSchedule::new(), Vec::new());
        let (sheet, failures) = table(&rows, &mut campaign, 1);
        assert_eq!(failures, 1);
        let csv = sheet.to_csv();
        assert!(csv.ends_with("in,p,m,yes\nout,p,m,NO\n"), "{csv}");
        assert_eq!(table(&rows[..1], &mut campaign, 1).1, 0);
        assert_eq!(campaign.runs(), 0);
    }

    /// One of `options`, uniformly.
    fn one_of(options: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
        (0..options.len()).prop_map(move |i| options[i])
    }

    /// Argument vectors shaped like the flag grammar: real option names
    /// and near misses, each bare, as `--opt=` or as `--opt=value`, mixed
    /// with artifact-shaped words. A bare value-taking option takes the
    /// next argument whatever it looks like, or finds none at the end.
    fn arg_vector() -> impl Strategy<Value = Vec<String>> {
        const OPTIONS: &[&str] = &[
            "--scale",
            "--threads",
            "--shards",
            "--out",
            "--no-csv",
            "--trace",
            "--faults",
            "--profile",
            "--scope",
            "--slo",
            "--list-scenarios",
            "--help",
            "-h",
            "--retired",
            "--sloo",
            "--Scale",
            "--",
            "-",
            "--é",
            "-—scale",
        ];
        const WORDS: &[&str] = &[
            "",
            "20",
            "0",
            "-1",
            "1.5",
            "99999999999999999999",
            "fig7",
            "all",
            "checks",
            "broker-crash",
            "broker-cash",
            "dir/é",
            "=",
            "a=b",
            "\u{0}",
            "𝔰𝔠𝔞𝔩𝔢",
        ];
        let option =
            (one_of(OPTIONS), 0..3u8, one_of(WORDS)).prop_map(|(opt, shape, value)| match shape {
                0 => opt.to_owned(),
                1 => format!("{opt}="),
                _ => format!("{opt}={value}"),
            });
        proptest::collection::vec(
            prop_oneof![option, one_of(WORDS).prop_map(str::to_owned)],
            0..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn parse_args_never_panics(args in arg_vector()) {
            if let Err(e) = parse_args(args.into_iter()) {
                if e.starts_with("unknown option") {
                    prop_assert!(e.ends_with(&format!("(valid options: {})", valid_options())), "{e}");
                }
            }
        }

        /// Whatever follows it, the first unrecognised option after a
        /// well-formed prefix is reported by name with the valid list —
        /// what a retired flag left in someone's script gets.
        #[test]
        fn unknown_option_error_lists_the_valid_ones(
            prefix in proptest::collection::vec(
                one_of(&[
                    "--scale=3", "--threads=1", "--shards=2", "--out=d", "--no-csv", "--trace",
                    "--trace=d", "--faults=broker-crash", "--profile", "--scope=d", "--slo",
                    "--list-scenarios", "-h", "fig7", "é",
                ]),
                0..4,
            ),
            unknown in one_of(&["--retired", "--sloo", "--Scale", "--", "-", "--é", "-x"]),
            value in proptest::option::of(one_of(&["", "x.json", "é", "--scale"])),
            suffix in arg_vector(),
        ) {
            let arg = match value {
                Some(v) => format!("{unknown}={v}"),
                None => unknown.to_owned(),
            };
            let args = prefix.iter().map(|a| (*a).to_owned()).chain([arg]).chain(suffix);
            prop_assert_eq!(
                parse_args(args).err(),
                Some(format!("unknown option {unknown} (valid options: {})", valid_options()))
            );
        }
    }
}
