//! The `repro` binary against the two tables it is built from: what it
//! lists, what it rejects and which files it writes.

use gridmon_core::{run_experiment, scenarios, ExperimentSpec, Observe, SystemUnderTest};
use harness::artifacts::ARTIFACTS;
use harness::campaign::{PLANES, SLO};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro runs")
}

/// A fresh directory of this test's own.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harness-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    names
}

fn table_names() -> Vec<&'static str> {
    ARTIFACTS.iter().map(|a| a.name).chain(["all"]).collect()
}

#[test]
fn every_plane_writes_its_files_for_every_run_of_compare() {
    let dir = scratch("planes");
    let flags: Vec<String> = PLANES
        .iter()
        .map(|p| format!("{}={}", p.flag, &p.flag[2..]))
        .collect();
    let mut args = vec!["--scale=2", "--out=csv", "compare"];
    args.extend(flags.iter().map(String::as_str));
    let out = repro(&dir, &args);
    assert!(out.status.success(), "{out:?}");

    // Each plane's suffixes, from a run that has every plane's exports:
    // the set is the planes' own bits, so a plane added later is in it.
    let every = PLANES
        .iter()
        .fold(Observe::default(), |set, p| set | p.observe);
    let mut observed = run_experiment(
        &ExperimentSpec::paper_default("x", SystemUnderTest::NaradaSingle, 2)
            .scaled(1)
            .observed(every),
    );
    let runs: Vec<String> = scenarios::three_way_specs(2)
        .into_iter()
        .chain(scenarios::three_way_outage_specs(2))
        .map(|s| s.name.replace('/', "_"))
        .collect();
    assert_eq!(runs.len(), 7);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let mut counts = Vec::new();
    for plane in PLANES {
        let mut expected: Vec<String> = (plane.files)(&mut observed)
            .iter()
            .flat_map(|(suffix, _)| runs.iter().map(move |run| format!("{run}{suffix}")))
            .collect();
        if plane.flag == SLO.flag {
            expected.push("compliance.md".to_owned());
        }
        expected.sort();
        let sub = &plane.flag[2..];
        assert_eq!(file_names(&dir.join(sub)), expected, "{}", plane.flag);
        let line = format!(
            "{} {} files written under {sub}\n",
            expected.len(),
            plane.noun
        );
        assert!(stderr.contains(&line), "{line:?} not in {stderr}");
        counts.push(expected.len());
    }
    assert_eq!(counts, [14, 28, 14, 8]);
    assert_eq!(
        file_names(&dir.join("csv")),
        ["compare-slo.csv", "compare.csv"]
    );
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

#[test]
fn an_unknown_artifact_exits_2_and_names_the_nearest() {
    let dir = scratch("unknown");
    let out = repro(&dir, &["--scale=2", "table1", "checkz"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before validation");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "error: unknown artifact \"checkz\" (artifacts: {}) — did you mean \"checks\"?\n",
            table_names().join(" ")
        )
    );
    assert_eq!(file_names(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

#[test]
fn a_scale_past_the_horizon_limit_exits_2_before_running() {
    let dir = scratch("scale");
    let out = repro(&dir, &["--scale=4000000000", "fig7"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs before validation");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.starts_with("error: bad --scale: ") && err.contains("2^39"),
        "{err}"
    );
    assert_eq!(file_names(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

#[test]
fn help_and_list_scenarios_list_the_table_in_order() {
    let dir = scratch("listings");
    let help = repro(&dir, &["--help"]);
    assert!(help.status.success());
    let text = String::from_utf8_lossy(&help.stderr).into_owned();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("artifacts: "))
        .expect("an artifacts line");
    assert_eq!(line.split(' ').collect::<Vec<_>>(), table_names());
    for plane in PLANES {
        assert!(text.contains(&format!("[{}[=DIR]]", plane.flag)), "{text}");
    }

    let list = repro(&dir, &["--list-scenarios"]);
    assert!(list.status.success());
    let text = String::from_utf8_lossy(&list.stdout).into_owned();
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| *l != "artifacts (repro <name>):")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| l.split_whitespace().next().expect("a name"))
        .collect();
    assert_eq!(listed, table_names());
    for a in ARTIFACTS {
        assert!(text.contains(&format!("  {:<22} {}\n", a.name, a.about)));
    }
    // Every listed spec is owned by an artifact of the table.
    let specs = text
        .lines()
        .skip_while(|l| !l.starts_with("experiment specs"));
    let owners: Vec<&str> = specs
        .skip(1)
        .map(|l| l.split(['[', ']']).nth(1).expect("an [owner]"))
        .collect();
    assert_eq!(owners.len(), 10);
    assert!(
        owners.iter().all(|o| table_names().contains(o)),
        "{owners:?}"
    );
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

/// A directory that cannot be written costs one warning per file and
/// nothing else: every later file is still attempted, stdout is whole
/// and the exit status is the findings', not the disk's.
#[test]
fn unwritable_directories_are_warned_about_per_file_and_do_not_fail_the_run() {
    let dir = scratch("unwritable");
    std::fs::write(dir.join("file"), b"in the way").expect("a regular file");
    let out = repro(
        &dir,
        &[
            "--scale=2",
            "--threads=1",
            "--out=file",
            "--trace=file",
            "--slo=fresh",
            "fig15",
            "table1",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warned: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("warning: cannot write file/"))
        .map(|l| l.split(':').next().expect("a path"))
        .collect();
    assert_eq!(
        warned,
        [
            "fig15_narada.trace.jsonl",
            "fig15_narada.trace.json",
            "fig15_rgma.trace.jsonl",
            "fig15_rgma.trace.json",
            "fig15.csv",
            "table1.csv",
        ]
    );
    assert!(stderr.contains("0 trace files written under file\n"));
    assert!(stderr.contains("3 freshness files written under fresh\n"));
    assert_eq!(
        file_names(&dir.join("fresh")),
        [
            "compliance.md",
            "fig15_narada.slo.csv",
            "fig15_rgma.slo.csv"
        ]
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fig15 — ") && stdout.contains("TABLE I — "));
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}
