//! EXPERIMENTS.md quotes `results/`: every cell of a marked table is
//! checked against the CSV cells its marker names, rounded to the
//! decimals the document prints.
//!
//! A marker is an HTML comment directly above a table; several may
//! stack, one per CSV file:
//!
//! ```text
//! <!-- quote results/fig7.csv
//! Measured RTT <- y where x={conns}; series=RTT
//! Measured @ Artifact=Fig 7 <- y where x=3000; series=RTT
//! -->
//! ```
//!
//! Each line maps a column of the table to a CSV column, in the one CSV
//! row whose keys hold the given values. `{name}` stands for the row's
//! own cell under column `name`, and `@ column=value` limits the line to
//! the rows whose cell under that column is `value`. A cell prints every
//! number its CSV cell holds, in order, and no other; a cell with no CSV
//! row prints none.

use std::fs;
use std::path::Path;

/// The chapters that set a paper value beside a measured one: each
/// must carry a marked table that checks at least one cell.
const CHAPTERS: [&str; 10] = [
    "## Table II ",
    "## Fig 3 ",
    "## Fig 4 ",
    "## Figs 6, 7, 8, 9 ",
    "## Fig 10 ",
    "## Figs 11, 12, 13, 14 ",
    "## Fig 15 ",
    "## §III.F.1 ",
    "## Table III ",
    "## Fidelity summary",
];

/// Fewer checked cells than this means a marker or a table went away.
const MIN_CELLS: usize = 268;

/// One line of a marker.
struct Quote {
    file: String,
    column: String,
    only: Option<(String, String)>,
    csv_column: String,
    keys: Vec<(String, String)>,
}

#[derive(Default)]
struct Report {
    failures: Vec<String>,
    cells: usize,
    chapters_checked: Vec<String>,
}

/// Markdown emphasis and code marks are not part of a cell's value.
fn clean(cell: &str) -> String {
    cell.replace("**", "").replace('`', "").trim().to_string()
}

fn table_row(line: &str) -> Vec<String> {
    let inner = line.trim().trim_start_matches('|').trim_end_matches('|');
    inner.split('|').map(clean).collect()
}

fn csv_line(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().unwrap().push(c),
        }
    }
    fields
}

/// The numbers a cell prints, as written: digits with an optional
/// fraction, with the space between groups of three digits dropped
/// (`144 000` is one number). Digits that continue a word (`p99`,
/// `RTT2`, `Test1`) belong to the word. Signs are not read.
fn numbers(cell: &str) -> Vec<String> {
    let c: Vec<char> = cell.chars().collect();
    let digit = |i: usize| c.get(i).is_some_and(|d| d.is_ascii_digit());
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        if c[i].is_alphabetic() || c[i] == '_' {
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
        } else if digit(i) {
            let start = i;
            while digit(i) {
                i += 1;
            }
            let mut n: String = c[start..i].iter().collect();
            if i - start <= 3 {
                while matches!(c.get(i), Some(' ' | '\u{a0}' | '\u{202f}'))
                    && (1..=3).all(|k| digit(i + k))
                    && !digit(i + 4)
                {
                    n.extend(&c[i + 1..i + 4]);
                    i += 4;
                }
            }
            if c.get(i) == Some(&'.') && digit(i + 1) {
                n.push('.');
                i += 1;
                while digit(i) {
                    n.push(c[i]);
                    i += 1;
                }
            }
            out.push(n);
        } else {
            i += 1;
        }
    }
    out
}

/// Whether `printed` is `value` rounded to the decimals `printed` has.
fn quotes(printed: &str, value: &str) -> bool {
    let decimals = printed.split_once('.').map_or(0, |(_, f)| f.len());
    value
        .parse::<f64>()
        .is_ok_and(|v| format!("{v:.decimals$}") == printed)
}

fn parse_quote(file: &str, line: &str) -> Result<Quote, String> {
    let (lhs, rhs) = line
        .split_once(" <- ")
        .ok_or_else(|| format!("marker line `{line}` has no ` <- `"))?;
    let (column, only) = match lhs.split_once(" @ ") {
        Some((column, filter)) => {
            let (k, v) = filter
                .split_once('=')
                .ok_or_else(|| format!("marker line `{line}`: `@` wants column=value"))?;
            (column, Some((k.trim().to_string(), v.trim().to_string())))
        }
        None => (lhs, None),
    };
    let (csv_column, keys) = rhs
        .split_once(" where ")
        .ok_or_else(|| format!("marker line `{line}` has no ` where `"))?;
    let keys = keys
        .split(';')
        .map(|kv| {
            kv.split_once('=')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .ok_or_else(|| format!("marker line `{line}`: key `{kv}` wants name=value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Quote {
        file: file.to_string(),
        column: column.trim().to_string(),
        only,
        csv_column: csv_column.trim().to_string(),
        keys,
    })
}

/// Checks every marked table of `doc`; `csv` reads a file named by a
/// marker, relative to the repository root.
fn check(doc: &str, csv: impl Fn(&str) -> Option<String>) -> Report {
    let mut report = Report::default();
    let lines: Vec<&str> = doc.lines().collect();
    let mut chapter = String::new();
    let mut pending: Vec<Quote> = Vec::new();
    let mut fenced = false;
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if line.starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            i += 1;
            continue;
        }
        if line.starts_with("## ") {
            chapter = line.to_string();
        }
        if let Some(file) = line.strip_prefix("<!-- quote ") {
            let file = file.trim();
            i += 1;
            while i < lines.len() && lines[i].trim() != "-->" {
                match parse_quote(file, lines[i].trim()) {
                    Ok(q) => pending.push(q),
                    Err(e) => report.failures.push(format!("line {}: {e}", i + 1)),
                }
                i += 1;
            }
            i += 1;
            continue;
        }
        if !pending.is_empty() && line.starts_with('|') {
            let start = i;
            while i < lines.len() && lines[i].starts_with('|') {
                i += 1;
            }
            let table = &lines[start..i];
            let before = report.cells;
            for q in pending.drain(..) {
                check_table(&q, table, start, &chapter, &csv, &mut report);
            }
            if report.cells > before && !report.chapters_checked.contains(&chapter) {
                report.chapters_checked.push(chapter.clone());
            }
            continue;
        }
        if !pending.is_empty() && !line.trim().is_empty() {
            report.failures.push(format!(
                "line {}: a quote marker is not followed by a table",
                i + 1
            ));
            pending.clear();
        }
        i += 1;
    }
    if !pending.is_empty() {
        report
            .failures
            .push("a quote marker at the end of the file has no table".into());
    }
    report
}

fn check_table(
    q: &Quote,
    table: &[&str],
    first_line: usize,
    chapter: &str,
    csv: &impl Fn(&str) -> Option<String>,
    report: &mut Report,
) {
    let at = |n: usize| format!("EXPERIMENTS.md:{} ({chapter})", first_line + n + 1);
    let Some(text) = csv(&q.file) else {
        report
            .failures
            .push(format!("{}: cannot read {}", at(0), q.file));
        return;
    };
    let rows: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(csv_line)
        .collect();
    let Some((header, body)) = rows.split_first() else {
        report
            .failures
            .push(format!("{}: {} is empty", at(0), q.file));
        return;
    };
    let csv_ix = |name: &str| header.iter().position(|h| h == name);
    let md_header = table_row(table[0]);
    let md_ix = |name: &str| md_header.iter().position(|h| h == name);
    let Some(col) = md_ix(&q.column) else {
        report
            .failures
            .push(format!("{}: the table has no column `{}`", at(0), q.column));
        return;
    };
    let Some(value_ix) = csv_ix(&q.csv_column) else {
        report.failures.push(format!(
            "{}: {} has no column `{}`",
            at(0),
            q.file,
            q.csv_column
        ));
        return;
    };
    for (n, line) in table.iter().enumerate().skip(2) {
        let row = table_row(line);
        let cell_of = |name: &str| md_ix(name).and_then(|ix| row.get(ix)).cloned();
        if let Some((k, v)) = &q.only {
            if cell_of(k).as_deref() != Some(v.as_str()) {
                continue;
            }
        }
        let mut keys = Vec::new();
        for (k, v) in &q.keys {
            let Some(kix) = csv_ix(k) else {
                report
                    .failures
                    .push(format!("{}: {} has no column `{k}`", at(n), q.file));
                return;
            };
            let mut v = v.clone();
            while let Some(open) = v.find('{') {
                let Some(close) = v[open..].find('}').map(|c| open + c) else {
                    break;
                };
                let name = v[open + 1..close].to_string();
                let Some(sub) = cell_of(&name) else {
                    report
                        .failures
                        .push(format!("{}: the table has no column `{name}`", at(n)));
                    return;
                };
                v.replace_range(open..=close, &sub);
            }
            keys.push((kix, v));
        }
        let found: Vec<&Vec<String>> = body
            .iter()
            .filter(|r| {
                keys.iter()
                    .all(|(k, v)| r.get(*k).map(|c| c.trim()) == Some(v))
            })
            .collect();
        let shown = keys
            .iter()
            .map(|(k, v)| format!("{}={v}", header[*k]))
            .collect::<Vec<_>>()
            .join("; ");
        if found.len() > 1 {
            report.failures.push(format!(
                "{}: {} has {} rows where {shown}",
                at(n),
                q.file,
                found.len()
            ));
            continue;
        }
        let printed = numbers(row.get(col).map_or("", String::as_str));
        let held = found
            .first()
            .map(|r| numbers(r.get(value_ix).map_or("", String::as_str)))
            .unwrap_or_default();
        let agrees =
            printed.len() == held.len() && printed.iter().zip(&held).all(|(p, h)| quotes(p, h));
        if !agrees {
            report.failures.push(format!(
                "{}: column `{}` prints [{}], but {} {} where {shown} holds [{}]",
                at(n),
                q.column,
                printed.join(", "),
                q.file,
                q.csv_column,
                held.join(", "),
            ));
        } else if !printed.is_empty() {
            report.cells += 1;
        }
    }
}

#[test]
fn experiments_quotes_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let report = check(&doc, |file| fs::read_to_string(root.join(file)).ok());
    assert!(
        report.failures.is_empty(),
        "EXPERIMENTS.md does not quote results/:\n{}",
        report.failures.join("\n")
    );
    for chapter in CHAPTERS {
        assert!(
            report
                .chapters_checked
                .iter()
                .any(|c| c.starts_with(chapter)),
            "chapter `{chapter}` has no marked table that checks a cell"
        );
    }
    assert!(
        report.cells >= MIN_CELLS,
        "only {} cells checked (floor {MIN_CELLS}): a marker went away",
        report.cells
    );
}

#[test]
fn a_cell_reads_its_numbers_as_printed() {
    assert_eq!(
        numbers("144 000 / 143 908 (**0.06 %**)"),
        ["144000", "143908", "0.06"]
    );
    assert_eq!(numbers("p99 = 4325.38 ms at 600"), ["4325.38", "600"]);
    assert_eq!(numbers("RTT2 < RTT, 4.2x, 10ms."), ["4.2", "10"]);
    assert_eq!(
        numbers("500-3000, 3931 of 4000"),
        ["500", "3000", "3931", "4000"]
    );
    assert!(numbers("—").is_empty());
    assert!(quotes("24.7", "24.704"));
    assert!(quotes("1284", "1283.64"));
    assert!(quotes("0.30", "0.3"));
    assert!(!quotes("228", "417.32"));
    assert!(!quotes("144000", "143460"));
}

#[test]
fn a_stale_cell_is_named() {
    let csv = "x,series,y\n100,UDP,417.32\n100,TCP,25.712\n";
    let doc = "## Fig 4 — x\n\n<!-- quote results/fig4.csv\n\
               p100 <- y where x=100; series={test}\n-->\n\
               | test | p100 |\n|---|---|\n| TCP | 25.7 |\n| UDP | 228 |\n| NIO | — |\n";
    let report = check(doc, |_| Some(csv.to_string()));
    assert_eq!(report.cells, 1);
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    assert!(report.failures[0].contains("prints [228]"));
    assert!(report.failures[0].contains("holds [417.32]"));
    let orphan = check(
        "<!-- quote results/fig4.csv\np100 <- y where x=100\n-->\nprose\n",
        |_| Some(csv.to_string()),
    );
    assert!(!orphan.failures.is_empty());
}
