//! The result of every predicate the study's traffic evaluates, and the
//! cost of each selector, each on a matching reading, a non-matching one
//! and one that lacks the property or column (UNKNOWN, so no match). Narada's brokers
//! run the JMS selectors on every published message (the fleet's
//! `PAPER_SELECTOR`, the empty selector of a match-all subscription, the
//! broker tests' `id < 5`); R-GMA's consumers run the `WHERE` clauses on
//! every tuple (`repro`'s `SELECT *`, `examples/virtual_database.rs`'s
//! `power > 700.0`, `rgma_e2e.rs`'s `id < 3`, gridbench's
//! `id < 100 AND power > 500.0`).

use gridmon::jms::Selector;
use gridmon::minisql::{self, Catalog, Statement, TableSchema};
use gridmon::powergrid::{PAPER_SELECTOR, TABLE_SQL};
use gridmon::simcore::SimTime;
use gridmon::wire::{Headers, Message, MessageId, Value};

/// A published reading from generator `id`, or one without the property.
fn message(id: Option<i32>) -> Message {
    let m = Message::text(
        Headers::new(MessageId(1), "power.monitor", SimTime::ZERO),
        "x",
    );
    match id {
        Some(id) => m.with_property("id", id),
        None => m,
    }
}

#[test]
fn every_traffic_selector_costs_and_matches_as_pinned() {
    // (selector, µs per evaluation, [(reading's id, matches)]): a
    // matching reading, a non-matching one, one without `id`.
    let table = [
        (
            "",
            4,
            [(Some(42), true), (Some(10_000), true), (None, true)],
        ),
        (
            PAPER_SELECTOR,
            8,
            [(Some(42), true), (Some(10_000), false), (None, false)],
        ),
        (
            "id < 5",
            8,
            [(Some(1), true), (Some(5), false), (None, false)],
        ),
    ];
    for (text, micros, readings) in table {
        let selector = Selector::compile(text).unwrap();
        assert_eq!(selector.eval_cost().as_micros(), micros, "{text:?}");
        for (id, want) in readings {
            assert_eq!(
                selector.matches(&message(id)),
                want,
                "{text:?} on id {id:?}"
            );
        }
    }
}

/// The paper's `generator` table, and one that has only a `site` column.
fn schemas() -> (TableSchema, TableSchema) {
    let mut catalog = Catalog::new();
    let paper = catalog.create(&minisql::parse(TABLE_SQL).unwrap()).unwrap();
    let mut other = Catalog::new();
    let bare = other
        .create(&minisql::parse("CREATE TABLE generator (site CHAR(20))").unwrap())
        .unwrap();
    (paper.clone(), bare.clone())
}

/// A row of the paper's table from generator `id` reading `power`.
fn row(id: i32, power: f64) -> Vec<Value> {
    let mut row = vec![Value::Int(id), Value::Int(1), Value::Int(0), Value::Int(60)];
    row.push(Value::Double(power));
    row.extend((0..7).map(|_| Value::Double(1.0)));
    row.extend((0..4).map(|_| Value::fixed_char("hydra", 20)));
    row
}

#[test]
fn every_traffic_where_clause_matches_as_pinned() {
    let (paper, bare) = schemas();
    let missing = vec![Value::fixed_char("hydra", 20)];
    // (query, a matching row, a non-matching row): the row of the
    // `site`-only table lacks every column the clauses name.
    let table = [
        ("SELECT * FROM generator", (1, 812.5), None),
        (
            "SELECT * FROM generator WHERE power > 700.0",
            (1, 812.5),
            Some((1, 650.0)),
        ),
        (
            "SELECT * FROM generator WHERE id < 3",
            (1, 812.5),
            Some((3, 812.5)),
        ),
        (
            "SELECT * FROM generator WHERE id < 100 AND power > 500.0",
            (42, 812.5),
            Some((42, 400.0)),
        ),
    ];
    for (sql, (id, power), miss) in table {
        let Statement::Select { predicate, .. } = minisql::parse(sql).unwrap() else {
            panic!("{sql} is a SELECT")
        };
        let predicate = predicate.as_ref();
        // No WHERE clause: every row matches.
        let matches = |schema: &TableSchema, row: &[Value]| {
            predicate.is_none_or(|p| minisql::eval_predicate(p, schema, row) == Some(true))
        };
        assert!(matches(&paper, &row(id, power)), "{sql}");
        if let Some((id, power)) = miss {
            assert!(!matches(&paper, &row(id, power)), "{sql}");
        }
        assert_eq!(
            matches(&bare, &missing),
            predicate.is_none(),
            "{sql} on a missing column"
        );
        if let Some(p) = predicate {
            assert_eq!(minisql::eval_predicate(p, &bare, &missing), None, "{sql}");
        }
    }
}
