//! The R-GMA reading's text as the oracle of what a publisher sends in
//! its place: the row [`GeneratorState::rgma_insert`] builds is the text
//! read back, and its length is the text's. The text is rendered here
//! only; the digit-loop renderer is byte for byte what `core::fmt` wrote
//! before it.
//!
//! One byte of this length moves every R-GMA number: it is charged per
//! byte on the servlet's CPU and sized on the wire.

use minisql::write_fixed;
use powergrid::{GeneratorState, TABLE, TABLE_SQL};
use proptest::prelude::*;
use simcore::write_uint;
use std::fmt::Write;
use wire::Value;

/// The reading's `INSERT`, appended to `sql` by the digit-loop writers.
fn rgma_insert_sql(g: &GeneratorState, sql: &mut String) {
    let int = |sql: &mut String, v: u64| {
        write_uint(sql, v, 1);
        sql.push_str(", ");
    };
    let fixed = |sql: &mut String, x: f64, precision: usize| {
        write_fixed(sql, x, precision);
        sql.push_str(", ");
    };
    sql.push_str(
        "INSERT INTO generator (id, status, seq, uptime, \
         power, energy, rating, voltage, frequency, current, temp, wind, \
         site, operator, model, fw) VALUES (",
    );
    int(sql, u64::from(g.id));
    int(sql, u64::from(g.online));
    int(sql, g.seq);
    int(sql, g.seq * 10);
    fixed(sql, g.power_kw, 3);
    fixed(sql, g.energy_kwh, 3);
    fixed(sql, g.rating_kw, 3);
    fixed(sql, g.voltage_v, 2);
    fixed(sql, g.frequency_hz, 3);
    fixed(sql, g.power_kw * 1000.0 / g.voltage_v, 3);
    fixed(sql, 35.5, 1);
    fixed(sql, 7.25, 2);
    sql.push_str("'site-");
    write_uint(sql, u64::from(g.id % 977), 4);
    sql.push_str("', 'gridcc', 'WT-2000/E', 'glite-3.0')");
}

/// The digit-loop writer's reference: one `write!`.
fn reference_insert_sql(g: &GeneratorState) -> String {
    let mut sql = String::new();
    write!(
        sql,
        "INSERT INTO {TABLE} (id, status, seq, uptime, \
         power, energy, rating, voltage, frequency, current, temp, wind, \
         site, operator, model, fw) VALUES \
         ({}, {}, {}, {}, {:.3}, {:.3}, {:.3}, {:.2}, {:.3}, {:.3}, {:.1}, {:.2}, \
         'site-{:04}', 'gridcc', 'WT-2000/E', 'glite-3.0')",
        g.id,
        i32::from(g.online),
        g.seq,
        g.seq * 10,
        g.power_kw,
        g.energy_kwh,
        g.rating_kw,
        g.voltage_v,
        g.frequency_hz,
        g.power_kw * 1000.0 / g.voltage_v,
        35.5,
        7.25,
        g.id % 977,
    )
    .expect("writing to a String cannot fail");
    sql
}

/// A physical quantity: in its working range, on a tie of the printed
/// precision, or any double at all (negative, huge, NaN: the text must
/// still match, whatever a parser then makes of it).
fn quantity(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![
        range,
        (0u32..4_000_000, 0i32..12).prop_map(|(n, j)| f64::from(n) / f64::powi(2.0, j)),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

prop_compose! {
    fn arb_generator()(
        id in prop_oneof![any::<u32>(), 0u32..4000],
        power_kw in quantity(0.0..2000.0),
        rating_kw in quantity(5.0..2000.0),
        voltage_v in quantity(215.0..245.0),
        frequency_hz in quantity(49.5..50.5),
        energy_kwh in quantity(0.0..100_000.0),
        seq in prop_oneof![0u64..200, 0u64..u64::MAX / 10],
        online in any::<bool>(),
    ) -> GeneratorState {
        GeneratorState { id, power_kw, rating_kw, voltage_v, frequency_hz, energy_kwh, seq, online }
    }
}

/// A generator whose every quantity is an ordinary reading.
fn arb_working_generator() -> impl Strategy<Value = GeneratorState> {
    arb_generator().prop_filter("a working generator", |g| {
        g.id <= i32::MAX as u32
            && g.seq <= 200_000_000
            && (0.0..=2000.0).contains(&g.power_kw)
            && (5.0..=2000.0).contains(&g.rating_kw)
            && (215.0..=245.0).contains(&g.voltage_v)
            && (49.5..=50.5).contains(&g.frequency_hz)
            && (0.0..=100_000.0).contains(&g.energy_kwh)
    })
}

fn text_of(g: &GeneratorState) -> String {
    // Appended, not overwritten: the writer must not assume an empty
    // buffer.
    let mut sql = String::from("-- ");
    rgma_insert_sql(g, &mut sql);
    sql.split_off(3)
}

/// The row the servlet would have made of `g`'s text: parsed, then
/// normalized against the paper's table.
fn text_read_back(g: &GeneratorState) -> Vec<Value> {
    let mut cat = minisql::Catalog::new();
    cat.create(&minisql::parse(TABLE_SQL).unwrap()).unwrap();
    let sql = text_of(g);
    let minisql::Statement::Insert {
        table,
        columns,
        values,
    } = minisql::parse(&sql).unwrap()
    else {
        panic!("{sql} is an INSERT")
    };
    assert_eq!(table, TABLE);
    let schema = cat.table(&table).unwrap();
    schema.normalize_insert(&columns, &values).unwrap()
}

/// Whether two rows are the same cell for cell, every double bit for bit.
fn same_bits(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (Value::Double(x), Value::Double(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Edges a working generator seldom reaches: a negative zero, and
/// quantities whose printed digits pass `2^53`, read back by parsing.
#[test]
fn the_row_is_the_text_read_back_at_the_edges() {
    let base = GeneratorState {
        id: 3999,
        power_kw: 812.5,
        rating_kw: 1500.0,
        voltage_v: 230.0,
        frequency_hz: 50.0,
        energy_kwh: 0.0,
        seq: 180,
        online: true,
    };
    for g in [
        GeneratorState {
            power_kw: -0.0,
            energy_kwh: -0.0004,
            ..base.clone()
        },
        GeneratorState {
            energy_kwh: 9_007_199_254_740.993,
            rating_kw: 1e15 + 0.5,
            ..base.clone()
        },
        GeneratorState {
            energy_kwh: 1e300,
            ..base.clone()
        },
    ] {
        let (row, len) = g.rgma_insert();
        assert!(same_bits(&row, &text_read_back(&g)), "{}", text_of(&g));
        assert_eq!(len, text_of(&g).len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_text_is_what_core_fmt_wrote(g in arb_generator()) {
        prop_assert_eq!(text_of(&g), reference_insert_sql(&g));
    }

    /// NaN, infinities and huge values included: the length is the
    /// text's even where no parser would read the text.
    #[test]
    fn the_length_is_the_texts(g in arb_generator()) {
        prop_assert_eq!(g.rgma_insert().1, text_of(&g).len(), "{}", text_of(&g));
    }

    #[test]
    fn the_row_is_the_text_read_back(g in arb_working_generator()) {
        let (row, _) = g.rgma_insert();
        let expected = text_read_back(&g);
        prop_assert!(same_bits(&row, &expected), "{:?} against {}", row, text_of(&g));
    }
}
