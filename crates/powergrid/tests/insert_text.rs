//! The R-GMA reading's text, differentially: what the digit-loop writer
//! appends is byte for byte what `core::fmt` wrote before it, and what
//! the servlet's binder reads back is the reading.
//!
//! One byte of this text moves every R-GMA number: its length is charged
//! per byte on the servlet's CPU and sized on the wire.

use powergrid::{GeneratorState, TABLE, TABLE_SQL};
use proptest::prelude::*;
use std::fmt::Write;
use wire::Value;

/// The writer this PR replaced, kept as the reference: one `write!`.
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
    // Appended, not overwritten: a publisher's buffer need not be empty.
    let mut sql = String::from("-- ");
    g.rgma_insert_sql(&mut sql);
    sql.split_off(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_text_is_what_core_fmt_wrote(g in arb_generator()) {
        prop_assert_eq!(text_of(&g), reference_insert_sql(&g));
    }

    #[test]
    fn the_binder_reads_the_reading_back(g in arb_working_generator()) {
        let mut cat = minisql::Catalog::new();
        cat.create(&minisql::parse(TABLE_SQL).unwrap()).unwrap();
        let sql = text_of(&g);
        let (schema, row) = cat.bind_insert(&sql).unwrap();
        prop_assert_eq!(&*schema.name, TABLE);
        // Each double at the precision it was printed with.
        let printed = |x: f64, precision: usize| {
            Value::Double(format!("{x:.precision$}").parse().unwrap())
        };
        let expected = vec![
            Value::Int(g.id as i32),
            Value::Int(i32::from(g.online)),
            Value::Int(g.seq as i32),
            Value::Int((g.seq * 10) as i32),
            printed(g.power_kw, 3),
            printed(g.energy_kwh, 3),
            printed(g.rating_kw, 3),
            printed(g.voltage_v, 2),
            printed(g.frequency_hz, 3),
            printed(g.power_kw * 1000.0 / g.voltage_v, 3),
            Value::Double(35.5),
            Value::Double(7.25),
            Value::fixed_char(format!("site-{:04}", g.id % 977), 20),
            Value::fixed_char("gridcc", 20),
            Value::fixed_char("WT-2000/E", 20),
            Value::fixed_char("glite-3.0", 20),
        ];
        prop_assert_eq!(row, expected, "{}", sql);
    }
}
