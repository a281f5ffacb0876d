//! Simulated power generators: telemetry state with realistic dynamics
//! and the paper's exact payload shapes.
//!
//! Narada tests: "Two integer, five float, two long, three double and
//! four string values were packaged in a JMS MapMessage".
//! R-GMA tests: "four integer, eight double and four char (length 20)
//! values, which were wrapped in an SQL statement".

use minisql::fixed_literal;
use simcore::{uint_len, SimRng, SimTime};
use std::borrow::Cow;
use std::sync::Arc;
use wire::{Body, Headers, Message, MessageId, Text, Value};

thread_local! {
    /// [`TOPIC`] as the one string every reading built on this thread
    /// points its headers at.
    static SHARED_TOPIC: Arc<str> = Arc::from(TOPIC);
}

/// Operating state of one small renewable generator.
#[derive(Debug, Clone)]
pub struct GeneratorState {
    /// Fleet-unique id (the paper's selector filters on `id < 10000`).
    pub id: u32,
    /// Power output, kW (random walk around the rating).
    pub power_kw: f64,
    /// Rated output, kW.
    pub rating_kw: f64,
    /// Grid voltage at the point of connection, V.
    pub voltage_v: f64,
    /// Frequency, Hz.
    pub frequency_hz: f64,
    /// Cumulative energy, kWh.
    pub energy_kwh: f64,
    /// Messages produced so far.
    pub seq: u64,
    /// On-line flag.
    pub online: bool,
}

impl GeneratorState {
    /// New generator with a rating drawn from a realistic small-generator
    /// range (5–2000 kW).
    pub fn new(id: u32, rng: &mut SimRng) -> Self {
        let rating = 5.0 + rng.f64() * 1995.0;
        GeneratorState {
            id,
            power_kw: rating * (0.3 + 0.5 * rng.f64()),
            rating_kw: rating,
            voltage_v: 230.0,
            frequency_hz: 50.0,
            energy_kwh: 0.0,
            seq: 0,
            online: true,
        }
    }

    /// Advance the telemetry by one reporting period.
    pub fn step(&mut self, rng: &mut SimRng, period_secs: f64) {
        // Mean-reverting random walk toward 60 % of rating.
        let target = 0.6 * self.rating_kw;
        let drift = 0.05 * (target - self.power_kw);
        let noise = rng.normal(0.0, 0.02 * self.rating_kw);
        self.power_kw = (self.power_kw + drift + noise).clamp(0.0, self.rating_kw);
        self.voltage_v = (self.voltage_v + rng.normal(0.0, 0.4)).clamp(215.0, 245.0);
        self.frequency_hz = (self.frequency_hz + rng.normal(0.0, 0.01)).clamp(49.5, 50.5);
        self.energy_kwh += self.power_kw * period_secs / 3600.0;
        self.seq += 1;
    }

    /// The Narada test payload: a JMS MapMessage with 2 int + 5 float +
    /// 2 long + 3 double + 4 string values, with the `id` property the
    /// paper's selector (`id<10000`) filters on. `repeat` multiplies the
    /// payload (the "Triple" test used `repeat = 3`).
    pub fn narada_message(&self, msg_id: u64, now: SimTime, repeat: usize) -> Message {
        let mut entries: Vec<(Cow<'static, str>, Value)> = Vec::with_capacity(16 * repeat);
        for r in 0..repeat {
            entries.extend(self.reading_fields(r));
        }
        Message::new(
            Headers::new(MessageId(msg_id), SHARED_TOPIC.with(Arc::clone), now),
            [("id", Value::Int(self.id as i32))].into_iter().collect(),
            Body::Map(entries.into_iter().collect()),
        )
    }

    /// Copy `r` of the reading's 16 fields — 2 int (gen_id, status), 5
    /// float (current, frequency, temp_c, voltage, wind_ms), 2 long (seq,
    /// uptime_s), 3 double (energy_kwh, power_kw, rating_kw), 4 string
    /// (fw, model, operator, site) — in byte-wise name order, so the first
    /// copy's map is kept as built, with no sort.
    fn reading_fields(&self, r: usize) -> [(Cow<'static, str>, Value); 16] {
        // The schema's own names are borrowed; only a copy's are built.
        let p = |name: &'static str| {
            if r == 0 {
                Cow::Borrowed(name)
            } else {
                Cow::Owned(format!("{name}_{r}"))
            }
        };
        [
            (
                p("current"),
                Value::Float((self.power_kw * 1000.0 / self.voltage_v) as f32),
            ),
            (p("energy_kwh"), Value::Double(self.energy_kwh)),
            (p("frequency"), Value::Float(self.frequency_hz as f32)),
            (p("fw"), Value::Str("v1.1.3".into())),
            (p("gen_id"), Value::Int(self.id as i32)),
            (p("model"), Value::Str("WT-2000/E".into())),
            (p("operator"), Value::Str("gridcc".into())),
            (p("power_kw"), Value::Double(self.power_kw)),
            (p("rating_kw"), Value::Double(self.rating_kw)),
            (p("seq"), Value::Long(self.seq as i64)),
            (p("site"), Value::Str(self.site())),
            (p("status"), Value::Int(i32::from(self.online))),
            (p("temp_c"), Value::Float(35.5)),
            (p("uptime_s"), Value::Long((self.seq * 10) as i64)),
            (p("voltage"), Value::Float(self.voltage_v as f32)),
            (p("wind_ms"), Value::Float(7.25)),
        ]
    }

    /// `site-NNNN`, the site this generator stands on (one of 977).
    fn site(&self) -> Text {
        let mut name = *b"site-0000";
        let mut number = self.id % 977;
        for digit in name[5..].iter_mut().rev() {
            *digit = b'0' + (number % 10) as u8;
            number /= 10;
        }
        std::str::from_utf8(&name).expect("ASCII").into()
    }

    /// The R-GMA test payload: the row of an SQL `INSERT` of 4 integer +
    /// 8 double + 4 char(20) values, in the table's column order, and the
    /// length in bytes of the `INSERT` text it stands for, which is all
    /// the servlet charges for and the wire carries. The text is never
    /// written: each double is the value its printed literal reads back
    /// as, and the length is counted from the digits. Allocates nothing.
    pub fn rgma_insert(&self) -> ([Value; 16], usize) {
        let ints = [
            u64::from(self.id),
            u64::from(self.online),
            self.seq,
            self.seq * 10,
        ];
        let doubles = [
            fixed_literal(self.power_kw, 3),
            fixed_literal(self.energy_kwh, 3),
            fixed_literal(self.rating_kw, 3),
            fixed_literal(self.voltage_v, 2),
            fixed_literal(self.frequency_hz, 3),
            fixed_literal(self.power_kw * 1000.0 / self.voltage_v, 3),
            fixed_literal(35.5, 1),
            fixed_literal(7.25, 2),
        ];
        let len = RGMA_INSERT_FIXED_LEN
            + ints.iter().map(|&v| uint_len(v)).sum::<usize>()
            + doubles.iter().map(|&(len, _)| len).sum::<usize>();
        // A count past INTEGER stays a LONG, which no INTEGER column
        // takes, so the servlet refuses the row.
        let [id, status, seq, uptime] =
            ints.map(|v| i32::try_from(v).map_or(Value::Long(v as i64), Value::Int));
        let [power, energy, rating, voltage, frequency, current, temp, wind] =
            doubles.map(|(_, x)| Value::Double(x));
        let row = [
            id,
            status,
            seq,
            uptime,
            power,
            energy,
            rating,
            voltage,
            frequency,
            current,
            temp,
            wind,
            Value::fixed_char(self.site(), 20),
            Value::fixed_char("gridcc", 20),
            Value::fixed_char("WT-2000/E", 20),
            Value::fixed_char("glite-3.0", 20),
        ];
        (row, len)
    }
}

/// Everything of an R-GMA `INSERT` before its first value.
const RGMA_INSERT_HEAD: &str = "INSERT INTO generator (id, status, seq, uptime, \
     power, energy, rating, voltage, frequency, current, temp, wind, \
     site, operator, model, fw) VALUES (";

/// The bytes of every R-GMA `INSERT` but its twelve numbers: the head,
/// the `, ` after each number, and the four quoted strings (a site's
/// number is always four digits) with the closing `)`.
const RGMA_INSERT_FIXED_LEN: usize = RGMA_INSERT_HEAD.len()
    + 12 * ", ".len()
    + "'site-0000', 'gridcc', 'WT-2000/E', 'glite-3.0')".len();

/// Topic used by the Narada tests.
pub const TOPIC: &str = "power.monitor";
/// Table used by the R-GMA tests.
pub const TABLE: &str = "generator";
/// `CREATE TABLE` for the R-GMA payload.
pub const TABLE_SQL: &str = "CREATE TABLE generator (\
     id INTEGER, status INTEGER, seq INTEGER, uptime INTEGER, \
     power DOUBLE PRECISION, energy DOUBLE PRECISION, rating DOUBLE PRECISION, \
     voltage DOUBLE PRECISION, frequency DOUBLE PRECISION, current DOUBLE PRECISION, \
     temp DOUBLE PRECISION, wind DOUBLE PRECISION, \
     site CHAR(20), operator CHAR(20), model CHAR(20), fw CHAR(20))";
/// The selector used in the paper ("did not filter out any data but just
/// to simulate real uses").
pub const PAPER_SELECTOR: &str = "id<10000";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamics_stay_in_range() {
        let mut rng = SimRng::new(1);
        let mut g = GeneratorState::new(7, &mut rng);
        for _ in 0..1000 {
            g.step(&mut rng, 10.0);
            assert!(g.power_kw >= 0.0 && g.power_kw <= g.rating_kw);
            assert!((215.0..=245.0).contains(&g.voltage_v));
            assert!((49.5..=50.5).contains(&g.frequency_hz));
        }
        assert!(g.energy_kwh > 0.0);
        assert_eq!(g.seq, 1000);
    }

    #[test]
    fn narada_payload_shape() {
        let mut rng = SimRng::new(2);
        let g = GeneratorState::new(42, &mut rng);
        let m = g.narada_message(1, SimTime::ZERO, 1);
        let wire::Body::Map(map) = m.body() else {
            panic!("map message")
        };
        let count = |t: wire::ValueType| map.values().filter(|v| v.value_type() == t).count();
        assert_eq!(count(wire::ValueType::Int), 2);
        assert_eq!(count(wire::ValueType::Float), 5);
        assert_eq!(count(wire::ValueType::Long), 2);
        assert_eq!(count(wire::ValueType::Double), 3);
        assert_eq!(count(wire::ValueType::Str), 4);
        assert_eq!(m.property("id"), Some(&Value::Int(42)));
        assert_eq!(map.get("site"), Some(&Value::Str("site-0042".into())));
        // The paper's selector matches.
        let sel = jms::Selector::compile(PAPER_SELECTOR).unwrap();
        assert!(sel.matches(&m));
    }

    #[test]
    fn a_reading_is_built_in_name_order() {
        let mut rng = SimRng::new(6);
        let mut g = GeneratorState::new(1234, &mut rng);
        g.step(&mut rng, 10.0);
        let fields = g.reading_fields(0);
        assert!(
            fields.windows(2).all(|w| w[0].0 < w[1].0),
            "a field out of name order makes every reading pay a sort"
        );
        let m = g.narada_message(1, SimTime::ZERO, 1);
        let wire::Body::Map(map) = m.body() else {
            panic!("map message")
        };
        // Each value sits under its own name: the schema listed by type,
        // collected through the sort.
        let by_type: wire::ValueMap = [
            ("gen_id", Value::Int(g.id as i32)),
            ("status", Value::Int(i32::from(g.online))),
            ("voltage", Value::Float(g.voltage_v as f32)),
            ("frequency", Value::Float(g.frequency_hz as f32)),
            (
                "current",
                Value::Float((g.power_kw * 1000.0 / g.voltage_v) as f32),
            ),
            ("temp_c", Value::Float(35.5)),
            ("wind_ms", Value::Float(7.25)),
            ("seq", Value::Long(g.seq as i64)),
            ("uptime_s", Value::Long((g.seq * 10) as i64)),
            ("power_kw", Value::Double(g.power_kw)),
            ("energy_kwh", Value::Double(g.energy_kwh)),
            ("rating_kw", Value::Double(g.rating_kw)),
            ("site", Value::Str(g.site())),
            ("operator", Value::Str("gridcc".into())),
            ("model", Value::Str("WT-2000/E".into())),
            ("fw", Value::Str("v1.1.3".into())),
        ]
        .into_iter()
        .collect();
        assert_eq!(map, &by_type);
    }

    #[test]
    fn triple_payload_triples_size() {
        let mut rng = SimRng::new(3);
        let g = GeneratorState::new(1, &mut rng);
        let single = g.narada_message(1, SimTime::ZERO, 1).wire_size();
        let triple = g.narada_message(1, SimTime::ZERO, 3).wire_size();
        assert!(triple > 2 * single, "triple {triple} vs single {single}");
        assert!(triple < 4 * single);
    }

    #[test]
    fn rgma_row_fits_the_paper_table() {
        let mut rng = SimRng::new(4);
        let mut g = GeneratorState::new(9, &mut rng);
        g.step(&mut rng, 10.0);
        let mut cat = minisql::Catalog::new();
        let schema = cat.create(&minisql::parse(TABLE_SQL).unwrap()).unwrap();
        let (row, _) = g.rgma_insert();
        assert_eq!(schema.check_row(&row), Ok(()));
        // 4 int + 8 double + 4 char(20), as in the paper.
        let count = |t: wire::ValueType| row.iter().filter(|v| v.value_type() == t).count();
        assert_eq!(count(wire::ValueType::Int), 4);
        assert_eq!(count(wire::ValueType::Double), 8);
        assert_eq!(count(wire::ValueType::Char), 4);
        assert_eq!(row[12], Value::fixed_char("site-0009", 20));
    }

    #[test]
    fn deterministic_for_seed() {
        let make = |seed| {
            let mut rng = SimRng::new(seed);
            let mut g = GeneratorState::new(1, &mut rng);
            for _ in 0..10 {
                g.step(&mut rng, 10.0);
            }
            (g.power_kw, g.voltage_v, g.energy_kwh)
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }
}
