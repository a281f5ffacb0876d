//! Microbenchmarks of the substrate hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simcore::{ActorId, EventQueue, SimRng, SimTime};
use wire::{Headers, Message, MessageId, Value};

fn sample_message() -> Message {
    Message::map(
        Headers::new(MessageId(7), "power.monitor", SimTime::from_secs(1)),
        [
            ("gen_id".to_string(), Value::Int(42)),
            ("power_kw".to_string(), Value::Double(812.5)),
            ("voltage".to_string(), Value::Float(229.7)),
            ("seq".to_string(), Value::Long(1234)),
            ("site".to_string(), Value::Str("site-0042".into())),
        ],
    )
    .with_property("id", 42i32)
    .with_property("region", "uk")
}

fn bench_selector(c: &mut Criterion) {
    let mut g = c.benchmark_group("selector");
    g.bench_function("parse_simple", |b| {
        b.iter(|| jms::selector::parse(black_box("id<10000")).unwrap())
    });
    g.bench_function("parse_complex", |b| {
        b.iter(|| {
            jms::selector::parse(black_box(
                "(gen_id BETWEEN 0 AND 750 AND region IN ('uk','ie')) OR \
                 (power_kw > 1000.0 AND site LIKE 'hydra%')",
            ))
            .unwrap()
        })
    });
    let msg = sample_message();
    let simple = jms::Selector::compile("id < 10000").unwrap();
    let complex = jms::Selector::compile(
        "(id BETWEEN 0 AND 750 AND region IN ('uk','ie')) OR site LIKE 'hydra%'",
    )
    .unwrap();
    g.bench_function("eval_simple", |b| {
        b.iter(|| simple.matches(black_box(&msg)))
    });
    g.bench_function("eval_complex", |b| {
        b.iter(|| complex.matches(black_box(&msg)))
    });
    g.finish();
}

fn bench_minisql(c: &mut Criterion) {
    let mut g = c.benchmark_group("minisql");
    // The statement the paper's driver sends: 16 columns, one reading.
    let mut rng = simcore::SimRng::new(4);
    let mut gen = powergrid::GeneratorState::new(42, &mut rng);
    gen.step(&mut rng, 10.0);
    let insert = gen.rgma_insert_sql();
    let insert = insert.as_str();
    g.bench_function("parse_insert", |b| {
        b.iter(|| minisql::parse(black_box(insert)).unwrap())
    });
    let mut cat = minisql::Catalog::new();
    cat.create(&minisql::parse(powergrid::TABLE_SQL).unwrap())
        .unwrap();
    let schema = cat.table("generator").unwrap().clone();
    let minisql::Statement::Insert {
        columns, values, ..
    } = minisql::parse(insert).unwrap()
    else {
        unreachable!()
    };
    g.bench_function("normalize_insert", |b| {
        b.iter(|| {
            schema
                .normalize_insert(black_box(&columns), black_box(&values))
                .unwrap()
        })
    });
    // What the producer servlet runs: both steps in one pass.
    g.bench_function("bind_insert", |b| {
        b.iter(|| cat.bind_insert(black_box(insert)).unwrap().1)
    });
    let row = schema.normalize_insert(&columns, &values).unwrap();
    let minisql::Statement::Select { predicate, .. } =
        minisql::parse("SELECT * FROM generator WHERE id < 100 AND power > 500.0").unwrap()
    else {
        unreachable!()
    };
    let pred = predicate.unwrap();
    g.bench_function("eval_predicate", |b| {
        b.iter(|| minisql::eval_predicate(black_box(&pred), &schema, black_box(&row)))
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let msg = sample_message();
    g.bench_function("encode_message", |b| {
        b.iter(|| wire::encode_message(black_box(&msg)))
    });
    let bytes = wire::encode_message(&msg);
    g.bench_function("decode_message", |b| {
        b.iter(|| wire::decode_message(black_box(bytes.clone())).unwrap())
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.bench_function("record_1k", |b| {
        b.iter(|| {
            let mut h = telemetry::LatencyHistogram::new();
            for i in 0..1000u64 {
                h.record(black_box(i * 37 % 100_000));
            }
            h
        })
    });
    let mut h = telemetry::LatencyHistogram::new();
    for i in 0..100_000u64 {
        h.record(i * 37 % 5_000_000);
    }
    g.bench_function("quantile", |b| b.iter(|| h.quantile(black_box(0.99))));
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(1);
            let target = ActorId::from_index(0);
            for _ in 0..10_000 {
                q.schedule(
                    SimTime::from_micros(rng.next_u64() % 1_000_000),
                    target,
                    Box::new(()),
                );
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    let msg = sample_message();
    for subs in [1usize, 100, 1000] {
        let mut engine = narada::MatchingEngine::new();
        for i in 0..subs {
            engine.subscribe(
                "power.monitor",
                simnet_conn(i as u32),
                0,
                jms::Selector::compile("id < 10000").unwrap(),
                jms::AckMode::Auto,
            );
        }
        g.bench_function(format!("match_{subs}_subs"), |b| {
            b.iter(|| engine.match_message(black_box("power.monitor"), black_box(&msg)))
        });
    }
    g.finish();
}

fn simnet_conn(n: u32) -> simnet::ConnId {
    simnet::ConnId(n)
}

criterion_group!(
    benches,
    bench_selector,
    bench_minisql,
    bench_codec,
    bench_histogram,
    bench_event_queue,
    bench_matching
);
criterion_main!(benches);
