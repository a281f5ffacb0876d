//! Layers pass: one public function per layer timed from outside, in
//! ns per operation. Fixed operation counts sized so the five batches of
//! a row take 0.15 s or more together; the row reports their median.
//! Inputs are built outside the timed region.

use crate::metrics::median;
use crate::spans::{SpanId, Spans};
use gridmon_core::calibration;
use powergrid::PAPER_SELECTOR;
use simcore::{
    Actor, ActorId, Context, EventQueue, NullActor, Payload, SimDuration, SimRng, SimTime,
    Simulation,
};
use simnet::{ConnId, Endpoint, NetworkFabric, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};
use telemetry::{LatencyHistogram, ProbeId, RttCollector};
use wire::{Headers, Message, MessageId, Tuple, Value};

const BATCHES: usize = 5;

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

/// Median ns/op over [`BATCHES`] batches; `batch` sets up untimed and
/// returns the time its `ops` operations took.
fn ns_per_op(ops: u64, mut batch: impl FnMut() -> Duration) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / ops as f64)
        .collect();
    median(&per_op)
}

/// Median ns per call of `call(i)`, for `i` in `0..calls` per batch.
fn per_call(calls: u64, mut call: impl FnMut(u64)) -> f64 {
    ns_per_op(calls, || timed(|| (0..calls).for_each(&mut call)))
}

/// The reading every contender carries (five typed cells + two
/// properties), as `powergrid` builds it.
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

fn sample_tuple() -> Tuple {
    Tuple::new(
        "generator",
        vec![
            Value::Int(42),
            Value::Int(1),
            Value::Double(812.503),
            Value::Str("site-0042".into()),
        ],
    )
}

/// Sends `frames` frames over `conn` in one callback; the kernel then
/// dispatches each delivery to the peer.
struct Blaster {
    conn: ConnId,
    from: Endpoint,
    frames: u64,
}

impl Actor for Blaster {
    fn handle(&mut self, _msg: Payload, ctx: &mut Context<'_>) {
        let (conn, from) = (self.conn, self.from);
        ctx.with_service::<NetworkFabric, _>(|net, ctx| {
            for _ in 0..self.frames {
                net.send(ctx, conn, from, 200, Box::new(()));
            }
        });
    }
}

type Rows = Vec<(&'static str, f64)>;

/// Rows that consume their inputs build them a chunk at a time and sum
/// the timed parts, so a batch never holds more than a chunk of them.
const CHUNK: u64 = 50_000;
const CHUNKS: u64 = 6;

fn simcore_rows() -> Rows {
    const N: u64 = 300_000;
    let queue = ns_per_op(2 * N, || {
        let mut rng = SimRng::new(1);
        let times: Vec<SimTime> = (0..N)
            .map(|_| SimTime::from_micros(rng.next_u64() % 1_000_000))
            .collect();
        let target = ActorId::from_index(0);
        let mut q = EventQueue::new();
        timed(|| {
            for at in times {
                q.schedule(at, target, Box::new(()));
            }
            while let Some(ev) = q.pop() {
                black_box(ev);
            }
        })
    });
    // Queue pop + dispatch into a callback that does nothing.
    let dispatch = ns_per_op(N, || {
        let mut sim = Simulation::new(1);
        let sink = sim.add_actor(NullActor);
        for i in 0..N {
            sim.schedule(SimDuration::from_micros(i), sink, Box::new(()));
        }
        timed(|| {
            sim.run_to_completion(u64::MAX);
        })
    });
    vec![
        ("simcore.queue_ns_per_op", queue),
        ("simcore.noop_dispatch_ns_per_event", dispatch),
    ]
}

/// One frame = fabric send (segmentation, NIC FIFO, delivery
/// scheduling) + the dispatch of its delivery to a no-op peer.
fn simnet_rows() -> Rows {
    const N: u64 = 100_000;
    let send = ns_per_op(N, || {
        let mut sim = Simulation::new(1);
        let mut os = simos::OsModel::new();
        let a = os.add_node(calibration::hydra_client("a"));
        let b = os.add_node(calibration::hydra_server("b"));
        let sink = sim.add_actor(NullActor);
        let sender = ActorId::from_index(sink.index() + 1);
        let from = Endpoint::new(a, sender);
        let mut net = NetworkFabric::new(calibration::hydra_fabric(), 2);
        let conn = net.open(SimTime::ZERO, Transport::Tcp, from, Endpoint::new(b, sink));
        sim.add_service(net);
        let id = sim.add_actor(Blaster {
            conn,
            from,
            frames: N,
        });
        assert_eq!(id, sender, "actor ids are handed out in order");
        sim.schedule(SimDuration::from_secs(1), sender, Box::new(()));
        timed(|| {
            sim.run_to_completion(u64::MAX);
        })
    });
    vec![("simnet.fabric_send_ns", send)]
}

fn simos_rows() -> Rows {
    const N: u64 = 3_000_000;
    let execute = ns_per_op(N, || {
        let mut os = simos::OsModel::new();
        let node = os.add_node(calibration::hydra_server("hydra1"));
        let cost = SimDuration::from_micros(50);
        timed(|| {
            for i in 0..N {
                black_box(os.execute_metered(node, SimTime::from_micros(i * 100), cost));
            }
        })
    });
    vec![("simos.execute_metered_ns", execute)]
}

fn wire_rows() -> Rows {
    let msg = sample_message();
    let bytes = wire::encode_message(&msg);
    let encode = per_call(200_000, |_| {
        black_box(wire::encode_message(black_box(&msg)));
    });
    let decode = per_call(50_000, |_| {
        black_box(wire::decode_message(black_box(bytes.clone())).unwrap());
    });
    vec![("wire.encode_ns", encode), ("wire.decode_ns", decode)]
}

fn jms_rows() -> Rows {
    let msg = sample_message();
    let selector = jms::Selector::compile(PAPER_SELECTOR).unwrap();
    let compile = per_call(200_000, |_| {
        black_box(jms::Selector::compile(black_box(PAPER_SELECTOR)).unwrap());
    });
    let eval = per_call(2_000_000, |_| {
        black_box(selector.matches(black_box(&msg)));
    });
    vec![
        ("jms.selector_compile_ns", compile),
        ("jms.selector_eval_ns", eval),
    ]
}

fn minisql_rows() -> Rows {
    const INSERT: &str = "INSERT INTO generator (id, status, power, site) \
                          VALUES (42, 1, 812.503, 'site-0042')";
    let mut cat = minisql::Catalog::new();
    cat.create(
        &minisql::parse(
            "CREATE TABLE generator (id INTEGER, status INTEGER, power DOUBLE, site CHAR(20))",
        )
        .unwrap(),
    )
    .unwrap();
    let schema = cat.table("generator").unwrap().clone();
    let minisql::Statement::Insert {
        columns, values, ..
    } = minisql::parse(INSERT).unwrap()
    else {
        unreachable!("INSERT parses to Statement::Insert")
    };
    let row = schema.normalize_insert(&columns, &values).unwrap();
    let minisql::Statement::Select { predicate, .. } =
        minisql::parse("SELECT * FROM generator WHERE id < 100 AND power > 500.0").unwrap()
    else {
        unreachable!("SELECT parses to Statement::Select")
    };
    let pred = predicate.unwrap();
    let parse = per_call(50_000, |_| {
        black_box(minisql::parse(black_box(INSERT)).unwrap());
    });
    let normalize = per_call(300_000, |_| {
        black_box(
            schema
                .normalize_insert(black_box(&columns), black_box(&values))
                .unwrap(),
        );
    });
    let eval = per_call(1_000_000, |_| {
        black_box(minisql::eval_predicate(
            black_box(&pred),
            &schema,
            black_box(&row),
        ));
    });
    vec![
        ("minisql.parse_insert_ns", parse),
        ("minisql.normalize_insert_ns", normalize),
        ("minisql.eval_predicate_ns", eval),
    ]
}

fn narada_rows() -> Rows {
    let msg = sample_message();
    let mut engine = narada::MatchingEngine::new();
    for i in 0..1000u32 {
        engine.subscribe(
            "power.monitor",
            ConnId(i),
            0,
            jms::Selector::compile(PAPER_SELECTOR).unwrap(),
            jms::AckMode::Auto,
        );
    }
    let matching = per_call(2_000, |_| {
        black_box(engine.match_message(black_box("power.monitor"), black_box(&msg)));
    });
    vec![("narada.match_1000_subs_ns", matching)]
}

fn rgma_rows() -> Rows {
    let new_store =
        || rgma::MemoryStorage::new(SimDuration::from_secs(30), SimDuration::from_secs(60));
    let insert = ns_per_op(CHUNKS * CHUNK, || {
        let mut store = new_store();
        (0..CHUNKS)
            .map(|_| {
                let tuples: Vec<Tuple> = (0..CHUNK).map(|_| sample_tuple()).collect();
                timed(|| {
                    for (i, t) in tuples.into_iter().enumerate() {
                        let i = i as u64;
                        black_box(store.insert(t, ProbeId(i), SimTime::from_micros(i)));
                    }
                })
            })
            .sum()
    });
    // The continuous-query read path: a stream one tuple behind the tail.
    let mut store = new_store();
    for i in 0..1000u64 {
        store.insert(sample_tuple(), ProbeId(i), SimTime::from_micros(i));
    }
    let cursor = store.tail_cursor() - 1;
    let read = per_call(5_000_000, |_| {
        black_box(store.read_from(black_box(cursor)));
    });
    vec![
        ("rgma.storage_insert_ns", insert),
        ("rgma.storage_read_ns", read),
    ]
}

fn gridlog_rows() -> Rows {
    const FETCH: u64 = 64;
    const FETCHES: u64 = 1_000;
    let msg = sample_message();
    let segment_records = gridlog::GridlogConfig::default().segment_records;
    let record = |i: u64| gridlog::StoredRecord {
        probe: ProbeId(i),
        key: i as u32,
        message: msg.clone(),
    };
    let append = ns_per_op(CHUNKS * CHUNK, || {
        let mut log = gridlog::PartitionLog::new(segment_records);
        (0..CHUNKS)
            .map(|_| {
                let records: Vec<gridlog::StoredRecord> = (0..CHUNK).map(record).collect();
                timed(|| {
                    for r in records {
                        black_box(log.append(r));
                    }
                })
            })
            .sum()
    });
    let mut log = gridlog::PartitionLog::new(segment_records);
    for i in 0..CHUNK {
        log.append(record(i));
    }
    // Per fetched record: a fetch clones each record into its response.
    let read = per_call(FETCHES, |i| {
        black_box(log.read_from(black_box(i * 37 % (CHUNK - FETCH)), FETCH as usize));
    }) / FETCH as f64;
    vec![
        ("gridlog.log_append_ns", append),
        ("gridlog.log_read_ns", read),
    ]
}

fn telemetry_rows() -> Rows {
    const RECORDS: u64 = 5_000_000;
    const PROBES: u64 = 200_000;
    let record = ns_per_op(RECORDS, || {
        let mut h = LatencyHistogram::new();
        let d = timed(|| {
            for i in 0..RECORDS {
                h.record(black_box(i * 37 % 5_000_000));
            }
        });
        black_box(h);
        d
    });
    // One probe = the four instants a delivered reading records.
    let fill = |c: &mut RttCollector| {
        for i in 0..PROBES {
            let t = SimTime::from_micros(i * 10);
            let id = c.before_sending((i % 800) as u32, t);
            c.after_sending(id, t + SimDuration::from_micros(100));
            c.before_receiving(id, t + SimDuration::from_micros(4_000));
            c.after_receiving(id, t + SimDuration::from_micros(5_000 + i % 997));
        }
    };
    let probe = ns_per_op(PROBES, || {
        let mut c = RttCollector::new();
        let d = timed(|| fill(&mut c));
        black_box(c);
        d
    });
    let mut c = RttCollector::new();
    fill(&mut c);
    let summary = per_call(4, |_| {
        black_box(c.summary());
    }) / PROBES as f64;
    vec![
        ("telemetry.histogram_record_ns", record),
        ("telemetry.rtt_probe_ns", probe),
        ("telemetry.rtt_summary_ns_per_probe", summary),
    ]
}

/// Every row of the pass, one span per layer.
pub fn run(spans: &mut Spans, parent: SpanId) -> Rows {
    type Layer = (&'static str, fn() -> Rows);
    const LAYERS: [Layer; 10] = [
        ("layers.simcore", simcore_rows),
        ("layers.simnet", simnet_rows),
        ("layers.simos", simos_rows),
        ("layers.wire", wire_rows),
        ("layers.jms", jms_rows),
        ("layers.minisql", minisql_rows),
        ("layers.narada", narada_rows),
        ("layers.rgma", rgma_rows),
        ("layers.gridlog", gridlog_rows),
        ("layers.telemetry", telemetry_rows),
    ];
    let mut rows = Rows::new();
    for (layer, measure) in LAYERS {
        spans.time(layer, Some(parent), |_, _| rows.extend(measure()));
    }
    rows
}
