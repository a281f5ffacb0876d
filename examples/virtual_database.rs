//! The R-GMA "virtual database" in action: the Grid looks like one big
//! relational database. Generators `INSERT` rows; clients run continuous,
//! latest, and history `SELECT`s — the three query flavours the paper
//! credits R-GMA for (§II.A, §V).
//!
//! ```sh
//! cargo run --release --example virtual_database
//! ```

use gridmon::minisql::fixed_literal;
use gridmon::rgma::{
    ConsumerControl, ConsumerServlet, ProducerControl, ProducerHandle, ProducerServlet, QueryType,
    RegistryActor, RgmaClientSet, RgmaConfig, RgmaEvent, RgmaTimer,
};
use gridmon::simcore::{uint_len, Actor, Context, Payload, SimDuration, SimTime, Simulation};
use gridmon::simnet::{Delivery, Endpoint, FabricConfig, NetworkFabric};
use gridmon::simos::{NodeSpec, OsModel, ProcessSpec, VmstatLog};
use gridmon::telemetry::RttCollector;
use gridmon::wire::Value;
use std::cell::RefCell;
use std::rc::Rc;

const TABLE_SQL: &str = "CREATE TABLE generator (\
    id INTEGER, power DOUBLE PRECISION, site CHAR(20))";

#[derive(Default)]
struct Results {
    continuous: usize,
    latest: Vec<String>,
    history: usize,
}

struct Db {
    producer_ep: Endpoint,
    consumer_ep: Endpoint,
    cfg: RgmaConfig,
    set: Option<RgmaClientSet>,
    producers: Vec<ProducerHandle>,
    results: Rc<RefCell<Results>>,
}

struct InsertTick(usize, u32);
struct RunQueries;

impl Actor for Db {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let mut set = RgmaClientSet::new(self.cfg.clone(), gridmon::simos::NodeId(1));
        // A continuous query with a content filter — "power > 700".
        set.create_subscriber(
            ctx,
            self.consumer_ep,
            "SELECT * FROM generator WHERE power > 700.0",
        );
        for _ in 0..4 {
            self.producers
                .push(set.create_producer(ctx, self.producer_ep, "generator"));
        }
        self.set = Some(set);
        ctx.timer(SimDuration::from_secs(45), RunQueries);
    }

    fn handle(&mut self, msg: Payload, ctx: &mut Context<'_>) {
        let set = self.set.as_mut().expect("started");
        let msg = match msg.downcast::<Delivery>() {
            Ok(d) => {
                for ev in set.handle_delivery(ctx, *d) {
                    match ev {
                        RgmaEvent::ProducerReady(h) => {
                            let ix = self.producers.iter().position(|&x| x == h).unwrap();
                            ctx.timer(SimDuration::from_secs(10), InsertTick(ix, 4));
                        }
                        RgmaEvent::Polled(_, n) => self.results.borrow_mut().continuous += n,
                        RgmaEvent::QueryCompleted(q, entries) => {
                            let mut r = self.results.borrow_mut();
                            if q.0 == 5 {
                                // Latest: format the rows.
                                for (_, t) in &entries {
                                    r.latest.push(
                                        t.values
                                            .iter()
                                            .map(ToString::to_string)
                                            .collect::<Vec<_>>()
                                            .join(", "),
                                    );
                                }
                            } else {
                                r.history = entries.len();
                            }
                        }
                        RgmaEvent::QueryFailed(_, e) => panic!("query failed: {e}"),
                        _ => {}
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RgmaTimer>() {
            Ok(t) => {
                set.handle_timer(ctx, *t);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InsertTick>() {
            Ok(t) => {
                let InsertTick(ix, remaining) = *t;
                if remaining == 0 {
                    return;
                }
                // Generator power ramps each period; half the fleet stays
                // below the continuous query's 700 kW filter.
                let power = if ix % 2 == 0 { 650.0 } else { 710.0 } + f64::from(remaining);
                // The row of `INSERT INTO generator (id, power, site)
                // VALUES (1, 714.0, 'site-1')`, with that text's length.
                let (power_len, power) = fixed_literal(power, 1);
                let row = [
                    Value::Int(ix as i32),
                    Value::Double(power),
                    Value::fixed_char(format!("site-{ix}"), 20),
                ];
                let sql_len = "INSERT INTO generator (id, power, site) VALUES (, , 'site-')".len()
                    + 2 * uint_len(ix as u64)
                    + power_len;
                set.insert(ctx, self.producers[ix], row, sql_len);
                ctx.timer(SimDuration::from_secs(8), InsertTick(ix, remaining - 1));
                return;
            }
            Err(m) => m,
        };
        if msg.downcast::<RunQueries>().is_ok() {
            println!(
                "t={:>5.1}s  issuing one-time LATEST and HISTORY queries…",
                ctx.now().as_secs_f64()
            );
            set.one_time_query(
                ctx,
                self.consumer_ep,
                "SELECT id, power FROM generator",
                QueryType::Latest,
            );
            set.one_time_query(
                ctx,
                self.consumer_ep,
                "SELECT * FROM generator",
                QueryType::History,
            );
        }
    }
}

fn main() {
    let mut sim = Simulation::new(7);
    let mut os = OsModel::new();
    let server = os.add_node(NodeSpec::hydra("hydra1", 0.0005));
    let client = os.add_node(NodeSpec::hydra("hydra2", 0.0001));
    let proc = os.add_process(server, ProcessSpec::jvm_1g());
    let _ = client;
    sim.add_service(os);
    sim.add_service(NetworkFabric::new(FabricConfig::default(), 2));
    sim.add_service(RttCollector::new());
    sim.add_service(VmstatLog::new());

    let cfg = RgmaConfig::glite_3_0();
    let reg = sim.add_actor(RegistryActor::new(server, proc));
    let reg_ep = Endpoint::new(server, reg);
    let prod = sim.add_actor(ProducerServlet::new(cfg.clone(), server, proc, reg_ep));
    let cons = sim.add_actor(ConsumerServlet::new(cfg.clone(), server, proc, reg_ep));
    sim.schedule(
        SimDuration::ZERO,
        prod,
        Box::new(ProducerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );
    sim.schedule(
        SimDuration::ZERO,
        cons,
        Box::new(ConsumerControl::DeclareTable {
            sql: TABLE_SQL.into(),
        }),
    );

    let results: Rc<RefCell<Results>> = Default::default();
    sim.add_actor(Db {
        producer_ep: Endpoint::new(server, prod),
        consumer_ep: Endpoint::new(server, cons),
        cfg,
        set: None,
        producers: Vec::new(),
        results: results.clone(),
    });

    sim.run_until(SimTime::from_secs(90));
    let r = results.borrow();
    println!("\n— virtual database results —");
    println!(
        "continuous query (power > 700): {} rows streamed to the subscriber",
        r.continuous
    );
    println!("latest query (one row per live producer):");
    for row in &r.latest {
        println!("  [{row}]");
    }
    println!(
        "history query: {} rows within the retention window",
        r.history
    );

    assert_eq!(r.latest.len(), 4, "one latest row per producer");
    assert!(r.continuous > 0 && r.continuous < r.history + r.latest.len() * 4);
    assert!(r.history >= r.latest.len());
}
