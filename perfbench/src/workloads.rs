//! The three traffic mixes. Each drives the live server over HTTP until
//! its deadline and returns what its clients measured.

use crate::deploy::WORDCOUNT;
use crate::inputs::{pe_spec, query, Mode, Rng, USER};
use crate::ops::{isprime_body, Client, Expect, Recorder, WriteGate};
use crate::trace::Tracer;
use laminar_json::{jobj, Value};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    BulkStream,
    OpenArrival,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Interactive, Workload::BulkStream, Workload::OpenArrival];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::BulkStream => "bulk_stream",
            Workload::OpenArrival => "open_arrival",
        }
    }

    /// Drive the mix for `run` and return the merged measurements.
    pub fn drive(self, addr: SocketAddr, seed: u64, run: Duration, tracer: Option<&Tracer>) -> Measured {
        let t0 = Instant::now();
        let rec = match self {
            Workload::Interactive => interactive(addr, seed, t0 + run, tracer),
            Workload::BulkStream => bulk_stream(addr, seed, t0 + run, tracer),
            Workload::OpenArrival => open_arrival(addr, seed, t0, run, tracer),
        };
        Measured { rec, elapsed: t0.elapsed() }
    }
}

/// A workload's merged measurements and the wall time they took (the
/// last operations finish after the deadline).
pub struct Measured {
    pub rec: Recorder,
    pub elapsed: Duration,
}

// ---- interactive -----------------------------------------------------------

/// Closed-loop registry users.
pub const INTERACTIVE_CLIENTS: usize = 2;
/// Every k-th step writes: a register, or the removal of this client's
/// last registered PE, so the corpus size stays constant.
pub const WRITE_EVERY: u64 = 2;
/// One search in this many is repeated against the scan oracle.
pub const SCAN_CHECK_EVERY: u64 = 50;
/// IsPrime job size: `n` numbers, `n` uniform in this range.
pub const INTERACTIVE_N: (i64, i64) = (190, 210);

fn interactive(addr: SocketAddr, seed: u64, deadline: Instant, tracer: Option<&Tracer>) -> Recorder {
    let gate = WriteGate::default();
    let mut rec = Recorder::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..INTERACTIVE_CLIENTS)
            .map(|c| {
                let gate = &gate;
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
                    let mut client = Client::new(addr, tracer);
                    let mut pending: Option<String> = None;
                    let mut step = 0u64;
                    while Instant::now() < deadline {
                        interactive_step(&mut client, &mut rng, c, step, &mut pending, gate);
                        step += 1;
                    }
                    // Put the corpus back as it was; not a measured operation.
                    if let Some(name) = pending {
                        let mut cleanup = Client::new(addr, None);
                        cleanup.remove(&name, gate);
                        client.rec.failed += cleanup.rec.failed;
                        client.rec.messages.extend(cleanup.rec.messages);
                    }
                    client.rec
                })
            })
            .collect();
        for h in handles {
            rec.merge(h.join().expect("interactive client panicked"));
        }
    });
    rec
}

/// One step of an interactive user: three searches, one small streamed
/// job, and every [`WRITE_EVERY`]-th step a PE write.
pub fn interactive_step(
    client: &mut Client,
    rng: &mut Rng,
    client_id: usize,
    step: u64,
    pending: &mut Option<String>,
    gate: &WriteGate,
) {
    for mode in Mode::ALL {
        let q = query(rng, mode);
        let check = rng.below(SCAN_CHECK_EVERY) == 0;
        client.search(mode, &q, check, gate);
    }
    let n = rng.range(INTERACTIVE_N.0, INTERACTIVE_N.1);
    let op = client.begin_op();
    let t0 = Instant::now();
    if let Some(id) = client.submit(op, USER, isprime_body(n)) {
        client.finish(op, USER, id, &Expect::Primes(n), t0);
    }
    if step % WRITE_EVERY == WRITE_EVERY - 1 {
        match pending.take() {
            Some(name) => client.remove(&name, gate),
            None => {
                // Half the writes carry no description: the summariser runs.
                let described = rng.below(2) == 0;
                let pe = pe_spec(rng, &format!("L{client_id}x{step}"), described);
                if client.register(&pe, gate) {
                    *pending = Some(pe.name);
                }
            }
        }
    }
}

// ---- bulk_stream -----------------------------------------------------------

/// Mappings the bulk client cycles through, two processes each.
pub const BULK_MAPPINGS: [&str; 4] = ["SIMPLE", "MULTI", "MPI", "REDIS"];
/// WordCount job size in sentences, uniform in this range (~0.5 s a job).
pub const BULK_N: (i64, i64) = (3900, 4100);
/// Epoch interval: checkpointed jobs get the horizon event log, which
/// throttles the producer instead of dropping events for a live reader.
pub const BULK_CHECKPOINT_EVERY: i64 = 500;

pub fn wordcount_body(n: i64, mapping: &str) -> Value {
    jobj! {
        "workflow" => WORDCOUNT,
        "input" => n,
        "mapping" => mapping,
        "processes" => 2,
        "options" => jobj! { "events" => true, "checkpointEvery" => BULK_CHECKPOINT_EVERY }
    }
}

fn bulk_stream(addr: SocketAddr, seed: u64, deadline: Instant, tracer: Option<&Tracer>) -> Recorder {
    let mut rng = Rng::new(seed.wrapping_mul(37).wrapping_add(5));
    let mut client = Client::new(addr, tracer);
    let mut job = rng.below(BULK_MAPPINGS.len() as u64) as usize;
    while Instant::now() < deadline {
        bulk_job(&mut client, &mut rng, BULK_MAPPINGS[job % BULK_MAPPINGS.len()]);
        job += 1;
    }
    client.rec
}

fn bulk_job(client: &mut Client, rng: &mut Rng, mapping: &str) {
    let n = rng.range(BULK_N.0, BULK_N.1);
    let op = client.begin_op();
    let t0 = Instant::now();
    if let Some(id) = client.submit(op, USER, wordcount_body(n, mapping)) {
        client.finish(op, USER, id, &Expect::WordCount(n), t0);
    }
}

// ---- open_arrival ----------------------------------------------------------

/// Tenants the generator submits for, round-robin.
pub const OPEN_TENANTS: usize = 16;
/// Fixed arrival rate, jobs per second. IsPrime jobs over ~1000 numbers
/// saturate at ~430 jobs/s on a 2-vCPU machine, but that machine's
/// speed swings by ±30% within a minute, and at half capacity a slow
/// spell pushed the queue into saturation (median latency 5 → 60 ms
/// between runs). This rate with the smaller jobs below keeps a queue
/// forming behind the 4 workers without tipping over.
pub const OPEN_RATE_PER_S: f64 = 100.0;
/// IsPrime job size for the open loop: ~2 ms of compute.
pub const OPEN_N: (i64, i64) = (600, 800);

pub fn tenant(i: u64) -> String {
    format!("tenant{:02}", i % OPEN_TENANTS as u64)
}

struct Submitted {
    op: u64,
    user: String,
    id: i64,
    n: i64,
    due: Instant,
}

fn open_arrival(
    addr: SocketAddr,
    seed: u64,
    t0: Instant,
    run: Duration,
    tracer: Option<&Tracer>,
) -> Recorder {
    let (tx, rx) = mpsc::channel::<Submitted>();
    let mut rec = Recorder::default();
    std::thread::scope(|s| {
        let poller = s.spawn(move || {
            let mut client = Client::new(addr, tracer);
            for job in rx {
                client.finish(job.op, &job.user, job.id, &Expect::Primes(job.n), job.due);
            }
            client.rec
        });
        let mut rng = Rng::new(seed.wrapping_mul(41).wrapping_add(7));
        let mut client = Client::new(addr, tracer);
        for i in 0u64.. {
            let due = t0 + Duration::from_secs_f64(i as f64 / OPEN_RATE_PER_S);
            if due >= t0 + run {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            client.rec.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let n = rng.range(OPEN_N.0, OPEN_N.1);
            let user = tenant(i);
            let op = client.begin_op();
            if let Some(id) = client.submit(op, &user, isprime_body(n)) {
                tx.send(Submitted { op, user, id, n, due }).expect("poller outlives the generator");
            }
        }
        drop(tx);
        rec.merge(client.rec);
        rec.merge(poller.join().expect("open-loop poller panicked"));
    });
    rec
}
