//! The traced run: per-layer metrics.
//!
//! One set-up, then an untraced pass and a traced pass of the same
//! workload and seed on the same server. The traced pass records spans
//! and captures its requests; afterwards the benchmark replays them
//! layer by layer on an in-process replica seeded identically:
//! `LaminarServer::handle`, `Registry`, the embedding models, the
//! summariser, `EnginePool`, `ExecutionEngine::run`, `Mapping::execute`
//! and the json codec. Request kinds the workload never issues (the
//! registry calls of the two job workloads) are replayed from a seeded
//! probe set of the interactive users' requests, so every layer metric
//! exists for every workload and reads as that layer's cost on this
//! corpus.

use crate::deploy::{self, WORDCOUNT};
use crate::inputs::{pe_spec, query, search_body, Mode, Rng, USER};
use crate::ops::{Captured, Kind, WAIT_MS};
use crate::stats::Samples;
use crate::trace::{Class, Tracer};
use crate::workloads::{
    Measured, Workload, BULK_CHECKPOINT_EVERY, BULK_MAPPINGS, BULK_N, INTERACTIVE_N, OPEN_N,
};
use crate::{context, measure, metric, set_up, verdict, Config, Metric, Outcome};
use laminar_dataflow::{MappingKind, RunEvent, RunObserver, RunOptions, WorkflowGraph};
use laminar_embed::{model_by_name, summarize_pe_source};
use laminar_engine::{ExecutionEngine, ExecutionRequest, JobResult};
use laminar_json::{jobj, Value};
use laminar_registry::service::EntityKey;
use laminar_server::api::Method;
use laminar_server::{ApiRequest, LaminarServer};
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Every per-layer metric, in report order.
pub const METRIC_NAMES: [&str; 46] = [
    "http.overhead_p50_us",
    "http.overhead_p99_us",
    "http.requests_per_op",
    "server.handle_p50_us.search",
    "server.handle_p50_us.pe_add",
    "server.handle_p50_us.pe_remove",
    "server.handle_p50_us.submit",
    "server.handle_p50_us.events",
    "server.handle_p50_us.result",
    "registry.search_p50_us.semantic",
    "registry.search_p50_us.code",
    "registry.search_p50_us.text",
    "registry.search_p99_us.semantic",
    "registry.search_p99_us.code",
    "registry.search_p99_us.text",
    "registry.embed_mean_us.semantic",
    "registry.embed_mean_us.code",
    "registry.rank_p50_us.semantic",
    "registry.rank_p50_us.code",
    "registry.rank_p50_us.text",
    "registry.write_p50_us.register",
    "registry.write_p50_us.remove",
    "embed.text_p50_us",
    "embed.code_p50_us",
    "embed.summarize_p50_us",
    "engine.pool.submit_p50_us",
    "engine.pool.queue_wait_p50_ms",
    "engine.pool.queue_wait_p99_ms",
    "engine.pool.page_wait_p50_us",
    "engine.pool.events_per_page",
    "engine.pool.rejected",
    "engine.pool.failed",
    "engine.overhead_p50_us",
    "script.compile_mean_us",
    "dataflow.plan_p50_us",
    "dataflow.collect_mean_us",
    "dataflow.items_per_s.simple",
    "dataflow.items_per_s.multi",
    "dataflow.items_per_s.mpi",
    "dataflow.items_per_s.redis",
    "dataflow.first_output_ms",
    "json.result_bytes",
    "json.result_ser_ms",
    "json.result_parse_ms",
    "trace.overhead",
    "trace.unattributed",
];

/// `(metric, sample bag, percentile, unit)` for every metric read
/// straight from a bag the replays fill.
const FROM_BAGS: [(&str, &str, f64, &str); 36] = [
    ("http.overhead_p50_us", "http.overhead", 50.0, "us"),
    ("http.overhead_p99_us", "http.overhead", 99.0, "us"),
    ("server.handle_p50_us.search", "server.handle.search", 50.0, "us"),
    ("server.handle_p50_us.pe_add", "server.handle.pe_add", 50.0, "us"),
    ("server.handle_p50_us.pe_remove", "server.handle.pe_remove", 50.0, "us"),
    ("server.handle_p50_us.submit", "server.handle.submit", 50.0, "us"),
    ("server.handle_p50_us.events", "server.handle.events", 50.0, "us"),
    ("server.handle_p50_us.result", "server.handle.result", 50.0, "us"),
    ("registry.search_p50_us.semantic", "registry.search.semantic", 50.0, "us"),
    ("registry.search_p50_us.code", "registry.search.code", 50.0, "us"),
    ("registry.search_p50_us.text", "registry.search.text", 50.0, "us"),
    ("registry.search_p99_us.semantic", "registry.search.semantic", 99.0, "us"),
    ("registry.search_p99_us.code", "registry.search.code", 99.0, "us"),
    ("registry.search_p99_us.text", "registry.search.text", 99.0, "us"),
    ("registry.rank_p50_us.semantic", "registry.rank.semantic", 50.0, "us"),
    ("registry.rank_p50_us.code", "registry.rank.code", 50.0, "us"),
    ("registry.rank_p50_us.text", "registry.rank.text", 50.0, "us"),
    ("registry.write_p50_us.register", "registry.write.register", 50.0, "us"),
    ("registry.write_p50_us.remove", "registry.write.remove", 50.0, "us"),
    ("embed.text_p50_us", "embed.text", 50.0, "us"),
    ("embed.code_p50_us", "embed.code", 50.0, "us"),
    ("embed.summarize_p50_us", "embed.summarize", 50.0, "us"),
    ("engine.pool.submit_p50_us", "engine.pool.submit", 50.0, "us"),
    ("engine.pool.queue_wait_p50_ms", "engine.pool.queue_wait", 50.0, "ms"),
    ("engine.pool.queue_wait_p99_ms", "engine.pool.queue_wait", 99.0, "ms"),
    ("engine.pool.page_wait_p50_us", "engine.pool.page_wait", 50.0, "us"),
    ("engine.overhead_p50_us", "engine.overhead", 50.0, "us"),
    ("dataflow.plan_p50_us", "dataflow.plan", 50.0, "us"),
    ("dataflow.items_per_s.simple", "dataflow.items_per_s.simple", 50.0, "1/s"),
    ("dataflow.items_per_s.multi", "dataflow.items_per_s.multi", 50.0, "1/s"),
    ("dataflow.items_per_s.mpi", "dataflow.items_per_s.mpi", 50.0, "1/s"),
    ("dataflow.items_per_s.redis", "dataflow.items_per_s.redis", 50.0, "1/s"),
    ("dataflow.first_output_ms", "dataflow.first_output", 50.0, "ms"),
    ("json.result_bytes", "json.result_bytes", 50.0, "bytes"),
    ("json.result_ser_ms", "json.result_ser", 50.0, "ms"),
    ("json.result_parse_ms", "json.result_parse", 50.0, "ms"),
];

/// Replays per search mode, PE writes, and jobs (per workload).
const SEARCH_REPLAYS: usize = 400;
const WRITE_REPLAYS: usize = 200;
/// Probe requests for kinds the workload never issues.
const PROBES: usize = 200;

fn job_replays(w: Workload) -> usize {
    match w {
        Workload::BulkStream => 8,
        _ => 200,
    }
}

fn engine_replays(w: Workload) -> usize {
    match w {
        Workload::BulkStream => 4,
        _ => 60,
    }
}

/// `k` items spread evenly over `items`.
fn evenly<T: Clone>(items: &[T], k: usize) -> Vec<T> {
    if items.len() <= k {
        return items.to_vec();
    }
    (0..k).map(|i| items[i * items.len() / k].clone()).collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f`, returning its value and elapsed microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, us(t.elapsed()))
}

/// Named sample bags filled by the replays.
#[derive(Default)]
struct Bags(BTreeMap<String, Samples>);

impl Bags {
    fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    fn mean(&mut self, name: &str) -> (f64, usize) {
        let s = self.0.entry(name.to_string()).or_default();
        (s.sum() / s.len().max(1) as f64, s.len())
    }

    fn pct(&mut self, name: &str, p: f64) -> (f64, usize) {
        let s = self.0.entry(name.to_string()).or_default();
        (s.pct(p), s.len())
    }
}

/// Requests to replay: a live capture, or a probe (no live round trip).
struct Replay {
    op: u64,
    request: ApiRequest,
    live_rtt_us: Option<f64>,
}

impl Replay {
    fn live(c: &Captured) -> Replay {
        Replay { op: c.op, request: c.request.clone(), live_rtt_us: Some(c.rtt_us) }
    }

    fn probe(request: ApiRequest) -> Replay {
        Replay { op: 0, request, live_rtt_us: None }
    }
}

/// The replica plus where replay spans go.
struct Replayer<'a> {
    replica: LaminarServer,
    tracer: &'a Tracer,
    bags: Bags,
    problems: Vec<String>,
}

impl Replayer<'_> {
    /// `LaminarServer::handle` on the replica; pairs the time with the
    /// live round trip of the same request for the HTTP overhead.
    fn handle(&mut self, r: &Replay, kind: &str) -> Value {
        let t0 = Instant::now();
        let response = self.replica.handle(&r.request);
        let t1 = Instant::now();
        let d = us(t1 - t0);
        self.bags.push(&format!("server.handle.{kind}"), d);
        if let Some(rtt) = r.live_rtt_us {
            self.bags.push("http.overhead", rtt - d);
        }
        self.span(r.op, &format!("replay.server.handle.{kind}"), t0, t1);
        if !response.is_ok() {
            self.problems.push(format!(
                "replica {kind}: {} {}",
                response.status,
                laminar_json::to_string(&response.body)
            ));
        }
        response.body
    }

    fn span(&self, op: u64, name: &str, t0: Instant, t1: Instant) {
        if op != 0 {
            self.tracer.record(op, op, name, Class::Replay, self.tracer.at(t0), self.tracer.at(t1));
        }
    }
}

fn captured_of(captured: &[Captured], kind: Kind) -> Vec<&Captured> {
    captured.iter().filter(|c| c.kind == kind).collect()
}

fn search_request(mode: Mode, q: &str) -> ApiRequest {
    ApiRequest::new(
        Method::Get,
        format!("/registry/{USER}/search/{q}/type/{}", mode.wire().0),
        search_body(mode, false),
    )
}

fn search_query(req: &ApiRequest) -> String {
    req.segments().get(3).map(|s| s.to_string()).unwrap_or_default()
}

fn replay_searches(r: &mut Replayer, captured: &[Captured], seed: u64) {
    let search_model = model_by_name("unixcoder-code-search").expect("model exists");
    let completion_model = model_by_name("ReACC-retriever-py").expect("model exists");
    let mut rng = Rng::new(seed ^ 0x5EA2C4);
    for mode in Mode::ALL {
        let live = captured_of(captured, Kind::Search(mode));
        // Program-reported timings come from every live response.
        for c in &live {
            reported_search(&mut r.bags, mode, &c.response);
        }
        let replays: Vec<Replay> = if live.is_empty() {
            (0..PROBES).map(|_| Replay::probe(search_request(mode, &query(&mut rng, mode)))).collect()
        } else {
            evenly(&live, SEARCH_REPLAYS).into_iter().map(Replay::live).collect()
        };
        for rp in &replays {
            let body = r.handle(rp, "search");
            if live.is_empty() {
                reported_search(&mut r.bags, mode, &body);
            }
            let q = search_query(&rp.request);
            match mode {
                Mode::Semantic => r.bags.push("embed.text", timed(|| search_model.embed_text(&q)).1),
                Mode::Code => r.bags.push("embed.code", timed(|| completion_model.embed_code(&q)).1),
                Mode::Text => {}
            }
        }
    }
}

fn reported_search(bags: &mut Bags, mode: Mode, body: &Value) {
    let f = |k: &str| body[k].as_i64().unwrap_or(0) as f64;
    bags.push(&format!("registry.search.{}", mode.name()), f("search_us"));
    bags.push(&format!("registry.rank.{}", mode.name()), f("rank_us"));
    if mode != Mode::Text {
        bags.push(&format!("registry.embed.{}", mode.name()), f("embed_us"));
    }
}

fn replay_writes(r: &mut Replayer, captured: &[Captured], seed: u64) {
    let removes: HashMap<String, &Captured> = captured_of(captured, Kind::PeRemove)
        .into_iter()
        .filter_map(|c| c.request.segments().last().map(|n| (n.to_string(), c)))
        .collect();
    let live = captured_of(captured, Kind::PeAdd);
    let adds: Vec<Replay> = if live.is_empty() {
        let mut rng = Rng::new(seed ^ 0xD0_0D);
        (0..PROBES)
            .map(|i| {
                let pe = pe_spec(&mut rng, &format!("P{i}"), i % 2 == 0);
                let mut body = jobj! { "code" => pe.source.as_str() };
                if let Some(d) = &pe.description {
                    body.set("description", d.as_str());
                }
                Replay::probe(ApiRequest::new(Method::Post, format!("/registry/{USER}/pe/add"), body))
            })
            .collect()
    } else {
        evenly(&live, WRITE_REPLAYS).into_iter().map(Replay::live).collect()
    };
    for add in &adds {
        let added = r.handle(add, "pe_add");
        let name = added["peName"].as_str().unwrap_or("").to_string();
        let remove = match removes.get(&name) {
            Some(c) => Replay::live(c),
            None => Replay::probe(ApiRequest::new(
                Method::Delete,
                format!("/registry/{USER}/pe/remove/name/{name}"),
                Value::Null,
            )),
        };
        r.handle(&remove, "pe_remove");
        // The registry layer itself, then the summariser alone.
        let code = add.request.body["code"].as_str().unwrap_or("").to_string();
        let description = add.request.body["description"].as_str().map(str::to_string);
        let registry = r.replica.registry_mut();
        let (reg, t) = timed(|| registry.register_pe(USER, &code, description.as_deref()));
        r.bags.push("registry.write.register", t);
        let (rm, t) = timed(|| registry.remove_pe(USER, &EntityKey::Name(name.clone())));
        r.bags.push("registry.write.remove", t);
        if let Err(e) = reg.and(rm) {
            r.problems.push(format!("replica registry write {name}: {e}"));
        }
        r.bags.push("embed.summarize", timed(|| summarize_pe_source(&code)).1);
    }
}

/// The execution request a captured submit body describes, with the
/// registered workflow's source filled in.
fn execution_request(body: &Value, user: &str) -> Option<ExecutionRequest> {
    let mut body = body.clone();
    body.set("user", user);
    if body["source"].is_null() && body["workflow"].as_str() == Some(WORDCOUNT) {
        body.set("source", laminar_workloads::wordcount::SOURCE);
    }
    ExecutionRequest::from_value(&body)
}

fn replay_jobs(r: &mut Replayer, captured: &[Captured], w: Workload) {
    let results: HashMap<u64, &Captured> =
        captured_of(captured, Kind::Result).into_iter().map(|c| (c.op, c)).collect();
    let submits = captured_of(captured, Kind::Submit);
    for (i, submit) in evenly(&submits, job_replays(w)).into_iter().enumerate() {
        let user = submit.request.segments().get(1).map(|s| s.to_string()).unwrap_or_default();
        let Some(req) = execution_request(&submit.request.body, &user) else {
            r.problems.push("captured submit body does not parse".into());
            continue;
        };
        // Alternate: half through the server's handler, half straight
        // into the pool, so both layers get samples from one replay each.
        let id = if i % 2 == 0 {
            r.handle(&Replay::live(submit), "submit")["jobId"].as_i64()
        } else {
            let (id, t) = timed(|| r.replica.pool().submit(&user, req.clone()));
            r.bags.push("engine.pool.submit", t);
            id.ok()
        };
        let Some(id) = id else {
            r.problems.push("replica refused a replayed job".into());
            continue;
        };
        // Drain the stream as the live client does (a checkpointed job's
        // producer waits for its reader), timing each page.
        let mut since = 0;
        loop {
            let (page, t) =
                timed(|| r.replica.pool().events_wait(&user, id, since, Duration::from_millis(WAIT_MS)));
            r.bags.push("engine.pool.page_wait", t);
            match page {
                Some(page) if !page.closed => since = page.next,
                Some(_) => break,
                None => {
                    r.problems.push(format!("replayed job {id} has no event log"));
                    break;
                }
            }
        }
        if !matches!(r.replica.pool().wait(&user, id, Duration::from_secs(60)), Some(JobResult::Done(..))) {
            r.problems.push(format!("replayed job {id} did not finish"));
        }
        let events =
            ApiRequest::new(Method::Get, format!("/execution/{user}/job/{id}/events?since=0"), Value::Null);
        r.handle(&Replay { op: submit.op, request: events, live_rtt_us: None }, "events");
        let result = ApiRequest::new(Method::Get, format!("/execution/{user}/job/{id}/result"), Value::Null);
        let live_rtt_us = results.get(&submit.op).map(|c| c.rtt_us);
        r.handle(&Replay { op: submit.op, request: result, live_rtt_us }, "result");
        if i < engine_replays(w) {
            let mut engine = ExecutionEngine::instant();
            let t0 = Instant::now();
            match engine.run(&req) {
                Ok(out) => {
                    let s = out.stages;
                    let inside = s.plan + s.compile + s.enact + s.collect;
                    r.bags.push("engine.overhead", us(out.total_time.saturating_sub(inside)));
                }
                Err(e) => r.problems.push(format!("engine replay: {e}")),
            }
            r.span(submit.op, "replay.engine.run", t0, Instant::now());
        }
    }
}

/// Timings the program reports on every live job result, and the json
/// codec on those same bodies.
fn reported_jobs(bags: &mut Bags, captured: &[Captured]) {
    let results = captured_of(captured, Kind::Result);
    for c in &results {
        let f = |k: &str| c.response[k].as_i64().unwrap_or(0) as f64;
        bags.push("engine.pool.queue_wait", f("queue_us") / 1e3);
        bags.push("script.compile", f("compile_us"));
        bags.push("dataflow.plan", f("plan_us"));
        bags.push("dataflow.collect", f("collect_us"));
    }
    for c in evenly(&results, 50) {
        let (text, t) = timed(|| laminar_json::to_string(&c.response));
        bags.push("json.result_ser", t / 1e3);
        bags.push("json.result_bytes", text.len() as f64);
        let (parsed, t) = timed(|| laminar_json::parse(&text));
        bags.push("json.result_parse", t / 1e3);
        std::hint::black_box(parsed.ok());
    }
}

/// Stamps the first data event of an enactment.
struct FirstData(OnceLock<Instant>);

impl RunObserver for FirstData {
    fn on_event(&self, _seq: u64, event: &RunEvent) {
        if matches!(event, RunEvent::Output { .. } | RunEvent::Print { .. }) {
            self.0.get_or_init(Instant::now);
        }
    }
}

/// The workload's job graph under each mapping, no server.
fn replay_dataflow(bags: &mut Bags, w: Workload, problems: &mut Vec<String>) {
    let (source, workflow, n, reps, checkpoint) = match w {
        Workload::BulkStream => (
            laminar_workloads::wordcount::SOURCE,
            "WordCount",
            (BULK_N.0 + BULK_N.1) / 2,
            1,
            BULK_CHECKPOINT_EVERY,
        ),
        Workload::Interactive => (
            laminar_workloads::isprime::SOURCE_SEQUENTIAL,
            "IsPrime",
            (INTERACTIVE_N.0 + INTERACTIVE_N.1) / 2,
            20,
            0,
        ),
        Workload::OpenArrival => {
            (laminar_workloads::isprime::SOURCE_SEQUENTIAL, "IsPrime", (OPEN_N.0 + OPEN_N.1) / 2, 10, 0)
        }
    };
    let graph = match WorkflowGraph::from_script(source, workflow) {
        Ok(g) => g,
        Err(e) => return problems.push(format!("graph: {e}")),
    };
    for name in BULK_MAPPINGS {
        let kind = MappingKind::parse(name).expect("known mapping");
        let processes = if kind == MappingKind::Simple { 1 } else { 2 };
        for _ in 0..reps {
            let mut options = RunOptions::iterations(n).with_processes(processes);
            options.checkpoint_every = checkpoint as usize;
            let observer = std::sync::Arc::new(FirstData(OnceLock::new()));
            let t0 = Instant::now();
            match kind.build().execute_observed(&graph, &options, Some(observer.clone())) {
                Ok(_) => {
                    let secs = t0.elapsed().as_secs_f64();
                    bags.push(&format!("dataflow.items_per_s.{}", name.to_lowercase()), n as f64 / secs);
                    if let Some(t) = observer.0.get() {
                        bags.push("dataflow.first_output", (*t - t0).as_secs_f64() * 1e3);
                    }
                }
                Err(e) => problems.push(format!("{name}: {e}")),
            }
        }
    }
}

/// Per-layer metrics from the replays and the two passes.
fn per_layer(
    cfg: &Config,
    traced: &mut Measured,
    plain: &mut Measured,
    tracer: &Tracer,
    pool: (i64, i64),
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let captured = std::mem::take(&mut traced.rec.captured);
    let mut r = Replayer {
        replica: deploy::build_server(cfg.seed)?,
        tracer,
        bags: Bags::default(),
        problems: Vec::new(),
    };
    replay_searches(&mut r, &captured, cfg.seed);
    replay_writes(&mut r, &captured, cfg.seed);
    replay_jobs(&mut r, &captured, cfg.workload);
    let Replayer { bags: mut b, mut problems, .. } = r;
    reported_jobs(&mut b, &captured);
    replay_dataflow(&mut b, cfg.workload, &mut problems);

    let rec = &mut traced.rec;
    let mut out: Vec<Metric> = FROM_BAGS
        .iter()
        .map(|&(name, bag, pct, unit)| {
            let (v, n) = b.pct(bag, pct);
            metric(name, v, unit, format!("p{pct}, n={n}"))
        })
        .collect();
    // The program reports these in whole microseconds and they are a
    // few microseconds long, so a percentile would read the same integer
    // on every run; the mean keeps the sub-microsecond signal.
    for (name, bag) in [
        ("registry.embed_mean_us.semantic", "registry.embed.semantic"),
        ("registry.embed_mean_us.code", "registry.embed.code"),
        ("script.compile_mean_us", "script.compile"),
        ("dataflow.collect_mean_us", "dataflow.collect"),
    ] {
        let (mean, n) = b.mean(bag);
        out.push(metric(name, mean, "us", format!("mean, n={n}")));
    }
    let per_op = rec.requests as f64 / rec.ops().max(1) as f64;
    out.push(metric(
        "http.requests_per_op",
        per_op,
        "ratio",
        format!("{} requests, {} ops", rec.requests, rec.ops()),
    ));
    let pages = &mut rec.events_per_page;
    out.push(metric(
        "engine.pool.events_per_page",
        pages.median(),
        "count",
        format!("p50, n={}", pages.len()),
    ));
    out.push(metric("engine.pool.rejected", pool.0 as f64, "count", "pool stats delta".into()));
    out.push(metric("engine.pool.failed", pool.1 as f64, "count", "pool stats delta".into()));
    let (traced_p50, plain_p50) = (rec.job_ms.median(), plain.rec.job_ms.median());
    out.push(metric(
        "trace.overhead",
        traced_p50 / plain_p50 - 1.0,
        "ratio",
        format!("job p50 traced {traced_p50:.3} ms vs untraced {plain_p50:.3} ms"),
    ));
    let spans = tracer.spans().len();
    out.push(metric(
        "trace.unattributed",
        tracer.unattributed(),
        "ratio",
        format!("share of root time, {spans} spans"),
    ));
    let order: HashMap<&str, usize> = METRIC_NAMES.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    out.sort_by_key(|m| order.get(m.name.as_str()).copied().unwrap_or(usize::MAX));
    Ok((out, problems))
}

/// Where the traced run writes its spans.
fn trace_path(cfg: &Config) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "trace-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ))
}

pub fn traced_run(cfg: &Config) -> Result<Outcome, String> {
    // The run length is split between the untraced and the traced pass,
    // so a traced run measures as long as an untraced one.
    let half = cfg.run / 2;
    let http = set_up(cfg.workload, cfg.seed)?;
    let (mut plain, b0, a0) = measure(cfg, half, &http, None)?;
    let tracer = Tracer::default();
    let (mut traced, b1, a1) = measure(cfg, half, &http, Some(&tracer))?;
    http.stop();
    let mut problems = verdict(cfg, &plain, b0, a0);
    problems.extend(verdict(cfg, &traced, b1, a1));
    let pool = (a1.rejected - b1.rejected, a1.pool_failed - b1.pool_failed);
    let (metrics, replay_problems) = per_layer(cfg, &mut traced, &mut plain, &tracer, pool)?;
    problems.extend(replay_problems);
    let path = trace_path(cfg);
    tracer.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut context = context(cfg, &mut traced, b1, a1);
    context.push(format!("spans written to {}", path.display()));
    context.extend(problems.iter().map(|p| format!("FAIL {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: plain.rec.attempted + traced.rec.attempted,
        failed: plain.rec.failed + traced.rec.failed,
        metrics,
        context,
    })
}
