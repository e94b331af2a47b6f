//! User operations over HTTP — a search, a PE write, one whole job — with
//! their timing, output checks and (in the traced run) spans and request
//! capture.

use crate::inputs::{prime_line, primes_upto, search_body, Mode, PeSpec, USER};
use crate::stats::Samples;
use crate::trace::{Class, Tracer};
use laminar_json::{jobj, Value};
use laminar_server::api::Method;
use laminar_server::http::http_call;
use laminar_server::ApiRequest;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Long-poll park per events request.
pub const WAIT_MS: u64 = 10_000;

/// A job that has not sealed after this long fails the run.
const JOB_GIVE_UP: Duration = Duration::from_secs(60);

/// Failure messages kept for the report.
const KEEP_MESSAGES: usize = 8;

/// What kind of HTTP request a capture is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Search(Mode),
    PeAdd,
    PeRemove,
    Submit,
    Events,
    Result,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Search(_) => "search",
            Kind::PeAdd => "pe_add",
            Kind::PeRemove => "pe_remove",
            Kind::Submit => "submit",
            Kind::Events => "events",
            Kind::Result => "result",
        }
    }
}

/// One request of the traced pass, kept for the layer-down replays.
#[derive(Debug, Clone)]
pub struct Captured {
    pub op: u64,
    pub kind: Kind,
    pub request: ApiRequest,
    pub rtt_us: f64,
    pub response: Value,
}

/// What one client thread measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// User operations started.
    pub attempted: u64,
    /// Operations that failed or were refused (transport error, 4xx, 5xx).
    pub failed: u64,
    /// Operations completed: when, and how many input items (numbers
    /// tested, sentences counted) each carried; zero for non-jobs.
    pub done: Vec<(Instant, u64)>,
    /// HTTP requests made for user operations.
    pub requests: u64,
    pub search_us: Samples,
    pub write_us: Samples,
    pub job_ms: Samples,
    pub first_event_ms: Samples,
    /// Open loop only: how late the generator sent each submit.
    pub lateness_ms: Samples,
    pub events_per_page: Samples,
    /// Output checks that failed (wrong output, lost event, simulated cost).
    pub check_failures: u64,
    /// Indexed searches compared hit-for-hit against the scan oracle.
    pub scan_checks: u64,
    pub messages: Vec<String>,
    pub captured: Vec<Captured>,
}

impl Recorder {
    pub fn merge(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done.extend(other.done);
        self.requests += other.requests;
        self.search_us.extend(other.search_us);
        self.write_us.extend(other.write_us);
        self.job_ms.extend(other.job_ms);
        self.first_event_ms.extend(other.first_event_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.events_per_page.extend(other.events_per_page);
        self.check_failures += other.check_failures;
        self.scan_checks += other.scan_checks;
        for m in other.messages {
            self.note(m);
        }
        self.captured.extend(other.captured);
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < KEEP_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn complete(&mut self, items: u64) {
        self.done.push((Instant::now(), items));
    }

    pub fn ops(&self) -> u64 {
        self.done.len() as u64
    }

    pub fn items(&self) -> u64 {
        self.done.iter().map(|d| d.1).sum()
    }

    pub fn fail_op(&mut self, message: String) {
        self.failed += 1;
        self.note(format!("failed op: {message}"));
    }

    pub fn fail_check(&mut self, message: String) {
        self.check_failures += 1;
        self.note(format!("check: {message}"));
    }
}

/// Keeps PE writes out of a scan-oracle comparison: writers share the
/// gate, a comparing search holds it alone, so the indexed search and
/// its scan repeat see the same corpus. Write latency is timed after
/// the gate is taken.
#[derive(Default)]
pub struct WriteGate(RwLock<()>);

/// One client thread's connection to the server under test.
pub struct Client<'a> {
    addr: SocketAddr,
    tracer: Option<&'a Tracer>,
    pub rec: Recorder,
}

impl<'a> Client<'a> {
    pub fn new(addr: SocketAddr, tracer: Option<&'a Tracer>) -> Client<'a> {
        Client { addr, tracer, rec: Recorder::default() }
    }

    /// Start an operation: its root span id (0 when untraced).
    pub fn begin_op(&mut self) -> u64 {
        self.rec.attempted += 1;
        self.tracer.map_or(0, Tracer::new_id)
    }

    fn end_op(&self, op: u64, name: &str, start: Instant) {
        if let Some(t) = self.tracer {
            t.record(op, 0, name, Class::Client, t.at(start), t.at(Instant::now()));
        }
    }

    /// One HTTP request; `Err` on a transport error or a non-2xx status.
    pub fn call(
        &mut self,
        op: u64,
        kind: Kind,
        method: Method,
        path: String,
        body: Value,
    ) -> Result<Value, String> {
        let request = ApiRequest::new(method, path, body);
        let t0 = Instant::now();
        let response = http_call(self.addr, &request);
        let t1 = Instant::now();
        self.rec.requests += 1;
        let response = match response {
            Ok(r) if r.is_ok() => r,
            Ok(r) => {
                return Err(format!(
                    "{} {} -> {} {}",
                    method.as_str(),
                    request.path,
                    r.status,
                    laminar_json::to_string(&r.body)
                ))
            }
            Err(e) => return Err(format!("{} {} -> transport: {e}", method.as_str(), request.path)),
        };
        if let Some(t) = self.tracer {
            let span = t.record(op, op, kind.name(), Class::Client, t.at(t0), t.at(t1));
            if let Kind::Search(_) = kind {
                let b = &response.body;
                let us = |f: &str| b[f].as_i64().unwrap_or(0) as f64;
                let search =
                    t.record(op, span, "search_us", Class::Reported, t.at(t0), t.at(t0) + us("search_us"));
                t.reported(op, search, t.at(t0), &[("embed_us", us("embed_us")), ("rank_us", us("rank_us"))]);
            }
            let rtt_us = (t1 - t0).as_secs_f64() * 1e6;
            self.rec.captured.push(Captured { op, kind, request, rtt_us, response: response.body.clone() });
        }
        Ok(response.body)
    }

    /// One registry search. A `scan_check`ed search is repeated with
    /// `forceScan`, PE writes held off, and must return identical hits.
    pub fn search(&mut self, mode: Mode, query: &str, scan_check: bool, gate: &WriteGate) {
        let _alone = scan_check.then(|| gate.0.write().expect("write gate poisoned by a panicking client"));
        let op = self.begin_op();
        let path = format!("/registry/{USER}/search/{query}/type/{}", mode.wire().0);
        let t0 = Instant::now();
        let hits =
            match self.call(op, Kind::Search(mode), Method::Get, path.clone(), search_body(mode, false)) {
                Ok(body) => body["hits"].clone(),
                Err(e) => return self.rec.fail_op(e),
            };
        self.rec.search_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.rec.complete(0);
        self.end_op(op, "search", t0);
        if mode != Mode::Text && hits.as_array().is_none_or(|h| h.is_empty()) {
            self.rec.fail_check(format!("{} search '{query}' returned no hits", mode.name()));
        }
        if !scan_check {
            return;
        }
        match http_call(self.addr, &ApiRequest::new(Method::Get, path, search_body(mode, true))) {
            Ok(r) if r.is_ok() => {
                self.rec.scan_checks += 1;
                if r.body["hits"] != hits {
                    self.rec.fail_check(format!("{} search '{query}': index and scan disagree", mode.name()));
                }
            }
            other => self.rec.fail_check(format!("scan oracle request failed: {other:?}")),
        }
    }

    /// Register a PE; checks the summariser ran exactly when no
    /// description was given.
    pub fn register(&mut self, pe: &PeSpec, gate: &WriteGate) -> bool {
        let op = self.begin_op();
        let mut body = jobj! { "code" => pe.source.as_str() };
        if let Some(d) = &pe.description {
            body.set("description", d.as_str());
        }
        let shared = gate.0.read().expect("write gate poisoned by a panicking client");
        let t0 = Instant::now();
        let r = self.call(op, Kind::PeAdd, Method::Post, format!("/registry/{USER}/pe/add"), body);
        let elapsed = t0.elapsed();
        drop(shared);
        match r {
            Ok(v) => {
                self.rec.write_us.push(elapsed.as_secs_f64() * 1e6);
                self.rec.complete(0);
                self.end_op(op, "pe_add", t0);
                let described = v["description"].as_str().is_some_and(|d| !d.is_empty());
                if v["peName"].as_str() != Some(pe.name.as_str())
                    || v["auto"].as_bool() != Some(pe.description.is_none())
                    || !described
                {
                    self.rec.fail_check(format!(
                        "register {} answered {}",
                        pe.name,
                        laminar_json::to_string(&v)
                    ));
                }
                true
            }
            Err(e) => {
                self.rec.fail_op(e);
                false
            }
        }
    }

    /// Remove a PE by name.
    pub fn remove(&mut self, name: &str, gate: &WriteGate) {
        let op = self.begin_op();
        let shared = gate.0.read().expect("write gate poisoned by a panicking client");
        let t0 = Instant::now();
        let r = self.call(
            op,
            Kind::PeRemove,
            Method::Delete,
            format!("/registry/{USER}/pe/remove/name/{name}"),
            Value::Null,
        );
        let elapsed = t0.elapsed();
        drop(shared);
        match r {
            Ok(_) => {
                self.rec.write_us.push(elapsed.as_secs_f64() * 1e6);
                self.rec.complete(0);
                self.end_op(op, "pe_remove", t0);
            }
            Err(e) => self.rec.fail_op(e),
        }
    }

    /// Submit a job; its id, or `None` after recording the failure.
    pub fn submit(&mut self, op: u64, user: &str, body: Value) -> Option<i64> {
        match self.call(op, Kind::Submit, Method::Post, format!("/execution/{user}/submit"), body) {
            Ok(v) => v["jobId"].as_i64(),
            Err(e) => {
                self.rec.fail_op(e);
                None
            }
        }
    }

    /// Drain a submitted job's event stream by long-poll, fetch its
    /// result, and check both against `expect`. Latencies run from `t0`:
    /// the submit's send time in a closed loop, its due time in an open
    /// loop.
    pub fn finish(&mut self, op: u64, user: &str, id: i64, expect: &Expect, t0: Instant) {
        let mut since = 0u64;
        let mut first_event = None;
        let mut fold = Fold::default();
        let mut last_type = String::new();
        loop {
            let path = format!("/execution/{user}/job/{id}/events?since={since}&wait_ms={WAIT_MS}");
            let page = match self.call(op, Kind::Events, Method::Get, path, Value::Null) {
                Ok(p) => p,
                Err(e) => return self.rec.fail_op(e),
            };
            let received = Instant::now();
            if page["first"].as_i64().unwrap_or(0) as u64 > since || !page["retained_epoch"].is_null() {
                self.rec.fail_check(format!("job {id}: events evicted before delivery at seq {since}"));
            }
            let events = page["events"].as_array().unwrap_or(&[]);
            self.rec.events_per_page.push(events.len() as f64);
            for e in events {
                if e["seq"].as_i64() != Some(since as i64) {
                    self.rec.fail_check(format!("job {id}: seq gap at {since}: {:?}", e["seq"]));
                }
                since += 1;
                let ty = e["type"].as_str().unwrap_or("");
                if matches!(ty, "output" | "print") && first_event.is_none() {
                    first_event = Some(received);
                }
                fold.add(e);
                last_type = ty.to_string();
            }
            if page["closed"].as_bool() == Some(true) {
                break;
            }
            if t0.elapsed() > JOB_GIVE_UP {
                return self.rec.fail_op(format!("job {id} did not seal within {JOB_GIVE_UP:?}"));
            }
        }
        let result = match self.call(
            op,
            Kind::Result,
            Method::Get,
            format!("/execution/{user}/job/{id}/result"),
            Value::Null,
        ) {
            Ok(r) => r,
            Err(e) => return self.rec.fail_op(e),
        };
        let done = Instant::now();
        self.rec.job_ms.push((done - t0).as_secs_f64() * 1e3);
        match first_event {
            Some(t) => self.rec.first_event_ms.push((t - t0).as_secs_f64() * 1e3),
            None => self.rec.fail_check(format!("job {id}: stream carried no output")),
        }
        self.rec.complete(expect.items());
        if let Some(t) = self.tracer {
            t.record(op, 0, "job", Class::Client, t.at(t0), t.at(done));
            let us = |f: &str| result[f].as_i64().unwrap_or(0) as f64;
            let stages = ["queue_us", "compile_us", "plan_us", "enact_us", "collect_us"].map(|f| (f, us(f)));
            t.reported(op, op, t.at(t0), &stages);
        }
        if let Err(m) = check_job(&result, &fold, &last_type, expect) {
            self.rec.fail_check(format!("job {id}: {m}"));
        }
    }
}

/// What a job must produce.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// IsPrime over `1..=n`: prints the primes up to `n`, in order.
    Primes(i64),
    /// WordCount over `n` sentences: final counts equal
    /// `wordcount::reference_counts(n)`.
    WordCount(i64),
}

impl Expect {
    pub fn items(&self) -> u64 {
        match *self {
            Expect::Primes(n) | Expect::WordCount(n) => n as u64,
        }
    }
}

/// The client-side fold of a streamed job.
#[derive(Default)]
struct Fold {
    printed: Vec<String>,
    counts: BTreeMap<String, i64>,
}

impl Fold {
    fn add(&mut self, e: &Value) {
        match e["type"].as_str() {
            Some("print") => self.printed.push(e["line"].as_str().unwrap_or("").to_string()),
            Some("output") => add_count(&mut self.counts, &e["value"]),
            _ => {}
        }
    }
}

/// WordCount emits `[word, running count]`; the final count is the max.
fn add_count(counts: &mut BTreeMap<String, i64>, v: &Value) {
    if let (Some(w), Some(n)) = (v[0].as_str(), v[1].as_i64()) {
        let c = counts.entry(w.to_string()).or_insert(0);
        *c = (*c).max(n);
    }
}

fn check_job(result: &Value, fold: &Fold, last_type: &str, expect: &Expect) -> Result<(), String> {
    if result["status"].as_str() != Some("done") {
        return Err(format!("status {:?}", result["status"]));
    }
    if last_type != "done" {
        return Err(format!("stream sealed with '{last_type}', not 'done'"));
    }
    // Simulated costs stay off: no provisioning, no library installs.
    if result["provision_ms"].as_i64() != Some(0)
        || result["installed"].as_array().is_none_or(|a| !a.is_empty())
    {
        return Err(format!(
            "simulated cost in result: provision_ms {:?}, installed {:?}",
            result["provision_ms"], result["installed"]
        ));
    }
    match *expect {
        Expect::Primes(n) => {
            let want: Vec<String> = primes_upto(n).into_iter().map(prime_line).collect();
            let printed: Vec<String> = result["printed"]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .map(|p| p.as_str().unwrap_or("").to_string())
                .collect();
            if fold.printed != want || printed != want {
                return Err(format!(
                    "primes <= {n}: streamed {} lines, result {} lines, want {}",
                    fold.printed.len(),
                    printed.len(),
                    want.len()
                ));
            }
        }
        Expect::WordCount(n) => {
            let want = laminar_workloads::wordcount::reference_counts(n as usize);
            let mut from_result = BTreeMap::new();
            for v in result["outputs"]["CountWords.output"].as_array().unwrap_or(&[]) {
                add_count(&mut from_result, v);
            }
            if fold.counts != want || from_result != want {
                return Err(format!("word counts over {n} sentences differ from the reference"));
            }
        }
    }
    Ok(())
}

/// The IsPrime job body: `n` numbers, SIMPLE, events on.
pub fn isprime_body(n: i64) -> Value {
    jobj! {
        "source" => laminar_workloads::isprime::SOURCE_SEQUENTIAL,
        "workflow" => "IsPrime",
        "input" => n,
        "mapping" => "SIMPLE",
        "processes" => 1,
        "options" => jobj! { "events" => true }
    }
}
