//! The repository benchmark: three traffic mixes against the Laminar
//! server over real TCP.
//!
//! An untraced run reports the end-to-end metrics; a traced run of the
//! same workload and seed reports the per-layer metrics (see
//! [`layers`]). Every run checks every output and fails on a mismatch,
//! a lost event or a simulated cost.

pub mod deploy;
pub mod inputs;
pub mod layers;
pub mod ops;
pub mod stats;
pub mod trace;
pub mod workloads;

use inputs::USER;
use laminar_json::Value;
use laminar_server::api::Method;
use laminar_server::http::http_call;
use laminar_server::{ApiRequest, HttpServer};
use ops::{isprime_body, Client, Expect, WriteGate};
use stats::{supports_tail, Samples};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use workloads::{Measured, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub run: Duration,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value: sample count and percentile used.
    pub note: String,
}

pub fn metric(name: &str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric { name: name.to_string(), value, unit, note }
}

/// One run's verdict and numbers.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub context: Vec<String>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::Null;
        for m in &self.metrics {
            let mut v = Value::Null;
            v.set("value", m.value).set("unit", m.unit);
            metrics.set(&m.name, v);
        }
        let mut out = Value::Null;
        out.set("correct", self.correct)
            .set("attempted", self.attempted as i64)
            .set("failed", self.failed as i64)
            .set("metrics", metrics);
        laminar_json::to_string(&out)
    }
}

fn get(addr: SocketAddr, path: &str) -> Result<Value, String> {
    match http_call(addr, &ApiRequest::new(Method::Get, path, Value::Null)) {
        Ok(r) if r.is_ok() => Ok(r.body),
        Ok(r) => Err(format!("GET {path} -> {}", r.status)),
        Err(e) => Err(format!("GET {path} -> {e}")),
    }
}

/// Pool counters (`rejected`, `failed`) and the registry's PE count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerCounts {
    pub rejected: i64,
    pub pool_failed: i64,
    pub pes: i64,
}

pub fn server_counts(addr: SocketAddr) -> Result<ServerCounts, String> {
    let pool = get(addr, "/execution/pool/stats")?;
    let registry = get(addr, "/registry/stats")?;
    Ok(ServerCounts {
        rejected: pool["rejected"].as_i64().unwrap_or(0) + pool["rate_limited"].as_i64().unwrap_or(0),
        pool_failed: pool["failed"].as_i64().unwrap_or(0),
        pes: registry["pes"].as_i64().unwrap_or(0),
    })
}

/// Start a seeded server and warm it with a few operations of the
/// workload's own kinds, so timing starts with caches filled.
pub fn set_up(workload: Workload, seed: u64) -> Result<HttpServer, String> {
    let http = deploy::start(seed)?;
    let addr = http.addr();
    let mut client = Client::new(addr, None);
    match workload {
        Workload::Interactive => {
            let gate = WriteGate::default();
            let mut rng = inputs::Rng::new(seed ^ 0xA11CE);
            let mut pending = None;
            for step in 0..8 {
                workloads::interactive_step(&mut client, &mut rng, 9, step, &mut pending, &gate);
            }
            if let Some(name) = pending {
                client.remove(&name, &gate);
            }
        }
        Workload::BulkStream => {
            for mapping in workloads::BULK_MAPPINGS {
                let op = client.begin_op();
                let t0 = Instant::now();
                if let Some(id) = client.submit(op, USER, workloads::wordcount_body(400, mapping)) {
                    client.finish(op, USER, id, &Expect::WordCount(400), t0);
                }
            }
        }
        Workload::OpenArrival => {
            for i in 0..workloads::OPEN_TENANTS as u64 {
                let op = client.begin_op();
                let t0 = Instant::now();
                let user = workloads::tenant(i);
                let n = workloads::OPEN_N.1;
                if let Some(id) = client.submit(op, &user, isprime_body(n)) {
                    client.finish(op, &user, id, &Expect::Primes(n), t0);
                }
            }
        }
    }
    let rec = client.rec;
    if rec.failed > 0 || rec.check_failures > 0 {
        return Err(format!("warm-up failed: {:?}", rec.messages));
    }
    Ok(http)
}

/// The end-to-end metrics of one measured pass: the ones the benchmark
/// gates on. Tails are printed beside them (see [`context`]) but not
/// gated: on a shared 2-vCPU host every tail from p75 up followed the
/// host's slow spells, moving by more than a quarter of its median
/// between runs, where these held.
pub fn end_to_end(m: &mut Measured, setup: &mut Samples) -> Vec<Metric> {
    let secs = m.elapsed.as_secs_f64();
    let rec = &mut m.rec;
    let (ops, items) = (rec.ops(), rec.items());
    vec![
        metric("setup_s", setup.median(), "s", format!("median of n={}", setup.len())),
        metric("ops_per_s", ops as f64 / secs, "1/s", format!("{ops} ops in {secs:.2} s")),
        metric("items_per_s", items as f64 / secs, "1/s", format!("{items} items in {secs:.2} s")),
        metric("job_p50_ms", rec.job_ms.median(), "ms", format!("n={}", rec.job_ms.len())),
        metric(
            "first_event_p50_ms",
            rec.first_event_ms.median(),
            "ms",
            format!("n={}", rec.first_event_ms.len()),
        ),
    ]
}

/// `name = value unit (p, n)` for a printed percentile, flagged when
/// fewer than ten samples lie beyond it.
fn pct_line(name: &str, s: &mut Samples, p: f64, unit: &str) -> String {
    let warn = if supports_tail(s.len(), p) { "" } else { ", fewer than 10 samples beyond" };
    format!("{name} = {} {unit} (p{p}, n={}{warn})", s.pct(p), s.len())
}

/// Workload-specific numbers printed beside the gated metrics.
pub(crate) fn context(
    cfg: &Config,
    m: &mut Measured,
    before: ServerCounts,
    after: ServerCounts,
) -> Vec<String> {
    let rec = &mut m.rec;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![format!(
        "workload {} seed {} run {:.1} s nproc {nproc} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.run.as_secs_f64(),
        cfg.trace as u8
    )];
    let error_rate = rec.failed as f64 / rec.attempted.max(1) as f64;
    lines.push(format!(
        "error_rate = {error_rate} ratio ({} failed of {} attempted)",
        rec.failed, rec.attempted
    ));
    lines.push(pct_line("job_p99_ms", &mut rec.job_ms, 99.0, "ms"));
    lines.push(pct_line("first_event_p99_ms", &mut rec.first_event_ms, 99.0, "ms"));
    match cfg.workload {
        Workload::Interactive => {
            for (name, s) in [("search", &mut rec.search_us), ("write", &mut rec.write_us)] {
                lines.push(pct_line(&format!("{name}_p50_us"), s, 50.0, "us"));
                lines.push(pct_line(&format!("{name}_p99_us"), s, 99.0, "us"));
            }
            lines.push(format!("corpus PEs at start {} and end {}", before.pes, after.pes));
            lines.push(format!("scan-oracle comparisons {}", rec.scan_checks));
        }
        Workload::OpenArrival => {
            let s = &mut rec.lateness_ms;
            lines.push(format!(
                "generator lateness p50 {:.3} ms p99 {:.3} ms max {:.3} ms (n={}, rate {} /s, {} tenants)",
                s.median(),
                s.pct(99.0),
                s.pct(100.0),
                s.len(),
                workloads::OPEN_RATE_PER_S,
                workloads::OPEN_TENANTS
            ));
        }
        Workload::BulkStream => {}
    }
    lines
}

/// Failed output checks and refused operations of a measured pass.
pub(crate) fn verdict(cfg: &Config, m: &Measured, before: ServerCounts, after: ServerCounts) -> Vec<String> {
    let mut problems = m.rec.messages.clone();
    if m.rec.check_failures > 0 {
        problems.push(format!("{} output checks failed", m.rec.check_failures));
    }
    if after.rejected != before.rejected || after.pool_failed != before.pool_failed {
        problems.push(format!("pool rejected or failed jobs: {before:?} -> {after:?}"));
    }
    if cfg.workload == Workload::Interactive && after.pes != before.pes {
        problems.push(format!("corpus size changed: {} -> {}", before.pes, after.pes));
    }
    if cfg.workload == Workload::Interactive && m.rec.scan_checks == 0 {
        problems.push("no search was compared against the scan oracle".into());
    }
    if m.rec.ops() == 0 {
        problems.push("no operation completed".into());
    }
    problems
}

/// One measured pass on a running server, with the server counters
/// read around it.
pub(crate) fn measure(
    cfg: &Config,
    run: Duration,
    http: &HttpServer,
    tracer: Option<&trace::Tracer>,
) -> Result<(Measured, ServerCounts, ServerCounts), String> {
    let before = server_counts(http.addr())?;
    let m = cfg.workload.drive(http.addr(), cfg.seed, run, tracer);
    let after = server_counts(http.addr())?;
    Ok((m, before, after))
}

/// Run one configuration: untraced → end-to-end metrics; traced →
/// per-layer metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        return layers::traced_run(cfg);
    }
    let mut setup = Samples::default();
    let mut http = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let server = set_up(cfg.workload, cfg.seed)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some(old) = http.replace(server) {
            HttpServer::stop(old);
        }
    }
    let http = http.expect("at least one set-up");
    let (mut m, before, after) = measure(cfg, cfg.run, &http, None)?;
    http.stop();
    let problems = verdict(cfg, &m, before, after);
    let mut context = context(cfg, &mut m, before, after);
    context.extend(problems.iter().map(|p| format!("FAIL {p}")));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: m.rec.attempted,
        failed: m.rec.failed,
        metrics: end_to_end(&mut m, &mut setup),
        context,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(workload: Workload, trace: bool) -> Outcome {
        let cfg = Config { workload, seed: 11, run: Duration::from_millis(1500), trace };
        run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    fn assert_clean(o: &Outcome, workload: Workload) {
        assert!(o.correct, "{}: {:?}", workload.name(), o.context);
        assert_eq!(o.failed, 0, "{}: error_rate must be 0", workload.name());
        assert!(o.attempted > 0);
    }

    #[test]
    fn short_untraced_pass_of_each_workload_is_clean() {
        for w in Workload::ALL {
            let o = short(w, false);
            assert_clean(&o, w);
            for m in &o.metrics {
                assert!(m.value > 0.0, "{} {}: {} is {}", w.name(), m.name, m.note, m.value);
            }
        }
    }

    #[test]
    fn short_traced_pass_reports_every_layer_metric() {
        for w in Workload::ALL {
            let o = short(w, true);
            assert_clean(&o, w);
            let names: Vec<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names, layers::METRIC_NAMES, "{}", w.name());
        }
    }

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        let http = deploy::start(3).expect("server");
        let mut client = Client::new(http.addr(), None);
        // The generator ran 50 ms late for this job: it was due before
        // it was sent, and its latency must include that stall.
        let due = Instant::now() - Duration::from_millis(50);
        let op = client.begin_op();
        let id = client.submit(op, "tenant00", isprime_body(50)).expect("submit");
        client.finish(op, "tenant00", id, &Expect::Primes(50), due);
        // The same job timed from its send time is far faster.
        let op = client.begin_op();
        let sent = Instant::now();
        let id = client.submit(op, "tenant00", isprime_body(50)).expect("submit");
        client.finish(op, "tenant00", id, &Expect::Primes(50), sent);
        http.stop();
        let rec = &mut client.rec;
        assert_eq!(rec.check_failures, 0, "{:?}", rec.messages);
        assert_eq!(rec.job_ms.len(), 2);
        let (late, on_time) = (rec.job_ms.pct(100.0), rec.job_ms.pct(1.0));
        assert!(late >= 50.0, "due-time latency {late} ms hides the 50 ms stall");
        assert!(on_time < 50.0, "send-time latency {on_time} ms");
        assert!(rec.first_event_ms.pct(100.0) >= 50.0);
    }
}
