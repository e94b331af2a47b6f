//! The `concurrent_serving` scenario: M clients × K jobs against the
//! engine-pooled server vs. the pre-PR3 single-mutex baseline, reported
//! as aggregate jobs/s into `BENCH_PR3.json`.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin concurrent_serving             # BENCH_PR3.json
//! cargo run -p laminar-bench --release --bin concurrent_serving -- --smoke # quick CI gate
//! ```
//!
//! The workload engine simulates real provisioning cost (~40ms of
//! sleeping per cold run, DESIGN.md §2), so the comparison measures
//! serving-path architecture, not CPU count: the serialized baseline
//! admits one request at a time into the server, while the worker pool
//! overlaps the provisioning sleeps of independent jobs. The report also
//! measures search latency while executions are in flight — on the
//! baseline a read waits for the running job; on the pooled server it
//! answers immediately from the registry read lock.

use laminar_bench::report_path;
use laminar_client::{LaminarClient, RunConfig, RunTarget};
use laminar_engine::ExecutionEngine;
use laminar_json::Value;
use laminar_registry::Registry;
use laminar_server::{ApiRequest, ApiResponse, LaminarServer};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const WF_SRC: &str = r#"
    pe Seq : producer { output output; process { emit(iteration + 1); } }
    pe IsPrime : iterative {
        input num; output output;
        process {
            let i = 2;
            let prime = num > 1;
            while i * i <= num { if num % i == 0 { prime = false; break; } i = i + 1; }
            if prime { emit(num); }
        }
    }
    workflow Primes {
        doc "Filters prime numbers";
        nodes { s = Seq; i = IsPrime; }
        connect s.output -> i.num;
    }
"#;

/// Re-creates the pre-PR3 serving path: every request — including a full
/// enactment — holds one global lock, so the server answers one request
/// at a time no matter how many clients connect.
struct SingleMutexTransport {
    inner: laminar_client::web::InProcessTransport,
    global: Arc<Mutex<()>>,
}

impl laminar_client::web::Transport for SingleMutexTransport {
    fn call(&self, request: &ApiRequest) -> Result<ApiResponse, String> {
        let _global = self.global.lock().unwrap_or_else(|e| e.into_inner());
        laminar_client::web::Transport::call(&self.inner, request)
    }

    fn endpoint(&self) -> String {
        "single-mutex in-process".to_string()
    }
}

struct Scenario {
    clients: usize,
    jobs_per_client: usize,
    workers: usize,
    provision_scale_us: u64,
    iterations: i64,
}

/// The workload engine: no network model, but real (simulated)
/// provisioning cost per cold run.
fn workload_engine(scale_us: u64) -> ExecutionEngine {
    ExecutionEngine::instant().with_provision_scale(scale_us)
}

fn setup_server(sc: &Scenario, workers: usize) -> laminar_client::web::InProcessTransport {
    let server = LaminarServer::with_pool(
        Registry::in_memory(),
        workload_engine(sc.provision_scale_us),
        workers,
        4096,
    );
    let transport = laminar_client::web::InProcessTransport::new(server);
    let mut admin = LaminarClient::with_transport(Box::new(transport.clone()));
    admin.register("bench", "password").unwrap();
    admin.login("bench", "password").unwrap();
    admin.register_workflow(WF_SRC, "primes", Some("prime filter workload")).unwrap();
    transport
}

fn client_for(
    transport: &laminar_client::web::InProcessTransport,
    serialized: Option<&Arc<Mutex<()>>>,
) -> LaminarClient {
    let boxed: Box<dyn laminar_client::web::Transport> = match serialized {
        Some(global) => {
            Box::new(SingleMutexTransport { inner: transport.clone(), global: Arc::clone(global) })
        }
        None => Box::new(transport.clone()),
    };
    let mut c = LaminarClient::with_transport(boxed);
    c.login("bench", "password").unwrap();
    c
}

/// Drive `clients` threads × `jobs_per_client` jobs; returns (elapsed,
/// aggregate jobs/s, printed-line count observed — a correctness check).
fn drive(
    sc: &Scenario,
    transport: &laminar_client::web::InProcessTransport,
    serialized: Option<&Arc<Mutex<()>>>,
    use_async_api: bool,
) -> (Duration, f64, usize) {
    let barrier = Arc::new(Barrier::new(sc.clients + 1));
    let iterations = sc.iterations;
    let jobs = sc.jobs_per_client;
    let handles: Vec<_> = (0..sc.clients)
        .map(|_| {
            let mut client = client_for(transport, serialized);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut printed = 0usize;
                if use_async_api {
                    // Submit the whole batch, then poll — the async path.
                    let ids: Vec<i64> = (0..jobs)
                        .map(|_| {
                            client
                                .submit(
                                    RunTarget::Registered("primes".into()),
                                    RunConfig::iterations(iterations),
                                )
                                .unwrap()
                        })
                        .collect();
                    for id in ids {
                        let out = client.wait_job(id, Duration::from_secs(600)).unwrap();
                        printed += out.printed.len();
                    }
                } else {
                    for _ in 0..jobs {
                        let out = client.run_registered("primes", RunConfig::iterations(iterations)).unwrap();
                        printed += out.printed.len();
                    }
                }
                printed
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let printed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = t0.elapsed();
    let total_jobs = sc.clients * sc.jobs_per_client;
    (elapsed, total_jobs as f64 / elapsed.as_secs_f64().max(1e-9), printed)
}

/// Worst-case latency of search requests sampled every couple of
/// milliseconds while slow executions are in flight. On the single-mutex
/// baseline a read issued mid-run waits for the whole enactment; on the
/// pooled server it answers from the registry read lock immediately.
fn search_latency_under_load(
    sc: &Scenario,
    transport: &laminar_client::web::InProcessTransport,
    serialized: Option<&Arc<Mutex<()>>>,
) -> Duration {
    use std::sync::atomic::{AtomicBool, Ordering};
    let reader = client_for(transport, serialized);
    let done = Arc::new(AtomicBool::new(false));
    let jobs = sc.clients.max(2);
    let bg = {
        let mut client = client_for(transport, serialized);
        let iterations = sc.iterations;
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for _ in 0..jobs {
                let _ = client.run_registered("primes", RunConfig::iterations(iterations));
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut worst = Duration::ZERO;
    while !done.load(Ordering::SeqCst) {
        let t0 = Instant::now();
        reader.search_registry("prime", "workflow", "text").unwrap();
        worst = worst.max(t0.elapsed());
        std::thread::sleep(Duration::from_millis(2));
    }
    bg.join().unwrap();
    worst
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::to_string);
    let out_path = report_path(flag_value("--out"), smoke, "BENCH_PR3.json", "bench_concurrent_smoke.json");

    let sc = Scenario {
        clients: if smoke { 4 } else { 8 },
        jobs_per_client: if smoke { 2 } else { 6 },
        workers: 8,
        provision_scale_us: if smoke { 50 } else { 100 },
        iterations: 25,
    };
    let total_jobs = sc.clients * sc.jobs_per_client;
    eprintln!(
        "concurrent_serving: {} clients x {} jobs, {} pool workers, provisioning {}us/unit",
        sc.clients, sc.jobs_per_client, sc.workers, sc.provision_scale_us
    );

    // ---- baseline: one worker, one global lock over every request --------
    let global = Arc::new(Mutex::new(()));
    let baseline_transport = setup_server(&sc, 1);
    let (base_elapsed, base_jps, base_printed) = drive(&sc, &baseline_transport, Some(&global), false);
    eprintln!("  single-mutex baseline: {base_elapsed:?}  {base_jps:.1} jobs/s");
    let base_search = search_latency_under_load(&sc, &baseline_transport, Some(&global));
    eprintln!("  worst search latency under load (baseline): {base_search:?}");

    // ---- pooled: N workers, lock-free routing, async job API -------------
    let pooled_transport = setup_server(&sc, sc.workers);
    let (pool_elapsed, pool_jps, pool_printed) = drive(&sc, &pooled_transport, None, true);
    eprintln!("  engine pool ({} workers): {pool_elapsed:?}  {pool_jps:.1} jobs/s", sc.workers);
    let pool_search = search_latency_under_load(&sc, &pooled_transport, None);
    eprintln!("  worst search latency under load (pooled): {pool_search:?}");
    let stats = pooled_transport.server().pool().stats();

    assert_eq!(base_printed, pool_printed, "both paths computed identical results");
    let speedup = pool_jps / base_jps.max(1e-9);
    eprintln!("  aggregate speedup: {speedup:.2}x");

    let mut report = Value::Null;
    report
        .set("report", "laminar concurrent serving")
        .set("pr", "PR3: engine worker pool + async job API")
        .set("smoke", smoke)
        .set(
            "config",
            laminar_json::jobj! {
                "clients" => sc.clients,
                "jobs_per_client" => sc.jobs_per_client,
                "total_jobs" => total_jobs,
                "pool_workers" => sc.workers,
                "provision_scale_us" => sc.provision_scale_us as i64,
                "iterations_per_job" => sc.iterations,
                "workload" => "Primes (Seq -> IsPrime), cold provisioning per run"
            },
        )
        .set(
            "baseline_single_mutex",
            laminar_json::jobj! {
                "elapsed_us" => base_elapsed.as_micros() as i64,
                "jobs_per_sec" => (base_jps * 100.0).round() / 100.0,
                "worst_search_under_load_us" => base_search.as_micros() as i64
            },
        )
        .set(
            "pooled",
            laminar_json::jobj! {
                "elapsed_us" => pool_elapsed.as_micros() as i64,
                "jobs_per_sec" => (pool_jps * 100.0).round() / 100.0,
                "worst_search_under_load_us" => pool_search.as_micros() as i64,
                "pool_stats" => stats.to_value()
            },
        )
        .set("jobs_per_sec_speedup", (speedup * 100.0).round() / 100.0)
        .set(
            "worst_search_under_load_speedup",
            ((base_search.as_secs_f64() / pool_search.as_secs_f64().max(1e-9)) * 100.0).round() / 100.0,
        );

    std::fs::write(&out_path, laminar_json::to_string_pretty(&report)).expect("write report");
    eprintln!("report written to {out_path}");
}
