//! The `streaming_latency` scenario: time-to-first-result vs. total
//! runtime for the streaming sensor workload, across all four mappings
//! and through the full submit→`/events` stack, reported into
//! `BENCH_PR4.json`.
//!
//! ```text
//! cargo run -p laminar-bench --release --bin streaming_latency             # BENCH_PR4.json
//! cargo run -p laminar-bench --release --bin streaming_latency -- --smoke # quick CI gate
//! ```
//!
//! Before PR 4 the enactment pipeline was accumulate-then-collect:
//! nothing was observable until the whole run folded into a `RunResult`,
//! so time-to-first-output *equaled* total runtime. With the event
//! stream, the first window aggregate surfaces after ~`WINDOW × sensors`
//! readings while the source is still producing. The report asserts the
//! paper-shaped property: first result in **< 25% of total runtime** for
//! the Multi mapping (and records every mapping's ratio).

use laminar_bench::report_path;
use laminar_dataflow::mapping::MappingKind;
use laminar_dataflow::{RecordingObserver, RunEvent, RunObserver, RunOptions};
use laminar_json::Value;
use laminar_workloads::streaming::{build_graph, expected_windows, SensorFleet, SOURCE, WINDOW};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scenario {
    readings: i64,
    sensors: usize,
    processes: usize,
    poll_latency: Duration,
}

/// One mapping's measurement: when the first terminal output became
/// observable vs. when the run finished.
struct Measurement {
    mapping: String,
    first_output: Duration,
    total: Duration,
    windows: usize,
}

impl Measurement {
    fn ratio(&self) -> f64 {
        self.first_output.as_secs_f64() / self.total.as_secs_f64().max(1e-9)
    }

    fn to_value(&self) -> Value {
        let mut v = Value::Null;
        v.set("mapping", self.mapping.as_str())
            .set("first_result_us", self.first_output.as_micros() as i64)
            .set("total_us", self.total.as_micros() as i64)
            .set("first_result_fraction", (self.ratio() * 10000.0).round() / 10000.0)
            .set("windows", self.windows);
        v
    }
}

/// Direct-runtime measurement: observe the event stream of one enactment
/// and clock the first `Output` event's arrival.
fn measure_mapping(sc: &Scenario, kind: MappingKind) -> Measurement {
    let fleet = Arc::new(SensorFleet::new(sc.sensors, sc.poll_latency));
    let graph = build_graph(fleet);
    let options = RunOptions::iterations(sc.readings).with_processes(sc.processes);
    let recorder = RecordingObserver::new();
    let t0 = Instant::now();
    let result = kind
        .build()
        .execute_observed(&graph, &options, Some(recorder.clone() as Arc<dyn RunObserver>))
        .expect("streaming run");
    let total = t0.elapsed();
    let events = recorder.take();
    let first_output = events
        .iter()
        .find(|(_, _, e)| matches!(e, RunEvent::Output { .. }))
        .map(|(_, at, _)| *at)
        .expect("the windowed workload emits terminal outputs");
    Measurement {
        mapping: kind.as_str().to_string(),
        first_output,
        total,
        windows: result.port_values("WindowStats", "output").len(),
    }
}

/// Full-stack measurement: submit with `events=true` through the server,
/// poll `/execution/{user}/job/{id}/events`, and clock the first `output`
/// event's arrival at the *client*.
fn measure_full_stack(sc: &Scenario) -> (Measurement, i64) {
    use laminar_client::{LaminarClient, RunConfig, RunTarget};
    use laminar_engine::ExecutionEngine;
    use laminar_registry::Registry;
    use laminar_server::LaminarServer;

    let engine = ExecutionEngine::instant();
    engine.hosts().register("sensor", Arc::new(SensorFleet::new(sc.sensors, sc.poll_latency)));
    let server = LaminarServer::new(Registry::in_memory(), engine);
    let mut client = LaminarClient::in_process(server);
    client.register("bench", "password").unwrap();
    client.login("bench", "password").unwrap();
    client.register_workflow(SOURCE, "SensorWindows", Some("streaming sensor windows")).unwrap();

    let config =
        RunConfig::iterations(sc.readings).with_mapping(MappingKind::Multi, sc.processes).with_events(true);
    let t0 = Instant::now();
    let id = client.submit(RunTarget::Registered("SensorWindows".into()), config).unwrap();
    let mut first_output = None;
    let mut windows = 0usize;
    for event in client.event_stream(id, Duration::from_secs(600)) {
        let event = event.expect("event stream");
        if event["type"].as_str() == Some("output") {
            first_output.get_or_insert_with(|| t0.elapsed());
            windows += 1;
        }
    }
    let total = t0.elapsed();
    let output = client.wait_job(id, Duration::from_secs(10)).unwrap();
    let engine_first_us = output.first_output.map(|d| d.as_micros() as i64).unwrap_or(-1);
    (
        Measurement {
            mapping: "MULTI (client via /events)".into(),
            first_output: first_output.expect("windows streamed to the client"),
            total,
            windows,
        },
        engine_first_us,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::to_string);
    let out_path = report_path(flag_value("--out"), smoke, "BENCH_PR4.json", "bench_streaming_smoke.json");

    let sc = Scenario {
        readings: if smoke { 240 } else { 600 },
        sensors: 2,
        processes: 5,
        poll_latency: Duration::from_micros(if smoke { 300 } else { 1500 }),
    };
    eprintln!(
        "streaming_latency: {} readings over {} sensors (window {}), poll inter-arrival {:?}",
        sc.readings, sc.sensors, WINDOW, sc.poll_latency
    );

    let mut rows = Vec::new();
    for kind in [MappingKind::Simple, MappingKind::Multi, MappingKind::Mpi, MappingKind::Redis] {
        let m = measure_mapping(&sc, kind);
        eprintln!(
            "  {:<6} first result {:>9.1?} / total {:>9.1?}  ({:>5.1}%)  [{} windows]",
            m.mapping,
            m.first_output,
            m.total,
            m.ratio() * 100.0,
            m.windows
        );
        assert_eq!(
            m.windows,
            expected_windows(sc.readings as usize, sc.sensors),
            "{}: window count wrong",
            m.mapping
        );
        rows.push(m);
    }
    let multi = rows.iter().find(|m| m.mapping == "MULTI").expect("Multi measured");
    assert!(
        multi.ratio() < 0.25,
        "acceptance: Multi time-to-first-result {:.1}% must be < 25% of total",
        multi.ratio() * 100.0
    );

    let (full, engine_first_us) = measure_full_stack(&sc);
    eprintln!(
        "  full stack: first result at client {:?} / total {:?} ({:.1}%), engine-side first output {}us",
        full.first_output,
        full.total,
        full.ratio() * 100.0,
        engine_first_us
    );

    let mut report = Value::Null;
    report
        .set("report", "laminar streaming enactment latency")
        .set("pr", "PR4: incremental event stream through the enactment pipeline")
        .set("smoke", smoke)
        .set(
            "config",
            laminar_json::jobj! {
                "readings" => sc.readings,
                "sensors" => sc.sensors,
                "window" => WINDOW,
                "processes" => sc.processes,
                "poll_latency_us" => sc.poll_latency.as_micros() as i64,
                "workload" => "SensorWindows (poll -> windowed stats -> alerts)"
            },
        )
        .set("mappings", rows.iter().map(Measurement::to_value).collect::<Value>())
        .set(
            "full_stack_multi",
            laminar_json::jobj! {
                "first_result_us" => full.first_output.as_micros() as i64,
                "total_us" => full.total.as_micros() as i64,
                "first_result_fraction" => (full.ratio() * 10000.0).round() / 10000.0,
                "engine_first_output_us" => engine_first_us,
                "windows_streamed" => full.windows
            },
        )
        .set(
            "acceptance",
            laminar_json::jobj! {
                "criterion" => "first result < 25% of total runtime (Multi mapping)",
                "multi_fraction" => (multi.ratio() * 10000.0).round() / 10000.0,
                "pass" => multi.ratio() < 0.25
            },
        );

    std::fs::write(&out_path, laminar_json::to_string_pretty(&report)).expect("write report");
    eprintln!("report written to {out_path}");
}
