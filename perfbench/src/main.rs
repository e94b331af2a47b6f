//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against the Laminar server over loopback TCP and
//! prints, as its last line, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics untraced, the per-layer metrics
//! traced. Exits non-zero when any output check fails.

use laminar_perfbench::workloads::Workload;
use laminar_perfbench::{run, Config};
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <interactive|bulk_stream|open_arrival> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg =
        Config { workload: Workload::Interactive, seed: 1, run: Duration::from_secs(10), trace: false };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage(&format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage("--seed takes an integer")),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("--seconds takes a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                cfg.run = Duration::from_secs_f64(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    cfg.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    cfg
}

fn main() {
    let cfg = parse_args();
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.context {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("{} = {} {} ({})", m.name, m.value, m.unit, m.note);
    }
    println!("{}", outcome.result_line());
    if !outcome.correct {
        std::process::exit(1);
    }
}
