//! Shutdown stress: `EnginePool::start` followed at once by drop, over and
//! over, under CPU load. Guards the lost wake-up in `stop()`: a worker
//! between its `shutdown` check and its `wait` on the work condvar must
//! still be woken, or the join in `stop()` never returns.
//!
//! Every worker of a fresh pool passes through that window once, and the
//! busy threads widen it by preempting workers. The test is probabilistic,
//! but with the flag stored outside the queue lock each of six runs of it
//! hung (2-vCPU Linux VM). It lives in its own integration binary so its
//! load threads never slow the timing-sensitive pool unit tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use laminar_engine::{EnginePool, ExecutionEngine};

const CYCLES: usize = 6000;
const WORKERS: usize = 8;
const LOAD_THREADS: usize = 3;

#[test]
fn start_drop_stress_never_hangs() {
    let busy = Arc::new(AtomicBool::new(true));
    let load: Vec<_> = (0..LOAD_THREADS)
        .map(|_| {
            let busy = Arc::clone(&busy);
            std::thread::spawn(move || {
                while busy.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    // The watchdog: the cycles run on their own thread, so a hang fails
    // the test instead of stalling the suite (a hung thread is left
    // behind; the test process exits without it).
    let (done_tx, done_rx) = mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for _ in 0..CYCLES {
            drop(EnginePool::start(ExecutionEngine::instant(), WORKERS, 16));
        }
        let _ = done_tx.send(());
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(120));
    busy.store(false, Ordering::Relaxed);
    for t in load {
        t.join().expect("load thread");
    }
    assert!(finished.is_ok(), "EnginePool start->drop hung: stop() lost a worker wake-up");
    cycles.join().expect("start->drop cycles");
}
