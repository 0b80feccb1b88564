//! Operating-point probes for the traced run: the public layer calls timed alone,
//! at the parameters the end-to-end run showed, so a microbench number can be read
//! against the layer split it is meant to explain.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hpcml_comm::pubsub::Publisher;
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_comm::{Link, Message};
use hpcml_runtime::RuntimeMetrics;
use hpcml_sim::clock::ClockSpec;

use crate::stats::{median, SplitMix64};
use crate::workloads::CLOCK_SCALE;

/// The parameters a workload ran at.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Modeled durations the workload sleeps on the clock (virtual seconds).
    pub modeled_secs: Vec<f64>,
    /// Mean observed `comm.fanout.width` of the state-update publisher.
    pub fanout_width: usize,
    /// A message of the size the workload's hottest channel carries.
    pub message: Message,
}

/// Run every probe; values are medians over repeated timings.
pub fn run(point: &OperatingPoint, seed: u64) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("probe.thread_spawn_join_us", thread_spawn_join_us()),
        (
            "probe.clock_sleep_overshoot_us",
            clock_sleep_overshoot_us(&point.modeled_secs, seed),
        ),
        ("probe.publish_ns", publish_ns(point)),
        ("probe.record_scalar_2t_ns", record_scalar_2t_ns()),
        (
            "probe.reqrep_roundtrip_us",
            reqrep_roundtrip_us(&point.message),
        ),
    ])
}

/// A bare `std::thread` spawn + join: the floor under `executor.start_ms`.
fn thread_spawn_join_us() -> f64 {
    let samples: Vec<f64> = (0..1000)
        .map(|i| {
            let t = Instant::now();
            thread::spawn(move || std::hint::black_box(i))
                .join()
                .expect("probe thread panicked");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `Clock::sleep` overshoot (real µs beyond `d / scale`) at the modeled durations.
fn clock_sleep_overshoot_us(modeled_secs: &[f64], seed: u64) -> f64 {
    let clock = ClockSpec::Scaled(CLOCK_SCALE).build();
    let mut rng = SplitMix64::new(seed);
    let samples: Vec<f64> = (0..300)
        .map(|_| {
            let d = modeled_secs[rng.index(modeled_secs.len())];
            let t = Instant::now();
            clock.sleep(Duration::from_secs_f64(d));
            (t.elapsed().as_secs_f64() - d / CLOCK_SCALE) * 1e6
        })
        .collect();
    median(&samples)
}

/// `Publisher::publish` of the workload's message at the observed fan-out width.
fn publish_ns(point: &OperatingPoint) -> f64 {
    let publisher = Publisher::new();
    let subscribers: Vec<_> = (0..point.fanout_width)
        .map(|_| publisher.subscribe(&[""]))
        .collect();
    const CHUNK: usize = 100;
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CHUNK {
                std::hint::black_box(publisher.publish(&point.message));
            }
            let ns = t.elapsed().as_secs_f64() * 1e9 / CHUNK as f64;
            for s in &subscribers {
                s.drain_frames();
            }
            ns
        })
        .collect();
    median(&samples)
}

/// `RuntimeMetrics::record_scalar` from 2 threads at once, ns per call.
fn record_scalar_2t_ns() -> f64 {
    const CALLS: usize = 20_000;
    let samples: Vec<f64> = (0..10)
        .map(|_| {
            let metrics = RuntimeMetrics::new();
            let per_thread: Vec<f64> = thread::scope(|s| {
                let workers: Vec<_> = (0..2)
                    .map(|_| {
                        let m = Arc::clone(&metrics);
                        s.spawn(move || {
                            let t = Instant::now();
                            for i in 0..CALLS {
                                m.record_scalar("probe.series", i as f64);
                            }
                            t.elapsed().as_secs_f64() * 1e9 / CALLS as f64
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("probe thread panicked"))
                    .collect()
            });
            median(&per_thread)
        })
        .collect();
    median(&samples)
}

/// A bare `ReqRepServer`/`ReqRepClient` echo round trip at the message's size.
fn reqrep_roundtrip_us(message: &Message) -> f64 {
    let server = ReqRepServer::new("probe.echo");
    let client = server.client(Link::instant(ClockSpec::Scaled(CLOCK_SCALE).build()));
    thread::scope(|s| {
        let echo = s.spawn(|| {
            while let Ok((msg, responder)) = server.recv_timeout(Duration::from_millis(200)) {
                let _ = responder.reply(msg);
            }
        });
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                let t = Instant::now();
                client.request(message.clone()).expect("echo reply");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        drop(client);
        echo.join().expect("echo thread panicked");
        median(&samples)
    })
}
