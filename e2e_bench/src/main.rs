//! End-to-end benchmark of the hpcml runtime, driven through its public `Session`
//! API on three workloads (`task_flood`, `inference_stream`, `coupled_workflow`).
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs untraced iterations for `--seconds` and prints the end-to-end
//! metrics. `--trace 1` alternates untraced and traced iterations on the same
//! inputs, prints the per-layer metrics, the blocking-path attribution table and
//! the tracing overhead, runs the operating-point probes and writes the spans of
//! the last traced iteration to `e2e_bench/traces/`. Every iteration checks the
//! runtime's outputs; a failed check fails the run. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use hpcml_comm::Message;
use hpcml_platform::PlatformId;
use hpcml_serving::service::inference_request_message;
use hpcml_serving::InferenceRequest;

use crate::stats::{json_number, mean, median, quantile, SplitMix64};
use crate::trace::{ROWS, UNATTRIBUTED};
use crate::workloads::{run_iteration, Iteration, Workload, CLOCK_SCALE, REQUEST_COMPONENTS};

/// Fewest measured iterations per run, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;
/// The layer split must sum to the untraced end-to-end time within this share.
const SPLIT_TOLERANCE: f64 = 0.10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2e_bench --workload <task_flood|inference_stream|coupled_workflow> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let seed_of =
        |k: u64| SplitMix64::new(args.seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();

    // Warm-up: first-touch page faults and lazy initialisation, not measured.
    let warmup = run_iteration(w, w.inputs(seed_of(u64::MAX)), false);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut k = 0u64;
    while (untraced.len() < MIN_ITERATIONS || (args.trace && traced.len() < MIN_ITERATIONS))
        || Instant::now() < deadline
    {
        let inputs = w.inputs(seed_of(k));
        untraced.push(run_iteration(w, inputs.clone(), false));
        if args.trace {
            if let Some(previous) = traced.last_mut().and_then(|it| it.layers.as_mut()) {
                previous.tracer = None;
            }
            traced.push(run_iteration(w, inputs, true));
        }
        k += 1;
    }

    let all = || std::iter::once(&warmup).chain(&untraced).chain(&traced);
    let failures: Vec<&String> = all().flat_map(|it| &it.failures).collect();
    let attempted: usize = untraced.iter().chain(&traced).map(|it| it.attempted).sum();
    let failed: usize = untraced.iter().chain(&traced).map(|it| it.failed).sum();

    println!(
        "# e2e_bench workload={} seed={} seconds={} trace={} clock_scale={CLOCK_SCALE} available_parallelism={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "# iterations: {} untraced, {} traced, 1 warm-up; figures from those with at most the median hypervisor steal",
        untraced.len(),
        traced.len(),
    );
    let metrics = if args.trace {
        let m = per_layer(&args, &least_stolen(&untraced), &least_stolen(&traced));
        write_trace(&args, &traced);
        m
    } else {
        end_to_end(&least_stolen(&untraced))
    };
    for f in &failures {
        println!("check failed: {f}");
    }
    println!(
        "failed_share {:.6} ({failed} of {attempted} tasks + requests)",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        body.join(", ")
    );
    std::io::stdout().flush().expect("stdout flushes");
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The iterations whose hypervisor steal is at most the median steal: at least
/// half of `its`, in run order. On a shared host, stolen time stretches an
/// iteration without the runtime doing anything different; the metrics are
/// medians over these iterations. Where steal cannot be read, every iteration
/// counts.
fn least_stolen(its: &[Iteration]) -> Vec<&Iteration> {
    let Some(mut steals) = its
        .iter()
        .map(|it| it.steal_ticks)
        .collect::<Option<Vec<u64>>>()
    else {
        return its.iter().collect();
    };
    steals.sort_unstable();
    let Some(&cutoff) = steals.get(its.len().div_ceil(2).saturating_sub(1)) else {
        return Vec::new();
    };
    its.iter()
        .filter(|it| it.steal_ticks.is_some_and(|t| t <= cutoff))
        .collect()
}

/// Prints the hypervisor steal of the iterations behind the figures.
fn print_steal(its: &[&Iteration]) {
    let ticks: Vec<f64> = its
        .iter()
        .filter_map(|it| it.steal_ticks.map(|t| t as f64))
        .collect();
    print_timing("steal_ticks", "ticks", &ticks);
}

/// Prints one table row: median, p90, min, max and the sample count.
fn print_timing(name: &str, unit: &str, values: &[f64]) {
    println!(
        "{name:<34} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>7}  {unit}",
        median(values),
        quantile(values, 0.9),
        quantile(values, 0.0),
        quantile(values, 1.0),
        values.len()
    );
}

/// Prints the per-request round trip: medians over iterations of each
/// iteration's p50 and p99, and the number of requests behind them.
fn print_request_latency(its: &[&Iteration]) {
    let col = |f: fn(&Iteration) -> f64| its.iter().map(|it| f(it)).collect::<Vec<f64>>();
    println!(
        "{:<34} {:>12.6} {:>12.6}  ms (n {})",
        "request_p50_ms request_p99_ms",
        median(&col(|it| it.request_p50_ms)),
        median(&col(|it| it.request_p99_ms)),
        its.iter().map(|it| it.requests).sum::<usize>()
    );
}

fn end_to_end(its: &[&Iteration]) -> Vec<Metric> {
    let col = |f: fn(&Iteration) -> f64| its.iter().map(|it| f(it)).collect::<Vec<f64>>();
    let setup = col(|it| it.setup_s);
    let rate = col(|it| it.items_done as f64 / it.work_s);
    let teardown = col(|it| it.teardown_s);
    let peak_rss = col(|it| it.peak_rss_mib);

    println!("## end-to-end (per iteration, real time)");
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>12} {:>7}  unit",
        "metric", "median", "p90", "min", "max", "n"
    );
    print_timing("setup_s", "s", &setup);
    print_timing("items_per_s", "1/s", &rate);
    print_timing(
        "tasks_per_s",
        "1/s",
        &col(|it| it.tasks_done as f64 / it.work_s),
    );
    if its.iter().any(|it| it.requests > 0) {
        print_timing(
            "requests_per_s",
            "1/s",
            &col(|it| it.requests as f64 / it.client_phase_s),
        );
        print_request_latency(its);
    }
    print_timing("work_s", "s", &col(|it| it.work_s));
    print_timing("teardown_s", "s", &teardown);
    print_timing("iteration_s", "s", &col(|it| it.total_s));
    print_timing("peak_rss_mib", "MiB", &peak_rss);
    print_steal(its);
    vec![
        metric("setup_s", median(&setup), "s"),
        metric("items_per_s", median(&rate), "1/s"),
        metric("teardown_s", median(&teardown), "s"),
        metric("peak_rss_mib", median(&peak_rss), "MiB"),
    ]
}

fn per_layer(args: &Args, untraced: &[&Iteration], traced: &[&Iteration]) -> Vec<Metric> {
    let layers: Vec<&workloads::Layers> =
        traced.iter().filter_map(|it| it.layers.as_ref()).collect();
    let pooled = |f: fn(&workloads::Layers) -> &Vec<f64>| -> Vec<f64> {
        layers.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let per_it =
        |f: fn(&workloads::Layers) -> f64| -> Vec<f64> { layers.iter().map(|l| f(l)).collect() };
    let counter = |name: &str| -> f64 {
        median(
            &layers
                .iter()
                .map(|l| l.counters.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };

    // ---- blocking-path attribution -----------------------------------------
    let traced_total = mean(&traced.iter().map(|it| it.total_s).collect::<Vec<_>>());
    let untraced_total = mean(&untraced.iter().map(|it| it.total_s).collect::<Vec<_>>());
    let mut rows: BTreeMap<&str, f64> = BTreeMap::new();
    for l in &layers {
        for (name, secs) in &l.rows {
            *rows.entry(name).or_insert(0.0) += secs / layers.len() as f64;
        }
    }
    let split_sum: f64 = rows.values().sum();
    println!(
        "## attribution: blocking path, mean per traced iteration (n={}), real time",
        layers.len()
    );
    println!("{:<28} {:<18} {:>12} {:>8}", "row", "layer", "ms", "share");
    for (name, layer) in ROWS {
        let secs = rows.get(name).copied().unwrap_or(0.0);
        println!(
            "{name:<28} {layer:<18} {:>12.4} {:>7.2}%",
            secs * 1e3,
            100.0 * secs / split_sum
        );
    }
    let overhead = traced_total - untraced_total;
    let deviation = (split_sum - untraced_total) / untraced_total;
    println!(
        "{:<47} {:>12.4}",
        "sum of rows (traced total)",
        split_sum * 1e3
    );
    println!(
        "{:<47} {:>12.4}",
        "untraced end-to-end total",
        untraced_total * 1e3
    );
    println!(
        "{:<47} {:>12.4} ms ({:+.2}%)",
        "tracing overhead (traced - untraced)",
        overhead * 1e3,
        100.0 * overhead / untraced_total
    );
    println!(
        "split vs untraced total: {:+.2}% (tolerance {:.0}%: {})",
        100.0 * deviation,
        100.0 * SPLIT_TOLERANCE,
        if deviation.abs() <= SPLIT_TOLERANCE {
            "within"
        } else {
            "exceeded"
        }
    );

    // ---- per-layer detail ----------------------------------------------------
    println!("## layers (traced iterations, real time)");
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>12} {:>7}  unit",
        "metric", "median", "p90", "min", "max", "n"
    );
    let start = pooled(|l| &l.executor_start_ms);
    let place = pooled(|l| &l.place_narrow_ms);
    let overshoot = pooled(|l| &l.exec_overshoot_ms);
    let modeled = pooled(|l| &l.modeled_ms);
    print_timing("session.submit_tasks_s", "s", &per_it(|l| l.submit_tasks_s));
    print_timing("session.close_s", "s", &per_it(|l| l.close_s));
    print_timing(
        "service.ready_wait_s",
        "s",
        &per_it(|l| l.service_ready_wait_s),
    );
    print_timing("executor.start_ms", "ms", &start);
    print_timing("scheduler.place_ms.narrow", "ms", &place);
    print_timing(
        "scheduler.place_ms.gang",
        "ms",
        &pooled(|l| &l.place_gang_ms),
    );
    print_timing("task.exec_overshoot_ms", "ms", &overshoot);
    for name in [
        "service.start",
        "service.place",
        "service.launch",
        "service.init",
        "service.publish",
    ] {
        let v: Vec<f64> = layers
            .iter()
            .flat_map(|l| l.service_ms.get(name).into_iter().flatten().copied())
            .collect();
        print_timing(&format!("{name}_ms"), "ms", &v);
    }
    print_request_latency(traced);
    let component = |name: &str| {
        mean(
            &layers
                .iter()
                .map(|l| l.request_components_ms.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let rtt_mean: f64 = REQUEST_COMPONENTS
        .iter()
        .map(|(_, name)| component(name))
        .sum();
    let share = |part: f64, whole: f64| {
        if whole > 0.0 {
            100.0 * part / whole
        } else {
            0.0
        }
    };
    for (_, name) in REQUEST_COMPONENTS {
        println!(
            "{name:<34} {:>12.6} us mean ({:.2}% of round trip)",
            component(name) * 1e3,
            share(component(name), rtt_mean)
        );
    }

    // ---- operating-point probes ----------------------------------------------
    let point = operating_point(args.workload, &modeled, counter("comm.fanout.width"));
    let probe_values = probes::run(&point, args.seed);
    println!(
        "## probes at the operating point: fan-out width {}, message {} B, {} modeled durations",
        point.fanout_width,
        point.message.encoded_len(),
        point.modeled_secs.len()
    );
    for (name, value) in &probe_values {
        println!("{name:<34} {value:>12.4}");
    }
    for (name, value) in layers.first().map(|l| &l.counters).into_iter().flatten() {
        println!("{name:<34} {:>12.4}  (median {:.4})", value, counter(name));
    }

    let mut m = vec![
        metric(
            "session.submit_tasks_s",
            median(&per_it(|l| l.submit_tasks_s)),
            "s",
        ),
        metric("session.close_s", median(&per_it(|l| l.close_s)), "s"),
        metric("executor.start_ms_p50", quantile(&start, 0.5), "ms"),
        metric("executor.start_ms_p99", quantile(&start, 0.99), "ms"),
        metric("scheduler.place_ms_p50", quantile(&place, 0.5), "ms"),
        metric("scheduler.place_ms_p99", quantile(&place, 0.99), "ms"),
        metric(
            "split.unattributed_s",
            rows.get(UNATTRIBUTED).copied().unwrap_or(0.0),
            "s",
        ),
        metric("tracing.overhead_s", overhead, "s"),
    ];
    for (name, value) in probe_values {
        let unit = if name.ends_with("_ns") { "ns" } else { "us" };
        m.push(metric(name, value, unit));
    }
    m.push(metric(
        "executor.live_threads_peak",
        median(&per_it(|l| l.live_threads_peak as f64)),
        "count",
    ));
    for name in [
        "task.admission.batch_size",
        "task.gang.overtakes",
        "task.gang.drains",
        "pubsub.updates_received",
        "comm.fanout.width",
        "serving.batch.size",
        "serving.queue.depth",
        "serving.shed",
        "client.shed_retries",
        "metrics.retained_values",
    ] {
        m.push(metric(name, counter(name), "count"));
    }
    for (_, name) in REQUEST_COMPONENTS {
        m.push(metric(
            format!("{name}_pct"),
            share(component(name), rtt_mean),
            "%",
        ));
    }
    m.push(metric(
        "task.exec_overshoot_pct",
        share(median(&overshoot), median(&modeled)),
        "%",
    ));
    for (name, _) in ROWS {
        let secs = rows.get(name).copied().unwrap_or(0.0);
        m.push(metric(
            format!("split.{name}_pct"),
            share(secs, split_sum),
            "%",
        ));
    }
    m
}

/// The parameters the probes replay: the workload's modeled durations (the Delta
/// link latency where it models none), its fan-out width and hottest message.
fn operating_point(w: Workload, modeled_ms: &[f64], fanout: f64) -> probes::OperatingPoint {
    let mut modeled_secs: Vec<f64> = modeled_ms.iter().map(|ms| ms / 1e3 * CLOCK_SCALE).collect();
    if modeled_secs.is_empty() {
        modeled_secs.push(PlatformId::Delta.spec().intra_latency.one_way_ms.mean() / 1e3);
    }
    let message = match w {
        Workload::TaskFlood => Message::new("state.task.Done", "state.update")
            .with_header("entity", "task.000000")
            .with_header("state", "Done"),
        Workload::InferenceStream | Workload::CoupledWorkflow => {
            let prompt: Vec<String> = (0..48).map(|i| format!("w{i}")).collect();
            let request = InferenceRequest::new(prompt.join(" "), 128).from_client("task.000000");
            inference_request_message("noop-0", &request)
        }
    };
    probes::OperatingPoint {
        modeled_secs,
        fanout_width: fanout.round() as usize,
        message,
    }
}

/// Write the last traced iteration's spans as JSON lines under `e2e_bench/traces/`.
fn write_trace(args: &Args, traced: &[Iteration]) {
    let Some(tracer) = traced
        .last()
        .and_then(|it| it.layers.as_ref())
        .and_then(|l| l.tracer.as_ref())
    else {
        return;
    };
    let dir = std::path::Path::new("e2e_bench/traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tracer.write_jsonl(&mut out)?;
            out.flush()
        });
    match result {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}
