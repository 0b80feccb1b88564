//! The three workloads and one iteration of each through the public `Session` API:
//! build → pilot → services → one task burst → wait → close.
//!
//! Every iteration builds a fresh session, so set-up and teardown are measured on
//! each one. All timings are real time on the default `ClockSpec::Scaled(1000.0)`.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hpcml_platform::PlatformId;
use hpcml_runtime::prelude::*;
use hpcml_sim::clock::ClockSpec;
use hpcml_sim::dist::Dist;

use crate::stats::{proc_status_field, quantile, steal_ticks, SplitMix64};
use crate::trace::{lifecycle, Segments, Tracer, VirtualToReal, SERVICE_CHAIN, TASK_CHAIN};

/// Real-time bound on all of an iteration's waits together; a workload that hits
/// it has failed (and the run still ends well within its time limit).
const WAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Virtual-to-real compression of the default clock.
pub const CLOCK_SCALE: f64 = 1000.0;

/// Response-sample component → attribution row.
pub const REQUEST_COMPONENTS: [(&str, &str); 3] = [
    ("communication", "request.communication"),
    ("service", "request.service"),
    ("inference", "request.inference"),
];

/// Runtime scalar series, summed for `metrics.retained_values`.
const SCALAR_SERIES: &[&str] = &[
    "task.placement_wait_secs",
    "task.placement.shard_probes",
    "task.exec_secs",
    "task.admission.batch_size",
    "task.admission.shard_batch",
    "task.admission.shard_wakeups",
    "task.gang.placement_wait_secs",
    "task.gang.nodes",
    "task.gang.partial_nodes",
    "task.gang.overtakes",
    "task.gang.drain_secs",
    "task.retries",
    "service.placement_wait_secs",
    "staging.secs",
    "staging.mib",
    "comm.fanout.width",
    "comm.publish.batch_size",
    "comm.queue.depth",
    "serving.batch.size",
    "serving.queue.depth",
    "serving.queue.delay_secs",
    "serving.shed",
    "serving.replica.outstanding",
    "client.shed_retries",
    "client.error_replies",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TaskFlood,
    InferenceStream,
    CoupledWorkflow,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TaskFlood,
        Workload::InferenceStream,
        Workload::CoupledWorkflow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TaskFlood => "task_flood",
            Workload::InferenceStream => "inference_stream",
            Workload::CoupledWorkflow => "coupled_workflow",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the iteration's inputs from its seed.
    pub fn inputs(self, seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        let session_seed = rng.next_u64();
        match self {
            // 10 k one-core compute tasks, ~0.1 virtual s each, on one 64-core node,
            // with one state-update subscriber.
            Workload::TaskFlood => {
                let modeled: Vec<f64> = (0..10_000).map(|_| rng.uniform(0.05, 0.15)).collect();
                Inputs {
                    session_seed,
                    pilot_nodes: 1,
                    lookahead: 1,
                    services: Vec::new(),
                    tasks: modeled
                        .iter()
                        .enumerate()
                        .map(|(i, d)| compute(format!("flood-{i}"), *d, 1))
                        .collect(),
                    modeled: modeled.into_iter().map(Some).collect(),
                    subscribe: true,
                    clients: 0,
                    requests_per_client: 0,
                }
            }
            // One NOOP service with the default serving config, two closed-loop
            // clients of 15 k requests each.
            Workload::InferenceStream => {
                let requests = 15_000;
                Inputs {
                    session_seed,
                    pilot_nodes: 4,
                    lookahead: 1,
                    services: vec![ServiceDescription::new("noop-0")],
                    tasks: (0..2)
                        .map(|i| {
                            TaskDescription::new(format!("client-{i}"))
                                .kind(TaskKind::inference_client("noop-0", requests))
                                .cores(1)
                        })
                        .collect(),
                    modeled: vec![None, None],
                    subscribe: false,
                    clients: 2,
                    requests_per_client: requests as usize,
                }
            }
            // 32 NOOP services (2 replicas, batches of 4, every eighth remote), then
            // one burst of 3 k narrow tasks, 24 two-node MPI gangs at seeded
            // positions and two clients of 3 k requests over all services.
            Workload::CoupledWorkflow => {
                let services = (0..32)
                    .map(|i| {
                        let s = ServiceDescription::new(format!("noop-{i}"))
                            .replicas(2)
                            .max_batch_size(4);
                        if i % 8 == 7 {
                            s.remote(PlatformId::R3Cloud)
                        } else {
                            s
                        }
                    })
                    .collect();
                let requests = 3_000;
                let mut tasks = Vec::new();
                let mut modeled = Vec::new();
                for i in 0..2 {
                    tasks.push(
                        TaskDescription::new(format!("client-{i}"))
                            .kind(TaskKind::inference_client_for_model("noop", requests))
                            .cores(1),
                    );
                    modeled.push(None);
                }
                for i in 0..3_000 {
                    let d = rng.uniform(1.0, 3.0);
                    tasks.push(compute(format!("narrow-{i}"), d, 1));
                    modeled.push(Some(d));
                }
                for g in 0..24 {
                    let d = rng.uniform(1.0, 3.0);
                    let at = 2 + rng.index(tasks.len() - 1);
                    tasks.insert(at, compute(format!("gang-{g}"), d, 32).nodes(2));
                    modeled.insert(at, Some(d));
                }
                Inputs {
                    session_seed,
                    pilot_nodes: 4,
                    lookahead: 8,
                    services,
                    tasks,
                    modeled,
                    subscribe: false,
                    clients: 2,
                    requests_per_client: requests as usize,
                }
            }
        }
    }
}

fn compute(name: String, secs: f64, cores: u32) -> TaskDescription {
    TaskDescription::new(name)
        .kind(TaskKind::Compute {
            duration_secs: Dist::constant(secs),
        })
        .cores(cores)
}

/// One iteration's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub session_seed: u64,
    pub pilot_nodes: usize,
    pub lookahead: usize,
    pub services: Vec<ServiceDescription>,
    pub tasks: Vec<TaskDescription>,
    /// Modeled duration (virtual s) of each task; `None` for inference clients.
    pub modeled: Vec<Option<f64>>,
    pub subscribe: bool,
    pub clients: usize,
    pub requests_per_client: usize,
}

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    pub work_s: f64,
    pub teardown_s: f64,
    pub total_s: f64,
    /// Peak resident memory of the process during the iteration.
    pub peak_rss_mib: f64,
    /// CPU time the hypervisor stole from this machine during the iteration, ticks.
    pub steal_ticks: Option<u64>,
    /// Compute tasks reaching `Done` plus requests answered without error.
    pub items_done: usize,
    /// Tasks (inference clients included) reaching `Done`.
    pub tasks_done: usize,
    /// Real seconds from the first client's `Executing` to the last client's `Done`.
    pub client_phase_s: f64,
    /// Requests answered, and their round trip's p50 and p99 in real ms (kept as
    /// summaries so retained samples do not grow the next iteration's peak RSS).
    pub requests: usize,
    pub request_p50_ms: f64,
    pub request_p99_ms: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    /// Traced iterations only.
    pub layers: Option<Layers>,
}

/// Per-layer samples of one traced iteration (real time unless named otherwise).
#[derive(Debug, Default)]
pub struct Layers {
    /// Self time per attribution row.
    pub rows: BTreeMap<&'static str, f64>,
    /// The spans themselves; the run keeps only the last traced iteration's.
    pub tracer: Option<Tracer>,
    pub submit_tasks_s: f64,
    pub close_s: f64,
    pub service_ready_wait_s: f64,
    pub executor_start_ms: Vec<f64>,
    pub place_narrow_ms: Vec<f64>,
    pub place_gang_ms: Vec<f64>,
    pub exec_overshoot_ms: Vec<f64>,
    pub modeled_ms: Vec<f64>,
    pub service_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Mean per-request component, real ms.
    pub request_components_ms: BTreeMap<&'static str, f64>,
    pub live_threads_peak: u64,
    pub counters: BTreeMap<&'static str, f64>,
}

/// Samples the process's thread count until stopped (traced runs only).
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: thread::JoinHandle<()>,
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let (s, p) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = thread::spawn(move || {
            while !s.load(Ordering::Acquire) {
                if let Some(n) = proc_status_field("Threads") {
                    p.fetch_max(n, Ordering::Relaxed);
                }
                thread::sleep(Duration::from_millis(1));
            }
        });
        ThreadSampler { stop, peak, handle }
    }

    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("thread sampler panicked");
        self.peak.load(Ordering::Relaxed)
    }
}

/// Restart the kernel's peak-RSS (`VmHWM`) tracking at the current RSS, so each
/// iteration reports its own peak. Where procfs refuses, the peak stays process-wide.
fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: glibc's `malloc_trim` only returns free heap memory to the OS; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Drains `state.task` updates on its own thread, counting them per entity.
fn spawn_subscriber(
    sub: hpcml_comm::pubsub::Subscriber,
    stop: Arc<AtomicBool>,
) -> thread::JoinHandle<HashMap<String, u32>> {
    thread::spawn(move || {
        let mut per_entity: HashMap<String, u32> = HashMap::new();
        loop {
            match sub.recv_batch(1024, Duration::from_millis(5)) {
                Ok(batch) => {
                    for m in batch {
                        let entity = m.header("entity").unwrap_or_default().to_string();
                        *per_entity.entry(entity).or_insert(0) += 1;
                    }
                }
                Err(_) if stop.load(Ordering::Acquire) => break,
                Err(_) => {}
            }
        }
        per_entity
    })
}

/// Run one iteration; with `traced`, also record spans and per-layer samples.
pub fn run_iteration(workload: Workload, inputs: Inputs, traced: bool) -> Iteration {
    let sampler = traced.then(ThreadSampler::start);
    let mut it = Iteration::default();
    let expected_requests = inputs.clients * inputs.requests_per_client;
    let n_tasks = inputs.tasks.len();
    it.attempted = n_tasks + expected_requests;

    reset_peak_rss();
    let steal_before = steal_ticks();

    // ---- set-up: build, pilot, services ------------------------------------
    let t0 = Instant::now();
    let deadline = t0 + WAIT_TIMEOUT;
    let remaining = || deadline.saturating_duration_since(Instant::now());
    let mut tracer = traced.then(|| Tracer::new(t0));
    let session = Session::builder(workload.name())
        .platform(PlatformId::Delta)
        .clock(ClockSpec::default())
        .seed(inputs.session_seed)
        .scheduler_lookahead(inputs.lookahead)
        .build()
        .expect("session builds");
    let t_built = Instant::now();
    let clock = session.clock();
    let anchor = (Instant::now(), clock.now().as_secs_f64());
    let pilot = session
        .submit_pilot(PilotDescription::new(PlatformId::Delta).nodes(inputs.pilot_nodes))
        .expect("pilot submits");
    let t_pilot = Instant::now();
    let total_cores = pilot.free_cores();
    let services: Vec<ServiceHandle> = inputs
        .services
        .iter()
        .map(|d| session.submit_service(d.clone()).expect("service submits"))
        .collect();
    let t_services = Instant::now();
    for s in &services {
        if let Err(e) = s.wait_ready_timeout(remaining()) {
            it.failures
                .push(format!("service {} not ready: {e}", s.name()));
        }
    }
    let t_ready = Instant::now();
    it.setup_s = (t_ready - t0).as_secs_f64();

    // ---- work: one burst, wait for every task -------------------------------
    let stop_sub = Arc::new(AtomicBool::new(false));
    let subscriber = inputs.subscribe.then(|| {
        spawn_subscriber(
            session.subscribe_updates(&["state.task"]),
            Arc::clone(&stop_sub),
        )
    });
    let t_sub = Instant::now();
    let handles = session
        .submit_tasks(inputs.tasks.clone())
        .expect("burst submits");
    let t_submitted = Instant::now();
    for h in &handles {
        if let Err(e) = h.wait_done_timeout(remaining()) {
            it.failures
                .push(format!("task {} ended {:?}: {e}", h.id(), h.state()));
        }
    }
    let t_done = Instant::now();
    it.work_s = (t_done - t_sub).as_secs_f64();

    // ---- teardown -----------------------------------------------------------
    session.close();
    let t_closed = Instant::now();
    it.teardown_s = (t_closed - t_done).as_secs_f64();
    it.total_s = (t_closed - t0).as_secs_f64();
    it.peak_rss_mib = proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0;
    it.steal_ticks = steal_before
        .zip(steal_ticks())
        .map(|(a, b)| b.saturating_sub(a));
    stop_sub.store(true, Ordering::Release);
    let per_entity = subscriber.map(|h| h.join().expect("subscriber panicked"));

    // ---- correctness --------------------------------------------------------
    let metrics = session.metrics();
    let done_compute = handles
        .iter()
        .zip(&inputs.modeled)
        .filter(|(h, m)| m.is_some() && h.state() == TaskState::Done)
        .count();
    let tasks_not_done = handles
        .iter()
        .filter(|h| h.state() != TaskState::Done)
        .count();
    let responses = metrics.response_samples();
    let error_replies = metrics.scalar_values("client.error_replies").len();
    it.items_done = done_compute + responses.len().min(expected_requests);
    it.tasks_done = n_tasks - tasks_not_done;
    let scale = clock.scale();
    let request_ms: Vec<f64> = responses.iter().map(|s| s.total() / scale * 1e3).collect();
    it.requests = request_ms.len();
    it.request_p50_ms = quantile(&request_ms, 0.5);
    it.request_p99_ms = quantile(&request_ms, 0.99);
    let client_ts: Vec<_> = handles
        .iter()
        .zip(&inputs.modeled)
        .filter(|(_, m)| m.is_none())
        .map(|(h, _)| h.timestamps())
        .collect();
    let stamps = |state: &'static str| {
        client_ts
            .iter()
            .filter_map(move |ts| ts.get(state).copied())
    };
    if let (Some(start), Some(end)) = (
        stamps("Executing").reduce(f64::min),
        stamps("Done").reduce(f64::max),
    ) {
        it.client_phase_s = (end - start) / scale;
    }
    it.failed = tasks_not_done + expected_requests.saturating_sub(responses.len());
    if tasks_not_done > 0 {
        it.failures
            .push(format!("{tasks_not_done} of {n_tasks} tasks not Done"));
    }
    if responses.len() != expected_requests || error_replies > 0 {
        it.failures.push(format!(
            "{} response samples, expected {expected_requests}; {error_replies} error replies",
            responses.len()
        ));
    }
    if let Some(per_entity) = &per_entity {
        let wrong = handles
            .iter()
            .filter(|h| per_entity.get(h.id()).copied() != Some(3))
            .count();
        if wrong > 0 || per_entity.len() != n_tasks {
            it.failures.push(format!(
                "{wrong} tasks without exactly 3 state updates ({} entities seen)",
                per_entity.len()
            ));
        }
    }
    for s in &services {
        match s.wait_final(remaining()) {
            Ok(ServiceState::Stopped) => {}
            other => it
                .failures
                .push(format!("service {} after close: {other:?}", s.name())),
        }
    }
    if pilot.free_cores() != total_cores {
        it.failures.push(format!(
            "pilot free cores {} after close, total {total_cores}",
            pilot.free_cores()
        ));
    }
    let max_inference = responses
        .iter()
        .filter_map(|s| s.component("inference"))
        .fold(0.0, f64::max);
    if max_inference > 1e-9 {
        it.failures.push(format!(
            "NOOP inference time {max_inference} virtual s, expected 0"
        ));
    }

    // ---- traced: rebuild spans from the handles' timestamps -----------------
    if let (Some(mut tracer), Some(sampler)) = (tracer.take(), sampler) {
        let map = VirtualToReal {
            anchor_real: tracer.at(anchor.0),
            anchor_virtual: anchor.1,
            scale,
        };
        let mut layers = Layers {
            live_threads_peak: sampler.finish(),
            submit_tasks_s: (t_submitted - t_sub).as_secs_f64(),
            close_s: it.teardown_s,
            service_ready_wait_s: (t_ready - t_services).as_secs_f64(),
            ..Layers::default()
        };
        tracer.call("session.build", t0, t_built);
        tracer.call("session.submit_pilot", anchor.0, t_pilot);
        if !services.is_empty() {
            tracer.call("session.submit_service", t_pilot, t_services);
            let wait = tracer.call("service.wait_ready", t_services, t_ready);
            attach_critical(&mut tracer, wait, &services, map, &mut layers);
        }
        if inputs.subscribe {
            tracer.call("session.subscribe_updates", t_ready, t_sub);
        }
        tracer.call("session.submit_tasks", t_sub, t_submitted);
        let wait = tracer.call("tasks.wait_done", t_submitted, t_done);
        tracer.call("session.close", t_done, t_closed);
        tracer.finish(t_closed, session.id());
        task_layers(
            &mut tracer,
            wait,
            &handles,
            &inputs,
            map,
            &responses,
            &mut layers,
        );
        layers.counters = counters(&metrics, per_entity.as_ref());
        layers.rows = tracer.self_times();
        layers.tracer = Some(tracer);
        it.layers = Some(layers);
    }
    it
}

/// Service lifecycle samples, and the last-ready service's bootstrap under `wait`.
fn attach_critical(
    tracer: &mut Tracer,
    wait: usize,
    services: &[ServiceHandle],
    map: VirtualToReal,
    layers: &mut Layers,
) {
    let mut last: Option<(f64, Segments, String)> = None;
    for s in services {
        let ts = s.timestamps();
        let segments: Segments = lifecycle(&ts, SERVICE_CHAIN)
            .into_iter()
            .map(|(name, a, b)| (name, map.real(a), map.real(b)))
            .collect();
        for &(name, a, b) in &segments {
            layers
                .service_ms
                .entry(name)
                .or_default()
                .push((b - a) * 1e3);
            tracer.entity(name, a, b, s.id());
        }
        if let Some(ready) = ts.get("Ready").map(|v| map.real(*v)) {
            if last.as_ref().is_none_or(|(t, _, _)| ready > *t) {
                last = Some((ready, segments, s.id().to_string()));
            }
        }
    }
    if let Some((_, segments, id)) = last {
        tracer.attach_chain(wait, &segments, &id);
    }
}

/// Task lifecycle samples, and the last-finished task's lifecycle under `wait`.
fn task_layers(
    tracer: &mut Tracer,
    wait: usize,
    handles: &[TaskHandle],
    inputs: &Inputs,
    map: VirtualToReal,
    responses: &[hpcml_sim::metrics::ComponentSample],
    layers: &mut Layers,
) {
    let scale = map.scale;
    let mut last: Option<(f64, usize)> = None;
    let mut client_exec_s = 0.0;
    let mut chains = Vec::with_capacity(handles.len());
    for (i, h) in handles.iter().enumerate() {
        let ts = h.timestamps();
        let segments: Segments = lifecycle(&ts, TASK_CHAIN)
            .into_iter()
            .map(|(name, a, b)| (name, map.real(a), map.real(b)))
            .collect();
        let gang = inputs.tasks[i].resources.nodes > 1;
        for &(name, a, b) in &segments {
            let ms = (b - a) * 1e3;
            match name {
                "executor.start" => layers.executor_start_ms.push(ms),
                "scheduler.place" if gang => layers.place_gang_ms.push(ms),
                "scheduler.place" => layers.place_narrow_ms.push(ms),
                "task.exec" => match inputs.modeled[i] {
                    Some(modeled) => {
                        let modeled_ms = modeled / scale * 1e3;
                        layers.modeled_ms.push(modeled_ms);
                        layers.exec_overshoot_ms.push(ms - modeled_ms);
                    }
                    None => client_exec_s += b - a,
                },
                _ => {}
            }
            tracer.entity(name, a, b, h.id());
        }
        if let Some(done) = ts.get("Done").map(|v| map.real(*v)) {
            if last.is_none_or(|(t, _)| done > t) {
                last = Some((done, i));
            }
        }
        chains.push(segments);
    }

    // Request round trips and their components (virtual → real ms).
    let mut component_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    for sample in responses {
        for (key, name) in REQUEST_COMPONENTS {
            *component_s.entry(name).or_insert(0.0) += sample.component(key).unwrap_or(0.0) / scale;
        }
    }
    let n = responses.len().max(1) as f64;
    layers.request_components_ms = component_s.iter().map(|(k, v)| (*k, v / n * 1e3)).collect();

    if let Some((_, i)) = last {
        let attached = tracer.attach_chain(wait, &chains[i], handles[i].id());
        // A client's execution is its request loop: apportion it among the request
        // components by the clients' aggregate split.
        if inputs.modeled[i].is_none() && client_exec_s > 0.0 {
            if let Some(&exec) = attached
                .iter()
                .find(|&&s| tracer.path[s].name == "task.exec")
            {
                let fractions: Vec<(&'static str, f64)> = component_s
                    .iter()
                    .map(|(k, v)| (*k, v / client_exec_s))
                    .collect();
                tracer.apportion(exec, &fractions);
            }
        }
    }
}

/// Per-iteration values of the runtime's public counters.
fn counters(
    metrics: &RuntimeMetrics,
    per_entity: Option<&HashMap<String, u32>>,
) -> BTreeMap<&'static str, f64> {
    // `+ 0.0` turns the empty sum's -0.0 into 0.
    let sum = |name: &str| metrics.scalar_values(name).iter().sum::<f64>() + 0.0;
    let avg = |name: &str| crate::stats::mean(&metrics.scalar_values(name));
    let count = |name: &str| metrics.scalar_values(name).len() as f64;
    let retained: usize = SCALAR_SERIES
        .iter()
        .map(|s| metrics.scalar_values(s).len())
        .sum::<usize>()
        + metrics.response_count()
        + metrics.bootstrap_count();
    BTreeMap::from([
        (
            "task.admission.batch_size",
            sum("task.admission.batch_size"),
        ),
        ("task.gang.overtakes", sum("task.gang.overtakes")),
        ("task.gang.drains", count("task.gang.drain_secs")),
        ("task.gang.drain_secs", sum("task.gang.drain_secs")),
        (
            "pubsub.updates_received",
            per_entity.map_or(0.0, |m| m.values().map(|v| f64::from(*v)).sum()),
        ),
        ("comm.fanout.width", avg("comm.fanout.width")),
        ("serving.batch.size", avg("serving.batch.size")),
        ("serving.queue.depth", avg("serving.queue.depth")),
        ("serving.queue.delay_secs", avg("serving.queue.delay_secs")),
        ("serving.shed", sum("serving.shed")),
        ("client.shed_retries", count("client.shed_retries")),
        ("metrics.retained_values", retained as f64),
    ])
}
