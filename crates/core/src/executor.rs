//! The executor: launching service instances and running tasks.
//!
//! The executor realises flows ③–⑤ of the paper's architecture (Fig. 2): it places each
//! scheduled entity on its slot and drives it through its lifecycle. Every lifecycle —
//! a service, a batch-admitted task, a task without a ticket — runs as a [`Job`] on a
//! reused worker thread of one elastic pool, and all hardware-bound durations —
//! launcher start-up, model load, data staging, compute kernels, network hops, token
//! generation — are spent on the session's shared virtual clock.
//!
//! ## Worker pool
//!
//! Services and tasks without an admission ticket get a worker right away: they block
//! on readiness relations before they hold a FIFO place. A batch-admitted task waits in
//! the pool as a plain job, with no thread, in the *lane* of its scheduler. Per lane at
//! most [`Scheduler::lookahead`] workers block in placement, and they hold the wait
//! queue's oldest unplaced tickets: exactly the scheduler's serve window, so nothing
//! the window could place is left without a thread. A worker leaving placement
//! (slot granted, or error) hands the role to the lane's next ticket by waking an idle
//! worker, or by spawning one only when no worker is idle or about to finish its job.
//! Threads therefore track the peak number of concurrently live entities, not the
//! number of entities submitted; `executor.workers` records the live count at every
//! spawn. Idle workers park on the pool's condvar and exit at [`Executor::join_all`].
//!
//! Each job runs under `catch_unwind`: a panic fails the entity with the panic message,
//! releases the slot it holds and hands its placement role on, and the worker lives on.
//! The pool lock is a leaf: it is never held across a scheduler, registry or metrics
//! call.
//!
//! For **local services** the executor measures the three bootstrap components of the
//! paper's Fig. 3 from the service's own state timestamps:
//! `launch` (Launching → Initializing), `init` (Initializing → Publishing) and
//! `publish` (Publishing → Ready). For **inference-client tasks** it records one
//! response-time sample per request, decomposed into `communication`, `service` and
//! `inference` exactly as the paper's experiments 2 and 3 do.

mod pool;

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use hpcml_comm::link::Link;
use hpcml_comm::message::Message;
use hpcml_comm::pubsub::Publisher;
use hpcml_comm::registry::{EndpointEntry, EndpointRegistry};
use hpcml_comm::reqrep::ReqRepServer;
use hpcml_platform::resources::ResourceError;
use hpcml_platform::PlatformId;
use hpcml_serving::host::ModelHost;
use hpcml_serving::protocol::{
    HDR_INFERENCE_SECS, HDR_RETRY_AFTER_SECS, HDR_SERVICE_SECS, KIND_ERROR, KIND_SHED,
};
use hpcml_serving::request::InferenceRequest;
use hpcml_serving::service::{inference_request_message, InferenceService};
use hpcml_sim::clock::{SharedClock, Stopwatch};
use hpcml_sim::dist::Dist;

use crate::data::DataManager;
use crate::describe::{ServicePlacement, ServiceSelector, TaskKind};
use crate::error::RuntimeError;
use crate::metrics::RuntimeMetrics;
use crate::records::{BootstrapTimes, ServiceRecord, TaskRecord};
use crate::scheduler::{AdmissionTicket, Priority, Scheduler};
use crate::states::{ServiceState, TaskState};

use pool::{LaneKey, Pool, Shift, Spawn};

/// Metadata key under which a service's model name is published.
pub const META_MODEL: &str = "model";
/// Metadata key under which a service's platform is published.
pub const META_PLATFORM: &str = "platform";
/// Metadata key under which a service's runtime identifier is published.
pub const META_SERVICE_ID: &str = "service_id";

/// How long entities wait for dependencies (endpoints, resources) in real time.
const DEPENDENCY_TIMEOUT: Duration = Duration::from_secs(120);

/// Virtual backoff before the first retry of a task evicted by a node failure;
/// doubles on every further attempt (exponential backoff on the session clock).
const RETRY_BACKOFF_BASE_SECS: f64 = 0.5;

/// How many times an inference client honours a shed reply's retry-after hint before
/// counting the request as failed.
const MAX_SHED_RETRIES: u32 = 3;

/// One entity lifecycle, run on a pool worker ([`Executor::submit`]).
pub struct Job {
    entity: Entity,
    scheduler: Option<Arc<Scheduler>>,
    /// The batch-admission ticket and when it was issued: the placement deadline
    /// counts from there.
    admission: Option<(AdmissionTicket, Instant)>,
}

/// The entity a job drives, also kept aside so a panicking job can still be failed
/// and its slot released.
#[derive(Clone)]
enum Entity {
    Service(Arc<ServiceRecord>),
    Task(Arc<TaskRecord>),
    /// Places its admitted ticket, then panics while still holding the placement
    /// role and the slot (panic-containment tests).
    #[cfg(test)]
    PanickingTask(Arc<TaskRecord>),
}

impl Job {
    /// Bootstrap a service instance and serve until asked to stop. Local services
    /// place through `scheduler`; remote ones pass `None`.
    pub fn service(record: Arc<ServiceRecord>, scheduler: Option<Arc<Scheduler>>) -> Job {
        Job {
            entity: Entity::Service(record),
            scheduler,
            admission: None,
        }
    }

    /// Run a task that holds no admission ticket: it enters `Scheduling`, waits for
    /// its `after_services`, then queues for placement. Without a scheduler it fails.
    pub fn task(record: Arc<TaskRecord>, scheduler: Option<Arc<Scheduler>>) -> Job {
        Job {
            entity: Entity::Task(record),
            scheduler,
            admission: None,
        }
    }

    /// Run a task admitted through [`Scheduler::submit_batch`]: its record already
    /// entered `Scheduling` at admission and `ticket` holds its FIFO place. The
    /// placement deadline starts now.
    pub fn admitted(
        record: Arc<TaskRecord>,
        scheduler: Arc<Scheduler>,
        ticket: AdmissionTicket,
    ) -> Job {
        Job {
            entity: Entity::Task(record),
            scheduler: Some(scheduler),
            admission: Some((ticket, Instant::now())),
        }
    }

    /// The pool lane an admitted job waits in, with the lane's role window.
    fn lane(&self) -> Option<(LaneKey, usize)> {
        self.admission.as_ref()?;
        let scheduler = self.scheduler.as_ref()?;
        let key = LaneKey {
            scheduler: Arc::as_ptr(scheduler) as usize,
        };
        Some((key, scheduler.lookahead()))
    }
}

/// The text of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The executor component.
pub struct Executor {
    clock: SharedClock,
    metrics: Arc<RuntimeMetrics>,
    registry: Arc<EndpointRegistry>,
    data: Arc<DataManager>,
    publisher: Publisher,
    concurrent_launches: Arc<AtomicU32>,
    publish_overhead: Dist,
    seed_counter: AtomicU64,
    base_seed: u64,
    pool: Pool<Job>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field(
                "concurrent_launches",
                &self.concurrent_launches.load(Ordering::Relaxed),
            )
            .field("workers", &self.pool.live())
            .finish()
    }
}

impl Executor {
    /// Create an executor.
    pub fn new(
        clock: SharedClock,
        metrics: Arc<RuntimeMetrics>,
        registry: Arc<EndpointRegistry>,
        data: Arc<DataManager>,
        publisher: Publisher,
        base_seed: u64,
    ) -> Arc<Self> {
        Arc::new(Executor {
            clock,
            metrics,
            registry,
            data,
            publisher,
            concurrent_launches: Arc::new(AtomicU32::new(0)),
            // Endpoint publication: registry round trip plus control-channel fan-out.
            // Calibrated to stay below the launch time, as the paper observes.
            publish_overhead: Dist::normal(0.35, 0.08),
            seed_counter: AtomicU64::new(1),
            base_seed,
            pool: Pool::new(),
        })
    }

    fn next_seed(&self) -> u64 {
        self.base_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed_counter.fetch_add(1, Ordering::Relaxed))
    }

    fn state_update(entity_kind: &str, id: &str, state: &str) -> Message {
        Message::new(format!("state.{entity_kind}.{state}"), "state.update")
            .with_header("entity", id)
            .with_header("state", state)
    }

    fn publish_state(&self, entity_kind: &str, id: &str, state: &str) {
        self.publisher
            .publish(&Self::state_update(entity_kind, id, state));
    }

    /// Publish the same `state.<entity_kind>.<state>` update for many entities as
    /// one batch on the session's update bus.
    pub(crate) fn publish_states<'a>(
        &self,
        entity_kind: &str,
        ids: impl IntoIterator<Item = &'a str>,
        state: &str,
    ) {
        let msgs: Vec<Message> = ids
            .into_iter()
            .map(|id| Self::state_update(entity_kind, id, state))
            .collect();
        self.publisher.publish_batch(&msgs);
    }

    /// Queue entity lifecycles on the worker pool. Admitted tasks wait in their
    /// scheduler's lane until a placement role is free; every other job starts on a
    /// worker right away.
    pub fn submit(self: &Arc<Self>, jobs: impl IntoIterator<Item = Job>) {
        let spawn = self.pool.push(jobs.into_iter().map(|job| {
            let lane = job.lane();
            (job, lane)
        }));
        self.spawn_workers(spawn);
    }

    /// Close the pool and wait until every queued and running job has finished and
    /// every worker has exited. Jobs submitted afterwards still run, on workers that
    /// exit when idle (a later call joins them). A job's panic is contained (see the
    /// module docs); a worker that died outside a job re-raises its panic here.
    pub fn join_all(&self) {
        if let Some(payload) = self.pool.close_and_join() {
            if !std::thread::panicking() {
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Number of worker threads spawned over the executor's life. Workers are reused
    /// across jobs, so this is bounded by the peak number of concurrently live
    /// entities (plus placement roles), not by the number of entities submitted.
    pub fn spawned_count(&self) -> usize {
        self.pool.spawned()
    }

    fn spawn_workers(self: &Arc<Self>, spawn: Spawn) {
        for live in (spawn.first_live..).take(spawn.count) {
            let this = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name("executor-worker".into())
                .spawn(move || this.work())
                .expect("failed to spawn executor worker");
            self.pool.adopt(handle);
            self.metrics.record_scalar("executor.workers", live as f64);
        }
    }

    /// A worker's life: take jobs until the pool closes.
    fn work(self: Arc<Self>) {
        let mut shift = Shift::spawned();
        while let Some(job) = self.pool.next(&mut shift) {
            self.run_job(job, &mut shift);
        }
    }

    fn run_job(self: &Arc<Self>, job: Job, shift: &mut Shift) {
        let Job {
            entity,
            scheduler,
            admission,
        } = job;
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| match entity.clone() {
            Entity::Service(record) => self.run_service(record, scheduler.clone()),
            Entity::Task(record) => self.run_task(record, scheduler.clone(), admission, shift),
            #[cfg(test)]
            Entity::PanickingTask(record) => {
                let scheduler = scheduler.as_ref().expect("admitted jobs carry a scheduler");
                let (ticket, _) = admission.expect("an admitted job");
                *record.slot.lock() = scheduler
                    .allocate_admitted(ticket, DEPENDENCY_TIMEOUT)
                    .ok()
                    .map(|(slot, _)| slot);
                panic!("injected panic in {}", record.id);
            }
        }));
        if let Err(payload) = run {
            self.metrics.record_scalar("executor.panics", 1.0);
            self.contain_panic(entity, scheduler, &*payload);
        }
        // A job that failed or panicked before leaving placement hands the role on
        // here, so its lane's FIFO keeps moving.
        self.leave_placement(shift);
    }

    /// Fail the entity of a panicked job and release the slot it holds.
    fn contain_panic(
        &self,
        entity: Entity,
        scheduler: Option<Arc<Scheduler>>,
        payload: &(dyn Any + Send),
    ) {
        let reason = format!("panicked: {}", panic_message(payload));
        let slot = match entity {
            Entity::Service(record) => {
                if !record.state.current().is_final() {
                    record.state.fail(ServiceState::Failed, reason);
                    self.publish_state("service", &record.id, "Failed");
                }
                record.slot.lock().clone()
            }
            Entity::Task(record) => {
                if !record.state.current().is_final() {
                    record.state.fail(TaskState::Failed, reason);
                    self.publish_state("task", &record.id, "Failed");
                }
                record.slot.lock().clone()
            }
            #[cfg(test)]
            Entity::PanickingTask(record) => {
                return self.contain_panic(Entity::Task(record), scheduler, payload);
            }
        };
        // A slot the job already released reports `UnknownSlot` without side
        // effects, so releasing unconditionally never double-credits capacity.
        if let (Some(slot), Some(scheduler)) = (slot, scheduler) {
            let _ = scheduler.release(&slot);
        }
    }

    fn leave_placement(self: &Arc<Self>, shift: &mut Shift) {
        let spawn = self.pool.leave_placement(shift);
        self.spawn_workers(spawn);
    }

    // ------------------------------------------------------------------ services

    fn run_service(&self, record: Arc<ServiceRecord>, scheduler: Option<Arc<Scheduler>>) {
        if let Err(e) = self.run_service_inner(&record, scheduler) {
            if !record.state.current().is_final() {
                record.state.fail(ServiceState::Failed, e.to_string());
            }
            self.publish_state("service", &record.id, "Failed");
        }
    }

    fn run_service_inner(
        &self,
        record: &Arc<ServiceRecord>,
        scheduler: Option<Arc<Scheduler>>,
    ) -> Result<(), RuntimeError> {
        let desc = &record.description;
        let platform_spec = record.platform.spec();
        let is_local = matches!(desc.placement, ServicePlacement::LocalPilot);

        // ② scheduling / placement.
        record.state.transition(ServiceState::Scheduling)?;
        self.publish_state("service", &record.id, "Scheduling");
        let slot = if is_local {
            let scheduler = scheduler.ok_or_else(|| {
                RuntimeError::InvalidState("local service submitted without an active pilot".into())
            })?;
            let wait_start = Instant::now();
            let (slot, _) =
                scheduler.allocate(&desc.resources, Priority::Service, DEPENDENCY_TIMEOUT)?;
            self.metrics.record_scalar(
                "service.placement_wait_secs",
                wait_start.elapsed().as_secs_f64(),
            );
            *record.slot.lock() = Some(slot.clone());
            Some((scheduler, slot))
        } else {
            None
        };

        // ③ launch the service executable on its target resources.
        record.state.transition(ServiceState::Launching)?;
        self.publish_state("service", &record.id, "Launching");
        let mut rng = StdRng::seed_from_u64(self.next_seed());
        let launch_watch = Stopwatch::start(Arc::clone(&self.clock));
        let in_flight = self.concurrent_launches.fetch_add(1, Ordering::AcqRel) + 1;
        let launch_model = platform_spec.launcher.model();
        let launch_duration = launch_model.sample_launch(in_flight, &mut rng);
        self.clock.sleep(launch_duration);
        let launch_secs = launch_watch.elapsed_secs();

        // ⑤ instantiate the ML capability: load + initialise the model replicas.
        record.state.transition(ServiceState::Initializing)?;
        let init_result = (|| -> Result<(Vec<Arc<ModelHost>>, f64), RuntimeError> {
            let init_watch = Stopwatch::start(Arc::clone(&self.clock));
            let replicas = desc.serving.replicas.max(1);
            let hosts: Vec<Arc<ModelHost>> = (0..replicas)
                .map(|_| {
                    Arc::new(ModelHost::from_spec(
                        desc.model.clone(),
                        Arc::clone(&self.clock),
                        self.next_seed(),
                    ))
                })
                .collect();
            if let Some((_, slot)) = &slot {
                if slot.num_gpus() > 0 {
                    // All replicas host the same model spec; one fit check covers the
                    // whole gang (member nodes are homogeneous within a platform).
                    hosts[0]
                        .check_gpu_fit(platform_spec.node.gpu_mem_gib)
                        .map_err(|e| RuntimeError::Failed(e.to_string()))?;
                }
            }
            if hosts.len() == 1 {
                hosts[0].load();
            } else {
                // Replicas load in parallel on their gang members, so init time is the
                // slowest load, not the sum.
                let loaders: Vec<std::thread::JoinHandle<()>> = hosts
                    .iter()
                    .map(|h| {
                        let h = Arc::clone(h);
                        std::thread::spawn(move || {
                            h.load();
                        })
                    })
                    .collect();
                for loader in loaders {
                    let _ = loader.join();
                }
            }
            Ok((hosts, init_watch.elapsed_secs()))
        })();
        let (hosts, init_secs) = match init_result {
            Ok(v) => v,
            Err(e) => {
                self.concurrent_launches.fetch_sub(1, Ordering::AcqRel);
                if let Some((scheduler, slot)) = &slot {
                    let _ = scheduler.release(slot);
                }
                return Err(e);
            }
        };

        // ④ publish the service endpoint.
        record.state.transition(ServiceState::Publishing)?;
        let publish_watch = Stopwatch::start(Arc::clone(&self.clock));
        let endpoint = ReqRepServer::new(record.endpoint_name());
        let mut metadata = BTreeMap::new();
        metadata.insert(META_MODEL.to_string(), desc.model.name.clone());
        metadata.insert(
            META_PLATFORM.to_string(),
            record.platform.short_name().to_string(),
        );
        metadata.insert(META_SERVICE_ID.to_string(), record.id.clone());
        let publish_overhead = self.publish_overhead.sample(&mut rng).max(0.0);
        self.clock.sleep(Duration::from_secs_f64(publish_overhead));
        let register_result =
            self.registry
                .register(record.endpoint_name(), endpoint.handle(), metadata);
        self.concurrent_launches.fetch_sub(1, Ordering::AcqRel);
        if let Err(e) = register_result {
            if let Some((scheduler, slot)) = &slot {
                let _ = scheduler.release(slot);
            }
            return Err(RuntimeError::Comm(e));
        }
        let publish_secs = publish_watch.elapsed_secs();

        // Record the bootstrap breakdown before announcing readiness so that waiters
        // woken by the Ready transition always observe it (local ephemeral services
        // only — remote models are persistent and are not bootstrapped per
        // application, §IV).
        let bootstrap = BootstrapTimes {
            launch_secs,
            init_secs,
            publish_secs,
        };
        *record.bootstrap.lock() = Some(bootstrap);
        if is_local {
            self.metrics.record_bootstrap(&record.id, bootstrap);
        }
        record.state.transition(ServiceState::Ready)?;
        self.publish_state("service", &record.id, "Ready");

        // Serve until asked to stop. Serving-plane metrics flow into the runtime
        // metrics store alongside the task/service scalars.
        let metrics = Arc::clone(&self.metrics);
        let sink: hpcml_sim::metrics::SharedSink =
            Arc::new(move |name: &str, value: f64| metrics.record_scalar(name, value));
        let service = InferenceService::with_config(
            record.description.name.clone(),
            hosts,
            Arc::clone(&self.clock),
            self.next_seed(),
            desc.serving.clone(),
            sink,
        );
        let served = service.serve(&endpoint, &record.stop);
        *record.requests_served.lock() = served;

        // Orderly teardown.
        self.registry.unregister(&record.endpoint_name());
        if record.state.current() == ServiceState::Ready {
            record.state.transition(ServiceState::Stopping)?;
        }
        if record.state.current() == ServiceState::Stopping {
            record.state.transition(ServiceState::Stopped)?;
        }
        self.publish_state("service", &record.id, "Stopped");
        if let Some((scheduler, slot)) = &slot {
            scheduler.release(slot)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------ tasks

    fn run_task(
        self: &Arc<Self>,
        record: Arc<TaskRecord>,
        scheduler: Option<Arc<Scheduler>>,
        mut admission: Option<(AdmissionTicket, Instant)>,
        shift: &mut Shift,
    ) {
        // Retry loop for node-failure evictions: a task that lost its slot re-enters
        // scheduling (at the front of its wait queue) up to `max_retries` times, with
        // exponential backoff on the session clock between attempts. Any other error
        // — and an eviction once the budget is spent — fails the task.
        let mut attempt = 0u32;
        loop {
            let err = match self.run_task_inner(
                &record,
                scheduler.as_ref(),
                attempt > 0,
                admission.take(),
                shift,
            ) {
                Ok(()) => return,
                Err(e) => e,
            };
            let evicted = matches!(err, RuntimeError::Resource(ResourceError::NodeFailed(_)));
            if evicted && attempt < record.description.max_retries {
                attempt += 1;
                record.retries.fetch_add(1, Ordering::Relaxed);
                self.metrics.record_scalar("task.retries", 1.0);
                self.publish_state("task", &record.id, "Scheduling");
                let backoff = RETRY_BACKOFF_BASE_SECS * f64::from(1u32 << (attempt - 1).min(16));
                self.clock.sleep(Duration::from_secs_f64(backoff));
                continue;
            }
            if !record.state.current().is_final() {
                record.state.fail(TaskState::Failed, err.to_string());
            }
            self.publish_state("task", &record.id, "Failed");
            return;
        }
    }

    fn run_task_inner(
        self: &Arc<Self>,
        record: &Arc<TaskRecord>,
        scheduler: Option<&Arc<Scheduler>>,
        requeue: bool,
        admission: Option<(AdmissionTicket, Instant)>,
        shift: &mut Shift,
    ) -> Result<(), RuntimeError> {
        let desc = record.description.clone();

        // An admitted task entered Scheduling at admission and has no readiness
        // relations (only dependency-free tasks are batch-admitted).
        if admission.is_none() {
            record.state.transition(TaskState::Scheduling)?;
            self.publish_state("task", &record.id, "Scheduling");

            // Readiness relations: every service named in `after_services` must have
            // published its endpoint before this task starts.
            for service_name in &desc.after_services {
                self.registry
                    .wait_for(&format!("service.{service_name}"), DEPENDENCY_TIMEOUT)
                    .map_err(RuntimeError::Comm)?;
            }
        }

        let scheduler = scheduler.ok_or_else(|| {
            RuntimeError::InvalidState("task submitted without an active pilot".into())
        })?;
        // A retry after a node failure re-enters its wait queue at the front: the
        // task already waited its turn before the eviction. A batch-admitted task
        // consumes its ticket instead of enqueueing again (first attempt only), and
        // its wait — and placement deadline — count from admission.
        let (wait_start, (slot, placement)) = if let Some((ticket, admitted_at)) = admission {
            let timeout = DEPENDENCY_TIMEOUT.saturating_sub(admitted_at.elapsed());
            let placed = scheduler.allocate_admitted(ticket, timeout);
            self.leave_placement(shift);
            (admitted_at, placed?)
        } else if requeue {
            let wait_start = Instant::now();
            let placed = scheduler.requeue(&desc.resources, Priority::Task, DEPENDENCY_TIMEOUT)?;
            (wait_start, placed)
        } else {
            let wait_start = Instant::now();
            let placed = scheduler.allocate(&desc.resources, Priority::Task, DEPENDENCY_TIMEOUT)?;
            (wait_start, placed)
        };
        *record.slot.lock() = Some(slot.clone());
        let wait_secs = wait_start.elapsed().as_secs_f64();
        self.metrics
            .record_scalar("task.placement_wait_secs", wait_secs);
        if slot.is_gang() {
            // Gang placements queue for multi-node capacity, so their behaviour is
            // tracked separately from single-node placement waits — including how
            // often narrower requests overtook the gang, how many members landed on
            // partially free nodes (co-resident with other slots), and how long the
            // gang spent in backfill-draining mode before enough nodes were reserved
            // (recorded whether the reservation completed via idle transitions or
            // via partial-headroom pinning).
            self.metrics
                .record_scalar("task.gang.placement_wait_secs", wait_secs);
            self.metrics
                .record_scalar("task.gang.nodes", slot.num_nodes() as f64);
            self.metrics
                .record_scalar("task.gang.partial_nodes", slot.partial_nodes() as f64);
            self.metrics
                .record_scalar("task.gang.overtakes", placement.overtakes as f64);
            if let Some(drain_secs) = placement.drain_secs {
                self.metrics
                    .record_scalar("task.gang.drain_secs", drain_secs);
            }
        }

        let finish = |result: Result<(), RuntimeError>| -> Result<(), RuntimeError> {
            match scheduler.release(&slot) {
                Ok(()) => result,
                // The node died after the work completed: the eviction already
                // reclaimed the slot's resources, so the task's outcome stands.
                Err(RuntimeError::Resource(ResourceError::NodeFailed(_))) if result.is_ok() => {
                    result
                }
                Err(e) => Err(e),
            }
        };

        // Input staging.
        if !desc.stage_in.is_empty() {
            record.state.transition(TaskState::StagingInput)?;
            self.data.stage_all(&desc.stage_in);
        }

        // Execution.
        record.state.transition(TaskState::Executing)?;
        self.publish_state("task", &record.id, "Executing");
        let exec_watch = Stopwatch::start(Arc::clone(&self.clock));
        let exec_result = self.execute_kind(record, &desc.kind);
        self.metrics
            .record_scalar("task.exec_secs", exec_watch.elapsed_secs());
        if let Err(e) = exec_result {
            return finish(Err(e));
        }

        // Node-failure detection: the slot may have been evicted while the task ran,
        // in which case the work is lost and the task must be requeued. Release
        // retires the evicted slot and reports which node failed.
        if scheduler.slot_lost(&slot) {
            return Err(scheduler.release(&slot).err().unwrap_or_else(|| {
                RuntimeError::Resource(ResourceError::NodeFailed(slot.node_index()))
            }));
        }

        // Output staging.
        if !desc.stage_out.is_empty() {
            record.state.transition(TaskState::StagingOutput)?;
            self.data.stage_all(&desc.stage_out);
        }

        record.state.transition(TaskState::Done)?;
        self.publish_state("task", &record.id, "Done");
        // The job ends with this release, which may hand a placement role on:
        // offer this worker to that hand-off instead of a new thread.
        self.pool.announce_return(shift);
        finish(Ok(()))
    }

    fn execute_kind(&self, record: &Arc<TaskRecord>, kind: &TaskKind) -> Result<(), RuntimeError> {
        match kind {
            TaskKind::Noop => Ok(()),
            TaskKind::Compute { duration_secs } => {
                let mut rng = StdRng::seed_from_u64(self.next_seed());
                let duration = duration_secs.sample_secs(&mut rng);
                self.clock.sleep(duration);
                Ok(())
            }
            TaskKind::InferenceClient {
                selector,
                requests,
                prompt_words,
                max_tokens,
                think_time_secs,
            } => self.run_inference_client(
                record,
                selector,
                *requests,
                *prompt_words,
                *max_tokens,
                think_time_secs,
            ),
        }
    }

    fn resolve_targets(
        &self,
        selector: &ServiceSelector,
    ) -> Result<Vec<EndpointEntry>, RuntimeError> {
        match selector {
            ServiceSelector::Named(names) => {
                let mut entries = Vec::with_capacity(names.len());
                for name in names {
                    let entry = self
                        .registry
                        .wait_for(&format!("service.{name}"), DEPENDENCY_TIMEOUT)
                        .map_err(RuntimeError::Comm)?;
                    entries.push(entry);
                }
                Ok(entries)
            }
            ServiceSelector::ByModel(model) => {
                let deadline = Instant::now() + DEPENDENCY_TIMEOUT;
                loop {
                    let entries = self.registry.find_by_metadata(META_MODEL, model);
                    if !entries.is_empty() {
                        return Ok(entries);
                    }
                    if Instant::now() >= deadline {
                        return Err(RuntimeError::Comm(hpcml_comm::CommError::EndpointNotFound(
                            format!("no service hosting model {model}"),
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            ServiceSelector::Any => {
                let deadline = Instant::now() + DEPENDENCY_TIMEOUT;
                loop {
                    let names = self.registry.names();
                    if !names.is_empty() {
                        return Ok(names
                            .iter()
                            .filter_map(|n| self.registry.lookup(n))
                            .collect());
                    }
                    if Instant::now() >= deadline {
                        return Err(RuntimeError::Comm(hpcml_comm::CommError::EndpointNotFound(
                            "no service registered".to_string(),
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// The network link between a client task and a service endpoint: intra-platform
    /// latency when both sit on the same platform, WAN latency otherwise (the paper's
    /// local vs remote deployment scenarios).
    fn client_link(&self, task_platform: PlatformId, entry: &EndpointEntry, seed: u64) -> Link {
        let spec = task_platform.spec();
        let service_platform = entry
            .metadata
            .get(META_PLATFORM)
            .map(String::as_str)
            .unwrap_or("");
        let profile = if service_platform == task_platform.short_name() {
            spec.intra_latency
        } else {
            spec.wan_latency
        };
        Link::new(
            format!("{}->{}", task_platform.short_name(), service_platform),
            Arc::clone(&self.clock),
            profile,
            seed,
        )
    }

    fn run_inference_client(
        &self,
        record: &Arc<TaskRecord>,
        selector: &ServiceSelector,
        requests: u32,
        prompt_words: u32,
        max_tokens: u32,
        think_time: &Dist,
    ) -> Result<(), RuntimeError> {
        let entries = self.resolve_targets(selector)?;
        let mut rng = StdRng::seed_from_u64(self.next_seed());
        let clients: Vec<(String, hpcml_comm::ReqRepClient)> = entries
            .iter()
            .map(|entry| {
                let link = self.client_link(record.platform, entry, self.next_seed());
                (entry.name.clone(), entry.handle.connect(link))
            })
            .collect();
        if clients.is_empty() {
            return Err(RuntimeError::Failed(
                "inference client has no target services".into(),
            ));
        }

        let prompt: String = {
            let mut words = Vec::with_capacity(prompt_words as usize);
            for i in 0..prompt_words {
                words.push(format!("w{i}"));
            }
            words.join(" ")
        };

        // Stagger the round-robin starting point per client so that concurrent clients
        // do not hit the same service in lockstep (rudimentary load balancing, as in
        // the paper's prototype).
        let start_offset = (self.seed_counter.load(Ordering::Relaxed) as usize) % clients.len();
        let mut errors = 0u32;
        for i in 0..requests {
            let (endpoint_name, client) = &clients[(start_offset + i as usize) % clients.len()];
            let request =
                InferenceRequest::new(prompt.clone(), max_tokens).from_client(record.id.clone());
            let request_id = request.request_id.clone();
            let watch = Stopwatch::start(Arc::clone(&self.clock));
            let mut reply = client
                .request(inference_request_message(endpoint_name, &request))
                .map_err(RuntimeError::Comm)?;
            // An overloaded service sheds instead of queueing past the deadline; honor
            // its retry-after hint a bounded number of times on the virtual clock.
            let mut shed_retries = 0u32;
            while reply.kind == KIND_SHED && shed_retries < MAX_SHED_RETRIES {
                shed_retries += 1;
                self.metrics.record_scalar("client.shed_retries", 1.0);
                let retry_after = reply
                    .f64_header(HDR_RETRY_AFTER_SECS)
                    .unwrap_or(0.1)
                    .max(0.001);
                self.clock.sleep(Duration::from_secs_f64(retry_after));
                reply = client
                    .request(inference_request_message(endpoint_name, &request))
                    .map_err(RuntimeError::Comm)?;
            }
            let response_secs = watch.elapsed_secs();
            if reply.kind == KIND_ERROR || reply.kind == KIND_SHED {
                errors += 1;
                self.metrics.record_scalar("client.error_replies", 1.0);
                continue;
            }
            let service_secs = reply.f64_header(HDR_SERVICE_SECS).unwrap_or(0.0);
            let inference_secs = reply.f64_header(HDR_INFERENCE_SECS).unwrap_or(0.0);
            let communication_secs = (response_secs - service_secs - inference_secs).max(0.0);
            self.metrics.record_response(
                &request_id,
                communication_secs,
                service_secs,
                inference_secs,
            );
            let pause = think_time.sample_secs(&mut rng);
            if !pause.is_zero() {
                self.clock.sleep(pause);
            }
        }
        if errors == requests && requests > 0 {
            return Err(RuntimeError::Failed(format!(
                "all {requests} inference requests failed"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::{ServiceDescription, TaskDescription};
    use hpcml_platform::batch::{AllocationRequest, BatchSystem};
    use hpcml_serving::ModelSpec;
    use hpcml_sim::clock::ClockSpec;

    struct Fixture {
        clock: SharedClock,
        metrics: Arc<RuntimeMetrics>,
        registry: Arc<EndpointRegistry>,
        executor: Arc<Executor>,
        scheduler: Arc<Scheduler>,
    }

    impl Fixture {
        fn start_service(&self, record: &Arc<ServiceRecord>) {
            self.executor.submit([Job::service(
                Arc::clone(record),
                Some(Arc::clone(&self.scheduler)),
            )]);
        }

        fn start_task(&self, record: &Arc<TaskRecord>) {
            self.executor.submit([Job::task(
                Arc::clone(record),
                Some(Arc::clone(&self.scheduler)),
            )]);
        }
    }

    fn fixture(platform: PlatformId, nodes: usize, scale: f64) -> Fixture {
        let clock = ClockSpec::scaled(scale).build();
        let metrics = RuntimeMetrics::new();
        let registry = Arc::new(EndpointRegistry::new());
        let data = Arc::new(DataManager::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            1,
        ));
        let executor = Executor::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            Arc::clone(&registry),
            data,
            Publisher::new(),
            42,
        );
        let batch = BatchSystem::new(platform.spec(), Arc::clone(&clock), 2);
        let alloc = batch.submit(AllocationRequest::nodes(nodes)).unwrap();
        let scheduler = Arc::new(Scheduler::new(alloc));
        Fixture {
            clock,
            metrics,
            registry,
            executor,
            scheduler,
        }
    }

    fn service_record(
        fx: &Fixture,
        name: &str,
        model: ModelSpec,
        platform: PlatformId,
    ) -> Arc<ServiceRecord> {
        ServiceRecord::new(
            format!("service.x-{name}"),
            ServiceDescription::new(name).model(model).gpus(1),
            platform,
            Arc::clone(&fx.clock),
        )
    }

    #[test]
    fn local_service_bootstraps_and_serves() {
        // Delta: MPI/PRRTE launcher, so launch (~2 s) clearly exceeds publish (~0.35 s).
        let fx = fixture(PlatformId::Delta, 1, 2000.0);
        let record = service_record(&fx, "llm-0", ModelSpec::sim_llama_8b(), PlatformId::Delta);
        fx.start_service(&record);

        // Wait for readiness.
        record
            .state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();
        let bt = record.bootstrap.lock().unwrap();
        assert!(bt.init_secs > bt.launch_secs, "init {bt:?} must dominate");
        assert!(
            bt.publish_secs < bt.launch_secs,
            "publish must stay below launch: {bt:?}"
        );
        assert_eq!(fx.metrics.bootstrap_count(), 1);
        assert!(fx.registry.lookup("service.llm-0").is_some());

        // Stop and verify teardown.
        record.request_stop();
        fx.executor.join_all();
        assert_eq!(record.state.current(), ServiceState::Stopped);
        assert!(fx.registry.lookup("service.llm-0").is_none());
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn service_fails_when_model_does_not_fit_gpu() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0); // local GPUs have 16 GiB
        let record = service_record(&fx, "big", ModelSpec::sim_llama_70b(), PlatformId::Local);
        fx.start_service(&record);
        let state = record
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(30));
        assert!(state.is_err() || state.unwrap() == ServiceState::Failed);
        assert_eq!(record.state.current(), ServiceState::Failed);
        assert!(record.state.error().unwrap().contains("GPU"));
        fx.executor.join_all();
        // The slot must have been released on failure.
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn duplicate_endpoint_name_fails_second_service() {
        let fx = fixture(PlatformId::Local, 2, 10_000.0);
        let a = service_record(&fx, "dup", ModelSpec::noop(), PlatformId::Local);
        let b = service_record(&fx, "dup", ModelSpec::noop(), PlatformId::Local);
        fx.start_service(&a);
        a.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(20))
            .unwrap();
        fx.start_service(&b);
        let _ = b
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(20));
        assert_eq!(b.state.current(), ServiceState::Failed);
        a.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn noop_task_and_compute_task_complete() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        let noop = TaskRecord::new(
            "task.noop".into(),
            TaskDescription::new("noop"),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        let compute = TaskRecord::new(
            "task.compute".into(),
            TaskDescription::new("compute")
                .kind(TaskKind::compute_secs(5.0))
                .cores(2),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        fx.start_task(&noop);
        fx.start_task(&compute);
        fx.executor.join_all();
        assert_eq!(noop.state.current(), TaskState::Done);
        assert_eq!(compute.state.current(), TaskState::Done);
        // The compute task must have spent its virtual 5 seconds.
        let exec = fx.metrics.scalar_values("task.exec_secs");
        assert!(exec.iter().any(|v| *v >= 4.5), "exec times {exec:?}");
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }

    #[test]
    fn panicking_job_fails_its_task_releases_its_slot_and_hands_the_role_on() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        // Both tasks need the whole node, so the second places only once the
        // panicking job's slot is released, and only through the lane's single
        // placement role (lookahead 1), which the panic must hand on.
        let task = |name: &str| {
            TaskRecord::new(
                format!("task.{name}"),
                TaskDescription::new(name)
                    .kind(TaskKind::compute_secs(1.0))
                    .cores(8),
                PlatformId::Local,
                Arc::clone(&fx.clock),
            )
        };
        let (doomed, next) = (task("doomed"), task("next"));
        let req = next.description.resources;
        let mut tickets = fx
            .scheduler
            .submit_batch(&[(req, Priority::Task), (req, Priority::Task)])
            .unwrap()
            .into_iter();
        for record in [&doomed, &next] {
            record.state.transition(TaskState::Scheduling).unwrap();
        }
        fx.executor.submit([
            Job {
                entity: Entity::PanickingTask(Arc::clone(&doomed)),
                scheduler: Some(Arc::clone(&fx.scheduler)),
                admission: Some((tickets.next().unwrap(), Instant::now())),
            },
            Job::admitted(
                Arc::clone(&next),
                Arc::clone(&fx.scheduler),
                tickets.next().unwrap(),
            ),
        ]);
        next.state
            .wait_until(|s| s == TaskState::Done, Duration::from_secs(30))
            .unwrap();
        fx.executor.join_all();
        assert_eq!(doomed.state.current(), TaskState::Failed);
        let error = doomed.state.error().unwrap();
        assert!(error.contains("injected panic"), "error: {error}");
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
        assert_eq!(fx.metrics.scalar_values("executor.panics"), vec![1.0]);
    }

    #[test]
    fn task_without_pilot_fails() {
        let fx = fixture(PlatformId::Local, 1, 10_000.0);
        let t = TaskRecord::new(
            "task.nopilot".into(),
            TaskDescription::new("t"),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        fx.executor.submit([Job::task(Arc::clone(&t), None)]);
        fx.executor.join_all();
        assert_eq!(t.state.current(), TaskState::Failed);
        assert!(t.state.error().unwrap().contains("pilot"));
    }

    #[test]
    fn inference_client_records_response_breakdown() {
        let fx = fixture(PlatformId::Local, 2, 2000.0);
        let svc = service_record(&fx, "noop-0", ModelSpec::noop(), PlatformId::Local);
        fx.start_service(&svc);

        let client = TaskRecord::new(
            "task.client".into(),
            TaskDescription::new("client")
                .kind(TaskKind::inference_client("noop-0", 10))
                .after_service("noop-0"),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        fx.start_task(&client);
        client
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(60))
            .unwrap();
        assert_eq!(client.state.current(), TaskState::Done);
        assert_eq!(fx.metrics.response_count(), 10);
        let summaries = fx.metrics.response_summaries();
        // NOOP: communication dominates inference (which is zero).
        assert!(summaries["communication"].mean > summaries["inference"].mean);
        svc.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn inference_client_selects_services_by_model() {
        let fx = fixture(PlatformId::Local, 2, 2000.0);
        let a = service_record(&fx, "noop-a", ModelSpec::noop(), PlatformId::Local);
        let b = service_record(&fx, "noop-b", ModelSpec::noop(), PlatformId::Local);
        fx.start_service(&a);
        fx.start_service(&b);
        a.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();
        b.state
            .wait_until(|s| s == ServiceState::Ready, Duration::from_secs(30))
            .unwrap();

        let entries = fx
            .executor
            .resolve_targets(&ServiceSelector::ByModel("noop".into()))
            .unwrap();
        assert_eq!(entries.len(), 2);
        let any = fx.executor.resolve_targets(&ServiceSelector::Any).unwrap();
        assert_eq!(any.len(), 2);

        a.request_stop();
        b.request_stop();
        fx.executor.join_all();
    }

    #[test]
    fn task_evicted_by_node_failure_retries_and_completes() {
        let fx = fixture(PlatformId::Local, 2, 1000.0);
        let task = TaskRecord::new(
            "task.retry".into(),
            TaskDescription::new("retry")
                .kind(TaskKind::compute_secs(60.0))
                .cores(8)
                .max_retries(2),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        fx.start_task(&task);
        task.state
            .wait_until(|s| s == TaskState::Executing, Duration::from_secs(10))
            .unwrap();
        let node = task.slot.lock().as_ref().unwrap().node_index();
        fx.scheduler.allocation().fail_node(node).unwrap();
        task.state
            .wait_until(|s| s == TaskState::Done, Duration::from_secs(60))
            .unwrap();
        fx.executor.join_all();
        assert_eq!(
            task.retries.load(Ordering::Relaxed),
            1,
            "one eviction, one retry"
        );
        assert_eq!(fx.metrics.scalar_values("task.retries").len(), 1);
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
        // The replacement attempt must have avoided the failed node.
        let placed = task.slot.lock().as_ref().unwrap().node_index();
        assert_ne!(placed, node);
    }

    #[test]
    fn eviction_without_retry_budget_fails_the_task() {
        let fx = fixture(PlatformId::Local, 1, 1000.0);
        let task = TaskRecord::new(
            "task.noretry".into(),
            TaskDescription::new("noretry")
                .kind(TaskKind::compute_secs(60.0))
                .cores(8),
            PlatformId::Local,
            Arc::clone(&fx.clock),
        );
        fx.start_task(&task);
        task.state
            .wait_until(|s| s == TaskState::Executing, Duration::from_secs(10))
            .unwrap();
        let node = task.slot.lock().as_ref().unwrap().node_index();
        fx.scheduler.allocation().fail_node(node).unwrap();
        let _ = task
            .state
            .wait_until(|s| s.is_final(), Duration::from_secs(60));
        fx.executor.join_all();
        assert_eq!(task.state.current(), TaskState::Failed);
        assert!(
            task.state.error().unwrap().contains("failed"),
            "error must name the node failure: {:?}",
            task.state.error()
        );
        assert_eq!(task.retries.load(Ordering::Relaxed), 0);
        assert_eq!(fx.scheduler.outstanding_slots(), 0);
    }
}
