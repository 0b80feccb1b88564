//! The task manager: tracking ordinary compute tasks.
//!
//! RADICAL-Pilot's `TaskManager` owns the lifecycle of submitted tasks; in this
//! reproduction it is the directory of [`TaskRecord`]s the session has accepted, with
//! aggregate queries (state counts, bulk waiting) used both by the workflow layer and by
//! the experiment harness to detect workload completion.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::error::RuntimeError;
use crate::records::TaskRecord;
use crate::states::TaskState;

/// Directory of all tasks known to a session.
#[derive(Default)]
pub struct TaskManager {
    tasks: RwLock<BTreeMap<String, Arc<TaskRecord>>>,
}

impl std::fmt::Debug for TaskManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskManager")
            .field("tasks", &self.len())
            .finish()
    }
}

impl TaskManager {
    /// Create an empty task manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a task record.
    pub fn add(&self, record: Arc<TaskRecord>) {
        self.tasks.write().insert(record.id.clone(), record);
    }

    /// Look a task up by its runtime identifier.
    pub fn get(&self, id: &str) -> Option<Arc<TaskRecord>> {
        self.tasks.read().get(id).cloned()
    }

    /// All known task identifiers.
    pub fn ids(&self) -> Vec<String> {
        self.tasks.read().keys().cloned().collect()
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.read().len()
    }

    /// True if no task has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count of tasks currently in each state.
    pub fn state_counts(&self) -> BTreeMap<TaskState, usize> {
        let mut counts = BTreeMap::new();
        for record in self.tasks.read().values() {
            *counts.entry(record.state.current()).or_insert(0) += 1;
        }
        counts
    }

    /// Number of tasks in a terminal state.
    pub fn finished(&self) -> usize {
        self.tasks
            .read()
            .values()
            .filter(|r| r.state.current().is_final())
            .count()
    }

    /// Block until every registered task reached a terminal state or `timeout`
    /// elapses, waiting on each record's state in turn (no polling). Tasks
    /// registered during the wait are waited for too. Returns the per-state counts.
    pub fn wait_all(&self, timeout: Duration) -> Result<BTreeMap<TaskState, usize>, RuntimeError> {
        let deadline = Instant::now() + timeout;
        loop {
            let (registered, pending): (usize, Vec<Arc<TaskRecord>>) = {
                let tasks = self.tasks.read();
                let pending = tasks
                    .values()
                    .filter(|r| !r.state.current().is_final())
                    .cloned()
                    .collect();
                (tasks.len(), pending)
            };
            for record in pending {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if record
                    .state
                    .wait_until(TaskState::is_final, remaining)
                    .is_err()
                {
                    return Err(RuntimeError::WaitTimeout {
                        entity: "task manager".to_string(),
                        awaited: "all tasks final".to_string(),
                    });
                }
            }
            // Final states are absorbing, so only tasks added meanwhile can be
            // pending now.
            if self.len() == registered {
                return Ok(self.state_counts());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::TaskDescription;
    use hpcml_platform::PlatformId;
    use hpcml_sim::clock::ClockSpec;
    use std::thread;

    fn record(id: &str) -> Arc<TaskRecord> {
        TaskRecord::new(
            id.to_string(),
            TaskDescription::new(id),
            PlatformId::Local,
            ClockSpec::Manual.build(),
        )
    }

    #[test]
    fn add_get_and_counts() {
        let tm = TaskManager::new();
        assert!(tm.is_empty());
        let a = record("task.0");
        let b = record("task.1");
        tm.add(Arc::clone(&a));
        tm.add(Arc::clone(&b));
        assert_eq!(tm.len(), 2);
        assert_eq!(tm.ids(), vec!["task.0".to_string(), "task.1".to_string()]);
        assert!(tm.get("task.0").is_some());
        assert!(tm.get("task.9").is_none());
        assert_eq!(tm.state_counts()[&TaskState::New], 2);
        assert_eq!(tm.finished(), 0);
    }

    #[test]
    fn wait_all_returns_when_tasks_finish() {
        let tm = Arc::new(TaskManager::new());
        let a = record("task.0");
        tm.add(Arc::clone(&a));
        let tm2 = Arc::clone(&tm);
        let waiter = thread::spawn(move || tm2.wait_all(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        a.state.transition(TaskState::Scheduling).unwrap();
        a.state.transition(TaskState::Executing).unwrap();
        a.state.transition(TaskState::Done).unwrap();
        let counts = waiter.join().unwrap().unwrap();
        assert_eq!(counts[&TaskState::Done], 1);
    }

    #[test]
    fn wait_all_times_out() {
        let tm = TaskManager::new();
        tm.add(record("task.0"));
        let err = tm.wait_all(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
    }

    #[test]
    fn wait_all_times_out_on_the_one_task_left_running() {
        let tm = Arc::new(TaskManager::new());
        let done = record("task.0");
        let stuck = record("task.1");
        tm.add(Arc::clone(&done));
        tm.add(Arc::clone(&stuck));
        done.state.fail(TaskState::Canceled, "not needed");
        stuck.state.transition(TaskState::Scheduling).unwrap();
        let started = std::time::Instant::now();
        let err = tm.wait_all(Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, RuntimeError::WaitTimeout { .. }));
        assert!(started.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn wait_all_covers_tasks_added_during_the_wait() {
        let tm = Arc::new(TaskManager::new());
        let first = record("task.0");
        tm.add(Arc::clone(&first));
        let tm2 = Arc::clone(&tm);
        let waiter = thread::spawn(move || tm2.wait_all(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        let late = record("task.1");
        tm.add(Arc::clone(&late));
        first.state.fail(TaskState::Failed, "broken");
        thread::sleep(Duration::from_millis(10));
        assert!(!waiter.is_finished(), "the late task is still running");
        late.state.fail(TaskState::Canceled, "stopped");
        let counts = waiter.join().unwrap().unwrap();
        assert_eq!(counts[&TaskState::Failed], 1);
        assert_eq!(counts[&TaskState::Canceled], 1);
    }

    #[test]
    fn wait_all_counts_failures_as_finished() {
        let tm = TaskManager::new();
        let a = record("task.0");
        tm.add(Arc::clone(&a));
        a.state.fail(TaskState::Failed, "broken");
        let counts = tm.wait_all(Duration::from_millis(100)).unwrap();
        assert_eq!(counts[&TaskState::Failed], 1);
        assert!(format!("{tm:?}").contains("tasks"));
    }
}
