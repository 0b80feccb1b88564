//! The executor's elastic worker pool.
//!
//! Jobs wait in the pool without a thread until a worker takes them up. There are
//! two kinds of queue:
//!
//! * the **ready** queue: jobs a worker must start right away (services, and tasks
//!   that do not hold an admission ticket);
//! * one **lane** per scheduler: batch-admitted tasks in arrival order. A lane
//!   hands out at most `window` (the scheduler's lookahead) **placement roles** at a
//!   time, always to its oldest jobs. A worker holding a role blocks in placement on
//!   its ticket, so at most `lookahead` workers block in placement, on the oldest
//!   tickets: the scheduler's serve window. Nothing the window could place is left
//!   without a thread.
//!
//! Wake-ups are counted as permits, not inferred from waiters: every runnable job
//! is covered by a *promised* worker — an idle one handed a permit, a freshly
//! spawned one, or a worker that announced it is about to finish its job
//! ([`Pool::announce_return`]). A worker is spawned only when no idle or returning
//! worker can be promised, so the number of threads tracks the peak number of
//! concurrently live entities rather than the number of jobs submitted.
//!
//! The pool lock is a leaf: no other lock is taken while it is held, and thread
//! spawning, metrics and scheduler calls all happen outside it.

use std::collections::VecDeque;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

/// Identifies a lane by the address of the scheduler its tickets belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct LaneKey {
    /// Address of the scheduler the tickets belong to.
    pub scheduler: usize,
}

/// Batch-admitted jobs of one scheduler, oldest first.
struct Lane<J> {
    key: LaneKey,
    /// How many workers may hold this lane's placement role at once.
    window: usize,
    /// Workers currently holding the role.
    placing: usize,
    queued: VecDeque<J>,
}

impl<J> Lane<J> {
    fn runnable(&self) -> usize {
        self.queued
            .len()
            .min(self.window.saturating_sub(self.placing))
    }
}

struct State<J> {
    ready: VecDeque<J>,
    lanes: Vec<Lane<J>>,
    /// Workers parked on the condvar without a permit.
    idle: usize,
    /// Permits handed to parked workers and not yet consumed.
    permits: usize,
    /// Workers promised to runnable jobs that have not yet looked for one.
    promised: usize,
    /// Workers that announced the end of their job and were not yet promised.
    returning: usize,
    /// Worker threads alive.
    live: usize,
    /// Worker threads spawned over the pool's life.
    spawned: usize,
    closed: bool,
    handles: Vec<JoinHandle<()>>,
}

impl<J> State<J> {
    fn runnable(&self) -> usize {
        self.ready.len() + self.lanes.iter().map(Lane::runnable).sum::<usize>()
    }

    /// The next job a worker may start: ready jobs first, then the oldest job of a
    /// lane with a free placement role (which the worker then holds).
    fn take(&mut self) -> Option<(J, Option<LaneKey>)> {
        if let Some(job) = self.ready.pop_front() {
            return Some((job, None));
        }
        let lane = self
            .lanes
            .iter_mut()
            .find(|l| l.placing < l.window && !l.queued.is_empty())?;
        lane.placing += 1;
        let job = lane.queued.pop_front().expect("lane checked non-empty");
        Some((job, Some(lane.key)))
    }
}

/// A worker's standing with the pool.
#[derive(Debug)]
pub(super) struct Shift {
    /// Counted in `promised`: the worker owes the pool a look for a job.
    promised: bool,
    /// Counted in `returning` (or promised through it) since `announce_return`.
    returning: bool,
    /// The lane whose placement role this worker holds.
    role: Option<LaneKey>,
}

/// Workers the caller must spawn (already counted as live by the pool).
#[must_use = "promised workers must be spawned"]
#[derive(Debug)]
pub(super) struct Spawn {
    /// Live worker count after the first spawn.
    pub first_live: usize,
    /// How many workers to spawn.
    pub count: usize,
}

/// The pool: queues plus worker accounting behind one lock.
pub(super) struct Pool<J> {
    state: Mutex<State<J>>,
    wake: Condvar,
}

impl<J> Pool<J> {
    pub fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                ready: VecDeque::new(),
                lanes: Vec::new(),
                idle: 0,
                permits: 0,
                promised: 0,
                returning: 0,
                live: 0,
                spawned: 0,
                closed: false,
                handles: Vec::new(),
            }),
            wake: Condvar::new(),
        }
    }

    /// Promise a worker to every runnable job not yet covered: hand a permit to an
    /// idle worker, else claim a returning one, else spawn.
    fn cover(&self, st: &mut State<J>) -> Spawn {
        let runnable = st.runnable();
        let first_live = st.live + 1;
        let mut count = 0;
        while st.promised < runnable {
            st.promised += 1;
            if st.idle > 0 {
                st.idle -= 1;
                st.permits += 1;
                self.wake.notify_one();
            } else if st.returning > 0 {
                st.returning -= 1;
            } else {
                st.live += 1;
                st.spawned += 1;
                count += 1;
            }
        }
        Spawn { first_live, count }
    }

    /// Queue jobs: `Some((lane, window))` puts a job in that lane, `None` in the
    /// ready queue.
    pub fn push(&self, jobs: impl IntoIterator<Item = (J, Option<(LaneKey, usize)>)>) -> Spawn {
        let mut st = self.state.lock();
        for (job, lane) in jobs {
            let Some((key, window)) = lane else {
                st.ready.push_back(job);
                continue;
            };
            let idx = match st.lanes.iter().position(|l| l.key == key) {
                Some(idx) => idx,
                None => {
                    st.lanes.push(Lane {
                        key,
                        window: window.max(1),
                        placing: 0,
                        queued: VecDeque::new(),
                    });
                    st.lanes.len() - 1
                }
            };
            st.lanes[idx].queued.push_back(job);
        }
        self.cover(&mut st)
    }

    /// Give up the placement role `shift` holds, if any, handing it to the lane's
    /// next job.
    pub fn leave_placement(&self, shift: &mut Shift) -> Spawn {
        let Some(key) = shift.role.take() else {
            return Spawn {
                first_live: 0,
                count: 0,
            };
        };
        let mut st = self.state.lock();
        let idx = st
            .lanes
            .iter()
            .position(|l| l.key == key)
            .expect("a held role keeps its lane");
        let lane = &mut st.lanes[idx];
        lane.placing -= 1;
        if lane.placing == 0 && lane.queued.is_empty() {
            st.lanes.swap_remove(idx);
        }
        self.cover(&mut st)
    }

    /// Announce that the worker's current job is about to end without blocking
    /// again, so a hand-off triggered meanwhile promises this worker instead of
    /// spawning one. The job must return promptly after announcing.
    pub fn announce_return(&self, shift: &mut Shift) {
        if !shift.returning {
            shift.returning = true;
            self.state.lock().returning += 1;
        }
    }

    /// Block until there is a job for this worker; `None` once the pool is closed
    /// and no job is runnable (the worker then exits).
    pub fn next(&self, shift: &mut Shift) -> Option<J> {
        let mut st = self.state.lock();
        if std::mem::take(&mut shift.returning) {
            // Returning workers are interchangeable: if none is left unclaimed, a
            // hand-off promised this one.
            if st.returning > 0 {
                st.returning -= 1;
            } else {
                shift.promised = true;
            }
        }
        loop {
            let taken = st.take();
            if std::mem::take(&mut shift.promised) {
                st.promised -= 1;
            }
            if let Some((job, role)) = taken {
                shift.role = role;
                return Some(job);
            }
            if st.closed {
                st.live -= 1;
                return None;
            }
            st.idle += 1;
            loop {
                self.wake.wait(&mut st);
                if st.permits > 0 {
                    st.permits -= 1;
                    shift.promised = true;
                    break;
                }
                if st.closed {
                    st.idle -= 1;
                    break;
                }
            }
        }
    }

    /// Keep a spawned worker's handle for [`Pool::close_and_join`].
    pub fn adopt(&self, handle: JoinHandle<()>) {
        self.state.lock().handles.push(handle);
    }

    /// Worker threads spawned over the pool's life.
    pub fn spawned(&self) -> usize {
        self.state.lock().spawned
    }

    /// Worker threads alive now.
    pub fn live(&self) -> usize {
        self.state.lock().live
    }

    /// Close the pool and join every worker once the queued jobs are done. Returns
    /// the panic payload of the first worker that died outside a job, if any.
    pub fn close_and_join(&self) -> Option<Box<dyn std::any::Any + Send>> {
        {
            let mut st = self.state.lock();
            st.closed = true;
            self.wake.notify_all();
        }
        let mut first_panic = None;
        loop {
            // A worker may spawn a successor during a hand-off; it adopts the handle
            // before it exits, so joining it first makes the successor visible here.
            let handles = std::mem::take(&mut self.state.lock().handles);
            if handles.is_empty() {
                return first_panic;
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    first_panic.get_or_insert(payload);
                }
            }
        }
    }
}

impl Shift {
    /// The standing of a freshly spawned worker: promised to a runnable job.
    pub fn spawned() -> Self {
        Shift {
            promised: true,
            returning: false,
            role: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lane(window: usize) -> Option<(LaneKey, usize)> {
        Some((LaneKey { scheduler: 1 }, window))
    }

    #[test]
    fn lanes_hand_out_at_most_window_roles_oldest_first() {
        let pool: Pool<u32> = Pool::new();
        let spawn = pool.push((0..5).map(|i| (i, lane(2))));
        assert_eq!(spawn.count, 2, "one worker per role of the window");
        let mut a = Shift::spawned();
        let mut b = Shift::spawned();
        assert_eq!(pool.next(&mut a), Some(0));
        assert_eq!(pool.next(&mut b), Some(1));
        // Leaving placement hands the role to the next job: a third worker.
        let spawn = pool.leave_placement(&mut a);
        assert_eq!(spawn.count, 1);
        assert_eq!(spawn.first_live, 3);
        let mut c = Shift::spawned();
        assert_eq!(pool.next(&mut c), Some(2));
    }

    #[test]
    fn a_returning_worker_is_promised_instead_of_spawning() {
        let pool: Pool<u32> = Pool::new();
        let spawn = pool.push([(0, lane(1)), (1, lane(1))]);
        assert_eq!(spawn.count, 1);
        let mut placer = Shift::spawned();
        assert_eq!(pool.next(&mut placer), Some(0));
        // Another worker is finishing its job when the placer leaves placement.
        let mut finisher = Shift {
            promised: false,
            returning: false,
            role: None,
        };
        pool.announce_return(&mut finisher);
        let spawn = pool.leave_placement(&mut placer);
        assert_eq!(spawn.count, 0, "the returning worker covers the hand-off");
        assert_eq!(pool.next(&mut finisher), Some(1));
        assert_eq!(pool.spawned(), 1);
    }

    #[test]
    fn ready_jobs_and_close() {
        let pool: Pool<u32> = Pool::new();
        let spawn = pool.push([(7, None)]);
        assert_eq!((spawn.first_live, spawn.count), (1, 1));
        let mut w = Shift::spawned();
        assert_eq!(pool.next(&mut w), Some(7));
        assert_eq!(pool.live(), 1);
        assert!(pool.close_and_join().is_none());
        assert_eq!(
            pool.next(&mut w),
            None,
            "closed and drained: the worker exits"
        );
        assert_eq!(pool.live(), 0);
    }
}
