//! Conservative parallel execution of one simulation across N shards.
//!
//! The topology tree is partitioned at *link* boundaries: every PCIe link
//! has nonzero serialization + propagation latency, so a TLP (or DLLP)
//! that crosses a cut cannot arrive sooner than that link's **lookahead
//! horizon** `h = tx_time(min wire unit) + propagation`. That bound is
//! what makes conservative synchronization possible (MGSim-style null
//! messages degenerate to a global window here because the fabric is a
//! tree): if every shard has processed all events below tick `T`, no
//! cross-shard message can be pending for any tick below `T + Δ`, where
//! `Δ = min h` over all cut edges. So the driver repeatedly:
//!
//! 1. computes `T = min` next-event tick over all shards;
//! 2. lets every shard run `[T, T + Δ)` in parallel ([`Simulation::run_window`]);
//! 3. at the barrier, drains each shard's outbox
//!    ([`Ctx::remote_schedule`](crate::sim::Ctx::remote_schedule)) and
//!    injects every message into its destination shard's queue with the
//!    `(tick, order)` key minted on the sending side.
//!
//! **Bit-identity.** Events are globally ordered by `(tick, order stamp)`
//! where the stamp is a pure function of the scheduling component — see
//! [`crate::sim`] — so each shard's calendar pops its *subset* of the
//! serial sequence in the serial relative order, and mailbox injection
//! preserves the stamps. Every component therefore observes the identical
//! event sequence it would observe serially: same quiesce time, same
//! statistics, same packet ids. Trace records carry their dispatch stamp
//! and are k-way merged by `(at, stamp)` into one global ring whose
//! eviction matches the serial ring, so even the trace stream (and its
//! drop count) is bit-identical. DESIGN.md §14 gives the full argument.
//!
//! **Threading.** Plain `std::thread::scope` workers for shards `1..n`,
//! plus a generation-counting spin barrier; no async runtime. The
//! coordinator thread runs shard 0 itself — the shard holding the host
//! cluster and the workload apps, so those run on the thread that built
//! their `Rc` handles — and owns everything between barriers. Workers
//! only ever run inside `run_window`. `Simulation` is not `Send`
//! (components hold `Rc` harness handles), so shards live in
//! [`ShardCell`]s whose safety invariant is documented below. A panic on
//! any shard poisons the barrier, so every other thread stops waiting and
//! the original panic propagates out of [`ShardedSimulator::run`].

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::calendar::CalendarQueue;
use crate::component::{ComponentId, Event, PortId};
use crate::sim::{
    decode_action, encode_action, open_checkpoint, seal_checkpoint, Action, ActionBody, RunOutcome,
    Simulation, NUM_STREAMS,
};
use crate::snapshot::{SnapshotError, StateReader, StateWriter};
use crate::stats::StatsSnapshot;
use crate::tick::Tick;
use crate::trace::{TraceEvent, TraceLog, Tracer};

/// One directed cut edge: events staged on `from_shard`'s outbox under
/// this edge's index are injected into `to_shard`'s queue targeting
/// `dest` (the far half of the cut link). `horizon` is the minimum delay
/// any message on this edge can carry — the link's smallest wire
/// serialization time plus its propagation delay.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSpec {
    /// Shard whose outbox carries this edge's messages.
    pub from_shard: u32,
    /// Shard whose queue receives them.
    pub to_shard: u32,
    /// The component the messages are dispatched into.
    pub dest: ComponentId,
    /// Conservative lower bound on message delay, in ticks (must be > 0).
    pub horizon: Tick,
}

/// Where a global component id lives in a partitioned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The component lives whole in one shard.
    Shard(u32),
    /// A cut link, split into two half-components sharing the gid:
    /// physical end 0 (the upstream/parent side) lives in `end0`, end 1
    /// (the downstream/child side) in `end1`.
    Split {
        /// Shard owning physical end 0.
        end0: u32,
        /// Shard owning physical end 1.
        end1: u32,
    },
}

/// A queued action bound for a split component, shown to [`RouteEndFn`]
/// so the link layer can say which physical end it belongs to.
#[derive(Debug)]
pub enum QueuedFor<'a> {
    /// A timer or delayed-packet event.
    Event(&'a Event),
    /// A retry grant arriving on `port`.
    Retry {
        /// The port the retry is granted on.
        port: PortId,
    },
}

/// Maps a queued action for a split component to the physical end
/// (0 or 1) that handles it. Provided by the link layer — the only
/// component kind that can be split — and used when a checkpoint is
/// restored under a different shard count to route each queue entry to
/// the shard owning the right half.
pub type RouteEndFn = fn(&QueuedFor<'_>) -> u8;

/// How a simulation is divided: a placement per global component id, the
/// directed cut edges, and the split-event router.
pub struct ShardPlan {
    /// Placement of each global component id, indexed by gid.
    pub placements: Vec<Placement>,
    /// Every directed cut edge; [`Ctx::remote_schedule`] indexes this
    /// table.
    ///
    /// [`Ctx::remote_schedule`]: crate::sim::Ctx::remote_schedule
    pub edges: Vec<EdgeSpec>,
    /// Routes split-component queue entries on restore.
    pub route_end: RouteEndFn,
}

/// A `Simulation` slot shared between the coordinator and one worker.
///
/// # Safety invariant
///
/// `Simulation` is `!Send`/`!Sync` (components hold `Rc` handles shared
/// with the build-time harness, and all kernel state is `Cell`/`RefCell`).
/// The driver upholds exclusive access by construction:
///
/// * during a window, *only* shard `i`'s worker touches shard `i >= 1`
///   (and only via `run_window`), and *only* the coordinator touches
///   shard 0 — it runs shard 0's window itself;
/// * between windows, *only* the coordinator thread touches any shard;
/// * the spin barrier's acquire/release pairs order those phases, so all
///   writes made by one side are visible to the other;
/// * `Rc` clones held by harness code (workload handles, config spaces)
///   are only dereferenced by the shard that owns their components —
///   the partitioner places every component of such a cluster in one
///   shard — or by the coordinator outside `run`. The host cluster and
///   workload apps live in shard 0, so they never leave the coordinator
///   thread that built them.
struct ShardCell(UnsafeCell<Simulation>);

// SAFETY: see the invariant above — access is phase-exclusive, never
// actually concurrent, and the barrier provides the happens-before edges.
unsafe impl Sync for ShardCell {}

/// [`SpinBarrier::wait`] failed: another party panicked and will never
/// arrive.
#[derive(Debug)]
struct Poisoned;

/// A generation-counting hybrid barrier for `parties` threads. Windows
/// are typically tens of microseconds of work, so each waiter spins a
/// bounded number of iterations first (near-free rendezvous when every
/// thread has its own core), then parks on a condvar. Parking matters
/// when threads outnumber cores: a spinner — even one yielding its
/// timeslice — can burn whole scheduler quanta before the thread it
/// waits on runs, turning microsecond windows into millisecond ones; a
/// parked waiter instead guarantees an immediate handoff. On an
/// oversubscribed host the spin phase is pointless by construction, so
/// it is skipped entirely (`spin_limit` 0).
///
/// The releaser touches the mutex and makes the futex wake only when a
/// waiter is actually parked (`sleepers != 0`), so a rendezvous won in
/// the spin phase costs no syscall at all.
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Waiters that committed to parking on `cv` and have not left yet.
    sleepers: AtomicUsize,
    /// Set by [`SpinBarrier::poison`] when a party panics.
    poisoned: AtomicBool,
    /// Iterations to busy-wait before parking; 0 when `parties` exceeds
    /// the host's core count.
    spin_limit: u32,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    /// Spins this many iterations before parking (when cores suffice).
    const SPIN_LIMIT: u32 = 1 << 12;

    fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_spin_limit(parties, if cores >= parties { Self::SPIN_LIMIT } else { 0 })
    }

    fn with_spin_limit(parties: usize, spin_limit: u32) -> Self {
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            spin_limit,
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all `parties` have arrived, or fails once the barrier
    /// is poisoned.
    fn wait(&self) -> Result<(), Poisoned> {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            // Dekker pairing with the parker below: the releaser stores
            // the generation then loads `sleepers`; a parker increments
            // `sleepers` then loads the generation, all SeqCst. At least
            // one of them sees the other's write, so either the parker
            // never sleeps or the releaser wakes it. Taking the lock
            // before the notify orders it after the parker is inside
            // `cv.wait` (it counted itself while holding the lock).
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) != 0 {
                drop(self.lock.lock().expect("barrier lock"));
                self.cv.notify_all();
            }
            return Ok(());
        }
        let mut spins = 0u32;
        loop {
            if self.generation.load(Ordering::Acquire) != gen {
                return Ok(());
            }
            if self.poisoned.load(Ordering::Acquire) {
                return Err(Poisoned);
            }
            if spins < self.spin_limit {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let mut guard = self.lock.lock().expect("barrier lock");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            while self.generation.load(Ordering::SeqCst) == gen
                && !self.poisoned.load(Ordering::SeqCst)
            {
                guard = self.cv.wait(guard).expect("barrier condvar");
            }
            // Relaxed: the count publishes no data, and a releaser that
            // still sees this waiter only makes a spurious wake.
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Breaks the barrier for good: every current and future waiter
    /// returns [`Poisoned`]. Called by a party that is unwinding.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        drop(self.lock.lock().expect("barrier lock"));
        self.cv.notify_all();
    }
}

/// Poisons the barrier if dropped while its thread unwinds, so the other
/// parties stop waiting for a thread that will never arrive.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Synchronization counters of the multi-shard driver. They are kept out
/// of [`ShardedSimulator::stats`] so the sharded statistics stay
/// identical to the serial run's; like the schedule itself, they are a
/// pure function of the topology and the shard count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Lockstep windows run (a 1-shard driver runs serially: none).
    pub windows: u64,
    /// Cross-shard messages delivered through the mailboxes.
    pub mailbox_messages: u64,
    /// (window, shard) pairs in which the shard had no event to run.
    pub idle_shard_windows: u64,
}

/// Drives one logical simulation split across N [`Simulation`] shards,
/// bit-identical to running it serially.
pub struct ShardedSimulator {
    shards: Vec<ShardCell>,
    plan: ShardPlan,
    /// Global window width: the minimum lookahead horizon over all cut
    /// edges (`Tick::MAX` when nothing is cut).
    delta: Tick,
    /// Global clock frontier, maintained like [`Simulation::now`].
    now: Tick,
    /// The merged trace ring; per-shard tracers are unbounded staging
    /// buffers drained into this ring (with serial-faithful eviction)
    /// every window.
    tracer: Tracer,
    names: Vec<String>,
    /// Cumulative window/mailbox counters (see [`SyncStats`]).
    sync: Cell<SyncStats>,
}

impl ShardedSimulator {
    /// Assembles a driver from per-shard simulations and the plan that
    /// partitioned them. Every shard must carry the full-length arena
    /// (remote slots included) so component ids and fingerprints are
    /// global.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on topology fingerprint, the plan's
    /// placement table length doesn't match the arena, or an edge has a
    /// zero horizon.
    pub fn new(shards: Vec<Simulation>, plan: ShardPlan) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        let fp = shards[0].topology_fingerprint();
        for s in &shards[1..] {
            assert_eq!(s.topology_fingerprint(), fp, "shards must share the topology");
        }
        let n = shards[0].shared.arena.len();
        assert_eq!(plan.placements.len(), n, "one placement per component");
        let mut delta = Tick::MAX;
        for e in &plan.edges {
            assert!(e.horizon > 0, "cut edge with zero lookahead cannot be synchronized");
            assert!((e.from_shard as usize) < shards.len() && (e.to_shard as usize) < shards.len());
            delta = delta.min(e.horizon);
        }
        let names = shards[0].shared.names.clone();
        // Per-shard tracers are staging buffers: they must never evict on
        // their own, or the merged stream would diverge from the serial
        // ring. Eviction happens once, at the global ring.
        for s in &shards {
            s.shared.tracer.set_capacity(usize::MAX);
        }
        Self {
            shards: shards.into_iter().map(|s| ShardCell(UnsafeCell::new(s))).collect(),
            plan,
            delta,
            now: 0,
            tracer: Tracer::new(),
            names,
            sync: Cell::new(SyncStats::default()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Exclusive access to shard `i`'s simulation, for pre-run
    /// attachment and post-run inspection. (`&mut self` proves no worker
    /// is active.)
    pub fn shard_mut(&mut self, i: usize) -> &mut Simulation {
        self.shards[i].0.get_mut()
    }

    fn shard(&self, i: usize) -> &Simulation {
        // SAFETY: `&self` methods are only called from the coordinator
        // while no worker phase is active (see ShardCell invariant).
        unsafe { &*self.shards[i].0.get() }
    }

    #[allow(clippy::mut_from_ref)]
    /// # Safety
    ///
    /// Caller must be the coordinator between worker phases, and must not
    /// hold another reference to the same shard.
    unsafe fn shard_raw(&self, i: usize) -> &mut Simulation {
        unsafe { &mut *self.shards[i].0.get() }
    }

    /// Current simulated time (global frontier).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Total events dispatched, summed over shards. Cancelled tombstones
    /// never count, so this equals the serial run's number.
    pub fn events_processed(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.shard(i).events_processed()).sum()
    }

    /// Total events still queued across shards.
    pub fn pending_events(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard(i).pending_events()).sum()
    }

    /// Enables structured tracing on every shard (see
    /// [`Simulation::set_trace_mask`]).
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.tracer.set_mask(mask);
        for i in 0..self.shards.len() {
            self.shard_mut(i).set_trace_mask(mask);
        }
    }

    /// Caps the *merged* trace ring at `capacity` events — the same bound
    /// [`Simulation::set_trace_capacity`] would apply serially.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.tracer.set_capacity(capacity);
    }

    /// Drains the merged trace ring, exactly the serial run's
    /// [`Simulation::take_trace`].
    pub fn take_trace(&mut self) -> TraceLog {
        TraceLog {
            events: self.tracer.drain(),
            names: self.names.clone(),
            dropped: self.tracer.dropped(),
        }
    }

    /// Merged statistics from every component, keyed identically to the
    /// serial run (each key is reported by exactly one shard; split links
    /// report disjoint per-end key sets under the shared name).
    pub fn stats(&self) -> StatsSnapshot {
        let mut all = std::collections::BTreeMap::new();
        for i in 0..self.shards.len() {
            all.extend(self.shard(i).stats().into_values());
        }
        StatsSnapshot::from_values(all)
    }

    /// Windows, mailbox messages and idle-shard windows accumulated over
    /// every [`ShardedSimulator::run`] of this driver so far.
    pub fn sync_stats(&self) -> SyncStats {
        self.sync.get()
    }

    fn tally(&self, count: impl FnOnce(&mut SyncStats)) {
        let mut sync = self.sync.get();
        count(&mut sync);
        self.sync.set(sync);
    }

    /// Runs until every queue drains, `until` is reached, a component
    /// requests a stop, or `max_events` dispatches happen. Semantics
    /// match [`Simulation::run`] except that stop requests and the event
    /// budget are honoured at window granularity (a stop or overrun
    /// inside a window is noticed at its barrier).
    pub fn run(&mut self, until: Tick, max_events: u64) -> RunOutcome {
        if self.shards.len() == 1 {
            // Single shard: plain serial semantics, including exact stop
            // and budget behaviour.
            let outcome = self.shard_mut(0).run(until, max_events);
            self.drain_shard_traces();
            self.now = match outcome {
                RunOutcome::TimeLimit => until,
                _ => self.shard(0).now(),
            };
            return outcome;
        }
        let budget_end = self.events_processed().saturating_add(max_events);
        // Init every shard on the coordinator thread, before any worker
        // exists — keeps all Rc-held harness state single-threaded here.
        for i in 0..self.shards.len() {
            self.shard_mut(i).ensure_init();
        }
        // `init` may already have staged cross-shard messages; deliver
        // them before the first window's t_min scan.
        let outcome = if self.exchange_outboxes(0) {
            RunOutcome::Stopped
        } else {
            self.run_windows(until, budget_end)
        };
        // A final merge catches records from init or a stop/limit exit.
        self.drain_shard_traces();
        // A drained run has also reached every shard's reserved horizon.
        let drained = outcome == RunOutcome::QueueEmpty;
        let last = |i: usize| {
            let sim = self.shard(i);
            let horizon = if drained { sim.shared.reserved_horizon.get() } else { 0 };
            sim.last_event_tick().max(horizon)
        };
        self.now = match outcome {
            RunOutcome::TimeLimit => until,
            _ => (0..self.shards.len()).map(last).max().unwrap_or(0),
        };
        if matches!(outcome, RunOutcome::TimeLimit | RunOutcome::QueueEmpty) {
            for i in 0..self.shards.len() {
                self.shard(i).mark_dispatched_through(self.now);
            }
        }
        outcome
    }

    /// The parallel phase of [`ShardedSimulator::run`]: one worker thread
    /// per shard `1..n`, with the coordinator running shard 0 itself. If
    /// any thread panics, the barrier is poisoned, every other thread
    /// stops waiting, and the first panic resumes here.
    fn run_windows(&self, until: Tick, budget_end: u64) -> RunOutcome {
        let barrier = SpinBarrier::new(self.shards.len());
        let window_end = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = self.shards[1..]
                .iter()
                .map(|cell| {
                    let barrier = &barrier;
                    let window_end = &window_end;
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(barrier);
                        while barrier.wait().is_ok() {
                            let end = window_end.load(Ordering::Acquire);
                            if end == 0 {
                                break;
                            }
                            // SAFETY: between the two barrier crossings
                            // this worker is the only thread touching
                            // this shard.
                            unsafe { (*cell.0.get()).run_window(end) };
                            if barrier.wait().is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            let result = {
                let _poison = PoisonOnPanic(&barrier);
                self.coordinate(&barrier, &window_end, until, budget_end)
            };
            for worker in workers {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            result.expect("the barrier is only poisoned by a panicking worker")
        })
    }

    /// The coordinator's loop: picks each window, runs shard 0 through it
    /// alongside the workers, then exchanges mailboxes. Fails only when a
    /// worker panicked.
    fn coordinate(
        &self,
        barrier: &SpinBarrier,
        window_end: &AtomicU64,
        until: Tick,
        budget_end: u64,
    ) -> Result<RunOutcome, Poisoned> {
        let mut next_ticks: Vec<Option<Tick>> = vec![None; self.shards.len()];
        let result = loop {
            // All shard access here is coordinator-exclusive: the workers
            // are parked on the start barrier.
            let mut total_events = 0u64;
            for (i, next) in next_ticks.iter_mut().enumerate() {
                let sim = self.shard(i);
                *next = sim.next_event_tick();
                total_events += sim.events_processed();
            }
            let Some(t_min) = next_ticks.iter().flatten().copied().min() else {
                // A reservation beyond `until` stands for a pending event.
                let horizon = (0..self.shards.len())
                    .map(|i| self.shard(i).shared.reserved_horizon.get())
                    .max()
                    .unwrap_or(0);
                break if horizon > until { RunOutcome::TimeLimit } else { RunOutcome::QueueEmpty };
            };
            if t_min > until {
                break RunOutcome::TimeLimit;
            }
            if total_events >= budget_end {
                break RunOutcome::EventLimit;
            }
            let end = t_min.saturating_add(self.delta).min(until.saturating_add(1));
            let idle = next_ticks.iter().filter(|t| t.is_none_or(|t| t >= end)).count();
            self.tally(|s| {
                s.windows += 1;
                s.idle_shard_windows += idle as u64;
            });
            window_end.store(end, Ordering::Release);
            // Release the workers into [t_min, end).
            barrier.wait()?;
            // SAFETY: during the window the coordinator is the only
            // thread touching shard 0.
            unsafe { self.shard_raw(0).run_window(end) };
            // Wait for every worker to drain the window.
            barrier.wait()?;
            let stopped = self.exchange_outboxes(end);
            if self.tracer.mask() != 0 {
                self.merge_window_traces();
            }
            if stopped {
                break RunOutcome::Stopped;
            }
        };
        window_end.store(0, Ordering::Release);
        barrier.wait()?; // let the workers observe the exit sentinel
        Ok(result)
    }

    /// Runs until every queue is empty or a component stops the run.
    pub fn run_to_quiesce(&mut self) -> RunOutcome {
        self.run(Tick::MAX, u64::MAX)
    }

    /// Drains every shard's outbox, injecting each cross-cut message
    /// into its destination shard's queue with the `(tick, order)` key
    /// minted by its sender, and collects pending stop requests. Must
    /// only be called from the coordinator between worker phases.
    /// `window_end` is the just-finished window's end tick (0 for the
    /// pre-run init exchange): a message landing below it means a cut
    /// edge's lookahead horizon was overstated.
    fn exchange_outboxes(&self, window_end: Tick) -> bool {
        let mut stopped = false;
        let mut messages = 0u64;
        for i in 0..self.shards.len() {
            // SAFETY: coordinator phase; workers are parked.
            stopped |= unsafe { self.shard_raw(i) }.take_stop_request();
            // Drained in place, so the outbox keeps its capacity from one
            // window to the next.
            let mut outbox = self.shard(i).shared.outbox.borrow_mut();
            messages += outbox.len() as u64;
            for msg in outbox.drain(..) {
                let edge = self.plan.edges[msg.edge as usize];
                debug_assert_eq!(edge.from_shard as usize, i, "edge staged on wrong shard");
                assert!(
                    msg.tick >= window_end,
                    "cross-shard message at tick {} inside window ending at {}: \
                     the edge's lookahead horizon is wrong",
                    msg.tick,
                    window_end
                );
                self.shard(edge.to_shard as usize)
                    .push_keyed(msg.tick, msg.order, edge.dest, msg.ev);
            }
        }
        self.tally(|s| s.mailbox_messages += messages);
        stopped
    }

    /// K-way-merges the shards' staged trace records into the global ring
    /// in serial record order. Each shard's stream is already in its local
    /// dispatch order, and the fused run's dispatch order restricted to one
    /// shard's events *is* that local order — so the merge must never
    /// reorder within a stream. It only picks between the streams' current
    /// heads by `(at, stamp)`, exactly the fused calendar's pop key.
    ///
    /// A global sort by `(at, stamp)` would be wrong: a zero-delay push
    /// minted mid-tick can carry a numerically smaller stamp (another
    /// component's counter) than a dispatch that already ran at that tick.
    /// The serial run pops it later — it was not in the calendar yet — but
    /// a sort would move it earlier. Head-only comparison is immune: the
    /// late push sits behind its pusher in the same shard's stream.
    ///
    /// Head ties are broken by the recording component id; across shards
    /// they only occur for stamp-0 `init` records, which the serial run
    /// emits in component order.
    fn merge_window_traces(&self) {
        let mut streams: Vec<std::vec::IntoIter<(TraceEvent, u64)>> = (0..self.shards.len())
            .map(|i| self.shard(i).shared.tracer.drain_stamped().into_iter())
            .collect();
        let mut heads: Vec<Option<(TraceEvent, u64)>> =
            streams.iter_mut().map(|s| s.next()).collect();
        loop {
            let mut best: Option<usize> = None;
            for (i, head) in heads.iter().enumerate() {
                let Some((ev, stamp)) = head else { continue };
                let better = match best {
                    None => true,
                    Some(b) => {
                        let (bev, bstamp) = heads[b].as_ref().unwrap();
                        (ev.at, *stamp, ev.component.0) < (bev.at, *bstamp, bev.component.0)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            let (ev, stamp) = heads[i].take().unwrap();
            self.tracer.record_stamped(ev, stamp);
            heads[i] = streams[i].next();
        }
    }

    fn drain_shard_traces(&self) {
        // Per-shard rings never evict (unbounded), so any straggler drop
        // counts would indicate a bug; fold them in defensively anyway.
        let mut dropped = 0;
        for i in 0..self.shards.len() {
            dropped += self.shard(i).shared.tracer.dropped();
        }
        self.tracer.add_dropped(dropped);
        self.merge_window_traces();
    }

    /// Serializes the complete dynamic state into the *same* checkpoint
    /// format [`Simulation::checkpoint`] writes — byte-identical to the
    /// checkpoint the serial run would take at this point — by gathering
    /// counters, queue entries, the merged trace ring and component
    /// sections from their owning shards.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        for i in 0..self.shards.len() {
            let sim = self.shard_mut(i);
            sim.ensure_init();
            sim.settle_components();
        }
        let n = self.plan.placements.len();
        let mut body = StateWriter::new();
        body.u64(self.shard(0).topology_fingerprint());
        body.u64(self.now);
        body.u64(self.events_processed());
        // Per-component counters: each is incremented by exactly one
        // shard (split links increment disjoint streams per end), so the
        // cross-shard sum reconstructs the serial counter.
        for gid in 0..n {
            let total: u64 = (0..self.shards.len())
                .map(|i| self.shard(i).shared.pkt_counters.borrow()[gid])
                .sum();
            body.u64(total);
        }
        for gid in 0..n {
            for stream in 0..NUM_STREAMS {
                let total: u64 = (0..self.shards.len())
                    .map(|i| self.shard(i).shared.push_counters.borrow()[gid][stream])
                    .sum();
                body.u64(total);
            }
        }
        // Queue entries, globally sorted — the serial calendar's save
        // order. Outboxes are empty between runs, so the shard queues
        // hold every pending event.
        for i in 0..self.shards.len() {
            assert!(
                self.shard(i).shared.outbox.borrow().is_empty(),
                "checkpoint with undelivered cross-shard messages"
            );
        }
        let mut entries: Vec<(Tick, u64, Vec<u8>)> = Vec::new();
        for i in 0..self.shards.len() {
            self.shard(i).shared.queue.borrow().for_each_live(|tick, order, action| {
                let mut w = StateWriter::new();
                encode_action(&mut w, action);
                entries.push((tick, order, w.into_bytes()));
            });
        }
        entries.sort_by_key(|&(tick, order, _)| (tick, order));
        body.usize(entries.len());
        for (tick, order, bytes) in &entries {
            body.u64(*tick);
            body.u64(*order);
            body.append_raw(bytes);
        }
        self.tracer.save_ring(&mut body);
        // Component sections from their owning shards; a split link's
        // section is its two ends' blobs, length-prefixed in end order —
        // exactly what the fused link writes.
        body.usize(n);
        for gid in 0..n {
            body.str(&self.names[gid]);
            let mut section = StateWriter::new();
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    let cell = &self.shard(s as usize).shared.arena[gid];
                    let slot = cell.borrow();
                    let comp = slot.as_ref().expect("placement names an empty slot");
                    comp.save_state(&mut section);
                }
                Placement::Split { end0, end1 } => {
                    for s in [end0, end1] {
                        let cell = &self.shard(s as usize).shared.arena[gid];
                        let slot = cell.borrow();
                        let comp = slot.as_ref().expect("split placement names an empty slot");
                        let mut half = StateWriter::new();
                        comp.save_state(&mut half);
                        section.bytes(&half.into_bytes());
                    }
                }
            }
            body.bytes(&section.into_bytes());
        }
        seal_checkpoint(body.into_bytes())
    }

    /// Applies a checkpoint written by [`Simulation::checkpoint`] or
    /// [`ShardedSimulator::checkpoint`] — under *any* shard count — to
    /// this driver's freshly built shards. Queue entries, counters and
    /// component sections are routed to the shards that own them, so the
    /// run continues bit-for-bit like the saved one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::restore`]; on error the driver must
    /// be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let body = open_checkpoint(bytes)?;
        let mut r = StateReader::new(body);
        let fingerprint = r.u64()?;
        let expected = self.shard(0).topology_fingerprint();
        if fingerprint != expected {
            return Err(SnapshotError::TopologyMismatch { stored: fingerprint, expected });
        }
        let now = r.u64()?;
        let events_processed = r.u64()?;
        let n = self.plan.placements.len();
        let mut pkt_counters = Vec::with_capacity(n);
        for _ in 0..n {
            pkt_counters.push(r.u64()?);
        }
        let mut push_counters: Vec<[u64; NUM_STREAMS]> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = [0u64; NUM_STREAMS];
            for c in &mut row {
                *c = r.u64()?;
            }
            push_counters.push(row);
        }
        // Queue entries: decode with the global counter audit, then route
        // each to the shard that dispatches it.
        let n_entries = r.usize()?;
        let mut queues: Vec<CalendarQueue<Action>> =
            (0..self.shards.len()).map(|_| CalendarQueue::with_cursor(now)).collect();
        let mut last: Option<(Tick, u64)> = None;
        for _ in 0..n_entries {
            let tick = r.u64()?;
            let order = r.u64()?;
            if tick < now {
                return Err(SnapshotError::Corrupt("queued entry is in the past".into()));
            }
            if let Some(prev) = last {
                if prev >= (tick, order) {
                    return Err(SnapshotError::Corrupt(
                        "queue entries out of order or duplicated".into(),
                    ));
                }
            }
            last = Some((tick, order));
            let action = decode_action(&mut r, &pkt_counters, &push_counters)?;
            let shard = self.route_action(&action)?;
            queues[shard].push_restored(tick, order, action);
        }
        self.tracer.restore_ring(&mut r)?;
        let count = r.usize()?;
        if count != n {
            return Err(SnapshotError::Corrupt(format!(
                "checkpoint has {count} components, tree has {n}"
            )));
        }
        for gid in 0..n {
            let name = r.str()?;
            if name != self.names[gid] {
                return Err(SnapshotError::Corrupt(format!(
                    "section {name:?} does not match component {:?}",
                    self.names[gid]
                )));
            }
            let section = r.bytes()?;
            let mut sr = StateReader::new(section);
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    self.restore_component(s as usize, gid, &mut sr, &name)?;
                }
                Placement::Split { end0, end1 } => {
                    for s in [end0, end1] {
                        let half = sr.bytes()?;
                        let mut hr = StateReader::new(half);
                        self.restore_component(s as usize, gid, &mut hr, &name)?;
                    }
                }
            }
            sr.finish(&name)?;
        }
        r.finish("sharded simulation")?;
        for (i, queue) in queues.into_iter().enumerate() {
            let sim = self.shard_mut(i);
            *sim.shared.queue.borrow_mut() = queue;
            sim.shared.now.set(now);
            sim.shared.last_event_tick.set(now);
            sim.mark_restored(now);
            // The global totals live on shard 0; sums stay correct.
            sim.shared.events_processed.set(if i == 0 { events_processed } else { 0 });
            sim.shared.stop_requested.set(false);
            sim.initialized = true;
        }
        self.distribute_counters(&pkt_counters, &push_counters);
        self.now = now;
        Ok(())
    }

    /// Routes a decoded queue entry to the shard that will dispatch it.
    fn route_action(&self, action: &Action) -> Result<usize, SnapshotError> {
        let gid = action.target.0 as usize;
        let placement = self.plan.placements.get(gid).ok_or_else(|| {
            SnapshotError::Corrupt(format!("event target c{gid} has no placement"))
        })?;
        Ok(match *placement {
            Placement::Shard(s) => s as usize,
            Placement::Split { end0, end1 } => {
                let view = match &action.body {
                    ActionBody::Event(ev) => QueuedFor::Event(ev),
                    ActionBody::Retry { port } => QueuedFor::Retry { port: *port },
                };
                match (self.plan.route_end)(&view) {
                    0 => end0 as usize,
                    _ => end1 as usize,
                }
            }
        })
    }

    fn restore_component(
        &mut self,
        shard: usize,
        gid: usize,
        r: &mut StateReader<'_>,
        name: &str,
    ) -> Result<(), SnapshotError> {
        let sim = self.shard_mut(shard);
        let cell = &sim.shared.arena[gid];
        let mut slot = cell.borrow_mut();
        let comp = slot.as_mut().ok_or_else(|| {
            SnapshotError::Corrupt(format!("placement for {name:?} names an empty slot"))
        })?;
        comp.restore_state(r)?;
        r.finish(name)?;
        Ok(())
    }

    /// Hands each shard the counter values for the components (or split
    /// ends) it owns, zero elsewhere, so future stamps continue the
    /// serial sequences.
    fn distribute_counters(&mut self, pkt: &[u64], push: &[[u64; NUM_STREAMS]]) {
        for i in 0..self.shards.len() {
            let n = pkt.len();
            let sim = self.shard_mut(i);
            let mut pk = sim.shared.pkt_counters.borrow_mut();
            let mut ps = sim.shared.push_counters.borrow_mut();
            pk.clear();
            ps.clear();
            pk.resize(n, 0);
            ps.resize(n, [0; NUM_STREAMS]);
        }
        for gid in 0..pkt.len() {
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    let sim = self.shard_mut(s as usize);
                    sim.shared.pkt_counters.borrow_mut()[gid] = pkt[gid];
                    sim.shared.push_counters.borrow_mut()[gid] = push[gid];
                }
                Placement::Split { end0, end1 } => {
                    // Stream `k` belongs to physical end `k`; packet-id
                    // allocation from a link would be ambiguous, so the
                    // link layer never allocates ids (end 0 carries any
                    // residue defensively).
                    let s0 = self.shard_mut(end0 as usize);
                    s0.shared.pkt_counters.borrow_mut()[gid] = pkt[gid];
                    s0.shared.push_counters.borrow_mut()[gid][0] = push[gid][0];
                    let s1 = self.shard_mut(end1 as usize);
                    s1.shared.push_counters.borrow_mut()[gid][1] = push[gid][1];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, RecvResult};
    use crate::packet::Packet;
    use crate::sim::Ctx;
    use crate::trace::TraceCategory;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Fires `remaining` timers `period` apart, emitting a Device trace
    /// record per firing.
    struct Ticker {
        name: String,
        fired: Rc<RefCell<Vec<(Tick, String)>>>,
        remaining: u64,
        period: Tick,
    }
    impl Component for Ticker {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(self.period, Event::Timer { kind: 0, data: self.remaining });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            self.fired.borrow_mut().push((ctx.now(), self.name.clone()));
            ctx.emit(TraceCategory::Device, crate::trace::TraceKind::DmaRead, None, None, data);
            if data > 1 {
                ctx.schedule(self.period, Event::Timer { kind: 0, data: data - 1 });
            }
        }
        fn recv_request(&mut self, _: &mut Ctx<'_>, _: PortId, pkt: Packet) -> RecvResult {
            RecvResult::Refused(pkt)
        }
    }

    fn trivial_route(_: &QueuedFor<'_>) -> u8 {
        0
    }

    type FiredLog = Rc<RefCell<Vec<(Tick, String)>>>;

    /// Serial reference: both tickers in one simulation.
    fn serial_pair() -> (Simulation, FiredLog) {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(Ticker {
            name: "a".into(),
            fired: fired.clone(),
            remaining: 4,
            period: 7,
        }));
        sim.add(Box::new(Ticker {
            name: "b".into(),
            fired: fired.clone(),
            remaining: 6,
            period: 7,
        }));
        (sim, fired)
    }

    /// Sharded build: each ticker in its own shard, remote slot for the
    /// other, no cut edges (they never talk). Each shard gets its *own*
    /// log — harness `Rc` state must never be shared across shards.
    type SharedLog = Rc<RefCell<Vec<(Tick, String)>>>;

    fn sharded_pair() -> (ShardedSimulator, SharedLog, SharedLog) {
        let fired_a: SharedLog = Rc::new(RefCell::new(Vec::new()));
        let fired_b: SharedLog = Rc::new(RefCell::new(Vec::new()));
        let mut s0 = Simulation::new();
        s0.add(Box::new(Ticker {
            name: "a".into(),
            fired: fired_a.clone(),
            remaining: 4,
            period: 7,
        }));
        s0.add_remote("b");
        let mut s1 = Simulation::new();
        s1.add_remote("a");
        s1.add(Box::new(Ticker {
            name: "b".into(),
            fired: fired_b.clone(),
            remaining: 6,
            period: 7,
        }));
        let plan = ShardPlan {
            placements: vec![Placement::Shard(0), Placement::Shard(1)],
            edges: vec![],
            route_end: trivial_route,
        };
        (ShardedSimulator::new(vec![s0, s1], plan), fired_a, fired_b)
    }

    /// The serial log restricted to one component's firings.
    fn only(log: &SharedLog, name: &str) -> Vec<(Tick, String)> {
        log.borrow().iter().filter(|(_, n)| n == name).cloned().collect()
    }

    #[test]
    fn independent_shards_match_the_serial_run() {
        let (mut serial, _fired_s) = serial_pair();
        serial.set_trace_mask(TraceCategory::ALL);
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut sharded, _fa, _fb) = sharded_pair();
        sharded.set_trace_mask(TraceCategory::ALL);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);

        assert_eq!(sharded.now(), serial.now());
        assert_eq!(sharded.events_processed(), serial.events_processed());
        let st = serial.take_trace();
        let sh = sharded.take_trace();
        assert_eq!(st.events, sh.events, "merged trace must equal the serial stream");
        assert_eq!(st.dropped, sh.dropped);
        let a: Vec<_> = serial.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect();
        let b: Vec<_> = sharded.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn time_limited_windows_resume_exactly() {
        let (mut serial, fired_s) = serial_pair();
        let (mut sharded, fired_a, fired_b) = sharded_pair();
        assert_eq!(serial.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(sharded.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(sharded.now(), serial.now());
        assert_eq!(only(&fired_s, "a"), *fired_a.borrow());
        assert_eq!(only(&fired_s, "b"), *fired_b.borrow());
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.now(), serial.now());
        assert_eq!(only(&fired_s, "a"), *fired_a.borrow());
        assert_eq!(only(&fired_s, "b"), *fired_b.borrow());
    }

    /// Reserves an event `reserve_at` ticks out that it never fires, beside
    /// one real timer `real_at` ticks out.
    struct Reserver {
        reserve_at: Tick,
        real_at: Tick,
    }
    impl Component for Reserver {
        fn name(&self) -> &str {
            "reserver"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.reserve_stream(self.reserve_at, 0);
            ctx.schedule(self.real_at, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {}
    }

    #[test]
    fn sharded_quiesce_waits_for_the_latest_reserved_tick() {
        // A ticker ending at 28 and a reservation at 100 past the last
        // real event (10), serially and on two shards.
        let ticker = || Ticker { name: "a".into(), fired: Rc::default(), remaining: 4, period: 7 };
        let reserver = || Reserver { reserve_at: 100, real_at: 10 };
        let mut serial = Simulation::new();
        serial.add(Box::new(ticker()));
        serial.add(Box::new(reserver()));
        assert_eq!(serial.run(50, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(serial.now(), 100);

        let mut s0 = Simulation::new();
        s0.add(Box::new(ticker()));
        s0.add_remote("reserver");
        let mut s1 = Simulation::new();
        s1.add_remote("a");
        s1.add(Box::new(reserver()));
        let plan = ShardPlan {
            placements: vec![Placement::Shard(0), Placement::Shard(1)],
            edges: vec![],
            route_end: trivial_route,
        };
        let mut sharded = ShardedSimulator::new(vec![s0, s1], plan);
        assert_eq!(sharded.run(50, u64::MAX), RunOutcome::TimeLimit, "100 lies past the limit");
        assert_eq!(sharded.now(), 50);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.now(), 100);
        assert_eq!(sharded.events_processed(), serial.events_processed());
    }

    /// A pair of components that volley a counter across a cut through
    /// remote_schedule — the kernel-level skeleton of a split link.
    struct Volley {
        name: String,
        edge: u32,
        horizon: Tick,
        log: Rc<RefCell<Vec<(Tick, u64)>>>,
        serve: bool,
    }
    impl Component for Volley {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if self.serve {
                ctx.remote_schedule(self.edge, self.horizon, 0, Event::Timer { kind: 0, data: 8 });
            }
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            self.log.borrow_mut().push((ctx.now(), data));
            if data > 0 {
                ctx.remote_schedule(
                    self.edge,
                    self.horizon,
                    0,
                    Event::Timer { kind: 0, data: data - 1 },
                );
            }
        }
    }

    type VolleyLog = Rc<RefCell<Vec<(Tick, u64)>>>;

    /// East (shard 0) serves; the ball crosses the cut nine times, one
    /// horizon `h` per hop.
    fn volley_pair(h: Tick) -> (ShardedSimulator, VolleyLog, VolleyLog) {
        let log_e: VolleyLog = Rc::new(RefCell::new(Vec::new()));
        let log_w: VolleyLog = Rc::new(RefCell::new(Vec::new()));
        let mut s0 = Simulation::new();
        s0.add(Box::new(Volley {
            name: "east".into(),
            edge: 0,
            horizon: h,
            log: log_e.clone(),
            serve: true,
        }));
        s0.add_remote("west");
        let mut s1 = Simulation::new();
        s1.add_remote("east");
        s1.add(Box::new(Volley {
            name: "west".into(),
            edge: 1,
            horizon: h,
            log: log_w.clone(),
            serve: false,
        }));
        let plan = ShardPlan {
            placements: vec![Placement::Shard(0), Placement::Shard(1)],
            edges: vec![
                EdgeSpec { from_shard: 0, to_shard: 1, dest: ComponentId(1), horizon: h },
                EdgeSpec { from_shard: 1, to_shard: 0, dest: ComponentId(0), horizon: h },
            ],
            route_end: trivial_route,
        };
        (ShardedSimulator::new(vec![s0, s1], plan), log_e, log_w)
    }

    #[test]
    fn mailbox_volley_crosses_cuts_at_exact_ticks() {
        let h: Tick = 13;
        let (mut sharded, log_e, log_w) = volley_pair(h);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        let mut got: Vec<(Tick, u64)> = log_e.borrow().clone();
        got.extend(log_w.borrow().iter().copied());
        got.sort_unstable();
        let want: Vec<(Tick, u64)> = (0..9).map(|i| ((i + 1) * h, 8 - i)).collect();
        assert_eq!(got, want, "each hop lands exactly one horizon later");
        assert_eq!(sharded.now(), 9 * h);
        assert_eq!(sharded.events_processed(), 9);
    }

    #[test]
    fn sharded_checkpoint_round_trips_through_serial_format() {
        // Checkpoint an independent-pair sharded run mid-flight and
        // restore it into a *serial* simulation: the bytes must be
        // accepted and the continuation must match.
        let (mut sharded, _fa, _fb) = sharded_pair();
        assert_eq!(sharded.run(20, u64::MAX), RunOutcome::TimeLimit);
        let snap = sharded.checkpoint();

        let (mut serial, fired_s) = serial_pair();
        serial.restore(&snap).expect("serial restore of a sharded checkpoint");
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut reference, fired_r) = serial_pair();
        assert_eq!(reference.run(20, u64::MAX), RunOutcome::TimeLimit);
        fired_r.borrow_mut().clear();
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*fired_s.borrow(), *fired_r.borrow());
        assert_eq!(serial.now(), reference.now());
        assert_eq!(serial.events_processed(), reference.events_processed());

        // And the serial checkpoint at the same point is byte-identical.
        let (mut serial2, _f) = serial_pair();
        assert_eq!(serial2.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(serial2.checkpoint(), snap, "sharded checkpoint must match serial bytes");
    }

    #[test]
    fn restore_routes_entries_to_owning_shards() {
        let (mut serial, _f) = serial_pair();
        assert_eq!(serial.run(20, u64::MAX), RunOutcome::TimeLimit);
        let snap = serial.checkpoint();

        let (mut sharded, fired_a, fired_b) = sharded_pair();
        sharded.restore(&snap).expect("sharded restore of a serial checkpoint");
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut reference, fired_r) = serial_pair();
        assert_eq!(reference.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        let tail = |name: &str| -> Vec<(Tick, String)> {
            only(&fired_r, name).into_iter().filter(|(t, _)| *t > 20).collect()
        };
        assert_eq!(*fired_a.borrow(), tail("a"));
        assert_eq!(*fired_b.borrow(), tail("b"));
        assert_eq!(sharded.now(), reference.now());
        assert_eq!(sharded.events_processed(), reference.events_processed());
    }

    #[test]
    fn shard_sync_stats_count_windows_and_repeat_exactly() {
        let (mut first, ..) = volley_pair(13);
        assert_eq!(first.run_to_quiesce(), RunOutcome::QueueEmpty);
        // Nine hops, one window each; the ball is always on exactly one
        // side, so the other shard idles through every window.
        let want = SyncStats { windows: 9, mailbox_messages: 9, idle_shard_windows: 9 };
        assert_eq!(first.sync_stats(), want);
        let (mut second, ..) = volley_pair(13);
        assert_eq!(second.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(second.sync_stats(), first.sync_stats());
        // Stopping at a time limit and resuming runs the same windows.
        let (mut sliced, ..) = volley_pair(13);
        assert_eq!(sliced.run(50, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(sliced.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sliced.sync_stats(), want);
        // The serial fast path runs no windows.
        let (serial, _) = serial_pair();
        let mut one = ShardedSimulator::new(
            vec![serial],
            ShardPlan {
                placements: vec![Placement::Shard(0); 2],
                edges: vec![],
                route_end: trivial_route,
            },
        );
        assert_eq!(one.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(one.sync_stats(), SyncStats::default());
    }

    /// Panics at its first timer.
    struct Bomb;
    impl Component for Bomb {
        fn name(&self) -> &str {
            "bomb"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(10, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, _: &mut Ctx<'_>, _: Event) {
            panic!("bomb went off");
        }
    }

    /// Runs `f` on a fresh thread and re-raises its panic, but fails
    /// instead of hanging when `f` is still running after `limit`.
    fn finishes_within(limit: std::time::Duration, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(limit) {
            Ok(Ok(())) => {}
            Ok(Err(panic)) => std::panic::resume_unwind(panic),
            Err(_) => panic!("still running after {limit:?}"),
        }
    }

    /// A two-shard run with a ticker on one shard and a [`Bomb`] on
    /// `bomb_shard`. Must end within a second — a panic on one shard once
    /// left the others parked at the barrier forever.
    fn run_with_bomb_on(bomb_shard: usize) {
        finishes_within(std::time::Duration::from_secs(1), move || {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let mut sims = [Simulation::new(), Simulation::new()];
            let ticker = Ticker { name: "ticker".into(), fired, remaining: 100, period: 7 };
            sims[bomb_shard].add(Box::new(Bomb));
            sims[bomb_shard].add_remote("ticker");
            sims[1 - bomb_shard].add_remote("bomb");
            sims[1 - bomb_shard].add(Box::new(ticker));
            let b = bomb_shard as u32;
            let plan = ShardPlan {
                placements: vec![Placement::Shard(b), Placement::Shard(1 - b)],
                edges: vec![],
                route_end: trivial_route,
            };
            ShardedSimulator::new(Vec::from(sims), plan).run_to_quiesce();
        });
    }

    #[test]
    #[should_panic(expected = "bomb went off")]
    fn shard_panic_on_a_worker_propagates() {
        run_with_bomb_on(1);
    }

    #[test]
    #[should_panic(expected = "bomb went off")]
    fn shard_panic_on_the_coordinator_shard_propagates() {
        run_with_bomb_on(0);
    }

    /// Four parties cross the barrier 100k times; after crossing
    /// generation `g`, every party must have arrived `g` times and the
    /// barrier must read exactly generation `g` (`g + 1` cannot complete
    /// without this party). A lost wakeup fails the watchdog instead of
    /// hanging the suite.
    fn stress_barrier(spin_limit: u32) {
        const PARTIES: usize = 4;
        const GENERATIONS: usize = 100_000;
        finishes_within(std::time::Duration::from_secs(60), move || {
            let barrier = SpinBarrier::with_spin_limit(PARTIES, spin_limit);
            let arrivals = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..PARTIES {
                    scope.spawn(|| {
                        for g in 1..=GENERATIONS {
                            arrivals.fetch_add(1, Ordering::Relaxed);
                            barrier.wait().expect("no party panics");
                            assert_eq!(barrier.generation.load(Ordering::Acquire), g);
                            assert!(arrivals.load(Ordering::Relaxed) >= PARTIES * g);
                        }
                    });
                }
            });
            assert_eq!(arrivals.into_inner(), PARTIES * GENERATIONS);
            assert_eq!(barrier.sleepers.into_inner(), 0);
        });
    }

    #[test]
    fn shard_barrier_survives_stress_always_parking() {
        stress_barrier(0);
    }

    #[test]
    fn shard_barrier_survives_stress_spinning() {
        // A short spin so crossings mix spin-phase wins (no wake) with
        // parks; the full `SPIN_LIMIT` with more parties than cores
        // spends most of the run burning timeslices.
        stress_barrier(256);
    }
}
