//! Host-speed probe. On a shared host the simulator's speed drifts by
//! a quarter or more over minutes, in fast and slow phases set by the
//! other tenants. The probe is a fixed slice of discrete-event work that
//! shares no code with the simulator, so its time changes only with the
//! host's speed. Timed between short slices of each timed run, it lets
//! the benchmark divide the host's phase out of what it reports.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Events one probe dispatches.
const EVENTS: u32 = 120_000;
/// Entities the events update.
const ENTITIES: usize = 1 << 12;
/// Words of the table the events read and write (256 KB). Of the sizes
/// tried (8 KB to 32 MB) this one tracked the simulator's speed best.
const TABLE: usize = 1 << 15;
/// Events pending at once.
const PENDING: u32 = 2048;

/// Median seconds of one probe on the host the bounds were set on (a
/// 2-vCPU Intel Xeon VM at 2.0 GHz). Normalised times are scaled to a
/// host running the probe in exactly this long.
pub const NOMINAL_S: f64 = 0.010;

/// The probe's state, allocated once so no probe pays for page faults.
/// It keeps under 0.4 MB resident.
pub struct Probe {
    table: Vec<u64>,
    entities: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    /// Boxed on purpose: each payload is one small heap allocation, as
    /// the simulator's packets are.
    #[allow(clippy::vec_box)]
    payloads: Vec<Box<[u64; 8]>>,
}

impl Probe {
    /// A probe, warmed up by one untimed call.
    pub fn new() -> Self {
        let mut probe = Self {
            table: vec![0; TABLE],
            entities: vec![0; ENTITIES],
            queue: BinaryHeap::with_capacity(PENDING as usize),
            payloads: Vec::with_capacity(128),
        };
        probe.time_s();
        probe
    }

    /// Host seconds one probe takes: a hold-model event loop in the
    /// simulator's style. Pop the earliest event, update its entity and a
    /// pseudo-random table word, box a small payload now and then, and
    /// push a follow-up event a pseudo-random delay later. Every call
    /// starts from the same state, so every call does the same work.
    pub fn time_s(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        self.entities.fill(0);
        self.queue.clear();
        self.payloads.clear();
        for i in 0..PENDING {
            self.queue.push(Reverse((next() % 4096, i % ENTITIES as u32)));
        }
        for _ in 0..EVENTS {
            let Reverse((tick, who)) = self.queue.pop().expect("the queue never drains");
            let r = next();
            let e = &mut self.entities[who as usize];
            *e = e.wrapping_mul(31).wrapping_add(r);
            let slot = &mut self.table[(r ^ *e) as usize % TABLE];
            *slot = slot.wrapping_add(tick);
            if r % 8 == 0 {
                self.payloads.push(Box::new([r; 8]));
                if self.payloads.len() == 128 {
                    self.payloads.clear();
                }
            }
            self.queue.push(Reverse((tick + 1 + r % 4096, (r >> 32) as u32 % ENTITIES as u32)));
        }
        black_box((&self.table, &self.payloads));
        t0.elapsed().as_secs_f64()
    }
}
