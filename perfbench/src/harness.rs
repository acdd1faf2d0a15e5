//! Isolated layer harnesses: one layer between the kernel's test
//! `Requester` and `Responder`, driven through public APIs only. They
//! give each layer's host cost per unit of work, to set beside the event
//! counts the full-system runs report for the same layer.

use std::hint::black_box;
use std::time::Instant;

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::calendar::CalendarQueue;
use pcisim_kernel::component::{ComponentId, PortId};
use pcisim_kernel::packet::Command;
use pcisim_kernel::sim::{RunOutcome, Simulation};
use pcisim_kernel::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
use pcisim_kernel::tick::ns;
use pcisim_kernel::xbar::Crossbar;
use pcisim_pci::caps::PortType;
use pcisim_pci::header::program_memory_window;
use pcisim_pci::regs::type1;
use pcisim_pcie::link::{PcieLink, PORT_DOWN_MASTER, PORT_UP_SLAVE};
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::{
    make_vp2p, port_downstream_master, PcieRouter, RouterConfig, PORT_UPSTREAM_SLAVE,
};

use crate::median;
use crate::workload::sum_suffix;

/// Requests each fabric harness pushes through its layer.
const REQUESTS: u64 = 10_000;
/// Timed repetitions of each harness; the median is reported.
const REPS: usize = 7;

/// Host ns per calendar-queue operation (one pop of the earliest entry
/// plus one push at a pseudo-random near-future tick: the hold model),
/// with `depth` entries queued throughout.
pub fn calendar_ns_per_op(seed: u64, ops: u64) -> f64 {
    let depth = 4096u64;
    let mut state = seed | 1;
    let mut delta = move || {
        // xorshift64: a cheap deterministic spread of 0..20 µs offsets.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % ns(20_000)
    };
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut q = CalendarQueue::new();
            let mut order = 0u64;
            for _ in 0..depth {
                q.push(delta(), order, order);
                order += 1;
            }
            let t0 = Instant::now();
            for _ in 0..ops {
                let (tick, item) = q.pop().expect("the hold model keeps the queue full");
                black_box(item);
                q.push(tick + delta(), order, order);
                order += 1;
            }
            let elapsed = t0.elapsed().as_secs_f64();
            assert_eq!(q.len() as u64, depth, "calendar queue lost entries");
            elapsed * 1e9 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Times `REPS` runs of a Requester → layer → Responder simulation built
/// by `build`, and returns the median host ns per unit, where `units`
/// counts the work from the finished simulation's statistics.
fn fabric_ns(mut build: impl FnMut() -> Simulation, units: impl Fn(&Simulation) -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut sim = build();
            let t0 = Instant::now();
            let outcome = sim.run_to_quiesce();
            let elapsed = t0.elapsed().as_secs_f64();
            assert_eq!(outcome, RunOutcome::QueueEmpty, "harness must drain");
            elapsed * 1e9 / units(&sim)
        })
        .collect();
    median(&samples)
}

/// Adds a requester scripted with `REQUESTS` 64 B `cmd`s to `addr(i)`.
fn requester(sim: &mut Simulation, cmd: Command, addr: impl Fn(u64) -> u64) -> ComponentId {
    let script = (0..REQUESTS).map(|i| (cmd, addr(i), 64)).collect();
    let (req, _) = Requester::new("gen", script);
    sim.add(Box::new(req))
}

/// Host ns per request through a two-port `Crossbar` (64 B reads).
pub fn xbar_ns_per_op() -> f64 {
    fabric_ns(
        || {
            let mut sim = Simulation::new();
            let r = requester(&mut sim, Command::ReadReq, |i| 0x1000 + (i % 64) * 64);
            let x = sim.add(Box::new(
                Crossbar::builder("xbar")
                    .num_ports(2)
                    .queue_capacity(32)
                    .route(AddrRange::new(0x1000, 0x10000), PortId(1))
                    .build(),
            ));
            let (resp, _) = Responder::new("dev", ns(10));
            let d = sim.add(Box::new(resp));
            sim.connect((r, REQUESTER_PORT), (x, PortId(0)));
            sim.connect((x, PortId(1)), (d, RESPONDER_PORT));
            sim
        },
        |sim| sim.stats().get("xbar.requests").unwrap_or(0.0),
    )
}

/// Host ns per TLP (both directions) over a Gen 2 x8 `PcieLink`
/// carrying 64 B non-posted writes.
pub fn link_ns_per_tlp() -> f64 {
    fabric_ns(
        || {
            let mut sim = Simulation::new();
            let r = requester(&mut sim, Command::WriteReq, |i| 0x4000_0000 + (i % 64) * 64);
            let l = sim.add(Box::new(PcieLink::new(
                "link",
                LinkConfig::new(Generation::Gen2, LinkWidth::X8),
            )));
            let (resp, _) = Responder::new("dev", 0);
            let d = sim.add(Box::new(resp));
            sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
            sim.connect((l, PORT_DOWN_MASTER), (d, RESPONDER_PORT));
            sim
        },
        |sim| sum_suffix(&sim.stats(), ".tlps_tx"),
    )
}

/// Host ns per TLP (requests plus completions) through a root complex
/// routing 64 B reads by VP2P window to two root ports in turn.
pub fn router_ns_per_tlp() -> f64 {
    let window = |i: u64| AddrRange::with_size(0x4000_0000 + i * 0x10_0000, 0x10_0000);
    fabric_ns(
        || {
            let mut sim = Simulation::new();
            let r =
                requester(&mut sim, Command::ReadReq, |i| window(i % 2).start() + (i % 64) * 64);
            let vp2ps = (0..2u8)
                .map(|i| {
                    let cs = make_vp2p(
                        0x8086,
                        0x9c90,
                        PortType::RootPort,
                        Generation::Gen2,
                        LinkWidth::X4,
                    );
                    {
                        let mut b = cs.borrow_mut();
                        b.write(type1::SECONDARY_BUS, 1, u32::from(i + 1));
                        b.write(type1::SUBORDINATE_BUS, 1, u32::from(i + 1));
                        program_memory_window(&mut b, window(u64::from(i)));
                    }
                    cs
                })
                .collect();
            let rc =
                sim.add(Box::new(PcieRouter::root_complex("rc", RouterConfig::default(), vp2ps)));
            sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
            for i in 0..2 {
                let (resp, _) = Responder::new(format!("dev{i}"), 0);
                let d = sim.add(Box::new(resp));
                sim.connect((rc, port_downstream_master(i)), (d, RESPONDER_PORT));
            }
            sim
        },
        |sim| {
            let stats = sim.stats();
            stats.get("rc.requests").unwrap_or(0.0) + stats.get("rc.responses").unwrap_or(0.0)
        },
    )
}
