//! Property-based tests of the simulation kernel: address-map correctness,
//! event-ordering determinism, and crossbar conservation under arbitrary
//! traffic.

use proptest::prelude::*;

use pcisim_kernel::addr::{AddrMap, AddrRange};
use pcisim_kernel::packet::Command;
use pcisim_kernel::prelude::*;
use pcisim_kernel::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An AddrMap built from disjoint ranges answers lookups exactly like
    /// a linear scan.
    #[test]
    fn addr_map_matches_linear_scan(
        spans in proptest::collection::vec((0u64..1 << 20, 1u64..1 << 12), 0..12),
        probes in proptest::collection::vec(0u64..1 << 21, 0..32),
    ) {
        let mut map = AddrMap::new();
        let mut accepted: Vec<(AddrRange, usize)> = Vec::new();
        for (i, (base, size)) in spans.iter().enumerate() {
            let range = AddrRange::with_size(*base, *size);
            if map.insert(range, i).is_ok() {
                accepted.push((range, i));
            }
        }
        prop_assert_eq!(map.len(), accepted.len());
        for p in probes {
            let linear = accepted.iter().find(|(r, _)| r.contains(p)).map(|(_, i)| i);
            prop_assert_eq!(map.lookup(p), linear, "probe {:#x}", p);
        }
    }

    /// Rejected (overlapping) inserts leave the map unchanged.
    #[test]
    fn addr_map_rejects_overlaps_atomically(
        base in 0u64..1000,
        size in 1u64..1000,
        delta in 0u64..999,
    ) {
        let mut map = AddrMap::new();
        let first = AddrRange::with_size(base, size);
        map.insert(first, "a").unwrap();
        // A range starting inside the first must be rejected.
        let overlapping = AddrRange::with_size(base + delta.min(size - 1), size);
        prop_assert!(map.insert(overlapping, "b").is_err());
        prop_assert_eq!(map.len(), 1);
        prop_assert_eq!(map.lookup(base), Some(&"a"));
    }

    /// Any scripted traffic through a crossbar with any queue depth
    /// completes fully, deterministically, twice over.
    #[test]
    fn crossbar_traffic_is_conserved_and_deterministic(
        n in 1u64..64,
        cap in 1usize..8,
        service_ns in 0u64..200,
        read_mix in any::<u64>(),
    ) {
        let run = || {
            let mut sim = Simulation::new();
            let script: Vec<_> = (0..n)
                .map(|i| {
                    let cmd = if (read_mix >> (i % 64)) & 1 == 0 {
                        Command::ReadReq
                    } else {
                        Command::WriteReq
                    };
                    (cmd, 0x1000 + (i % 16) * 64, 64u32)
                })
                .collect();
            let (req, done) = Requester::new("gen", script);
            let r = sim.add(Box::new(req));
            let x = sim.add(Box::new(
                Crossbar::builder("xbar")
                    .num_ports(2)
                    .queue_capacity(cap)
                    .route(AddrRange::new(0x1000, 0x2000), PortId(1))
                    .build(),
            ));
            let (resp, served) = Responder::new("dev", ns(service_ns));
            let d = sim.add(Box::new(resp));
            sim.connect((r, PortId(0)), (x, PortId(0)));
            sim.connect((x, PortId(1)), (d, PortId(0)));
            assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
            let completions = done.borrow().clone();
            let served = *served.borrow();
            (completions, served, sim.now(), sim.events_processed())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.1 as u64, n, "every packet must be served");
        prop_assert_eq!(a.0.len() as u64, n, "every packet must complete");
        prop_assert_eq!(a, b, "identical runs must be bit-identical");
    }

    /// For any monotone interleaving of pushes and pops, the calendar
    /// queue agrees exactly with a sorted reference model: items come out
    /// in (tick, order-stamp) order, including far-future ticks that
    /// live in the overflow heap and limit-bounded `pop_if_at_most` calls.
    #[test]
    fn calendar_queue_matches_reference_model(
        ops in proptest::collection::vec((any::<u8>(), 0u64..1 << 28), 1..256),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use pcisim_kernel::calendar::CalendarQueue;

        let mut queue: CalendarQueue<u32> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (i, &(op, delta)) in ops.iter().enumerate() {
            match op % 4 {
                // Push at `now + delta`; small deltas exercise the bucket
                // ring, large ones (>= bucket span) the overflow heap.
                0 | 1 => {
                    let delta = if op & 4 == 0 { delta % (1 << 12) } else { delta };
                    queue.push(now + delta, seq, i as u32);
                    model.push(Reverse((now + delta, seq, i as u32)));
                    seq += 1;
                }
                2 => {
                    let got = queue.pop();
                    let want = model.pop().map(|Reverse((t, _, v))| (t, v));
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                _ => {
                    let limit = now + delta % (1 << 13);
                    match queue.pop_if_at_most(limit) {
                        Ok(Some((t, o, v))) => {
                            let Reverse((mt, ms, mv)) = model.pop().expect("model nonempty");
                            prop_assert_eq!((t, o, v), (mt, ms, mv));
                            prop_assert!(t <= limit);
                            now = t;
                        }
                        Ok(None) => prop_assert!(model.is_empty()),
                        Err(head) => {
                            let &Reverse((mt, _, _)) = model.peek().expect("head beyond limit");
                            prop_assert_eq!(head, mt);
                            prop_assert!(head > limit);
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        // Drain: everything left must come out fully ordered.
        while let Some((t, v)) = queue.pop() {
            let Reverse((mt, _, mv)) = model.pop().expect("model tracks len");
            prop_assert_eq!((t, v), (mt, mv));
        }
        prop_assert!(model.is_empty());
    }

    /// Bursts of hundreds of pushes into the open window in descending
    /// `(tick, order)` order — each one lands before every pending key, so
    /// in-place insertion would shift the whole run and the fallback heap
    /// must take over — mixed with cancels and pops, against the same
    /// reference model.
    #[test]
    fn calendar_open_window_bursts_match_reference_model(
        bursts in proptest::collection::vec((1u64..400, any::<u64>()), 1..6),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use pcisim_kernel::calendar::{CalendarQueue, EventHandle, BUCKET_BITS};

        let mut queue: CalendarQueue<u64> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut handles: Vec<EventHandle> = Vec::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(len, mix) in &bursts {
            // Every tick of the burst falls in `now`'s (open) window.
            let room = (((now >> BUCKET_BITS) + 1) << BUCKET_BITS) - now;
            for j in 0..len {
                let tick = now + (len - 1 - j) * room / len;
                let order = seq + len - 1 - j;
                handles.push(queue.push(tick, order, order));
                model.push(Reverse((tick, order)));
                if (mix >> (j % 64)) & 1 == 1 && j % 3 == 0 {
                    let h = handles.swap_remove((mix.rotate_left(j as u32) % handles.len() as u64) as usize);
                    if let Some(order) = queue.cancel(h) {
                        model.retain(|&Reverse((_, o))| o != order);
                    }
                }
            }
            seq += len;
            for _ in 0..mix % (len + 1) {
                let got = queue.pop_stamped().map(|(t, o, v)| {
                    assert_eq!(o, v);
                    (t, o)
                });
                let want = model.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        while let Some((t, o, _)) = queue.pop_stamped() {
            let Reverse(want) = model.pop().expect("model tracks len");
            prop_assert_eq!((t, o), want);
        }
        prop_assert!(model.is_empty());
    }

    /// Completions from a FIFO pipeline preserve issue order.
    #[test]
    fn bridge_preserves_order(n in 1u64..48, cap in 1usize..6) {
        use pcisim_kernel::bridge::{Bridge, BRIDGE_IO_SIDE, BRIDGE_MEM_SIDE};
        let mut sim = Simulation::new();
        let script: Vec<_> = (0..n).map(|i| (Command::ReadReq, 0x1000 + i * 4, 4u32)).collect();
        let (req, done) = Requester::new("gen", script);
        let r = sim.add(Box::new(req));
        let b = sim.add(Box::new(Bridge::builder("bridge").req_capacity(cap).build()));
        let (resp, _) = Responder::new("dev", ns(10));
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (b, BRIDGE_MEM_SIDE));
        sim.connect((b, BRIDGE_IO_SIDE), (d, RESPONDER_PORT));
        prop_assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        prop_assert_eq!(done.len() as u64, n);
        // PacketIds were allocated in issue order; completions must be
        // non-decreasing in time and in-order by id for a FIFO pipeline.
        for w in done.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "completion order must match issue order");
            prop_assert!(w[0].1 <= w[1].1);
        }
    }
}

/// Open-loop arrival scheduling at multi-second horizons: `now + delay`
/// must saturate at the end of simulated time rather than wrap u64 and
/// land an event in the past (which would corrupt causality or panic the
/// calendar queue). Regression test for the traffic-generator path.
#[test]
fn long_horizon_scheduling_saturates_instead_of_wrapping() {
    use std::cell::RefCell;
    use std::rc::Rc;

    struct FarFuture {
        fired: Rc<RefCell<Vec<Tick>>>,
    }
    impl Component for FarFuture {
        fn name(&self) -> &str {
            "far"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            // Lands 5 ticks shy of the end of time.
            ctx.schedule(u64::MAX - 5, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            self.fired.borrow_mut().push(ctx.now());
            if let Event::Timer { kind: 0, .. } = ev {
                // now + delay overflows u64; must pin to u64::MAX, not wrap
                // to a tick before `now`.
                ctx.schedule(u64::MAX, Event::Timer { kind: 1, data: 0 });
            }
        }
    }

    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new();
    sim.add(Box::new(FarFuture { fired: Rc::clone(&fired) }));
    assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    let fired = fired.borrow();
    assert_eq!(*fired, vec![u64::MAX - 5, u64::MAX]);
}

/// Tick unit constructors saturate instead of wrapping: a pathological
/// `us(u64::MAX)` style conversion must stay at the end of time.
#[test]
fn tick_conversions_saturate_at_the_horizon() {
    use pcisim_kernel::tick::{ms, us};
    assert_eq!(ns(u64::MAX), u64::MAX);
    assert_eq!(us(u64::MAX / 2), u64::MAX);
    assert_eq!(ms(u64::MAX), u64::MAX);
    // Ordinary magnitudes are untouched.
    assert_eq!(ns(150), 150_000);
    assert_eq!(us(3), 3_000_000);
}
