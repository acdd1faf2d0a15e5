//! The benchmark's named workloads: how each one's tree is built, which
//! workloads attach to it, how it runs, and what a correct run must show.

use std::time::Instant;

use pcisim_devices::ide::IdeDiskConfig;
use pcisim_devices::nic::NicConfig;
use pcisim_devices::traffic::TrafficSpec;
use pcisim_devices::virtio::{VirtioClass, VirtioConfig};
use pcisim_kernel::shard::ShardedSimulator;
use pcisim_kernel::sim::{RunOutcome, Simulation};
use pcisim_kernel::stats::StatsSnapshot;
use pcisim_kernel::tick::{ns, us, Tick};
use pcisim_kernel::trace::TraceLog;
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::RouterConfig;
use pcisim_system::builder::DeviceSpec;
use pcisim_system::experiments::stats_fnv;
use pcisim_system::topology::{build_topology, build_topology_sharded, Attachment, Node, Topology};
use pcisim_system::traffic::heavy_traffic;
use pcisim_system::workload::dd::{DdConfig, DdReportHandle};
use pcisim_system::workload::nic_rx::{NicRxConfig, NicRxReportHandle};
use pcisim_system::workload::virtio::{VirtioAppConfig, VirtioReportHandle};

use crate::alloc;
use crate::calib::{self, Probe};

/// Bytes per IDE sector: one `dd` op.
pub const SECTOR: u64 = 4096;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's validation chain with one `dd` read (Fig. 9).
    DdValidation,
    /// Three populated root ports: virtio blk + net behind a switch, an
    /// e1000e receiving a seeded heavy-tailed stream, an IDE disk.
    FleetMixed,
    /// `Topology::fanout(2, 4, 4)`: 32 IDE disks under the 2-shard driver.
    FanoutSharded2,
}

impl Workload {
    const ALL: [Self; 3] = [Self::DdValidation, Self::FleetMixed, Self::FanoutSharded2];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Self::DdValidation => "dd_validation",
            Self::FleetMixed => "fleet_mixed",
            Self::FanoutSharded2 => "fanout_sharded2",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shards the timed runs use (1 = the serial `Simulation`).
    pub fn shards(self) -> usize {
        match self {
            Self::FanoutSharded2 => 2,
            _ => 1,
        }
    }
}

/// How much work one run of a workload simulates; `Size::full` is what
/// the timed runs use.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `dd_validation`'s `dd` block.
    pub dd_bytes: u64,
    /// `dd` block of `fleet_mixed`'s disk.
    pub fleet_dd_bytes: u64,
    /// Descriptor chains per virtio function of `fleet_mixed`.
    pub virtio_chains: u32,
    /// Frames `fleet_mixed`'s NIC receive stream delivers.
    pub nic_frames: u32,
    /// `dd` block per disk of `fanout_sharded2`.
    pub fanout_dd_bytes: u64,
}

impl Size {
    /// The size of a timed run. `fleet_mixed`'s four streams each take
    /// 8–12 ms of simulated time, so all three root ports stay busy
    /// together until near the end. `fanout_sharded2`'s disks each read
    /// 16 KB: at 64 KB the 32 disks' non-posted writes queue long enough
    /// at the root complex to trip its 50 µs completion timeout.
    pub fn full() -> Self {
        Self {
            dd_bytes: 8 << 20,
            fleet_dd_bytes: 3 << 20,
            virtio_chains: 1024,
            nic_frames: 3072,
            fanout_dd_bytes: 16 << 10,
        }
    }

    /// This size with every input divided by `d`, keeping at least one
    /// sector per disk and eight chains or frames per stream.
    pub fn div(self, d: u32) -> Self {
        let bytes = |b: u64| (b / u64::from(d)).max(SECTOR);
        Self {
            dd_bytes: bytes(self.dd_bytes),
            fleet_dd_bytes: bytes(self.fleet_dd_bytes),
            virtio_chains: (self.virtio_chains / d).max(8),
            nic_frames: (self.nic_frames / d).max(8),
            fanout_dd_bytes: bytes(self.fanout_dd_bytes),
        }
    }
}

/// The simulation a workload runs under.
enum Driver {
    /// One `Simulation` on the calling thread.
    Serial(Box<Simulation>),
    /// The conservative-window sharded driver.
    Sharded(ShardedSimulator),
}

impl Driver {
    fn run_to_quiesce(&mut self) -> RunOutcome {
        match self {
            Self::Serial(sim) => sim.run_to_quiesce(),
            Self::Sharded(drv) => drv.run_to_quiesce(),
        }
    }

    /// Runs at most `max_events` more dispatches (the sharded driver
    /// stops at the first window barrier past them). Both resume exactly
    /// where they left off.
    fn run_events(&mut self, max_events: u64) -> RunOutcome {
        match self {
            Self::Serial(sim) => sim.run(Tick::MAX, max_events),
            Self::Sharded(drv) => drv.run(Tick::MAX, max_events),
        }
    }

    fn now(&self) -> Tick {
        match self {
            Self::Serial(sim) => sim.now(),
            Self::Sharded(drv) => drv.now(),
        }
    }

    fn events_processed(&self) -> u64 {
        match self {
            Self::Serial(sim) => sim.events_processed(),
            Self::Sharded(drv) => drv.events_processed(),
        }
    }

    fn stats(&self) -> StatsSnapshot {
        match self {
            Self::Serial(sim) => sim.stats(),
            Self::Sharded(drv) => drv.stats(),
        }
    }

    fn set_trace_capacity(&mut self, capacity: usize) {
        match self {
            Self::Serial(sim) => sim.set_trace_capacity(capacity),
            Self::Sharded(drv) => drv.set_trace_capacity(capacity),
        }
    }

    fn take_trace(&mut self) -> TraceLog {
        match self {
            Self::Serial(sim) => sim.take_trace(),
            Self::Sharded(drv) => drv.take_trace(),
        }
    }
}

/// Report handles of every attached workload driver.
#[derive(Default)]
struct Reports {
    dd: Vec<DdReportHandle>,
    virtio: Vec<VirtioReportHandle>,
    nic_rx: Vec<NicRxReportHandle>,
    /// Operations the attached drivers were configured to complete.
    expected: u64,
}

impl Reports {
    /// Operations completed: 4 KB sectors, virtio chains, NIC frames.
    fn ops(&self) -> u64 {
        let sectors: u64 = self.dd.iter().map(|r| r.borrow().bytes / SECTOR).sum();
        let chains: u64 = self.virtio.iter().map(|r| r.borrow().requests).sum();
        let frames: u64 = self.nic_rx.iter().map(|r| r.borrow().frames).sum();
        sectors + chains + frames
    }

    fn all_done(&self) -> bool {
        self.dd.iter().all(|r| r.borrow().done)
            && self.virtio.iter().all(|r| r.borrow().done)
            && self.nic_rx.iter().all(|r| r.borrow().done)
    }

    /// Mean simulated `dd` throughput over the attached disks, Gb/s.
    fn dd_gbps(&self) -> f64 {
        let sum: f64 = self.dd.iter().map(|r| r.borrow().throughput_gbps()).sum();
        sum / self.dd.len().max(1) as f64
    }
}

/// Host seconds spent in each setup step of one system.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `build_topology` / `build_topology_sharded` + `into_driver`. The
    /// build re-plans and re-enumerates the tree internally.
    pub build_s: f64,
    /// Every `attach_*` call.
    pub attach_s: f64,
}

impl SetupTimes {
    /// From a `Topology` value to an attached, ready-to-run system.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.attach_s
    }

    /// These times multiplied by `k`.
    pub fn scaled(self, k: f64) -> Self {
        Self { build_s: self.build_s * k, attach_s: self.attach_s * k }
    }
}

/// A built, attached system waiting to run.
pub struct Ready {
    driver: Driver,
    reports: Reports,
    /// Frames the NIC's stream generates (the NIC reports delivered ones).
    nic_offered: u64,
}

/// What one run of a workload left behind.
pub struct RunRecord {
    /// Operations the run was configured to complete.
    pub expected_ops: u64,
    /// Operations completed.
    pub ops: u64,
    /// Host seconds spent simulating (probes excluded).
    pub wall_s: f64,
    /// `wall_s` scaled to a host of nominal speed: each slice's seconds
    /// times `calib::NOMINAL_S` over the mean of the probes around it.
    /// Equal to `wall_s` for a run made without probes.
    pub norm_s: f64,
    /// Median probe time of the run, or `calib::NOMINAL_S` without probes.
    pub probe_s: f64,
    /// Allocations made while simulating.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Process `(user, kernel)` CPU clock ticks while simulating.
    pub cpu_ticks: (u64, u64),
    /// Scheduler dispatches.
    pub events: u64,
    /// Simulated tick the run quiesced at.
    pub quiesce_tick: Tick,
    /// `experiments::stats_fnv` of the final counters.
    pub fnv: u64,
    /// Every counter the layers export.
    pub stats: StatsSnapshot,
    /// Mean simulated `dd` Gb/s of the run's disks.
    pub dd_gbps: f64,
    /// Frames the NIC's stream generated.
    pub nic_offered: u64,
    /// Why the run is incorrect, if it is.
    pub failure: Option<String>,
    /// The drained trace, for a traced run.
    pub trace: Option<TraceLog>,
}

/// Ring capacity of a traced run: far above what the sized traced runs
/// record, so `kernel.trace.dropped` reads 0 unless a run outgrows it.
const TRACE_CAPACITY: usize = 1 << 24;

/// The tree a workload runs on.
pub fn topology(w: Workload, seed: u64, size: Size) -> Topology {
    match w {
        Workload::DdValidation => Topology::validation(),
        Workload::FanoutSharded2 => Topology::fanout(2, 4, 4),
        Workload::FleetMixed => fleet_topology(seed, size),
    }
}

/// `fleet_mixed`: RP0 x4 to a switch holding virtio-blk and virtio-net
/// (x4 each), RP1 x1 to an e1000e receiving the seeded million-flow
/// stream, RP2 x1 to an IDE disk. A 4 µs mean gap keeps the x1 NIC link
/// below saturation, so no frame overruns its ring.
fn fleet_topology(seed: u64, size: Size) -> Topology {
    let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
    let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
    let virtio = |class| VirtioConfig { class, ..VirtioConfig::default() };
    let switch = Node::Switch {
        config: RouterConfig::default(),
        name: Some("switch".into()),
        ports: vec![
            Some(Attachment::named(
                "vblk_link",
                x4(),
                Node::endpoint("vblk0", DeviceSpec::Virtio(virtio(VirtioClass::Blk))),
            )),
            Some(Attachment::named(
                "vnet_link",
                x4(),
                Node::endpoint("vnet0", DeviceSpec::Virtio(virtio(VirtioClass::Net))),
            )),
        ],
    };
    let stream = heavy_traffic(seed, 1 << 20, size.nic_frames, ns(4000));
    let nic = NicConfig { rx_source: Some(TrafficSpec::Generate(stream)), ..NicConfig::default() };
    // The root complex every preset topology uses: paper timing with the
    // completion timeout armed at 50 µs.
    let rc = RouterConfig { completion_timeout: Some(us(50)), ..RouterConfig::default() };
    Topology::new(
        rc,
        vec![
            Some(Attachment::named("root_link0", x4(), switch)),
            Some(Attachment::named("nic_link", x1(), Node::endpoint("nic", DeviceSpec::Nic(nic)))),
            Some(Attachment::named(
                "disk_link",
                x1(),
                Node::endpoint("disk", DeviceSpec::Disk(IdeDiskConfig::default())),
            )),
        ],
    )
}

/// Attaches the workload drivers of `w` to a built system (serial or
/// sharded: both expose the same `attach_*` methods).
macro_rules! attach_all {
    ($sys:expr, $w:expr, $size:expr) => {{
        let mut reports = Reports::default();
        let dd = |bytes| DdConfig { block_bytes: bytes, ..DdConfig::default() };
        match $w {
            Workload::DdValidation => {
                reports.dd.push($sys.attach_dd(0, dd($size.dd_bytes)));
                reports.expected = $size.dd_bytes / SECTOR;
            }
            Workload::FanoutSharded2 => {
                for i in 0..$sys.endpoints.len() {
                    reports.dd.push($sys.attach_dd(i, dd($size.fanout_dd_bytes)));
                }
                reports.expected = $sys.endpoints.len() as u64 * ($size.fanout_dd_bytes / SECTOR);
            }
            Workload::FleetMixed => {
                let chains = |request_bytes| VirtioAppConfig {
                    write: true,
                    requests: $size.virtio_chains,
                    queue_depth: 8,
                    request_bytes,
                    ..VirtioAppConfig::default()
                };
                let idx = |name: &str| {
                    $sys.endpoints.iter().position(|e| e.name == name).expect("fleet endpoint")
                };
                let (vblk, vnet, nic, disk) = (idx("vblk0"), idx("vnet0"), idx("nic"), idx("disk"));
                reports.virtio.push($sys.attach_virtio(vblk, chains(4096)));
                reports.virtio.push($sys.attach_virtio(vnet, chains(1514)));
                reports.nic_rx.push($sys.attach_nic_rx(
                    nic,
                    NicRxConfig { expect_frames: $size.nic_frames, ..NicRxConfig::default() },
                ));
                reports.dd.push($sys.attach_dd(disk, dd($size.fleet_dd_bytes)));
                reports.expected = 2 * u64::from($size.virtio_chains)
                    + u64::from($size.nic_frames)
                    + $size.fleet_dd_bytes / SECTOR;
            }
        }
        reports
    }};
}

/// Builds and attaches `w` at `size` under `shards` shards (1 = serial
/// `Simulation`), timing each step. A traced system records every
/// category into a ring sized so nothing is evicted.
pub fn setup(
    w: Workload,
    seed: u64,
    size: Size,
    shards: usize,
    traced: bool,
) -> (Ready, SetupTimes) {
    let mut topo = topology(w, seed, size);
    if traced {
        topo = topo.with_tracing();
    }
    let nic_offered = if w == Workload::FleetMixed { u64::from(size.nic_frames) } else { 0 };
    let t0 = Instant::now();
    let (mut driver, reports, times) = if shards == 1 {
        let mut sys = build_topology(topo);
        let t1 = Instant::now();
        let reports = attach_all!(sys, w, size);
        let times =
            SetupTimes { build_s: (t1 - t0).as_secs_f64(), attach_s: t1.elapsed().as_secs_f64() };
        (Driver::Serial(Box::new(sys.sim)), reports, times)
    } else {
        let mut sys = build_topology_sharded(topo, shards);
        let t1 = Instant::now();
        let reports = attach_all!(sys, w, size);
        let t2 = Instant::now();
        let driver = sys.into_driver();
        let times = SetupTimes {
            build_s: (t1 - t0).as_secs_f64() + t2.elapsed().as_secs_f64(),
            attach_s: (t2 - t1).as_secs_f64(),
        };
        (Driver::Sharded(driver), reports, times)
    };
    if traced {
        driver.set_trace_capacity(TRACE_CAPACITY);
    }
    (Ready { driver, reports, nic_offered }, times)
}

/// Dispatches per slice of a probed run: tens of ms of simulation on
/// every workload, so each slice sees the host's speed of that moment.
const SLICE_EVENTS: u64 = 200_000;

/// Host-resource use of the simulating part of a run.
#[derive(Default)]
struct Usage {
    wall_s: f64,
    norm_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    cpu_ticks: (u64, u64),
}

impl Usage {
    /// Runs `step`, adds its host-resource use except to `norm_s`, and
    /// returns its result and host seconds.
    fn add<T>(&mut self, step: impl FnOnce() -> T) -> (T, f64) {
        let (c0, a0) = (alloc::cpu_ticks(), alloc::snapshot());
        let t0 = Instant::now();
        let out = step();
        let wall_s = t0.elapsed().as_secs_f64();
        let (c1, a1) = (alloc::cpu_ticks(), alloc::snapshot());
        self.wall_s += wall_s;
        self.allocs += a1.allocs - a0.allocs;
        self.alloc_bytes += a1.bytes - a0.bytes;
        if let (Some(a), Some(b)) = (c0, c1) {
            self.cpu_ticks.0 += b.0 - a.0;
            self.cpu_ticks.1 += b.1 - a.1;
        }
        (out, wall_s)
    }
}

/// Runs a ready system to quiescence and checks it: every workload done,
/// the queue drained, and no router error, virtqueue fault or receive
/// overrun. With a `probe`, the run goes in slices of `SLICE_EVENTS`
/// dispatches with a probe before and after each, and each slice's time
/// is normalised by the mean of its two probes.
pub fn run(ready: Ready, traced: bool, probe: Option<&mut Probe>) -> RunRecord {
    let Ready { mut driver, reports, nic_offered } = ready;
    let mut usage = Usage::default();
    let (outcome, probe_s) = match probe {
        None => {
            let (outcome, wall_s) = usage.add(|| driver.run_to_quiesce());
            usage.norm_s = wall_s;
            (outcome, calib::NOMINAL_S)
        }
        Some(probe) => {
            let mut before = probe.time_s();
            let mut probes = vec![before];
            loop {
                let (outcome, slice_s) = usage.add(|| driver.run_events(SLICE_EVENTS));
                let after = probe.time_s();
                usage.norm_s += slice_s * calib::NOMINAL_S / ((before + after) / 2.0);
                probes.push(after);
                before = after;
                if outcome != RunOutcome::EventLimit {
                    break (outcome, crate::median(&probes));
                }
            }
        }
    };
    let stats = driver.stats();
    let mut failures = Vec::new();
    if outcome != RunOutcome::QueueEmpty {
        failures.push(format!("run ended {outcome:?}"));
    }
    if !reports.all_done() {
        failures.push("a workload did not report done".to_string());
    }
    if reports.ops() != reports.expected {
        failures.push(format!("{} of {} ops completed", reports.ops(), reports.expected));
    }
    for (what, n) in [
        ("router errors", router_errors(&stats)),
        ("desc_faults", sum_suffix(&stats, ".desc_faults")),
        ("rx_overruns", sum_suffix(&stats, ".rx_overruns")),
    ] {
        if n != 0.0 {
            failures.push(format!("{what} = {n}"));
        }
    }
    RunRecord {
        expected_ops: reports.expected,
        ops: reports.ops(),
        wall_s: usage.wall_s,
        norm_s: usage.norm_s,
        probe_s,
        allocs: usage.allocs,
        alloc_bytes: usage.alloc_bytes,
        cpu_ticks: usage.cpu_ticks,
        events: driver.events_processed(),
        quiesce_tick: driver.now(),
        fnv: stats_fnv(&stats),
        dd_gbps: reports.dd_gbps(),
        nic_offered,
        failure: (!failures.is_empty()).then(|| failures.join("; ")),
        trace: traced.then(|| driver.take_trace()),
        stats,
    }
}

/// Sum of every counter whose key ends with `suffix`.
pub fn sum_suffix(stats: &StatsSnapshot, suffix: &str) -> f64 {
    stats.iter().filter(|(k, _)| k.ends_with(suffix)).fold(0.0, |acc, (_, v)| acc + v)
}

/// Component names of the routers (the root complex and every switch):
/// the components exporting `ingress_refusals`.
fn routers(stats: &StatsSnapshot) -> Vec<String> {
    stats
        .iter()
        .filter_map(|(k, _)| k.strip_suffix(".ingress_refusals"))
        .map(str::to_string)
        .collect()
}

/// Sum of `field` over every router.
pub fn router_sum(stats: &StatsSnapshot, field: &str) -> f64 {
    routers(stats)
        .iter()
        .fold(0.0, |acc, r| acc + stats.get(&format!("{r}.{field}")).unwrap_or(0.0))
}

/// Completion timeouts plus unsupported requests over every router.
pub fn router_errors(stats: &StatsSnapshot) -> f64 {
    router_sum(stats, "completion_timeouts") + router_sum(stats, "unsupported_requests")
}
