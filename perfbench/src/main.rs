//! `pcisim-perfbench`: runs one named workload of `BENCHMARK.json` and
//! prints its metrics.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dd_validation|fleet_mixed|fanout_sharded2> \
//!     --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The benchmark measures the simulator from outside: it times its own
//! calls into the layers' public entry points and reads the counters the
//! layers export through `stats()`. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` the per-layer ones, which add the
//! isolated layer harnesses and a separate, smaller traced run. Every run
//! is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--tiny` divides every
//! input by 64 for the self-test.

mod alloc;
mod calib;
mod harness;
mod workload;

use std::fmt::Write as _;
use std::time::{Instant, UNIX_EPOCH};

use pcisim_bench::reference::PHYS_DD_GBPS;
use pcisim_kernel::stats::StatsSnapshot;
use pcisim_kernel::trace::{Stage, TraceKind, TraceLog};

use workload::{router_errors, router_sum, run, setup, sum_suffix, RunRecord, Size, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Systems set up (and dropped unrun) before each timed run to time
/// `setup_s`, besides the timed run's own.
const SETUP_REPS: usize = 10;
/// Timed runs made however short `--seconds` is.
const MIN_RUNS: usize = 3;
/// The traced pass simulates the timed run's inputs divided by this, so
/// its trace ring stays in the tens of MB.
const TRACE_DIV: u32 = 16;
/// Traced runs, each beside an untraced twin of the same size.
const TRACE_REPS: usize = 3;
/// Serial reference runs of a sharded workload in a `--trace 1` run (one
/// in a `--trace 0` run, for the correctness check).
const SERIAL_REPS: usize = 5;
/// `--tiny` divides every input by this.
const TINY_DIV: u32 = 64;
/// Calendar-queue operations per harness repetition.
const CALENDAR_OPS: u64 = 1 << 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Failure accounting: every run's operations count as attempted, and
/// as failed too when the run breaks a check.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Books run `r` (described by `what`), checking it against the first
    /// `(quiesce tick, stats FNV)` booked under the same `anchor`: runs of
    /// one build over the same inputs must agree bit for bit.
    fn book(&mut self, what: &str, r: &RunRecord, anchor: &mut Option<(u64, u64)>) {
        let got = (r.quiesce_tick, r.fnv);
        let mismatch = match *anchor {
            None => {
                *anchor = Some(got);
                None
            }
            Some(want) if want != got => Some(format!(
                "quiesce tick {} / stats FNV {:#x} differ from {} / {:#x}",
                got.0, got.1, want.0, want.1
            )),
            Some(_) => None,
        };
        self.attempted += r.expected_ops;
        if let Some(why) = r.failure.clone().or(mismatch) {
            self.fail(r.expected_ops, format!("{what}: {why}"));
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.problems.push(why);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Compares `anchor` with the one an earlier process running this same
/// binary stored under `key` (next to the binary), storing it when none
/// exists: all runs of one build must agree, not only those of one
/// process. A rebuilt binary has a new modification time and so starts
/// afresh.
fn persisted_anchor(key: &str, anchor: (u64, u64)) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = exe.with_file_name("perfbench-anchors");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{key}-{}-{built}", meta.len()));
    let want = format!("{} {:#x}", anchor.0, anchor.1);
    match std::fs::read_to_string(&path) {
        Ok(stored) if stored.trim() == want => Ok(()),
        Ok(stored) => Err(format!(
            "quiesce tick / stats FNV {want} differ from an earlier run's {}",
            stored.trim()
        )),
        Err(_) => std::fs::write(&path, &want).map_err(|e| e.to_string()),
    }
}

/// Pipeline stage of a traced component: the kernel's default mapping,
/// except that the workload drivers (`dd0`, `vdrv0`, `nicrx2`) are
/// CPU-side code and `Topology::fanout`'s auto-named switches are `sw{n}`.
fn stage_of(name: &str) -> Stage {
    if ["dd", "vdrv", "nicrx", "nictx"].iter().any(|p| name.starts_with(p)) {
        Stage::Host
    } else if name.starts_with("sw") {
        Stage::Switch
    } else {
        Stage::classify(name)
    }
}

const STAGES: [(Stage, &str); 5] = [
    (Stage::Host, "host"),
    (Stage::RootComplex, "rc"),
    (Stage::Switch, "switch"),
    (Stage::Link, "link"),
    (Stage::Device, "device"),
];

/// Per-stage attribution of a traced run. Returns why the trace is
/// unusable, if it is: events were evicted, no request lifecycle was
/// recorded, or the stage means do not sum to the mean lifecycle.
fn trace_metrics(m: &mut Metrics, log: &TraceLog, ops: f64) -> Option<String> {
    let att = log.attribution_with(stage_of);
    let total = att.mean_total_ns();
    let mut hops = [0u64; Stage::COUNT];
    for ev in &log.events {
        if matches!(ev.kind, TraceKind::HopRequest | TraceKind::HopResponse) {
            let name = log.names.get(ev.component.0 as usize).map_or("?", String::as_str);
            hops[stage_of(name) as usize] += 1;
        }
    }
    let mut sum = 0.0;
    for (stage, name) in STAGES {
        let ns = att.mean_stage_ns(stage);
        sum += ns;
        m.put(format!("trace.{name}.sim_ns"), ns, "ns");
        m.put(
            format!("trace.{name}.hops_per_op"),
            ratio(hops[stage as usize] as f64, ops),
            "count",
        );
    }
    m.put("trace.total.sim_ns", total, "ns");
    m.put("kernel.trace.dropped", log.dropped as f64, "count");
    if log.dropped != 0 {
        Some(format!("the trace ring dropped {} events", log.dropped))
    } else if att.lifecycles.is_empty() {
        Some("the trace holds no request lifecycle".to_string())
    } else if (sum - total).abs() > 1e-9 * total {
        Some(format!("stage means sum to {sum} ns, lifecycles average {total} ns"))
    } else {
        None
    }
}

/// The deterministic per-layer counters of one run, per operation.
fn counter_metrics(m: &mut Metrics, r: &RunRecord) {
    let s: &StatsSnapshot = &r.stats;
    let ops = r.ops as f64;
    let get = |k: &str| s.get(k).unwrap_or(0.0);
    let per_op = |v: f64| ratio(v, ops);
    m.put("kernel.sim.events_per_op", per_op(r.events as f64), "count");
    // Host fabric: the memory bus crossbar, the IOCache and DRAM.
    m.put("kernel.xbar.requests_per_op", per_op(get("membus.requests")), "count");
    m.put("kernel.xbar.refusals_per_op", per_op(get("membus.refusals")), "count");
    m.put("kernel.xbar.unsupported_per_op", per_op(get("membus.unsupported_requests")), "count");
    m.put("kernel.iocache.accesses_per_op", per_op(get("iocache.accesses")), "count");
    m.put("kernel.iocache.refusals_per_op", per_op(get("iocache.refusals")), "count");
    m.put("kernel.dram.reads_per_op", per_op(get("dram.reads")), "count");
    m.put("kernel.dram.writes_per_op", per_op(get("dram.writes")), "count");
    // Links, summed over both directions of every link.
    let dllps =
        sum_suffix(s, ".acks_tx") + sum_suffix(s, ".naks_tx") + sum_suffix(s, ".updatefc_tx");
    let busiest =
        s.iter().filter(|(k, _)| k.ends_with(".busy_ticks")).map(|(_, v)| v).fold(0.0, f64::max);
    m.put("pcie.link.tlps_per_op", per_op(sum_suffix(s, ".tlps_tx")), "count");
    m.put("pcie.link.dllps_per_op", per_op(dllps), "count");
    m.put(
        "pcie.link.admission_refusals_per_op",
        per_op(sum_suffix(s, ".admission_refusals")),
        "count",
    );
    m.put("pcie.link.replays_per_op", per_op(sum_suffix(s, ".replays")), "count");
    m.put("pcie.link.busy_frac", ratio(busiest, r.quiesce_tick as f64), "fraction");
    // Routers: the root complex and every switch.
    let tlps = router_sum(s, "requests") + router_sum(s, "responses");
    m.put("pcie.router.tlps_per_op", per_op(tlps), "count");
    m.put(
        "pcie.router.ingress_refusals_per_op",
        per_op(router_sum(s, "ingress_refusals")),
        "count",
    );
    m.put("pcie.router.egress_stalls_per_op", per_op(router_sum(s, "egress_stalls")), "count");
    m.put("pcie.router.errors", router_errors(s), "count");
    // Devices. Virtio functions export `desc_reads`; the NIC `irqs_coalesced`.
    let per_device = |marker: &str, fields: &[&str]| -> f64 {
        let devices = s.iter().filter_map(|(k, _)| k.strip_suffix(marker));
        devices.fold(0.0, |acc, dev| fields.iter().fold(acc, |a, f| a + get(&format!("{dev}.{f}"))))
    };
    let dma = ["dma_read_tlps", "dma_write_tlps"];
    m.put("devices.virtio.dma_tlps_per_op", per_op(per_device(".desc_reads", &dma)), "count");
    m.put("devices.virtio.desc_reads_per_op", per_op(sum_suffix(s, ".desc_reads")), "count");
    m.put("devices.nic.dma_tlps_per_op", per_op(per_device(".irqs_coalesced", &dma)), "count");
    m.put(
        "devices.nic.rx_delivered_frac",
        ratio(per_device(".irqs_coalesced", &["frames_rx"]), r.nic_offered as f64),
        "fraction",
    );
    m.put("devices.intc.irqs_per_op", per_op(get("gic.raised")), "count");
    m.put("devices.ide.dma_stalls_per_op", per_op(sum_suffix(s, ".dma_stalls")), "count");
}

/// Per-run figures kept from every timed run.
struct Sample {
    /// Ops per host-speed-normalised second.
    ops_per_s: f64,
    /// Ops per host second.
    raw_ops_per_s: f64,
    probe_s: f64,
    norm_s: f64,
    ns_per_event: f64,
    allocs: f64,
    alloc_bytes: f64,
    cpu_ticks: (u64, u64),
}

fn bench(args: &Args) -> (Ledger, Metrics) {
    let (w, seed) = (args.workload, args.seed);
    let size = if args.tiny { Size::full().div(TINY_DIV) } else { Size::full() };
    let shards = w.shards();
    let mut ledger = Ledger::default();
    let mut m = Metrics::default();

    // Timed, untraced runs for `--seconds`. Before each, `SETUP_REPS`
    // more systems are set up, timed and dropped unrun, so `setup_s`
    // samples the host over the whole run, as `ops_per_s` does. The traced
    // pass also times planning and enumeration on their own. The host
    // seconds of the set-ups and of each slice of a timed run are scaled
    // to a host of nominal speed by the probes taken around them (see
    // `calib`).
    let mut probe = calib::Probe::new();
    let mut setups = Vec::new();
    let (mut plan_s, mut enumerate_s) = (Vec::new(), Vec::new());
    let mut anchor = None;
    let mut samples = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while samples.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let (mut batch, mut batch_plan, mut batch_enumerate) = (Vec::new(), Vec::new(), Vec::new());
        let mut ready = None;
        let before = probe.time_s();
        for _ in 0..=SETUP_REPS {
            if args.trace {
                let topo = workload::topology(w, seed, size);
                let t0 = Instant::now();
                let plan = topo.plan();
                let t1 = Instant::now();
                plan.enumerate().expect("the workload's tree enumerates");
                batch_plan.push((t1 - t0).as_secs_f64());
                batch_enumerate.push(t1.elapsed().as_secs_f64());
            }
            // Only the last system set up is kept: the timed run runs it.
            let (system, times) = setup(w, seed, size, shards, false);
            batch.push(times);
            ready = Some(system);
        }
        let scale = calib::NOMINAL_S / ((before + probe.time_s()) / 2.0);
        plan_s.extend(batch_plan.iter().map(|t| t * scale));
        enumerate_s.extend(batch_enumerate.iter().map(|t| t * scale));
        setups.extend(batch.iter().map(|t| t.scaled(scale)));
        let ready = ready.expect("the batch set a system up");
        let r = run(ready, false, Some(&mut probe));
        ledger.book("timed run", &r, &mut anchor);
        samples.push(Sample {
            ops_per_s: ratio(r.ops as f64, r.norm_s),
            raw_ops_per_s: ratio(r.ops as f64, r.wall_s),
            probe_s: r.probe_s,
            norm_s: r.norm_s,
            ns_per_event: ratio(r.norm_s * 1e9, r.events as f64),
            allocs: r.allocs as f64,
            alloc_bytes: r.alloc_bytes as f64,
            cpu_ticks: r.cpu_ticks,
        });
        last = Some(r);
    }
    let last = last.expect("at least one timed run");
    let col = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();

    // A sharded workload must match the serial simulation of its inputs.
    let (mut serial_norm, mut serial_allocs) = (Vec::new(), Vec::new());
    if shards > 1 {
        for _ in 0..if args.trace { SERIAL_REPS } else { 1 } {
            let r = run(setup(w, seed, size, 1, false).0, false, Some(&mut probe));
            ledger.book("serial reference", &r, &mut anchor);
            serial_norm.push(r.norm_s);
            serial_allocs.push(r.allocs as f64);
        }
    }

    let seed_key = if w == Workload::FleetMixed { format!("-{seed}") } else { String::new() };
    let size_key = if args.tiny { "tiny" } else { "full" };
    let key = format!("{}{seed_key}-{size_key}", w.name());
    if let Err(why) = persisted_anchor(&key, (last.quiesce_tick, last.fnv)) {
        ledger.fail(last.expected_ops, format!("timed run: {why}"));
    }
    println!(
        "# workload={} seed={seed} timed_runs={} ops_per_run={} quiesce_tick={} stats_fnv={:#x}",
        w.name(),
        samples.len(),
        last.ops,
        last.quiesce_tick,
        last.fnv
    );
    for (what, f) in [
        ("ops_per_s", (|s| s.ops_per_s) as fn(&Sample) -> f64),
        ("raw ops_per_s", |s| s.raw_ops_per_s),
        ("probe_s", |s| s.probe_s),
    ] {
        let mut v = col(f);
        v.sort_by(f64::total_cmp);
        println!(
            "# {what} over {} timed runs: min={:.6} median={:.6} max={:.6}",
            v.len(),
            v[0],
            median(&v),
            v[v.len() - 1]
        );
    }

    let setup_s =
        |f: fn(&workload::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    if !args.trace {
        m.put("ops_per_s", median(&col(|s| s.ops_per_s)), "1/s");
        m.put("setup_s", setup_s(workload::SetupTimes::setup_s), "s");
        m.put("peak_rss_mb", alloc::peak_rss_mb().unwrap_or(0.0), "MB");
        m.put("sim_error_pct", (last.dd_gbps - PHYS_DD_GBPS).abs() / PHYS_DD_GBPS * 100.0, "%");
        return (ledger, m);
    }

    m.put("system.topology.plan_s", median(&plan_s), "s");
    m.put("pci.enumeration.enumerate_s", median(&enumerate_s), "s");
    m.put("system.topology.build_s", setup_s(|t| t.build_s), "s");
    m.put("system.workload.attach_s", setup_s(|t| t.attach_s), "s");
    m.put("host.raw_ops_per_s", median(&col(|s| s.raw_ops_per_s)), "1/s");
    m.put("host.speed_x", calib::NOMINAL_S / median(&col(|s| s.probe_s)), "x");
    counter_metrics(&mut m, &last);
    let ops = last.ops as f64;
    m.put("kernel.sim.ns_per_event", median(&col(|s| s.ns_per_event)), "ns");
    m.put("kernel.sim.allocs_per_op", ratio(median(&col(|s| s.allocs)), ops), "count");
    m.put("kernel.sim.alloc_bytes_per_op", ratio(median(&col(|s| s.alloc_bytes)), ops), "B");
    let ops_scale = if args.tiny { TINY_DIV as u64 } else { 1 };
    m.put(
        "kernel.calendar.ns_per_op",
        harness::calendar_ns_per_op(seed, CALENDAR_OPS / ops_scale),
        "ns",
    );
    m.put("kernel.xbar.ns_per_op", harness::xbar_ns_per_op(), "ns");
    m.put("pcie.link.ns_per_tlp", harness::link_ns_per_tlp(), "ns");
    m.put("pcie.router.ns_per_tlp", harness::router_ns_per_tlp(), "ns");

    // Sharding: 0 where the workload runs serial.
    let (user, sys) =
        samples.iter().fold((0, 0), |(u, s), x| (u + x.cpu_ticks.0, s + x.cpu_ticks.1));
    let shard_x = ratio(median(&col(|s| s.norm_s)), median(&serial_norm));
    let shard_allocs =
        if shards > 1 { median(&col(|s| s.allocs)) - median(&serial_allocs) } else { 0.0 };
    m.put("kernel.shard.overhead_x", shard_x, "x");
    m.put("kernel.shard.allocs_per_op", ratio(shard_allocs, ops), "count");
    m.put("kernel.shard.sys_frac", ratio(sys as f64, (user + sys) as f64), "fraction");

    // The traced pass: smaller runs, each beside an untraced twin that
    // must simulate exactly what the traced one does.
    let tsize = size.div(TRACE_DIV);
    let (mut tanchor, mut plain, mut traced) = (None, Vec::new(), Vec::new());
    let mut log = None;
    for _ in 0..TRACE_REPS {
        let r = run(setup(w, seed, tsize, shards, false).0, false, None);
        ledger.book("untraced twin", &r, &mut tanchor);
        plain.push(r.wall_s);
        let mut r = run(setup(w, seed, tsize, shards, true).0, true, None);
        ledger.book("traced run", &r, &mut tanchor);
        traced.push(r.wall_s);
        log = r.trace.take().map(|t| (t, r.ops, r.expected_ops));
    }
    let (log, tops, texpected) = log.expect("at least one traced run");
    m.put("kernel.trace.overhead_x", ratio(median(&traced), median(&plain)), "x");
    if let Some(why) = trace_metrics(&mut m, &log, tops as f64) {
        ledger.fail(texpected, format!("traced run: {why}"));
    }
    (ledger, m)
}

fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!("# host nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\"", env!("PERFBENCH_RUSTC"))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <dd_validation|fleet_mixed|fanout_sharded2> \
                 --seed <n> --seconds <s> --trace <0|1> [--tiny]"
            );
            std::process::exit(2);
        }
    };
    println!("{}", host_fingerprint());
    let (ledger, metrics) = bench(&args);
    let mut problems = std::collections::BTreeMap::new();
    for why in &ledger.problems {
        *problems.entry(why).or_insert(0) += 1;
    }
    for (why, times) in problems {
        eprintln!("perfbench: incorrect ({times}x): {why}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { value.to_string() } else { "null".to_string() };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    let finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ledger.problems.is_empty() && finite,
        ledger.attempted,
        ledger.failed
    );
}
