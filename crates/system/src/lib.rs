//! `pcisim-system` — full-system assembly and the paper's workloads.
//!
//! * [`platform`] — the ARM `Vexpress_GEM5_V1` address map (§III);
//! * [`topology`] — declarative PCI-Express trees: N root ports,
//!   switches nested to arbitrary depth, any mix of endpoints (Fig. 2);
//! * [`builder`] — wires memory bus, DRAM, IOCache, PCI host, interrupt
//!   controller, root complex, switch, links and a device into one
//!   enumerated, driver-probed system (Fig. 6);
//! * [`workload`] — the `dd` block-read workload (§VI-A) and the
//!   kernel-module MMIO latency probe (Table II);
//! * [`experiments`] — one entry point per figure/table of the paper's
//!   evaluation;
//! * [`snapshot`] — checkpoint/restore over built systems.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod experiments;
pub mod platform;
pub mod snapshot;
pub mod sweep;
pub mod topology;
pub mod traffic;
pub mod workload;

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::builder::{
        build_dual_disk_system, build_legacy_system, build_system, BuiltSystem, DeviceSpec,
        LegacySystemConfig, SystemConfig,
    };
    pub use crate::experiments::{
        error_rate_ladder, error_rate_sweep, run_cxl_experiment, run_dd_experiment,
        run_fault_experiment, run_irq_rx_experiment, run_mmio_experiment, run_msix_tx_experiment,
        run_nic_rx_experiment, run_nic_tx_experiment, run_pmd_experiment, run_sector_microbench,
        run_shard_scaling, run_topology_experiment, run_virtio_experiment, stats_fnv,
        ContentionOutcome, CxlExperiment, CxlOutcome, CxlPlacement, DdExperiment, DdOutcome,
        FaultExperiment, FaultOutcome, MmioExperiment, MmioOutcome, MsixTxExperiment,
        MsixTxOutcome, NicRxExperiment, NicRxOutcome, NicTxExperiment, NicTxOutcome, PmdExperiment,
        PmdOutcome, ShardScalingOutcome, TopologyExperiment, TopologyOutcome, VirtioArm,
        VirtioExperiment, VirtioOutcome, WARMUP_TICK,
    };
    pub use crate::platform;
    pub use crate::snapshot::SystemHandle;
    pub use crate::sweep::{default_jobs, run_sweep};
    pub use crate::topology::{
        build_topology, build_topology_sharded, Attachment, EndpointHandle, EndpointKind, Node,
        PlannedTopology, Topology, TopologySystem,
    };
    pub use crate::traffic::{
        heavy_traffic, offered_load_ladder, record_trace, ArrivalProcess, SizeDist, TrafficConfig,
        TrafficSpec,
    };
    pub use crate::workload::cxl::{
        CxlHostConfig, CxlHostMode, CxlHostReport, CxlHostReportHandle,
    };
    pub use crate::workload::dd::{DdConfig, DdReport, DdReportHandle};
    pub use crate::workload::mmio::{MmioProbeConfig, MmioReport, MmioReportHandle};
    pub use crate::workload::msix::{MsixTxConfig, MsixTxReport, MsixTxReportHandle};
    pub use crate::workload::nic_rx::{NicRxConfig, NicRxReport, NicRxReportHandle};
    pub use crate::workload::nic_tx::{NicTxConfig, NicTxReport, NicTxReportHandle};
    pub use crate::workload::pmd::{PmdConfig, PmdReport, PmdReportHandle};
    pub use crate::workload::virtio::{VirtioAppConfig, VirtioReport, VirtioReportHandle};
    pub use pcisim_devices::cxl::CxlExpanderConfig;
    pub use pcisim_devices::virtio::{VirtioClass, VirtioConfig};
    pub use pcisim_kernel::shard::ShardedSimulator;
    pub use pcisim_kernel::snapshot::SnapshotError;
    pub use pcisim_kernel::trace::{LatencyAttribution, Stage, TraceCategory, TraceLog};
}
