//! # DCLUE-rs: clustered DBMS scalability under a unified Ethernet fabric
//!
//! This crate is the paper's primary contribution rebuilt in Rust: a
//! detailed whole-cluster simulation of an OLTP (TPC-C) DBMS running
//! cache-fusion coherence, distributed (iSCSI) storage and client/server
//! traffic over **one** TCP/IP-over-Ethernet fabric, with a platform
//! model detailed enough that thread-thrash and bus-saturation effects
//! emerge rather than being assumed.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dclue_cluster::{ClusterConfig, World};
//!
//! let mut cfg = ClusterConfig::default();
//! cfg.nodes = 4;
//! cfg.affinity = 0.8;
//! let mut world = World::new(cfg);
//! let report = world.run();
//! println!("tpm-C (scaled back): {:.0}", report.tpmc_equivalent);
//! ```
//!
//! ## Architecture
//!
//! * [`config::ClusterConfig`] — every knob of the paper's experiments
//!   (nodes, latas, affinity, offload modes, QoS, cross traffic,
//!   latency, logging/storage policy, DB growth law).
//! * [`world::World`] — owns the event heap, the network, all nodes and
//!   the logical database; `run()` executes warm-up + measurement and
//!   returns a [`metrics::Report`].
//! * [`components`] — the subsystem components `World` is assembled
//!   from: network fabric, platform/CPU, storage, workload driver, each
//!   behind a typed port (explicit ingress/egress message enums).
//! * [`protocol::CoherenceProtocol`] — the pluggable coherence /
//!   concurrency-control protocol (lock grants, page transfer,
//!   invalidation, commit ordering); ships `CacheFusion2pl` and
//!   `MvccReadLease`, selected by [`config::ClusterConfig::protocol`].
//! * [`engine`] — the per-transaction state machine: plan → pages
//!   (buffer/fusion/disk) → locks (two-phase, queue-on-first) → apply →
//!   log → commit.
//! * [`fusion::Directory`] — the cache-fusion directory shards.
//! * [`ipc`] — IPC message vocabulary and wire sizes.
//! * [`pathlen`] — the path-length calibration table (instructions per
//!   operation), including HW/SW TCP and iSCSI cost models.

pub mod components;
pub mod config;
pub mod engine;
pub mod fusion;
pub mod ipc;
pub mod metrics;
pub mod node;
pub mod pathlen;
pub mod protocol;
pub mod sweep;
pub mod topology;
pub mod world;

pub use components::fabric::FabricPort;
pub use config::{
    ClientModel, ClusterConfig, DbGrowth, FabricShape, ProtocolKind, QosPolicy, TcpOffload,
};
pub use metrics::Report;
pub use protocol::{CacheFusion2pl, CoherenceProtocol, MvccReadLease};
pub use topology::{BuiltTopology, Placement, Topology};
pub use world::World;
