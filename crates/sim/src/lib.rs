//! Deployment simulator and the paper's experiments.
//!
//! The paper evaluates its designs on a 10-node cluster running a
//! six-gmeta monitoring tree over twelve pseudo-gmond clusters (§4,
//! fig 2). This crate rebuilds that testbed in-process:
//!
//! * [`topology`] — monitoring-tree specifications, including the exact
//!   figure-2 tree used by every experiment;
//! * [`deploy`] — instantiates a tree over the simulated network:
//!   pseudo-gmond clusters at the leaves, one [`ganglia_core::Gmetad`]
//!   per monitor, trust edges wired parent→child, polls driven
//!   deterministically bottom-up on a virtual clock;
//! * [`cpu`] — per-monitor CPU accounting over a measurement window
//!   (the stand-in for the paper's `ps`-based CPU%, §4.1);
//! * [`experiments`] — one module per table/figure: [`experiments::fig5`]
//!   (per-monitor CPU% in the tree), [`experiments::fig6`] (aggregate
//!   CPU% vs cluster size), [`experiments::table1`] (viewer
//!   download+parse times).

pub mod cpu;
pub mod crash;
pub mod deploy;
pub mod experiments;
pub mod topology;

pub use cpu::{CpuReport, MonitorCpu};
pub use crash::{run_crash_replay, CrashMode, CrashParams, CrashReport};
pub use deploy::{Deployment, DeploymentParams, MonitorWindow};
pub use topology::{chain_tree, fig2_tree, ClusterSpec, MonitorSpec, TreeSpec};
