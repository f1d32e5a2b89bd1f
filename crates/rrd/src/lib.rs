//! A round-robin time-series database, in the style of RRDtool.
//!
//! "Ganglia keeps historical records of data in specialized time-series
//! databases, whose stream-based design supports a wide range of time
//! scale queries employing lossy compression with a bias towards recent
//! data. ... The databases are highly optimized for this type of data and
//! do not grow in size over time." (paper §3.1, citing RRDtool \[11\]).
//!
//! This crate reimplements that data model from scratch:
//!
//! * a database ([`Rrd`]) holds one or more **data sources** sampled on a
//!   fixed **step**, each with a heartbeat after which silence becomes
//!   *unknown* — the "zero record during the downtime" that aids
//!   "time-of-death forensic analysis" (§3.1);
//! * one or more **round-robin archives** ([`RraDef`]) consolidate
//!   primary data points at progressively coarser resolutions
//!   (average/min/max/last), so a year of history fits in constant space
//!   with full detail only for the recent past;
//! * [`Rrd::fetch`] answers time-range queries by picking the
//!   finest-resolution archive that covers the requested window;
//! * [`file`](mod@file) gives the database a compact binary on-disk form, and
//!   [`cache::RrdSet`] is the multi-database archiver gmetad drives (one
//!   database per `(source, host, metric)`).

pub mod cache;
pub mod error;
pub mod file;
pub mod journal;
pub mod recover;
pub mod rrd;
pub mod spec;
pub mod xport;

pub use cache::{sanitize, CheckpointProgress, MetricKey, RrdSet, SetRecovery};
pub use error::RrdError;
pub use journal::{journal_file_name, Journal, JournalRecord, JournalStats};
pub use recover::{read_label, replay, scan_and_repair, scan_journal, JournalScan, ReplayStats};
pub use rrd::{Rrd, Series};
pub use spec::{
    ganglia_default_spec, ConsolidationFn, DataSourceDef, DataSourceType, RraDef, RrdSpec,
};
pub use xport::{xport, Xport};
