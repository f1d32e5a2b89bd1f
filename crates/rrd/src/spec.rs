//! Database specifications: data sources, archives, and the default
//! archive ladder Ganglia's gmetad creates for every metric.

use crate::error::RrdError;

/// How primary data points are consolidated into an archive row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsolidationFn {
    Average,
    Min,
    Max,
    Last,
}

impl ConsolidationFn {
    /// Canonical rrdtool spelling.
    pub fn name(self) -> &'static str {
        match self {
            ConsolidationFn::Average => "AVERAGE",
            ConsolidationFn::Min => "MIN",
            ConsolidationFn::Max => "MAX",
            ConsolidationFn::Last => "LAST",
        }
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ConsolidationFn::Average => 0,
            ConsolidationFn::Min => 1,
            ConsolidationFn::Max => 2,
            ConsolidationFn::Last => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => ConsolidationFn::Average,
            1 => ConsolidationFn::Min,
            2 => ConsolidationFn::Max,
            3 => ConsolidationFn::Last,
            _ => return None,
        })
    }
}

/// How raw update values become rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataSourceType {
    /// Store the value as-is (load averages, temperatures, ...).
    #[default]
    Gauge,
    /// A monotonically increasing counter; stores the per-second rate.
    /// A decrease is treated as unknown (counter reset).
    Counter,
    /// Like counter but decreases are legal (stores signed rate).
    Derive,
    /// The value is the delta since the last update; divided by the
    /// interval to give a rate.
    Absolute,
}

impl DataSourceType {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            DataSourceType::Gauge => 0,
            DataSourceType::Counter => 1,
            DataSourceType::Derive => 2,
            DataSourceType::Absolute => 3,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => DataSourceType::Gauge,
            1 => DataSourceType::Counter,
            2 => DataSourceType::Derive,
            3 => DataSourceType::Absolute,
            _ => return None,
        })
    }
}

/// A database's data source: the one sampled metric it records.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSourceDef {
    pub name: String,
    pub dst: DataSourceType,
    /// Seconds of silence after which the source is unknown.
    pub heartbeat: u64,
    /// Values below this are clamped to unknown (`NAN` = unbounded).
    pub min: f64,
    /// Values above this are clamped to unknown (`NAN` = unbounded).
    pub max: f64,
}

impl DataSourceDef {
    /// A gauge with the given heartbeat and no bounds.
    pub fn gauge(name: impl Into<String>, heartbeat: u64) -> Self {
        DataSourceDef {
            name: name.into(),
            dst: DataSourceType::Gauge,
            heartbeat,
            min: f64::NAN,
            max: f64::NAN,
        }
    }

    /// Whether `rate` violates the min/max bounds.
    pub(crate) fn out_of_bounds(&self, rate: f64) -> bool {
        (!self.min.is_nan() && rate < self.min) || (!self.max.is_nan() && rate > self.max)
    }
}

/// One round-robin archive: `rows` consolidated values, each covering
/// `pdp_per_row` primary steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RraDef {
    pub cf: ConsolidationFn,
    /// X-files factor: the fraction of a row's window that may be unknown
    /// while the row is still considered known.
    pub xff: f64,
    /// Primary data points consolidated into one row.
    pub pdp_per_row: usize,
    /// Ring capacity.
    pub rows: usize,
}

impl RraDef {
    /// Convenience constructor for an AVERAGE archive with xff 0.5.
    pub fn average(pdp_per_row: usize, rows: usize) -> Self {
        RraDef {
            cf: ConsolidationFn::Average,
            xff: 0.5,
            pdp_per_row,
            rows,
        }
    }
}

/// A complete database specification.
#[derive(Debug, Clone, PartialEq)]
pub struct RrdSpec {
    /// Seconds per primary data point.
    pub step: u64,
    /// Timestamp the database starts at; the first update must be later.
    pub start: u64,
    pub data_source: DataSourceDef,
    pub archives: Vec<RraDef>,
}

impl RrdSpec {
    /// Validate structural invariants.
    pub fn validate(&self) -> Result<(), RrdError> {
        if self.step == 0 {
            return Err(RrdError::BadSpec("step must be positive"));
        }
        if self.archives.is_empty() {
            return Err(RrdError::BadSpec("at least one archive required"));
        }
        for rra in &self.archives {
            if rra.pdp_per_row == 0 || rra.rows == 0 {
                return Err(RrdError::BadSpec("archive dimensions must be positive"));
            }
            if !(0.0..1.0).contains(&rra.xff) {
                return Err(RrdError::BadSpec("xff must be in [0, 1)"));
            }
        }
        Ok(())
    }

    /// Total number of stored cells, a proxy for the constant on-disk
    /// footprint.
    pub fn cell_count(&self) -> usize {
        self.archives.iter().map(|r| r.rows).sum::<usize>()
    }
}

/// The archive ladder gmetad 2.5 creates for each metric (step 15 s):
/// full resolution for about an hour, then progressively lossier
/// consolidation out to roughly a year — "we can see a metric's history
/// over the past year but with less resolution than if we ask about more
/// recent behavior" (paper §3.1).
pub fn ganglia_default_spec(metric: impl Into<String>, start: u64) -> RrdSpec {
    RrdSpec {
        step: 15,
        start,
        data_source: DataSourceDef::gauge(metric, 120),
        archives: vec![
            RraDef::average(1, 244),    // ~1 hour at 15 s
            RraDef::average(24, 244),   // ~1 day at 6 min
            RraDef::average(168, 244),  // ~1 week at 42 min
            RraDef::average(672, 244),  // ~1 month at 2.8 h
            RraDef::average(5760, 374), // ~1 year at 24 h
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid_and_constant_size() {
        let spec = ganglia_default_spec("load_one", 0);
        spec.validate().unwrap();
        assert_eq!(spec.cell_count(), 244 * 4 + 374);
    }

    #[test]
    fn validation_catches_degenerate_specs() {
        let mut spec = ganglia_default_spec("m", 0);
        spec.step = 0;
        assert!(spec.validate().is_err());

        let mut spec = ganglia_default_spec("m", 0);
        spec.archives[0].xff = 1.0;
        assert!(spec.validate().is_err());

        let mut spec = ganglia_default_spec("m", 0);
        spec.archives[0].rows = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn cf_and_dst_codes_roundtrip() {
        for cf in [
            ConsolidationFn::Average,
            ConsolidationFn::Min,
            ConsolidationFn::Max,
            ConsolidationFn::Last,
        ] {
            assert_eq!(ConsolidationFn::from_u8(cf.to_u8()), Some(cf));
        }
        assert_eq!(ConsolidationFn::from_u8(9), None);
        for dst in [
            DataSourceType::Gauge,
            DataSourceType::Counter,
            DataSourceType::Derive,
            DataSourceType::Absolute,
        ] {
            assert_eq!(DataSourceType::from_u8(dst.to_u8()), Some(dst));
        }
        assert_eq!(DataSourceType::from_u8(9), None);
    }

    #[test]
    fn bounds_checking() {
        let ds = DataSourceDef {
            name: "x".into(),
            dst: DataSourceType::Gauge,
            heartbeat: 60,
            min: 0.0,
            max: 100.0,
        };
        assert!(ds.out_of_bounds(-1.0));
        assert!(ds.out_of_bounds(101.0));
        assert!(!ds.out_of_bounds(50.0));
        let unbounded = DataSourceDef::gauge("y", 60);
        assert!(!unbounded.out_of_bounds(f64::MAX));
    }
}
