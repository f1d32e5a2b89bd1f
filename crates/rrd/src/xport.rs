//! Aligned multi-series export, in the spirit of `rrdtool xport`.
//!
//! Graph pages plot several metrics of one host (or one metric across
//! hosts) on a shared time axis. [`xport`] fetches each requested series
//! and resamples them onto one common grid — the coarsest step among
//! them — so rows line up even when the sources fell back to different
//! archive resolutions.

use crate::error::RrdError;
use crate::rrd::{Rrd, Series};
use crate::spec::ConsolidationFn;

/// One aligned export.
#[derive(Debug, Clone, PartialEq)]
pub struct Xport {
    /// Timestamp of the first row (interval end).
    pub start: u64,
    /// Seconds between rows.
    pub step: u64,
    /// Column labels, in request order.
    pub labels: Vec<String>,
    /// Rows of values, one per time step; `NAN` marks unknown cells.
    pub rows: Vec<Vec<f64>>,
}

impl Xport {
    /// Iterate `(timestamp, row)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (u64, &[f64])> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(move |(i, row)| (self.start + i as u64 * self.step, row.as_slice()))
    }
}

/// Fetch several databases over a shared window and align them.
///
/// Each entry is `(label, database)`. Returns an empty export for an
/// empty request.
pub fn xport(
    requests: &[(&str, &Rrd)],
    cf: ConsolidationFn,
    window_start: u64,
    window_end: u64,
) -> Result<Xport, RrdError> {
    if requests.is_empty() {
        return Ok(Xport {
            start: window_start,
            step: 1,
            labels: Vec::new(),
            rows: Vec::new(),
        });
    }
    let mut series = Vec::with_capacity(requests.len());
    for (_, rrd) in requests {
        series.push(rrd.fetch(cf, window_start, window_end)?);
    }
    // Resample everything onto the coarsest grid.
    let step = series.iter().map(|s| s.step).max().expect("non-empty");
    let start = window_start / step * step + step;
    let mut rows = Vec::new();
    let mut t = start;
    while t <= window_end {
        let row = series.iter().map(|s| sample(s, t, step)).collect();
        rows.push(row);
        t += step;
    }
    Ok(Xport {
        start,
        step,
        labels: requests.iter().map(|(l, _)| l.to_string()).collect(),
        rows,
    })
}

/// Average of the known values of `series` inside the window `(t-step, t]`.
fn sample(series: &Series, t: u64, step: u64) -> f64 {
    let window_start = t.saturating_sub(step);
    let mut sum = 0.0;
    let mut count = 0u32;
    for (ts, v) in series.points() {
        if ts > window_start && ts <= t && !v.is_nan() {
            sum += v;
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / f64::from(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DataSourceDef, RraDef, RrdSpec};

    fn rrd_with(step: u64, values: &[f64]) -> Rrd {
        let spec = RrdSpec {
            step,
            start: 0,
            data_source: DataSourceDef::gauge("m", step * 4),
            archives: vec![RraDef::average(1, 128)],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        for (i, v) in values.iter().enumerate() {
            rrd.update((i as u64 + 1) * step, *v).unwrap();
        }
        rrd
    }

    #[test]
    fn same_step_series_align_directly() {
        let a = rrd_with(10, &[1.0, 2.0, 3.0, 4.0]);
        let b = rrd_with(10, &[10.0, 20.0, 30.0, 40.0]);
        let out = xport(&[("a", &a), ("b", &b)], ConsolidationFn::Average, 0, 40).unwrap();
        assert_eq!(out.step, 10);
        assert_eq!(out.labels, vec!["a", "b"]);
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.rows[2], vec![3.0, 30.0]);
        let pairs: Vec<(u64, &[f64])> = out.iter_rows().collect();
        assert_eq!(pairs[0].0, 10);
        assert_eq!(pairs[3].0, 40);
    }

    #[test]
    fn mixed_steps_resample_to_the_coarsest() {
        let fine = rrd_with(10, &[2.0; 12]); // constant 2.0, 10 s step
        let coarse = rrd_with(30, &[5.0, 7.0, 9.0, 11.0]); // 30 s step
        let out = xport(
            &[("fine", &fine), ("coarse", &coarse)],
            ConsolidationFn::Average,
            0,
            120,
        )
        .unwrap();
        assert_eq!(out.step, 30);
        assert_eq!(out.rows.len(), 4);
        // Fine series averages to its constant; coarse passes through.
        assert_eq!(out.rows[0], vec![2.0, 5.0]);
        assert_eq!(out.rows[3], vec![2.0, 11.0]);
    }

    #[test]
    fn unknown_cells_stay_unknown() {
        let mut sparse = rrd_with(10, &[1.0]);
        sparse.update(20, f64::NAN).unwrap();
        sparse.update(30, 3.0).unwrap();
        let out = xport(&[("s", &sparse)], ConsolidationFn::Average, 0, 30).unwrap();
        assert!(!out.rows[0][0].is_nan());
        assert!(out.rows[1][0].is_nan());
        assert!(!out.rows[2][0].is_nan());
    }

    #[test]
    fn empty_request_is_empty_export() {
        let out = xport(&[], ConsolidationFn::Average, 0, 100).unwrap();
        assert!(out.rows.is_empty());
        assert!(out.labels.is_empty());
    }
}
