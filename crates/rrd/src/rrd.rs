//! The round-robin database engine: update stepping, consolidation, and
//! time-range fetches.

use crate::error::RrdError;
use crate::spec::{ConsolidationFn, DataSourceType, RraDef, RrdSpec};

/// One round-robin archive and its consolidation state.
#[derive(Debug, Clone)]
pub(crate) struct Archive {
    pub(crate) def: RraDef,
    /// Consolidation accumulator for the row in progress.
    pub(crate) cdp_agg: f64,
    /// Known PDPs accumulated toward the row in progress.
    pub(crate) cdp_known: u32,
    /// PDPs accumulated toward the current row.
    pub(crate) steps_in_cdp: usize,
    /// Ring buffer: `rows` cells.
    pub(crate) data: Vec<f64>,
    /// Slot that the next completed row will be written to.
    pub(crate) next: usize,
    /// Number of rows ever written (saturates at `rows`).
    pub(crate) written: usize,
    /// Timestamp of the most recently completed row (its interval end).
    pub(crate) last_row_time: u64,
}

impl Archive {
    fn new(def: RraDef, initial_phase: usize) -> Self {
        Archive {
            def,
            cdp_agg: f64::NAN,
            cdp_known: 0,
            steps_in_cdp: initial_phase,
            data: vec![f64::NAN; def.rows],
            next: 0,
            written: 0,
            last_row_time: 0,
        }
    }

    fn row_secs(&self, step: u64) -> u64 {
        step * self.def.pdp_per_row as u64
    }

    /// Feed `count` consecutive PDPs, all with value `pdp`, ending at
    /// absolute step index `end_index` (the boundary of the last fed
    /// step is `end_index * step`).
    fn feed_identical(&mut self, pdp: f64, mut count: usize, end_index: u64, step: u64) {
        let ppr = self.def.pdp_per_row;
        let mut index = end_index - count as u64; // index of last already-consumed step
                                                  // If the feed would lap the ring, only the tail can survive; fast
                                                  // forward over complete rows that are guaranteed to be overwritten.
        let capacity_steps = ppr * self.def.rows;
        if count > capacity_steps + 2 * ppr {
            // Fill the whole ring with the steady-state row for `pdp`,
            // then continue with the remaining (aligned) tail.
            let skip = {
                let excess = count - capacity_steps;
                excess - (excess % ppr)
            };
            // The skipped region consists of whole rows of identical PDPs.
            // Discard any partial row in progress (it is lapped anyway).
            // For identical inputs every CF degenerates to the value
            // itself (or unknown, since a full-NAN window always fails
            // the xff test).
            self.data.fill(pdp);
            self.written = self.def.rows;
            index += skip as u64;
            // Rows complete at indexes divisible by ppr; the last completed
            // row before or at `index` is at the aligned boundary.
            let aligned = index - index % ppr as u64;
            self.last_row_time = aligned * step;
            self.next = 0; // ring uniformly filled; any rotation is valid
            self.steps_in_cdp = (index % ppr as u64) as usize;
            self.reset_cdp();
            // Re-accumulate the partial row after the aligned point.
            let partial = self.steps_in_cdp;
            if partial > 0 {
                self.accumulate(pdp, partial);
                // accumulate() advanced steps_in_cdp from the reset value.
                self.steps_in_cdp = partial;
            }
            count -= skip;
        }
        while count > 0 {
            let space = ppr - self.steps_in_cdp;
            let take = space.min(count);
            self.accumulate(pdp, take);
            index += take as u64;
            count -= take;
            if self.steps_in_cdp == ppr {
                self.finalize_row(index * step);
            }
        }
    }

    /// Accumulate `take` copies of `v` into the row in progress.
    fn accumulate(&mut self, v: f64, take: usize) {
        if !v.is_nan() {
            let known = self.cdp_known;
            let agg = &mut self.cdp_agg;
            match self.def.cf {
                ConsolidationFn::Average => {
                    if known == 0 {
                        *agg = v * take as f64;
                    } else {
                        *agg += v * take as f64;
                    }
                }
                ConsolidationFn::Min => {
                    if known == 0 || v < *agg {
                        *agg = v;
                    }
                }
                ConsolidationFn::Max => {
                    if known == 0 || v > *agg {
                        *agg = v;
                    }
                }
                ConsolidationFn::Last => *agg = v,
            }
            self.cdp_known = known + take as u32;
        }
        self.steps_in_cdp += take;
    }

    /// Complete the row in progress at time `row_time`.
    fn finalize_row(&mut self, row_time: u64) {
        let known = self.cdp_known;
        let known_frac = f64::from(known) / self.def.pdp_per_row as f64;
        self.data[self.next] = if known == 0 || known_frac < 1.0 - self.def.xff {
            f64::NAN
        } else {
            match self.def.cf {
                ConsolidationFn::Average => self.cdp_agg / f64::from(known),
                _ => self.cdp_agg,
            }
        };
        self.next = (self.next + 1) % self.def.rows;
        self.written = (self.written + 1).min(self.def.rows);
        self.last_row_time = row_time;
        self.reset_cdp();
    }

    fn reset_cdp(&mut self) {
        self.cdp_agg = f64::NAN;
        self.cdp_known = 0;
        self.steps_in_cdp = 0;
    }

    /// Value of the row ending at `row_time`, or NAN if that row is not
    /// available.
    fn lookup(&self, row_time: u64, step: u64) -> f64 {
        let row_secs = self.row_secs(step);
        if self.written == 0 || row_time > self.last_row_time {
            return f64::NAN;
        }
        let back = (self.last_row_time - row_time) / row_secs;
        if back as usize >= self.written {
            return f64::NAN;
        }
        let rows = self.def.rows;
        // `next` points one past the last written slot.
        let last_slot = (self.next + rows - 1) % rows;
        let slot = (last_slot + rows - back as usize % rows) % rows;
        self.data[slot]
    }

    /// Time of the oldest available row (its interval end).
    fn earliest_row_time(&self, step: u64) -> Option<u64> {
        if self.written == 0 {
            return None;
        }
        Some(self.last_row_time - (self.written as u64 - 1) * self.row_secs(step))
    }
}

/// A slice of consolidated history returned by [`Rrd::fetch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Timestamp of the first value (interval end).
    pub start: u64,
    /// Seconds between values.
    pub step: u64,
    /// Consolidated values; `NAN` marks unknown intervals.
    pub values: Vec<f64>,
}

impl Series {
    /// Iterate `(timestamp, value)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.start + i as u64 * self.step, v))
    }

    /// Mean of the known values, if any.
    pub fn mean(&self) -> Option<f64> {
        let known: Vec<f64> = self
            .values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect();
        (!known.is_empty()).then(|| known.iter().sum::<f64>() / known.len() as f64)
    }

    /// Number of known (non-NAN) values.
    pub fn known_count(&self) -> usize {
        self.values.iter().filter(|v| !v.is_nan()).count()
    }
}

/// A round-robin database: fixed-size, multi-resolution history of one
/// metric.
///
/// # Examples
///
/// ```
/// use ganglia_rrd::{ganglia_default_spec, ConsolidationFn, Rrd};
///
/// let mut rrd = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
/// for i in 1..=20u64 {
///     rrd.update(i * 15, 0.5 + i as f64 / 100.0).unwrap();
/// }
/// let series = rrd.fetch(ConsolidationFn::Average, 0, 300).unwrap();
/// assert_eq!(series.step, 15);
/// assert!(series.known_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Rrd {
    pub(crate) spec: RrdSpec,
    pub(crate) last_update: u64,
    /// Last raw value (for counter/derive differencing).
    pub(crate) last_raw: f64,
    /// Rate × seconds accumulated in the current step.
    pub(crate) pdp_sum: f64,
    /// Known seconds accumulated in the current step.
    pub(crate) pdp_known: u64,
    pub(crate) archives: Vec<Archive>,
    /// Total updates applied (drives the archiving-cost experiments).
    pub(crate) update_count: u64,
}

impl Rrd {
    /// Create a database from a validated spec.
    pub fn create(spec: RrdSpec) -> Result<Rrd, RrdError> {
        spec.validate()?;
        let phase_base = spec.start / spec.step;
        let archives = spec
            .archives
            .iter()
            .map(|&def| Archive::new(def, (phase_base % def.pdp_per_row as u64) as usize))
            .collect();
        Ok(Rrd {
            last_update: spec.start,
            last_raw: f64::NAN,
            pdp_sum: 0.0,
            pdp_known: 0,
            archives,
            update_count: 0,
            spec,
        })
    }

    /// The database's specification.
    pub fn spec(&self) -> &RrdSpec {
        &self.spec
    }

    /// Timestamp of the most recent update.
    pub fn last_update(&self) -> u64 {
        self.last_update
    }

    /// Number of updates applied over the database's lifetime.
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Apply an update: the raw `value` sampled at time `t`. `NAN`
    /// records an explicitly unknown sample (what gmetad writes for a
    /// host that has stopped reporting).
    pub fn update(&mut self, t: u64, value: f64) -> Result<(), RrdError> {
        if t <= self.last_update {
            return Err(RrdError::UpdateInPast {
                last: self.last_update,
                attempted: t,
            });
        }
        let interval = t - self.last_update;
        let ds = &self.spec.data_source;
        // Convert the raw value into a rate for the elapsed interval.
        let rate = if value.is_nan() || interval > ds.heartbeat {
            f64::NAN
        } else {
            match ds.dst {
                DataSourceType::Gauge => value,
                DataSourceType::Counter => {
                    let prev = self.last_raw;
                    if prev.is_nan() || value < prev {
                        f64::NAN // first sample or counter reset
                    } else {
                        (value - prev) / interval as f64
                    }
                }
                DataSourceType::Derive => {
                    let prev = self.last_raw;
                    if prev.is_nan() {
                        f64::NAN
                    } else {
                        (value - prev) / interval as f64
                    }
                }
                DataSourceType::Absolute => value / interval as f64,
            }
        };
        let rate = if !rate.is_nan() && ds.out_of_bounds(rate) {
            f64::NAN
        } else {
            rate
        };
        self.last_raw = value;
        self.advance(t, rate);
        self.update_count += 1;
        Ok(())
    }

    /// Walk time forward to `t`, accumulating `rate` into PDPs and
    /// feeding completed PDPs to every archive.
    fn advance(&mut self, t: u64, rate: f64) {
        let step = self.spec.step;
        let start_index = self.last_update / step; // completed boundaries so far
        let end_index = t / step;

        if end_index == start_index {
            // Entirely within the current step: accumulate and return.
            self.accumulate_partial(rate, t - self.last_update);
            self.last_update = t;
            return;
        }

        // 1. Close out the current step.
        let first_boundary = (start_index + 1) * step;
        self.accumulate_partial(rate, first_boundary - self.last_update);
        let first_pdp = self.take_pdp();

        // 2. Whole steps strictly inside the interval all have PDP = rate.
        let whole_steps = (end_index - start_index - 1) as usize;

        for archive in &mut self.archives {
            archive.feed_identical(first_pdp, 1, start_index + 1, step);
            if whole_steps > 0 {
                archive.feed_identical(rate, whole_steps, end_index, step);
            }
        }

        // 3. Tail partial step.
        self.accumulate_partial(rate, t - end_index * step);
        self.last_update = t;
    }

    fn accumulate_partial(&mut self, rate: f64, secs: u64) {
        if secs > 0 && !rate.is_nan() {
            self.pdp_sum += rate * secs as f64;
            self.pdp_known += secs;
        }
    }

    /// Finish the current PDP and reset its scratch.
    fn take_pdp(&mut self) -> f64 {
        let known = self.pdp_known;
        let pdp = if known * 2 >= self.spec.step {
            self.pdp_sum / known as f64
        } else {
            f64::NAN
        };
        self.pdp_sum = 0.0;
        self.pdp_known = 0;
        pdp
    }

    /// Fetch consolidated history over `(start, end]`, using the finest
    /// archive with `cf` that reaches back to `start`.
    pub fn fetch(&self, cf: ConsolidationFn, start: u64, end: u64) -> Result<Series, RrdError> {
        let step = self.spec.step;
        let mut candidates: Vec<&Archive> =
            self.archives.iter().filter(|a| a.def.cf == cf).collect();
        if candidates.is_empty() {
            return Err(RrdError::NoSuchArchive);
        }
        candidates.sort_by_key(|a| a.def.pdp_per_row);
        // Prefer the finest archive whose history reaches back to `start`;
        // failing that, the archive with the deepest available history;
        // failing that (nothing written yet), the finest archive.
        let chosen = candidates
            .iter()
            .find(|a| matches!(a.earliest_row_time(step), Some(e) if e <= start.saturating_add(1)))
            .copied()
            .or_else(|| {
                candidates
                    .iter()
                    .copied()
                    .filter(|a| a.written > 0)
                    .min_by_key(|a| a.earliest_row_time(step).expect("written > 0"))
            })
            .unwrap_or_else(|| candidates[0]);
        let row_secs = chosen.row_secs(step);
        let first = start / row_secs * row_secs + row_secs; // first row time > start
        let last = end / row_secs * row_secs; // last row time <= end
        let mut values = Vec::new();
        let mut t = first;
        while t <= last {
            values.push(chosen.lookup(t, step));
            t += row_secs;
        }
        Ok(Series {
            start: first,
            step: row_secs,
            values,
        })
    }

    /// The archive resolutions available for a given CF, finest first
    /// (seconds per row).
    pub fn resolutions(&self, cf: ConsolidationFn) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .archives
            .iter()
            .filter(|a| a.def.cf == cf)
            .map(|a| a.row_secs(self.spec.step))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ganglia_default_spec, DataSourceDef, RrdSpec};

    fn simple_spec(step: u64, heartbeat: u64) -> RrdSpec {
        RrdSpec {
            step,
            start: 0,
            data_source: DataSourceDef::gauge("m", heartbeat),
            archives: vec![RraDef::average(1, 100), RraDef::average(10, 100)],
        }
    }

    #[test]
    fn gauge_updates_produce_averaged_pdps() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        rrd.update(10, 4.0).unwrap();
        rrd.update(20, 8.0).unwrap();
        let series = rrd.fetch(ConsolidationFn::Average, 0, 20).unwrap();
        assert_eq!(series.step, 10);
        assert_eq!(series.values.len(), 2);
        assert!((series.values[0] - 4.0).abs() < 1e-12);
        assert!((series.values[1] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn sub_step_updates_are_time_weighted() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        rrd.update(5, 2.0).unwrap(); // covers (0,5] at rate 2
        rrd.update(10, 6.0).unwrap(); // covers (5,10] at rate 6
        let series = rrd.fetch(ConsolidationFn::Average, 0, 10).unwrap();
        assert!((series.values[0] - 4.0).abs() < 1e-12); // (2*5 + 6*5)/10
    }

    #[test]
    fn heartbeat_gap_becomes_unknown() {
        let mut rrd = Rrd::create(simple_spec(10, 25)).unwrap();
        rrd.update(10, 1.0).unwrap();
        // 40-second silence exceeds the 25 s heartbeat: the gap is unknown.
        rrd.update(50, 1.0).unwrap();
        let series = rrd.fetch(ConsolidationFn::Average, 0, 50).unwrap();
        assert!(!series.values[0].is_nan()); // (0,10] known
        assert!(series.values[1].is_nan());
        assert!(series.values[2].is_nan());
        assert!(series.values[3].is_nan());
    }

    #[test]
    fn explicit_unknown_updates() {
        let mut rrd = Rrd::create(simple_spec(10, 1000)).unwrap();
        rrd.update(10, 5.0).unwrap();
        rrd.update(20, f64::NAN).unwrap();
        rrd.update(30, 5.0).unwrap();
        let series = rrd.fetch(ConsolidationFn::Average, 0, 30).unwrap();
        assert!(!series.values[0].is_nan());
        assert!(series.values[1].is_nan());
        assert!(!series.values[2].is_nan());
        assert_eq!(series.known_count(), 2);
    }

    #[test]
    fn counter_differences_and_reset() {
        let spec = RrdSpec {
            step: 10,
            start: 0,
            data_source: DataSourceDef {
                name: "pkts".into(),
                dst: DataSourceType::Counter,
                heartbeat: 100,
                min: f64::NAN,
                max: f64::NAN,
            },
            archives: vec![RraDef::average(1, 10)],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        rrd.update(10, 1000.0).unwrap(); // first sample: unknown rate
        rrd.update(20, 1500.0).unwrap(); // 50/sec
        rrd.update(30, 100.0).unwrap(); // reset: unknown
        let series = rrd.fetch(ConsolidationFn::Average, 0, 30).unwrap();
        assert!(series.values[0].is_nan());
        assert!((series.values[1] - 50.0).abs() < 1e-12);
        assert!(series.values[2].is_nan());
    }

    #[test]
    fn consolidation_into_coarser_archive() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        for i in 1..=20u64 {
            rrd.update(i * 10, i as f64).unwrap();
        }
        // The 10-pdp archive has two rows: mean of 1..=10 and 11..=20.
        let series = rrd.fetch(ConsolidationFn::Average, 0, 200).unwrap();
        // Fine archive still covers this window; force the coarse one by
        // fetching a window older than the fine archive's reach.
        let coarse = &rrd.archives[1];
        assert_eq!(coarse.written, 2);
        assert!((coarse.lookup(100, 10) - 5.5).abs() < 1e-12);
        assert!((coarse.lookup(200, 10) - 15.5).abs() < 1e-12);
        assert_eq!(series.values.len(), 20);
    }

    #[test]
    fn fetch_picks_coarse_archive_for_old_windows() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        // Write 150 steps; the fine archive holds only the last 100.
        for i in 1..=150u64 {
            rrd.update(i * 10, 1.0).unwrap();
        }
        let recent = rrd.fetch(ConsolidationFn::Average, 1000, 1500).unwrap();
        assert_eq!(recent.step, 10); // fine archive reaches back to t=510
        let old = rrd.fetch(ConsolidationFn::Average, 0, 1500).unwrap();
        assert_eq!(old.step, 100); // needs the coarse archive
        assert!(old.known_count() > 0);
    }

    #[test]
    fn ring_wraps_and_keeps_recent_rows() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        for i in 1..=250u64 {
            rrd.update(i * 10, i as f64).unwrap();
        }
        let fine = &rrd.archives[0];
        assert_eq!(fine.written, 100);
        // Oldest surviving fine row is at t = (250-99)*10.
        assert_eq!(fine.earliest_row_time(10), Some(1510));
        assert!(fine.lookup(1500, 10).is_nan());
        assert!((fine.lookup(2500, 10) - 250.0).abs() < 1e-12);
    }

    #[test]
    fn huge_gap_fast_forward_is_consistent() {
        let mut rrd = Rrd::create(simple_spec(10, u64::MAX)).unwrap();
        rrd.update(10, 1.0).unwrap();
        // Jump 100k steps ahead with a constant rate; the ring must hold
        // the steady-state value everywhere.
        rrd.update(1_000_010, 3.0).unwrap();
        let series = rrd
            .fetch(ConsolidationFn::Average, 999_100, 1_000_000)
            .unwrap();
        assert_eq!(series.step, 10);
        assert!(series.values.iter().all(|v| (*v - 3.0).abs() < 1e-12));
        // And updates continue normally afterwards.
        rrd.update(1_000_020, 5.0).unwrap();
        let tail = rrd
            .fetch(ConsolidationFn::Average, 1_000_000, 1_000_020)
            .unwrap();
        assert!((tail.values.last().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn update_at_or_before_the_last_is_rejected() {
        let mut rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        rrd.update(10, 1.0).unwrap();
        assert!(matches!(
            rrd.update(10, 1.0),
            Err(RrdError::UpdateInPast { .. })
        ));
    }

    #[test]
    fn fetch_unknown_cf_fails() {
        let rrd = Rrd::create(simple_spec(10, 100)).unwrap();
        assert!(matches!(
            rrd.fetch(ConsolidationFn::Max, 0, 100),
            Err(RrdError::NoSuchArchive)
        ));
    }

    #[test]
    fn min_max_last_consolidation() {
        let spec = RrdSpec {
            step: 10,
            start: 0,
            data_source: DataSourceDef::gauge("m", 100),
            archives: vec![
                RraDef {
                    cf: ConsolidationFn::Min,
                    xff: 0.5,
                    pdp_per_row: 5,
                    rows: 10,
                },
                RraDef {
                    cf: ConsolidationFn::Max,
                    xff: 0.5,
                    pdp_per_row: 5,
                    rows: 10,
                },
                RraDef {
                    cf: ConsolidationFn::Last,
                    xff: 0.5,
                    pdp_per_row: 5,
                    rows: 10,
                },
            ],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        for (i, v) in [3.0, 9.0, 1.0, 7.0, 5.0].iter().enumerate() {
            rrd.update((i as u64 + 1) * 10, *v).unwrap();
        }
        let min = rrd.fetch(ConsolidationFn::Min, 0, 50).unwrap();
        let max = rrd.fetch(ConsolidationFn::Max, 0, 50).unwrap();
        let last = rrd.fetch(ConsolidationFn::Last, 0, 50).unwrap();
        assert_eq!(min.values, vec![1.0]);
        assert_eq!(max.values, vec![9.0]);
        assert_eq!(last.values, vec![5.0]);
    }

    #[test]
    fn xff_controls_partially_unknown_rows() {
        // 10 PDPs per row, xff=0.5: a row with >50% unknown is unknown.
        let spec = RrdSpec {
            step: 10,
            start: 0,
            data_source: DataSourceDef::gauge("m", 15),
            archives: vec![RraDef::average(10, 10)],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        // 4 known PDPs, then 6 unknown (heartbeat 15 < 60s gap).
        for i in 1..=4u64 {
            rrd.update(i * 10, 2.0).unwrap();
        }
        rrd.update(100, 2.0).unwrap(); // gap of 60 s: unknown
        let archive = &rrd.archives[0];
        assert_eq!(archive.written, 1);
        assert!(archive.lookup(100, 10).is_nan());
    }

    #[test]
    fn default_ganglia_spec_records_a_day() {
        let mut rrd = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
        let mut t = 0;
        for i in 0..5760u64 {
            t = (i + 1) * 15;
            rrd.update(t, (i % 100) as f64 / 10.0).unwrap();
        }
        // Recent window at full resolution.
        let recent = rrd.fetch(ConsolidationFn::Average, t - 3600, t).unwrap();
        assert_eq!(recent.step, 15);
        assert!(recent.known_count() > 200);
        // Day-long window falls back to the 6-minute archive.
        let day = rrd.fetch(ConsolidationFn::Average, 0, t).unwrap();
        assert_eq!(day.step, 15 * 24);
        assert!(day.known_count() > 200);
        assert_eq!(rrd.update_count(), 5760);
    }

    #[test]
    fn series_helpers() {
        let series = Series {
            start: 100,
            step: 10,
            values: vec![1.0, f64::NAN, 3.0],
        };
        let pts: Vec<_> = series.points().collect();
        assert_eq!(pts[0].0, 100);
        assert_eq!(pts[2].0, 120);
        assert_eq!(series.known_count(), 2);
        assert_eq!(series.mean(), Some(2.0));
        let empty = Series {
            start: 0,
            step: 10,
            values: vec![f64::NAN],
        };
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn bounds_clamp_to_unknown() {
        let spec = RrdSpec {
            step: 10,
            start: 0,
            data_source: DataSourceDef {
                name: "pct".into(),
                dst: DataSourceType::Gauge,
                heartbeat: 100,
                min: 0.0,
                max: 100.0,
            },
            archives: vec![RraDef::average(1, 10)],
        };
        let mut rrd = Rrd::create(spec).unwrap();
        rrd.update(10, 150.0).unwrap();
        rrd.update(20, 50.0).unwrap();
        let series = rrd.fetch(ConsolidationFn::Average, 0, 20).unwrap();
        assert!(series.values[0].is_nan());
        assert!((series.values[1] - 50.0).abs() < 1e-12);
    }
}
