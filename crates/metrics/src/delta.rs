//! Incremental summary maintenance: the difference between two
//! [`SummaryBody`] contributions, applicable to a running merge.
//!
//! The additive reduction of paper §3.2 keeps only `SUM` and `NUM` per
//! metric plus `UP`/`DOWN` host counts — all group operations, so a
//! source's contribution can be *retracted* from a merged summary and a
//! new contribution *added* without re-merging every other source. A
//! [`SummaryDelta`] packages one such retract+add pair: what the gmetad
//! store applies to its merged summary when one source's snapshot is
//! replaced, instead of re-merging all sources from scratch.
//!
//! Floating-point caveat: `sum − old + new` is exact only when the
//! additions are (e.g. for integer-valued or dyadic-rational metrics);
//! for arbitrary doubles it can drift by rounding error relative to a
//! from-scratch merge. Consumers bound that drift with a periodic full
//! rebuild (every `DEFAULT_REBUILD_ROUNDS` deltas in the store).

use crate::atom::Atom;
use crate::model::{MetricSummary, SummaryBody};
use crate::slope::Slope;
use crate::value::MetricType;

/// The signed change in one metric's summary contribution.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    pub name: Atom,
    /// Signed change to the metric's `SUM`.
    pub sum: f64,
    /// Signed change to the metric's `NUM` (set-size) counter.
    pub num: i64,
    /// Metadata carried along so a metric that first appears through a
    /// delta can be materialized in the target summary.
    pub ty: MetricType,
    pub units: Atom,
    pub slope: Slope,
    pub source: Atom,
}

/// The signed difference between two summary contributions.
///
/// `diff(old, new)` satisfies: for any merged summary `S` that includes
/// `old` as one contribution, applying the delta turns `S` into the
/// merge with `old` replaced by `new` (exactly, when the float additions
/// involved are exact — see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SummaryDelta {
    pub hosts_up: i64,
    pub hosts_down: i64,
    pub metrics: Vec<MetricDelta>,
}

impl SummaryDelta {
    /// The delta that replaces the contribution `old` with `new`.
    ///
    /// Metrics present only in `old` are retracted (negative sum/num);
    /// metrics present only in `new` are added with their metadata so
    /// the target can materialize them.
    pub fn diff(old: &SummaryBody, new: &SummaryBody) -> SummaryDelta {
        let mut delta = SummaryDelta {
            hosts_up: i64::from(new.hosts_up) - i64::from(old.hosts_up),
            hosts_down: i64::from(new.hosts_down) - i64::from(old.hosts_down),
            metrics: Vec::new(),
        };
        for theirs in &new.metrics {
            let (sum, num) = match old.metric(theirs.name.as_str()) {
                Some(prev) => (
                    theirs.sum - prev.sum,
                    i64::from(theirs.num) - i64::from(prev.num),
                ),
                None => (theirs.sum, i64::from(theirs.num)),
            };
            if sum != 0.0 || num != 0 {
                delta.metrics.push(MetricDelta {
                    name: theirs.name.clone(),
                    sum,
                    num,
                    ty: theirs.ty,
                    units: theirs.units.clone(),
                    slope: theirs.slope,
                    source: theirs.source.clone(),
                });
            }
        }
        for prev in &old.metrics {
            if new.metric(prev.name.as_str()).is_none() {
                delta.metrics.push(MetricDelta {
                    name: prev.name.clone(),
                    sum: -prev.sum,
                    num: -i64::from(prev.num),
                    ty: prev.ty,
                    units: prev.units.clone(),
                    slope: prev.slope,
                    source: prev.source.clone(),
                });
            }
        }
        delta
    }

    /// The delta that adds a brand-new contribution (nothing to retract).
    pub fn addition(new: &SummaryBody) -> SummaryDelta {
        SummaryDelta::diff(&SummaryBody::default(), new)
    }

    /// The delta that removes a contribution entirely (source expired).
    pub fn retraction(old: &SummaryBody) -> SummaryDelta {
        SummaryDelta::diff(old, &SummaryBody::default())
    }

    /// Whether applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.hosts_up == 0 && self.hosts_down == 0 && self.metrics.is_empty()
    }

    /// Apply this delta to a merged summary in place.
    ///
    /// A metric whose `NUM` reaches zero is removed (no host reports it
    /// any more); a metric unseen by `target` is materialized from the
    /// delta's carried metadata. Host counters saturate at zero rather
    /// than wrapping if a stray retraction exceeds the merged count.
    pub fn apply(&self, target: &mut SummaryBody) {
        fn bump(counter: &mut u32, delta: i64) {
            let next = i64::from(*counter) + delta;
            *counter = u32::try_from(next.max(0)).unwrap_or(u32::MAX);
        }
        bump(&mut target.hosts_up, self.hosts_up);
        bump(&mut target.hosts_down, self.hosts_down);
        for change in &self.metrics {
            match target.metrics.iter().position(|m| m.name == change.name) {
                Some(slot) => {
                    let entry = &mut target.metrics[slot];
                    let num = i64::from(entry.num) + change.num;
                    if num <= 0 {
                        target.metrics.remove(slot);
                    } else {
                        entry.sum += change.sum;
                        entry.num = u32::try_from(num).unwrap_or(u32::MAX);
                    }
                }
                None if change.num > 0 => target.metrics.push(MetricSummary {
                    name: change.name.clone(),
                    sum: change.sum,
                    num: u32::try_from(change.num).unwrap_or(u32::MAX),
                    ty: change.ty,
                    units: change.units.clone(),
                    slope: change.slope,
                    source: change.source.clone(),
                }),
                // A pure retraction of a metric the target never saw:
                // nothing to remove. (Only reachable if the delta was
                // diffed against a different history than the target's;
                // the periodic rebuild re-grounds such drift.)
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(hosts_up: u32, hosts_down: u32, metrics: &[(&str, f64, u32)]) -> SummaryBody {
        SummaryBody {
            hosts_up,
            hosts_down,
            metrics: metrics
                .iter()
                .map(|(name, sum, num)| MetricSummary {
                    name: Atom::new(name),
                    sum: *sum,
                    num: *num,
                    ty: MetricType::Double,
                    units: Atom::empty(),
                    slope: Slope::Both,
                    source: Atom::new("gmond"),
                })
                .collect(),
        }
    }

    /// Order-insensitive exact equality (metric order is a merge-history
    /// artifact, not part of the reduction's value).
    fn same_value(a: &SummaryBody, b: &SummaryBody) -> bool {
        if a.hosts_up != b.hosts_up || a.hosts_down != b.hosts_down {
            return false;
        }
        if a.metrics.len() != b.metrics.len() {
            return false;
        }
        a.metrics.iter().all(|m| {
            b.metric(m.name.as_str())
                .is_some_and(|other| other.sum.to_bits() == m.sum.to_bits() && other.num == m.num)
        })
    }

    #[test]
    fn diff_then_apply_replaces_a_contribution() {
        let old = summary(4, 0, &[("load_one", 2.0, 4), ("cpu_num", 8.0, 4)]);
        let new = summary(3, 1, &[("load_one", 1.5, 3), ("cpu_num", 6.0, 3)]);
        let other = summary(10, 2, &[("load_one", 5.0, 10), ("mem_free", 64.0, 10)]);

        // merged = other ⊕ old
        let mut merged = other.clone();
        merged.merge(&old);
        SummaryDelta::diff(&old, &new).apply(&mut merged);

        let mut expected = other.clone();
        expected.merge(&new);
        assert!(same_value(&merged, &expected), "{merged:?} vs {expected:?}");
    }

    #[test]
    fn retracting_the_last_reporter_removes_the_metric() {
        let old = summary(1, 0, &[("gpu_temp", 70.0, 1)]);
        let mut merged = summary(5, 0, &[("load_one", 2.5, 5)]);
        merged.merge(&old);
        SummaryDelta::retraction(&old).apply(&mut merged);
        assert!(merged.metric("gpu_temp").is_none());
        assert_eq!(merged.hosts_up, 5);
    }

    #[test]
    fn metric_new_to_the_target_is_materialized_with_metadata() {
        let new = summary(2, 0, &[("disk_free", 100.5, 2)]);
        let mut merged = SummaryBody::default();
        SummaryDelta::addition(&new).apply(&mut merged);
        let m = merged.metric("disk_free").unwrap();
        assert_eq!(m.sum, 100.5);
        assert_eq!(m.num, 2);
        assert_eq!(m.ty, MetricType::Double);
    }

    #[test]
    fn identical_summaries_diff_to_empty() {
        let s = summary(3, 1, &[("load_one", 1.25, 3)]);
        let delta = SummaryDelta::diff(&s, &s);
        assert!(delta.is_empty(), "{delta:?}");
        // And applying it is a no-op.
        let mut copy = s.clone();
        delta.apply(&mut copy);
        assert_eq!(copy, s);
    }

    #[test]
    fn host_counters_saturate_instead_of_wrapping() {
        let delta = SummaryDelta {
            hosts_up: -10,
            hosts_down: -10,
            metrics: vec![],
        };
        let mut target = summary(2, 1, &[]);
        delta.apply(&mut target);
        assert_eq!(target.hosts_up, 0);
        assert_eq!(target.hosts_down, 0);
    }

    #[test]
    fn retraction_of_unseen_metric_is_ignored() {
        let old = summary(1, 0, &[("ghost", 1.0, 1)]);
        let mut target = summary(4, 0, &[("load_one", 2.0, 4)]);
        let before = target.clone();
        // hosts_up drops by 1; the ghost metric has nowhere to retract.
        SummaryDelta::retraction(&old).apply(&mut target);
        assert_eq!(target.hosts_up, 3);
        assert_eq!(target.metrics, before.metrics);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const NAMES: &[&str] = &[
            "load_one",
            "cpu_num",
            "mem_free",
            "disk_free",
            "pkts_in",
            "bytes_out",
        ];

        /// Dyadic-rational sums (multiples of 1/8 in a modest range) keep
        /// every addition/subtraction exact, so incremental maintenance
        /// must match a from-scratch merge to the bit.
        fn arb_summary() -> impl Strategy<Value = SummaryBody> {
            let metric = (0..NAMES.len(), -4096i64..4096, 1u32..64)
                .prop_map(|(n, eighths, num)| (NAMES[n], eighths as f64 / 8.0, num));
            (0u32..32, 0u32..8, proptest::collection::vec(metric, 0..4)).prop_map(
                |(up, down, metrics)| {
                    // Dedup names: keep the first occurrence only.
                    let mut seen = Vec::new();
                    let metrics: Vec<_> = metrics
                        .into_iter()
                        .filter(|(name, _, _)| {
                            let fresh = !seen.contains(name);
                            seen.push(name);
                            fresh
                        })
                        .collect();
                    summary(up, down, &metrics)
                },
            )
        }

        proptest! {
            /// For any chain old→new over any base: applying diff(old, new)
            /// to base⊕old equals base⊕new exactly.
            #[test]
            fn diff_apply_matches_from_scratch(
                base in arb_summary(),
                old in arb_summary(),
                new in arb_summary(),
            ) {
                let mut merged = base.clone();
                merged.merge(&old);
                SummaryDelta::diff(&old, &new).apply(&mut merged);
                let mut expected = base.clone();
                expected.merge(&new);
                prop_assert!(
                    same_value(&merged, &expected),
                    "incremental {merged:?} != from-scratch {expected:?}"
                );
            }

            /// addition then retraction round-trips to the base value.
            #[test]
            fn add_then_retract_is_identity(base in arb_summary(), contrib in arb_summary()) {
                let mut merged = base.clone();
                SummaryDelta::addition(&contrib).apply(&mut merged);
                SummaryDelta::retraction(&contrib).apply(&mut merged);
                prop_assert!(same_value(&merged, &base), "{merged:?} vs {base:?}");
            }
        }
    }
}
