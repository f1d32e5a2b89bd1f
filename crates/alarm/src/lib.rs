//! Alarm mechanism — the paper's future work, built.
//!
//! "We would like to implement a general alarm mechanism that tracks the
//! data and automatically identify situations that should be relayed to
//! a human observer. This feature will become increasingly important as
//! the size of the monitor tree grows." (paper §5)
//!
//! Alarms ride the GQL subscription pipeline. [`feed`] compiles each
//! [`rule::Rule`] to a continuous query. Its rows come from a
//! subscription mirror or from a Ganglia document in full-detail or
//! summary form, so alarms work anywhere in the multi-resolution tree.
//! The rows drive [`engine`]'s hysteresis state machine, one per
//! `(rule, subject)`: a condition must hold for a rule's `hold_secs`
//! before the alarm fires, and an alarm clears only when the condition
//! stops holding. Raised and cleared transitions are delivered to an
//! [`sink::AlarmSink`].

pub mod engine;
pub mod feed;
pub mod rule;
pub mod sink;

pub use engine::{AlarmEngine, AlarmEvent, AlarmKind, AlarmStatus};
pub use feed::{rule_expr, rule_observations, AlarmFeed};
pub use rule::{Comparison, Matcher, Rule, Signal};
pub use sink::{AlarmSink, MemorySink};
