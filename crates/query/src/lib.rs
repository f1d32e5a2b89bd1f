//! The gmetad query language.
//!
//! "Instead of returning the entire tree rooted at a node, monitors
//! accept a small path-like query that specifies a single local subtree
//! to report" (paper §3.3, fig 4) — e.g. `/meteor/compute-0-0/` selects
//! the metrics of one host of one cluster. The language was deliberately
//! kept far simpler than XPath, which "proved too heavyweight and
//! inefficient" (§3.3).
//!
//! Two extensions from the paper's future-work list (§5) are included:
//!
//! * the **cluster-summary filter** (`?filter=summary`), "an optimization
//!   for the benefit of the viewing applications" (§3.3.2) that returns a
//!   summary report for a single cluster;
//! * a **regex-lite pattern syntax**: a path segment starting with `~` is
//!   matched as a regular expression ("a richer query language based on
//!   regular expressions is planned for the next version of Ganglia",
//!   §5). The engine is a self-contained Thompson-NFA implementation —
//!   no pathological backtracking.

pub mod error;
pub mod gql;
pub mod path;
pub mod regex_lite;

#[cfg(test)]
mod proptest_gql;

pub use error::QueryError;
pub use gql::{Delta, GqlError, GqlQuery, Mirror, RootRef, Row, RowSet};
pub use path::{Filter, Query, Segment};
pub use regex_lite::RegexLite;
