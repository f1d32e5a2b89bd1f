//! Gmetad error type.

use std::fmt;

use ganglia_metrics::ParseError;
use ganglia_net::NetError;

/// Anything that can go wrong inside the wide-area monitor.
#[derive(Debug)]
pub enum GmetadError {
    /// Every redundant address of a data source failed this round.
    /// Carries the per-address failures in the order tried.
    AllHostsFailed {
        source: String,
        errors: Vec<NetError>,
    },
    /// A child served XML that does not parse as a Ganglia document.
    BadReport { source: String, error: ParseError },
    /// A child served a well-formed document with no `CLUSTER` or
    /// `GRID` in it. No producer sends that as data: a gmond reports
    /// its cluster and a gmetad always opens its grid. It is how a
    /// serving tier refuses a poll (shed, rate limited, queue full).
    EmptyReport { source: String },
    /// Archiving failed.
    Archive(ganglia_rrd::RrdError),
    /// A query string was malformed.
    BadQuery(ganglia_query::QueryError),
}

impl fmt::Display for GmetadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmetadError::AllHostsFailed { source, errors } => {
                write!(
                    f,
                    "all {} host(s) of source {source:?} failed",
                    errors.len()
                )
            }
            GmetadError::BadReport { source, error } => {
                write!(f, "source {source:?} served a bad report: {error}")
            }
            GmetadError::EmptyReport { source } => {
                write!(
                    f,
                    "source {source:?} served a report with no CLUSTER or GRID"
                )
            }
            GmetadError::Archive(e) => write!(f, "archive failure: {e}"),
            GmetadError::BadQuery(e) => write!(f, "bad query: {e}"),
        }
    }
}

impl std::error::Error for GmetadError {}

impl From<ganglia_rrd::RrdError> for GmetadError {
    fn from(e: ganglia_rrd::RrdError) -> Self {
        GmetadError::Archive(e)
    }
}

impl From<ganglia_query::QueryError> for GmetadError {
    fn from(e: ganglia_query::QueryError) -> Self {
        GmetadError::BadQuery(e)
    }
}
