//! Error type for round-robin database operations.

use std::fmt;

/// Anything that can go wrong creating, updating, or loading a database.
#[derive(Debug)]
pub enum RrdError {
    /// An update carried a timestamp at or before the previous one.
    UpdateInPast { last: u64, attempted: u64 },
    /// The spec was structurally invalid (no archives, zero step...).
    BadSpec(&'static str),
    /// A fetch named a consolidation function no archive provides.
    NoSuchArchive,
    /// The binary file form was malformed.
    BadFile(String),
    /// Underlying I/O failure when persisting or loading.
    Io(std::io::Error),
}

impl fmt::Display for RrdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrdError::UpdateInPast { last, attempted } => write!(
                f,
                "update at {attempted} is not after the previous update at {last}"
            ),
            RrdError::BadSpec(why) => write!(f, "invalid rrd spec: {why}"),
            RrdError::NoSuchArchive => write!(f, "no archive with the requested consolidation"),
            RrdError::BadFile(why) => write!(f, "malformed rrd file: {why}"),
            RrdError::Io(e) => write!(f, "rrd i/o error: {e}"),
        }
    }
}

impl std::error::Error for RrdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RrdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RrdError {
    fn from(e: std::io::Error) -> Self {
        RrdError::Io(e)
    }
}
