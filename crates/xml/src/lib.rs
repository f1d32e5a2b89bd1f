//! The Ganglia XML data language.
//!
//! Ganglia's wide-area monitor (`gmetad`) and local-area monitor (`gmond`)
//! exchange monitoring state as XML streams over TCP. This crate implements
//! the XML machinery that the rest of the system is built on:
//!
//! * a zero-copy, SAX-style [`pull::PullParser`] — the hot path of the
//!   wide-area monitor is parsing child reports, so the parser borrows from
//!   the input buffer and expands escape sequences into a reusable
//!   [`pull::AttrScratch`]; there is one event API and no DOM;
//! * a streaming [`writer::XmlWriter`] used by every component that emits
//!   reports;
//! * [`escape`] helpers (escape and `unescape_into`) shared by both
//!   directions;
//! * the tag and attribute names of the Ganglia DTD ([`names`]), including
//!   the `GRID` extension introduced by the paper (§3.2) and the summary
//!   tags `HOSTS` and `METRICS`.
//!
//! The grammar implemented here is the subset of XML that the Ganglia DTD
//! uses: elements, attributes, character data, comments, processing
//! instructions/declarations, and the five standard entities plus numeric
//! character references. DOCTYPE internal subsets and CDATA sections are
//! accepted and skipped.

pub mod dtd;
pub mod error;
pub mod escape;
pub mod names;
pub mod pull;
pub mod writer;

pub use error::{XmlError, XmlResult};
pub use pull::{AttrScratch, PullParser, StreamEvent};
pub use writer::XmlWriter;
