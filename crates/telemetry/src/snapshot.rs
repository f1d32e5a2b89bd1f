//! Point-in-time telemetry snapshots and their three serializations:
//! aligned text table (human), standalone `TELEMETRY` XML document
//! (query channel — Ganglia's metrics grammar is strict, so telemetry
//! travels as its own document type rather than new tags inside
//! `GANGLIA_XML`), and JSON (bench harness / CI).

use std::fmt;

use ganglia_xml::{AttrScratch, PullParser, StreamEvent, XmlWriter};

use crate::histogram::HistogramSnapshot;

/// Errors from parsing a `TELEMETRY` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// Underlying XML was malformed.
    Xml(String),
    /// Well-formed XML that is not a TELEMETRY document.
    Structure(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Xml(e) => write!(f, "telemetry XML error: {e}"),
            TelemetryError::Structure(e) => write!(f, "telemetry document error: {e}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// A copy of every instrument in a registry, name-sorted so output is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Total observations across every histogram — the denominator for
    /// overhead estimates ("how many record() calls did a round make").
    pub fn total_samples(&self) -> u64 {
        self.histograms
            .iter()
            .map(|(_, h)| h.count)
            .fold(0u64, u64::saturating_add)
    }

    /// True when nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    // ------------------------------------------------------------------
    // XML (wire format over the query channel)
    // ------------------------------------------------------------------

    /// Serialize as a standalone `TELEMETRY` XML document. Histogram
    /// buckets travel in sparse `index:count` form so the receiver can
    /// recompute any quantile.
    pub fn to_xml(&self, source: &str) -> String {
        let mut out = String::new();
        let mut w = XmlWriter::new(&mut out);
        w.declaration();
        w.start_element("TELEMETRY", &[("VERSION", "1"), ("SOURCE", source)]);
        for (name, value) in &self.counters {
            w.empty_element("COUNTER", &[("NAME", name), ("VAL", &value.to_string())]);
        }
        for (name, value) in &self.gauges {
            w.empty_element("GAUGE", &[("NAME", name), ("VAL", &value.to_string())]);
        }
        for (name, h) in &self.histograms {
            w.empty_element(
                "HISTOGRAM",
                &[
                    ("NAME", name),
                    ("COUNT", &h.count.to_string()),
                    ("SUM", &h.sum.to_string()),
                    ("MIN", &h.min.to_string()),
                    ("MAX", &h.max.to_string()),
                    ("BUCKETS", &h.buckets_to_sparse()),
                ],
            );
        }
        w.end_element();
        w.finish().expect("writing to String cannot fail");
        out
    }

    /// Parse a `TELEMETRY` document produced by [`Snapshot::to_xml`].
    /// Returns the snapshot and the `SOURCE` attribute.
    pub fn parse_xml(input: &str) -> Result<(Snapshot, String), TelemetryError> {
        let mut parser = PullParser::new(input);
        let mut scratch = AttrScratch::new();
        let mut snapshot = Snapshot::default();
        let mut source = String::new();
        let mut saw_root = false;
        while let Some(event) = parser
            .next_event_into(&mut scratch)
            .map_err(|e| TelemetryError::Xml(e.to_string()))?
        {
            match event {
                StreamEvent::Start { name, .. } => {
                    let attr = |key: &str| {
                        scratch.get(input, key).map(str::to_string).ok_or_else(|| {
                            TelemetryError::Structure(format!("<{name}> missing {key}"))
                        })
                    };
                    let num = |key: &str| -> Result<u64, TelemetryError> {
                        attr(key)?.parse().map_err(|_| {
                            TelemetryError::Structure(format!("<{name}> {key} is not a number"))
                        })
                    };
                    match name {
                        "TELEMETRY" => {
                            saw_root = true;
                            source = attr("SOURCE")?;
                        }
                        "COUNTER" => snapshot.counters.push((attr("NAME")?, num("VAL")?)),
                        "GAUGE" => snapshot.gauges.push((attr("NAME")?, num("VAL")?)),
                        "HISTOGRAM" => {
                            let buckets = HistogramSnapshot::buckets_from_sparse(&attr("BUCKETS")?)
                                .ok_or_else(|| {
                                    TelemetryError::Structure(
                                        "<HISTOGRAM> BUCKETS is malformed".to_string(),
                                    )
                                })?;
                            snapshot.histograms.push((
                                attr("NAME")?,
                                HistogramSnapshot {
                                    count: num("COUNT")?,
                                    sum: num("SUM")?,
                                    min: num("MIN")?,
                                    max: num("MAX")?,
                                    buckets,
                                },
                            ));
                        }
                        other => {
                            return Err(TelemetryError::Structure(format!(
                                "unexpected element <{other}>"
                            )))
                        }
                    }
                }
                StreamEvent::End { .. } | StreamEvent::Decl(_) | StreamEvent::Comment(_) => {}
                StreamEvent::Text => {
                    return Err(TelemetryError::Structure(format!(
                        "unexpected character data {:?}",
                        scratch.text(input).unwrap_or_default().trim()
                    )))
                }
            }
        }
        if !saw_root {
            return Err(TelemetryError::Structure(
                "no TELEMETRY root element".to_string(),
            ));
        }
        Ok((snapshot, source))
    }

    // ------------------------------------------------------------------
    // Table (gmetad --once, gstat --telemetry)
    // ------------------------------------------------------------------

    /// Render as aligned text tables: names left-aligned, numbers
    /// right-aligned, column widths fitted to the data.
    pub fn render_table(&self, source: &str) -> String {
        let mut out = format!("TELEMETRY for {source}\n");
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            let rows: Vec<(String, String)> = self
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), v.to_string()))
                .chain(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (format!("{n} (gauge)"), v.to_string())),
                )
                .collect();
            let name_w = width(rows.iter().map(|(n, _)| n.as_str()), "NAME");
            let val_w = width(rows.iter().map(|(_, v)| v.as_str()), "VALUE");
            out.push_str(&format!("  {:<name_w$}  {:>val_w$}\n", "NAME", "VALUE"));
            for (name, value) in rows {
                out.push_str(&format!("  {name:<name_w$}  {value:>val_w$}\n"));
            }
        }
        if !self.histograms.is_empty() {
            let rows: Vec<[String; 6]> = self
                .histograms
                .iter()
                .map(|(name, h)| {
                    let (p50, p95, p99) = h.percentiles();
                    [
                        name.clone(),
                        h.count.to_string(),
                        p50.to_string(),
                        p95.to_string(),
                        p99.to_string(),
                        h.max.to_string(),
                    ]
                })
                .collect();
            let headers = ["HISTOGRAM", "COUNT", "P50", "P95", "P99", "MAX"];
            let widths: Vec<usize> = headers
                .iter()
                .enumerate()
                .map(|(c, h)| width(rows.iter().map(|r| r[c].as_str()), h))
                .collect();
            out.push_str(&format!(
                "  {:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}  {:>w5$}\n",
                headers[0],
                headers[1],
                headers[2],
                headers[3],
                headers[4],
                headers[5],
                w0 = widths[0],
                w1 = widths[1],
                w2 = widths[2],
                w3 = widths[3],
                w4 = widths[4],
                w5 = widths[5],
            ));
            for r in rows {
                out.push_str(&format!(
                    "  {:<w0$}  {:>w1$}  {:>w2$}  {:>w3$}  {:>w4$}  {:>w5$}\n",
                    r[0],
                    r[1],
                    r[2],
                    r[3],
                    r[4],
                    r[5],
                    w0 = widths[0],
                    w1 = widths[1],
                    w2 = widths[2],
                    w3 = widths[3],
                    w4 = widths[4],
                    w5 = widths[5],
                ));
            }
        }
        out
    }
}

fn width<'a>(values: impl Iterator<Item = &'a str>, header: &str) -> usize {
    values
        .map(str::len)
        .chain([header.len()])
        .max()
        .unwrap_or(0)
}

/// Escape a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let registry = Registry::new();
        registry.counter("polls_ok_total").add(29);
        registry.gauge("sources").set(8);
        let h = registry.histogram("fetch_us");
        for v in [120, 250, 250, 4000] {
            h.record(v);
        }
        registry.snapshot()
    }

    #[test]
    fn xml_roundtrip_preserves_everything() {
        let snap = sample();
        let xml = snap.to_xml("gmetad:test");
        let (back, source) = Snapshot::parse_xml(&xml).unwrap();
        assert_eq!(source, "gmetad:test");
        assert_eq!(back, snap);
        // Quantiles survive the trip because buckets do.
        assert_eq!(
            back.histogram("fetch_us").unwrap().quantile(0.99),
            snap.histogram("fetch_us").unwrap().quantile(0.99)
        );
    }

    #[test]
    fn parse_rejects_non_telemetry_documents() {
        assert!(Snapshot::parse_xml("<GANGLIA_XML VERSION=\"1\" SOURCE=\"x\"/>").is_err());
        assert!(Snapshot::parse_xml("not xml at all").is_err());
    }

    #[test]
    fn table_right_aligns_numbers() {
        let table = sample().render_table("gmetad");
        let value_line = table
            .lines()
            .find(|l| l.contains("polls_ok_total"))
            .unwrap();
        // Right-aligned under the VALUE header: the number ends the line.
        assert!(value_line.trim_end().ends_with("29"));
        assert!(table.contains("P99"));
    }
}
