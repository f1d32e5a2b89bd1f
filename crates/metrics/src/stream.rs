//! The model parser: Ganglia XML to typed model nodes, with no DOM.
//!
//! An event-driven recursive-descent machine over
//! [`PullParser::next_event_into`]: attribute spans and expanded entities
//! land in one reusable [`AttrScratch`], and `HostNode` / `SummaryBody`
//! values are built directly from it — no per-tag attribute vector, no
//! intermediate tree (paper §3.3.2 streams reports into hash tables the
//! same way). The only allocations a parse performs are the ones the
//! *result* needs (the nodes' own strings and vectors).
//!
//! There is one walk over a document — root, grids, clusters, the
//! summary-form tags and every structural check — generic over a small
//! `Walk` hook that decides only how a `<HOST>` element becomes an
//! `Arc<HostNode>` and what each cluster and grid rolls up beside its
//! node. [`parse_document`] runs it with a hook that parses each host in
//! place and rolls up nothing; the delta-aware
//! [`crate::ingest::Ingester`] runs it with its host cache as the hook and
//! `Arc`'d summaries as the rollups, summarizing each report in the same
//! pass that parses it (paper §3.2, §3.3.1). Both build nodes with the
//! identical checks in the identical order.
//!
//! Scratch ownership rule (see also [`AttrScratch`]): spans handed out
//! for one event die at the next `next_event_into` call. Every helper
//! here therefore copies what it keeps (into an interned `Atom` or an
//! owned `String`) before the parser advances.

use std::sync::Arc;

use ganglia_xml::names::{self, attr};
use ganglia_xml::{AttrScratch, PullParser, StreamEvent};

use crate::atom::Atom;
use crate::codec::ParseError;
use crate::model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, MetricEntry,
    MetricSummary, SummaryBody,
};
use crate::slope::Slope;
use crate::value::{MetricType, MetricValue};

type Result<T> = std::result::Result<T, ParseError>;

// ---------------------------------------------------------------------
// Attribute helpers
// ---------------------------------------------------------------------

pub(crate) fn required<'s>(
    input: &'s str,
    scratch: &'s AttrScratch,
    element: &'static str,
    name: &'static str,
) -> Result<&'s str> {
    scratch.get(input, name).ok_or(ParseError::MissingAttr {
        element,
        attr: name,
    })
}

fn optional_string(input: &str, scratch: &AttrScratch, name: &str) -> String {
    scratch.get(input, name).unwrap_or("").to_string()
}

fn optional_atom(input: &str, scratch: &AttrScratch, name: &str) -> Atom {
    match scratch.get(input, name) {
        Some(value) => Atom::new(value),
        None => Atom::empty(),
    }
}

fn parse_num<T: std::str::FromStr>(
    input: &str,
    scratch: &AttrScratch,
    element: &'static str,
    name: &'static str,
    default: T,
) -> Result<T> {
    match scratch.get(input, name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element,
            attr: name.to_string(),
            value: raw.to_string(),
        }),
    }
}

fn parse_opt_num<T: std::str::FromStr>(
    input: &str,
    scratch: &AttrScratch,
    element: &'static str,
    name: &'static str,
) -> Result<Option<T>> {
    match scratch.get(input, name) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| ParseError::BadAttr {
            element,
            attr: name.to_string(),
            value: raw.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------
// Element parsers
// ---------------------------------------------------------------------

/// Header attributes of a `GRID` start tag, copied out of the scratch
/// before the parser advances past it.
struct GridHeader {
    name: String,
    authority: String,
    localtime: Option<u64>,
}

fn grid_header(input: &str, scratch: &AttrScratch) -> Result<GridHeader> {
    Ok(GridHeader {
        name: required(input, scratch, names::GRID, attr::NAME)?.to_string(),
        authority: optional_string(input, scratch, attr::AUTHORITY),
        localtime: parse_opt_num::<u64>(input, scratch, names::GRID, attr::LOCALTIME)?,
    })
}

/// Header attributes of a `CLUSTER` start tag.
struct ClusterHeader {
    name: String,
    owner: String,
    latlong: String,
    url: String,
    localtime: Option<u64>,
}

fn cluster_header(input: &str, scratch: &AttrScratch) -> Result<ClusterHeader> {
    Ok(ClusterHeader {
        name: required(input, scratch, names::CLUSTER, attr::NAME)?.to_string(),
        owner: optional_string(input, scratch, attr::OWNER),
        latlong: optional_string(input, scratch, attr::LATLONG),
        url: optional_string(input, scratch, attr::URL),
        localtime: parse_opt_num::<u64>(input, scratch, names::CLUSTER, attr::LOCALTIME)?,
    })
}

/// Parse one `METRIC` start tag's attributes from the scratch.
fn parse_metric(input: &str, scratch: &AttrScratch) -> Result<MetricEntry> {
    let name = Atom::new(required(input, scratch, names::METRIC, attr::NAME)?);
    let ty_raw = required(input, scratch, names::METRIC, attr::TYPE)?;
    let ty: MetricType = ty_raw.parse().map_err(|_| ParseError::BadAttr {
        element: names::METRIC,
        attr: attr::TYPE.to_string(),
        value: ty_raw.to_string(),
    })?;
    let val_raw = required(input, scratch, names::METRIC, attr::VAL)?;
    let value = MetricValue::parse(ty, val_raw).map_err(|_| ParseError::BadAttr {
        element: names::METRIC,
        attr: attr::VAL.to_string(),
        value: val_raw.to_string(),
    })?;
    let slope = match scratch.get(input, attr::SLOPE) {
        None => Slope::Unspecified,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRIC,
            attr: attr::SLOPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    Ok(MetricEntry {
        name,
        value,
        units: optional_atom(input, scratch, attr::UNITS),
        tn: parse_num(input, scratch, names::METRIC, attr::TN, 0u32)?,
        tmax: parse_num(input, scratch, names::METRIC, attr::TMAX, 60u32)?,
        dmax: parse_num(input, scratch, names::METRIC, attr::DMAX, 0u32)?,
        slope,
        source: optional_atom(input, scratch, attr::SOURCE),
    })
}

/// Parse one `METRICS` summary tag's attributes from the scratch.
fn parse_metric_summary(input: &str, scratch: &AttrScratch) -> Result<MetricSummary> {
    let name = Atom::new(required(input, scratch, names::METRICS, attr::NAME)?);
    let ty = match scratch.get(input, attr::TYPE) {
        None => MetricType::Double,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRICS,
            attr: attr::TYPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    let slope = match scratch.get(input, attr::SLOPE) {
        None => Slope::Unspecified,
        Some(raw) => raw.parse().map_err(|_| ParseError::BadAttr {
            element: names::METRICS,
            attr: attr::SLOPE.to_string(),
            value: raw.to_string(),
        })?,
    };
    Ok(MetricSummary {
        name,
        sum: parse_num(input, scratch, names::METRICS, attr::SUM, 0.0f64)?,
        num: parse_num(input, scratch, names::METRICS, attr::NUM, 0u32)?,
        ty,
        units: optional_atom(input, scratch, attr::UNITS),
        slope,
        source: optional_atom(input, scratch, attr::SOURCE),
    })
}

/// Parse a `HOST` element body whose start event was just returned (its
/// attributes are still in the scratch). `metrics_hint` pre-sizes the
/// metric vector from the previous round's observation so a steady-state
/// host parse does not grow-and-copy.
pub(crate) fn parse_host(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    metrics_hint: usize,
) -> Result<HostNode> {
    let mut host = HostNode {
        name: Atom::new(required(input, scratch, names::HOST, attr::NAME)?),
        ip: optional_string(input, scratch, attr::IP),
        reported: parse_opt_num::<u64>(input, scratch, names::HOST, attr::REPORTED)?,
        tn: parse_num(input, scratch, names::HOST, attr::TN, 0u32)?,
        tmax: parse_num(input, scratch, names::HOST, attr::TMAX, 20u32)?,
        dmax: parse_num(input, scratch, names::HOST, attr::DMAX, 0u32)?,
        location: optional_string(input, scratch, attr::LOCATION),
        gmond_started: parse_num(input, scratch, names::HOST, attr::STARTED, 0u64)?,
        metrics: Vec::with_capacity(metrics_hint),
    };
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::METRIC => {
                    host.metrics.push(parse_metric(input, scratch)?);
                    parser.skip_subtree_into(scratch)?;
                }
                // Later gmond versions attach EXTRA_DATA; tolerated.
                names::EXTRA_DATA | names::EXTRA_ELEMENT => parser.skip_subtree_into(scratch)?,
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::HOST.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) => break,
            Some(_) => continue,
            None => break,
        }
    }
    Ok(host)
}

/// Parse one `<HOST>...</HOST>` byte span through the streaming machine.
/// This is the Ingester's skip-mode span-miss path: full well-formedness
/// checks apply, but the only allocations are the node's own. Offsets in
/// its errors count from the span's start.
pub(crate) fn parse_host_span(
    span: &str,
    scratch: &mut AttrScratch,
    metrics_hint: usize,
) -> Result<HostNode> {
    let mut parser = PullParser::new(span);
    match parser.next_event_into(scratch)? {
        Some(StreamEvent::Start {
            name: names::HOST, ..
        }) => parse_host(&mut parser, span, scratch, metrics_hint),
        _ => Err(ParseError::UnexpectedTag {
            parent: names::CLUSTER.into(),
            tag: "(host span)".into(),
        }),
    }
}

/// How the walk turns the parts of a document into results: the one
/// place where [`parse_document`] and the [`crate::ingest::Ingester`]
/// differ. The walk owns the element loops, the tag dispatch, the
/// summary-form tags and every structural check; a hook decides only
/// how a `<HOST>` element becomes an `Arc<HostNode>` and what each
/// cluster and grid rolls up beside its node.
pub(crate) trait Walk {
    /// Per-cluster state, live from the `CLUSTER` start tag to its end.
    type Cluster<'a>
    where
        Self: 'a;
    /// What a cluster or grid rolls up to beside its node.
    type Summary;

    fn enter_grid(&mut self, name: &str);
    fn leave_grid(&mut self, name: &str);
    fn cluster(&mut self, name: &str) -> Self::Cluster<'_>;
    /// Capacity to reserve for the cluster's host vector.
    fn hosts_hint(_cluster: &Self::Cluster<'_>) -> usize {
        0
    }
    /// Build the host whose `HOST` start event was just returned (its
    /// attributes are still in the scratch), leaving the parser after
    /// its end tag.
    fn host(
        cluster: &mut Self::Cluster<'_>,
        parser: &mut PullParser<'_>,
        input: &str,
        scratch: &mut AttrScratch,
    ) -> Result<Arc<HostNode>>;
    /// Roll up a full-detail cluster's hosts.
    fn hosts(cluster: Self::Cluster<'_>, hosts: &[Arc<HostNode>]) -> Self::Summary;
    /// Roll up a cluster or grid reported in summary form.
    fn summary(&mut self, body: &SummaryBody) -> Self::Summary;
    /// Roll up an expanded grid's children, in document order.
    fn merge(&mut self, items: Vec<Self::Summary>) -> Self::Summary;
}

/// The one-shot hook behind [`parse_document`]: hosts are parsed in
/// place and nothing is rolled up.
struct OneShot;

impl Walk for OneShot {
    type Cluster<'a> = ();
    type Summary = ();

    fn enter_grid(&mut self, _name: &str) {}
    fn leave_grid(&mut self, _name: &str) {}
    fn cluster(&mut self, _name: &str) {}
    fn host(
        _cluster: &mut (),
        parser: &mut PullParser<'_>,
        input: &str,
        scratch: &mut AttrScratch,
    ) -> Result<Arc<HostNode>> {
        parse_host(parser, input, scratch, 0).map(Arc::new)
    }
    fn hosts(_cluster: (), _hosts: &[Arc<HostNode>]) {}
    fn summary(&mut self, _body: &SummaryBody) {}
    fn merge(&mut self, _items: Vec<()>) {}
}

/// Fold one `HOSTS` or `METRICS` summary-form tag into `summary`.
fn summary_tag(
    tag: &str,
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    summary: &mut Option<SummaryBody>,
) -> Result<()> {
    let body = summary.get_or_insert_with(SummaryBody::default);
    if tag == names::HOSTS {
        body.hosts_up = parse_num(input, scratch, names::HOSTS, attr::UP, 0u32)?;
        body.hosts_down = parse_num(input, scratch, names::HOSTS, attr::DOWN, 0u32)?;
    } else {
        body.metrics.push(parse_metric_summary(input, scratch)?);
    }
    parser.skip_subtree_into(scratch)?;
    Ok(())
}

/// The grids and clusters under the root or a `GRID`, with their
/// rollups, plus — under a grid only — its own summary-form tags.
type Items<S> = (Vec<GridItem>, Vec<S>, Option<SummaryBody>);

fn walk_children<W: Walk>(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    walk: &mut W,
    parent: &'static str,
) -> Result<Items<W::Summary>> {
    let mut items = Vec::new();
    let mut rollups = Vec::new();
    let mut summary = None;
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::GRID => {
                    let (grid, rollup) = walk_grid(parser, input, scratch, walk)?;
                    items.push(GridItem::Grid(grid));
                    rollups.push(rollup);
                }
                names::CLUSTER => {
                    let (cluster, rollup) = walk_cluster(parser, input, scratch, walk)?;
                    items.push(GridItem::Cluster(cluster));
                    rollups.push(rollup);
                }
                names::HOSTS | names::METRICS if parent == names::GRID => {
                    summary_tag(tag, parser, input, scratch, &mut summary)?
                }
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: parent.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) | None => break,
            Some(_) => continue,
        }
    }
    Ok((items, rollups, summary))
}

fn walk_grid<W: Walk>(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    walk: &mut W,
) -> Result<(GridNode, W::Summary)> {
    let header = grid_header(input, scratch)?;
    walk.enter_grid(&header.name);
    let (items, rollups, summary) = walk_children(parser, input, scratch, walk, names::GRID)?;
    walk.leave_grid(&header.name);
    let (body, rollup) = match summary {
        Some(s) if items.is_empty() => {
            let rollup = walk.summary(&s);
            (GridBody::Summary(s), rollup)
        }
        // A grid reporting both nested items and its own rolled-up summary
        // keeps the expanded form; summaries are recomputable.
        Some(_) | None => (GridBody::Items(items), walk.merge(rollups)),
    };
    Ok((
        GridNode {
            name: header.name,
            authority: header.authority,
            localtime: header.localtime,
            body,
        },
        rollup,
    ))
}

fn walk_cluster<W: Walk>(
    parser: &mut PullParser<'_>,
    input: &str,
    scratch: &mut AttrScratch,
    walk: &mut W,
) -> Result<(ClusterNode, W::Summary)> {
    let header = cluster_header(input, scratch)?;
    let mut cluster = walk.cluster(&header.name);
    let mut hosts = Vec::with_capacity(W::hosts_hint(&cluster));
    let mut summary = None;
    loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name: tag, .. }) => match tag {
                names::HOST => hosts.push(W::host(&mut cluster, parser, input, scratch)?),
                names::HOSTS | names::METRICS => {
                    summary_tag(tag, parser, input, scratch, &mut summary)?
                }
                other => {
                    return Err(ParseError::UnexpectedTag {
                        parent: names::CLUSTER.into(),
                        tag: other.to_string(),
                    })
                }
            },
            Some(StreamEvent::End { .. }) | None => break,
            Some(_) => continue,
        }
    }
    let (body, rollup) = match (hosts.is_empty(), summary) {
        (false, Some(_)) => return Err(ParseError::MixedClusterBody(header.name)),
        (true, Some(s)) => {
            drop(cluster);
            let rollup = walk.summary(&s);
            (ClusterBody::Summary(s), rollup)
        }
        (_, None) => {
            let rollup = W::hosts(cluster, &hosts);
            (ClusterBody::Hosts(hosts), rollup)
        }
    };
    Ok((
        ClusterNode {
            name: header.name,
            owner: header.owner,
            latlong: header.latlong,
            url: header.url,
            localtime: header.localtime,
            body,
        },
        rollup,
    ))
}

/// Walk a complete report with `walk` deciding hosts and rollups. The
/// document's rollup is its single top-level item's, or the merge of
/// all items in order (what a synthetic wrapping grid would compute).
pub(crate) fn walk_document<W: Walk>(
    input: &str,
    scratch: &mut AttrScratch,
    walk: &mut W,
) -> Result<(GangliaDoc, W::Summary)> {
    let mut parser = PullParser::new(input);
    // Skip the prolog (declaration, DOCTYPE, comments) to the root
    // element; the parser itself rejects text or a close tag here.
    let root_name = loop {
        match parser.next_event_into(scratch)? {
            Some(StreamEvent::Start { name, .. }) => break name,
            Some(_) => continue,
            None => return Err(ParseError::BadRoot("(empty)".into())),
        }
    };
    if root_name != names::GANGLIA_XML {
        return Err(ParseError::BadRoot(root_name.to_string()));
    }
    // The root's attributes are still live in the scratch here.
    let version = optional_string(input, scratch, attr::VERSION);
    let source = optional_string(input, scratch, attr::SOURCE);
    let (items, mut rollups, _) =
        walk_children(&mut parser, input, scratch, walk, names::GANGLIA_XML)?;
    let rollup = match rollups.len() {
        1 => rollups.pop().expect("len checked"),
        _ => walk.merge(rollups),
    };
    Ok((
        GangliaDoc {
            version,
            source,
            items,
        },
        rollup,
    ))
}

/// Parse a complete Ganglia XML report into the typed model.
///
/// The model parser stops at the root's closing tag: anything after it
/// is never read.
pub fn parse_document(input: &str) -> Result<GangliaDoc> {
    walk_document(input, &mut AttrScratch::new(), &mut OneShot).map(|(doc, ())| doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_document;
    use ganglia_xml::error::XmlErrorKind;
    use ganglia_xml::XmlError;

    #[test]
    fn representative_docs_are_render_fixpoints() {
        for doc in [
            r#"<GANGLIA_XML VERSION="2.5.4" SOURCE="gmond"><CLUSTER NAME="c" LOCALTIME="9">
<HOST NAME="n0" IP="10.0.0.1" REPORTED="7" TN="5" TMAX="20" DMAX="0">
<METRIC NAME="load_one" VAL="0.89" TYPE="float" UNITS="" TN="10" TMAX="70" DMAX="0" SLOPE="both" SOURCE="gmond"/>
</HOST></CLUSTER></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><GRID NAME="top" AUTHORITY="http://x/"><GRID NAME="sub">
<HOSTS UP="10" DOWN="1"/><METRICS NAME="cpu_num" SUM="20" NUM="10" TYPE="int32"/>
</GRID></GRID></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><CLUSTER NAME="big"><HOSTS UP="500" DOWN="2"/>
<METRICS NAME="load_one" SUM="215.5" NUM="500" TYPE="float"/></CLUSTER></GANGLIA_XML>"#,
            r#"<GANGLIA_XML><CLUSTER NAME="c"/></GANGLIA_XML>"#,
            "<?xml version=\"1.0\"?><!-- p --><GANGLIA_XML/>",
            r#"<GANGLIA_XML><CLUSTER NAME="a &amp; b" OWNER="&#65;&#x42;"><HOST NAME="h &lt;1&gt;" IP="1.1.1.1"/></CLUSTER></GANGLIA_XML>"#,
        ] {
            let parsed = parse_document(doc).unwrap();
            let rendered = write_document(&parsed);
            assert_eq!(parse_document(&rendered).unwrap(), parsed, "{doc:?}");
        }
    }

    #[test]
    fn entities_decode_into_model_strings() {
        let doc = parse_document(
            r#"<GANGLIA_XML><CLUSTER NAME="a &amp; b" OWNER="&#65;&#x42;"><HOST NAME="h &lt;1&gt;" IP="1.1.1.1"/></CLUSTER></GANGLIA_XML>"#,
        )
        .unwrap();
        let GridItem::Cluster(c) = &doc.items[0] else {
            panic!("expected a cluster")
        };
        assert_eq!(c.name, "a & b");
        assert_eq!(c.owner, "AB");
        assert!(c.host("h <1>").is_some());
    }

    #[test]
    fn malformed_docs_fail_with_expected_error() {
        let xml = |offset, kind| ParseError::Xml(XmlError { offset, kind });
        let cases = [
            ("", xml(0, XmlErrorKind::NoRootElement)),
            ("   ", xml(3, XmlErrorKind::NoRootElement)),
            ("<HTML/>", ParseError::BadRoot("HTML".into())),
            (
                "<GANGLIA_XML><BOGUS/></GANGLIA_XML>",
                ParseError::UnexpectedTag {
                    parent: "GANGLIA_XML".into(),
                    tag: "BOGUS".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER><HOST NAME="x"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::MissingAttr {
                    element: "CLUSTER",
                    attr: "NAME",
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h"><METRIC NAME="m" VAL="1"/></HOST></CLUSTER></GANGLIA_XML>"#,
                ParseError::MissingAttr {
                    element: "METRIC",
                    attr: "TYPE",
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h"><METRIC NAME="m" VAL="x" TYPE="int32"/></HOST></CLUSTER></GANGLIA_XML>"#,
                ParseError::BadAttr {
                    element: "METRIC",
                    attr: "VAL".into(),
                    value: "x".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><HOST NAME="h" IP="1.1.1.1"/><HOSTS UP="1" DOWN="0"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::MixedClusterBody("c".into()),
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c"><GRID NAME="g"/></CLUSTER></GANGLIA_XML>"#,
                ParseError::UnexpectedTag {
                    parent: "CLUSTER".into(),
                    tag: "GRID".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c" LOCALTIME="yesterday"/></GANGLIA_XML>"#,
                ParseError::BadAttr {
                    element: "CLUSTER",
                    attr: "LOCALTIME".into(),
                    value: "yesterday".into(),
                },
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c&bad;"/></GANGLIA_XML>"#,
                xml(29, XmlErrorKind::BadEntity("bad".into())),
            ),
            (
                r#"<GANGLIA_XML><CLUSTER NAME="c" NAME="d"/></GANGLIA_XML>"#,
                xml(39, XmlErrorKind::DuplicateAttribute("NAME".into())),
            ),
            (
                "<GANGLIA_XML><CLUSTER NAME=\"c\">",
                xml(31, XmlErrorKind::UnclosedElements(2)),
            ),
        ];
        for (doc, want) in cases {
            assert_eq!(parse_document(doc).unwrap_err(), want, "{doc:?}");
        }
    }

    #[test]
    fn content_after_the_root_is_never_read() {
        let doc = "<GANGLIA_XML></GANGLIA_XML>";
        let want = parse_document(doc).unwrap();
        for tail in ["junk", "<", "<A/>", "</B>"] {
            assert_eq!(parse_document(&format!("{doc}{tail}")).unwrap(), want);
        }
    }

    #[test]
    fn host_span_parses_one_host() {
        let span = r#"<HOST NAME="n0" IP="10.0.0.1" REPORTED="7" TN="5" TMAX="20" DMAX="0" LOCATION="r1,u2" STARTED="3">
<METRIC NAME="load_one" VAL="0.89" TYPE="float" SLOPE="both"/>
<EXTRA_DATA><EXTRA_ELEMENT NAME="x"/></EXTRA_DATA>
</HOST>"#;
        let mut scratch = AttrScratch::new();
        let node = parse_host_span(span, &mut scratch, 4).unwrap();
        assert_eq!(node.name.as_str(), "n0");
        assert_eq!(node.ip, "10.0.0.1");
        assert_eq!(node.reported, Some(7));
        assert_eq!(node.location, "r1,u2");
        assert_eq!(node.gmond_started, 3);
        assert_eq!(node.metrics.len(), 1);
        assert_eq!(node.metrics[0].name.as_str(), "load_one");
        // Non-HOST spans are rejected.
        assert_eq!(
            parse_host_span(
                "<METRIC NAME=\"x\" VAL=\"1\" TYPE=\"int32\"/>",
                &mut scratch,
                0
            ),
            Err(ParseError::UnexpectedTag {
                parent: "CLUSTER".into(),
                tag: "(host span)".into(),
            })
        );
    }
}
