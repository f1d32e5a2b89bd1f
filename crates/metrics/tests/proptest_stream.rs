//! Adversarial property tests for the model parser, checked against a
//! specification rather than a second parser: the generator builds each
//! document from a description it keeps, so it knows the exact model a
//! well-formed document must parse to and the exact error a mangled one
//! must fail with. On every input — well-formed, entity-laden,
//! attribute-mangled, truncated, or garbage — `parse_document` must give
//! that answer, and never panic.
//!
//! The specification:
//!
//! * a document with no mangled metric parses to the model it was built
//!   from (entities decoded), and that model is a write→parse fixpoint;
//! * otherwise the first mangled metric in document order decides the
//!   error: a dropped `NAME`/`VAL`/`TYPE` is `MissingAttr` for it, a
//!   repeated one is `DuplicateAttribute` at the repeat's closing quote;
//! * every cut before the root's closing `>` is an error — the mangled
//!   metric's own error once its whole tag is in, an XML error while the
//!   cut is still before that tag;
//! * the parser stops at the root's close tag, so a tail after it never
//!   changes the outcome;
//! * rewriting characters as numeric references changes nothing but the
//!   byte offsets of XML errors;
//! * a warm delta-aware `Ingester` gives `parse_document`'s answer on
//!   every prefix of every document, error offsets included.

use std::sync::Arc;

use ganglia_metrics::{
    parse_document, write_document, Atom, ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem,
    GridNode, HostNode, Ingester, MetricEntry, MetricSummary, MetricType, MetricValue, ParseError,
    Slope, SummaryBody,
};
use ganglia_xml::error::XmlErrorKind;
use ganglia_xml::XmlError;
use proptest::prelude::*;

/// An attribute value as written on the wire and as the parser must
/// decode it.
#[derive(Debug, Clone)]
struct Value {
    raw: String,
    decoded: String,
}

/// Attribute-value payloads mixing plain text with every escape the
/// parser knows: the five predefined entities plus decimal and hex
/// numeric character references (including multi-byte codepoints).
fn attr_value() -> impl Strategy<Value = Value> {
    let decoded = |c: u32| char::from_u32(c).expect("printable ASCII").to_string();
    proptest::collection::vec(
        prop_oneof![
            4 => "[A-Za-z0-9 _./%-]{1,6}".prop_map(|s| (s.clone(), s)),
            1 => Just(("&amp;".to_string(), "&".to_string())),
            1 => Just(("&lt;".to_string(), "<".to_string())),
            1 => Just(("&gt;".to_string(), ">".to_string())),
            1 => Just(("&quot;".to_string(), "\"".to_string())),
            1 => Just(("&apos;".to_string(), "'".to_string())),
            1 => (32u32..127).prop_map(move |c| (format!("&#{c};"), decoded(c))),
            1 => (32u32..127).prop_map(move |c| (format!("&#x{c:X};"), decoded(c))),
            1 => Just(("&#955;".to_string(), "λ".to_string())), // multi-byte on decode
        ],
        0..5,
    )
    .prop_map(|pieces| {
        let (raw, decoded): (Vec<String>, Vec<String>) = pieces.into_iter().unzip();
        Value {
            raw: raw.concat(),
            decoded: decoded.concat(),
        }
    })
}

/// What to do to one metric's attribute list: leave it alone, drop a
/// required attribute, or state one twice with conflicting values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrMutation {
    Intact,
    DropName,
    DropVal,
    DropType,
    DuplicateName,
    DuplicateVal,
}

fn mutation() -> impl Strategy<Value = AttrMutation> {
    prop_oneof![
        5 => Just(AttrMutation::Intact),
        1 => Just(AttrMutation::DropName),
        1 => Just(AttrMutation::DropVal),
        1 => Just(AttrMutation::DropType),
        1 => Just(AttrMutation::DuplicateName),
        1 => Just(AttrMutation::DuplicateVal),
    ]
}

/// One `<METRIC .../>` element with adversarial values and an optional
/// attribute mutation.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    val: Value,
    units: Value,
    mutation: AttrMutation,
}

impl Metric {
    fn xml(&self) -> String {
        let (name, val) = (&self.name, &self.val.raw);
        let name_attr = match self.mutation {
            AttrMutation::DropName => String::new(),
            AttrMutation::DuplicateName => format!(" NAME=\"{name}\" NAME=\"shadow\""),
            _ => format!(" NAME=\"{name}\""),
        };
        let val_attr = match self.mutation {
            AttrMutation::DropVal => String::new(),
            AttrMutation::DuplicateVal => format!(" VAL=\"{val}\" VAL=\"0\""),
            _ => format!(" VAL=\"{val}\""),
        };
        let type_attr = match self.mutation {
            AttrMutation::DropType => "",
            _ => " TYPE=\"string\"",
        };
        format!(
            "<METRIC{name_attr}{val_attr}{type_attr} SLOPE=\"both\" UNITS=\"{}\" \
             TN=\"1\" TMAX=\"70\" DMAX=\"0\" SOURCE=\"gmond\"/>",
            self.units.raw
        )
    }

    /// The error this metric must raise when its tag, rendered as `tag`,
    /// starts at byte `at` of the document. `None` when intact.
    fn error(&self, tag: &str, at: usize) -> Option<ParseError> {
        let missing = |attr| ParseError::MissingAttr {
            element: "METRIC",
            attr,
        };
        // The repeat is the last occurrence in the tag (values never
        // contain a raw quote); the parser reports it at its closing
        // quote, once the value has been read.
        let duplicate = |repeat: &str, attr: &str| {
            let end = tag.rfind(repeat).expect("repeat rendered") + repeat.len();
            ParseError::Xml(XmlError {
                offset: at + end,
                kind: XmlErrorKind::DuplicateAttribute(attr.to_string()),
            })
        };
        match self.mutation {
            AttrMutation::Intact => None,
            AttrMutation::DropName => Some(missing("NAME")),
            AttrMutation::DropVal => Some(missing("VAL")),
            AttrMutation::DropType => Some(missing("TYPE")),
            AttrMutation::DuplicateName => Some(duplicate(" NAME=\"shadow\"", "NAME")),
            AttrMutation::DuplicateVal => Some(duplicate(" VAL=\"0\"", "VAL")),
        }
    }

    fn model(&self) -> MetricEntry {
        MetricEntry {
            name: Atom::new(&self.name),
            value: MetricValue::String(self.val.decoded.clone()),
            units: Atom::new(&self.units.decoded),
            tn: 1,
            tmax: 70,
            dmax: 0,
            slope: Slope::Both,
            source: Atom::new("gmond"),
        }
    }
}

fn metric() -> impl Strategy<Value = Metric> {
    ("[a-z_]{1,8}", attr_value(), attr_value(), mutation()).prop_map(
        |(name, val, units, mutation)| Metric {
            name,
            val,
            units,
            mutation,
        },
    )
}

/// One `<HOST>...</HOST>` with adversarial metrics; occasionally the
/// host loses its `IP` or `REPORTED` stamp (both optional).
#[derive(Debug, Clone)]
struct Host {
    name: String,
    metrics: Vec<Metric>,
    drop_ip: bool,
    drop_reported: bool,
}

fn host() -> impl Strategy<Value = Host> {
    (
        "[a-z][a-z0-9]{0,6}",
        proptest::collection::vec(metric(), 0..4),
        prop_oneof![3 => Just(0), 1 => Just(1), 1 => Just(2)],
    )
        .prop_map(|(name, metrics, drop)| Host {
            name,
            metrics,
            drop_ip: drop == 1,
            drop_reported: drop == 2,
        })
}

/// A full document: a gmond-style cluster of hosts, sometimes wrapped
/// in a gmetad-style grid, sometimes carrying a summary body instead.
#[derive(Debug, Clone)]
struct Doc {
    cluster: String,
    hosts: Vec<Host>,
    grid: bool,
    summary: bool,
}

fn doc() -> impl Strategy<Value = Doc> {
    (
        "[a-z]{1,6}",
        proptest::collection::vec(host(), 0..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(cluster, hosts, grid, summary)| Doc {
            cluster,
            hosts,
            grid,
            summary,
        })
}

/// A rendered document and the answer the parser must give for it.
struct Case {
    xml: String,
    expected: Result<GangliaDoc, ParseError>,
    /// Byte range of the tag that decides the error, when there is one.
    fault: Option<(usize, usize)>,
}

impl Doc {
    /// The same document with every metric intact.
    fn well_formed(&self) -> Doc {
        let mut doc = self.clone();
        for m in doc.hosts.iter_mut().flat_map(|h| &mut h.metrics) {
            m.mutation = AttrMutation::Intact;
        }
        doc
    }

    fn case(&self) -> Case {
        let mut xml = String::from("<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">");
        if self.grid {
            xml.push_str("<GRID NAME=\"top\" AUTHORITY=\"http://a/\" LOCALTIME=\"5\">");
        }
        xml.push_str(&format!(
            "<CLUSTER NAME=\"{}\" LOCALTIME=\"10\">",
            self.cluster
        ));
        let mut failure: Option<(ParseError, (usize, usize))> = None;
        let body = if self.summary {
            xml.push_str(
                "<HOSTS UP=\"3\" DOWN=\"1\" SOURCE=\"gmetad\"/>\
                 <METRICS NAME=\"load_one\" SUM=\"1.5\" NUM=\"3\" TYPE=\"double\" \
                 UNITS=\"\" SLOPE=\"both\" SOURCE=\"gmond\"/>",
            );
            ClusterBody::Summary(SummaryBody {
                hosts_up: 3,
                hosts_down: 1,
                metrics: vec![MetricSummary {
                    name: Atom::new("load_one"),
                    sum: 1.5,
                    num: 3,
                    ty: MetricType::Double,
                    units: Atom::new(""),
                    slope: Slope::Both,
                    source: Atom::new("gmond"),
                }],
            })
        } else {
            let mut hosts = Vec::new();
            for h in &self.hosts {
                let ip = if h.drop_ip { "" } else { " IP=\"10.0.0.9\"" };
                let reported = if h.drop_reported {
                    ""
                } else {
                    " REPORTED=\"100\""
                };
                xml.push_str(&format!(
                    "<HOST NAME=\"{}\"{ip}{reported} TN=\"2\" TMAX=\"20\" DMAX=\"0\">",
                    h.name
                ));
                let mut node =
                    HostNode::new(h.name.as_str(), if h.drop_ip { "" } else { "10.0.0.9" });
                node.reported = (!h.drop_reported).then_some(100);
                node.tn = 2;
                for m in &h.metrics {
                    let tag = m.xml();
                    let at = xml.len();
                    if failure.is_none() {
                        if let Some(err) = m.error(&tag, at) {
                            failure = Some((err, (at, at + tag.len())));
                        }
                    }
                    node.metrics.push(m.model());
                    xml.push_str(&tag);
                }
                xml.push_str("</HOST>");
                hosts.push(Arc::new(node));
            }
            ClusterBody::Hosts(hosts)
        };
        xml.push_str("</CLUSTER>");
        let cluster = GridItem::Cluster(ClusterNode {
            name: self.cluster.clone(),
            owner: String::new(),
            latlong: String::new(),
            url: String::new(),
            localtime: Some(10),
            body,
        });
        let item = if self.grid {
            xml.push_str("</GRID>");
            GridItem::Grid(GridNode {
                name: "top".into(),
                authority: "http://a/".into(),
                localtime: Some(5),
                body: GridBody::Items(vec![cluster]),
            })
        } else {
            cluster
        };
        xml.push_str("</GANGLIA_XML>");
        match failure {
            Some((err, tag)) => Case {
                xml,
                expected: Err(err),
                fault: Some(tag),
            },
            None => Case {
                xml,
                expected: Ok(GangliaDoc {
                    version: "2.5.4".into(),
                    source: "gmond".into(),
                    items: vec![item],
                }),
                fault: None,
            },
        }
    }
}

/// An accepted document must survive write→parse unchanged.
fn assert_fixpoint(doc: &GangliaDoc) {
    let rendered = write_document(doc);
    let again = parse_document(&rendered).expect("a rendered document parses");
    assert_eq!(&again, doc, "write→parse changed the model");
    assert_eq!(
        write_document(&again),
        rendered,
        "re-render is not byte-identical"
    );
}

/// `got` must be `want`; success must also be a fixpoint.
fn assert_outcome(got: Result<GangliaDoc, ParseError>, want: &Result<GangliaDoc, ParseError>) {
    assert_eq!(&got, want);
    if let Ok(doc) = got {
        assert_fixpoint(&doc);
    }
}

/// Equality that ignores where an XML error was detected.
fn same_modulo_offset(
    a: &Result<GangliaDoc, ParseError>,
    b: &Result<GangliaDoc, ParseError>,
) -> bool {
    match (a, b) {
        (Err(ParseError::Xml(x)), Err(ParseError::Xml(y))) => x.kind == y.kind,
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Well-formed and attribute-mangled documents: entity-escaped and
    /// numeric-char-ref values, missing required attributes, duplicate
    /// attributes — each parses to exactly its specified answer.
    #[test]
    fn adversarial_documents_match_spec(d in doc()) {
        let case = d.case();
        assert_outcome(parse_document(&case.xml), &case.expected);
    }

    /// Every truncation point of a document: mid-tag, mid-entity,
    /// mid-attribute-value. A strict prefix never parses.
    #[test]
    fn truncated_documents_fail(d in doc(), cut in 0usize..4096) {
        let case = d.case();
        let cut = cut % (case.xml.len() + 1);
        let cut = (0..=cut).rev().find(|&i| case.xml.is_char_boundary(i)).unwrap_or(0);
        let got = parse_document(&case.xml[..cut]);
        if cut == case.xml.len() {
            assert_outcome(got, &case.expected);
            return Ok(());
        }
        match case.fault {
            // The faulting tag is complete: its own error wins.
            Some((_, end)) if cut >= end => prop_assert_eq!(&got, &case.expected),
            // The cut lands inside the faulting tag: some error.
            Some((start, _)) if cut >= start => prop_assert!(got.is_err(), "{:?}", got),
            // Nothing wrong before the cut: the cut itself is the error.
            _ => prop_assert!(matches!(got, Err(ParseError::Xml(_))), "{:?}", got),
        }
    }

    /// Garbage appended after the closing root tag is never read.
    #[test]
    fn garbage_tails_are_ignored(d in doc(), tail in "[ -~]{0,24}") {
        let case = d.case();
        assert_outcome(parse_document(&format!("{}{tail}", case.xml)), &case.expected);
    }

    /// Raw printable-ASCII noise, heavy on XML metacharacters: no panic,
    /// and anything accepted is a real report and a fixpoint.
    #[test]
    fn arbitrary_noise_never_panics(junk in r#"[ -~]{0,64}"#) {
        if let Ok(doc) = parse_document(&junk) {
            prop_assert!(junk.contains("<GANGLIA_XML"), "accepted {:?}", junk);
            assert_fixpoint(&doc);
        }
    }

    /// A warm `Ingester` answers exactly what `parse_document` answers,
    /// offsets included, on the document and on every prefix of it. The
    /// two warm-up rounds of the well-formed version have equal host
    /// bytes and different document bytes, so the second rebuilds
    /// nothing and the cluster is in skip mode when the case arrives.
    #[test]
    fn warm_ingester_answers_like_parse_document(d in doc()) {
        let case = d.case();
        let well_formed = d.well_formed().case().xml;
        let mut ingester = Ingester::new();
        for round in [well_formed.clone(), well_formed.replacen("LOCALTIME=\"10\"", "LOCALTIME=\"11\"", 1)] {
            let warm = ingester.ingest(&round).expect("well-formed rounds ingest");
            prop_assert_eq!(warm.doc, parse_document(&round).expect("well-formed rounds parse"));
        }
        for cut in (0..=case.xml.len()).filter(|&i| case.xml.is_char_boundary(i)) {
            let input = &case.xml[..cut];
            let got = ingester.ingest(input).map(|ingested| ingested.doc);
            prop_assert_eq!(got, parse_document(input), "cut at byte {}", cut);
        }
    }

    /// Forcing the escape-decoding path everywhere — every `e` rewritten
    /// as a numeric reference — decodes to the same answer.
    #[test]
    fn numeric_ref_rewrite_is_transparent(d in doc()) {
        let case = d.case();
        let got = parse_document(&case.xml.replace('e', "&#101;"));
        prop_assert!(same_modulo_offset(&got, &case.expected), "{:?} vs {:?}", got, case.expected);
    }
}

/// Deterministic corner cases worth pinning outside the generator's
/// reach: bad numeric references, unknown entities, and cuts inside an
/// escape sequence, a tag name and an attribute value.
#[test]
fn known_adversarial_inputs_fail_as_specified() {
    const ROOT: &str = "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"gmond\">";
    let xml = |offset: usize, kind| Err(ParseError::Xml(XmlError { offset, kind }));
    let bad_entity = |e: &str| xml(22, XmlErrorKind::BadEntity(e.into()));
    let cluster_cut = format!("{ROOT}<CLUSTER NAME=\"c\" LOCALTIME=\"1\"><HOST NAME=\"a&#1");
    let cases: Vec<(String, Result<GangliaDoc, ParseError>)> = vec![
        ("".into(), xml(0, XmlErrorKind::NoRootElement)),
        ("<".into(), xml(0, XmlErrorKind::UnexpectedEof("markup"))),
        ("&amp;".into(), xml(5, XmlErrorKind::TrailingContent)),
        (
            "<GANGLIA_XML".into(),
            xml(12, XmlErrorKind::UnexpectedEof("start tag")),
        ),
        (
            ROOT.into(),
            xml(ROOT.len(), XmlErrorKind::UnclosedElements(1)),
        ),
        (
            format!("{ROOT}</GANGLIA_XML>"),
            Ok(GangliaDoc {
                version: "2.5.4".into(),
                source: "gmond".into(),
                items: Vec::new(),
            }),
        ),
        // Unknown entity and out-of-range / malformed numeric refs.
        (
            "<GANGLIA_XML VERSION=\"&bogus;\" SOURCE=\"g\"></GANGLIA_XML>".into(),
            bad_entity("bogus"),
        ),
        (
            "<GANGLIA_XML VERSION=\"&#xD800;\" SOURCE=\"g\"></GANGLIA_XML>".into(),
            bad_entity("#xD800"),
        ),
        (
            "<GANGLIA_XML VERSION=\"&#;\" SOURCE=\"g\"></GANGLIA_XML>".into(),
            bad_entity("#"),
        ),
        (
            "<GANGLIA_XML VERSION=\"&#999999999;\" SOURCE=\"g\"></GANGLIA_XML>".into(),
            bad_entity("#999999999"),
        ),
        (
            "<GANGLIA_XML VERSION=\"&amp\" SOURCE=\"g\"></GANGLIA_XML>".into(),
            bad_entity("amp"),
        ),
        // Truncated inside an entity, a tag name, and an attr value.
        (
            cluster_cut.clone(),
            xml(
                cluster_cut.len() - "a&#1".len(),
                XmlErrorKind::UnexpectedEof("attribute value"),
            ),
        ),
        (
            format!("{ROOT}<CLUS"),
            xml(ROOT.len() + 5, XmlErrorKind::UnexpectedEof("start tag")),
        ),
        (
            format!("{ROOT}<CLUSTER NAME=\"c"),
            xml(
                ROOT.len() + 15,
                XmlErrorKind::UnexpectedEof("attribute value"),
            ),
        ),
        // Wrong root, nested wrong tags, mixed cluster body.
        (
            "<NOT_GANGLIA></NOT_GANGLIA>".into(),
            Err(ParseError::BadRoot("NOT_GANGLIA".into())),
        ),
        (
            "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><BOGUS/></GANGLIA_XML>".into(),
            Err(ParseError::UnexpectedTag {
                parent: "GANGLIA_XML".into(),
                tag: "BOGUS".into(),
            }),
        ),
        (
            "<GANGLIA_XML VERSION=\"2.5.4\" SOURCE=\"g\"><CLUSTER NAME=\"c\" LOCALTIME=\"1\">\
             <HOST NAME=\"h\" IP=\"1.1.1.1\" REPORTED=\"1\" TN=\"1\" TMAX=\"20\" DMAX=\"0\"></HOST>\
             <HOSTS UP=\"1\" DOWN=\"0\" SOURCE=\"gmetad\"/></CLUSTER></GANGLIA_XML>"
                .into(),
            Err(ParseError::MixedClusterBody("c".into())),
        ),
    ];
    for (input, want) in &cases {
        assert_eq!(&parse_document(input), want, "{input:?}");
    }
}
