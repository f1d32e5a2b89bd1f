//! Property tests: any element tree we can build serializes through the
//! writer to XML that the pull parser reads back as the identical tree,
//! and the pull parser never panics on arbitrary input.

use ganglia_xml::{AttrScratch, PullParser, StreamEvent, XmlWriter};
use proptest::prelude::*;

/// A minimal element tree — just enough structure to state the
/// writer→parser round trip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Node {
    name: String,
    /// Attributes in document order, names unique.
    attributes: Vec<(String, String)>,
    /// Character data directly inside this element.
    text: String,
    children: Vec<Node>,
}

impl Node {
    fn to_xml(&self) -> String {
        let mut out = String::new();
        let mut writer = XmlWriter::new(&mut out);
        self.write_into(&mut writer);
        writer.finish().expect("writing to String cannot fail");
        out
    }

    fn write_into(&self, writer: &mut XmlWriter<'_, String>) {
        let attrs: Vec<(&str, &str)> = self
            .attributes
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        if self.children.is_empty() && self.text.is_empty() {
            writer.empty_element(&self.name, &attrs);
        } else {
            writer.start_element(&self.name, &attrs);
            if !self.text.is_empty() {
                writer.text(&self.text);
            }
            for child in &self.children {
                child.write_into(writer);
            }
            writer.end_element();
        }
    }

    /// Rebuild the tree from the parser's event stream.
    fn parse(input: &str) -> Node {
        let mut parser = PullParser::new(input);
        let mut scratch = AttrScratch::new();
        let mut stack: Vec<Node> = Vec::new();
        let mut root = None;
        while let Some(event) = parser.next_event_into(&mut scratch).unwrap() {
            match event {
                StreamEvent::Start { name, .. } => stack.push(Node {
                    name: name.to_string(),
                    attributes: (0..scratch.len())
                        .map(|i| {
                            let name = scratch.name(input, i).to_string();
                            (name, scratch.value(input, i).to_string())
                        })
                        .collect(),
                    ..Node::default()
                }),
                StreamEvent::End { .. } => {
                    let done = stack.pop().expect("parser guarantees balance");
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(done),
                        None => root = Some(done),
                    }
                }
                StreamEvent::Text => {
                    let open = stack.last_mut().expect("text only inside the root");
                    open.text.push_str(scratch.text(input).unwrap());
                }
                StreamEvent::Comment(_) | StreamEvent::Decl(_) => {}
            }
        }
        root.expect("a parsed document has a root")
    }
}

/// Strategy for plausible XML names (ASCII, Ganglia-style).
fn name_strategy() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_.:-]{0,12}"
}

/// Attribute values: arbitrary printable text including reserved chars.
fn value_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{0,24}").unwrap()
}

fn node_strategy() -> impl Strategy<Value = Node> {
    let leaf = (
        name_strategy(),
        proptest::collection::vec((name_strategy(), value_strategy()), 0..4),
    )
        .prop_map(|(name, raw_attrs)| {
            let mut attributes: Vec<(String, String)> = Vec::new();
            for (n, v) in raw_attrs {
                // Attribute names must be unique: a repeat replaces.
                match attributes.iter_mut().find(|(existing, _)| *existing == n) {
                    Some(slot) => slot.1 = v,
                    None => attributes.push((n, v)),
                }
            }
            Node {
                name,
                attributes,
                ..Node::default()
            }
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec(inner, 0..4),
            value_strategy(),
        )
            .prop_map(|(name, children, text)| Node {
                name,
                // Mixed content with children complicates equality (text
                // position is not preserved); only attach text to leaves.
                text: if children.is_empty() {
                    text.trim().to_string()
                } else {
                    String::new()
                },
                children,
                ..Node::default()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tree_roundtrips_through_writer_and_parser(root in node_strategy()) {
        let xml = root.to_xml();
        prop_assert_eq!(root, Node::parse(&xml));
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "[ -~<>&\"']{0,256}") {
        let mut parser = PullParser::new(&input);
        let mut scratch = AttrScratch::new();
        // Errors are fine; panics are not.
        for _ in 0..1024 {
            match parser.next_event_into(&mut scratch) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_unicode(input in "\\PC{0,128}") {
        let mut parser = PullParser::new(&input);
        let mut scratch = AttrScratch::new();
        for _ in 0..1024 {
            match parser.next_event_into(&mut scratch) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}
