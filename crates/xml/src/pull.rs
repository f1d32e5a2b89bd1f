//! A zero-copy, SAX-style pull parser.
//!
//! Parsing child reports is the single hottest operation in a wide-area
//! monitor (paper §3.3.1), so this parser is written to borrow everything
//! it can from the input buffer: element names are `&str` slices of the
//! input, and attribute values / character data are spans of the input
//! unless an entity reference forces expansion into a reusable
//! [`AttrScratch`] arena.
//!
//! The parser checks well-formedness as it goes (balanced tags, single
//! root, no duplicate attributes) so downstream code can trust the event
//! stream.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape::unescape_into;

/// Where an attribute value (or text run) lives: either a span of the
/// original input (the no-entity fast path) or a span of the scratch
/// arena (entities were expanded in place). Offsets, not references, so
/// [`AttrScratch`] carries no lifetime and can be reused across
/// documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueSpan {
    Input { start: usize, end: usize },
    Arena { start: usize, end: usize },
}

#[derive(Debug, Clone, Copy)]
struct RawAttr {
    name_start: usize,
    name_end: usize,
    value: ValueSpan,
}

impl RawAttr {
    /// Whether this attribute is called `name`. Lengths compare first:
    /// the names on one tag mostly differ in length, so most probes stop
    /// before touching the bytes.
    fn is(&self, input: &str, name: &str) -> bool {
        self.name_end - self.name_start == name.len()
            && input.as_bytes()[self.name_start..self.name_end] == *name.as_bytes()
    }
}

/// Reusable per-source scratch for [`PullParser::next_event_into`].
///
/// Attribute name/value *spans* are recorded here and entities are
/// expanded into one arena `String`, both reused across events — so a
/// steady event stream performs no per-event allocation once the
/// scratch has grown to its working size.
///
/// Ownership rule: the scratch is cleared at the top of every
/// `next_event_into` call, so spans handed out for one event are only
/// valid until the next call. Callers that need a value beyond that
/// must copy it out (e.g. into an interned `Atom`).
#[derive(Debug, Default)]
pub struct AttrScratch {
    attrs: Vec<RawAttr>,
    text: Option<ValueSpan>,
    arena: String,
}

impl AttrScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of attributes recorded for the current start event.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    fn clear(&mut self) {
        self.attrs.clear();
        self.arena.clear();
        self.text = None;
    }

    fn resolve<'s>(&'s self, input: &'s str, span: ValueSpan) -> &'s str {
        match span {
            ValueSpan::Input { start, end } => &input[start..end],
            ValueSpan::Arena { start, end } => &self.arena[start..end],
        }
    }

    /// Record `raw` (found at `offset` in the input) as a value span,
    /// expanding entities into the arena only when it contains any.
    fn push_value(&mut self, raw: &str, offset: usize) -> XmlResult<ValueSpan> {
        if !raw.contains('&') {
            return Ok(ValueSpan::Input {
                start: offset,
                end: offset + raw.len(),
            });
        }
        let start = self.arena.len();
        unescape_into(raw, offset, &mut self.arena)?;
        Ok(ValueSpan::Arena {
            start,
            end: self.arena.len(),
        })
    }

    /// Name of attribute `i`, resolved against the same `input` the
    /// parser was created over.
    pub fn name<'s>(&self, input: &'s str, i: usize) -> &'s str {
        let a = &self.attrs[i];
        &input[a.name_start..a.name_end]
    }

    /// Value of attribute `i`, entities expanded.
    pub fn value<'s>(&'s self, input: &'s str, i: usize) -> &'s str {
        self.resolve(input, self.attrs[i].value)
    }

    /// Look an attribute up by name.
    pub fn get<'s>(&'s self, input: &'s str, name: &str) -> Option<&'s str> {
        let attr = self.attrs.iter().find(|a| a.is(input, name))?;
        Some(self.resolve(input, attr.value))
    }

    /// Character data of the current [`StreamEvent::Text`] event,
    /// entities expanded. `None` for non-text events.
    pub fn text<'s>(&'s self, input: &'s str) -> Option<&'s str> {
        self.text.map(|span| self.resolve(input, span))
    }
}

/// A parse event. Attribute values and text live in the caller's
/// [`AttrScratch`]; only input-borrowed names ride on the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent<'a> {
    /// `<NAME ...>` or `<NAME ... />`; attributes are in the scratch. An
    /// empty element (`/>`) sets `empty` and is still followed by a
    /// matching [`StreamEvent::End`], so consumers never need to
    /// special-case it.
    Start { name: &'a str, empty: bool },
    /// `</NAME>` (or the synthesized end of an empty element).
    End { name: &'a str },
    /// Non-whitespace character data (or a CDATA section); content is in
    /// the scratch.
    Text,
    /// `<!-- ... -->`, body only.
    Comment(&'a str),
    /// `<?...?>` or `<!DOCTYPE ...>`, body only. Not interpreted.
    Decl(&'a str),
}

/// The pull parser. Create with [`PullParser::new`], then call
/// [`PullParser::next_event_into`] until it returns `Ok(None)`.
#[derive(Debug, Clone)]
pub struct PullParser<'a> {
    input: &'a str,
    pos: usize,
    /// Byte offset where the most recently returned event began.
    event_start: usize,
    /// Open-element stack (names borrowed from input).
    stack: Vec<&'a str>,
    /// End event synthesized for an `<X/>` empty element.
    pending_end: Option<&'a str>,
    /// Set once the root element has closed.
    saw_root_close: bool,
    /// Set once any root element has been seen.
    saw_root_open: bool,
}

impl<'a> PullParser<'a> {
    /// Parse `input` as a complete XML document.
    pub fn new(input: &'a str) -> Self {
        PullParser {
            input,
            pos: 0,
            event_start: 0,
            stack: Vec::with_capacity(8),
            pending_end: None,
            saw_root_close: false,
            saw_root_open: false,
        }
    }

    /// Byte offset of the next unread input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Byte offset where the most recently returned event's markup began
    /// (the `<` of a tag, the first byte of character data). Together
    /// with [`PullParser::offset`] after [`PullParser::skip_subtree_raw`],
    /// this delimits an element's exact byte span in the input — the
    /// basis for content fingerprinting.
    ///
    /// A synthesized end event (for `<X/>`) does not move this offset.
    pub fn last_event_start(&self) -> usize {
        self.event_start
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err<T>(&self, kind: XmlErrorKind) -> XmlResult<T> {
        Err(XmlError::new(self.pos, kind))
    }

    /// Produce the next event, or `Ok(None)` at a well-formed end of
    /// document. Attribute spans and expanded entities land in
    /// `scratch`, which is cleared on entry, so a steady event stream
    /// allocates nothing once the scratch has grown.
    pub fn next_event_into(
        &mut self,
        scratch: &mut AttrScratch,
    ) -> XmlResult<Option<StreamEvent<'a>>> {
        scratch.clear();
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            if self.stack.is_empty() {
                self.saw_root_close = true;
            }
            return Ok(Some(StreamEvent::End { name }));
        }
        loop {
            if self.pos >= self.input.len() {
                if !self.stack.is_empty() {
                    return self.err(XmlErrorKind::UnclosedElements(self.stack.len()));
                }
                if !self.saw_root_open {
                    return self.err(XmlErrorKind::NoRootElement);
                }
                return Ok(None);
            }
            if self.bytes()[self.pos] == b'<' {
                self.event_start = self.pos;
                let after_lt = self.pos + 1;
                if after_lt >= self.input.len() {
                    return self.err(XmlErrorKind::UnexpectedEof("markup"));
                }
                return match self.bytes()[after_lt] {
                    b'?' => self.parse_pi(),
                    b'!' => self.parse_bang(scratch),
                    b'/' => self.parse_close_tag(),
                    _ => self.parse_open_tag_into(scratch),
                }
                .map(Some);
            }
            // Character data up to the next '<'.
            let start = self.pos;
            self.event_start = start;
            let end = self.input[start..]
                .find('<')
                .map(|i| start + i)
                .unwrap_or(self.input.len());
            self.pos = end;
            let raw = &self.input[start..end];
            if raw.bytes().all(|b| b.is_ascii_whitespace()) {
                continue; // inter-tag whitespace carries no information
            }
            if self.stack.is_empty() {
                return self.err(XmlErrorKind::TrailingContent);
            }
            scratch.text = Some(scratch.push_value(raw, start)?);
            return Ok(Some(StreamEvent::Text));
        }
    }

    fn parse_pi(&mut self) -> XmlResult<StreamEvent<'a>> {
        let body_start = self.pos + 2;
        let Some(end) = self.input[body_start..].find("?>") else {
            return self.err(XmlErrorKind::UnexpectedEof("processing instruction"));
        };
        let body = &self.input[body_start..body_start + end];
        self.pos = body_start + end + 2;
        Ok(StreamEvent::Decl(body))
    }

    fn parse_bang(&mut self, scratch: &mut AttrScratch) -> XmlResult<StreamEvent<'a>> {
        let rest = &self.input[self.pos..];
        if let Some(body) = rest.strip_prefix("<!--") {
            let Some(end) = body.find("-->") else {
                return self.err(XmlErrorKind::UnexpectedEof("comment"));
            };
            let comment = &self.input[self.pos + 4..self.pos + 4 + end];
            self.pos += 4 + end + 3;
            return Ok(StreamEvent::Comment(comment));
        }
        if rest.starts_with("<![CDATA[") {
            let body_start = self.pos + 9;
            let Some(end) = self.input[body_start..].find("]]>") else {
                return self.err(XmlErrorKind::UnexpectedEof("CDATA section"));
            };
            self.pos = body_start + end + 3;
            if self.stack.is_empty() {
                return self.err(XmlErrorKind::TrailingContent);
            }
            // CDATA is raw text, never entity-expanded.
            scratch.text = Some(ValueSpan::Input {
                start: body_start,
                end: body_start + end,
            });
            return Ok(StreamEvent::Text);
        }
        // <!DOCTYPE ...> — may contain an internal subset in brackets.
        let body_start = self.pos + 2;
        let mut depth = 0usize;
        for (i, b) in self.input.as_bytes()[body_start..].iter().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    let body = &self.input[body_start..body_start + i];
                    self.pos = body_start + i + 1;
                    return Ok(StreamEvent::Decl(body));
                }
                _ => {}
            }
        }
        self.err(XmlErrorKind::UnexpectedEof("declaration"))
    }

    fn parse_close_tag(&mut self) -> XmlResult<StreamEvent<'a>> {
        let name_start = self.pos + 2;
        self.pos = name_start;
        let name = self.take_name()?;
        self.skip_ws();
        if self.pos >= self.input.len() || self.bytes()[self.pos] != b'>' {
            return self.err(XmlErrorKind::UnexpectedChar {
                expected: "'>' to finish close tag",
                found: self.peek_char(),
            });
        }
        self.pos += 1;
        match self.stack.pop() {
            Some(open) if open == name => {
                if self.stack.is_empty() {
                    self.saw_root_close = true;
                }
                Ok(StreamEvent::End { name })
            }
            Some(open) => Err(XmlError::new(
                name_start,
                XmlErrorKind::MismatchedClose {
                    open: open.to_string(),
                    close: name.to_string(),
                },
            )),
            None => Err(XmlError::new(
                name_start,
                XmlErrorKind::UnmatchedClose(name.to_string()),
            )),
        }
    }

    fn parse_open_tag_into(&mut self, scratch: &mut AttrScratch) -> XmlResult<StreamEvent<'a>> {
        if self.saw_root_close && self.stack.is_empty() {
            return self.err(XmlErrorKind::TrailingContent);
        }
        self.pos += 1; // consume '<'
        let name = self.take_name()?;
        loop {
            self.skip_ws();
            match self.peek_byte() {
                Some(b'>') => {
                    self.pos += 1;
                    self.stack.push(name);
                    self.saw_root_open = true;
                    return Ok(StreamEvent::Start { name, empty: false });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek_byte() != Some(b'>') {
                        return self.err(XmlErrorKind::UnexpectedChar {
                            expected: "'>' after '/'",
                            found: self.peek_char(),
                        });
                    }
                    self.pos += 1;
                    self.stack.push(name);
                    self.saw_root_open = true;
                    self.pending_end = Some(name);
                    return Ok(StreamEvent::Start { name, empty: true });
                }
                Some(_) => self.take_attribute_into(scratch)?,
                None => return self.err(XmlErrorKind::UnexpectedEof("start tag")),
            }
        }
    }

    fn take_attribute_into(&mut self, scratch: &mut AttrScratch) -> XmlResult<()> {
        let name_start = self.pos;
        let name = self.take_name()?;
        let name_end = self.pos;
        self.skip_ws();
        if self.peek_byte() != Some(b'=') {
            return self.err(XmlErrorKind::UnexpectedChar {
                expected: "'=' in attribute",
                found: self.peek_char(),
            });
        }
        self.pos += 1;
        self.skip_ws();
        let quote = match self.peek_byte() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                return self.err(XmlErrorKind::UnexpectedChar {
                    expected: "quoted attribute value",
                    found: self.peek_char(),
                })
            }
        };
        self.pos += 1;
        let value_start = self.pos;
        let Some(end) = self.input[value_start..].find(quote as char) else {
            return self.err(XmlErrorKind::UnexpectedEof("attribute value"));
        };
        let raw = &self.input[value_start..value_start + end];
        self.pos = value_start + end + 1;
        // A bad entity in the value reports before the duplicate check.
        let value = scratch.push_value(raw, value_start)?;
        if scratch.attrs.iter().any(|a| a.is(self.input, name)) {
            return self.err(XmlErrorKind::DuplicateAttribute(name.to_string()));
        }
        scratch.attrs.push(RawAttr {
            name_start,
            name_end,
            value,
        });
        Ok(())
    }

    fn take_name(&mut self) -> XmlResult<&'a str> {
        let start = self.pos;
        let bytes = self.bytes();
        if start >= bytes.len() || !is_name_start(bytes[start]) {
            return self.err(XmlErrorKind::BadName);
        }
        let mut end = start + 1;
        while end < bytes.len() && is_name_char(bytes[end]) {
            end += 1;
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn peek_char(&self) -> char {
        self.input[self.pos..].chars().next().unwrap_or('\0')
    }

    /// Skip the remainder of the element whose start event was just
    /// returned, including all of its descendants, by scanning raw bytes
    /// without materializing any events or attributes — the
    /// zero-allocation path the delta-aware ingest uses to delimit a
    /// `<HOST>` subtree it is about to fingerprint. Quoted attribute
    /// values (which may contain `>`), comments, CDATA sections, and
    /// processing instructions are honored; close-tag *names* are not
    /// checked against open tags, so a balanced-but-mismatched subtree
    /// passes here that [`PullParser::skip_subtree_into`] would reject.
    /// That is safe for fingerprinting: a span whose hash misses the
    /// cache is re-parsed through the full event path, which performs
    /// every well-formedness check.
    pub fn skip_subtree_raw(&mut self) -> XmlResult<()> {
        if self.pending_end.take().is_some() {
            // `<X/>`: the subtree is the empty element itself.
            self.stack.pop();
            if self.stack.is_empty() {
                self.saw_root_close = true;
            }
            return Ok(());
        }
        if self.stack.is_empty() {
            return Ok(());
        }
        let bytes = self.bytes();
        let mut depth = 1usize;
        while depth > 0 {
            let Some(lt) = self.input[self.pos..].find('<') else {
                self.pos = self.input.len();
                return self.err(XmlErrorKind::UnexpectedEof("subtree"));
            };
            self.pos += lt;
            let rest = &self.input[self.pos..];
            if let Some(body) = rest.strip_prefix("<!--") {
                let Some(end) = body.find("-->") else {
                    return self.err(XmlErrorKind::UnexpectedEof("comment"));
                };
                self.pos += 4 + end + 3;
            } else if let Some(body) = rest.strip_prefix("<![CDATA[") {
                let Some(end) = body.find("]]>") else {
                    return self.err(XmlErrorKind::UnexpectedEof("CDATA section"));
                };
                self.pos += 9 + end + 3;
            } else if let Some(body) = rest.strip_prefix("<?") {
                let Some(end) = body.find("?>") else {
                    return self.err(XmlErrorKind::UnexpectedEof("processing instruction"));
                };
                self.pos += 2 + end + 2;
            } else if rest.starts_with("<!") {
                // Declaration (e.g. a stray DOCTYPE): bracket-aware scan,
                // mirroring `parse_bang`.
                let mut brackets = 0usize;
                let mut closed = false;
                for (i, b) in bytes[self.pos + 2..].iter().enumerate() {
                    match b {
                        b'[' => brackets += 1,
                        b']' => brackets = brackets.saturating_sub(1),
                        b'>' if brackets == 0 => {
                            self.pos += 2 + i + 1;
                            closed = true;
                            break;
                        }
                        _ => {}
                    }
                }
                if !closed {
                    return self.err(XmlErrorKind::UnexpectedEof("declaration"));
                }
            } else if rest.starts_with("</") {
                // Close tags cannot contain quotes; scan straight to '>'.
                let Some(end) = rest.find('>') else {
                    return self.err(XmlErrorKind::UnexpectedEof("close tag"));
                };
                self.pos += end + 1;
                depth -= 1;
            } else {
                // Open tag: skip quoted attribute values, watch for '/>'.
                let mut i = self.pos + 1;
                let empty;
                loop {
                    match bytes.get(i) {
                        None => return self.err(XmlErrorKind::UnexpectedEof("start tag")),
                        Some(&q @ (b'"' | b'\'')) => {
                            let Some(close) = self.input[i + 1..].find(q as char) else {
                                self.pos = i;
                                return self.err(XmlErrorKind::UnexpectedEof("attribute value"));
                            };
                            i += 1 + close + 1;
                        }
                        Some(b'>') => {
                            empty = i > self.pos && bytes[i - 1] == b'/';
                            i += 1;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
                self.pos = i;
                if !empty {
                    depth += 1;
                }
            }
        }
        self.stack.pop();
        if self.stack.is_empty() {
            self.saw_root_close = true;
        }
        Ok(())
    }

    /// Skip the remainder of the element whose start event was just
    /// returned, including all of its descendants, performing full
    /// well-formedness checks but no allocation. This is how a parser
    /// avoids touching subtrees it does not need.
    pub fn skip_subtree_into(&mut self, scratch: &mut AttrScratch) -> XmlResult<()> {
        let target = self.stack.len();
        if target == 0 {
            return Ok(());
        }
        loop {
            match self.next_event_into(scratch)? {
                Some(StreamEvent::End { .. }) if self.stack.len() < target => return Ok(()),
                Some(_) => continue,
                None => return Ok(()),
            }
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event with its scratch payload copied out, so a whole stream
    /// can be compared against an expected table.
    #[derive(Debug, PartialEq, Eq)]
    enum Ev<'a> {
        Start(&'a str, Vec<(&'a str, String)>, bool),
        End(&'a str),
        Text(String),
        Comment(&'a str),
        Decl(&'a str),
    }

    fn start<'a>(name: &'a str, attrs: &[(&'a str, &str)], empty: bool) -> Ev<'a> {
        Ev::Start(
            name,
            attrs.iter().map(|&(n, v)| (n, v.to_string())).collect(),
            empty,
        )
    }

    fn text(s: &str) -> Ev<'_> {
        Ev::Text(s.to_string())
    }

    fn all_events(input: &str) -> XmlResult<Vec<Ev<'_>>> {
        let mut parser = PullParser::new(input);
        let mut scratch = AttrScratch::new();
        let mut out = Vec::new();
        while let Some(ev) = parser.next_event_into(&mut scratch)? {
            out.push(match ev {
                StreamEvent::Start { name, empty } => Ev::Start(
                    name,
                    (0..scratch.len())
                        .map(|i| (scratch.name(input, i), scratch.value(input, i).to_string()))
                        .collect(),
                    empty,
                ),
                StreamEvent::End { name } => Ev::End(name),
                StreamEvent::Text => Ev::Text(scratch.text(input).unwrap().to_string()),
                StreamEvent::Comment(body) => Ev::Comment(body),
                StreamEvent::Decl(body) => Ev::Decl(body),
            });
        }
        Ok(out)
    }

    fn start_name(ev: Option<StreamEvent<'_>>) -> Option<&str> {
        match ev {
            Some(StreamEvent::Start { name, .. }) => Some(name),
            _ => None,
        }
    }

    #[test]
    fn well_formed_docs_yield_expected_events() {
        let cases: Vec<(&str, Vec<Ev>)> = vec![
            (
                r#"<METRIC NAME="cpu_num" VAL="2" TYPE="int"/>"#,
                vec![
                    start(
                        "METRIC",
                        &[("NAME", "cpu_num"), ("VAL", "2"), ("TYPE", "int")],
                        true,
                    ),
                    Ev::End("METRIC"),
                ],
            ),
            (
                "<A><B>hello &amp; goodbye</B></A>",
                vec![
                    start("A", &[], false),
                    start("B", &[], false),
                    text("hello & goodbye"),
                    Ev::End("B"),
                    Ev::End("A"),
                ],
            ),
            (
                // Inter-tag whitespace produces no text events.
                "<A>\n  <B/>\n</A>",
                vec![
                    start("A", &[], false),
                    start("B", &[], true),
                    Ev::End("B"),
                    Ev::End("A"),
                ],
            ),
            (
                "<A X='1'/>",
                vec![start("A", &[("X", "1")], true), Ev::End("A")],
            ),
            (
                r#"<A X="a&lt;b" Y="&#65;&#x42;">t&amp;u</A>"#,
                vec![
                    start("A", &[("X", "a<b"), ("Y", "AB")], false),
                    text("t&u"),
                    Ev::End("A"),
                ],
            ),
            (
                "<?xml version=\"1.0\"?><!DOCTYPE G [ <!ELEMENT G (X)*> ]><!-- c --><G/>",
                vec![
                    Ev::Decl("xml version=\"1.0\""),
                    Ev::Decl("DOCTYPE G [ <!ELEMENT G (X)*> ]"),
                    Ev::Comment(" c "),
                    start("G", &[], true),
                    Ev::End("G"),
                ],
            ),
            (
                // CDATA is text, taken raw (no entity expansion).
                "<A><![CDATA[x < y & z]]></A>",
                vec![start("A", &[], false), text("x < y & z"), Ev::End("A")],
            ),
            (
                "<A><B X=\"a>b\" Y='c>d'><C/></B><E/></A>",
                vec![
                    start("A", &[], false),
                    start("B", &[("X", "a>b"), ("Y", "c>d")], false),
                    start("C", &[], true),
                    Ev::End("C"),
                    Ev::End("B"),
                    start("E", &[], true),
                    Ev::End("E"),
                    Ev::End("A"),
                ],
            ),
        ];
        for (doc, want) in cases {
            assert_eq!(all_events(doc).unwrap(), want, "events of {doc:?}");
        }
    }

    #[test]
    fn malformed_docs_fail_with_expected_kind() {
        let cases: Vec<(&str, XmlErrorKind)> = vec![
            (
                "<A><B></A></B>",
                XmlErrorKind::MismatchedClose {
                    open: "B".into(),
                    close: "A".into(),
                },
            ),
            ("<A><B>", XmlErrorKind::UnclosedElements(2)),
            (
                r#"<A X="1" X="2"/>"#,
                XmlErrorKind::DuplicateAttribute("X".into()),
            ),
            ("<A/><B/>", XmlErrorKind::TrailingContent),
            ("<A/>junk", XmlErrorKind::TrailingContent),
            ("junk<A/>", XmlErrorKind::TrailingContent),
            ("<A/><![CDATA[x]]>", XmlErrorKind::TrailingContent),
            ("   ", XmlErrorKind::NoRootElement),
            ("</A>", XmlErrorKind::UnmatchedClose("A".into())),
            ("<A X=\"1/>", XmlErrorKind::UnexpectedEof("attribute value")),
            (
                "<A X=1/>",
                XmlErrorKind::UnexpectedChar {
                    expected: "quoted attribute value",
                    found: '1',
                },
            ),
            (
                "<A X/>",
                XmlErrorKind::UnexpectedChar {
                    expected: "'=' in attribute",
                    found: '/',
                },
            ),
            (
                "<A/ >",
                XmlErrorKind::UnexpectedChar {
                    expected: "'>' after '/'",
                    found: ' ',
                },
            ),
            ("<A></A >x", XmlErrorKind::TrailingContent),
            (
                "<A></A x>",
                XmlErrorKind::UnexpectedChar {
                    expected: "'>' to finish close tag",
                    found: 'x',
                },
            ),
            ("<1/>", XmlErrorKind::BadName),
            (
                "<A><B>x&bogus;y</B></A>",
                XmlErrorKind::BadEntity("bogus".into()),
            ),
            (
                r#"<A X="a&nope;b"/>"#,
                XmlErrorKind::BadEntity("nope".into()),
            ),
            (r#"<A X="a&amp"/>"#, XmlErrorKind::BadEntity("amp".into())),
            // A bad entity reports before the duplicate it sits in.
            (
                r#"<A X="1" X="&bad;"/>"#,
                XmlErrorKind::BadEntity("bad".into()),
            ),
            ("<A", XmlErrorKind::UnexpectedEof("start tag")),
            ("<", XmlErrorKind::UnexpectedEof("markup")),
            (
                "<A><!-- never closed",
                XmlErrorKind::UnexpectedEof("comment"),
            ),
            (
                "<A><![CDATA[never closed",
                XmlErrorKind::UnexpectedEof("CDATA section"),
            ),
            (
                "<?pi never closed",
                XmlErrorKind::UnexpectedEof("processing instruction"),
            ),
            (
                "<!DOCTYPE G [ <!x> ",
                XmlErrorKind::UnexpectedEof("declaration"),
            ),
        ];
        for (doc, want) in cases {
            match all_events(doc) {
                Err(err) => assert_eq!(err.kind, want, "error kind of {doc:?}"),
                Ok(events) => panic!("{doc:?} parsed: {events:?}"),
            }
        }
    }

    #[test]
    fn error_offsets_point_at_the_fault() {
        // Close-tag errors report the name's offset; everything else the
        // position the parser stopped at.
        let err = all_events("<A><B></A></B>").unwrap_err();
        assert_eq!(err.offset, 8);
        let err = all_events(r#"<A X="1" X="2"/>"#).unwrap_err();
        assert_eq!(err.offset, 14);
        let err = all_events("<A><B>x&bogus;y</B></A>").unwrap_err();
        assert_eq!(err.offset, 7);
    }

    #[test]
    fn scratch_values_escaped_and_plain() {
        let doc = r#"<A PLAIN="p" ESC="a&lt;b" NUM="&#65;&#x42;c"/>"#;
        let mut parser = PullParser::new(doc);
        let mut scratch = AttrScratch::new();
        let ev = parser.next_event_into(&mut scratch).unwrap().unwrap();
        assert_eq!(
            ev,
            StreamEvent::Start {
                name: "A",
                empty: true
            }
        );
        assert_eq!(scratch.len(), 3);
        assert_eq!(scratch.get(doc, "PLAIN"), Some("p"));
        assert_eq!(scratch.get(doc, "ESC"), Some("a<b"));
        assert_eq!(scratch.get(doc, "NUM"), Some("ABc"));
        assert_eq!(scratch.get(doc, "MISSING"), None);
        // Plain values are spans of the input, not arena copies.
        assert_eq!(
            scratch.get(doc, "PLAIN").unwrap().as_ptr(),
            doc[10..].as_ptr()
        );
        // The synthesized end clears the scratch.
        let ev = parser.next_event_into(&mut scratch).unwrap().unwrap();
        assert_eq!(ev, StreamEvent::End { name: "A" });
        assert!(scratch.is_empty());
        assert!(parser.next_event_into(&mut scratch).unwrap().is_none());
    }

    #[test]
    fn streaming_performs_no_alloc_after_warmup() {
        // Parse once to grow the scratch, then confirm a second pass
        // reuses it: spans must resolve even though the arena was
        // cleared and refilled in place.
        let doc = r#"<A><M N="a&amp;b" V="1"/><M N="c&amp;d" V="2"/></A>"#;
        let mut scratch = AttrScratch::new();
        for _ in 0..2 {
            let mut parser = PullParser::new(doc);
            let mut values = Vec::new();
            while let Some(ev) = parser.next_event_into(&mut scratch).unwrap() {
                if let StreamEvent::Start { name: "M", .. } = ev {
                    values.push(scratch.get(doc, "N").unwrap().to_string());
                }
            }
            assert_eq!(values, ["a&b", "c&d"]);
        }
    }

    #[test]
    fn skip_subtree_into_skips_descendants() {
        let docs = [
            "<A><B><C/><D>text</D></B><E/></A>",
            "<A><B X=\"a>b\" Y='c>d'><C/></B><E/></A>",
            "<A><B/><E/></A>",
        ];
        let mut scratch = AttrScratch::new();
        for doc in docs {
            let mut parser = PullParser::new(doc);
            assert_eq!(
                start_name(parser.next_event_into(&mut scratch).unwrap()),
                Some("A")
            );
            assert_eq!(
                start_name(parser.next_event_into(&mut scratch).unwrap()),
                Some("B")
            );
            parser.skip_subtree_into(&mut scratch).unwrap();
            assert_eq!(parser.depth(), 1, "depth after skip on {doc}");
            assert_eq!(
                parser.next_event_into(&mut scratch).unwrap().unwrap(),
                StreamEvent::Start {
                    name: "E",
                    empty: true
                },
                "resume diverged on {doc}"
            );
        }
    }

    #[test]
    fn skip_subtree_into_checks_well_formedness() {
        let mut scratch = AttrScratch::new();
        let mut parser = PullParser::new("<A><B><C></D></B></A>");
        parser.next_event_into(&mut scratch).unwrap();
        parser.next_event_into(&mut scratch).unwrap();
        let err = parser.skip_subtree_into(&mut scratch).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedClose { .. }));
    }

    #[test]
    fn raw_skip_matches_event_skip() {
        let docs = [
            "<A><B><C/><D>text</D></B><E/></A>",
            "<A><B X=\"a>b\" Y='c>d'><C/></B><E/></A>",
            "<A><B><!-- gt > inside --><![CDATA[ x > y ]]><?pi > ?><C/></B><E/></A>",
            "<A><B/><E/></A>",
        ];
        let mut scratch = AttrScratch::new();
        for doc in docs {
            let mut parser = PullParser::new(doc);
            parser.next_event_into(&mut scratch).unwrap(); // <A>
            parser.next_event_into(&mut scratch).unwrap(); // <B ...>
            let mut raw = parser.clone();
            parser.skip_subtree_into(&mut scratch).unwrap();
            raw.skip_subtree_raw().unwrap();
            assert_eq!(raw.offset(), parser.offset(), "offset diverged on {doc}");
            assert_eq!(raw.depth(), parser.depth(), "depth diverged on {doc}");
            // Both parsers resume identically.
            assert_eq!(
                start_name(raw.next_event_into(&mut scratch).unwrap()),
                Some("E"),
                "resume diverged on {doc}"
            );
        }
    }

    #[test]
    fn raw_skip_rejects_truncated_subtree() {
        let mut scratch = AttrScratch::new();
        let mut parser = PullParser::new("<A><B><C>");
        parser.next_event_into(&mut scratch).unwrap();
        parser.next_event_into(&mut scratch).unwrap();
        assert!(parser.skip_subtree_raw().is_err());
    }

    #[test]
    fn event_span_covers_subtree() {
        let doc = "<A><B X=\"1\"><C/></B><E/></A>";
        let mut scratch = AttrScratch::new();
        let mut parser = PullParser::new(doc);
        parser.next_event_into(&mut scratch).unwrap(); // <A>
        parser.next_event_into(&mut scratch).unwrap(); // <B>
        let start = parser.last_event_start();
        parser.skip_subtree_raw().unwrap();
        assert_eq!(&doc[start..parser.offset()], "<B X=\"1\"><C/></B>");
    }

    #[test]
    fn depth_tracks_nesting() {
        let mut scratch = AttrScratch::new();
        let mut parser = PullParser::new("<A><B/></A>");
        parser.next_event_into(&mut scratch).unwrap();
        assert_eq!(parser.depth(), 1);
        parser.next_event_into(&mut scratch).unwrap(); // <B/> start
        assert_eq!(parser.depth(), 2);
        parser.next_event_into(&mut scratch).unwrap(); // B end
        assert_eq!(parser.depth(), 1);
    }
}
