//! GQL — the filter/project/aggregate query language over the
//! monitoring tree, with delta frames for continuous queries.
//!
//! The paper's §5 future work asks for "a richer query language based on
//! regular expressions"; R-GMA (PAPERS.md) shows the destination — a
//! relational view over the monitoring tree with *continuous* queries.
//! GQL is the small middle ground: the tree is flattened into **rows**
//! (one per `(grid, cluster, host, metric)` leaf, or one per summary
//! metric in `summary` scope), and a query is a pipeline of stages
//! separated by `|`:
//!
//! ```text
//! query   := [ 'summary' '|' ] stage ( '|' stage )*
//! stage   := field ('~' | '==' | '!=') literal        name filter
//!          | 'val' cmp NUMBER [UNIT]                  value filter
//!          | 'select' field (',' field)*              projection
//!          | ('sum'|'avg'|'max'|'min'|'count') ['by' field]
//!          | 'top' INT                                top-k by value
//! field   := 'grid' | 'cluster' | 'host' | 'metric' | 'val' | 'units'
//! cmp     := '>' | '>=' | '<' | '<=' | '==' | '!='
//! literal := '"' escaped '"' | bareword
//! ```
//!
//! `~` matches with [`RegexLite`] (search semantics; anchor with `^`/`$`),
//! `==`/`!=` compare literally. Value thresholds take an optional unit
//! suffix (`1.5GB`, `200ms`, `80%`, `2GHz`); a unit-qualified threshold
//! only matches rows whose `UNITS` attribute belongs to the same unit
//! family, compared after conversion to base units. Aggregation groups by
//! a name field (default `metric`); `top N` keeps the N largest rows by
//! value. Stages are row-set → row-set transforms, so any ordering
//! parses; each stage sees the previous stage's output.
//!
//! Every query is *subscribable*: [`diff`] turns two evaluations into a
//! [`Delta`] (added/changed/removed rows) and [`Mirror`] replays deltas
//! client-side such that [`Mirror::render`] is byte-identical to
//! [`render_xml`] over a fresh evaluation at the same revision.

use std::collections::BTreeMap;
use std::fmt;

use ganglia_metrics::model::{
    ClusterBody, ClusterNode, GangliaDoc, GridBody, GridItem, GridNode, HostNode, SummaryBody,
};

use crate::regex_lite::RegexLite;

/// Maximum accepted expression length in bytes. Expressions arrive from
/// the network; longer ones are rejected before tokenizing.
pub const MAX_EXPR_BYTES: usize = 4096;

/// Maximum `top N` argument, so a query cannot demand an absurd sort.
pub const MAX_TOP: usize = 100_000;

/// Pseudo-metric name carrying a summary node's up-host count.
pub const HOSTS_UP: &str = "#hosts_up";
/// Pseudo-metric name carrying a summary node's down-host count.
pub const HOSTS_DOWN: &str = "#hosts_down";

// -------------------------------------------------------------------
// Errors
// -------------------------------------------------------------------

/// A GQL parse error with the byte offset into the expression where the
/// problem was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GqlError {
    /// Byte offset into the expression string.
    pub offset: usize,
    /// Human-readable reason.
    pub message: String,
}

impl fmt::Display for GqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for GqlError {}

fn err<T>(offset: usize, message: impl Into<String>) -> Result<T, GqlError> {
    Err(GqlError {
        offset,
        message: message.into(),
    })
}

/// A well-formed `<ERROR>` document for a malformed query, carrying the
/// byte-offset diagnostic. Returned on the query port instead of a
/// silent close so both legacy one-shot and framed clients see *why*.
pub fn error_xml(offset: usize, message: &str) -> String {
    format!(
        "<?xml version=\"1.0\"?>\n<ERROR SOURCE=\"gmetad\" OFFSET=\"{offset}\">{}</ERROR>\n",
        xml_escape(message)
    )
}

// -------------------------------------------------------------------
// Rows
// -------------------------------------------------------------------

/// One result row: a flattened leaf of the monitoring tree (or one
/// aggregate group). `key` is the canonical identity used for delta
/// computation; a row set is always sorted by `key`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `grid|cluster|host|metric` (or `field=group` after aggregation).
    pub key: String,
    pub grid: String,
    pub cluster: String,
    pub host: String,
    pub metric: String,
    /// Numeric view of the value, if it has one. Not carried on the
    /// wire — rendering uses `raw`.
    pub value: Option<f64>,
    /// Display form of the value, exactly as the tree renders it.
    pub raw: String,
    pub units: String,
    /// Contributing sample count (1 for a host metric, `NUM` for a
    /// summary metric, group size for an aggregate).
    pub num: u32,
}

impl Row {
    fn leaf(grid: &str, cluster: &str, host: &str, metric: &str) -> Row {
        Row {
            key: format!("{grid}|{cluster}|{host}|{metric}"),
            grid: grid.to_string(),
            cluster: cluster.to_string(),
            host: host.to_string(),
            metric: metric.to_string(),
            value: None,
            raw: String::new(),
            units: String::new(),
            num: 1,
        }
    }

    fn field(&self, field: Field) -> &str {
        match field {
            Field::Grid => &self.grid,
            Field::Cluster => &self.cluster,
            Field::Host => &self.host,
            Field::Metric => &self.metric,
            Field::Val => &self.raw,
            Field::Units => &self.units,
        }
    }
}

/// A canonical (key-sorted, key-unique) set of rows.
pub type RowSet = Vec<Row>;

fn canonicalize(rows: Vec<Row>) -> RowSet {
    let mut map: BTreeMap<String, Row> = BTreeMap::new();
    for row in rows {
        map.insert(row.key.clone(), row); // duplicate keys: last wins
    }
    map.into_values().collect()
}

// -------------------------------------------------------------------
// Query AST
// -------------------------------------------------------------------

/// A row attribute addressable by name in filters and projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    Grid,
    Cluster,
    Host,
    Metric,
    Val,
    Units,
}

impl Field {
    fn name(self) -> &'static str {
        match self {
            Field::Grid => "grid",
            Field::Cluster => "cluster",
            Field::Host => "host",
            Field::Metric => "metric",
            Field::Val => "val",
            Field::Units => "units",
        }
    }

    fn parse(word: &str) -> Option<Field> {
        Some(match word {
            "grid" => Field::Grid,
            "cluster" => Field::Cluster,
            "host" => Field::Host,
            "metric" => Field::Metric,
            "val" => Field::Val,
            "units" => Field::Units,
            _ => return None,
        })
    }

    fn is_name(self) -> bool {
        matches!(
            self,
            Field::Grid | Field::Cluster | Field::Host | Field::Metric
        )
    }
}

/// How a name filter compares.
#[derive(Debug, Clone)]
enum NameOp {
    /// `~` — regex search.
    Match(Box<RegexLite>),
    /// `==` — literal equality.
    Eq(String),
    /// `!=` — literal inequality.
    Ne(String),
}

/// Numeric comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
    Ne,
}

impl Cmp {
    fn holds(self, lhs: f64, rhs: f64) -> bool {
        match self {
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
        }
    }
}

/// Aggregation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggFunc {
    Sum,
    Avg,
    Max,
    Min,
    Count,
}

#[derive(Debug, Clone)]
enum Stage {
    NameFilter { field: Field, op: NameOp },
    ValFilter { cmp: Cmp, threshold: Threshold },
    Select(Vec<Field>),
    Agg { func: AggFunc, by: Field },
    Top(usize),
}

// -------------------------------------------------------------------
// Units
// -------------------------------------------------------------------

/// A dimension that unit-qualified thresholds can compare within.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnitFamily {
    Bytes,
    Seconds,
    Percent,
    Hertz,
}

/// Scale factor to base units for a `UNITS` spelling, if recognized.
fn unit_scale(units: &str) -> Option<(UnitFamily, f64)> {
    let u = units.trim().to_ascii_lowercase();
    Some(match u.as_str() {
        "b" | "bytes" => (UnitFamily::Bytes, 1.0),
        "kb" => (UnitFamily::Bytes, 1024.0),
        "mb" => (UnitFamily::Bytes, 1024.0 * 1024.0),
        "gb" => (UnitFamily::Bytes, 1024.0 * 1024.0 * 1024.0),
        "tb" => (UnitFamily::Bytes, 1024.0 * 1024.0 * 1024.0 * 1024.0),
        "s" | "sec" | "secs" | "seconds" => (UnitFamily::Seconds, 1.0),
        "ms" => (UnitFamily::Seconds, 1e-3),
        "us" => (UnitFamily::Seconds, 1e-6),
        "%" | "percent" => (UnitFamily::Percent, 1.0),
        "hz" => (UnitFamily::Hertz, 1.0),
        "khz" => (UnitFamily::Hertz, 1e3),
        "mhz" => (UnitFamily::Hertz, 1e6),
        "ghz" => (UnitFamily::Hertz, 1e9),
        _ => return None,
    })
}

/// A parsed threshold: plain, or unit-qualified (pre-scaled to base
/// units of its family).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Threshold {
    Plain(f64),
    InUnits(UnitFamily, f64),
}

impl Threshold {
    /// Whether `cmp` holds for a row against this threshold, applying
    /// unit-aware coercion. Rows with no numeric value never match; a
    /// unit-qualified threshold only matches rows with a unit in the
    /// same family.
    fn matches(self, cmp: Cmp, row: &Row) -> bool {
        let Some(value) = row.value else { return false };
        match self {
            Threshold::Plain(rhs) => cmp.holds(value, rhs),
            Threshold::InUnits(family, rhs) => match unit_scale(&row.units) {
                Some((row_family, scale)) if row_family == family => cmp.holds(value * scale, rhs),
                _ => false,
            },
        }
    }
}

/// Split `1.5GB` into the numeric prefix and the unit suffix. An `e` is
/// only part of the number when it continues an exponent (`1e3`, not
/// the start of a unit).
fn split_number_unit(word: &str) -> (&str, &str) {
    let bytes = word.as_bytes();
    let mut end = 0;
    if matches!(bytes.first(), Some(b'+') | Some(b'-')) {
        end = 1;
    }
    let mut seen_dot = false;
    while end < bytes.len() {
        let b = bytes[end];
        if b.is_ascii_digit() {
            end += 1;
        } else if b == b'.' && !seen_dot {
            seen_dot = true;
            end += 1;
        } else if (b == b'e' || b == b'E')
            && (bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
                || (matches!(bytes.get(end + 1), Some(b'+') | Some(b'-'))
                    && bytes.get(end + 2).is_some_and(u8::is_ascii_digit)))
        {
            // Exponent: consume 'e', optional sign, digits; nothing
            // (not even a unit) may follow a second exponent, so stop
            // the numeric prefix after the digits run out.
            end += 1;
            if matches!(bytes.get(end), Some(b'+') | Some(b'-')) {
                end += 1;
            }
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            break;
        } else {
            break;
        }
    }
    (&word[..end], &word[end..])
}

// -------------------------------------------------------------------
// Tokenizer
// -------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum TokenKind {
    Word,
    Quoted,
    Pipe,
    Comma,
    Op, // one of ~ == != >= <= > <
}

#[derive(Debug, Clone)]
struct Token {
    kind: TokenKind,
    text: String,
    offset: usize,
}

fn is_bare_char(c: char) -> bool {
    !c.is_whitespace() && !matches!(c, '|' | ',' | '~' | '<' | '>' | '=' | '!' | '"')
}

fn tokenize(src: &str) -> Result<Vec<Token>, GqlError> {
    let mut tokens = Vec::new();
    let mut iter = src.char_indices().peekable();
    while let Some(&(offset, c)) = iter.peek() {
        if c.is_whitespace() {
            iter.next();
            continue;
        }
        match c {
            '|' => {
                iter.next();
                tokens.push(Token {
                    kind: TokenKind::Pipe,
                    text: "|".to_string(),
                    offset,
                });
            }
            ',' => {
                iter.next();
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    text: ",".to_string(),
                    offset,
                });
            }
            '~' => {
                iter.next();
                tokens.push(Token {
                    kind: TokenKind::Op,
                    text: "~".to_string(),
                    offset,
                });
            }
            '=' | '!' | '<' | '>' => {
                iter.next();
                let two = iter.peek().is_some_and(|&(_, n)| n == '=');
                if two {
                    iter.next();
                    tokens.push(Token {
                        kind: TokenKind::Op,
                        text: format!("{c}="),
                        offset,
                    });
                } else if c == '<' || c == '>' {
                    tokens.push(Token {
                        kind: TokenKind::Op,
                        text: c.to_string(),
                        offset,
                    });
                } else {
                    return err(offset, format!("lone '{c}' (did you mean '{c}='?)"));
                }
            }
            '"' => {
                iter.next();
                let mut text = String::new();
                loop {
                    match iter.next() {
                        None => return err(offset, "unterminated string literal"),
                        Some((_, '"')) => break,
                        Some((esc_at, '\\')) => match iter.next() {
                            Some((_, '\\')) => text.push('\\'),
                            Some((_, '"')) => text.push('"'),
                            Some((_, 'n')) => text.push('\n'),
                            Some((_, 't')) => text.push('\t'),
                            Some((_, other)) => {
                                return err(esc_at, format!("unknown escape '\\{other}'"))
                            }
                            None => return err(esc_at, "unterminated string literal"),
                        },
                        Some((_, other)) => text.push(other),
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Quoted,
                    text,
                    offset,
                });
            }
            _ => {
                let mut text = String::new();
                while let Some(&(_, n)) = iter.peek() {
                    if is_bare_char(n) {
                        text.push(n);
                        iter.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Word,
                    text,
                    offset,
                });
            }
        }
    }
    Ok(tokens)
}

// -------------------------------------------------------------------
// Parser
// -------------------------------------------------------------------

/// A parsed (and compiled) GQL query.
#[derive(Debug, Clone)]
pub struct GqlQuery {
    source: String,
    /// Evaluate over summary rows instead of per-host metric rows.
    summary: bool,
    stages: Vec<Stage>,
}

impl GqlQuery {
    /// Parse an expression. Errors carry the byte offset of the problem
    /// within `src`.
    pub fn parse(src: &str) -> Result<GqlQuery, GqlError> {
        if src.len() > MAX_EXPR_BYTES {
            return err(
                MAX_EXPR_BYTES,
                format!("expression longer than {MAX_EXPR_BYTES} bytes"),
            );
        }
        let tokens = tokenize(src)?;
        if tokens.is_empty() {
            return err(0, "empty query");
        }
        let mut stages = Vec::new();
        let mut summary = false;
        let mut stage_tokens: Vec<&Token> = Vec::new();
        let mut stage_index = 0;
        let mut flush =
            |stage_tokens: &mut Vec<&Token>, stages: &mut Vec<Stage>, end_offset: usize| {
                if stage_tokens.is_empty() {
                    return err(end_offset, "empty stage");
                }
                if stage_index == 0
                    && stage_tokens.len() == 1
                    && stage_tokens[0].kind == TokenKind::Word
                    && stage_tokens[0].text == "summary"
                {
                    summary = true;
                } else {
                    stages.push(parse_stage(stage_tokens)?);
                }
                stage_index += 1;
                stage_tokens.clear();
                Ok(())
            };
        for token in &tokens {
            if token.kind == TokenKind::Pipe {
                flush(&mut stage_tokens, &mut stages, token.offset)?;
            } else {
                stage_tokens.push(token);
            }
        }
        flush(&mut stage_tokens, &mut stages, src.len())?;
        Ok(GqlQuery {
            source: src.to_string(),
            summary,
            stages,
        })
    }

    /// The expression this query was parsed from.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether this query runs in `summary` scope.
    pub fn is_summary(&self) -> bool {
        self.summary
    }

    /// Evaluate over a set of tree roots. `base` is the grid path the
    /// roots live under (`""` for a bare document, the gmetad's grid
    /// name when evaluating its store). Name filters on the key fields
    /// (grid, cluster, host, metric) that precede any projection or
    /// aggregation are fused into the tree walk, so rows they reject
    /// never reach the result set.
    pub fn evaluate(&self, base: &str, roots: &[RootRef<'_>]) -> RowSet {
        let filters = self
            .stages
            .iter()
            .take_while(|s| matches!(s, Stage::NameFilter { .. } | Stage::ValFilter { .. }))
            .count();
        // Leading filters are row predicates, so they commute. Sibling
        // names can collide, and rows with one key collapse to the last
        // one walked. A filter that reads only the fields the key is made
        // of judges every row of a key alike, so it may run before the
        // collapse; any other filter must judge the row that survives it.
        let (walk, after): (Vec<&Stage>, Vec<&Stage>) =
            self.stages[..filters].iter().partition(|s| {
                matches!(
                    s,
                    Stage::NameFilter {
                        field: Field::Grid | Field::Cluster | Field::Host | Field::Metric,
                        ..
                    }
                )
            });
        let mut builder = RowBuilder::with_filters(self.summary, walk);
        for root in roots {
            builder.add_root(base, root);
        }
        let mut rows = canonicalize(builder.finish());
        for stage in after.into_iter().chain(&self.stages[filters..]) {
            rows = apply_stage(stage, rows);
        }
        rows
    }

    /// Evaluate over a whole document (see [`doc_roots`]).
    pub fn evaluate_doc(&self, doc: &GangliaDoc) -> RowSet {
        self.evaluate("", &doc_roots(doc))
    }

    /// Naive reference evaluation: materialize every row, then apply
    /// each stage one at a time with straightforward code. A test-only
    /// oracle, so proptests can check the fused evaluator against an
    /// independent implementation.
    #[cfg(test)]
    pub(crate) fn evaluate_reference(&self, base: &str, roots: &[RootRef<'_>]) -> RowSet {
        let mut builder = RowBuilder::new(self.summary);
        for root in roots {
            builder.add_root(base, root);
        }
        let mut rows = canonicalize(builder.finish());
        for stage in &self.stages {
            rows = apply_stage_reference(stage, rows);
        }
        rows
    }
}

fn parse_stage(tokens: &[&Token]) -> Result<Stage, GqlError> {
    let head = tokens[0];
    if head.kind != TokenKind::Word {
        return err(head.offset, "expected a stage keyword or field name");
    }
    match head.text.as_str() {
        "summary" => err(head.offset, "'summary' is only allowed as the first stage"),
        "select" => parse_select(&tokens[1..], head.offset),
        "sum" | "avg" | "max" | "min" | "count" => {
            let func = match head.text.as_str() {
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "max" => AggFunc::Max,
                "min" => AggFunc::Min,
                _ => AggFunc::Count,
            };
            parse_agg(func, &tokens[1..], head.offset)
        }
        "top" => parse_top(&tokens[1..], head.offset),
        "val" => parse_val_filter(&tokens[1..], head.offset),
        word => match Field::parse(word) {
            Some(field) if field.is_name() => parse_name_filter(field, &tokens[1..], head.offset),
            _ => err(
                head.offset,
                format!(
                    "unknown stage '{word}' (expected summary, select, sum, avg, max, min, \
                     count, top, val, grid, cluster, host, or metric)"
                ),
            ),
        },
    }
}

fn parse_select(rest: &[&Token], at: usize) -> Result<Stage, GqlError> {
    if rest.is_empty() {
        return err(at, "select needs at least one field");
    }
    let mut fields = Vec::new();
    let mut want_field = true;
    for token in rest {
        if want_field {
            if token.kind != TokenKind::Word {
                return err(token.offset, "expected a field name");
            }
            match Field::parse(&token.text) {
                Some(field) => fields.push(field),
                None => return err(token.offset, format!("unknown field '{}'", token.text)),
            }
        } else if token.kind != TokenKind::Comma {
            return err(token.offset, "expected ',' between select fields");
        }
        want_field = !want_field;
    }
    if want_field {
        return err(
            rest.last().expect("rest is non-empty").offset,
            "trailing ',' in select",
        );
    }
    Ok(Stage::Select(fields))
}

fn parse_agg(func: AggFunc, rest: &[&Token], at: usize) -> Result<Stage, GqlError> {
    let by = match rest {
        [] => Field::Metric,
        [by_kw, field_tok] if by_kw.kind == TokenKind::Word && by_kw.text == "by" => {
            if field_tok.kind != TokenKind::Word {
                return err(field_tok.offset, "expected a field name after 'by'");
            }
            match Field::parse(&field_tok.text) {
                Some(field) if field.is_name() => field,
                Some(_) => {
                    return err(
                        field_tok.offset,
                        "can only group by grid, cluster, host, or metric",
                    )
                }
                None => {
                    return err(
                        field_tok.offset,
                        format!("unknown field '{}'", field_tok.text),
                    )
                }
            }
        }
        [extra, ..] => return err(extra.offset, "expected 'by <field>' or end of stage"),
    };
    let _ = at;
    Ok(Stage::Agg { func, by })
}

fn parse_top(rest: &[&Token], at: usize) -> Result<Stage, GqlError> {
    match rest {
        [n] if n.kind == TokenKind::Word => match n.text.parse::<usize>() {
            Ok(k) if (1..=MAX_TOP).contains(&k) => Ok(Stage::Top(k)),
            Ok(_) => err(n.offset, format!("top must be between 1 and {MAX_TOP}")),
            Err(_) => err(n.offset, format!("'{}' is not a count", n.text)),
        },
        [] => err(at, "top needs a count"),
        [extra, ..] => err(extra.offset, "top takes exactly one count"),
    }
}

fn parse_val_filter(rest: &[&Token], at: usize) -> Result<Stage, GqlError> {
    let [op, lit] = rest else {
        return err(at, "expected 'val <cmp> <number>[unit]'");
    };
    if op.kind != TokenKind::Op || op.text == "~" {
        return err(op.offset, "expected a comparison (>, >=, <, <=, ==, !=)");
    }
    let cmp = match op.text.as_str() {
        ">" => Cmp::Gt,
        ">=" => Cmp::Ge,
        "<" => Cmp::Lt,
        "<=" => Cmp::Le,
        "==" => Cmp::Eq,
        "!=" => Cmp::Ne,
        _ => return err(op.offset, "expected a comparison (>, >=, <, <=, ==, !=)"),
    };
    if lit.kind != TokenKind::Word {
        return err(lit.offset, "expected a number, e.g. 1.5GB or 200ms or 80%");
    }
    let (number, unit) = split_number_unit(&lit.text);
    let Ok(value) = number.parse::<f64>() else {
        return err(lit.offset, format!("'{}' is not a number", lit.text));
    };
    if !value.is_finite() {
        return err(lit.offset, "threshold must be finite");
    }
    let threshold = if unit.is_empty() {
        Threshold::Plain(value)
    } else {
        match unit_scale(unit) {
            Some((family, scale)) => Threshold::InUnits(family, value * scale),
            None => {
                return err(
                    lit.offset + number.len(),
                    format!(
                        "unknown unit '{unit}' (try B/KB/MB/GB/TB, s/ms/us, %, Hz/kHz/MHz/GHz)"
                    ),
                )
            }
        }
    };
    Ok(Stage::ValFilter { cmp, threshold })
}

fn parse_name_filter(field: Field, rest: &[&Token], at: usize) -> Result<Stage, GqlError> {
    let [op, lit] = rest else {
        return err(at, format!("expected '{} <op> <literal>'", field.name()));
    };
    if op.kind != TokenKind::Op {
        return err(op.offset, "expected '~', '==', or '!='");
    }
    if !matches!(lit.kind, TokenKind::Word | TokenKind::Quoted) {
        return err(lit.offset, "expected a literal or quoted string");
    }
    let name_op = match op.text.as_str() {
        "~" => {
            let re = RegexLite::new(&lit.text).map_err(|e| {
                // PatternError offsets are char-based within the (possibly
                // escape-processed) literal; report at the byte where the
                // literal begins plus the char position converted to bytes.
                let inner: usize = lit.text.chars().take(e.offset).map(char::len_utf8).sum();
                let quote = usize::from(lit.kind == TokenKind::Quoted);
                GqlError {
                    offset: lit.offset + quote + inner,
                    message: format!("bad pattern: {}", e.reason),
                }
            })?;
            NameOp::Match(Box::new(re))
        }
        "==" => NameOp::Eq(lit.text.clone()),
        "!=" => NameOp::Ne(lit.text.clone()),
        _ => return err(op.offset, "names support '~', '==', and '!=' only"),
    };
    Ok(Stage::NameFilter { field, op: name_op })
}

// -------------------------------------------------------------------
// Row generation
// -------------------------------------------------------------------

/// A borrowed tree root for evaluation. The serve tier evaluates
/// directly over store state, where a down source is only available in
/// summary form — the `*Summary` variants carry those.
#[derive(Debug, Clone, Copy)]
pub enum RootRef<'a> {
    Cluster(&'a ClusterNode),
    Grid(&'a GridNode),
    ClusterSummary {
        name: &'a str,
        summary: &'a SummaryBody,
    },
    GridSummary {
        name: &'a str,
        summary: &'a SummaryBody,
    },
}

/// The top-level items of a document as evaluation roots.
pub fn doc_roots(doc: &GangliaDoc) -> Vec<RootRef<'_>> {
    doc.items
        .iter()
        .map(|item| match item {
            GridItem::Cluster(c) => RootRef::Cluster(c),
            GridItem::Grid(g) => RootRef::Grid(g),
        })
        .collect()
}

/// Builds the flat row set for a scope, optionally fusing a prefix of
/// filter stages into the walk.
pub struct RowBuilder<'a> {
    rows: Vec<Row>,
    summary_scope: bool,
    filters: Vec<&'a Stage>,
}

impl<'a> RowBuilder<'a> {
    fn with_filters(summary_scope: bool, filters: Vec<&'a Stage>) -> RowBuilder<'a> {
        RowBuilder {
            rows: Vec::new(),
            summary_scope,
            filters,
        }
    }

    /// A builder with no fused filters (every row materializes).
    pub fn new(summary_scope: bool) -> RowBuilder<'static> {
        RowBuilder::with_filters(summary_scope, Vec::new())
    }

    fn push(&mut self, row: Row) {
        if self.filters.iter().all(|stage| match stage {
            Stage::NameFilter { field, op } => name_matches(op, row.field(*field)),
            _ => true,
        }) {
            self.rows.push(row);
        }
    }

    /// Walk one root under the grid path `base`.
    pub fn add_root(&mut self, base: &str, root: &RootRef<'_>) {
        match root {
            RootRef::Cluster(cluster) => self.add_cluster(base, cluster),
            RootRef::Grid(grid) => self.add_grid(base, grid),
            RootRef::ClusterSummary { name, summary } | RootRef::GridSummary { name, summary } => {
                if self.summary_scope {
                    self.add_summary_node(base, name, summary);
                }
            }
        }
    }

    fn add_cluster(&mut self, base: &str, cluster: &ClusterNode) {
        if self.summary_scope {
            self.add_summary_node(base, &cluster.name, &cluster.summary());
            return;
        }
        let ClusterBody::Hosts(hosts) = &cluster.body else {
            return; // summary-only cluster: no host rows to offer
        };
        for host in hosts {
            self.add_host(base, &cluster.name, host);
        }
    }

    fn add_host(&mut self, base: &str, cluster: &str, host: &HostNode) {
        for metric in &host.metrics {
            let mut row = Row::leaf(base, cluster, &host.name, &metric.name);
            row.value = metric.value.as_f64();
            row.raw = metric.value.to_string();
            row.units = metric.units.to_string();
            self.push(row);
        }
    }

    fn add_grid(&mut self, base: &str, grid: &GridNode) {
        if self.summary_scope {
            self.add_summary_node(base, &grid.name, &grid.summary());
        }
        let GridBody::Items(items) = &grid.body else {
            return;
        };
        let path = join_grid_path(base, &grid.name);
        for item in items {
            match item {
                GridItem::Cluster(c) => self.add_cluster(&path, c),
                GridItem::Grid(g) => self.add_grid(&path, g),
            }
        }
    }

    /// Emit summary rows for one named node (cluster or grid) living
    /// under the grid path `base`: one row per summarized metric (value
    /// = mean) plus the `#hosts_up` / `#hosts_down` pseudo-metrics.
    pub fn add_summary_node(&mut self, base: &str, name: &str, summary: &SummaryBody) {
        for metric in &summary.metrics {
            let mut row = Row::leaf(base, name, "", &metric.name);
            row.value = metric.mean();
            row.raw = row.value.map(fmt_f64).unwrap_or_default();
            row.units = metric.units.to_string();
            row.num = metric.num;
            self.push(row);
        }
        for (pseudo, count) in [
            (HOSTS_UP, summary.hosts_up),
            (HOSTS_DOWN, summary.hosts_down),
        ] {
            let mut row = Row::leaf(base, name, "", pseudo);
            row.value = Some(f64::from(count));
            row.raw = fmt_f64(f64::from(count));
            row.units = "hosts".to_string();
            row.num = summary.hosts_total();
            self.push(row);
        }
    }

    /// All rows pushed so far, in walk order (not canonicalized).
    pub fn finish(self) -> Vec<Row> {
        self.rows
    }
}

fn join_grid_path(base: &str, name: &str) -> String {
    if base.is_empty() {
        name.to_string()
    } else {
        format!("{base}/{name}")
    }
}

fn name_matches(op: &NameOp, text: &str) -> bool {
    match op {
        NameOp::Match(re) => re.is_match(text),
        NameOp::Eq(lit) => text == lit,
        NameOp::Ne(lit) => text != lit,
    }
}

/// Format an aggregate or summary value the way the tree's own float
/// formatting does: integral values print as integers.
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

// -------------------------------------------------------------------
// Stage application
// -------------------------------------------------------------------

fn apply_stage(stage: &Stage, rows: RowSet) -> RowSet {
    match stage {
        Stage::NameFilter { field, op } => rows
            .into_iter()
            .filter(|row| name_matches(op, row.field(*field)))
            .collect(),
        Stage::ValFilter { cmp, threshold } => rows
            .into_iter()
            .filter(|row| threshold.matches(*cmp, row))
            .collect(),
        Stage::Select(fields) => rows.into_iter().map(|row| project(row, fields)).collect(),
        Stage::Agg { func, by } => aggregate(*func, *by, &rows),
        Stage::Top(k) => top_k(rows, *k),
    }
}

/// Blank every display field not selected; the key (row identity) is
/// preserved so deltas stay stable across projection.
fn project(mut row: Row, fields: &[Field]) -> Row {
    if !fields.contains(&Field::Grid) {
        row.grid.clear();
    }
    if !fields.contains(&Field::Cluster) {
        row.cluster.clear();
    }
    if !fields.contains(&Field::Host) {
        row.host.clear();
    }
    if !fields.contains(&Field::Metric) {
        row.metric.clear();
    }
    if !fields.contains(&Field::Val) {
        row.value = None;
        row.raw.clear();
    }
    if !fields.contains(&Field::Units) {
        row.units.clear();
    }
    row
}

fn aggregate(func: AggFunc, by: Field, rows: &[Row]) -> RowSet {
    struct Group {
        sum: f64,
        min: f64,
        max: f64,
        numeric: u32,
        total: u32,
        units: Option<String>, // None = none seen yet; Some("") = mixed
    }
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for row in rows {
        let group = groups.entry(row.field(by).to_string()).or_insert(Group {
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            numeric: 0,
            total: 0,
            units: None,
        });
        group.total += 1;
        if let Some(x) = row.value {
            group.sum += x;
            group.min = group.min.min(x);
            group.max = group.max.max(x);
            group.numeric += 1;
            match &group.units {
                None => group.units = Some(row.units.clone()),
                Some(u) if *u != row.units => group.units = Some(String::new()),
                Some(_) => {}
            }
        }
    }
    groups
        .into_iter()
        .filter_map(|(name, g)| {
            let (value, num) = match func {
                AggFunc::Count => (Some(f64::from(g.total)), g.total),
                AggFunc::Sum if g.numeric > 0 => (Some(g.sum), g.numeric),
                AggFunc::Avg if g.numeric > 0 => (Some(g.sum / f64::from(g.numeric)), g.numeric),
                AggFunc::Max if g.numeric > 0 => (Some(g.max), g.numeric),
                AggFunc::Min if g.numeric > 0 => (Some(g.min), g.numeric),
                _ => return None, // no numeric contributors: no group row
            };
            let mut row = Row {
                key: format!("{}={}", by.name(), name),
                grid: String::new(),
                cluster: String::new(),
                host: String::new(),
                metric: String::new(),
                value,
                raw: value.map(fmt_f64).unwrap_or_default(),
                units: if func == AggFunc::Count {
                    "rows".to_string()
                } else {
                    g.units.unwrap_or_default()
                },
                num,
            };
            match by {
                Field::Grid => row.grid = name,
                Field::Cluster => row.cluster = name,
                Field::Host => row.host = name,
                Field::Metric => row.metric = name,
                _ => unreachable!("parser restricts 'by' to name fields"),
            }
            Some(row)
        })
        .collect()
}

/// Keep the `k` largest rows by value (rows without a value lose every
/// comparison; key order breaks ties), then restore canonical key order.
fn top_k(mut rows: RowSet, k: usize) -> RowSet {
    rows.sort_by(|a, b| {
        match (a.value, b.value) {
            (Some(x), Some(y)) => y.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Equal),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        }
        .then_with(|| a.key.cmp(&b.key))
    });
    rows.truncate(k);
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

/// Independent, deliberately-naive stage application for the reference
/// evaluator. Kept structurally different from [`apply_stage`]: linear
/// scans instead of grouped maps, explicit loops instead of iterator
/// pipelines.
#[cfg(test)]
fn apply_stage_reference(stage: &Stage, rows: RowSet) -> RowSet {
    match stage {
        Stage::NameFilter { field, op } => {
            let mut out = Vec::new();
            for row in rows {
                if name_matches(op, row.field(*field)) {
                    out.push(row);
                }
            }
            out
        }
        Stage::ValFilter { cmp, threshold } => {
            let mut out = Vec::new();
            for row in rows {
                if threshold.matches(*cmp, &row) {
                    out.push(row);
                }
            }
            out
        }
        Stage::Select(fields) => {
            let mut out = Vec::new();
            for row in rows {
                out.push(project(row, fields));
            }
            out
        }
        Stage::Agg { func, by } => {
            // Group via linear scans over a name list.
            let mut names: Vec<String> = Vec::new();
            for row in &rows {
                let name = row.field(*by).to_string();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            names.sort();
            let mut out = Vec::new();
            for name in names {
                let members: Vec<&Row> = rows
                    .iter()
                    .filter(|r| r.field(*by) == name.as_str())
                    .collect();
                let numeric: Vec<f64> = members.iter().filter_map(|r| r.value).collect();
                let (value, num) = match func {
                    AggFunc::Count => (f64::from(members.len() as u32), members.len() as u32),
                    _ if numeric.is_empty() => continue,
                    AggFunc::Sum => (numeric.iter().sum(), numeric.len() as u32),
                    AggFunc::Avg => (
                        numeric.iter().sum::<f64>() / numeric.len() as f64,
                        numeric.len() as u32,
                    ),
                    AggFunc::Max => (
                        numeric.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                        numeric.len() as u32,
                    ),
                    AggFunc::Min => (
                        numeric.iter().cloned().fold(f64::INFINITY, f64::min),
                        numeric.len() as u32,
                    ),
                };
                let units = if *func == AggFunc::Count {
                    "rows".to_string()
                } else {
                    let mut seen: Vec<&str> = Vec::new();
                    for member in &members {
                        if member.value.is_some() && !seen.contains(&member.units.as_str()) {
                            seen.push(&member.units);
                        }
                    }
                    if seen.len() == 1 {
                        seen[0].to_string()
                    } else {
                        String::new()
                    }
                };
                let mut row = Row {
                    key: format!("{}={}", by.name(), name),
                    grid: String::new(),
                    cluster: String::new(),
                    host: String::new(),
                    metric: String::new(),
                    value: Some(value),
                    raw: fmt_f64(value),
                    units,
                    num,
                };
                match by {
                    Field::Grid => row.grid = name,
                    Field::Cluster => row.cluster = name,
                    Field::Host => row.host = name,
                    Field::Metric => row.metric = name,
                    _ => unreachable!("parser restricts 'by' to name fields"),
                }
                out.push(row);
            }
            out
        }
        Stage::Top(k) => {
            // Selection by repeated max-scan instead of a sort.
            let mut remaining = rows;
            let mut picked: Vec<Row> = Vec::new();
            while picked.len() < *k && !remaining.is_empty() {
                let mut best = 0;
                for i in 1..remaining.len() {
                    let better = match (remaining[i].value, remaining[best].value) {
                        (Some(x), Some(y)) => {
                            x > y || (x == y && remaining[i].key < remaining[best].key)
                        }
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => remaining[i].key < remaining[best].key,
                    };
                    if better {
                        best = i;
                    }
                }
                picked.push(remaining.remove(best));
            }
            picked.sort_by(|a, b| a.key.cmp(&b.key));
            picked
        }
    }
}

// -------------------------------------------------------------------
// Rendering
// -------------------------------------------------------------------

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a row set as a `<GQL>` document stamped with the store
/// revision it was evaluated at.
pub fn render_xml(rows: &[Row], revision: u64) -> String {
    let mut out = String::with_capacity(64 + rows.len() * 96);
    out.push_str("<?xml version=\"1.0\"?>\n");
    out.push_str(&format!(
        "<GQL REVISION=\"{revision}\" ROWS=\"{}\">\n",
        rows.len()
    ));
    for row in rows {
        out.push_str(&format!(
            "<ROW KEY=\"{}\" GRID=\"{}\" CLUSTER=\"{}\" HOST=\"{}\" METRIC=\"{}\" \
             VAL=\"{}\" UNITS=\"{}\" N=\"{}\"/>\n",
            xml_escape(&row.key),
            xml_escape(&row.grid),
            xml_escape(&row.cluster),
            xml_escape(&row.host),
            xml_escape(&row.metric),
            xml_escape(&row.raw),
            xml_escape(&row.units),
            row.num,
        ));
    }
    out.push_str("</GQL>\n");
    out
}

// -------------------------------------------------------------------
// Deltas
// -------------------------------------------------------------------

/// The change between two evaluations of one query: rows that appeared,
/// rows whose content changed, and keys that vanished. `full` marks a
/// snapshot (the receiver clears its state first) — the initial frame
/// of a subscription is a full delta.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Delta {
    pub revision: u64,
    pub full: bool,
    pub added: Vec<Row>,
    pub changed: Vec<Row>,
    pub removed: Vec<String>,
}

impl Delta {
    /// A full-snapshot delta carrying every row as an addition.
    pub fn snapshot(rows: &[Row], revision: u64) -> Delta {
        Delta {
            revision,
            full: true,
            added: rows.to_vec(),
            changed: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// Whether this delta changes nothing (an empty non-full delta).
    pub fn is_empty(&self) -> bool {
        !self.full && self.added.is_empty() && self.changed.is_empty() && self.removed.is_empty()
    }

    /// Wire encoding: a line-oriented text block.
    ///
    /// ```text
    /// GQLD <revision> <full:0|1>
    /// +<TAB>key<TAB>grid<TAB>cluster<TAB>host<TAB>metric<TAB>raw<TAB>units<TAB>num
    /// ~<TAB>...                                  (changed rows, same fields)
    /// -<TAB>key
    /// .
    /// ```
    ///
    /// Fields are TSV-escaped (`\\`, `\t`, `\n`), so a client can parse
    /// frames with `split('\t')` and no XML machinery.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("GQLD {} {}\n", self.revision, u8::from(self.full)));
        for (tag, rows) in [('+', &self.added), ('~', &self.changed)] {
            for row in rows {
                out.push(tag);
                for field in [
                    &row.key,
                    &row.grid,
                    &row.cluster,
                    &row.host,
                    &row.metric,
                    &row.raw,
                    &row.units,
                ] {
                    out.push('\t');
                    out.push_str(&tsv_escape(field));
                }
                out.push('\t');
                out.push_str(&row.num.to_string());
                out.push('\n');
            }
        }
        for key in &self.removed {
            out.push('-');
            out.push('\t');
            out.push_str(&tsv_escape(key));
            out.push('\n');
        }
        out.push_str(".\n");
        out
    }

    /// Parse a wire-encoded delta frame.
    pub fn parse(text: &str) -> Result<Delta, GqlError> {
        let mut delta = Delta::default();
        let mut offset = 0;
        let mut lines = text.split_inclusive('\n');
        let header = lines.next().unwrap_or("");
        let mut head_parts = header.trim_end_matches('\n').split(' ');
        if head_parts.next() != Some("GQLD") {
            return err(0, "not a GQLD frame");
        }
        delta.revision = match head_parts.next().and_then(|s| s.parse().ok()) {
            Some(rev) => rev,
            None => return err(5, "bad revision in GQLD header"),
        };
        delta.full = match head_parts.next() {
            Some("0") => false,
            Some("1") => true,
            _ => return err(header.len(), "bad full flag in GQLD header"),
        };
        offset += header.len();
        let mut terminated = false;
        for line in lines {
            let body = line.trim_end_matches('\n');
            if body == "." {
                terminated = true;
                break;
            }
            let mut fields = body.split('\t');
            match fields.next() {
                Some("+") | Some("~") => {
                    let tag = &body[..1];
                    let mut take = |what: &str| -> Result<String, GqlError> {
                        match fields.next() {
                            Some(f) => tsv_unescape(f).ok_or_else(|| GqlError {
                                offset,
                                message: format!("bad escape in {what}"),
                            }),
                            None => err(offset, format!("row line missing {what}")),
                        }
                    };
                    let key = take("key")?;
                    let grid = take("grid")?;
                    let cluster = take("cluster")?;
                    let host = take("host")?;
                    let metric = take("metric")?;
                    let raw = take("raw")?;
                    let units = take("units")?;
                    let num = match fields.next().and_then(|f| f.parse().ok()) {
                        Some(n) => n,
                        None => return err(offset, "row line missing num"),
                    };
                    if fields.next().is_some() {
                        return err(offset, "trailing fields on row line");
                    }
                    let row = Row {
                        key,
                        grid,
                        cluster,
                        host,
                        metric,
                        // The wire carries the raw string; recover the
                        // numeric view the same way evaluation does, so
                        // mirrored rows stay usable for thresholds.
                        value: raw.parse().ok(),
                        raw,
                        units,
                        num,
                    };
                    if tag == "+" {
                        delta.added.push(row);
                    } else {
                        delta.changed.push(row);
                    }
                }
                Some("-") => {
                    let key = match fields.next() {
                        Some(f) => tsv_unescape(f).ok_or_else(|| GqlError {
                            offset,
                            message: "bad escape in removed key".to_string(),
                        })?,
                        None => return err(offset, "removal line missing key"),
                    };
                    delta.removed.push(key);
                }
                _ => return err(offset, "unknown delta line tag"),
            }
            offset += line.len();
        }
        if !terminated {
            return err(text.len(), "missing '.' terminator");
        }
        Ok(delta)
    }
}

/// Diff two canonical row sets into the delta that turns `prev` into
/// `next`, stamped with `next`'s revision.
pub fn diff(prev: &[Row], next: &[Row], revision: u64) -> Delta {
    let mut delta = Delta {
        revision,
        ..Delta::default()
    };
    let (mut i, mut j) = (0, 0);
    while i < prev.len() || j < next.len() {
        match (prev.get(i), next.get(j)) {
            (Some(p), Some(n)) if p.key == n.key => {
                if !rows_equal_on_wire(p, n) {
                    delta.changed.push(n.clone());
                }
                i += 1;
                j += 1;
            }
            (Some(p), Some(n)) if p.key < n.key => {
                delta.removed.push(p.key.clone());
                i += 1;
            }
            (Some(_), Some(n)) => {
                delta.added.push(n.clone());
                j += 1;
            }
            (Some(p), None) => {
                delta.removed.push(p.key.clone());
                i += 1;
            }
            (None, Some(n)) => {
                delta.added.push(n.clone());
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    delta
}

/// Wire equality: the fields a delta carries (value is derived and not
/// transmitted, so it must not influence the diff).
fn rows_equal_on_wire(a: &Row, b: &Row) -> bool {
    a.key == b.key
        && a.grid == b.grid
        && a.cluster == b.cluster
        && a.host == b.host
        && a.metric == b.metric
        && a.raw == b.raw
        && a.units == b.units
        && a.num == b.num
}

/// Client-side replayed state of a subscription. Applying every pushed
/// [`Delta`] in order makes [`Mirror::render`] byte-identical to
/// [`render_xml`] over a fresh server-side evaluation at
/// [`Mirror::revision`].
#[derive(Debug, Default)]
pub struct Mirror {
    rows: BTreeMap<String, Row>,
    revision: u64,
}

impl Mirror {
    pub fn new() -> Mirror {
        Mirror::default()
    }

    /// The revision of the last applied delta.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of rows currently mirrored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Apply one delta (a full delta resets the mirror first).
    pub fn apply(&mut self, delta: &Delta) {
        if delta.full {
            self.rows.clear();
        }
        for row in delta.added.iter().chain(&delta.changed) {
            self.rows.insert(row.key.clone(), row.clone());
        }
        for key in &delta.removed {
            self.rows.remove(key);
        }
        self.revision = delta.revision;
    }

    /// Render the mirrored state exactly as the server renders a fresh
    /// evaluation.
    pub fn render(&self) -> String {
        let rows: Vec<Row> = self.rows.values().cloned().collect();
        render_xml(&rows, self.revision)
    }

    /// The mirrored rows in canonical order.
    pub fn rows(&self) -> Vec<Row> {
        self.rows.values().cloned().collect()
    }
}

fn tsv_escape(s: &str) -> String {
    if !s.contains(['\\', '\t', '\n']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn tsv_unescape(s: &str) -> Option<String> {
    if !s.contains('\\') {
        return Some(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '\\' => out.push('\\'),
                't' => out.push('\t'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

// -------------------------------------------------------------------
// Tests
// -------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use ganglia_metrics::model::{ClusterNode, GridNode, HostNode, MetricEntry};
    use ganglia_metrics::MetricValue;

    fn host(name: &str, metrics: &[(&str, f64, &str)]) -> HostNode {
        let mut h = HostNode::new(name, "10.0.0.1");
        for (metric, value, units) in metrics {
            let mut m = MetricEntry::new(*metric, MetricValue::Double(*value));
            m.units = (*units).into();
            h.metrics.push(m);
        }
        h
    }

    fn sample_doc() -> GangliaDoc {
        let meteor = ClusterNode::with_hosts(
            "meteor",
            vec![
                host("m0", &[("load_one", 0.5, ""), ("mem_free", 2048.0, "KB")]),
                host("m1", &[("load_one", 1.5, ""), ("mem_free", 1024.0, "KB")]),
            ],
        );
        let nashi = ClusterNode::with_hosts(
            "nashi",
            vec![host(
                "n0",
                &[("load_one", 3.0, ""), ("cpu_speed", 2000.0, "MHz")],
            )],
        );
        let inner = GridNode::with_items("attic", vec![GridItem::Cluster(nashi)]);
        let top = GridNode::with_items(
            "sdsc",
            vec![GridItem::Cluster(meteor), GridItem::Grid(inner)],
        );
        GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![GridItem::Grid(top)],
        }
    }

    fn eval(expr: &str) -> RowSet {
        GqlQuery::parse(expr).unwrap().evaluate_doc(&sample_doc())
    }

    #[test]
    fn filter_by_metric_name() {
        let rows = eval("metric == load_one");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.metric == "load_one"));
        // Keys are grid|cluster|host|metric and sorted.
        assert_eq!(rows[0].key, "sdsc/attic|nashi|n0|load_one");
        assert_eq!(rows[1].key, "sdsc|meteor|m0|load_one");
    }

    #[test]
    fn regex_filter_on_host() {
        let rows = eval("host ~ ^m[0-9]$ | metric ~ load");
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.host.starts_with('m')));
    }

    #[test]
    fn val_filter_plain_and_units() {
        let rows = eval("metric == load_one | val > 1.0");
        assert_eq!(rows.len(), 2); // 1.5 and 3.0
                                   // Unit-aware: 1.5MB = 1536KB, matches only the 2048KB row.
        let rows = eval("metric == mem_free | val >= 1.5MB");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].host, "m0");
        // Hertz family across scales.
        let rows = eval("val >= 1GHz");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "cpu_speed");
        // A unit-qualified threshold ignores unitless rows entirely.
        let rows = eval("val > 0s");
        assert!(rows.is_empty());
    }

    #[test]
    fn select_projects_but_keeps_keys() {
        let rows = eval("metric == load_one | select host, val");
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.grid.is_empty());
            assert!(row.cluster.is_empty());
            assert!(row.metric.is_empty());
            assert!(!row.host.is_empty());
            assert!(!row.raw.is_empty());
            assert!(row.key.contains('|'));
        }
    }

    #[test]
    fn aggregate_sum_and_avg() {
        let rows = eval("metric == load_one | sum");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key, "metric=load_one");
        assert_eq!(rows[0].value, Some(5.0));
        assert_eq!(rows[0].num, 3);

        let rows = eval("metric == load_one | avg by cluster");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].key, "cluster=meteor");
        assert_eq!(rows[0].value, Some(1.0));
        assert_eq!(rows[1].key, "cluster=nashi");
        assert_eq!(rows[1].value, Some(3.0));
    }

    #[test]
    fn count_counts_all_rows() {
        let rows = eval("count by host");
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.value == Some(2.0)));
        assert_eq!(rows[0].units, "rows");
    }

    #[test]
    fn top_k_keeps_largest_by_value() {
        let rows = eval("metric == load_one | top 2");
        assert_eq!(rows.len(), 2);
        let hosts: Vec<&str> = rows.iter().map(|r| r.host.as_str()).collect();
        assert!(hosts.contains(&"n0")); // 3.0
        assert!(hosts.contains(&"m1")); // 1.5
                                        // Output stays key-sorted.
        assert!(rows[0].key < rows[1].key);
    }

    #[test]
    fn summary_scope_rows() {
        let rows = eval("summary | metric == load_one");
        // One row per summarizing node: sdsc grid, meteor cluster,
        // attic grid, nashi cluster.
        assert_eq!(rows.len(), 4);
        let sdsc = rows.iter().find(|r| r.cluster == "sdsc").unwrap();
        assert_eq!(sdsc.num, 3);
        assert_eq!(sdsc.value, Some(5.0 / 3.0));
        let rows = eval("summary | metric == #hosts_up");
        assert_eq!(rows.len(), 4);
        let meteor = rows.iter().find(|r| r.cluster == "meteor").unwrap();
        assert_eq!(meteor.value, Some(2.0));
        assert_eq!(meteor.units, "hosts");
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        let e = GqlQuery::parse("metric =").unwrap_err();
        assert_eq!(e.offset, 7);
        let e = GqlQuery::parse("bogus ~ x").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = GqlQuery::parse("metric ~ \"a(\"").unwrap_err();
        assert!(
            e.offset >= 10,
            "offset {} points into the pattern",
            e.offset
        );
        let e = GqlQuery::parse("val > ").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = GqlQuery::parse("metric == a | | top 1").unwrap_err();
        assert_eq!(e.offset, 14);
        let e = GqlQuery::parse("val > 10zz").unwrap_err();
        assert_eq!(e.offset, 8);
        let e = GqlQuery::parse("").unwrap_err();
        assert_eq!(e.offset, 0);
        let e = GqlQuery::parse("top 1 | summary").unwrap_err();
        assert_eq!(e.offset, 8);
    }

    #[test]
    fn quoted_literals_and_escapes() {
        let q = GqlQuery::parse("host == \"with space\"").unwrap();
        let mut h = host("with space", &[("x", 1.0, "")]);
        h.name = "with space".into();
        let doc = GangliaDoc::gmond(ClusterNode::with_hosts("c", vec![h]));
        assert_eq!(q.evaluate_doc(&doc).len(), 1);
        assert!(GqlQuery::parse("host == \"a\\\"b\"").is_ok());
        assert!(GqlQuery::parse("host == \"unterminated").is_err());
    }

    #[test]
    fn expression_length_cap() {
        let long = "metric == ".to_string() + &"a".repeat(MAX_EXPR_BYTES);
        let e = GqlQuery::parse(&long).unwrap_err();
        assert!(e.message.contains("longer"));
    }

    #[test]
    fn fused_and_reference_agree_on_samples() {
        let doc = sample_doc();
        let roots = doc_roots(&doc);
        for expr in [
            "metric ~ load",
            "summary | val > 1",
            "metric == load_one | avg by cluster | val >= 1",
            "select val | top 2",
            "val >= 1MB | sum by host",
            "cluster != meteor | count",
            "summary | metric ~ hosts | max by cluster",
        ] {
            let q = GqlQuery::parse(expr).unwrap();
            assert_eq!(
                q.evaluate("", &roots),
                q.evaluate_reference("", &roots),
                "disagreement on {expr:?}"
            );
        }
    }

    #[test]
    fn colliding_sibling_names_filter_the_row_that_survives() {
        // Two clusters share a name, so their rows share keys and the
        // last one walked wins. A value filter judges that survivor, not
        // an earlier row it shadows.
        let doc = GangliaDoc {
            version: "2.5.4".into(),
            source: "gmetad".into(),
            items: vec![
                GridItem::Cluster(ClusterNode::with_hosts(
                    "meteor",
                    vec![host("m0", &[("load_one", 5.0, "")])],
                )),
                GridItem::Cluster(ClusterNode::with_hosts(
                    "meteor",
                    vec![host("m0", &[("load_one", 0.5, "")])],
                )),
            ],
        };
        let roots = doc_roots(&doc);
        for expr in [
            "metric == load_one | val > 1",
            "val > 1 | metric == load_one",
        ] {
            let q = GqlQuery::parse(expr).unwrap();
            assert_eq!(q.evaluate("", &roots), Vec::new(), "{expr}");
            assert_eq!(q.evaluate_reference("", &roots), Vec::new(), "{expr}");
        }
        let all = GqlQuery::parse("metric == load_one").unwrap();
        assert_eq!(all.evaluate("", &roots)[0].raw, "0.5");
    }

    #[test]
    fn diff_and_mirror_roundtrip() {
        let q = GqlQuery::parse("metric == load_one").unwrap();
        let doc1 = sample_doc();
        let rows1 = q.evaluate_doc(&doc1);

        let mut doc2 = sample_doc();
        // Mutate: change m0's load, drop n0's metric.
        if let GridItem::Grid(top) = &mut doc2.items[0] {
            if let GridBody::Items(items) = &mut top.body {
                if let GridItem::Cluster(meteor) = &mut items[0] {
                    if let ClusterBody::Hosts(hosts) = &mut meteor.body {
                        let m0 = std::sync::Arc::make_mut(&mut hosts[0]);
                        m0.metrics[0].value = MetricValue::Double(9.0);
                    }
                }
                if let GridItem::Grid(inner) = &mut items[1] {
                    if let GridBody::Items(inner_items) = &mut inner.body {
                        if let GridItem::Cluster(nashi) = &mut inner_items[0] {
                            if let ClusterBody::Hosts(hosts) = &mut nashi.body {
                                let n0 = std::sync::Arc::make_mut(&mut hosts[0]);
                                n0.metrics.remove(0);
                            }
                        }
                    }
                }
            }
        }
        let rows2 = q.evaluate_doc(&doc2);

        let mut mirror = Mirror::new();
        mirror.apply(&Delta::snapshot(&rows1, 1));
        assert_eq!(mirror.render(), render_xml(&rows1, 1));

        let delta = diff(&rows1, &rows2, 2);
        assert_eq!(delta.changed.len(), 1);
        assert_eq!(delta.removed.len(), 1);
        assert!(delta.added.is_empty());

        // Wire round-trip, then replay.
        let parsed = Delta::parse(&delta.encode()).unwrap();
        mirror.apply(&parsed);
        assert_eq!(mirror.render(), render_xml(&rows2, 2));

        // No change ⇒ empty delta.
        assert!(diff(&rows2, &rows2, 3).is_empty());
    }

    #[test]
    fn delta_wire_escaping() {
        let row = Row {
            key: "a\tb|c|d|e\\n".to_string(),
            grid: "g\nrid".to_string(),
            cluster: "c".to_string(),
            host: "h".to_string(),
            metric: "m\\".to_string(),
            value: None,
            raw: "1\t2".to_string(),
            units: String::new(),
            num: 7,
        };
        let delta = Delta {
            revision: 42,
            full: false,
            added: vec![row.clone()],
            changed: vec![],
            removed: vec!["x\ty".to_string()],
        };
        let parsed = Delta::parse(&delta.encode()).unwrap();
        assert_eq!(parsed, delta);
    }

    #[test]
    fn delta_parse_rejects_garbage() {
        assert!(Delta::parse("").is_err());
        assert!(Delta::parse("GQLD 1 0\n").is_err()); // no terminator
        assert!(Delta::parse("XXXX 1 0\n.\n").is_err());
        assert!(Delta::parse("GQLD x 0\n.\n").is_err());
        assert!(Delta::parse("GQLD 1 0\n?\tz\n.\n").is_err());
        assert!(Delta::parse("GQLD 1 0\n+\tonly_key\n.\n").is_err());
    }

    #[test]
    fn error_xml_is_well_formed() {
        let doc = error_xml(7, "unknown stage '<bogus>' & more");
        assert!(doc.starts_with("<?xml"));
        assert!(doc.contains("OFFSET=\"7\""));
        assert!(doc.contains("&lt;bogus&gt;"));
        assert!(doc.contains("&amp; more"));
        assert!(!doc.contains("<bogus>"));
    }

    #[test]
    fn render_is_stable_and_escaped() {
        let rows = vec![Row {
            key: "g|c|h|m".to_string(),
            grid: "g".to_string(),
            cluster: "c\"q".to_string(),
            host: "h".to_string(),
            metric: "m&m".to_string(),
            value: Some(1.0),
            raw: "1".to_string(),
            units: "<u>".to_string(),
            num: 1,
        }];
        let xml = render_xml(&rows, 9);
        assert!(xml.contains("REVISION=\"9\""));
        assert!(xml.contains("CLUSTER=\"c&quot;q\""));
        assert!(xml.contains("METRIC=\"m&amp;m\""));
        assert!(xml.contains("UNITS=\"&lt;u&gt;\""));
    }

    #[test]
    fn number_unit_splitting() {
        assert_eq!(split_number_unit("1.5GB"), ("1.5", "GB"));
        assert_eq!(split_number_unit("200ms"), ("200", "ms"));
        assert_eq!(split_number_unit("80%"), ("80", "%"));
        assert_eq!(split_number_unit("1e3"), ("1e3", ""));
        assert_eq!(split_number_unit("1e3ms"), ("1e3", "ms"));
        assert_eq!(split_number_unit("-2.5s"), ("-2.5", "s"));
        assert_eq!(split_number_unit("abc"), ("", "abc"));
    }
}
