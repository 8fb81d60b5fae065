//! The statement reader every wire document shares, and the `dag`
//! section they all embed.
//!
//! Every wire document of this workspace — the `dag` format below, the
//! `instance` and `solution` documents, the service's request stream and
//! its `cache v1` snapshot — is a sequence of *statements*: one per
//! line, a keyword and its whitespace-separated argument tokens, with
//! blank lines and `#` comment lines allowed anywhere. [`Statements`]
//! yields them located at their document line, and every reader reports
//! a failure as the one [`ParseError`]: a syntax error naming the line,
//! the offending token and what the grammar expected there, or an edge
//! set rejected by [`DagBuilder`], reported at its `dag <n>` line. A
//! statement takes exactly the arguments its grammar names, and a token
//! past them is rejected ([`Stmt::args`]); only free text (`label`,
//! `spec`) takes the rest of the line ([`Stmt::rest`]).
//!
//! The `dag` format:
//! ```text
//! dag <n>
//! label <node> <text>       # optional, any number
//! edge <from> <to>          # one per edge
//! ```
//! Node ids are dense indices `0..n`. The parser validates ranges and
//! acyclicity through [`DagBuilder`], so a loaded graph carries the same
//! invariants as a built one. A document that embeds the section hands
//! its `dag <n>` statement and its cursor to [`read_dag`], which reads
//! the section in the same pass; [`parse_dag_at`] takes the first line's
//! number in an enclosing document, so every error names the
//! *document* line.

use crate::builder::DagBuilder;
use crate::dag::{Dag, GraphError, NodeId};
use std::fmt::Write as _;
use std::str::FromStr;

/// Largest node count [`parse_dag`] accepts from a `dag <n>` header.
///
/// The header is untrusted wire input and the builder sizes per-node
/// storage from it, so an absurd declaration (`dag 99999999999`) would
/// otherwise abort the process on an impossible allocation before a
/// single node line is read. 16M nodes is orders of magnitude beyond
/// any instance this workspace generates while keeping the eager
/// reservation in the tens of megabytes.
pub const MAX_WIRE_NODES: usize = 1 << 24;

/// Why a wire document was rejected. Line numbers are 1-based document
/// lines, offset by the `first_line` of the `_at` entry points when the
/// document is embedded in a larger stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A statement, or the end of the document, is not what the grammar
    /// allows at this point.
    Syntax {
        /// Line of the statement; one past the last line when the
        /// document ended early.
        line: usize,
        /// The rejected token, or `""` where one is missing.
        token: String,
        /// What the grammar allows in its place.
        expected: &'static str,
    },
    /// The edge set of a `dag` section was rejected (cycle, range,
    /// self-loop).
    Graph {
        /// Line of the section's `dag <n>` header.
        line: usize,
        /// Why the builder rejected it.
        error: GraphError,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax {
                line,
                token,
                expected,
            } if token.is_empty() => write!(f, "line {line}: missing {expected}"),
            ParseError::Syntax {
                line,
                token,
                expected,
            } => write!(f, "line {line}: unexpected '{token}', expected {expected}"),
            ParseError::Graph { line, error } => write!(f, "line {line}: invalid graph: {error}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits `text` at its first whitespace: the first token and the rest,
/// left-trimmed.
fn split_token(text: &str) -> (&str, &str) {
    match text.split_once(char::is_whitespace) {
        Some((first, rest)) => (first, rest.trim_start()),
        None => (text, ""),
    }
}

/// A cursor over the statements of a wire document: its lines that are
/// neither blank nor `#` comments, each located at its document line.
/// Cloning the cursor saves its position.
#[derive(Clone, Debug)]
pub struct Statements<'a> {
    /// The unread text, from the start of line `line`.
    unread: &'a str,
    /// Document line of the first line of `unread`.
    line: usize,
}

impl<'a> Statements<'a> {
    /// The statements of `text`, whose first line is document line
    /// `first_line` (1-based).
    pub fn new(text: &'a str, first_line: usize) -> Self {
        Statements {
            unread: text,
            line: first_line,
        }
    }

    /// The error for a document that ends where the grammar expects
    /// more: it names the line after the last one read and no token.
    pub fn missing(&self, expected: &'static str) -> ParseError {
        ParseError::Syntax {
            line: self.line,
            token: String::new(),
            expected,
        }
    }
}

impl<'a> Iterator for Statements<'a> {
    type Item = Stmt<'a>;

    fn next(&mut self) -> Option<Stmt<'a>> {
        while !self.unread.is_empty() {
            let (raw, unread) = self.unread.split_once('\n').unwrap_or((self.unread, ""));
            self.unread = unread;
            self.line += 1;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            let (keyword, rest) = split_token(text);
            return Some(Stmt {
                line: self.line - 1,
                keyword,
                rest,
            });
        }
        None
    }
}

/// One statement: its document line, its keyword and the text after it.
#[derive(Clone, Copy, Debug)]
pub struct Stmt<'a> {
    /// 1-based document line.
    pub line: usize,
    /// The first token.
    pub keyword: &'a str,
    /// The text after the keyword, trimmed: the argument tokens, or free
    /// text where the grammar takes the rest of the line (`label`,
    /// `spec`).
    pub rest: &'a str,
}

impl<'a> Stmt<'a> {
    /// The first `N` argument tokens. A missing token reads as `""`,
    /// which the caller's own check of that token rejects with its
    /// expectation; a token past the `N`th is rejected as trailing,
    /// expecting the statement's `form`.
    pub fn args<const N: usize>(&self, form: &'static str) -> Result<[&'a str; N], ParseError> {
        let mut tokens = self.rest.split_whitespace();
        let args = std::array::from_fn(|_| tokens.next().unwrap_or(""));
        match tokens.next() {
            Some(extra) => Err(self.error(extra, form)),
            None => Ok(args),
        }
    }

    /// A syntax error at this statement.
    pub fn error(&self, token: &str, expected: &'static str) -> ParseError {
        ParseError::Syntax {
            line: self.line,
            token: token.to_string(),
            expected,
        }
    }

    /// Parses one argument token, naming it in the error when it does
    /// not parse.
    pub fn parse<T: FromStr>(&self, token: &str, expected: &'static str) -> Result<T, ParseError> {
        token.parse().map_err(|_| self.error(token, expected))
    }

    /// Fills a field that a document may give once: a second statement
    /// with this keyword is rejected before `read` looks at its
    /// arguments.
    pub fn once<T>(
        &self,
        slot: &mut Option<T>,
        read: impl FnOnce() -> Result<T, ParseError>,
    ) -> Result<(), ParseError> {
        if slot.is_some() {
            return Err(self.error(self.keyword, "each field at most once"));
        }
        *slot = Some(read()?);
        Ok(())
    }
}

/// Serializes a DAG in the text format (stable output: header, labels in
/// id order, edges grouped by target).
pub fn write_dag(dag: &Dag) -> String {
    let mut out = String::with_capacity(16 + dag.n() * 8 + dag.num_edges() * 12);
    let _ = writeln!(out, "dag {}", dag.n());
    for v in dag.nodes() {
        let label = dag.label(v);
        if !label.is_empty() {
            let _ = writeln!(out, "label {} {}", v.index(), label);
        }
    }
    for (u, v) in dag.edges() {
        let _ = writeln!(out, "edge {} {}", u.index(), v.index());
    }
    out
}

/// Parses the text format back into a validated [`Dag`].
pub fn parse_dag(text: &str) -> Result<Dag, ParseError> {
    parse_dag_at(text, 1)
}

/// Like [`parse_dag`], for a `dag` document embedded in a larger one:
/// `first_line` is the 1-based line number (in the enclosing document)
/// of the first line of `text`, and every reported [`ParseError`] line
/// number is in document coordinates.
pub fn parse_dag_at(text: &str, first_line: usize) -> Result<Dag, ParseError> {
    const HEADER: &str = "the 'dag <n>' header";
    let mut stmts = Statements::new(text, first_line);
    let header = match stmts.next() {
        Some(stmt) if stmt.keyword == "dag" => stmt,
        Some(stmt) => return Err(stmt.error(stmt.keyword, HEADER)),
        None => return Err(stmts.missing(HEADER)),
    };
    match read_dag(&header, &mut stmts)? {
        (dag, None) => Ok(dag),
        (_, Some(stmt)) => Err(stmt.error(
            stmt.keyword,
            "'edge', 'label', or a comment after the 'dag <n>' header",
        )),
    }
}

/// Reads the `dag` section whose `dag <n>` header is `header`, taking
/// its `edge` and `label` statements from `stmts`. Returns the graph
/// and the statement that ended the section, `None` at the end of the
/// document; the caller decides whether that statement may follow.
pub fn read_dag<'a>(
    header: &Stmt<'a>,
    stmts: &mut Statements<'a>,
) -> Result<(Dag, Option<Stmt<'a>>), ParseError> {
    let [count] = header.args("'dag <n>'")?;
    let n: usize = header.parse(count, "node count in 'dag <n>'")?;
    if n > MAX_WIRE_NODES {
        return Err(header.error(
            count,
            "a node count within the wire limit (see MAX_WIRE_NODES)",
        ));
    }
    let mut builder = DagBuilder::new(n);
    let end = loop {
        let Some(stmt) = stmts.next() else {
            break None;
        };
        match stmt.keyword {
            "edge" => {
                let [u, v] = stmt.args("'edge <from> <to>'")?;
                let u: u32 = stmt.parse(u, "a node id in 'edge <from> <to>'")?;
                let v: u32 = stmt.parse(v, "a node id in 'edge <from> <to>'")?;
                builder.add_edge(u as usize, v as usize);
            }
            "label" => {
                let (node, text) = split_token(stmt.rest);
                let v: usize = stmt.parse(node, "node id in 'label <node> <text>'")?;
                if v >= n {
                    return Err(stmt.error(node, "node id within the declared 'dag <n>' range"));
                }
                // the words of the text, one space apart
                let mut label = String::with_capacity(text.len());
                for word in text.split_whitespace() {
                    if !label.is_empty() {
                        label.push(' ');
                    }
                    label.push_str(word);
                }
                builder.set_label(NodeId::new(v), label);
            }
            _ => break Some(stmt),
        }
    };
    let dag = builder.build().map_err(|error| ParseError::Graph {
        line: header.line,
        error,
    })?;
    Ok((dag, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::generate;

    /// The line and token of a syntax error.
    fn located(err: ParseError) -> (usize, String) {
        match err {
            ParseError::Syntax { line, token, .. } => (line, token),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    fn line_of(err: ParseError) -> usize {
        located(err).0
    }

    #[test]
    fn round_trip_preserves_structure_and_labels() {
        let mut b = DagBuilder::new(0);
        let x = b.add_labeled_node("input x");
        let y = b.add_node();
        let z = b.add_labeled_node("out");
        b.add_edge_ids(x, z);
        b.add_edge_ids(y, z);
        let dag = b.build().unwrap();
        let text = write_dag(&dag);
        let back = parse_dag(&text).unwrap();
        assert_eq!(back, dag);
        assert_eq!(back.label(x), "input x");
        assert_eq!(back.label(y), "");
    }

    #[test]
    fn round_trip_random_dags() {
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let dag = generate::gnp_dag(15, 0.3, 4, &mut rng);
            assert_eq!(parse_dag(&write_dag(&dag)).unwrap(), dag);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\ndag 2\n# another\nedge 0 1\n";
        let dag = parse_dag(text).unwrap();
        assert_eq!(dag.n(), 2);
        assert_eq!(dag.num_edges(), 1);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            located(parse_dag("edge 0 1\n").unwrap_err()),
            (1, "edge".into())
        );
        // an empty document names the line one past its end
        assert_eq!(located(parse_dag("").unwrap_err()), (1, String::new()));
        assert_eq!(
            located(parse_dag("# only\n\n").unwrap_err()),
            (3, String::new())
        );
    }

    #[test]
    fn malformed_lines_located() {
        assert_eq!(line_of(parse_dag("dag 2\nedge 0\n").unwrap_err()), 2);
        assert_eq!(line_of(parse_dag("dag x\n").unwrap_err()), 1);
        assert_eq!(line_of(parse_dag("dag 2\nfrob 1 2\n").unwrap_err()), 2);
        // an id past u32 is rejected, not truncated onto another node
        assert_eq!(
            located(parse_dag("dag 3\nedge 4294967296 2\n").unwrap_err()),
            (2, "4294967296".into())
        );
    }

    #[test]
    fn malformed_errors_name_the_offending_token() {
        let err = parse_dag("dag 2\nfrob 1 2\n").unwrap_err();
        assert_eq!(located(err.clone()).1, "frob");
        assert!(err.to_string().contains("frob"), "{err}");
        let err = parse_dag("dag x\n").unwrap_err();
        assert!(err.to_string().contains("'x'"), "{err}");
    }

    #[test]
    fn embedded_blocks_report_document_line_numbers() {
        // the block starts on document line 5, the bad edge is its 2nd line
        let err = parse_dag_at("dag 2\nedge 0\n", 5).unwrap_err();
        assert_eq!(line_of(err), 6);
        // offset parsing succeeds on a valid block
        let dag = parse_dag_at("dag 2\nedge 0 1\n", 40).unwrap();
        assert_eq!(dag.num_edges(), 1);
    }

    #[test]
    fn cyclic_input_rejected_at_the_header_line() {
        let text = "# cyclic\ndag 2\nedge 0 1\nedge 1 0\n";
        match parse_dag(text).unwrap_err() {
            ParseError::Graph { line, error } => {
                assert_eq!(line, 2);
                assert!(matches!(error, GraphError::Cycle { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_with_spaces_survives() {
        let text = "dag 1\nlabel 0 a long  node\tname\n";
        let dag = parse_dag(text).unwrap();
        assert_eq!(dag.label(crate::NodeId::new(0)), "a long node name");
    }

    #[test]
    fn out_of_range_label_rejected() {
        assert_eq!(line_of(parse_dag("dag 1\nlabel 5 x\n").unwrap_err()), 2);
    }

    #[test]
    fn hostile_node_count_rejected_without_allocating() {
        // a hostile header must be a located parse error, not an abort
        // on a multi-gigabyte reservation
        assert_eq!(line_of(parse_dag("dag 99999999999\n").unwrap_err()), 1);
        let just_over = format!("dag {}\n", MAX_WIRE_NODES + 1);
        assert_eq!(line_of(parse_dag(&just_over).unwrap_err()), 1);
    }

    #[test]
    fn statements_skip_blanks_and_comments_and_keep_their_lines() {
        let text = "  a 1  2 \n\n# c\r\n\tb\r\nc x  y z";
        let got: Vec<(usize, &str, &str)> = Statements::new(text, 10)
            .map(|s| (s.line, s.keyword, s.rest))
            .collect();
        assert_eq!(got, [(10, "a", "1  2"), (13, "b", ""), (14, "c", "x  y z")]);
        let mut stmts = Statements::new(text, 10);
        assert_eq!(stmts.by_ref().count(), 3);
        assert_eq!(line_of(stmts.missing("more")), 15);
    }

    #[test]
    fn args_read_missing_tokens_as_empty_and_reject_trailing_ones() {
        let stmt = Statements::new("cost 1 2 3\n", 1).next().unwrap();
        assert_eq!(
            located(stmt.args::<2>("'cost <t> <c>'").unwrap_err()),
            (1, "3".into())
        );
        assert_eq!(stmt.args::<4>("'cost'").unwrap(), ["1", "2", "3", ""]);
        let mut slot = Some(1);
        assert_eq!(
            located(stmt.once(&mut slot, || Ok(2)).unwrap_err()),
            (1, "cost".into())
        );
    }
}
