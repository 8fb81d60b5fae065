//! The solution half of the versioned wire format: a line-oriented text
//! document carrying a [`Solution`] plus the registry spec that
//! produced it.
//!
//! The instance half lives in `rbp_core::io` (it only needs core
//! types); solutions live here because [`Solution`], [`Quality`], and
//! [`Stats`] are solver types. Together they are the payloads of the
//! `rbp-service` batch protocol: a client submits an instance document,
//! the server answers with a solution document.
//!
//! ## Grammar (line-oriented, `#` comments allowed)
//!
//! ```text
//! solution v1
//! spec <registry-spec>            # e.g. exact, greedy:most-red-inputs/lru
//! quality optimal | upper-bound <lower_bound> | infeasible
//! cost <transfers> <computes>
//! stat <key> <value>              # zero or more, one per counter
//! trace <len>                     # followed by exactly <len> move lines
//! load <v> | store <v> | compute <v> | delete <v>
//! end
//! ```
//!
//! Multiprocessor traces append the executing processor to each move
//! line as a `p<proc>` token (`load 3 p1`). The annotation is emitted
//! only when the trace carries a nonzero processor tag, so classic
//! single-processor documents are byte-identical to what they always
//! were; the parser accepts the token on any move line.
//!
//! The reader is [`rbp_graph::io`]'s statement cursor, and its errors are
//! that module's [`ParseError`]: each names its document line and the
//! offending token, a statement with a token past its arguments
//! (`cost 1 2 3`) is rejected, and only `spec` takes the rest of its
//! line. `end` closes the document; [`read_solution`] leaves the cursor
//! after it, so an embedding document reads on from there.
//!
//! A parsed solution is **as transmitted**: the cost and quality are
//! whatever the document claims, because validation needs the instance
//! the trace pebbles. Callers that hold the instance should replay
//! `solution.trace` through `rbp_core::engine::simulate` before
//! trusting the numbers — exactly what the service does on receipt.

use crate::api::{Quality, Solution, Stats};
use rbp_core::{Cost, Move, Pebbling};
use rbp_graph::io::{ParseError, Statements, Stmt};
use rbp_graph::NodeId;
use std::fmt::Write as _;

/// The version token [`write_solution`] emits and [`parse_solution`]
/// accepts.
pub const SOLUTION_VERSION: &str = "v1";

/// Ceiling on the move-vector preallocation taken from an untrusted
/// `trace <len>` declaration. Documents with genuinely longer traces
/// still parse (the vector grows move by move); a hostile length alone
/// can no longer reserve gigabytes up front.
const TRACE_PREALLOC_CAP: usize = 1 << 16;

/// A parsed solution document: the registry spec that (claims to have)
/// produced the solution, plus the solution itself.
#[derive(Clone, Debug)]
pub struct WireSolution {
    /// The registry spec string from the `spec` line.
    pub spec: String,
    /// The transmitted solution (unvalidated; see the module docs).
    pub solution: Solution,
}

/// Serializes a solution (and the spec that produced it) as a `solution
/// v1` document. Stable output: fixed field order, stats in key order,
/// moves in trace order.
pub fn write_solution(spec: &str, sol: &Solution) -> String {
    let mut out = String::with_capacity(64 + sol.trace.len() * 12 + sol.stats.len() * 24);
    let _ = writeln!(out, "solution {SOLUTION_VERSION}");
    let _ = writeln!(out, "spec {spec}");
    match sol.quality {
        Quality::Optimal => out.push_str("quality optimal\n"),
        Quality::UpperBound { lower_bound } => {
            let _ = writeln!(out, "quality upper-bound {lower_bound}");
        }
        Quality::Infeasible => out.push_str("quality infeasible\n"),
    }
    let _ = writeln!(out, "cost {} {}", sol.cost.transfers, sol.cost.computes);
    for (k, v) in sol.stats.iter() {
        let _ = writeln!(out, "stat {k} {v}");
    }
    let _ = writeln!(out, "trace {}", sol.trace.len());
    let tagged = sol.trace.has_proc_tags();
    for (i, mv) in sol.trace.moves().iter().enumerate() {
        let (kw, v) = match mv {
            Move::Load(v) => ("load", v),
            Move::Store(v) => ("store", v),
            Move::Compute(v) => ("compute", v),
            Move::Delete(v) => ("delete", v),
        };
        if tagged {
            let _ = writeln!(out, "{kw} {} p{}", v.index(), sol.trace.proc_of(i));
        } else {
            let _ = writeln!(out, "{kw} {}", v.index());
        }
    }
    out.push_str("end\n");
    out
}

/// Parses a `solution v1` document.
pub fn parse_solution(text: &str) -> Result<WireSolution, ParseError> {
    parse_solution_at(text, 1)
}

/// Like [`parse_solution`], for a document embedded in a larger stream:
/// `first_line` is the 1-based line number of the first line of `text`
/// in the enclosing document, and every reported error line is in
/// document coordinates.
pub fn parse_solution_at(text: &str, first_line: usize) -> Result<WireSolution, ParseError> {
    read_solution(&mut Statements::new(text, first_line))
}

/// Reads one `solution v1` document from `stmts` through its `end`
/// statement, leaving the cursor on the line after it.
pub fn read_solution(stmts: &mut Statements<'_>) -> Result<WireSolution, ParseError> {
    const HEADER: &str = "'solution v1' as the first statement";
    match stmts.next() {
        Some(stmt) if stmt.keyword == "solution" => {
            let [version] = stmt.args(HEADER)?;
            if version != SOLUTION_VERSION {
                return Err(stmt.error(version, "solution version 'v1'"));
            }
        }
        Some(stmt) => return Err(stmt.error(stmt.keyword, HEADER)),
        None => return Err(stmts.missing(HEADER)),
    }

    let mut spec: Option<String> = None;
    let mut quality: Option<Quality> = None;
    let mut cost: Option<Cost> = None;
    let mut stats = Stats::new();
    let mut trace: Option<Pebbling> = None;
    let end = loop {
        let Some(stmt) = stmts.next() else {
            return Err(stmts.missing("'end'"));
        };
        match stmt.keyword {
            "spec" => stmt.once(&mut spec, || match stmt.rest {
                "" => Err(stmt.error("", "a registry spec after 'spec'")),
                rest => Ok(rest.to_string()),
            })?,
            "quality" => stmt.once(&mut quality, || parse_quality(&stmt))?,
            "cost" => stmt.once(&mut cost, || {
                let [t, c] = stmt.args("'cost <transfers> <computes>'")?;
                Ok(Cost {
                    transfers: stmt.parse(t, "transfer count in 'cost <t> <c>'")?,
                    computes: stmt.parse(c, "compute count in 'cost <t> <c>'")?,
                })
            })?,
            "stat" => {
                let [key, value] = stmt.args("'stat <key> <value>'")?;
                let value = stmt.parse(value, "a value in 'stat <key> <value>'")?;
                stats.set(key, value);
            }
            "trace" => stmt.once(&mut trace, || read_trace(&stmt, stmts))?,
            "end" => {
                let [] = stmt.args("'end'")?;
                break stmt;
            }
            other => {
                return Err(stmt.error(
                    other,
                    "'spec', 'quality', 'cost', 'stat', 'trace', or 'end'",
                ))
            }
        }
    };

    let field = |expected| end.error(end.keyword, expected);
    Ok(WireSolution {
        spec: spec.ok_or_else(|| field("a 'spec' field before 'end'"))?,
        solution: Solution {
            quality: quality.ok_or_else(|| field("a 'quality' field before 'end'"))?,
            cost: cost.ok_or_else(|| field("a 'cost' field before 'end'"))?,
            trace: trace.ok_or_else(|| field("a 'trace' field before 'end'"))?,
            stats,
        },
    })
}

fn parse_quality(stmt: &Stmt) -> Result<Quality, ParseError> {
    const FORMS: &str = "'optimal', 'upper-bound <lb>', or 'infeasible'";
    match stmt.args(FORMS)? {
        ["optimal", ""] => Ok(Quality::Optimal),
        ["infeasible", ""] => Ok(Quality::Infeasible),
        ["upper-bound", lb] => Ok(Quality::UpperBound {
            lower_bound: stmt.parse(lb, "a lower bound after 'upper-bound'")?,
        }),
        ["optimal" | "infeasible", extra] => Err(stmt.error(extra, FORMS)),
        [other, _] => Err(stmt.error(other, FORMS)),
    }
}

/// Reads the `<len>` move statements a `trace <len>` statement declares.
fn read_trace(stmt: &Stmt, stmts: &mut Statements<'_>) -> Result<Pebbling, ParseError> {
    const MOVE: &str = "a move line: 'load|store|compute|delete <node> [p<proc>]' ('trace <len>' declared more moves)";
    let [len] = stmt.args("'trace <len>'")?;
    let len: usize = stmt.parse(len, "a move count in 'trace <len>'")?;
    // the declared length is untrusted wire input: clamp the
    // preallocation so `trace 99999999999` cannot abort the process on
    // an impossible reservation — the vector still grows naturally if
    // the moves actually arrive
    let mut trace = Pebbling::with_capacity(len.min(TRACE_PREALLOC_CAP));
    for _ in 0..len {
        let Some(mv) = stmts.next() else {
            return Err(stmts.missing(MOVE));
        };
        let kind: fn(NodeId) -> Move = match mv.keyword {
            "load" => Move::Load,
            "store" => Move::Store,
            "compute" => Move::Compute,
            "delete" => Move::Delete,
            other => return Err(mv.error(other, MOVE)),
        };
        let [node, proc] = mv.args(MOVE)?;
        let v: u32 = mv.parse(node, "a node id in a move line")?;
        // the optional `p<proc>` annotation; absent means processor 0
        let proc = match proc {
            "" => 0,
            tag => tag
                .strip_prefix('p')
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| mv.error(tag, "a 'p<proc>' annotation after the node id"))?,
        };
        trace.push_on(kind(NodeId::new(v as usize)), proc);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use rbp_core::{engine, CostModel, Instance};
    use rbp_graph::DagBuilder;

    /// The line and token of a syntax error.
    fn located(err: ParseError) -> (usize, String) {
        match err {
            ParseError::Syntax { line, token, .. } => (line, token),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    fn diamond() -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), 3, CostModel::oneshot())
    }

    #[test]
    fn solver_output_round_trips() {
        let inst = diamond();
        for spec in ["exact", "greedy:fewest-blue-inputs/lru", "beam:4"] {
            let sol = registry::solve(spec, &inst).unwrap();
            let text = write_solution(spec, &sol);
            let back = parse_solution(&text).unwrap();
            assert_eq!(back.spec, spec);
            assert_eq!(back.solution.quality, sol.quality);
            assert_eq!(back.solution.cost, sol.cost);
            assert_eq!(back.solution.stats, sol.stats);
            assert_eq!(back.solution.trace.moves(), sol.trace.moves());
            // the transmitted trace replays to the transmitted cost
            let sim = engine::simulate(&inst, &back.solution.trace).unwrap();
            assert_eq!(sim.cost, back.solution.cost);
            // stable serialization
            assert_eq!(write_solution(&back.spec, &back.solution), text);
        }
    }

    #[test]
    fn upper_bound_and_infeasible_round_trip() {
        let mut sol = Solution::infeasible();
        let text = write_solution("greedy", &sol);
        assert_eq!(
            parse_solution(&text).unwrap().solution.quality,
            Quality::Infeasible
        );
        sol.quality = Quality::UpperBound { lower_bound: 17 };
        let back = parse_solution(&write_solution("beam:8", &sol)).unwrap();
        assert_eq!(
            back.solution.quality,
            Quality::UpperBound { lower_bound: 17 }
        );
        assert_eq!(back.spec, "beam:8");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header comment\nsolution v1\n\nspec exact\nquality optimal\n# mid\ncost 2 3\ntrace 1\ncompute 0\nend\n";
        let w = parse_solution(text).unwrap();
        assert_eq!(w.solution.cost.transfers, 2);
        assert_eq!(w.solution.trace.len(), 1);
    }

    #[test]
    fn header_and_version_checked() {
        assert_eq!(located(parse_solution("").unwrap_err()), (1, String::new()));
        assert_eq!(
            located(parse_solution("spec exact\n").unwrap_err()),
            (1, "spec".into())
        );
        assert_eq!(
            located(parse_solution("solution v7\nend\n").unwrap_err()),
            (1, "v7".into())
        );
    }

    #[test]
    fn structural_errors_located() {
        let text = "solution v1\nspec exact\nquality optimal\ncost 0 3\ntrace 2\ncompute 0\nend\n";
        // 'end' arrives while a move is still owed
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (7, "end".into())
        );
        // ...and a document that simply stops short names the line past it
        let text = "solution v1\nspec exact\nquality optimal\ncost 0 3\ntrace 2\ncompute 0\n";
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (7, String::new())
        );
        let text = "solution v1\nspec exact\nquality perfect\ncost 0 3\ntrace 0\nend\n";
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (3, "perfect".into())
        );
        // a missing field is reported at the 'end' it must precede
        let text = "solution v1\nspec exact\nquality optimal\ntrace 0\nend\n";
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (5, "end".into())
        );
    }

    #[test]
    fn embedded_documents_report_document_lines() {
        let err = parse_solution_at("solution v1\nspec exact\nquality good\n", 10).unwrap_err();
        assert_eq!(located(err).0, 12);
    }

    #[test]
    fn hostile_trace_length_does_not_preallocate() {
        // a declared length in the billions must fail as a normal parse
        // error (moves owed at `end`), not abort on a huge reservation
        let text = "solution v1\nspec exact\nquality optimal\ncost 0 0\ntrace 99999999999\nend\n";
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (6, "end".into())
        );
        // a node id past u32 is an error, not a panic in `NodeId::new`
        let text =
            "solution v1\nspec exact\nquality optimal\ncost 0 0\ntrace 1\nload 4294967296\nend\n";
        assert_eq!(
            located(parse_solution(text).unwrap_err()),
            (6, "4294967296".into())
        );
    }

    #[test]
    fn multiprocessor_solutions_round_trip_with_proc_tags() {
        let inst = diamond().with_procs(2);
        let sol = registry::solve("exact@mpp:2", &inst).unwrap();
        let text = write_solution("exact@mpp:2", &sol);
        let back = parse_solution(&text).unwrap();
        assert_eq!(back.solution.trace, sol.trace, "processor tags survive");
        assert_eq!(back.solution.cost, sol.cost);
        assert_eq!(write_solution(&back.spec, &back.solution), text);
        // untagged solutions stay in the classic single-proc shape
        let classic = registry::solve("exact", &diamond()).unwrap();
        let text = write_solution("exact", &classic);
        assert!(!text.contains(" p"), "no annotation without tags:\n{text}");
        // explicit p0 annotations parse back to an untagged trace
        let text =
            "solution v1\nspec exact\nquality optimal\ncost 0 1\ntrace 1\ncompute 0 p0\nend\n";
        let w = parse_solution(text).unwrap();
        assert!(!w.solution.trace.has_proc_tags());
    }

    #[test]
    fn malformed_proc_annotations_rejected() {
        for bad in ["compute 0 q1", "compute 0 p", "compute 0 px", "compute 0 1"] {
            let text = format!(
                "solution v1\nspec exact\nquality optimal\ncost 0 1\ntrace 1\n{bad}\nend\n"
            );
            assert_eq!(located(parse_solution(&text).unwrap_err()).0, 6, "{bad}");
        }
    }

    #[test]
    fn spec_with_spaces_is_rejected_cleanly() {
        // registry specs are single tokens today, but the parser takes
        // the whole rest of the line so future arg grammars survive
        let text = "solution v1\nspec greedy:most-red-inputs/random(3)\nquality optimal\ncost 0 0\ntrace 0\nend\n";
        assert_eq!(
            parse_solution(text).unwrap().spec,
            "greedy:most-red-inputs/random(3)"
        );
    }
}
