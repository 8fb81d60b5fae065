//! Property tests for every wire parser a hostile client can reach:
//! the protocol request reader, the `instance v1` / `dag` documents,
//! the `solution v1` document, and the `cache v1` snapshot loader.
//!
//! The properties are the robustness contract of the service edge:
//! arbitrary bytes and mutilated valid documents must come back as
//! structured errors that name a line of the document (or the line one
//! past its end) — never a panic, never an abort, never an
//! attacker-controlled allocation — and a document read at an offset
//! must cite the same lines shifted by that offset.

use proptest::prelude::*;
use rbp_core::{write_instance, CostModel, Instance};
use rbp_graph::generate;
use rbp_graph::io::ParseError;
use rbp_service::{ProtocolError, Request, RequestReader, SolutionCache};
use rbp_solvers::wire;

fn instance_doc() -> String {
    write_instance(&Instance::new(generate::chain(6), 2, CostModel::base()))
}

fn solution_doc() -> String {
    let inst = Instance::new(generate::chain(5), 2, CostModel::oneshot());
    let sol = rbp_solvers::registry::solve("greedy", &inst).unwrap();
    wire::write_solution("greedy:most-red-inputs/min-uses", &sol)
}

fn mpp_instance_doc() -> String {
    // a v2 document exercising the multiprocessor header fields
    use rbp_core::{MppDim, Ratio};
    write_instance(
        &Instance::new(generate::chain(6), 2, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(3, 2),
            comp: Ratio::new(1, 4),
        }),
    )
}

fn mpp_solution_doc() -> String {
    // proc-annotated move lines (`compute 3 p1`)
    let inst = Instance::new(generate::chain(5), 2, CostModel::base()).with_procs(2);
    let sol = rbp_solvers::registry::solve("greedy@mpp", &inst).unwrap();
    wire::write_solution("greedy@mpp:2", &sol)
}

fn dag_doc() -> String {
    rbp_graph::io::write_dag(&generate::chain(6))
}

fn snapshot_doc() -> String {
    let cache = SolutionCache::new();
    let inst = Instance::new(generate::chain(5), 2, CostModel::oneshot());
    let sol = rbp_solvers::registry::solve("greedy", &inst).unwrap();
    let scaled = sol.scaled_cost(&inst);
    cache.insert_or_upgrade(inst.canonical_key(), "greedy", sol, scaled);
    cache.write_snapshot()
}

fn session_script() -> String {
    format!(
        "submit j exact deadline-ms=5 priority=2\n{}cancel j\nstats\nshutdown\n",
        instance_doc()
    )
}

/// Applies one deterministic mutilation to an ASCII document.
fn mutate(doc: &str, op: usize, pos: usize, byte: u8) -> String {
    if doc.is_empty() {
        return String::new();
    }
    let pos = pos % doc.len();
    match op % 5 {
        // truncate mid-document (ASCII, so any byte index is a boundary)
        0 => doc[..pos].to_string(),
        // stomp one byte with printable junk
        1 => {
            let mut b = doc.as_bytes().to_vec();
            b[pos] = 32 + (byte % 95);
            String::from_utf8(b).expect("printable ascii stays utf-8")
        }
        // delete a whole line
        2 => {
            let lines: Vec<&str> = doc.lines().collect();
            let drop = pos % lines.len();
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, l)| format!("{l}\n"))
                .collect()
        }
        // duplicate a whole line
        3 => {
            let lines: Vec<&str> = doc.lines().collect();
            let dup = pos % lines.len();
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                out.push_str(l);
                out.push('\n');
                if i == dup {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            out
        }
        // splice in a junk line
        _ => {
            let lines: Vec<&str> = doc.lines().collect();
            let at = pos % (lines.len() + 1);
            let mut out = String::new();
            for (i, l) in lines.iter().enumerate() {
                if i == at {
                    out.push_str("zzz 18446744073709551616 !\n");
                }
                out.push_str(l);
                out.push('\n');
            }
            out
        }
    }
}

/// Checks that an error rendering starts with `line N:` for a line `N`
/// of a document of `lines` lines starting at line `first`, or the line
/// one past its end, and returns `N`.
fn cited_line(msg: &str, first: usize, lines: usize) -> Result<usize, TestCaseError> {
    let n = msg
        .strip_prefix("line ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok());
    match n {
        Some(n) if (first..=first + lines).contains(&n) => Ok(n),
        _ => Err(TestCaseError::fail(format!(
            "'{msg}' names no line in {first}..={}",
            first + lines
        ))),
    }
}

/// Reads `text` at line 1 and at line 101 of an enclosing document: the
/// outcomes agree, and an error cites a document line, shifted by 100.
fn reads_alike_at_an_offset<T, E: std::fmt::Display + std::fmt::Debug>(
    text: &str,
    read_at: impl Fn(&str, usize) -> Result<T, E>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(), TestCaseError> {
    let lines = text.lines().count();
    match (read_at(text, 1), read_at(text, 101)) {
        (Ok(a), Ok(b)) => prop_assert!(same(&a, &b), "offset changed the parse"),
        (Err(e), Err(e_at)) => {
            let n = cited_line(&e.to_string(), 1, lines)?;
            prop_assert_eq!(cited_line(&e_at.to_string(), 101, lines)?, n + 100);
        }
        (a, b) => prop_assert!(
            false,
            "offset changed the outcome: {:?} vs {:?}",
            a.err(),
            b.err()
        ),
    }
    Ok(())
}

fn same_solution(a: &wire::WireSolution, b: &wire::WireSolution) -> bool {
    a.spec == b.spec
        && wire::write_solution(&a.spec, &a.solution) == wire::write_solution(&b.spec, &b.solution)
}

/// Statements that take a token past their arguments, and an `end`
/// before the `dag` section: each edits one line of a document that
/// reads, and is rejected at that line, naming the offending token.
#[test]
fn trailing_tokens_and_early_ends_are_located() {
    type Reader = fn(&str) -> Result<(), ParseError>;
    let dag: Reader = |text| rbp_graph::io::parse_dag(text).map(drop);
    let instance: Reader = |text| rbp_core::io::parse_instance(text).map(drop);
    let solution: Reader = |text| wire::parse_solution(text).map(drop);
    let request: Reader = |text| match RequestReader::new(text.as_bytes()).next_request() {
        Ok(Some(Ok(_))) => Ok(()),
        Ok(Some(Err(ProtocolError::Parse(e)))) => Err(e),
        other => panic!("{text:?} read as {other:?}"),
    };
    const DAG: &[&str] = &["dag 2", "edge 0 1"];
    const INSTANCE: &[&str] = &[
        "instance v2",
        "model base",
        "r 3",
        "procs 2",
        "dag 2",
        "edge 0 1",
        "end",
    ];
    const SOLUTION: &[&str] = &[
        "solution v1",
        "spec exact",
        "quality optimal",
        "cost 0 1",
        "trace 1",
        "compute 0",
        "end",
    ];
    const REQUEST: &[&str] = &["stats"];
    /// `doc` with its 1-based `line` replaced by `statement`.
    fn edit(doc: &[&str], line: usize, statement: &str) -> String {
        let mut text = String::new();
        for (i, l) in doc.iter().enumerate() {
            text.push_str(if i + 1 == line { statement } else { l });
            text.push('\n');
        }
        text
    }
    let rows: [(Reader, &[&str], usize, &str, &str); 12] = [
        (instance, INSTANCE, 3, "r 3 4", "4"),
        (instance, INSTANCE, 4, "procs 2 9", "9"),
        (instance, INSTANCE, 5, "dag 2 5", "5"),
        (instance, INSTANCE, 5, "end", "end"),
        (dag, DAG, 1, "dag 2 5", "5"),
        (dag, DAG, 2, "edge 0 1 7", "7"),
        (solution, SOLUTION, 1, "solution v1 x", "x"),
        (solution, SOLUTION, 3, "quality optimal 5", "5"),
        (solution, SOLUTION, 4, "cost 1 2 3", "3"),
        (solution, SOLUTION, 5, "trace 1 9", "9"),
        (solution, SOLUTION, 6, "compute 0 p0 junk", "junk"),
        (request, REQUEST, 1, "stats foo", "foo"),
    ];
    for (read, doc, line, statement, token) in rows {
        let valid = edit(doc, 0, "");
        assert_eq!(read(&valid), Ok(()), "{valid:?}");
        let text = edit(doc, line, statement);
        match read(&text) {
            Err(ParseError::Syntax {
                line: at,
                token: found,
                ..
            }) => assert_eq!((at, found.as_str()), (line, token), "{text:?}"),
            other => panic!("{text:?} must be rejected at line {line}, got {other:?}"),
        }
    }
}

proptest! {
    #[test]
    fn request_reader_survives_arbitrary_text(
        chars in proptest::collection::vec(any::<char>(), 0..300),
    ) {
        let text: String = chars.into_iter().collect();
        let lines = text.lines().count();
        let mut rr = RequestReader::new(std::io::Cursor::new(text));
        loop {
            match rr.next_request() {
                Ok(None) => break,
                Ok(Some(Ok(_))) => {}
                Ok(Some(Err(e))) => {
                    cited_line(&e.to_string(), 1, lines)?;
                }
                Err(_) => break,
            }
        }
    }

    #[test]
    fn mutated_session_scripts_error_structurally(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&session_script(), op, pos, byte);
        let lines = text.lines().count();
        let mut rr = RequestReader::new(std::io::Cursor::new(text));
        while let Ok(Some(r)) = rr.next_request() {
            match r {
                Ok(Request::Submit(req)) => prop_assert!(!req.id.is_empty()),
                Ok(_) => {}
                // every error cites a real position in the session stream
                Err(e) => {
                    cited_line(&e.to_string(), 1, lines)?;
                }
            }
        }
    }

    #[test]
    fn mutated_instance_docs_never_panic_and_keep_document_coordinates(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&instance_doc(), op, pos, byte);
        reads_alike_at_an_offset(&text, rbp_core::io::parse_instance_at, rbp_core::io::same_instance)?;
    }

    #[test]
    fn mutated_mpp_instance_docs_never_panic_and_keep_document_coordinates(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&mpp_instance_doc(), op, pos, byte);
        reads_alike_at_an_offset(&text, rbp_core::io::parse_instance_at, rbp_core::io::same_instance)?;
    }

    #[test]
    fn mutated_mpp_solution_docs_never_panic(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&mpp_solution_doc(), op, pos, byte);
        match wire::parse_solution(&text) {
            Ok(ws) => {
                // a surviving parse must still round-trip stably,
                // processor tags included
                let rewritten = wire::write_solution(&ws.spec, &ws.solution);
                let back = wire::parse_solution(&rewritten).unwrap();
                prop_assert_eq!(back.solution.trace, ws.solution.trace);
            }
            Err(e) => {
                cited_line(&e.to_string(), 1, text.lines().count())?;
            }
        }
    }

    #[test]
    fn mutated_dag_docs_never_panic_and_keep_document_coordinates(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&dag_doc(), op, pos, byte);
        reads_alike_at_an_offset(&text, rbp_graph::io::parse_dag_at, |a, b| a == b)?;
    }

    #[test]
    fn mutated_solution_docs_never_panic_and_keep_document_coordinates(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&solution_doc(), op, pos, byte);
        reads_alike_at_an_offset(&text, wire::parse_solution_at, same_solution)?;
    }

    #[test]
    fn mutated_snapshots_load_without_aborting(
        op in 0usize..5, pos in any::<usize>(), byte in any::<u8>(),
    ) {
        let text = mutate(&snapshot_doc(), op, pos, byte);
        let cache = SolutionCache::new();
        let report = cache.load_snapshot(&text);
        // whatever happened, the accounting is total: every surviving
        // entry is live, every damaged one is counted, nothing aborted
        prop_assert_eq!(cache.stats().entries, report.recovered);
        prop_assert!(report.recovered + report.skipped <= 2);
    }
}
