//! The versioned instance wire format: a complete pebbling problem as a
//! line-oriented text document.
//!
//! This is the submission payload of the batch-solve service
//! (`rbp-service`) and the on-disk form for imported real-world DAGs.
//! Grammar (one statement per line, `#` comments and blank lines
//! allowed anywhere):
//!
//! ```text
//! instance v1                             # or v2 (multiprocessor header)
//! model base|oneshot|nodel|compcost <num>/<den>
//! r <R>
//! procs <p>                               # v2 only: processor count
//! weights <cn>/<cd> <pn>/<pd>             # v2 only: comm and comp weights
//! sources free-compute|initially-blue     # optional (default free-compute)
//! sinks any-pebble|require-blue           # optional (default any-pebble)
//! dag <n>                                 # the rbp_graph::io section
//! label <node> <text>
//! edge <from> <to>
//! end
//! ```
//!
//! Versioning: classic instances always serialize as byte-identical
//! `instance v1` documents (back-compat readers keep working), and the
//! parser accepts both versions. The `v2` header unlocks the
//! multiprocessor fields — `procs` and `weights` are rejected under a
//! `v1` header, so a v1-only reader never silently drops the MPP
//! dimension of a document it cannot represent. A `v2` document without
//! `procs` is a classic instance.
//!
//! The `dag … ` section is exactly [`rbp_graph::io`]'s format, read by
//! [`rbp_graph::io::read_dag`] in the same pass as the header fields.
//! `end` terminates the document — the service reads framed submissions
//! off a socket by scanning for it, so [`parse_instance`] rejects
//! trailing statements after `end` instead of silently ignoring a
//! second document.
//!
//! Errors are [`rbp_graph::io::ParseError`], the one error of every
//! wire reader: each names its document line and the offending token,
//! and a statement with a token past its arguments (`r 3 4`) is
//! rejected.

use crate::instance::{Instance, MppDim, SinkConvention, SourceConvention};
use crate::model::{CostModel, ModelKind};
use crate::Ratio;
use rbp_graph::io::{self as graph_io, ParseError, Statements, Stmt};
use std::fmt::Write as _;

/// The version tag [`write_instance`] emits for classic instances (and
/// the baseline version every reader must accept).
pub const INSTANCE_VERSION: &str = "v1";

/// The version tag [`write_instance`] emits for multiprocessor
/// instances: carries the `procs` / `weights` header fields.
pub const INSTANCE_VERSION_MPP: &str = "v2";

/// The wire token for a model (`base`, `oneshot`, `nodel`, or
/// `compcost <num>/<den>`). [`CostModel`]'s `Display` is for humans
/// (`compcost(ε=1/100)`); this is the parseable form.
pub fn model_token(model: CostModel) -> String {
    match model.kind() {
        ModelKind::CompCost => {
            let eps = model.epsilon();
            format!("compcost {}/{}", eps.num(), eps.den())
        }
        kind => kind.to_string(),
    }
}

fn parse_model(stmt: &Stmt) -> Result<CostModel, ParseError> {
    const KINDS: &str = "'base', 'oneshot', 'nodel', or 'compcost <num>/<den>'";
    const EPSILON: &str = "a ratio '<num>/<den>' with 0 < num/den < 1";
    let [kind, eps] = stmt.args(KINDS)?;
    let model = match kind {
        "base" => CostModel::base(),
        "oneshot" => CostModel::oneshot(),
        "nodel" => CostModel::nodel(),
        "compcost" => {
            let ratio = parse_ratio(stmt, eps, EPSILON)?;
            if ratio.num() == 0 || ratio.num() >= ratio.den() {
                return Err(stmt.error(eps, EPSILON));
            }
            return Ok(CostModel::compcost_with(ratio));
        }
        _ => return Err(stmt.error(kind, KINDS)),
    };
    match eps {
        "" => Ok(model),
        extra => Err(stmt.error(extra, KINDS)),
    }
}

/// Parses a `<num>/<den>` token with a nonzero denominator.
fn parse_ratio(stmt: &Stmt, token: &str, expected: &'static str) -> Result<Ratio, ParseError> {
    token
        .split_once('/')
        .and_then(|(num, den)| Some((num.parse().ok()?, den.parse().ok()?)))
        .filter(|&(_, den)| den != 0)
        .map(|(num, den)| Ratio::new(num, den))
        .ok_or_else(|| stmt.error(token, expected))
}

/// Serializes an instance as a complete document: `instance v1` for
/// classic instances (byte-identical to the pre-MPP format), `instance
/// v2` with `procs`/`weights` for multiprocessor ones. All fields are
/// emitted explicitly (including default conventions and weights), so a
/// document is self-describing on the wire and `write ∘ parse ∘ write`
/// is the identity.
pub fn write_instance(instance: &Instance) -> String {
    let dag_section = graph_io::write_dag(instance.dag());
    let mut out = String::with_capacity(96 + dag_section.len());
    let version = match instance.mpp() {
        Some(_) => INSTANCE_VERSION_MPP,
        None => INSTANCE_VERSION,
    };
    let _ = writeln!(out, "instance {version}");
    let _ = writeln!(out, "model {}", model_token(instance.model()));
    let _ = writeln!(out, "r {}", instance.red_limit());
    if let Some(dim) = instance.mpp() {
        let _ = writeln!(out, "procs {}", dim.p);
        let _ = writeln!(
            out,
            "weights {}/{} {}/{}",
            dim.comm.num(),
            dim.comm.den(),
            dim.comp.num(),
            dim.comp.den()
        );
    }
    let sources = match instance.source_convention() {
        SourceConvention::FreeCompute => "free-compute",
        SourceConvention::InitiallyBlue => "initially-blue",
    };
    let _ = writeln!(out, "sources {sources}");
    let sinks = match instance.sink_convention() {
        SinkConvention::AnyPebble => "any-pebble",
        SinkConvention::RequireBlue => "require-blue",
    };
    let _ = writeln!(out, "sinks {sinks}");
    out.push_str(&dag_section);
    out.push_str("end\n");
    out
}

/// Parses an `instance v1`/`instance v2` document back into a validated
/// [`Instance`].
pub fn parse_instance(text: &str) -> Result<Instance, ParseError> {
    parse_instance_at(text, 1)
}

/// Like [`parse_instance`] for a document embedded at `first_line`
/// (1-based) of a larger stream: reported line numbers are global.
pub fn parse_instance_at(text: &str, first_line: usize) -> Result<Instance, ParseError> {
    const HEADER: &str = "'instance v1' or 'instance v2' as the first statement";
    let mut stmts = Statements::new(text, first_line);
    // v2: the multiprocessor fields are legal
    let mpp_header = match stmts.next() {
        Some(stmt) if stmt.keyword == "instance" => match stmt.args(HEADER)? {
            [INSTANCE_VERSION] => false,
            [INSTANCE_VERSION_MPP] => true,
            [version] => return Err(stmt.error(version, "instance version 'v1' or 'v2'")),
        },
        Some(stmt) => return Err(stmt.error(stmt.keyword, HEADER)),
        None => return Err(stmts.missing(HEADER)),
    };
    let mut model: Option<CostModel> = None;
    let mut r: Option<usize> = None;
    let mut procs: Option<u32> = None;
    let mut weights: Option<(Ratio, Ratio)> = None;
    let mut sources: Option<SourceConvention> = None;
    let mut sinks: Option<SinkConvention> = None;

    let (dag, model, r) = loop {
        let Some(stmt) = stmts.next() else {
            return Err(stmts.missing("the 'dag <n>' section"));
        };
        match stmt.keyword {
            "model" => stmt.once(&mut model, || parse_model(&stmt))?,
            "r" => stmt.once(&mut r, || {
                let [token] = stmt.args("'r <R>'")?;
                stmt.parse(token, "red-pebble budget in 'r <R>'")
            })?,
            "procs" | "weights" if !mpp_header => {
                return Err(stmt.error(
                    stmt.keyword,
                    "no multiprocessor field under 'instance v1' (they need v2)",
                ))
            }
            "procs" => stmt.once(&mut procs, || {
                let [token] = stmt.args("'procs <p>'")?;
                match stmt.parse(token, "processor count in 'procs <p>'")? {
                    0 => Err(stmt.error(token, "a processor count of at least 1")),
                    p => Ok(p),
                }
            })?,
            "weights" => stmt.once(&mut weights, || {
                const WEIGHT: &str = "a '<num>/<den>' weight with a nonzero denominator";
                let [comm, comp] = stmt.args("'weights <cn>/<cd> <pn>/<pd>'")?;
                Ok((
                    parse_ratio(&stmt, comm, WEIGHT)?,
                    parse_ratio(&stmt, comp, WEIGHT)?,
                ))
            })?,
            "sources" => stmt.once(&mut sources, || {
                match stmt.args("'sources <convention>'")? {
                    ["free-compute"] => Ok(SourceConvention::FreeCompute),
                    ["initially-blue"] => Ok(SourceConvention::InitiallyBlue),
                    [other] => Err(stmt.error(other, "'free-compute' or 'initially-blue'")),
                }
            })?,
            "sinks" => stmt.once(&mut sinks, || match stmt.args("'sinks <convention>'")? {
                ["any-pebble"] => Ok(SinkConvention::AnyPebble),
                ["require-blue"] => Ok(SinkConvention::RequireBlue),
                [other] => Err(stmt.error(other, "'any-pebble' or 'require-blue'")),
            })?,
            "dag" => {
                let Some(model) = model else {
                    return Err(stmt.error("dag", "a 'model' field before the 'dag <n>' section"));
                };
                let Some(r) = r else {
                    return Err(stmt.error("dag", "an 'r' field before the 'dag <n>' section"));
                };
                match graph_io::read_dag(&stmt, &mut stmts)? {
                    (dag, Some(end)) if end.keyword == "end" => {
                        let [] = end.args("'end'")?;
                        break (dag, model, r);
                    }
                    (_, Some(other)) => {
                        return Err(other.error(
                            other.keyword,
                            "'edge', 'label', or 'end' in the dag section",
                        ))
                    }
                    (_, None) => return Err(stmts.missing("'end'")),
                }
            }
            other => {
                return Err(stmt.error(
                    other,
                    "'model', 'r', 'sources', 'sinks', or the 'dag <n>' section",
                ))
            }
        }
    };
    if let Some(stmt) = stmts.next() {
        return Err(stmt.error(stmt.keyword, "nothing after 'end'"));
    }
    let mut inst = Instance::new(dag, r, model)
        .with_source_convention(sources.unwrap_or_default())
        .with_sink_convention(sinks.unwrap_or_default());
    // v2 without 'procs' is a classic instance; 'weights' without
    // 'procs' pins the objective on a single processor.
    if procs.is_some() || weights.is_some() {
        let p = procs.unwrap_or(1);
        let (comm, comp) = match weights {
            Some(w) => w,
            None => {
                let d = MppDim::with_default_weights(p, model);
                (d.comm, d.comp)
            }
        };
        inst = inst.with_mpp(MppDim { p, comm, comp });
    }
    Ok(inst)
}

/// Structural equality of two instances (the `Instance` type itself
/// deliberately has no `PartialEq`: solvers compare costs, not
/// problems). Used by round-trip tests and the service cache's
/// exactness checks.
pub fn same_instance(a: &Instance, b: &Instance) -> bool {
    a.red_limit() == b.red_limit()
        && a.model() == b.model()
        && a.mpp() == b.mpp()
        && a.source_convention() == b.source_convention()
        && a.sink_convention() == b.sink_convention()
        && a.dag() == b.dag()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_graph::DagBuilder;

    /// The line and token of a syntax error.
    fn located(err: ParseError) -> (usize, String) {
        match err {
            ParseError::Syntax { line, token, .. } => (line, token),
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    fn diamond_instance() -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), 3, CostModel::oneshot())
    }

    #[test]
    fn round_trip_all_models_and_conventions() {
        for model in [
            CostModel::base(),
            CostModel::oneshot(),
            CostModel::nodel(),
            CostModel::compcost(),
            CostModel::compcost_with(Ratio::new(3, 7)),
        ] {
            for source in [
                SourceConvention::FreeCompute,
                SourceConvention::InitiallyBlue,
            ] {
                for sink in [SinkConvention::AnyPebble, SinkConvention::RequireBlue] {
                    let inst = diamond_instance()
                        .with_model(model)
                        .with_source_convention(source)
                        .with_sink_convention(sink);
                    let text = write_instance(&inst);
                    let back = parse_instance(&text).unwrap();
                    assert!(same_instance(&inst, &back), "{text}");
                    // serialization is stable: write∘parse∘write is identity
                    assert_eq!(write_instance(&back), text);
                }
            }
        }
    }

    #[test]
    fn mpp_instances_round_trip_through_v2() {
        for (p, comm, comp) in [
            (1u32, Ratio::new(1, 1), Ratio::new(1, 100)),
            (2, Ratio::new(1, 1), Ratio::ZERO),
            (4, Ratio::new(3, 2), Ratio::new(1, 2)),
        ] {
            let inst = diamond_instance().with_mpp(MppDim { p, comm, comp });
            let text = write_instance(&inst);
            assert!(text.starts_with("instance v2\n"), "{text}");
            assert!(text.contains(&format!("procs {p}\n")));
            let back = parse_instance(&text).unwrap();
            assert!(same_instance(&inst, &back), "{text}");
            assert_eq!(write_instance(&back), text);
        }
    }

    #[test]
    fn classic_instances_still_write_byte_identical_v1() {
        let inst = diamond_instance();
        let text = write_instance(&inst);
        assert!(text.starts_with("instance v1\n"));
        assert!(!text.contains("procs"));
        assert!(!text.contains("weights"));
        // a with_procs(1) no-op round-trip stays v1
        assert_eq!(write_instance(&inst.with_procs(1)), text);
    }

    #[test]
    fn v2_without_procs_is_classic_and_weights_imply_p1() {
        let text = "instance v2\nmodel base\nr 3\ndag 2\nedge 0 1\nend\n";
        let inst = parse_instance(text).unwrap();
        assert!(inst.mpp().is_none());
        let text = "instance v2\nmodel base\nr 3\nweights 2/1 1/1\ndag 2\nedge 0 1\nend\n";
        let inst = parse_instance(text).unwrap();
        let dim = inst.mpp().unwrap();
        assert_eq!(dim.p, 1);
        assert_eq!(dim.comm, Ratio::new(2, 1));
        assert_eq!(dim.comp, Ratio::new(1, 1));
        // and procs without weights takes the model's defaults
        let text = "instance v2\nmodel compcost 1/100\nr 3\nprocs 3\ndag 2\nedge 0 1\nend\n";
        let inst = parse_instance(text).unwrap();
        let dim = inst.mpp().unwrap();
        assert_eq!(dim.p, 3);
        assert_eq!(dim.comm, Ratio::new(1, 1));
        assert_eq!(dim.comp, Ratio::new(1, 100));
    }

    #[test]
    fn mpp_fields_rejected_under_v1_header() {
        for field in ["procs 2", "weights 1/1 0/1"] {
            let text = format!("instance v1\nmodel base\nr 3\n{field}\ndag 2\nedge 0 1\nend\n");
            let (line, _) = located(parse_instance(&text).unwrap_err());
            assert_eq!(line, 4, "'{field}' under v1 must be rejected");
        }
    }

    #[test]
    fn malformed_mpp_fields_rejected() {
        for bad in [
            "procs 0",
            "procs x",
            "procs",
            "weights 1/1",
            "weights 1/0 1/1",
            "weights 1/1 x/y",
            "weights one two",
        ] {
            let text = format!("instance v2\nmodel base\nr 3\n{bad}\ndag 2\nedge 0 1\nend\n");
            let (line, _) = located(parse_instance(&text).unwrap_err());
            assert_eq!(line, 4, "'{bad}' must be rejected");
        }
        // a second field is rejected at its keyword
        let text = "instance v2\nmodel base\nr 3\nprocs 2\nprocs 2\ndag 2\nedge 0 1\nend\n";
        assert_eq!(
            located(parse_instance(text).unwrap_err()),
            (5, "procs".into())
        );
    }

    #[test]
    fn conventions_default_when_omitted() {
        let text = "instance v1\nmodel base\nr 3\ndag 2\nedge 0 1\nend\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.source_convention(), SourceConvention::FreeCompute);
        assert_eq!(inst.sink_convention(), SinkConvention::AnyPebble);
        assert_eq!(inst.red_limit(), 3);
    }

    #[test]
    fn labels_and_comments_survive() {
        let text =
            "# job 17\ninstance v1\nmodel oneshot\nr 4\n\ndag 2\nlabel 0 input x\nedge 0 1\nend\n";
        let inst = parse_instance(text).unwrap();
        assert_eq!(inst.dag().label(rbp_graph::NodeId::new(0)), "input x");
    }

    #[test]
    fn header_errors() {
        assert_eq!(located(parse_instance("").unwrap_err()), (1, String::new()));
        assert_eq!(
            located(parse_instance("model base\n").unwrap_err()),
            (1, "model".into())
        );
        assert_eq!(
            located(parse_instance("instance v9\nmodel base\nr 3\ndag 1\nend\n").unwrap_err()),
            (1, "v9".into())
        );
    }

    #[test]
    fn field_errors_carry_line_numbers() {
        let text = "instance v1\nmodel base\nmodel oneshot\nr 3\ndag 1\nend\n";
        assert_eq!(
            located(parse_instance(text).unwrap_err()),
            (3, "model".into())
        );
        let text = "instance v1\nmodel quantum\nr 3\ndag 1\nend\n";
        assert_eq!(
            located(parse_instance(text).unwrap_err()),
            (2, "quantum".into())
        );
        // a missing field is reported at the section it must precede
        assert_eq!(
            located(parse_instance("instance v1\nr 3\ndag 1\nend\n").unwrap_err()),
            (3, "dag".into())
        );
        // a missing 'end' names the line one past the document
        assert_eq!(
            located(parse_instance("instance v1\nmodel base\nr 3\ndag 1\n").unwrap_err()),
            (5, String::new())
        );
    }

    #[test]
    fn dag_errors_report_document_lines() {
        // the bad edge sits on document line 5
        let text = "instance v1\nmodel base\nr 3\ndag 2\nedge 0\nend\n";
        assert_eq!(located(parse_instance(text).unwrap_err()).0, 5);
        // and with a stream offset, line numbers shift accordingly
        assert_eq!(located(parse_instance_at(text, 11).unwrap_err()).0, 15);
        // a rejected edge set is reported at its 'dag <n>' line
        let text = "instance v1\nmodel base\nr 3\ndag 2\nedge 0 1\nedge 1 0\nend\n";
        assert!(matches!(
            parse_instance_at(text, 11).unwrap_err(),
            ParseError::Graph { line: 14, .. }
        ));
    }

    #[test]
    fn hostile_dag_declaration_is_a_parse_error_not_an_abort() {
        // an instance document declaring billions of nodes must surface
        // as a located dag-section error (the graph layer's wire cap),
        // never as an allocation abort in the embedding parser
        let text = "instance v1\nmodel base\nr 3\ndag 99999999999\nend\n";
        assert_eq!(located(parse_instance(text).unwrap_err()).0, 4);
    }

    #[test]
    fn trailing_statements_rejected() {
        let text = "instance v1\nmodel base\nr 3\ndag 1\nend\ninstance v1\n";
        assert_eq!(
            located(parse_instance(text).unwrap_err()),
            (6, "instance".into())
        );
        // trailing blanks and comments are fine
        let text = "instance v1\nmodel base\nr 3\ndag 1\nend\n\n# done\n";
        assert!(parse_instance(text).is_ok());
    }

    #[test]
    fn compcost_epsilon_validated() {
        for bad in [
            "compcost 0/5",
            "compcost 5/5",
            "compcost 7/5",
            "compcost x/y",
        ] {
            let text = format!("instance v1\nmodel {bad}\nr 3\ndag 1\nend\n");
            let (line, _) = located(parse_instance(&text).unwrap_err());
            assert_eq!(line, 2, "{bad} must be rejected");
        }
    }
}
