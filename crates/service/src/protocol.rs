//! The line-oriented batch protocol: request parsing and response
//! rendering.
//!
//! ## Requests (client → server)
//!
//! ```text
//! submit <id> <spec> [deadline-ms=N] [max-expansions=N] [priority=N]
//!                    [accept=optimal|bound] [cache=on|off]
//! <instance document>                 # instance v1 … end (rbp_core::io)
//! cancel <id>
//! stats
//! shutdown
//! ```
//!
//! A `submit` line is immediately followed by one `instance v1`
//! document; the document's `end` terminates the request. Blank lines
//! and `#` comments are ignored everywhere. Request lines are read by
//! the statement cursor of `rbp_graph::io`, like every wire document: a
//! token past a verb's arguments (`stats foo`) is rejected, and every
//! error is that module's `ParseError` in session line numbers,
//! answered as `protocol-error line N: …`.
//!
//! ## Responses (server → client)
//!
//! ```text
//! queued <id>
//! cache-hit <id> <spec>
//! progress <id> <states_expanded> <states_per_sec>
//! result <id> spec=<spec> cached=<true|false>
//! <solution document>                 # solution v1 … end (rbp_solvers::wire)
//! failed <id> <message>
//! cancelled <id>
//! shed <id> retry-after-ms=N
//! ack cancel <id> found=<true|false>
//! stats submitted=N completed=N solves=N queued=N panics=N
//!       worker-restarts=N shed=N retries=N cache-entries=N
//!       cache-hits=N cache-misses=N cache-insertions=N cache-upgrades=N
//!       cache-recovered=N cache-skipped=N cache-evicted=N
//! protocol-error <message>
//! bye
//! ```
//!
//! Every accepted `submit` ends in exactly one of `result`, `failed`,
//! or `cancelled`. A `shed` response means the submission was *not*
//! accepted — the queue stayed full past the admission wait — and the
//! client should back off roughly `retry-after-ms` before resubmitting;
//! no further events arrive for a shed id. `bye` is the final line of a
//! session. The `stats` response is a single line (wrapped above for
//! readability). `cache-evicted` counts cache hits dropped because they
//! failed the check against the requester's problem.

use crate::cache::AcceptPolicy;
use crate::server::{Event, JobOptions, JobRequest, ServerStats};
use rbp_core::io as core_io;
use rbp_graph::io::{ParseError, Statements, Stmt};
use rbp_solvers::wire;
use std::io::BufRead;
use std::time::Duration;

/// One parsed client request.
#[derive(Debug)]
pub enum Request {
    /// `submit …` plus its instance document.
    Submit(JobRequest),
    /// `cancel <id>`.
    Cancel {
        /// The job id to cancel.
        id: String,
    },
    /// `stats`.
    Stats,
    /// `shutdown` — ends the session.
    Shutdown,
}

/// Errors from [`RequestReader`]. Line numbers are 1-based positions in
/// the session stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A request line, or the instance document under a `submit`, was
    /// rejected.
    Parse(ParseError),
    /// The stream ended inside a `submit` body: the session stops
    /// reading.
    UnterminatedSubmit {
        /// Line of the submit statement.
        line: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Parse(e) => e.fmt(f),
            ProtocolError::UnterminatedSubmit { line } => write!(
                f,
                "line {line}: stream ended inside the submit body (missing 'end'?)"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ParseError> for ProtocolError {
    fn from(e: ParseError) -> Self {
        ProtocolError::Parse(e)
    }
}

/// Incremental request parser over a buffered byte stream, tracking
/// session line numbers for error reports.
pub struct RequestReader<R> {
    reader: R,
    line: usize,
    /// The request line, then the `submit` body read through its `end`.
    buf: String,
}

impl<R: BufRead> RequestReader<R> {
    /// Wraps a stream; line numbering starts at 1.
    pub fn new(reader: R) -> Self {
        RequestReader {
            reader,
            line: 0,
            buf: String::new(),
        }
    }

    /// Appends the next line of the stream to `buf`; `false` at end of
    /// stream.
    fn read_line(&mut self) -> std::io::Result<bool> {
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Ok(false);
        }
        self.line += 1;
        Ok(true)
    }

    /// Reads the next request. `Ok(None)` at end of stream;
    /// `Ok(Some(Err(_)))` reports a protocol error after resynchronizing
    /// (a malformed `submit` still consumes its body through `end`, so
    /// the next call starts at a request boundary).
    #[allow(clippy::type_complexity)]
    pub fn next_request(&mut self) -> std::io::Result<Option<Result<Request, ProtocolError>>> {
        loop {
            self.buf.clear();
            if !self.read_line()? {
                return Ok(None);
            }
            let Some(stmt) = Statements::new(&self.buf, self.line).next() else {
                continue;
            };
            let request = match stmt.keyword {
                "submit" => {
                    let head = submit_head(&stmt);
                    return Ok(Some(self.read_submit(stmt.line, head)));
                }
                "cancel" => match stmt.args("'cancel <id>'") {
                    Ok([""]) => Err(stmt.error("", "a job id in 'cancel <id>'")),
                    Ok([id]) => Ok(Request::Cancel { id: id.to_string() }),
                    Err(e) => Err(e),
                },
                "stats" => stmt.args("'stats'").map(|[]| Request::Stats),
                "shutdown" => stmt.args("'shutdown'").map(|[]| Request::Shutdown),
                other => Err(stmt.error(other, "'submit', 'cancel', 'stats', or 'shutdown'")),
            };
            return Ok(Some(request.map_err(ProtocolError::from)));
        }
    }

    /// Reads a `submit` body through its `end` terminator — even when the
    /// head is bad, so the stream stays request-aligned — and parses it.
    fn read_submit(
        &mut self,
        head_line: usize,
        head: Result<(String, String, JobOptions), ParseError>,
    ) -> Result<Request, ProtocolError> {
        self.buf.clear();
        let body_first_line = self.line + 1;
        loop {
            let start = self.buf.len();
            match self.read_line() {
                Ok(true) if self.buf[start..].trim() == "end" => break,
                Ok(true) => {}
                Ok(false) | Err(_) => {
                    return Err(ProtocolError::UnterminatedSubmit { line: head_line })
                }
            }
        }
        let (id, spec, options) = head?;
        let instance = core_io::parse_instance_at(&self.buf, body_first_line)?;
        Ok(Request::Submit(JobRequest {
            id,
            spec,
            instance,
            options,
        }))
    }
}

/// Parses the `submit <id> <spec> [options…]` statement.
fn submit_head(stmt: &Stmt) -> Result<(String, String, JobOptions), ParseError> {
    let mut tokens = stmt.rest.split_whitespace();
    let id = tokens
        .next()
        .ok_or_else(|| stmt.error("", "'submit <id> <spec> [options…]'"))?;
    let spec = tokens
        .next()
        .ok_or_else(|| stmt.error("", "a registry spec after the job id"))?;
    let mut options = JobOptions::default();
    for opt in tokens {
        let bad = |expected| stmt.error(opt, expected);
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| bad("an option as 'key=value'"))?;
        match key {
            "deadline-ms" => {
                let ms = value
                    .parse()
                    .map_err(|_| bad("an integer 'deadline-ms=N'"))?;
                options.deadline = Some(Duration::from_millis(ms));
            }
            "max-expansions" => {
                options.max_expansions = Some(
                    value
                        .parse()
                        .map_err(|_| bad("an integer 'max-expansions=N'"))?,
                );
            }
            "priority" => {
                options.priority = value.parse().map_err(|_| bad("an integer 'priority=N'"))?;
            }
            "accept" => {
                options.accept = match value {
                    "optimal" => AcceptPolicy::Optimal,
                    "bound" => AcceptPolicy::Bound,
                    _ => return Err(bad("'accept=optimal' or 'accept=bound'")),
                };
            }
            "cache" => {
                options.use_cache = match value {
                    "on" => true,
                    "off" => false,
                    _ => return Err(bad("'cache=on' or 'cache=off'")),
                };
            }
            _ => {
                return Err(bad(
                    "an option among deadline-ms, max-expansions, priority, accept, cache",
                ))
            }
        }
    }
    Ok((id.to_string(), spec.to_string(), options))
}

/// Renders one server [`Event`] in the response grammar. `Done` renders
/// as a `result` line followed by a full `solution v1` document.
pub fn render_event(ev: &Event) -> String {
    match ev {
        Event::Queued { id } => format!("queued {id}\n"),
        Event::CacheHit { id, spec } => format!("cache-hit {id} {spec}\n"),
        Event::Progress {
            id,
            states_expanded,
            states_per_sec,
        } => format!("progress {id} {states_expanded} {states_per_sec}\n"),
        Event::Done {
            id,
            spec,
            cached,
            solution,
        } => {
            let mut out = format!("result {id} spec={spec} cached={cached}\n");
            out.push_str(&wire::write_solution(spec, solution));
            out
        }
        Event::Failed { id, error } => format!("failed {id} {error}\n"),
        Event::Cancelled { id } => format!("cancelled {id}\n"),
    }
}

/// Renders the one-line `stats` response.
pub fn render_stats(s: &ServerStats) -> String {
    format!(
        "stats submitted={} completed={} solves={} queued={} panics={} worker-restarts={} shed={} retries={} cache-entries={} cache-hits={} cache-misses={} cache-insertions={} cache-upgrades={} cache-recovered={} cache-skipped={} cache-evicted={}\n",
        s.submitted,
        s.completed,
        s.solves,
        s.queued,
        s.panics,
        s.worker_restarts,
        s.shed,
        s.retries_observed,
        s.cache.entries,
        s.cache.hits,
        s.cache.misses,
        s.cache.insertions,
        s.cache.upgrades,
        s.cache.recovered,
        s.cache.skipped,
        s.cache.evicted,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{write_instance, CostModel, Instance};
    use rbp_graph::generate;

    fn submit_doc(id: &str, spec: &str, opts: &str, inst: &Instance) -> String {
        let tail = if opts.is_empty() {
            String::new()
        } else {
            format!(" {opts}")
        };
        format!("submit {id} {spec}{tail}\n{}", write_instance(inst))
    }

    fn read_all(text: &str) -> Vec<Result<Request, ProtocolError>> {
        let mut rr = RequestReader::new(std::io::Cursor::new(text.to_string()));
        let mut out = Vec::new();
        while let Some(r) = rr.next_request().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn submit_round_trips_instance_and_options() {
        let inst = Instance::new(generate::chain(5), 2, CostModel::base());
        let text = submit_doc(
            "job-1",
            "exact",
            "max-expansions=100 priority=3 accept=bound cache=on",
            &inst,
        );
        let reqs = read_all(&text);
        assert_eq!(reqs.len(), 1);
        match reqs.into_iter().next().unwrap().unwrap() {
            Request::Submit(req) => {
                assert_eq!(req.id, "job-1");
                assert_eq!(req.spec, "exact");
                assert_eq!(req.options.max_expansions, Some(100));
                assert_eq!(req.options.priority, 3);
                assert_eq!(req.options.accept, AcceptPolicy::Bound);
                assert!(req.options.use_cache);
                assert!(core_io::same_instance(&req.instance, &inst));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_verbs_parse() {
        let reqs = read_all("cancel j7\nstats\nshutdown\n");
        assert!(matches!(&reqs[0], Ok(Request::Cancel { id }) if id == "j7"));
        assert!(matches!(&reqs[1], Ok(Request::Stats)));
        assert!(matches!(&reqs[2], Ok(Request::Shutdown)));
    }

    #[test]
    fn bad_head_still_resyncs_past_the_body() {
        let inst = Instance::new(generate::chain(3), 2, CostModel::base());
        let text = format!(
            "{}stats\n",
            submit_doc("j1", "exact", "accept=maybe", &inst)
        );
        let reqs = read_all(&text);
        assert_eq!(reqs.len(), 2, "body consumed, next request seen");
        assert!(matches!(
            &reqs[0],
            Err(ProtocolError::Parse(ParseError::Syntax { line: 1, token, .. })) if token == "accept=maybe"
        ));
        assert!(matches!(&reqs[1], Ok(Request::Stats)));
    }

    #[test]
    fn instance_errors_carry_session_line_numbers() {
        // line 1: submit head; line 2: instance header; line 3: bad model
        let text = "submit j1 exact\ninstance v1\nmodel quantum\nr 2\ndag 1\nend\n";
        let reqs = read_all(text);
        match &reqs[0] {
            Err(ProtocolError::Parse(ParseError::Syntax { line, token, .. })) => {
                assert_eq!(*line, 3);
                assert_eq!(token, "quantum");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn truncated_submit_is_reported() {
        let text = "submit j1 exact\ninstance v1\nmodel base\n";
        let reqs = read_all(text);
        assert!(matches!(
            &reqs[0],
            Err(ProtocolError::UnterminatedSubmit { line: 1 })
        ));
    }

    #[test]
    fn unknown_commands_skip_one_line_only() {
        let reqs = read_all("frobnicate\nstats\n");
        assert!(matches!(
            &reqs[0],
            Err(ProtocolError::Parse(ParseError::Syntax { line: 1, token, .. })) if token == "frobnicate"
        ));
        assert!(matches!(&reqs[1], Ok(Request::Stats)));
    }

    #[test]
    fn done_renders_a_parseable_solution_document() {
        let inst = Instance::new(generate::chain(4), 2, CostModel::oneshot());
        let sol = rbp_solvers::registry::solve("greedy", &inst).unwrap();
        let ev = Event::Done {
            id: "j1".into(),
            spec: "greedy:most-red-inputs/min-uses".into(),
            cached: false,
            solution: sol.clone(),
        };
        let text = render_event(&ev);
        let mut lines = text.lines();
        let head = lines.next().unwrap();
        assert!(head.starts_with("result j1 spec=greedy:most-red-inputs/min-uses cached=false"));
        let rest: String = lines.map(|l| format!("{l}\n")).collect();
        let parsed = wire::parse_solution(&rest).unwrap();
        assert_eq!(parsed.solution.cost, sol.cost);
    }
}
