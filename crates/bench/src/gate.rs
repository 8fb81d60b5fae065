//! The one baseline gate behind `perf-check` and `gap-check`.
//!
//! Each check reads `HEAD`'s copy of its committed file as the baseline
//! ([`committed`]) before it writes anything, measures once, rewrites
//! the file at the workspace root, and diffs the fresh rows against the
//! baseline with [`diff`]. A row fails only on its deterministic columns
//! ([`Row::regression`]); timing never fails. Rows present on one side
//! only are warned about and skipped, so growing or shrinking a matrix
//! cannot trip the gate.

use std::path::Path;

/// A row of a committed baseline file.
pub trait Row {
    /// The diff key pairing a fresh row with its committed counterpart.
    fn key(&self) -> String;

    /// Why this fresh row regresses against the committed `old` row, or
    /// `None` when its deterministic columns hold.
    fn regression(&self, old: &Self) -> Option<String>;
}

/// What one [`diff`] counted.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Rows whose deterministic columns regressed.
    pub failed: usize,
    /// Fresh rows with no committed counterpart.
    pub new: usize,
    /// Committed rows no longer measured.
    pub lost: usize,
}

/// `HEAD`'s copy of `<dir>/<file>`, or the on-disk copy outside a git
/// checkout. Read it before rewriting the file.
pub fn committed(dir: &Path, file: &str) -> Option<String> {
    let shown = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["show", &format!("HEAD:{file}")])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok());
    shown.or_else(|| std::fs::read_to_string(dir.join(file)).ok())
}

/// Diffs `fresh` against `baseline` row by row, keyed by [`Row::key`]:
/// an `::error::` per regressed row, a `::warning::` per one-sided row.
/// `note` sees every matched (fresh, committed) pair, for output that
/// never fails the gate (timing ratios, improvements).
pub fn diff<R: Row>(
    tool: &str,
    baseline: &[R],
    fresh: &[R],
    mut note: impl FnMut(&R, &R),
) -> Outcome {
    let mut outcome = Outcome::default();
    for new in fresh {
        let key = new.key();
        let Some(old) = baseline.iter().find(|old| old.key() == key) else {
            println!("::warning title=new row::{tool}: {key} has no baseline (skipped)");
            outcome.new += 1;
            continue;
        };
        if let Some(why) = new.regression(old) {
            println!("::error title={tool} regression::{key}: {why}");
            outcome.failed += 1;
        }
        note(new, old);
    }
    for old in baseline {
        let key = old.key();
        if !fresh.iter().any(|new| new.key() == key) {
            println!(
                "::warning title=lost coverage::{tool}: {key} is in the committed baseline but \
                 no longer measured (skipped)"
            );
            outcome.lost += 1;
        }
    }
    outcome
}

/// The string value of `"name": "..."` on one line of a committed file.
pub(crate) fn str_field(line: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// The unsigned value of `"name": N` on one line of a committed file.
pub(crate) fn num_field(line: &str, name: &str) -> Option<u128> {
    let tag = format!("\"{name}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gap_atlas::GapRow;
    use crate::perf_snapshot::CellResult;

    fn cell() -> CellResult {
        CellResult {
            workload: "grid".into(),
            model: "base".into(),
            n: 12,
            r: 4,
            spec: "exact".into(),
            threads: 1,
            median_ns: 1_000_000,
            states_seen: 500,
            states_expanded: 400,
            states_per_sec: 500_000,
            scaled_cost: 6,
        }
    }

    fn gap_row() -> GapRow {
        GapRow {
            model: "base".into(),
            spec: "greedy".into(),
            worst_milli: 1500,
            instance: "fft-base".into(),
            heuristic_cost: 9,
            optimal_cost: 6,
            cells: 31,
            zero_opt_cells: 29,
            worst_zero_opt_cost: 2,
        }
    }

    /// Failed rows when the one-row `fresh` side is diffed against `old`.
    fn failures<R: Row>(old: R, fresh: R) -> usize {
        diff("test", &[old], &[fresh], |_, _| {}).failed
    }

    fn edited<R>(make: fn() -> R, edit: impl FnOnce(&mut R)) -> R {
        let mut row = make();
        edit(&mut row);
        row
    }

    #[test]
    fn each_deterministic_regression_counts_one_failure() {
        assert_eq!(failures(cell(), cell()), 0);
        assert_eq!(failures(cell(), edited(cell, |c| c.scaled_cost += 1)), 1);
        assert_eq!(failures(cell(), edited(cell, |c| c.scaled_cost -= 1)), 1);
        assert_eq!(
            failures(cell(), edited(cell, |c| c.states_expanded += 1)),
            1
        );
        assert_eq!(failures(cell(), edited(cell, |c| c.states_seen += 1)), 1);
        assert_eq!(failures(gap_row(), gap_row()), 0);
        assert_eq!(
            failures(gap_row(), edited(gap_row, |r| r.worst_milli += 1)),
            1
        );
    }

    #[test]
    fn lower_counters_ratios_and_timing_never_fail() {
        let faster = edited(cell, |c| {
            c.states_expanded -= 1;
            c.states_seen -= 1;
            c.median_ns *= 10;
            c.states_per_sec /= 10;
            c.threads = 2;
        });
        assert_eq!(failures(cell(), faster), 0);
        let better = edited(gap_row, |r| {
            r.worst_milli -= 1;
            r.heuristic_cost += 5;
            r.instance = "chain-base".into();
        });
        assert_eq!(failures(gap_row(), better), 0);
    }

    #[test]
    fn one_sided_rows_warn_and_never_fail() {
        let other = edited(cell, |c| {
            c.workload = "fft".into();
            c.scaled_cost = 99;
        });
        let outcome = diff("test", &[cell()], &[other], |_, _| {});
        assert_eq!(
            outcome,
            Outcome {
                failed: 0,
                new: 1,
                lost: 1
            }
        );
        let gained = diff("test", &[], &[gap_row()], |_, _| unreachable!());
        assert_eq!((gained.failed, gained.new), (0, 1));
        let lost = diff::<GapRow>("test", &[gap_row()], &[], |_, _| unreachable!());
        assert_eq!((lost.failed, lost.lost), (0, 1));
    }

    #[test]
    fn note_sees_every_matched_pair() {
        let rows = [cell(), edited(cell, |c| c.model = "nodel".into())];
        let worse = [
            edited(cell, |c| c.scaled_cost += 1),
            edited(cell, |c| c.model = "nodel".into()),
        ];
        let mut noted = 0;
        let outcome = diff("test", &rows, &worse, |_, _| noted += 1);
        assert_eq!((outcome.failed, noted), (1, 2));
    }
}
