//! Checks every answer: each distinct `solution v1` document is
//! certified with `rbp_core::certify` against the instance the client
//! submitted; repeats are matched by digest. Runs after the load, outside
//! every latency span.

use crate::workload::Plan;
use rbp_core::{bounds, certify, parse_instance, Instance};
use rbp_solvers::{wire, Quality};
use std::collections::HashMap;

/// The verdict on one distinct answer.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// `Err` names why the answer is wrong.
    pub ok: Result<(), String>,
    pub optimal: bool,
    /// Certified scaled cost.
    pub scaled: u128,
    /// The answer's own proved lower bound (its cost when optimal).
    pub lower: u128,
}

/// Checks every distinct (document, answer) pair.
pub fn check(
    plan: &Plan,
    bodies: &HashMap<(usize, u64), Vec<u8>>,
) -> HashMap<(usize, u64), Verdict> {
    let mut instances: HashMap<usize, Result<Instance, String>> = HashMap::new();
    let mut verdicts: HashMap<(usize, u64), Verdict> = bodies
        .iter()
        .map(|(&key, body)| {
            let inst = instances.entry(key.0).or_insert_with(|| {
                parse_instance(&plan.docs[key.0].text).map_err(|e| e.to_string())
            });
            (key, verdict(inst.as_ref(), body))
        })
        .collect();

    // an optimality claim must not be beaten by any certified answer for
    // the same document
    let mut cheapest: HashMap<usize, u128> = HashMap::new();
    for (&(doc, _), v) in &verdicts {
        if v.ok.is_ok() {
            let best = cheapest.entry(doc).or_insert(v.scaled);
            *best = (*best).min(v.scaled);
        }
    }
    for (&(doc, _), v) in verdicts.iter_mut() {
        let best = cheapest.get(&doc).copied().unwrap_or(0);
        if v.ok.is_ok() && v.optimal && v.scaled > best {
            v.ok = Err(format!(
                "claimed optimal at {} but another answer certifies {best}",
                v.scaled
            ));
        }
    }
    verdicts
}

fn verdict(instance: Result<&Instance, &String>, body: &[u8]) -> Verdict {
    let fail = |msg: String| Verdict {
        ok: Err(msg),
        optimal: false,
        scaled: 0,
        lower: 0,
    };
    let inst = match instance {
        Ok(i) => i,
        Err(e) => return fail(format!("submitted document does not parse: {e}")),
    };
    let text = String::from_utf8_lossy(body);
    let sol = match wire::parse_solution(&text) {
        Ok(w) => w.solution,
        Err(e) => return fail(format!("solution document does not parse: {e}")),
    };
    let cert = match certify(inst, &sol.trace) {
        Ok(c) => c,
        Err(e) => return fail(e.to_string()),
    };
    if !cert.matches(&sol.cost) {
        return fail(format!(
            "claimed cost {:?} but the trace certifies {} transfers, {} computes",
            sol.cost, cert.transfers, cert.computes
        ));
    }
    let lower = match sol.quality {
        Quality::Infeasible => return fail("answered infeasible for a feasible instance".into()),
        Quality::UpperBound { lower_bound } if lower_bound > cert.scaled_cost => {
            return fail(format!(
                "lower bound {lower_bound} above the certified cost {}",
                cert.scaled_cost
            ))
        }
        Quality::UpperBound { lower_bound } => lower_bound,
        Quality::Optimal => {
            let lb = inst.scaled_cost(&bounds::best_lower_bound(inst));
            if cert.scaled_cost < lb {
                return fail(format!(
                    "optimal cost {} below the lower bound {lb}",
                    cert.scaled_cost
                ));
            }
            cert.scaled_cost
        }
    };
    Verdict {
        ok: Ok(()),
        optimal: sol.quality == Quality::Optimal,
        scaled: cert.scaled_cost,
        lower,
    }
}
