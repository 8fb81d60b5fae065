//! Every exact-family spec optimizes the instance's own objective.
//!
//! A weighted `instance v2` document prices transfers and computes with
//! its `weights` line, not with the model's ε. An exact search that
//! priced its edges by ε would settle on a schedule that is optimal for
//! the wrong objective and still call it `Optimal`.

use red_blue_pebbling::core::parse_instance;
use red_blue_pebbling::prelude::*;

/// Base model, R = 2, one processor, comm = 1 and comp = 5, edges
/// 0→1, 1→2, 0→3. Every schedule needs a transfer. Under ε pricing
/// computes are free, so a one-transfer schedule with a recompute
/// (T = 1, C = 5, weighted cost 26) ties the optimum; under these
/// weights only T = 1, C = 4 (cost 21) is optimal.
const WEIGHTED: &str = "\
instance v2
model base
r 2
procs 1
weights 1/1 5/1
dag 4
edge 0 1
edge 1 2
edge 0 3
end
";

#[test]
fn exact_specs_prove_the_weighted_optimum() {
    let inst = parse_instance(WEIGHTED).unwrap();
    assert_eq!(inst.cost_scales(), (1, 5));
    for spec in ["exact", "exact:unseeded", "reference", "exact@mpp"] {
        let sol = registry::solve(spec, &inst).unwrap();
        assert!(sol.is_optimal(), "{spec} did not prove optimality");
        assert_eq!(
            (sol.cost.transfers, sol.cost.computes),
            (1, 4),
            "{spec} found another schedule"
        );
        let cert = certify(&inst, &sol.trace).unwrap();
        assert_eq!(cert.scaled_cost, 21, "{spec}");
        assert_eq!(sol.scaled_cost(&inst), 21, "{spec}");
    }
    let greedy = registry::solve("greedy", &inst).unwrap();
    assert!(greedy.scaled_cost(&inst) >= 21);
    assert_eq!(greedy.scaled_cost(&inst), 23);
}
