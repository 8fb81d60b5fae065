//! Seeded random instance ensembles for the verification harness.
//!
//! Each ensemble maps `(base_seed, index)` deterministically to a
//! complete [`Instance`] — DAG family, size, red budget, cost model,
//! and start/finish conventions are all drawn from the vendored
//! [`rand::rngs::StdRng`], so a violating instance found by the fuzz
//! soak can always be regenerated from its `(base_seed, index)` pair
//! (or replayed from the written `instance v1` counterexample file).
//!
//! Four random DAG families are rotated through:
//!
//! | family | generator | probes |
//! |---|---|---|
//! | `layered` | [`generate::layered`] | staged pipelines, controlled Δ |
//! | `series-parallel` | [`generate::series_parallel`] | the tractable SP frontier |
//! | `random-order` | [`generate::gnp_dag`] | unstructured G(n,p) forward DAGs |
//! | `in-tree` | [`generate::random_in_tree`] | reduction trees to a single sink |
//!
//! Gadget families (pyramids, grids, CD gadgets, …) live in
//! `rbp-gadgets`; the `rbp-verify` harness composes both sources, since
//! the dependency arrow points gadgets → solvers → core and this crate
//! must stay below the solvers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbp_core::{CostModel, Instance, ModelKind, MppDim, Ratio, SinkConvention, SourceConvention};
use rbp_graph::generate;

/// The random DAG families an ensemble rotates through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Staged layered DAGs ([`generate::layered`]).
    Layered,
    /// Two-terminal series-parallel DAGs ([`generate::series_parallel`]).
    SeriesParallel,
    /// G(n,p) forward DAGs over a random topological order
    /// ([`generate::gnp_dag`]).
    RandomOrder,
    /// Random in-trees with a single sink ([`generate::random_in_tree`]).
    InTree,
}

impl Family {
    /// All families, in rotation order.
    pub const ALL: [Family; 4] = [
        Family::Layered,
        Family::SeriesParallel,
        Family::RandomOrder,
        Family::InTree,
    ];

    /// Short name used in generated-instance labels and counterexample
    /// file names.
    pub fn name(self) -> &'static str {
        match self {
            Family::Layered => "layered",
            Family::SeriesParallel => "series-parallel",
            Family::RandomOrder => "random-order",
            Family::InTree => "in-tree",
        }
    }
}

/// Size and shape bounds for generated instances.
///
/// The defaults are tuned for the differential harness: every registry
/// spec (including the unpruned reference solver) must finish in well under a millisecond per instance so the
/// CI soak can afford ≥ 10,000 instances in a short wall-clock budget.
#[derive(Clone, Copy, Debug)]
pub struct EnsembleConfig {
    /// Largest DAG, in nodes (inclusive). Instances are drawn between
    /// 3 and this bound.
    pub max_nodes: usize,
    /// Indegree cap Δ handed to the generators; feasibility then only
    /// needs R ≥ Δ+1.
    pub max_indegree: usize,
    /// Red budgets are drawn from `min_feasible_r()` to
    /// `min_feasible_r() + r_slack` inclusive; slack 0 pins every
    /// instance to the feasibility threshold (the hardest regime),
    /// larger slack exercises the eviction-policy code paths.
    pub r_slack: usize,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        EnsembleConfig {
            max_nodes: 10,
            max_indegree: 3,
            r_slack: 2,
        }
    }
}

/// One generated instance, with enough provenance to regenerate or
/// report it.
#[derive(Clone, Debug)]
pub struct GeneratedInstance {
    /// Human-readable label: `"<family>-n<nodes>-i<index>"`.
    pub name: String,
    /// The family the DAG was drawn from.
    pub family: Family,
    /// The ensemble index this instance occupies.
    pub index: u64,
    /// The complete, feasible pebbling instance.
    pub instance: Instance,
}

/// Deterministically generates the `index`-th instance of the ensemble
/// rooted at `base_seed`.
///
/// The same `(base_seed, index, cfg)` triple always yields a
/// byte-identical instance; distinct indices use independently seeded
/// RNG streams (SplitMix64 over `base_seed ⊕ f(index)`), so ensembles
/// can be sampled in any order or in parallel.
pub fn instance_at(base_seed: u64, index: u64, cfg: &EnsembleConfig) -> GeneratedInstance {
    let mut rng = StdRng::seed_from_u64(base_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let family = Family::ALL[(index % Family::ALL.len() as u64) as usize];
    let max_n = cfg.max_nodes.max(3);
    let max_d = cfg.max_indegree.max(1);
    let dag = match family {
        Family::Layered => {
            let layers = rng.gen_range(2..=4usize);
            let width = rng.gen_range(1..=(max_n / layers).max(1));
            generate::layered(layers, width, max_d, &mut rng)
        }
        Family::SeriesParallel => {
            let n = rng.gen_range(3..=max_n);
            generate::series_parallel(n, max_d, &mut rng)
        }
        Family::RandomOrder => {
            let n = rng.gen_range(3..=max_n);
            let p = 0.15 + 0.5 * rng.gen_range(0..=100u32) as f64 / 100.0;
            generate::gnp_dag(n, p, max_d, &mut rng)
        }
        Family::InTree => {
            let n = rng.gen_range(3..=max_n);
            generate::random_in_tree(n, max_d, &mut rng)
        }
    };
    // registry-driven model draw: a new ModelKind automatically joins
    // the rotation instead of needing this match extended
    let kind = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
    let model = CostModel::of_kind(kind);
    let n = dag.n();
    let base = Instance::new(dag, 1, model);
    let r_max = (base.min_feasible_r() + cfg.r_slack).min(n.max(base.min_feasible_r()));
    let r = rng.gen_range(base.min_feasible_r()..=r_max.max(base.min_feasible_r()));
    let mut inst = base.with_red_limit(r);
    // occasionally flip to the Hong–Kung / blue-output conventions so the
    // harness also exercises the Appendix C variants
    if rng.gen_bool(0.2) {
        inst = inst.with_source_convention(SourceConvention::InitiallyBlue);
    }
    if rng.gen_bool(0.2) {
        inst = inst.with_sink_convention(SinkConvention::RequireBlue);
    }
    GeneratedInstance {
        name: format!("{}-n{}-i{}", family.name(), n, index),
        family,
        index,
        instance: inst,
    }
}

/// An endless deterministic stream of ensemble instances starting at
/// index 0. `stream(seed, cfg).take(k)` is the canonical way to sample
/// a k-instance ensemble.
pub fn stream(base_seed: u64, cfg: EnsembleConfig) -> impl Iterator<Item = GeneratedInstance> {
    (0u64..).map(move |i| instance_at(base_seed, i, &cfg))
}

/// The processor counts the multiprocessor ensemble rotates through.
/// `p = 1` stays in the rotation deliberately: it pins the
/// `mpp:1 ≡ classic` equivalence on every soak.
pub const MPP_PROCS: [u32; 3] = [1, 2, 4];

/// The `(comm, comp)` weightings the multiprocessor ensemble rotates
/// through: the model's default objective (`None`), then a
/// compute-heavy and a communication-heavy one.
pub const MPP_WEIGHTS: [Option<(u64, u64)>; 3] = [None, Some((1, 5)), Some((5, 1))];

/// The multiprocessor variant of [`instance_at`]: the same underlying
/// classic draw, lifted to `p` processors with `p` rotating through
/// [`MPP_PROCS`] by index and the weights through [`MPP_WEIGHTS`] by
/// `index / 3`, so every `(p, weights)` pair recurs. Labels gain a
/// `-p<procs>` suffix, plus `-w<comm>x<comp>` when weighted.
pub fn mpp_instance_at(base_seed: u64, index: u64, cfg: &EnsembleConfig) -> GeneratedInstance {
    let mut g = instance_at(base_seed, index, cfg);
    let p = MPP_PROCS[(index % MPP_PROCS.len() as u64) as usize];
    match MPP_WEIGHTS[(index / 3 % MPP_WEIGHTS.len() as u64) as usize] {
        None => {
            g.instance = g.instance.with_procs(p);
            g.name = format!("{}-p{p}", g.name);
        }
        Some((comm, comp)) => {
            g.instance = g.instance.with_mpp(MppDim {
                p,
                comm: Ratio::new(comm, 1),
                comp: Ratio::new(comp, 1),
            });
            g.name = format!("{}-p{p}-w{comm}x{comp}", g.name);
        }
    }
    g
}

/// An endless deterministic stream of multiprocessor ensemble instances
/// (the [`stream`] analogue of [`mpp_instance_at`]).
pub fn mpp_stream(base_seed: u64, cfg: EnsembleConfig) -> impl Iterator<Item = GeneratedInstance> {
    (0u64..).map(move |i| mpp_instance_at(base_seed, i, &cfg))
}

/// Size bounds for the large layered ensemble ([`large_layered_at`]).
///
/// These instances are hundreds of nodes — far beyond the exact
/// frontier — so they only make sense for the scale-out line: the
/// `coarse[:K]` solver's upper bounds against the fractional
/// lower-bound engine (`bounds::best_lower_bound`), the gap atlas'
/// coarse-vs-bound ratios, and throughput benchmarks.
#[derive(Clone, Copy, Debug)]
pub struct LargeConfig {
    /// Smallest DAG, in nodes (approximate lower edge of the draw).
    pub min_nodes: usize,
    /// Largest DAG, in nodes (inclusive upper edge of the draw).
    pub max_nodes: usize,
    /// Indegree cap Δ handed to the generator.
    pub max_indegree: usize,
    /// Red budgets are drawn from `min_feasible_r()` to
    /// `min_feasible_r() + r_slack` inclusive.
    pub r_slack: usize,
}

impl Default for LargeConfig {
    fn default() -> Self {
        LargeConfig {
            min_nodes: 150,
            max_nodes: 600,
            max_indegree: 3,
            r_slack: 2,
        }
    }
}

/// Deterministically generates the `index`-th *large* layered instance
/// of the ensemble rooted at `base_seed`: a staged layered DAG of
/// `min_nodes..=max_nodes` nodes under the Hong–Kung conventions
/// (`InitiallyBlue` sources, `RequireBlue` sinks), where both the
/// forced-load and forced-store terms of the fractional bound engine
/// are active. Cost models rotate through [`ModelKind::ALL`] by index.
pub fn large_layered_at(base_seed: u64, index: u64, cfg: &LargeConfig) -> GeneratedInstance {
    let mut rng = StdRng::seed_from_u64(base_seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let min_n = cfg.min_nodes.max(16);
    let max_n = cfg.max_nodes.max(min_n);
    let target = rng.gen_range(min_n..=max_n);
    let layers = rng.gen_range(6..=16usize).min(target / 2);
    let width = (target / layers).max(2);
    let max_d = cfg.max_indegree.max(1);
    let dag = generate::layered(layers, width, max_d, &mut rng);
    let kind = ModelKind::ALL[(index % ModelKind::ALL.len() as u64) as usize];
    let n = dag.n();
    let base = Instance::new(dag, 1, CostModel::of_kind(kind));
    let r = rng.gen_range(base.min_feasible_r()..=base.min_feasible_r() + cfg.r_slack);
    let instance = base
        .with_red_limit(r)
        .with_source_convention(SourceConvention::InitiallyBlue)
        .with_sink_convention(SinkConvention::RequireBlue);
    GeneratedInstance {
        name: format!("large-layered-n{n}-i{index}"),
        family: Family::Layered,
        index,
        instance,
    }
}

/// An endless deterministic stream of large layered instances (the
/// [`stream`] analogue of [`large_layered_at`]).
pub fn large_layered(base_seed: u64, cfg: LargeConfig) -> impl Iterator<Item = GeneratedInstance> {
    (0u64..).map(move |i| large_layered_at(base_seed, i, &cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::ModelKind;

    #[test]
    fn ensembles_are_deterministic() {
        let cfg = EnsembleConfig::default();
        for i in 0..32 {
            let a = instance_at(7, i, &cfg);
            let b = instance_at(7, i, &cfg);
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.instance.canonical_key(),
                b.instance.canonical_key(),
                "index {i} must regenerate identically"
            );
        }
    }

    #[test]
    fn ensembles_are_always_feasible_and_bounded() {
        let cfg = EnsembleConfig::default();
        for g in stream(42, cfg).take(200) {
            assert!(g.instance.is_feasible(), "{} must be feasible", g.name);
            assert!(g.instance.dag().n() <= 16, "{} too large", g.name);
            assert!(g.instance.dag().n() >= 2);
        }
    }

    #[test]
    fn ensembles_rotate_families_and_models() {
        let cfg = EnsembleConfig::default();
        let sample: Vec<_> = stream(3, cfg).take(64).collect();
        for f in Family::ALL {
            assert!(
                sample.iter().any(|g| g.family == f),
                "family {} missing from rotation",
                f.name()
            );
        }
        for kind in ModelKind::ALL {
            assert!(
                sample.iter().any(|g| g.instance.model().kind() == kind),
                "model {kind:?} never drawn"
            );
        }
    }

    #[test]
    fn mpp_ensembles_rotate_processor_counts() {
        let cfg = EnsembleConfig::default();
        let sample: Vec<_> = mpp_stream(11, cfg).take(24).collect();
        for p in MPP_PROCS {
            assert!(
                sample.iter().any(|g| g.instance.procs() == p as usize),
                "processor count {p} missing from rotation"
            );
        }
        for weights in MPP_WEIGHTS {
            assert!(
                sample.iter().any(|g| match weights {
                    None => g
                        .instance
                        .mpp()
                        .is_none_or(|d| d.has_default_weights(g.instance.model())),
                    Some(scales) => g.instance.cost_scales() == scales,
                }),
                "weights {weights:?} missing from rotation"
            );
        }
        for g in &sample {
            assert!(g.instance.is_feasible(), "{} must stay feasible", g.name);
            assert!(g.name.contains("-p"), "{} lacks the -p suffix", g.name);
        }
        // the mpp draw shares the classic draw: same DAG and model
        let classic = instance_at(11, 5, &cfg);
        let lifted = mpp_instance_at(11, 5, &cfg);
        assert_eq!(
            classic.instance.canonical_key(),
            lifted.instance.without_mpp().canonical_key(),
            "lifting must only change the processor dimension"
        );
    }

    #[test]
    fn large_layered_sizes_and_conventions() {
        let cfg = LargeConfig::default();
        for g in large_layered(9, cfg).take(12) {
            let n = g.instance.dag().n();
            assert!(
                (100..=700).contains(&n),
                "{}: {} nodes outside the large band",
                g.name,
                n
            );
            assert!(g.instance.is_feasible(), "{} must be feasible", g.name);
            assert_eq!(
                g.instance.source_convention(),
                SourceConvention::InitiallyBlue
            );
            assert_eq!(g.instance.sink_convention(), SinkConvention::RequireBlue);
            assert!(g.name.starts_with("large-layered-n"));
        }
        // deterministic regeneration, like the small ensembles
        let a = large_layered_at(9, 3, &cfg);
        let b = large_layered_at(9, 3, &cfg);
        assert_eq!(a.instance.canonical_key(), b.instance.canonical_key());
        // models rotate
        for kind in ModelKind::ALL {
            assert!(
                large_layered(9, cfg)
                    .take(8)
                    .any(|g| g.instance.model().kind() == kind),
                "model {kind:?} never drawn in the large ensemble"
            );
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_ensembles() {
        let cfg = EnsembleConfig::default();
        let a: Vec<_> = stream(1, cfg).take(16).collect();
        let b: Vec<_> = stream(2, cfg).take(16).collect();
        assert!(
            a.iter()
                .zip(&b)
                .any(|(x, y)| x.instance.canonical_key() != y.instance.canonical_key()),
            "seeds 1 and 2 generated identical ensembles"
        );
    }
}
