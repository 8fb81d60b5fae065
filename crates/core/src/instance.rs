//! A pebbling problem instance: DAG + red-pebble budget + model +
//! start/finish conventions, optionally extended with the
//! multiprocessor (MPP) dimension.

use crate::cost::{Cost, Ratio};
use crate::model::CostModel;
use rbp_graph::hash::hash_words;
use rbp_graph::Dag;
use std::fmt;
use std::sync::Arc;

/// How source nodes behave at the start of a pebbling (Appendix C).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SourceConvention {
    /// Sources are regular nodes with zero inputs: computable for free at
    /// any time (the paper's main definition).
    #[default]
    FreeCompute,
    /// Sources start with a blue pebble and are *not* computable; they
    /// must be loaded (the Hong–Kung convention).
    InitiallyBlue,
}

/// What the finishing state requires of sink nodes (Appendix C).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SinkConvention {
    /// Every sink must hold a pebble of either colour (the paper's main
    /// definition).
    #[default]
    AnyPebble,
    /// Every sink must hold a blue pebble (outputs written to slow
    /// memory).
    RequireBlue,
}

/// The multiprocessor (MPP) dimension of an instance, after
/// Böhnlein/Papp/Yzelman 2024: `p` processors, each with a private fast
/// memory of R red pebbles, sharing one blue slow memory.
///
/// The cost vector is weighed through exact [`Ratio`] arithmetic so
/// argmins stay float-free: a transfer (load or store, on any
/// processor) costs `comm`, a compute costs `comp`. With the default
/// weights — `comm` = 1, `comp` = the model's ε — the scaled cost of a
/// `p = 1` trace coincides *exactly* with the classic
/// [`Cost::scaled`](crate::cost::Cost::scaled) value, which is what
/// makes `mpp:1` a drop-in equivalent of the single-processor game.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MppDim {
    /// Number of processors p ≥ 1.
    pub p: u32,
    /// Weight of one transfer (load or store) in the scalar objective.
    pub comm: Ratio,
    /// Weight of one compute in the scalar objective.
    pub comp: Ratio,
}

impl MppDim {
    /// The dimension with `p` processors and the default weights for
    /// `model`: communication weighs 1, computation weighs the model's ε
    /// (zero except under compcost) — exactly the classic objective.
    pub fn with_default_weights(p: u32, model: CostModel) -> Self {
        let eps = model.epsilon();
        MppDim {
            p,
            comm: Ratio::new(1, 1),
            comp: eps,
        }
    }

    /// Whether the weights are the defaults for `model` (see
    /// [`MppDim::with_default_weights`]).
    pub fn has_default_weights(&self, model: CostModel) -> bool {
        self.comm == Ratio::new(1, 1) && self.comp == model.epsilon()
    }
}

/// A complete pebbling problem: *given DAG and R, pebble every sink*.
///
/// The decision version asks whether a pebbling of cost at most C exists
/// (paper Section 1); solvers in `rbp-solvers` compute the minimum C.
///
/// The DAG is held behind an [`Arc`] so instances are cheap to clone into
/// worker threads for parallel sweeps.
#[derive(Clone)]
pub struct Instance {
    dag: Arc<Dag>,
    red_limit: usize,
    model: CostModel,
    source_convention: SourceConvention,
    sink_convention: SinkConvention,
    /// `None` = the classic single-processor game. `Some` lifts the
    /// instance into the multiprocessor model.
    mpp: Option<MppDim>,
}

impl Instance {
    /// Creates an instance with the default conventions (freely computable
    /// sources; sinks need any-colour pebbles).
    pub fn new(dag: Dag, red_limit: usize, model: CostModel) -> Self {
        Instance {
            dag: Arc::new(dag),
            red_limit,
            model,
            source_convention: SourceConvention::default(),
            sink_convention: SinkConvention::default(),
            mpp: None,
        }
    }

    /// Returns a copy of this instance with a different source convention.
    ///
    /// All `with_*` builders share one convention: they take `&self` and
    /// return a modified clone (the DAG is behind an [`Arc`], so a clone
    /// is cheap). Chaining on a fresh instance works as before:
    /// `Instance::new(..).with_source_convention(..)`.
    pub fn with_source_convention(&self, c: SourceConvention) -> Self {
        let mut i = self.clone();
        i.source_convention = c;
        i
    }

    /// Returns a copy of this instance with a different sink convention.
    pub fn with_sink_convention(&self, c: SinkConvention) -> Self {
        let mut i = self.clone();
        i.sink_convention = c;
        i
    }

    /// Returns a copy of this instance with a different red-pebble budget
    /// (used by opt(R) sweeps; the DAG is shared, not cloned).
    pub fn with_red_limit(&self, red_limit: usize) -> Self {
        let mut i = self.clone();
        i.red_limit = red_limit;
        i
    }

    /// Returns a copy of this instance under a different model.
    pub fn with_model(&self, model: CostModel) -> Self {
        let mut i = self.clone();
        i.model = model;
        i
    }

    /// Returns a copy of this instance with `p` processors and the
    /// existing cost weights (or the defaults if the instance was
    /// classic). `p ≤ 1` with default weights drops back to the classic
    /// single-processor game, so `with_procs` is self-normalizing:
    /// `inst.with_procs(1)` on a classic instance is a no-op.
    pub fn with_procs(&self, p: u32) -> Self {
        let mut i = self.clone();
        i.mpp = match self.mpp {
            Some(dim) if !dim.has_default_weights(self.model) => {
                Some(MppDim { p: p.max(1), ..dim })
            }
            _ if p <= 1 => None,
            _ => Some(MppDim::with_default_weights(p, self.model)),
        };
        i
    }

    /// Returns a copy of this instance with an explicit MPP dimension
    /// (processor count *and* cost weights). Unlike [`Instance::with_procs`]
    /// this never normalizes away: `with_mpp` with `p = 1` and custom
    /// weights keeps the MPP objective.
    pub fn with_mpp(&self, dim: MppDim) -> Self {
        let mut i = self.clone();
        i.mpp = Some(MppDim {
            p: dim.p.max(1),
            ..dim
        });
        i
    }

    /// Returns a classic (single-processor, default-objective) copy.
    pub fn without_mpp(&self) -> Self {
        let mut i = self.clone();
        i.mpp = None;
        i
    }

    /// The DAG being pebbled.
    #[inline]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The red-pebble budget R.
    #[inline]
    pub fn red_limit(&self) -> usize {
        self.red_limit
    }

    /// The governing cost model.
    #[inline]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Source convention in force.
    #[inline]
    pub fn source_convention(&self) -> SourceConvention {
        self.source_convention
    }

    /// Sink convention in force.
    #[inline]
    pub fn sink_convention(&self) -> SinkConvention {
        self.sink_convention
    }

    /// The MPP dimension, if this instance is multiprocessor.
    #[inline]
    pub fn mpp(&self) -> Option<MppDim> {
        self.mpp
    }

    /// Number of processors: the MPP `p`, or 1 for classic instances.
    #[inline]
    pub fn procs(&self) -> usize {
        self.mpp.map_or(1, |d| d.p as usize)
    }

    /// The integer `(comm_scale, comp_scale)` pair the scalar objective
    /// is computed with: `scaled = transfers·comm_scale +
    /// computes·comp_scale`. Both weights are brought to the common
    /// denominator `comm.den·comp.den` (which cancels in comparisons),
    /// so the scale stays exact integer arithmetic. For classic
    /// instances this is `(den(ε), num(ε))` — the same scale
    /// [`Cost::scaled`](crate::cost::Cost::scaled) uses — and MPP
    /// instances with default weights produce identical values.
    pub fn cost_scales(&self) -> (u64, u64) {
        match self.mpp {
            Some(dim) => (
                dim.comm.num() * dim.comp.den(),
                dim.comp.num() * dim.comm.den(),
            ),
            None => {
                let eps = self.model.epsilon();
                (eps.den(), eps.num())
            }
        }
    }

    /// The exact scalar objective of `cost` under this instance's
    /// weights (see [`Instance::cost_scales`]).
    pub fn scaled_cost(&self, cost: &Cost) -> u128 {
        let (comm, comp) = self.cost_scales();
        cost.transfers as u128 * comm as u128 + cost.computes as u128 * comp as u128
    }

    /// A stable 128-bit digest of the problem this instance poses, in its
    /// own node numbering — the cache key of the batch-solve service.
    ///
    /// It covers the predecessor lists in node-id order, R, the model and
    /// its ε, both conventions and the MPP dimension, but not node labels.
    /// Two instances key alike exactly when they pose the same problem
    /// over the same node ids, so a relabeling keys alike only when it
    /// keeps the edge set, and a cached trace fits every instance that
    /// looks it up.
    pub fn canonical_key(&self) -> CanonicalKey {
        let dag = self.dag();
        let n = dag.n();
        // serialize: header, instance parameters, then per-node sorted
        // predecessor lists in node-id order
        let eps = self.model.epsilon();
        let mut stream: Vec<u64> = Vec::with_capacity(15 + n + dag.num_edges());
        stream.extend_from_slice(&[
            0x7265_6462_6c75_6501, // "redblue" format marker, version 1
            0,                     // reserved, always 0: keys in snapshots stay valid
            n as u64,
            dag.num_edges() as u64,
            self.red_limit as u64,
            self.model.kind() as u64,
            eps.num(),
            eps.den(),
            self.source_convention as u64,
            self.sink_convention as u64,
        ]);
        // The full model dimension: p and the objective weights. Classic
        // instances serialize as the p = 1 / default-weight point of the
        // same space, so `with_procs(1)` (a no-op) cannot change the key
        // while any genuine MPP lift (p or weights) must.
        let (p, comm, comp) = match self.mpp {
            Some(dim) => (dim.p as u64, dim.comm, dim.comp),
            None => (1, Ratio::new(1, 1), eps),
        };
        stream.extend_from_slice(&[p, comm.num(), comm.den(), comp.num(), comp.den()]);
        for v in dag.nodes() {
            stream.push(u64::MAX); // node separator
            let start = stream.len();
            stream.extend(dag.preds(v).iter().map(|p| p.index() as u64));
            stream[start..].sort_unstable();
        }
        let mut salted = Vec::with_capacity(stream.len() + 1);
        salted.push(0x9e37_79b9_7f4a_7c15);
        salted.extend_from_slice(&stream);
        let d0 = hash_words(&salted);
        salted[0] = 0xc2b2_ae3d_27d4_eb4f;
        let d1 = hash_words(&salted);
        CanonicalKey { digest: [d0, d1] }
    }

    /// Whether a pebbling exists at all: R ≥ Δ+1 (Section 3).
    pub fn is_feasible(&self) -> bool {
        self.red_limit > self.dag.max_indegree()
    }

    /// The minimum feasible red-pebble budget Δ+1 for this DAG.
    pub fn min_feasible_r(&self) -> usize {
        self.dag.max_indegree() + 1
    }
}

/// The digest returned by [`Instance::canonical_key`]: 128 bits over
/// the instance in its own node numbering, and nothing else.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CanonicalKey {
    digest: [u64; 2],
}

impl CanonicalKey {
    /// The raw 128-bit digest, as two words.
    #[inline]
    pub fn digest(&self) -> [u64; 2] {
        self.digest
    }

    /// Always `false`: the key is taken in the instance's own node
    /// numbering, so it is not invariant under node relabeling. Kept for
    /// callers that report the fraction of relabeling-invariant keys.
    #[inline]
    pub fn is_relabeling_invariant(&self) -> bool {
        false
    }

    /// The digest as 32 hex digits — the wire/logging form.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.digest[0], self.digest[1])
    }

    /// Rebuilds a key from its [`CanonicalKey::to_hex`] form — the
    /// persistence path for cache snapshots, which must restore keys
    /// without the original instance. Returns `None` unless `hex` is
    /// exactly 32 hex digits.
    pub fn from_hex(hex: &str) -> Option<CanonicalKey> {
        if hex.len() != 32 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let d0 = u64::from_str_radix(&hex[..16], 16).ok()?;
        let d1 = u64::from_str_radix(&hex[16..], 16).ok()?;
        Some(CanonicalKey { digest: [d0, d1] })
    }
}

impl fmt::Display for CanonicalKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.to_hex())
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Instance(n={}, m={}, R={}, {}",
            self.dag.n(),
            self.dag.num_edges(),
            self.red_limit,
            self.model
        )?;
        if let Some(dim) = self.mpp {
            write!(f, ", p={}, comm={}, comp={}", dim.p, dim.comm, dim.comp)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_graph::DagBuilder;

    fn star_into(n: usize) -> Dag {
        // n sources all feeding one sink: Δ = n
        let mut b = DagBuilder::new(n + 1);
        for i in 0..n {
            b.add_edge(i, n);
        }
        b.build().unwrap()
    }

    #[test]
    fn feasibility_threshold_is_delta_plus_one() {
        let inst = Instance::new(star_into(3), 4, CostModel::oneshot());
        assert!(inst.is_feasible());
        assert_eq!(inst.min_feasible_r(), 4);
        assert!(!inst.with_red_limit(3).is_feasible());
    }

    #[test]
    fn with_red_limit_shares_dag() {
        let inst = Instance::new(star_into(2), 3, CostModel::base());
        let other = inst.with_red_limit(5);
        assert_eq!(other.red_limit(), 5);
        assert!(Arc::ptr_eq(&inst.dag, &other.dag));
    }

    #[test]
    fn canonical_key_ignores_labels_and_separates_parameters() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let plain = b.build().unwrap();
        let mut b = DagBuilder::new(0);
        let x = b.add_labeled_node("x");
        let y = b.add_labeled_node("y");
        let z = b.add_labeled_node("z");
        b.add_edge_ids(x, z);
        b.add_edge_ids(y, z);
        let labeled = b.build().unwrap();

        let base = Instance::new(plain, 3, CostModel::oneshot());
        assert_eq!(
            base.canonical_key(),
            Instance::new(labeled, 3, CostModel::oneshot()).canonical_key(),
            "labels must not affect the key"
        );
        // every parameter dimension separates
        let key = base.canonical_key();
        assert_ne!(key, base.with_red_limit(4).canonical_key());
        assert_ne!(key, base.with_model(CostModel::base()).canonical_key());
        assert_ne!(
            key,
            base.with_source_convention(SourceConvention::InitiallyBlue)
                .canonical_key()
        );
        assert_ne!(
            key,
            base.with_sink_convention(SinkConvention::RequireBlue)
                .canonical_key()
        );
        assert_eq!(key.to_hex().len(), 32);
    }

    #[test]
    fn canonical_key_is_taken_in_the_own_node_numbering() {
        let dag = |edges: &[(usize, usize)]| {
            let mut b = DagBuilder::new(4);
            for &(u, v) in edges {
                b.add_edge(u, v);
            }
            Instance::new(b.build().unwrap(), 2, CostModel::base())
        };
        let chain = dag(&[(0, 1), (1, 2), (2, 3)]);
        // the same chain under the relabeling 0→2, 1→0, 2→3, 3→1: another
        // edge set, so another key (a trace of one is no trace of the other)
        let scrambled = dag(&[(2, 0), (0, 3), (3, 1)]);
        assert_ne!(chain.canonical_key(), scrambled.canonical_key());
        assert_eq!(chain.canonical_key(), chain.canonical_key());
        assert!(!chain.canonical_key().is_relabeling_invariant());
        // two 2-chains with the halves swapped: the edge set is unchanged,
        // and so is the key
        let halves = dag(&[(0, 1), (2, 3)]);
        let swapped = dag(&[(2, 3), (0, 1)]);
        assert_eq!(halves.canonical_key(), swapped.canonical_key());
    }

    #[test]
    fn canonical_key_of_pyramid3_is_pinned() {
        // pyramid(3): rows {0, 1, 2}, {3, 4}, {5}; under nodel at R = 3.
        // Cache snapshots hold keys, so the digest must never drift.
        let mut b = DagBuilder::new(6);
        for (u, v) in [(0, 3), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)] {
            b.add_edge(u, v);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::nodel());
        assert_eq!(
            inst.canonical_key().to_hex(),
            "a0f05f7f4e6242e23b5bae66ce1550b8"
        );
    }

    #[test]
    fn canonical_key_hex_round_trips() {
        let inst = Instance::new(star_into(2), 3, CostModel::base());
        let key = inst.canonical_key();
        let back = CanonicalKey::from_hex(&key.to_hex()).expect("own hex form must parse");
        assert_eq!(back, key);
        // malformed forms are rejected, not mis-parsed
        assert!(CanonicalKey::from_hex("").is_none());
        assert!(CanonicalKey::from_hex("deadbeef").is_none());
        assert!(CanonicalKey::from_hex(&"g".repeat(32)).is_none());
        assert!(CanonicalKey::from_hex(&key.to_hex()[..31]).is_none());
    }

    #[test]
    fn with_procs_normalizes_and_preserves_weights() {
        let inst = Instance::new(star_into(2), 3, CostModel::base());
        assert_eq!(inst.procs(), 1);
        assert!(inst.mpp().is_none());
        // p = 1 with default weights stays classic
        assert!(inst.with_procs(1).mpp().is_none());
        // p = 2 lifts with the default weights
        let two = inst.with_procs(2);
        let dim = two.mpp().unwrap();
        assert_eq!(two.procs(), 2);
        assert_eq!(dim.comm, Ratio::new(1, 1));
        assert_eq!(dim.comp, Ratio::ZERO);
        // dropping back to p = 1 normalizes away again
        assert!(two.with_procs(1).mpp().is_none());
        // custom weights survive a procs change and a p = 1 setting
        let custom = inst.with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(2, 1),
            comp: Ratio::new(1, 3),
        });
        let back = custom.with_procs(1);
        let dim = back.mpp().expect("custom weights must not normalize away");
        assert_eq!(dim.p, 1);
        assert_eq!(dim.comm, Ratio::new(2, 1));
        assert!(back.without_mpp().mpp().is_none());
    }

    #[test]
    fn cost_scales_default_to_the_classic_objective() {
        use crate::cost::Cost;
        let cost = Cost {
            transfers: 7,
            computes: 4,
        };
        for model in [
            CostModel::base(),
            CostModel::oneshot(),
            CostModel::compcost(),
        ] {
            let inst = Instance::new(star_into(2), 3, model);
            let eps = model.epsilon();
            assert_eq!(inst.scaled_cost(&cost), cost.scaled(eps));
            // the mpp:1 and mpp:4 lifts with default weights keep the
            // exact same scalar objective
            for p in [1, 4] {
                let lifted = inst.with_mpp(MppDim::with_default_weights(p, model));
                assert_eq!(lifted.scaled_cost(&cost), cost.scaled(eps), "p = {p}");
            }
        }
        // custom weights: comm = 3/2, comp = 1/2 over the common
        // denominator 4 give scales (6, 2)
        let inst = Instance::new(star_into(2), 3, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(3, 2),
            comp: Ratio::new(1, 2),
        });
        assert_eq!(inst.cost_scales(), (6, 2));
        assert_eq!(inst.scaled_cost(&cost), 7 * 6 + 4 * 2);
    }

    #[test]
    fn canonical_key_separates_the_mpp_dimension() {
        let inst = Instance::new(star_into(2), 3, CostModel::oneshot());
        let key = inst.canonical_key();
        // with_procs(1) is a structural no-op, so the key must agree
        assert_eq!(key, inst.with_procs(1).canonical_key());
        // the explicit p = 1 default-weight lift poses the same problem
        let one = inst.with_mpp(MppDim::with_default_weights(1, CostModel::oneshot()));
        assert_eq!(key, one.canonical_key());
        // p separates
        let two = inst.with_procs(2);
        assert_ne!(key, two.canonical_key());
        assert_ne!(two.canonical_key(), inst.with_procs(4).canonical_key());
        // weights separate at fixed p
        let weighted = inst.with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 2),
        });
        assert_ne!(two.canonical_key(), weighted.canonical_key());
    }

    #[test]
    fn conventions_default_to_paper_definitions() {
        let inst = Instance::new(star_into(2), 3, CostModel::base());
        assert_eq!(inst.source_convention(), SourceConvention::FreeCompute);
        assert_eq!(inst.sink_convention(), SinkConvention::AnyPebble);
        let alt = inst
            .with_source_convention(SourceConvention::InitiallyBlue)
            .with_sink_convention(SinkConvention::RequireBlue);
        assert_eq!(alt.source_convention(), SourceConvention::InitiallyBlue);
        assert_eq!(alt.sink_convention(), SinkConvention::RequireBlue);
    }
}
