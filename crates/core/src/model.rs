//! The four red-blue pebbling model variants (paper Sections 1 and 4,
//! Table 1).

use crate::cost::Ratio;
use std::fmt;

/// Which model variant governs a pebbling (Table 1). The discriminants
/// are part of [`crate::Instance::canonical_key`], so they never change.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ModelKind {
    /// Baseline model: compute and delete are free and unrestricted.
    Base = 0,
    /// Each node may be computed at most once ("red-blue-white pebbling").
    Oneshot = 1,
    /// Deletions are forbidden; recomputation replaces blue pebbles.
    NoDel = 2,
    /// Computation costs ε (0 < ε < 1); otherwise like base.
    CompCost = 3,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ModelKind::Base => "base",
            ModelKind::Oneshot => "oneshot",
            ModelKind::NoDel => "nodel",
            ModelKind::CompCost => "compcost",
        };
        f.pad(s)
    }
}

impl ModelKind {
    /// All four variants, in paper order.
    pub const ALL: [ModelKind; 4] = [
        ModelKind::Base,
        ModelKind::Oneshot,
        ModelKind::NoDel,
        ModelKind::CompCost,
    ];
}

/// A fully-specified cost model: the variant plus its ε (meaningful for
/// [`ModelKind::CompCost`] only; zero otherwise).
///
/// The per-operation costs realized by this type are exactly Table 1:
///
/// | model    | blue→red | red→blue | compute          | delete |
/// |----------|----------|----------|------------------|--------|
/// | base     | 1        | 1        | 0                | 0      |
/// | oneshot  | 1        | 1        | 0, once per node | 0      |
/// | nodel    | 1        | 1        | 0                | ∞ (forbidden) |
/// | compcost | 1        | 1        | ε                | 0      |
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CostModel {
    kind: ModelKind,
    epsilon: Ratio,
}

impl CostModel {
    /// The paper's default ε = 1/100 ("cache is roughly 100 times faster
    /// than a bus access", Section 4).
    pub const DEFAULT_EPSILON: (u64, u64) = (1, 100);

    /// The base model.
    pub fn base() -> Self {
        CostModel {
            kind: ModelKind::Base,
            epsilon: Ratio::ZERO,
        }
    }

    /// The oneshot model.
    pub fn oneshot() -> Self {
        CostModel {
            kind: ModelKind::Oneshot,
            epsilon: Ratio::ZERO,
        }
    }

    /// The no-deletion model.
    pub fn nodel() -> Self {
        CostModel {
            kind: ModelKind::NoDel,
            epsilon: Ratio::ZERO,
        }
    }

    /// The compcost model with the default ε = 1/100.
    pub fn compcost() -> Self {
        let (n, d) = Self::DEFAULT_EPSILON;
        Self::compcost_with(Ratio::new(n, d))
    }

    /// The compcost model with a custom ε; requires 0 < ε < 1.
    pub fn compcost_with(epsilon: Ratio) -> Self {
        assert!(
            !epsilon.is_zero() && epsilon < Ratio::new(1, 1),
            "compcost requires 0 < ε < 1, got {epsilon}"
        );
        CostModel {
            kind: ModelKind::CompCost,
            epsilon,
        }
    }

    /// Builds the model of the given kind with default parameters.
    pub fn of_kind(kind: ModelKind) -> Self {
        match kind {
            ModelKind::Base => Self::base(),
            ModelKind::Oneshot => Self::oneshot(),
            ModelKind::NoDel => Self::nodel(),
            ModelKind::CompCost => Self::compcost(),
        }
    }

    /// The model variant.
    #[inline]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The compute cost: ε for compcost, zero for the others.
    #[inline]
    pub fn epsilon(&self) -> Ratio {
        self.epsilon
    }

    /// Whether a node may be computed more than once.
    #[inline]
    pub fn allows_recompute(&self) -> bool {
        self.kind != ModelKind::Oneshot
    }

    /// Whether pebbles may be deleted (Step 4 available).
    #[inline]
    pub fn allows_delete(&self) -> bool {
        self.kind != ModelKind::NoDel
    }

    /// Whether computation carries a nonzero cost.
    #[inline]
    pub fn compute_costs(&self) -> bool {
        !self.epsilon.is_zero()
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == ModelKind::CompCost {
            write!(f, "compcost(ε={})", self.epsilon)
        } else {
            write!(f, "{}", self.kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_capabilities() {
        // base: recompute yes, delete yes, compute free
        let base = CostModel::base();
        assert!(base.allows_recompute() && base.allows_delete() && !base.compute_costs());
        // oneshot: recompute NO, delete yes, compute free
        let oneshot = CostModel::oneshot();
        assert!(!oneshot.allows_recompute());
        assert!(oneshot.allows_delete());
        assert!(!oneshot.compute_costs());
        // nodel: recompute yes, delete NO, compute free
        let nodel = CostModel::nodel();
        assert!(nodel.allows_recompute());
        assert!(!nodel.allows_delete());
        assert!(!nodel.compute_costs());
        // compcost: recompute yes, delete yes, compute costs ε
        let cc = CostModel::compcost();
        assert!(cc.allows_recompute() && cc.allows_delete() && cc.compute_costs());
        assert_eq!(cc.epsilon(), Ratio::new(1, 100));
    }

    #[test]
    fn custom_epsilon_accepted_in_range() {
        let cc = CostModel::compcost_with(Ratio::new(1, 3));
        assert_eq!(cc.epsilon(), Ratio::new(1, 3));
    }

    #[test]
    #[should_panic(expected = "compcost requires")]
    fn epsilon_one_rejected() {
        let _ = CostModel::compcost_with(Ratio::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "compcost requires")]
    fn epsilon_zero_rejected() {
        let _ = CostModel::compcost_with(Ratio::ZERO);
    }

    #[test]
    fn of_kind_matches_constructors() {
        for kind in ModelKind::ALL {
            assert_eq!(CostModel::of_kind(kind).kind(), kind);
        }
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ModelKind::Base.to_string(), "base");
        assert_eq!(ModelKind::Oneshot.to_string(), "oneshot");
        assert_eq!(ModelKind::NoDel.to_string(), "nodel");
        assert_eq!(ModelKind::CompCost.to_string(), "compcost");
        assert_eq!(CostModel::compcost().to_string(), "compcost(ε=1/100)");
    }
}
