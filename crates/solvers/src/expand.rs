//! The move generator of the exact search.
//!
//! The Dijkstra/A* search ([`crate::exact`]) explores one configuration
//! graph for every exact-family spec; this module owns its definition. An
//! [`Expander`] packages everything that is a pure function of the
//! instance — key layout, move guards, edge prices, the
//! optimality-preserving prunes, and the incremental ±delta bookkeeping
//! ([`Meta`]) — so every exact-family spec generates byte-identical
//! successor keys with identical metadata, and the subtle per-model rules
//! are written (and tested) exactly once.
//!
//! The expander is deliberately storage-agnostic: it does not know about
//! arenas, heaps, or distances. [`Expander::expand`] walks the legal moves
//! of a popped state and hands each successor `(key, move, edge cost,
//! meta)` to a caller-supplied sink, which interns and relaxes it in the
//! search's [`crate::arena::StateArena`].
//!
//! ## Key layout
//! A key is `planes` red planes, then the blue set, then (oneshot only)
//! the computed set, each [`rbp_graph::words_for`]`(n)` words wide. The
//! classic game searches one plane. The multiprocessor game
//! (`exact@mpp`, [`rbp_core::State::apply_on`]) searches one plane per
//! processor: that processor's private red memory over the shared blue
//! one. A value lives in exactly one memory — blue, or red on exactly
//! one plane — so at one plane the layout is the classic
//! `(red, blue[, computed])`.
//!
//! ## Pricing
//! Every edge is priced with [`Instance::cost_scales`]: `comm` per load
//! or store, `comp` per compute, nothing per delete. Classic instances
//! and default-weight multiprocessor ones get `(den(ε), num(ε))`;
//! weighted `instance v2` documents search their own objective
//! `transfers·comm + computes·comp`.
//!
//! ## Rules by plane count
//! - **One plane**: every prune documented in [`crate::exact`] and the
//!   oneshot A* heuristic.
//! - **More than one plane**: only "never delete a blue pebble" (under
//!   `prune`; dropping shared data frees no private capacity). The
//!   oneshot usefulness and dead-state prunes and the heuristic reason
//!   about one red set and are off. Successors come node-major,
//!   processor-minor: store, delete, load, compute, then the unpruned
//!   blue delete.
//!
//! See the [`crate::exact`] module docs for the prune rules and the A*
//! heuristic; the documentation there is normative for the code here.

use crate::error::SolveError;
use rbp_core::{Instance, ModelKind, Move, SourceConvention};
use rbp_graph::NodeId;

/// The incrementally maintained metadata of one state: carried from a
/// popped state to each successor as ±deltas instead of being rescanned.
///
/// Each field is a pure function of the state key, so it is stored once
/// at intern time regardless of which path reaches the state first; debug builds assert every delta against a
/// full rescan ([`Expander::meta_scan`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Number of red pebbles in the state, over all planes.
    pub red: u32,
    /// Number of sinks violating the finishing convention; the state is a
    /// goal iff this is 0.
    pub unsat: u32,
    /// The admissible A* heuristic value in scaled units (0 when A* is
    /// off, the model is not oneshot, or more than one plane is searched).
    pub heur: u64,
}

impl Meta {
    /// Whether the state satisfies the finishing convention.
    #[inline]
    pub fn is_goal(self) -> bool {
        self.unsat == 0
    }

    /// Applies a signed delta to the unsatisfied-sink count.
    #[inline]
    fn bump_unsat(self, delta: i32) -> u32 {
        (self.unsat as i32 + delta) as u32
    }
}

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

#[inline]
fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// The per-instance move generator of the exact search.
///
/// Construction precomputes the key layout and per-node static tables;
/// the struct also owns the scratch buffers of the expansion hot path
/// (a few `Vec`s sized by the instance, not by the search).
pub struct Expander<'a> {
    instance: &'a Instance,
    n: usize,
    wpn: usize,       // words per node-set
    planes: usize,    // red planes: 1, or the processors searched
    blue_off: usize,  // planes · wpn: where the blue set starts
    comp_off: usize,  // blue_off + wpn: where the computed set starts
    key_words: usize, // (planes + 1 [+ 1 oneshot]) · wpn
    /// Whether the model is oneshot (the computed set is tracked).
    oneshot: bool,
    /// Whether the single-plane oneshot rules apply: the usefulness and
    /// dead-state prunes (under `prune`) and the A* count (under
    /// `astar`). Off at more than one plane.
    oneshot_rules: bool,
    /// Whether the A* heuristic is live (`astar` requested and
    /// `oneshot_rules`); when false every computed `heur` is 0.
    astar: bool,
    /// Whether the optimality-preserving prunes are on.
    prune: bool,
    /// Whether sinks must end blue ([`rbp_core::SinkConvention`]).
    need_blue: bool,
    /// Edge prices ([`Instance::cost_scales`]).
    comm: u64,
    comp: u64,
    // reusable scratch (no per-expansion allocation)
    scratch: Vec<u64>,
    /// Dead-state reachability words (`avail` bit per node), reused.
    avail: Vec<u64>,
    /// Red count per plane of the state being expanded (several planes
    /// only), reused.
    counts: Vec<u32>,
    // per-node static info
    sinks: Vec<bool>,
    sink_ids: Vec<u32>,
    topo: Vec<NodeId>,
}

impl<'a> Expander<'a> {
    /// Builds the move generator for `instance` over `planes` red planes
    /// (1 for the classic game, the processor count for the
    /// multiprocessor one). `prune` enables the optimality-preserving
    /// prunes; `astar` requests the admissible oneshot heuristic (ignored
    /// for other models and at more than one plane).
    pub fn new(instance: &'a Instance, planes: usize, prune: bool, astar: bool) -> Self {
        assert!(planes >= 1, "an exact search covers at least one plane");
        let n = instance.dag().n();
        let wpn = rbp_graph::words_for(n);
        debug_assert_eq!(wpn, instance.dag().mask_words());
        let oneshot = instance.model().kind() == ModelKind::Oneshot;
        let oneshot_rules = oneshot && planes == 1;
        let key_words = (planes + 1 + usize::from(oneshot)) * wpn;
        let (comm, comp) = instance.cost_scales();
        let sinks: Vec<bool> = instance
            .dag()
            .nodes()
            .map(|v| instance.dag().is_sink(v))
            .collect();
        let sink_ids = sinks
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| i as u32)
            .collect();
        Expander {
            instance,
            n,
            wpn,
            planes,
            blue_off: planes * wpn,
            comp_off: (planes + 1) * wpn,
            key_words,
            oneshot,
            oneshot_rules,
            astar: astar && oneshot_rules,
            prune,
            need_blue: instance.sink_convention() == rbp_core::SinkConvention::RequireBlue,
            comm,
            comp,
            scratch: vec![0; key_words],
            avail: vec![0; wpn],
            counts: vec![0; planes],
            sinks,
            sink_ids,
            topo: rbp_graph::topological_order(instance.dag()),
        }
    }

    /// Width of every state key, in `u64` words.
    #[inline]
    pub fn key_words(&self) -> usize {
        self.key_words
    }

    #[inline]
    fn is_blue(&self, key: &[u64], v: usize) -> bool {
        bit_get(&key[self.blue_off..], v)
    }

    #[inline]
    fn is_pebbled(&self, key: &[u64], v: usize) -> bool {
        self.is_blue(key, v) || (0..self.planes).any(|i| bit_get(&key[i * self.wpn..], v))
    }

    /// Whether `v` was ever computed. Only oneshot forbids recomputation,
    /// so only oneshot keys track it.
    #[inline]
    fn is_computed(&self, key: &[u64], v: usize) -> bool {
        debug_assert!(self.oneshot);
        bit_get(&key[self.comp_off..], v)
    }

    /// The initial configuration key under the instance's source
    /// convention.
    pub fn initial_key(&self) -> Vec<u64> {
        let mut key = vec![0u64; self.key_words];
        if self.instance.source_convention() == SourceConvention::InitiallyBlue {
            let (blue, comp) = (self.blue_off, self.comp_off);
            for v in self.instance.dag().sources() {
                bit_set(&mut key[blue..], v.index());
                if self.oneshot {
                    bit_set(&mut key[comp..], v.index());
                }
            }
        }
        key
    }

    /// Whether `v` still has a successor that is uncomputed, as one
    /// `ANDN` loop over the packed successor mask (oneshot only).
    #[inline]
    fn has_uncomputed_successor(&self, key: &[u64], v: usize) -> bool {
        let mask = self.instance.dag().succ_mask(NodeId::new(v));
        let computed = &key[self.comp_off..];
        mask.iter().zip(computed).any(|(m, c)| m & !c != 0)
    }

    /// Full rescan of all three metadata fields; root initialization and
    /// debug asserts only — the hot path maintains them by deltas.
    pub fn meta_scan(&self, key: &[u64]) -> Meta {
        let red = key[..self.blue_off]
            .iter()
            .map(|w| w.count_ones())
            .sum::<u32>();
        let unsat = self
            .sink_ids
            .iter()
            .filter(|&&s| {
                let v = s as usize;
                if self.need_blue {
                    !self.is_blue(key, v)
                } else {
                    !self.is_pebbled(key, v)
                }
            })
            .count() as u32;
        let mut heur = 0u64;
        if self.astar {
            for v in 0..self.n {
                if self.is_blue(key, v) && self.has_uncomputed_successor(key, v) {
                    heur += self.comm;
                }
            }
        }
        Meta { red, unsat, heur }
    }

    /// Oneshot dead-state check (prune rule 4): is any sink permanently
    /// unreachable? Always `false` unless the single-plane oneshot prunes
    /// are on, so callers need not gate it.
    #[inline]
    pub fn is_dead(&mut self, key: &[u64]) -> bool {
        self.prune && self.oneshot_rules && self.dead_scan(key)
    }

    /// The reachability scan behind [`Expander::is_dead`]. Reuses
    /// `self.avail` (one reachability bit per node) instead of
    /// allocating, and gates each node on its packed pred mask.
    fn dead_scan(&mut self, key: &[u64]) -> bool {
        let dag = self.instance.dag();
        // one plane: the red set is the first node-set of the key
        let pebbled = |v: usize| bit_get(key, v) || bit_get(&key[self.blue_off..], v);
        self.avail.iter_mut().for_each(|w| *w = 0);
        // avail[v]: v's value can (still) be made red at some point
        for &v in &self.topo {
            let i = v.index();
            let ok = if self.is_computed(key, i) {
                pebbled(i)
            } else {
                dag.pred_mask(v)
                    .iter()
                    .zip(self.avail.iter())
                    .all(|(p, a)| p & !a == 0)
            };
            if ok {
                self.avail[i / 64] |= 1 << (i % 64);
            }
        }
        self.sink_ids.iter().any(|&s| {
            let v = s as usize;
            if self.is_computed(key, v) {
                !pebbled(v)
            } else {
                !bit_get(&self.avail, v)
            }
        })
    }

    /// The plane (processor) the move `mv` from state `from` to state `to`
    /// acted on: the plane where the moved node's red bit differs. Blue
    /// deletes, and every move at one plane, act on plane 0.
    pub fn plane_of(&self, from: &[u64], to: &[u64], mv: Move) -> u16 {
        let v = mv.node().index();
        (0..self.planes)
            .find(|&i| bit_get(&from[i * self.wpn..], v) != bit_get(&to[i * self.wpn..], v))
            .unwrap_or(0) as u16
    }

    /// Generates every (pruned-)legal successor of `(key, meta)` and
    /// hands each one to `emit` as `(successor key, move, scaled edge
    /// cost, successor meta)`. The successor key slice borrows the
    /// expander's scratch buffer: sinks must copy (or intern) it before
    /// returning.
    ///
    /// Errors from `emit` (e.g. a state budget trip) abort the expansion
    /// and propagate.
    pub fn expand<F>(&mut self, key: &[u64], meta: Meta, emit: F) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u64, Meta) -> Result<(), SolveError>,
    {
        // one loop, compiled twice: with the plane count known to be 1,
        // the classic search pays nothing for the per-plane generality
        if self.planes == 1 {
            self.expand_planes::<true, F>(key, meta, emit)
        } else {
            self.expand_planes::<false, F>(key, meta, emit)
        }
    }

    /// [`Expander::expand`] with the plane count fixed to 1 when
    /// `ONE_PLANE`.
    fn expand_planes<const ONE_PLANE: bool, F>(
        &mut self,
        key: &[u64],
        meta: Meta,
        mut emit: F,
    ) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u64, Meta) -> Result<(), SolveError>,
    {
        let planes = if ONE_PLANE { 1 } else { self.planes };
        let allows_delete = self.instance.model().allows_delete();
        let r_limit = self.instance.red_limit() as u32;
        let (wpn, blue_off) = (self.wpn, self.blue_off);
        // the single-plane oneshot prunes (rules 2 and 3)
        let prune_oneshot = self.prune && self.oneshot_rules;
        // the metadata carries the total red count, which is the one
        // plane's count in the classic game; several planes count each
        if !ONE_PLANE {
            for (i, count) in self.counts.iter_mut().enumerate() {
                *count = key[i * wpn..(i + 1) * wpn]
                    .iter()
                    .map(|w| w.count_ones())
                    .sum();
            }
        }

        for v in 0..self.n {
            let node = NodeId::new(v);
            let is_sink = self.sinks[v];
            if let Some(i) = (0..planes).find(|&i| bit_get(&key[i * wpn..], v)) {
                let unc = self.oneshot_rules && self.has_uncomputed_successor(key, v);
                // Store(i, v): red -> blue
                if !prune_oneshot || is_sink || unc {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[i * wpn..], v);
                    bit_set(&mut self.scratch[blue_off..], v);
                    let child = Meta {
                        red: meta.red - 1,
                        // a red sink only counts as satisfied under
                        // AnyPebble; turning it blue satisfies RequireBlue
                        unsat: meta.bump_unsat(if is_sink && self.need_blue { -1 } else { 0 }),
                        // v is now blue; if it still has an uncomputed
                        // successor it joins the heuristic count
                        heur: meta.heur + if self.astar && unc { self.comm } else { 0 },
                    };
                    emit(&self.scratch, Move::Store(node), self.comm, child)?;
                }
                // Delete(i, v) of a red pebble
                if allows_delete && !(prune_oneshot && (is_sink || unc)) {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[i * wpn..], v);
                    let child = Meta {
                        red: meta.red - 1,
                        unsat: meta.bump_unsat(if is_sink && !self.need_blue { 1 } else { 0 }),
                        heur: meta.heur, // blue set unchanged
                    };
                    emit(&self.scratch, Move::Delete(node), 0, child)?;
                }
                continue;
            }
            let blue = self.is_blue(key, v);
            let unc = blue && self.oneshot_rules && self.has_uncomputed_successor(key, v);
            let delete_blue = blue && allows_delete && !self.prune;
            for i in 0..planes {
                let count = if ONE_PLANE { meta.red } else { self.counts[i] };
                // Load(i, v): blue -> red
                if blue && count < r_limit && (!prune_oneshot || unc) {
                    self.scratch.copy_from_slice(key);
                    bit_clear(&mut self.scratch[blue_off..], v);
                    bit_set(&mut self.scratch[i * wpn..], v);
                    let child = Meta {
                        red: meta.red + 1,
                        // a blue sink was satisfied either way; as red it
                        // fails RequireBlue
                        unsat: meta.bump_unsat(if is_sink && self.need_blue { 1 } else { 0 }),
                        heur: meta.heur - if self.astar && unc { self.comm } else { 0 },
                    };
                    emit(&self.scratch, Move::Load(node), self.comm, child)?;
                }
                // the classic search tries the blue delete before the
                // compute; the multiprocessor one after every plane
                if ONE_PLANE && delete_blue {
                    self.delete_blue(key, v, meta, unc, &mut emit)?;
                }
                // Compute(i, v), onto an empty node or over a blue pebble
                if count < r_limit {
                    self.try_compute(key, v, i, meta, &mut emit)?;
                }
            }
            if !ONE_PLANE && delete_blue {
                self.delete_blue(key, v, meta, unc, &mut emit)?;
            }
        }
        Ok(())
    }

    /// Delete of the blue pebble on `v`; callers emit it only unpruned
    /// (prune rule 1: it is dominated). Blue memory is shared, so the
    /// move is emitted once, on plane 0.
    fn delete_blue<F>(
        &mut self,
        key: &[u64],
        v: usize,
        meta: Meta,
        unc: bool,
        emit: &mut F,
    ) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u64, Meta) -> Result<(), SolveError>,
    {
        let blue_off = self.blue_off;
        self.scratch.copy_from_slice(key);
        bit_clear(&mut self.scratch[blue_off..], v);
        let child = Meta {
            red: meta.red,
            unsat: meta.bump_unsat(if self.sinks[v] { 1 } else { 0 }),
            heur: meta.heur - if self.astar && unc { self.comm } else { 0 },
        };
        emit(&self.scratch, Move::Delete(NodeId::new(v)), 0, child)
    }

    /// Compute of `v` on plane `i`, when legal: `v` holds no red pebble
    /// and plane `i` has room (the caller's guards), recomputation and
    /// the source convention allow it, and every input is red on plane
    /// `i`.
    fn try_compute<F>(
        &mut self,
        key: &[u64],
        v: usize,
        i: usize,
        meta: Meta,
        emit: &mut F,
    ) -> Result<(), SolveError>
    where
        F: FnMut(&[u64], Move, u64, Meta) -> Result<(), SolveError>,
    {
        let node = NodeId::new(v);
        let model = self.instance.model();
        if !model.allows_recompute() && self.is_computed(key, v) {
            return Ok(());
        }
        if self.instance.source_convention() == SourceConvention::InitiallyBlue
            && self.instance.dag().is_source(node)
        {
            return Ok(());
        }
        // all inputs red: pred_mask ANDN red-words must be empty
        let plane = i * self.wpn;
        if self
            .instance
            .dag()
            .pred_mask(node)
            .iter()
            .zip(&key[plane..plane + self.wpn])
            .any(|(p, r)| p & !r != 0)
        {
            return Ok(());
        }
        let was_blue = self.is_blue(key, v);
        let (blue_off, comp_off) = (self.blue_off, self.comp_off);
        self.scratch.copy_from_slice(key);
        bit_clear(&mut self.scratch[blue_off..], v); // replace blue if any
        bit_set(&mut self.scratch[plane..], v);
        if self.oneshot {
            bit_set(&mut self.scratch[comp_off..], v);
        }
        let is_sink = self.sinks[v];
        let d_unsat = match (is_sink, self.need_blue, was_blue) {
            (false, _, _) => 0,
            (true, true, true) => 1,    // satisfied blue sink turns red
            (true, true, false) => 0,   // still not blue
            (true, false, true) => 0,   // pebbled before and after
            (true, false, false) => -1, // newly pebbled
        };
        // The heuristic is unchanged by a compute: `v` itself was not
        // blue (in oneshot every pebbled node is computed and computed
        // nodes are not recomputable), and the only other nodes whose
        // "has an uncomputed successor" status could flip are `v`'s
        // predecessors — which the guard above requires to be red, hence
        // not blue, hence outside the blue-node count either way.
        let child = Meta {
            red: meta.red + 1,
            unsat: meta.bump_unsat(d_unsat),
            heur: meta.heur,
        };
        emit(&self.scratch, Move::Compute(node), self.comp, child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn meta_scan_matches_every_emitted_delta() {
        // walk two expansion levels from the root on every model and
        // check the ±delta metadata against the rescan
        for kind in ModelKind::ALL {
            let inst = Instance::new(generate::chain(6), 2, CostModel::of_kind(kind));
            let mut exp = Expander::new(&inst, 1, true, true);
            let root = exp.initial_key();
            let root_meta = exp.meta_scan(&root);
            let mut frontier: Vec<(Vec<u64>, Meta)> = vec![(root, root_meta)];
            for _ in 0..2 {
                let mut next = Vec::new();
                for (key, meta) in frontier {
                    exp.expand(&key, meta, |succ, _mv, _cost, child| {
                        next.push((succ.to_vec(), child));
                        Ok(())
                    })
                    .unwrap();
                }
                for (key, meta) in &next {
                    let scan = {
                        let e = Expander::new(&inst, 1, true, true);
                        e.meta_scan(key)
                    };
                    assert_eq!(*meta, scan, "delta metadata drifted from rescan ({kind})");
                }
                frontier = next;
            }
        }
    }

    #[test]
    fn meta_deltas_hold_across_planes() {
        // the multiprocessor key: walk three levels at p = 2 and p = 3,
        // pruned and unpruned, under both finishing conventions
        for kind in ModelKind::ALL {
            for need_blue in [false, true] {
                let mut inst = Instance::new(generate::chain(4), 2, CostModel::of_kind(kind));
                if need_blue {
                    inst = inst.with_sink_convention(rbp_core::SinkConvention::RequireBlue);
                }
                for (planes, prune) in [(2, true), (2, false), (3, false)] {
                    let mut exp = Expander::new(&inst, planes, prune, true);
                    let check = Expander::new(&inst, planes, prune, true);
                    let root = exp.initial_key();
                    let mut frontier = vec![(root.clone(), exp.meta_scan(&root))];
                    for _ in 0..3 {
                        let mut next = Vec::new();
                        for (key, meta) in frontier {
                            exp.expand(&key, meta, |succ, mv, _cost, child| {
                                assert_eq!(
                                    child,
                                    check.meta_scan(succ),
                                    "{kind} p={planes} {mv:?}"
                                );
                                assert_eq!(child.heur, 0, "no heuristic at p > 1");
                                next.push((succ.to_vec(), child));
                                Ok(())
                            })
                            .unwrap();
                        }
                        frontier = next;
                    }
                }
            }
        }
    }

    #[test]
    fn plane_of_names_the_processor_that_moved() {
        let inst = Instance::new(generate::chain(2), 2, CostModel::base());
        let mut exp = Expander::new(&inst, 2, true, false);
        let root = exp.initial_key();
        let meta = exp.meta_scan(&root);
        let mut seen = Vec::new();
        exp.expand(&root, meta, |succ, mv, _, _| {
            seen.push((succ.to_vec(), mv));
            Ok(())
        })
        .unwrap();
        // the source can be computed on either processor, in plane order
        let planes: Vec<u16> = seen
            .iter()
            .map(|(succ, mv)| exp.plane_of(&root, succ, *mv))
            .collect();
        assert_eq!(planes, vec![0, 1]);
    }

    #[test]
    fn goal_states_have_zero_heuristic() {
        // at a goal every node is computed, so the A* count is empty —
        // the incumbent cutoff, which compares f against goal distances
        // g, relies on this
        let inst = Instance::new(generate::chain(3), 2, CostModel::oneshot());
        let exp = Expander::new(&inst, 1, true, true);
        let mut key = vec![0u64; exp.key_words()];
        // all computed, sink red: a satisfied final configuration
        key[0] = 0b100; // red = {2}
        key[2] = 0b111; // computed = all
        let meta = exp.meta_scan(&key);
        assert!(meta.is_goal());
        assert_eq!(meta.heur, 0);
    }
}
