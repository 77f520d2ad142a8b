//! Spatial joins.
//!
//! The paper processes all-pairs queries "as a spatial join using the index"
//! where "we transform all objects used in the join predicate before we
//! compute the predicate" (Section 4). Two strategies are provided:
//!
//! - [`spatial_join`] / [`spatial_join_with`] — synchronized tree↔tree
//!   traversal pruning pairs of subtrees whose (transformed) MBRs are
//!   farther apart than the distance threshold;
//! - index-nested-loop joins are composed by callers from
//!   [`RStarTree::search_with`], which is what the paper's Table 1 methods
//!   (c) and (d) do.

use std::collections::HashMap;

use tsq_store::StoreResult;

use crate::paged::PagedTree;
use crate::rect::Rect;
use crate::source::{EntryView, NodeSource, NodeView};
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// Names one stored rectangle for a whole join. Slots are numbered
/// densely as the join first meets each node — its entries, then its own
/// MBR — so per-rectangle work (a transformed MBR) can be memoized in a
/// vector indexed by slot. Both sides of a self-join share the numbering.
pub type Slot = usize;

/// Synchronized join over any two [`NodeSource`]s: [`spatial_join_with`]
/// with each rectangle's [`Slot`] passed next to it. When `a` and `b` are
/// the same source, the literally-same entry (the same slot) is skipped.
///
/// # Errors
/// Whatever either fetch reports, or [`NodeSource::empty_node`] for an
/// empty node whose MBR a mixed-level pair needs.
///
/// # Panics
/// If `eps` is negative.
pub fn join_sources<'s, SA, SB, B, OUT, E>(
    a: &'s SA,
    b: &'s SB,
    pair_bound: B,
    eps: f64,
    out: OUT,
) -> Result<SearchStats, E>
where
    SA: NodeSource<Error = E>,
    SB: NodeSource<Error = E>,
    B: FnMut(Slot, &Rect, Slot, &Rect) -> f64,
    OUT: FnMut(&Rect, SA::Item<'s>, &Rect, SB::Item<'s>),
{
    assert!(eps >= 0.0, "join distance must be non-negative");
    let mut join = SyncJoin {
        a,
        b,
        pair_bound,
        eps,
        out,
        stats: SearchStats::default(),
        slots: HashMap::new(),
        next_slot: 0,
    };
    if let (Some(ra), Some(rb)) = (a.root(), b.root()) {
        join.pair(ra, rb)?;
    }
    Ok(join.stats)
}

struct SyncJoin<'s, SA, SB, B, OUT> {
    a: &'s SA,
    b: &'s SB,
    pair_bound: B,
    eps: f64,
    out: OUT,
    stats: SearchStats,
    /// First slot of each node met so far, by side and node key.
    slots: HashMap<(bool, usize), Slot>,
    next_slot: Slot,
}

impl<'s, SA, SB, B, OUT, E> SyncJoin<'s, SA, SB, B, OUT>
where
    SA: NodeSource<Error = E>,
    SB: NodeSource<Error = E>,
    B: FnMut(Slot, &Rect, Slot, &Rect) -> f64,
    OUT: FnMut(&Rect, SA::Item<'s>, &Rect, SB::Item<'s>),
{
    /// Visits one node pair, keeping both fetched (pinned, when paged)
    /// while the pair's children are visited.
    fn pair(&mut self, ra: SA::Ref<'s>, rb: SB::Ref<'s>) -> Result<(), E> {
        let na = self.a.fetch(ra, &mut self.stats)?;
        let nb = self.b.fetch(rb, &mut self.stats)?;
        self.stats.nodes_visited += 1;
        let sa = self.first_slot(false, na.key(), na.len());
        let sb = self.first_slot(true, nb.key(), nb.len());
        if na.is_leaf() && nb.is_leaf() {
            self.stats.leaves_visited += 1;
            for ai in 0..na.len() {
                let EntryView::Leaf(rect_a, item_a) = na.entry(ai) else {
                    unreachable!("child entry in leaf")
                };
                for bi in 0..nb.len() {
                    let EntryView::Leaf(rect_b, item_b) = nb.entry(bi) else {
                        unreachable!("child entry in leaf")
                    };
                    // Skip the literally-same entry in a self-join.
                    if sa + ai == sb + bi {
                        continue;
                    }
                    self.stats.entries_tested += 1;
                    if (self.pair_bound)(sa + ai, rect_a, sb + bi, rect_b) <= self.eps {
                        self.stats.candidates += 1;
                        (self.out)(rect_a, item_a, rect_b, item_b);
                    }
                }
            }
            return Ok(());
        }
        // Pair the children of an internal side with the children of the
        // other side — or, when the other side is a leaf, with that leaf
        // itself under its MBR.
        let mbr_a = (na.is_leaf())
            .then(|| na.mbr().ok_or_else(|| self.a.empty_node()))
            .transpose()?;
        let mbr_b = (nb.is_leaf())
            .then(|| nb.mbr().ok_or_else(|| self.b.empty_node()))
            .transpose()?;
        for ai in 0..mbr_a.as_ref().map_or(na.len(), |_| 1) {
            let (slot_a, rect_a, ca) = descent(&na, sa, ra, mbr_a.as_ref(), ai);
            for bi in 0..mbr_b.as_ref().map_or(nb.len(), |_| 1) {
                let (slot_b, rect_b, cb) = descent(&nb, sb, rb, mbr_b.as_ref(), bi);
                self.stats.entries_tested += 1;
                if (self.pair_bound)(slot_a, rect_a, slot_b, rect_b) <= self.eps {
                    self.pair(ca, cb)?;
                }
            }
        }
        Ok(())
    }

    /// The first slot of a node of `len` entries; its MBR takes the slot
    /// after its entries. A self-join numbers both sides alike.
    fn first_slot(&mut self, side_b: bool, key: usize, len: usize) -> Slot {
        let side = side_b && !std::ptr::addr_eq(self.a, self.b);
        let next = &mut self.next_slot;
        *self.slots.entry((side, key)).or_insert_with(|| {
            *next += len + 1;
            *next - len - 1
        })
    }
}

/// The `i`-th descent of one side of a node pair whose first slot is
/// `first`: the node's `i`-th child, or — given the leaf's `mbr` — the
/// leaf `node` itself.
fn descent<'n, V: NodeView>(
    node: &'n V,
    first: Slot,
    me: V::Ref,
    mbr: Option<&'n Rect>,
    i: usize,
) -> (Slot, &'n Rect, V::Ref) {
    if let Some(mbr) = mbr {
        return (first + node.len(), mbr, me);
    }
    let EntryView::Child(rect, child) = node.entry(i) else {
        unreachable!("leaf entry in internal node")
    };
    (first + i, rect, child)
}

/// Synchronized R-tree join of two in-memory trees with a caller-supplied
/// **lower bound** on the distance between the objects inside two stored
/// rectangles — [`join_sources`] without the slots.
///
/// `pair_bound(ra, rb)` receives *stored* rectangles from either tree and
/// must return a value that never exceeds the true distance between any
/// object in `ra` and any object in `rb` (after whatever transformation the
/// caller applies inside the closure). Pairs with `pair_bound > eps` are
/// pruned; every surviving leaf pair is passed to `out`.
///
/// This generalization matters for the paper's polar coordinate space,
/// where coordinate-wise rectangle distance is *not* a valid bound of the
/// complex-plane distance (angles wrap), and an annular-sector bound must
/// be used instead.
///
/// When both arguments are the *same* tree, identical entries (`a` is the
/// very same slot as `b`) are skipped, but each unordered pair is still
/// reported twice — once in each order — matching the paper's Table 1
/// accounting, where the transformed self-join answer of 12 pairs is listed
/// as `12 x 2 = 24`.
pub fn spatial_join_with<'a, T, U, B, OUT>(
    a: &'a RStarTree<T>,
    b: &'a RStarTree<U>,
    mut pair_bound: B,
    eps: f64,
    mut out: OUT,
) -> SearchStats
where
    B: FnMut(&Rect, &Rect) -> f64,
    OUT: FnMut(&'a Rect, &'a T, &'a Rect, &'a U),
{
    let Ok(stats) = join_sources(
        a,
        b,
        |_, ra, _, rb| pair_bound(ra, rb),
        eps,
        |_, (ra, ia), _, (rb, ib)| out(ra, ia, rb, ib),
    );
    stats
}

/// Plain Euclidean-space join: invokes `out` for every pair of leaf entries
/// `(a, b)` whose transformed rectangles `ta(ra)`, `tb(rb)` lie within
/// Euclidean distance `eps` of each other (MBR-to-MBR distance; exact
/// point-level filtering is the caller's post-processing step, mirroring
/// Algorithm 2's structure).
pub fn spatial_join<'a, T, U, FA, FB, OUT>(
    a: &'a RStarTree<T>,
    b: &'a RStarTree<U>,
    mut ta: FA,
    mut tb: FB,
    eps: f64,
    out: OUT,
) -> SearchStats
where
    FA: FnMut(&Rect) -> Rect,
    FB: FnMut(&Rect) -> Rect,
    OUT: FnMut(&'a Rect, &'a T, &'a Rect, &'a U),
{
    spatial_join_with(
        a,
        b,
        move |ra, rb| ta(ra).rect_min_dist2(&tb(rb)).sqrt(),
        eps,
        out,
    )
}

impl PagedTree {
    /// [`join_sources`] of the paged tree with itself (the only join
    /// shape the engine runs — every `JOIN` is a single-relation
    /// self-join).
    ///
    /// # Errors
    /// Typed [`tsq_store::StoreError`]s when a page cannot be read or
    /// decodes as corrupt.
    ///
    /// # Panics
    /// If `eps` is negative, like the in-memory join.
    pub fn self_join_with<B, OUT>(
        &self,
        mut pair_bound: B,
        eps: f64,
        out: OUT,
    ) -> StoreResult<SearchStats>
    where
        B: FnMut(&Rect, &Rect) -> f64,
        OUT: FnMut(&Rect, u64, &Rect, u64),
    {
        join_sources(self, self, |_, ra, _, rb| pair_bound(ra, rb), eps, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn tree_from(points: &[[f64; 2]]) -> RStarTree<usize> {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(5));
        for (i, p) in points.iter().enumerate() {
            t.insert_point(p, i);
        }
        t
    }

    fn id(r: &Rect) -> Rect {
        r.clone()
    }

    #[test]
    fn join_finds_close_pairs() {
        let a = tree_from(&[[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]]);
        let b = tree_from(&[[0.5, 0.0], [15.0, 15.0]]);
        let mut pairs = Vec::new();
        spatial_join(&a, &b, id, id, 1.0, |_, &x, _, &y| pairs.push((x, y)));
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn join_matches_brute_force() {
        // Deterministic pseudo-random point clouds.
        let pts_a: Vec<[f64; 2]> = (0..80)
            .map(|i| [((i * 37) % 101) as f64, ((i * 53) % 97) as f64])
            .collect();
        let pts_b: Vec<[f64; 2]> = (0..60)
            .map(|i| [((i * 71) % 103) as f64, ((i * 29) % 89) as f64])
            .collect();
        let eps = 7.5;
        let brute = |pts_a: &[[f64; 2]], pts_b: &[[f64; 2]]| {
            let mut want = Vec::new();
            for (i, pa) in pts_a.iter().enumerate() {
                for (j, pb) in pts_b.iter().enumerate() {
                    let d2 = (pa[0] - pb[0]).powi(2) + (pa[1] - pb[1]).powi(2);
                    if d2 <= eps * eps {
                        want.push((i, j));
                    }
                }
            }
            want
        };
        let joined = |a: &RStarTree<usize>, b: &RStarTree<usize>| {
            let mut got = Vec::new();
            spatial_join(a, b, id, id, eps, |_, &x, _, &y| got.push((x, y)));
            got.sort_unstable();
            got
        };
        let a = tree_from(&pts_a);
        let b = tree_from(&pts_b);
        assert_eq!(joined(&a, &b), brute(&pts_a, &pts_b));
        // Trees of different heights reach the mixed-level pairs (a leaf
        // against an internal node, in both orders).
        let pts_c: Vec<[f64; 2]> = (0..12)
            .map(|i| [((i * 41) % 97) as f64, ((i * 13) % 83) as f64])
            .collect();
        let c = tree_from(&pts_c);
        assert_ne!(
            a.height(),
            c.height(),
            "the mixed-level pair needs unequal heights"
        );
        assert_eq!(joined(&a, &c), brute(&pts_a, &pts_c));
        assert_eq!(joined(&c, &a), brute(&pts_c, &pts_a));
    }

    #[test]
    fn self_join_reports_each_pair_twice() {
        let pts: Vec<[f64; 2]> = vec![[0.0, 0.0], [0.5, 0.0], [100.0, 100.0]];
        let t = tree_from(&pts);
        let mut pairs = Vec::new();
        spatial_join(&t, &t, id, id, 1.0, |_, &x, _, &y| pairs.push((x, y)));
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn transformed_join() {
        // Side b is reflected through the origin before matching: pairs are
        // (p, q) with |p + q| <= eps — the paper's T_rev hedging query.
        let a = tree_from(&[[1.0, 2.0], [5.0, 5.0]]);
        let b = tree_from(&[[-1.0, -2.0], [4.0, 4.0]]);
        let mut pairs = Vec::new();
        spatial_join(
            &a,
            &b,
            id,
            |r| r.affine(&[-1.0, -1.0], &[0.0, 0.0]),
            0.1,
            |_, &x, _, &y| pairs.push((x, y)),
        );
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn join_with_empty_tree() {
        let a = tree_from(&[[0.0, 0.0]]);
        let b: RStarTree<usize> = RStarTree::default();
        let mut called = false;
        spatial_join(&a, &b, id, id, 10.0, |_, _, _, _| called = true);
        assert!(!called);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_eps_panics() {
        let a = tree_from(&[[0.0, 0.0]]);
        spatial_join(&a, &a, id, id, -1.0, |_, _, _, _| {});
    }

    #[test]
    fn join_prunes_subtrees() {
        // Two distant clusters: the cross-cluster subtree pairs must be
        // pruned, so entry tests stay far below the n*m worst case.
        let pts_a: Vec<[f64; 2]> = (0..100)
            .map(|i| [i as f64 % 10.0, (i / 10) as f64])
            .collect();
        let pts_b: Vec<[f64; 2]> = pts_a
            .iter()
            .map(|p| [p[0] + 1000.0, p[1] + 1000.0])
            .collect();
        let mut both = pts_a.clone();
        both.extend_from_slice(&pts_b);
        let t = tree_from(&both);
        let stats = spatial_join(&t, &t, id, id, 2.0, |_, _, _, _| {});
        assert!(
            stats.entries_tested < 200 * 200 / 4,
            "join should prune: {} tests",
            stats.entries_tested
        );
    }

    #[test]
    fn custom_bound_join() {
        // A bound of zero disables pruning: every cross pair is reported.
        let a = tree_from(&[[0.0, 0.0], [5.0, 5.0]]);
        let b = tree_from(&[[100.0, 100.0]]);
        let mut n = 0;
        spatial_join_with(&a, &b, |_, _| 0.0, 0.5, |_, _, _, _| n += 1);
        assert_eq!(n, 2);
    }
}
