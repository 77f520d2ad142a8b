//! Best-first nearest-neighbor search (Roussopoulos–Kelley–Vincent style
//! pruning generalized to the incremental best-first algorithm), with the
//! exact refine bounded by the running `k`-th distance.
//!
//! Distances are pluggable: the caller supplies a *lower bound* for node
//! MBRs and an *exact* distance for leaf entries. For plain Euclidean KNN
//! these are `MINDIST` and the point distance; for the paper's transformed
//! queries (`find the k series most similar to q under T`), `tsq-core`
//! passes bounds computed on transformed rectangles, which keeps the search
//! correct with no false dismissals.
//!
//! The heap holds nodes only. Expanding a leaf refines each of its entries
//! against the current `k`-th distance (`+∞` until `k` results exist), and
//! a survivor goes straight into the sorted top-`k` list. The exact
//! closure receives that bound, so it may stop summing once the distance
//! is certainly larger (the early abandoning of the paper's Section 5).
//! Contract: the closure returns `None` only when the exact distance is
//! *strictly* greater than the bound; it may return `Some(d)` with
//! `d > bound`, and such an offer simply does not make the top `k`.
//!
//! The loop stops when a popped node's lower bound is strictly greater
//! than the `k`-th distance. With a bound that never decreases from a
//! node to its children (MINDIST over nested rectangles), the search
//! therefore expands exactly the nodes whose lower bound is at most the
//! final `k`-th distance — the same nodes an unbounded refine expands —
//! and examines every item tied at the boundary.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tsq_store::StoreResult;

use crate::paged::PagedTree;
use crate::rect::Rect;
use crate::source::{EntryView, NodeSource, NodeView};
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// One nearest-neighbor result: a borrowed rectangle and item from the
/// in-memory tree, an owned rectangle and the payload word from the paged
/// tree (whose page may be evicted before the caller looks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor<R, I> {
    /// Exact distance reported by the caller's distance function.
    pub distance: f64,
    /// Stored bounding rectangle of the item.
    pub rect: R,
    /// The item.
    pub item: I,
}

/// A node waiting on the best-first heap at its lower-bound distance.
struct Queued<N> {
    dist: f64,
    node: N,
}

impl<N> PartialEq for Queued<N> {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl<N> Eq for Queued<N> {}
impl<N> PartialOrd for Queued<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for Queued<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need smallest distance first.
        other.dist.total_cmp(&self.dist)
    }
}

/// The running answer of a best-first search: the `k` smallest offers by
/// `(distance, key)`, ascending.
struct TopK<N> {
    k: usize,
    best: Vec<(f64, u64, N)>,
    /// Offers dropped from the list whose distance equals the current
    /// `k`-th distance (boundary ties lost on the key).
    tied_drops: u64,
}

impl<N> TopK<N> {
    fn new(k: usize) -> Self {
        TopK {
            k,
            best: Vec::new(),
            tied_drops: 0,
        }
    }

    /// The refine bound: the `k`-th distance once `k` results exist, `+∞`
    /// before that.
    fn bound(&self) -> f64 {
        if self.best.len() == self.k {
            self.best[self.k - 1].0
        } else {
            f64::INFINITY
        }
    }

    fn offer(&mut self, distance: f64, key: u64, neighbor: N) {
        let before = self.bound();
        let pos = self
            .best
            .binary_search_by(|(d, pk, _)| d.total_cmp(&distance).then(pk.cmp(&key)))
            .unwrap_or_else(|p| p);
        let dropped = if pos == self.k {
            distance
        } else {
            self.best.insert(pos, (distance, key, neighbor));
            if self.best.len() <= self.k {
                return;
            }
            self.best.pop().map_or(distance, |(d, _, _)| d)
        };
        let kth = self.bound();
        if kth != before {
            self.tied_drops = 0;
        }
        if dropped == kth {
            self.tied_drops += 1;
        }
    }

    /// Offers within the final `k`-th distance: the answer plus the
    /// boundary ties it dropped. Every item closer than the final `k`-th
    /// distance is in the answer, so this is the number of examined items
    /// within that distance — [`SearchStats::candidates`] of a search that
    /// queues items at their exact distance and stops at the first one
    /// past the `k`-th.
    fn candidates(&self) -> u64 {
        self.best.len() as u64 + self.tied_drops
    }

    fn into_sorted(self) -> Vec<N> {
        self.best.into_iter().map(|(_, _, n)| n).collect()
    }
}

/// Best-first search over any [`NodeSource`]: the `k` items minimizing
/// `exact_dist`, with `bound_dist` an admissible (never over-estimating)
/// lower bound on node MBRs, as `hit(distance, rect, item)` results sorted
/// by ascending `(distance, tie_key)`.
///
/// `exact_dist(rect, item, bound)` may abandon — return `None` — once the
/// item's distance is certainly strictly greater than `bound`, the
/// current `k`-th distance (`+∞` until `k` results exist); see the
/// [module docs](self). The loop only prunes nodes strictly beyond the
/// `k`-th distance, so every item tied at the boundary is examined and
/// the smallest keys win the boundary slots.
///
/// # Errors
/// Whatever the source's fetch reports.
pub fn nearest_source<'s, S, B, E, K, H, N>(
    src: &'s S,
    k: usize,
    mut bound_dist: B,
    mut exact_dist: E,
    mut tie_key: K,
    mut hit: H,
) -> Result<(Vec<N>, SearchStats), S::Error>
where
    S: NodeSource,
    B: FnMut(&Rect) -> f64,
    E: FnMut(&Rect, S::Item<'s>, f64) -> Option<f64>,
    K: FnMut(S::Item<'s>) -> u64,
    H: FnMut(f64, &Rect, S::Item<'s>) -> N,
{
    let mut stats = SearchStats::default();
    let Some(root) = src.root().filter(|_| k > 0) else {
        return Ok((Vec::new(), stats));
    };
    let mut top = TopK::new(k);
    let mut heap = BinaryHeap::new();
    heap.push(Queued {
        dist: 0.0,
        node: root,
    });
    while let Some(Queued { dist, node }) = heap.pop() {
        if dist > top.bound() {
            break; // nothing on the heap can beat the current k-th
        }
        let node = src.fetch(node, &mut stats)?;
        stats.nodes_visited += 1;
        if node.is_leaf() {
            stats.leaves_visited += 1;
        }
        for i in 0..node.len() {
            stats.entries_tested += 1;
            match node.entry(i) {
                EntryView::Leaf(rect, item) => {
                    if let Some(distance) = exact_dist(rect, item, top.bound()) {
                        let key = tie_key(item);
                        top.offer(distance, key, hit(distance, rect, item));
                    }
                }
                EntryView::Child(rect, child) => heap.push(Queued {
                    dist: bound_dist(rect),
                    node: child,
                }),
            }
        }
    }
    stats.candidates = top.candidates();
    Ok((top.into_sorted(), stats))
}

impl<T> RStarTree<T> {
    /// Returns the `k` items minimizing `exact_dist`, using `bound_dist` as
    /// an admissible (never over-estimating) lower bound on node MBRs.
    ///
    /// `exact_dist(rect, item, bound)` may abandon — return `None` — once
    /// the item's distance is certainly strictly greater than `bound`, the
    /// current `k`-th distance (`+∞` until `k` results exist); see the
    /// [module docs](self).
    ///
    /// Results are sorted by ascending distance. If the tree holds fewer
    /// than `k` items, all of them are returned. Items tied in distance at
    /// the `k`-th boundary are kept in traversal order; use
    /// [`RStarTree::nearest_with_tie`] when the selection must be
    /// deterministic.
    pub fn nearest_with<B, E>(
        &self,
        k: usize,
        bound_dist: B,
        exact_dist: E,
    ) -> (Vec<Neighbor<&Rect, &T>>, SearchStats)
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, &T, f64) -> Option<f64>,
    {
        // A constant tie key makes the keyed comparator degenerate to the
        // distance-only comparator, so this wrapper changes nothing.
        self.nearest_with_tie(k, bound_dist, exact_dist, |_| 0)
    }

    /// [`nearest_source`] over the in-memory tree: deterministic
    /// tie-breaking by ascending `tie_key` at the `k`-th boundary. Visit
    /// counters are identical to the unkeyed search.
    pub fn nearest_with_tie<B, E, K>(
        &self,
        k: usize,
        bound_dist: B,
        mut exact_dist: E,
        mut tie_key: K,
    ) -> (Vec<Neighbor<&Rect, &T>>, SearchStats)
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, &T, f64) -> Option<f64>,
        K: FnMut(&T) -> u64,
    {
        let Ok(found) = nearest_source(
            self,
            k,
            bound_dist,
            |r, (_, item), bound| exact_dist(r, item, bound),
            |(_, item)| tie_key(item),
            |distance, _, (rect, item)| Neighbor {
                distance,
                rect,
                item,
            },
        );
        found
    }

    /// Euclidean k-nearest-neighbors of a query point, using `MINDIST`
    /// pruning on MBRs.
    pub fn nearest_to_point(
        &self,
        k: usize,
        point: &[f64],
    ) -> (Vec<Neighbor<&Rect, &T>>, SearchStats) {
        self.nearest_with(
            k,
            |rect| rect.min_dist2(point).sqrt(),
            |rect, _, _| Some(rect.min_dist2(point).sqrt()),
        )
    }
}

impl PagedTree {
    /// [`nearest_source`] over the paged tree: node fetches go through the
    /// buffer pool, and each result owns a copy of its rectangle.
    ///
    /// # Errors
    /// Typed [`tsq_store::StoreError`]s when a page cannot be read or
    /// decodes as corrupt.
    pub fn nearest_with_tie<B, E, K>(
        &self,
        k: usize,
        bound_dist: B,
        exact_dist: E,
        tie_key: K,
    ) -> StoreResult<(Vec<Neighbor<Rect, u64>>, SearchStats)>
    where
        B: FnMut(&Rect) -> f64,
        E: FnMut(&Rect, u64, f64) -> Option<f64>,
        K: FnMut(u64) -> u64,
    {
        nearest_source(
            self,
            k,
            bound_dist,
            exact_dist,
            tie_key,
            |distance, rect, item| Neighbor {
                distance,
                rect: rect.clone(),
                item,
            },
        )
    }

    /// Euclidean k-nearest-neighbors of a query point over the paged tree.
    ///
    /// # Errors
    /// Same as [`PagedTree::nearest_with_tie`].
    pub fn nearest_to_point(
        &self,
        k: usize,
        point: &[f64],
    ) -> StoreResult<(Vec<Neighbor<Rect, u64>>, SearchStats)> {
        self.nearest_with_tie(
            k,
            |rect| rect.min_dist2(point).sqrt(),
            |rect, _, _| Some(rect.min_dist2(point).sqrt()),
            |_| 0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RTreeConfig;

    fn grid_tree(n: usize) -> RStarTree<(usize, usize)> {
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(8));
        for i in 0..n {
            for j in 0..n {
                t.insert_point(&[i as f64, j as f64], (i, j));
            }
        }
        t
    }

    /// Brute-force reference.
    fn brute_knn(n: usize, k: usize, q: [f64; 2]) -> Vec<f64> {
        let mut d: Vec<f64> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .map(|(i, j)| {
                let dx = i as f64 - q[0];
                let dy = j as f64 - q[1];
                (dx * dx + dy * dy).sqrt()
            })
            .collect();
        d.sort_by(f64::total_cmp);
        d.truncate(k);
        d
    }

    #[test]
    fn knn_matches_brute_force() {
        let t = grid_tree(15);
        for q in [[0.0, 0.0], [7.3, 7.9], [20.0, -3.0], [14.0, 14.0]] {
            for k in [1usize, 5, 17] {
                let (got, _) = t.nearest_to_point(k, &q);
                let want = brute_knn(15, k, q);
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.distance - w).abs() < 1e-9,
                        "q={q:?} k={k}: {} vs {w}",
                        g.distance
                    );
                }
            }
        }
    }

    #[test]
    fn knn_prunes() {
        let t = grid_tree(30); // 900 points
        let (_, stats) = t.nearest_to_point(3, &[15.0, 15.0]);
        assert!(
            stats.nodes_visited < 40,
            "best-first should visit few nodes, visited {}",
            stats.nodes_visited
        );
    }

    #[test]
    fn k_larger_than_tree() {
        let t = grid_tree(3);
        let (got, _) = t.nearest_to_point(100, &[0.0, 0.0]);
        assert_eq!(got.len(), 9);
        // Sorted ascending.
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = grid_tree(3);
        assert!(t.nearest_to_point(0, &[0.0, 0.0]).0.is_empty());
        let empty: RStarTree<u8> = RStarTree::default();
        assert!(empty.nearest_to_point(5, &[0.0]).0.is_empty());
    }

    #[test]
    fn transformed_knn_via_custom_metric() {
        // Nearest under T(x) = -x (the paper's reversing transformation):
        // the item minimizing |T(p) - q| differs from the plain nearest.
        let t = grid_tree(10);
        let q = [-3.0, -7.0];
        let (got, _) = t.nearest_with(
            1,
            |rect| rect.affine(&[-1.0, -1.0], &[0.0, 0.0]).min_dist2(&q).sqrt(),
            |rect, _, _| {
                let c = rect.center();
                let dx = -c[0] - q[0];
                let dy = -c[1] - q[1];
                Some((dx * dx + dy * dy).sqrt())
            },
        );
        assert_eq!(*got[0].item, (3, 7));
        assert!(got[0].distance < 1e-12);
    }

    #[test]
    fn boundary_ties_break_by_key() {
        // Eight points at identical distance from the query; k = 3 must
        // keep exactly the three smallest payloads regardless of the
        // insertion (and therefore traversal) order.
        for perm in 0..8u64 {
            let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
            for i in 0..8u64 {
                let id = (i + perm) % 8;
                let angle = id as f64 * std::f64::consts::FRAC_PI_4;
                t.insert_point(&[angle.cos(), angle.sin()], id);
            }
            let (got, _) = t.nearest_with_tie(
                3,
                |rect| rect.min_dist2(&[0.0, 0.0]).sqrt(),
                |_, _, _| Some(1.0), // all items exactly tied
                |&id| id,
            );
            let ids: Vec<u64> = got.iter().map(|n| *n.item).collect();
            assert_eq!(ids, vec![0, 1, 2], "perm {perm}");
        }
    }

    #[test]
    fn ties_all_returned() {
        // Four symmetric points around the query at identical distance.
        let mut t = RStarTree::new(RTreeConfig::with_max_entries(4));
        t.insert_point(&[1.0, 0.0], 0);
        t.insert_point(&[-1.0, 0.0], 1);
        t.insert_point(&[0.0, 1.0], 2);
        t.insert_point(&[0.0, -1.0], 3);
        let (got, _) = t.nearest_to_point(4, &[0.0, 0.0]);
        assert_eq!(got.len(), 4);
        for n in &got {
            assert!((n.distance - 1.0).abs() < 1e-12);
        }
    }

    /// Brute-force distances from `q` to every grid point, ascending.
    fn grid_distances(n: usize, q: [f64; 2]) -> Vec<f64> {
        let mut d = brute_knn(n, n * n, q);
        d.sort_by(f64::total_cmp);
        d
    }

    #[test]
    fn candidates_count_every_item_within_the_kth_distance() {
        // MINDIST is monotone and exact on points, so every item at most
        // the final k-th distance away sits in an expanded leaf: the
        // candidate count is a brute-force count, boundary ties included
        // (the grid is full of exactly tied distances).
        let n = 15;
        let t = grid_tree(n);
        for q in [
            [0.0, 0.0],
            [7.0, 7.0],
            [7.5, 7.5],
            [3.0, 11.0],
            [20.0, -3.0],
        ] {
            let all = grid_distances(n, q);
            for k in [1usize, 2, 4, 5, 8, 9, 13, 30] {
                let (got, stats) = t.nearest_to_point(k, &q);
                let kth = got[k - 1].distance;
                let within = all.iter().filter(|&&d| d <= kth).count() as u64;
                assert_eq!(stats.candidates, within, "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn abandoning_refine_changes_nothing() {
        // An exact closure that abandons everything past the bound must
        // yield the same answer and counters as one that never abandons.
        let t = grid_tree(20);
        for q in [[0.0, 0.0], [9.5, 9.5], [4.0, 17.0]] {
            for k in [1usize, 3, 6, 12] {
                let lower = |r: &Rect| r.min_dist2(&q).sqrt();
                let exact = |r: &Rect| r.min_dist2(&q).sqrt();
                let mut abandoned = 0;
                let (bounded, bounded_stats) = t.nearest_with_tie(
                    k,
                    lower,
                    |r, _, bound| {
                        let d = exact(r);
                        if d > bound {
                            abandoned += 1;
                            None
                        } else {
                            Some(d)
                        }
                    },
                    |&(i, j)| (i * 100 + j) as u64,
                );
                let (full, full_stats) = t.nearest_with_tie(
                    k,
                    lower,
                    |r, _, _| Some(exact(r)),
                    |&(i, j)| (i * 100 + j) as u64,
                );
                assert!(abandoned > 0, "q={q:?} k={k}: nothing abandoned");
                assert_eq!(bounded_stats, full_stats, "q={q:?} k={k}");
                let ids = |v: &[Neighbor<&Rect, &(usize, usize)>]| {
                    v.iter()
                        .map(|n| (*n.item, n.distance.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(ids(&bounded), ids(&full), "q={q:?} k={k}");
            }
        }
    }
}
