//! Table 1 consistency: the four join methods (plus the tree-join
//! extension) agree on the answer set, with the paper's double-counting
//! semantics for index-based methods.

use tsq_core::{
    IndexConfig, JoinPair, JoinStats, LinearTransform, ScanMode, SimilarityIndex, SpaceKind,
};
use tsq_rtree::{spatial_join_with, Rect};
use tsq_series::generate::StockGenerator;

fn stock_index(count: usize, seed: u64) -> SimilarityIndex {
    let rel = StockGenerator::new(seed).relation(count, 128);
    SimilarityIndex::build(IndexConfig::default(), rel).unwrap()
}

fn undirected(pairs: &[tsq_core::JoinPair]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = pairs.iter().map(|p| (p.a.min(p.b), p.a.max(p.b))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn all_methods_agree_under_mavg20() {
    let idx = stock_index(120, 3001);
    let t = LinearTransform::moving_average(128, 20);
    let eps = 1.5;
    let a = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
    let b = idx.join_scan(eps, &t, ScanMode::EarlyAbandon).unwrap();
    let d = idx.join_index(eps, &t).unwrap();
    let e = idx.join_tree(eps, &t).unwrap();

    // (a) == (b), reported once per pair.
    assert_eq!(a.pairs.len(), b.pairs.len());
    let once: Vec<(usize, usize)> = a.pairs.iter().map(|p| (p.a, p.b)).collect();
    // (d) and (e) report each pair twice.
    assert_eq!(d.pairs.len(), 2 * a.pairs.len());
    assert_eq!(e.pairs.len(), d.pairs.len());
    assert_eq!(undirected(&d.pairs), once);
    assert_eq!(undirected(&e.pairs), once);
}

#[test]
fn method_c_differs_from_method_d() {
    // Method (c) omits the transformation; on stock-like data the smoothed
    // join (d) admits at least as many pairs, usually more.
    let idx = stock_index(150, 3002);
    let eps = 1.5;
    let c = idx
        .join_index(eps, &LinearTransform::identity(128))
        .unwrap();
    let d = idx
        .join_index(eps, &LinearTransform::moving_average(128, 20))
        .unwrap();
    assert!(d.pairs.len() >= c.pairs.len());
}

#[test]
fn reverse_join_finds_planted_opposites() {
    // A join between r and T_rev(r): pairs of opposite movers (Example
    // 2.2). The generator plants inverse-loading stocks, so with a sane
    // threshold the answer is non-empty — and every reported pair is
    // negatively correlated.
    let mut gen = StockGenerator::new(3003);
    gen.inverse_fraction = 0.3;
    gen.twin_fraction = 0.0; // isolate the planted-opposites property
    let rel = gen.relation(100, 128);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel.clone()).unwrap();
    // Applying reverse to the data side of a range query per series i is
    // the join r x T_rev(r).
    let rev = LinearTransform::reverse(128);
    let mut opposite_pairs = 0usize;
    for i in 0..idx.len() {
        let q = idx.series(i).unwrap().clone();
        let (matches, _) = idx
            .range_query(&q, 6.0, &rev, &tsq_core::QueryWindow::default())
            .unwrap();
        for m in matches {
            if m.id != i {
                opposite_pairs += 1;
                let corr = tsq_series::stats::pearson(
                    tsq_series::normal::normal_form(&rel[i]).values(),
                    tsq_series::normal::normal_form(&rel[m.id]).values(),
                );
                assert!(corr < 0.0, "pair ({i}, {}) corr {corr}", m.id);
            }
        }
    }
    assert!(opposite_pairs > 0, "planted opposite movers must be found");
}

#[test]
fn join_stats_reflect_strategy() {
    let idx = stock_index(80, 3004);
    let t = LinearTransform::moving_average(128, 20);
    let scan = idx.join_scan(1.0, &t, ScanMode::EarlyAbandon).unwrap();
    let index_join = idx.join_index(1.0, &t).unwrap();
    // Scan does exactly n*(n-1)/2 exact checks.
    assert_eq!(scan.stats.exact_checks, 80 * 79 / 2);
    // The index join does far fewer exact checks than the scan.
    assert!(
        index_join.stats.exact_checks < scan.stats.exact_checks,
        "{} !< {}",
        index_join.stats.exact_checks,
        scan.stats.exact_checks
    );
    // And it reports its node accesses.
    assert!(index_join.stats.index.nodes_visited > 0);
}

#[test]
fn table_1_shape_on_stand_in_relation() {
    // The paper's Table 1 relation: 1067 stocks, length 128, T_mavg20.
    // We reproduce the *shape* on the synthetic stand-in with a smaller
    // population for test speed: see the bench harness for the full-size
    // run. Answer sizes: method d = 2x method a; method c typically
    // smaller than d (3 vs 12 in the paper).
    let mut gen = StockGenerator::new(3005);
    gen.inverse_fraction = 0.05;
    let rel = gen.relation(200, 128);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let t = LinearTransform::moving_average(128, 20);
    let eps = 1.0;
    let a = idx.join_scan(eps, &t, ScanMode::Naive).unwrap();
    let d = idx.join_index(eps, &t).unwrap();
    let c = idx
        .join_index(eps, &LinearTransform::identity(128))
        .unwrap();
    assert_eq!(d.pairs.len(), 2 * a.pairs.len());
    assert!(c.pairs.len() <= d.pairs.len());
}

/// The synchronized tree join rebuilt from public parts: the storage's
/// own join (`spatial_join_with`, or the paged tree's `self_join_with`)
/// driven by the unmemoized `SpaceKind::transformed_pair_lower_bound`,
/// then, per probe in id order, the early-abandoning exact refine.
fn reference_tree_join(
    idx: &SimilarityIndex,
    eps: f64,
    t: &LinearTransform,
) -> (Vec<JoinPair>, JoinStats) {
    let (space, schema) = (idx.config().space, idx.config().schema);
    let bound = |ra: &Rect, rb: &Rect| space.transformed_pair_lower_bound(ra, rb, t, schema);
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let index = match idx.paged() {
        Some(paged) => paged
            .self_join_with(bound, eps, |_, a, _, b| {
                candidates.push((a as usize, b as usize))
            })
            .unwrap(),
        None => spatial_join_with(idx.tree(), idx.tree(), bound, eps, |_, &a, _, &b| {
            candidates.push((a, b))
        }),
    };
    candidates.sort_unstable();
    let mut stats = JoinStats {
        index,
        candidates: candidates.len(),
        ..JoinStats::default()
    };
    let mut pairs = Vec::new();
    for group in candidates.chunk_by(|x, y| x.0 == y.0) {
        let probe = group[0].0;
        let qf = idx.transformed_features(probe, t).unwrap();
        for &(_, j) in group {
            stats.exact_checks += 1;
            match idx.exact_distance_bounded(j, t, &qf, eps) {
                Some(distance) if j != probe => pairs.push(JoinPair {
                    a: probe,
                    b: j,
                    distance,
                }),
                Some(_) => {}
                None => stats.abandoned += 1,
            }
        }
    }
    pairs.sort_by_key(|p| (p.a, p.b));
    (pairs, stats)
}

fn join_key(pairs: &[JoinPair]) -> Vec<(usize, usize, u64)> {
    pairs
        .iter()
        .map(|p| (p.a, p.b, p.distance.to_bits()))
        .collect()
}

fn assert_same_join(got: (&[JoinPair], &JoinStats), want: (&[JoinPair], &JoinStats), case: &str) {
    assert_eq!(join_key(got.0), join_key(want.0), "pairs, {case}");
    assert_eq!(got.1.index, want.1.index, "search stats, {case}");
    assert_eq!(got.1.candidates, want.1.candidates, "candidates, {case}");
    assert_eq!(
        got.1.exact_checks, want.1.exact_checks,
        "exact checks, {case}"
    );
    assert_eq!(got.1.abandoned, want.1.abandoned, "abandoned, {case}");
}

/// `join_tree` (memoized transformed MBRs, cached point forms, a bound
/// that stops once it passes eps) returns the reference join's pairs,
/// distance bits and every counter, in memory and paged with a small
/// pool, in both coordinate spaces. `mavg(64, 32)` zeroes `X_2` on
/// length-64 series, so its blocks become full-circle annuli at the
/// origin; `reverse` shifts every polar angle by pi, wrapping sectors.
#[test]
fn tree_join_matches_unmemoized_reference_join() {
    let dir = std::env::temp_dir().join(format!("tsq-join-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut checked = [0usize; 2];
    for (si, space) in [SpaceKind::Polar, SpaceKind::Rectangular]
        .into_iter()
        .enumerate()
    {
        for (len, seed) in [(128usize, 3101u64), (64, 3102)] {
            let config = IndexConfig {
                space,
                ..IndexConfig::default()
            };
            let mem = SimilarityIndex::build(config, StockGenerator::new(seed).relation(100, len))
                .unwrap();
            for t in [
                LinearTransform::identity(len),
                LinearTransform::moving_average(len, 8),
                LinearTransform::reverse(len),
                LinearTransform::moving_average(len, 32),
            ] {
                if space.check_safety(&t, config.schema).is_err() {
                    continue;
                }
                for eps in [0.5, 1.0, 2.5] {
                    let case = format!("{space:?}, len {len}, {}, eps {eps}", t.name());
                    let want = reference_tree_join(&mem, eps, &t);
                    let got = mem.join_tree(eps, &t).unwrap();
                    assert_same_join((&got.pairs, &got.stats), (&want.0, &want.1), &case);
                    // Fresh copies with the same two-page pool fetch the
                    // same pages in the same order, so the pool counters
                    // must agree too.
                    let paged = |tag: &str| {
                        let mut paged = mem.clone();
                        let path = dir.join(format!("{tag}-{si}-{len}-{}-{eps}.pages", t.name()));
                        paged.attach_paged(&path, 2).unwrap();
                        paged
                    };
                    let want = reference_tree_join(&paged("ref"), eps, &t);
                    let got = paged("engine").join_tree(eps, &t).unwrap();
                    assert!(want.1.index.pool_misses > 0, "paged, {case}");
                    assert_same_join((&got.pairs, &got.stats), (&want.0, &want.1), &case);
                    checked[si] += 1;
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Polar: all four transforms at both lengths; rectangular: the
    // real-multiplier ones (identity, reverse).
    assert_eq!(checked, [24, 12]);
}
