//! Nearest-neighbor queries agree with exhaustive scans for every
//! transformation and space (the RKV95 pruning generalized to transformed
//! indexes must never dismiss a true neighbor).

use tsq_core::plan::{
    execute_plan, ExecStats, LogicalPlan, PlanPreference, PlanRows, Planner, RelationStats,
};
use tsq_core::{
    FeatureSchema, IndexConfig, LinearTransform, Match, SeriesRelation, ShardSpec, ShardedIndex,
    SimilarityIndex, SpaceKind,
};
use tsq_dft::energy::euclidean_complex;
use tsq_rtree::{Rect, SearchStats};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};
use tsq_series::TimeSeries;

fn assert_knn_matches_scan(idx: &SimilarityIndex, t: &LinearTransform, k: usize, qid: usize) {
    let q = idx.series(qid).unwrap().clone();
    let (got, _) = idx.knn_query(&q, k, t).unwrap();
    let want = idx.scan_knn(&q, k, t).unwrap();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        // Distances must agree; ids may differ under exact ties.
        assert!(
            (g.distance - w.distance).abs() < 1e-9,
            "transform {}: {} vs {}",
            t.name(),
            g.distance,
            w.distance
        );
    }
}

#[test]
fn knn_polar_normal_form() {
    let rel = RandomWalkGenerator::new(4001).relation(250, 64);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    for t in [
        LinearTransform::identity(64),
        LinearTransform::moving_average(64, 5),
        LinearTransform::moving_average(64, 20),
        LinearTransform::reverse(64),
    ] {
        for k in [1usize, 5, 25] {
            assert_knn_matches_scan(&idx, &t, k, 13);
        }
    }
}

#[test]
fn knn_rectangular() {
    let rel = RandomWalkGenerator::new(4002).relation(200, 32);
    let cfg = IndexConfig {
        space: SpaceKind::Rectangular,
        ..IndexConfig::default()
    };
    let idx = SimilarityIndex::build(cfg, rel).unwrap();
    for t in [
        LinearTransform::identity(32),
        LinearTransform::reverse(32),
        LinearTransform::scale(32, 3.0),
    ] {
        assert_knn_matches_scan(&idx, &t, 10, 77);
    }
}

#[test]
fn knn_raw_schema() {
    let rel = StockGenerator::new(4003).relation(150, 64);
    for space in [SpaceKind::Polar, SpaceKind::Rectangular] {
        let cfg = IndexConfig {
            schema: FeatureSchema::Raw { k: 3 },
            space,
            ..IndexConfig::default()
        };
        let idx = SimilarityIndex::build(cfg, rel.clone()).unwrap();
        let t = LinearTransform::identity(64);
        assert_knn_matches_scan(&idx, &t, 7, 0);
    }
}

#[test]
fn knn_prunes_against_scan() {
    // Best-first search must touch far fewer entries than the relation
    // size times tree fanout would suggest.
    let rel = RandomWalkGenerator::new(4004).relation(2000, 64);
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let q = idx.series(999).unwrap().clone();
    let t = LinearTransform::identity(64);
    let (_, stats) = idx.knn_query(&q, 3, &t).unwrap();
    assert!(
        stats.index.entries_tested < 2000,
        "expected pruning, tested {} entries",
        stats.index.entries_tested
    );
}

#[test]
fn knn_under_warp() {
    let mut gen = RandomWalkGenerator::new(4005);
    let mut rel = gen.relation(100, 32);
    let special = gen.series(32);
    rel.push(special.clone());
    let idx = SimilarityIndex::build(IndexConfig::default(), rel).unwrap();
    let t = LinearTransform::time_warp(32, 3);
    let q = tsq_series::warp::stretch(&special, 3);
    let (knn, _) = idx.knn_query(&q, 1, &t).unwrap();
    assert_eq!(knn[0].id, 100);
    assert!(knn[0].distance < 1e-9);
}

/// A relation built so that kNN boundaries fall inside ties: random walks,
/// a pivot series close to the query, exact copies of the pivot under
/// distinct ids (exactly tied distances), and copies with one sample
/// nudged by a few ulps (distances a few ulps either side of the pivot's).
/// Returns the relation, the query id and the id of the first pivot copy.
fn tie_relation() -> (Vec<TimeSeries>, usize, usize) {
    let mut gen = RandomWalkGenerator::new(4006);
    let mut rel = gen.relation(120, 32);
    let query = 7;
    let noise = gen.series(32);
    let pivot: Vec<f64> = rel[query]
        .values()
        .iter()
        .zip(noise.values())
        .map(|(q, n)| q + 0.05 * n)
        .collect();
    let first_copy = rel.len();
    for _ in 0..5 {
        rel.push(TimeSeries::new(pivot.clone()));
    }
    for nudge in [-4096i32, -256, -16, -1, 1, 16, 256, 4096] {
        for at in [3usize, 11, 17, 23, 29] {
            let mut v = pivot.clone();
            v[at] *= 1.0 + f64::from(nudge) * f64::EPSILON;
            rel.push(TimeSeries::new(v));
        }
    }
    (rel, query, first_copy)
}

/// Brute-force reference: every distance computed in full on the
/// materialized transformed spectrum, sorted by `(distance, id)`.
fn brute_force(idx: &SimilarityIndex, q: &TimeSeries, t: &LinearTransform) -> Vec<Match> {
    let qf = idx.query_features(q, t).unwrap();
    let mut all: Vec<Match> = (0..idx.len())
        .map(|id| Match {
            id,
            distance: euclidean_complex(
                &t.apply_spectrum(&idx.features(id).unwrap().spectrum),
                &qf.spectrum,
            ),
        })
        .collect();
    all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
    all
}

/// The ranks `k` that cut through the tie cluster around the pivot's
/// distance `d`: every `k` whose k-th answer lies within a relative
/// `1e-12` of `d`. Panics unless the cluster holds exact ties *and*
/// distinct near ties on both sides of `d`, so the oracle below always
/// exercises the boundary.
fn boundary_ks(all: &[Match], d: f64) -> Vec<usize> {
    let near = |m: &Match| (m.distance - d).abs() <= 1e-12 * d;
    let ks: Vec<usize> = (1..=all.len()).filter(|&k| near(&all[k - 1])).collect();
    let cluster = &all[ks[0] - 1..*ks.last().unwrap()];
    let exact = cluster.iter().filter(|m| m.distance == d).count();
    assert!(exact >= 5, "{exact} exact ties at {d}");
    assert!(
        cluster.iter().any(|m| m.distance < d),
        "no near tie below {d}"
    );
    assert!(
        cluster.iter().any(|m| m.distance > d),
        "no near tie above {d}"
    );
    ks
}

/// The unbounded best-first reference: the same traversal with every
/// leaf entry refined in full (the running bound is ignored), counters
/// in [`ExecStats`] form as `execute_plan` reports them for `IndexKnn`.
fn unbounded_best_first(
    idx: &SimilarityIndex,
    q: &TimeSeries,
    k: usize,
    t: &LinearTransform,
) -> (Vec<Match>, ExecStats) {
    let qf = idx.query_features(q, t).unwrap();
    let config = *idx.config();
    let lower = |r: &Rect| {
        config
            .space
            .transformed_lower_bound(r, t, config.schema, &qf)
    };
    let mut refined = 0usize;
    let mut refine = |id: usize| {
        refined += 1;
        Some(idx.exact_distance(id, t, &qf))
    };
    let (matches, index): (Vec<Match>, SearchStats) = match idx.paged() {
        Some(paged) => {
            let (found, stats) = paged
                .nearest_with_tie(k, lower, |_, item, _| refine(item as usize), |item| item)
                .unwrap();
            let found = found
                .iter()
                .map(|n| Match {
                    id: n.item as usize,
                    distance: n.distance,
                })
                .collect();
            (found, stats)
        }
        None => {
            let (found, stats) =
                idx.tree()
                    .nearest_with_tie(k, lower, |_, &id, _| refine(id), |&id| id as u64);
            let found = found
                .iter()
                .map(|n| Match {
                    id: *n.item,
                    distance: n.distance,
                })
                .collect();
            (found, stats)
        }
    };
    let exec = ExecStats {
        candidates: matches.len(),
        refined,
        false_hits: 0,
        nodes_visited: index.nodes_visited,
        disk_accesses: index.nodes_visited + refined as u64,
        pool_hits: index.pool_hits,
        pool_misses: index.pool_misses,
    };
    (matches, exec)
}

fn knn_plan(q: &TimeSeries, k: usize, t: &LinearTransform) -> LogicalPlan {
    LogicalPlan::Knn {
        relation: "r".to_string(),
        query: q.clone(),
        k,
        transform: t.clone(),
    }
}

/// Runs the planned `IndexKnn` on `idx`.
fn planned_knn(
    idx: &SimilarityIndex,
    q: &TimeSeries,
    k: usize,
    t: &LinearTransform,
) -> (Vec<Match>, ExecStats) {
    let logical = knn_plan(q, k, t);
    let stats = RelationStats::from_index(idx);
    let choice = Planner::new(idx, &stats)
        .with_preference(PlanPreference::ForceIndex)
        .plan(&logical, None)
        .unwrap();
    let (rows, exec) = execute_plan(&logical, &choice.plan, idx, None).unwrap();
    match rows {
        PlanRows::Whole(matches) => (matches, exec),
        other => panic!("kNN returned {other:?}"),
    }
}

fn bits(matches: &[Match]) -> Vec<(usize, u64)> {
    matches
        .iter()
        .map(|m| (m.id, m.distance.to_bits()))
        .collect()
}

/// When `k` cuts through exact ties and ulp-level near ties, the bounded
/// refine answers exactly like an unbounded brute force sorted by
/// `(distance, id)` — ids and distance bits — and reports exactly the
/// counters of the unbounded best-first search: in memory, paged (buffer
/// pool counters included, on a pool small enough to evict), and per
/// shard of a hash-sharded index. Both build paths run: bulk loading
/// keeps exact copies in id order inside a leaf, while repeated
/// insertion also meets a copy after one with a larger id, which a
/// refine that abandoned exact ties would get wrong.
#[test]
fn boundary_ties_match_unbounded_reference() {
    for bulk_load in [true, false] {
        let config = IndexConfig {
            bulk_load,
            ..IndexConfig::default()
        };
        check_boundary_ties(config, &format!("bulk{bulk_load}"));
    }
}

fn check_boundary_ties(config: IndexConfig, tag: &str) {
    let (rel, query, pivot) = tie_relation();
    let q = rel[query].clone();
    let mem = SimilarityIndex::build(config, rel.clone()).unwrap();
    let dir = std::env::temp_dir().join(format!("tsq-knn-ties-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paged_copy = |tag: &str| {
        let mut paged = mem.clone();
        paged.attach_paged(&dir.join(tag), 3).unwrap();
        paged
    };
    let (paged, paged_reference) = (paged_copy("subject.pages"), paged_copy("reference.pages"));
    let labeled = (0..rel.len())
        .map(|i| (format!("s{i}"), rel[i].clone()))
        .collect();
    let relation = SeriesRelation::from_labeled("r", labeled).unwrap();
    let sharded = ShardedIndex::build(config, &relation, ShardSpec::hash(3).unwrap()).unwrap();

    for t in [
        LinearTransform::identity(32),
        LinearTransform::moving_average(32, 8),
        LinearTransform::reverse(32),
    ] {
        let all = brute_force(&mem, &q, &t);
        let d = all.iter().find(|m| m.id == pivot).unwrap().distance;
        for k in boundary_ks(&all, d) {
            let want = bits(&all[..k]);
            let ctx = format!("{tag} {} k={k}", t.name());

            let (got, exec) = planned_knn(&mem, &q, k, &t);
            let (reference, reference_exec) = unbounded_best_first(&mem, &q, k, &t);
            assert_eq!(bits(&got), want, "memory {ctx}");
            assert_eq!(bits(&reference), want, "reference {ctx}");
            assert_eq!(exec, reference_exec, "memory counters {ctx}");

            // Subject and reference pools see the same fetch sequence, so
            // their hit/miss counts stay in lockstep query after query.
            let (got, exec) = planned_knn(&paged, &q, k, &t);
            let (_, reference_exec) = unbounded_best_first(&paged_reference, &q, k, &t);
            assert_eq!(bits(&got), want, "paged {ctx}");
            assert_eq!(exec, reference_exec, "paged counters {ctx}");
            assert_eq!(exec.pool_hits + exec.pool_misses, exec.nodes_visited);

            let outcome = sharded
                .execute(&knn_plan(&q, k, &t), PlanPreference::ForceIndex, 1, None)
                .unwrap();
            match &outcome.rows {
                PlanRows::Whole(got) => assert_eq!(bits(got), want, "sharded {ctx}"),
                other => panic!("kNN returned {other:?}"),
            }
            for (shard, part) in sharded.parts().iter().enumerate() {
                let (_, reference_exec) = unbounded_best_first(part, &q, k, &t);
                assert_eq!(
                    outcome.per_shard[shard], reference_exec,
                    "shard {shard} counters {ctx}"
                );
            }
            assert_eq!(outcome.merged, ExecStats::sum(&outcome.per_shard));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
