//! The traced run. It drives the same checked wire traffic as the
//! untraced run, one request at a time, and around each request calls
//! every layer's public functions from here — parser, catalog, planner,
//! executor, R*-tree filter, wire codec — on the same generated inputs,
//! recording a span per call. Counts come from the replies' `ExecStats`
//! and the layers' own statistics. Where a workload's traffic lacks a
//! query form, the form is probed on the `stocks` relation generated
//! from the same seed, at the core layer only.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use tsq_core::plan::{execute_plan, LogicalPlan, PlanRows, Planner, RelationStats};
use tsq_core::{ExecStats, IndexConfig, QueryWindow, SimilarityIndex, SubseqConfig, SubseqIndex};
use tsq_lang::{ast::AppendRow, Catalog};
use tsq_rtree::{spatial_join_with, Rect};
use tsq_series::TimeSeries;
use tsq_service::wire::{decode_response, encode_response, Response};
use tsq_service::{Client, QueryReply};

use crate::e2e::{self, Data, Digest, Oracle, Outcome, Served, Streams, Tally, PAGED_POOL_MIB};
use crate::stats::{self, Metric};
use crate::trace::Recorder;
use crate::workload::{Form, IngestStream, Op, Rel, Rng, Tf, Workload, WINDOW};

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("lang.parse.us", "us", "p50_ms on point"),
    ("lang.exec.self_us", "us", "p50_ms on point"),
    (
        "lang.append.us_per_point",
        "us",
        "append_points_per_s on ingest",
    ),
    ("core.plan.us", "us", "p50_ms on point"),
    (
        "core.plan.refines_qerror_p50",
        "ratio",
        "knn_p50_ms on analytic",
    ),
    (
        "core.plan.refines_qerror_max",
        "ratio",
        "knn_p50_ms on analytic",
    ),
    ("core.features.us", "us", "p50_ms on point"),
    ("core.features.tlb", "ratio", "range_p50_ms and knn_p50_ms"),
    ("core.exec.range_us", "us", "range_p50_ms on point"),
    ("core.exec.knn_us", "us", "knn_p50_ms on point and analytic"),
    ("core.exec.join_us", "us", "join_p50_ms on analytic"),
    ("core.exec.subseq_us", "us", "subseq_p50_ms on analytic"),
    ("core.filter.us", "us", "range_p50_ms on point"),
    ("core.refine.us", "us", "range_p50_ms on point"),
    (
        "core.filter.valid",
        "flag",
        "validity of core.filter.us and core.refine.us",
    ),
    (
        "core.candidates_per_query",
        "count",
        "range_p50_ms and knn_p50_ms",
    ),
    ("core.refined_per_query", "count", "knn_p50_ms on analytic"),
    ("core.false_hit_ratio", "ratio", "range_p50_ms on point"),
    ("core.pruning_ratio", "ratio", "knn_p50_ms on analytic"),
    (
        "core.index.extend_us_per_point",
        "us",
        "append_points_per_s on ingest",
    ),
    ("core.index.build_ms", "ms", "setup_s"),
    ("core.join.filter_ms", "ms", "join_p50_ms on analytic"),
    ("core.join.refine_ms", "ms", "join_p50_ms on analytic"),
    ("core.join.valid", "flag", "validity of core.join.*"),
    (
        "core.subseq.build_ms",
        "ms",
        "setup_s on analytic and ingest",
    ),
    ("core.subseq.probe_us", "us", "subseq_p50_ms on analytic"),
    (
        "core.subseq.candidates_per_probe",
        "count",
        "subseq_p50_ms on analytic",
    ),
    (
        "core.subseq.extend_us_per_point",
        "us",
        "append_points_per_s on ingest",
    ),
    ("core.mirror.valid", "flag", "validity of the core.* split"),
    (
        "rtree.nodes_per_query",
        "count",
        "range_p50_ms and knn_p50_ms",
    ),
    (
        "rtree.join.entries_tested",
        "count",
        "join_p50_ms on analytic",
    ),
    (
        "rtree.page.misses_per_query",
        "count",
        "p50_ms on paged (0 elsewhere)",
    ),
    (
        "rtree.page.hit_ratio",
        "ratio",
        "p50_ms on paged (0 elsewhere)",
    ),
    ("service.ping_us", "us", "qps and p50_ms on point"),
    ("service.wait_us", "us", "qps and p50_ms on point"),
    ("service.wire.encode_us", "us", "join_p50_ms on analytic"),
    ("service.wire.decode_us", "us", "join_p50_ms on analytic"),
    ("service.reply_bytes", "bytes", "join_p50_ms on analytic"),
    ("pool.tasks_per_query", "count", "qps on point"),
    ("pool.steals_per_query", "count", "qps on point"),
    ("lang.snapshot.save_ms", "ms", "setup_s on paged"),
    ("lang.snapshot.open_paged_ms", "ms", "setup_s on paged"),
    (
        "store.bytes_per_user_byte",
        "ratio",
        "setup_s and peak_rss_mib",
    ),
    (
        "trace.overhead_us",
        "us",
        "tracing cost: traced minus untraced round trip",
    ),
];

/// Repetitions of each in-process call whose shortest time is kept.
const REPS: usize = 3;

/// Least statements the traced sample decomposes, per workload; the
/// sample then runs on until `--seconds` have passed.
fn min_sample(workload: Workload) -> usize {
    match workload {
        Workload::Point => 200,
        Workload::Analytic => 16,
        Workload::Ingest => 12,
        Workload::Paged => 100,
    }
}

/// The benchmark's own copy of one relation's core structures, kept in
/// step with the served catalog.
struct Mirror {
    index: SimilarityIndex,
    stats: RelationStats,
    subseq: Option<SubseqIndex>,
}

impl Mirror {
    fn build(data: &tsq_core::SeriesRelation) -> (Mirror, f64) {
        let t0 = Instant::now();
        let index = data
            .index(IndexConfig::default())
            .expect("index a generated relation");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let stats = RelationStats::from_index(&index);
        (
            Mirror {
                index,
                stats,
                subseq: None,
            },
            ms,
        )
    }

    /// Builds the ST-index the way the catalog does; returns its time.
    fn build_subseq(&mut self) -> f64 {
        let series: Vec<TimeSeries> = (0..self.index.len())
            .map(|id| self.index.series(id).expect("id < len").clone())
            .collect();
        let t0 = Instant::now();
        let built = SubseqIndex::build_parallel(
            SubseqConfig::new(WINDOW),
            series,
            tsq_core::executor::default_threads(),
        )
        .expect("build the ST-index");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.subseq = Some(built);
        ms
    }

    /// The engine's logical plan for `op`, built from the generator's
    /// parameters.
    fn logical(&self, op: &Op) -> LogicalPlan {
        let n = self.index.series_len();
        let relation = op.rel().name().to_string();
        let stored = |id: usize| self.index.series(id).expect("generated id").clone();
        match op {
            Op::Range { id, eps, tf, .. } => LogicalPlan::Range {
                relation,
                query: stored(*id),
                eps: *eps,
                transform: tf.linear(n),
                window: QueryWindow::default(),
            },
            Op::Knn { id, k, tf, .. } => LogicalPlan::Knn {
                relation,
                query: stored(*id),
                k: *k,
                transform: tf.linear(n),
            },
            Op::Join { eps, tf, .. } => LogicalPlan::Join {
                relation,
                eps: *eps,
                transform: tf.linear(n),
                hint: None,
            },
            Op::SubseqRange { query, eps, .. } => LogicalPlan::SubseqRange {
                relation,
                query: TimeSeries::new(query.clone()),
                eps: *eps,
                window: WINDOW,
            },
            Op::SubseqKnn { query, k, .. } => LogicalPlan::SubseqKnn {
                relation,
                query: TimeSeries::new(query.clone()),
                k: *k,
                window: WINDOW,
            },
            Op::Append { .. } => unreachable!("appends are not planned"),
        }
    }

    /// Applies one append tick; returns (index, ST-index) microseconds.
    fn append(&mut self, values: &[f64]) -> (f64, f64) {
        let edits: Vec<(usize, &[f64])> = values
            .iter()
            .enumerate()
            .map(|(id, v)| (id, std::slice::from_ref(v)))
            .collect();
        let t0 = Instant::now();
        self.index
            .extend_series_batch(&edits)
            .expect("extend the index");
        let index_us = t0.elapsed().as_secs_f64() * 1e6;
        self.stats = RelationStats::from_index(&self.index);
        let mut subseq_us = 0.0;
        if let Some(sub) = &mut self.subseq {
            let t0 = Instant::now();
            for &(id, v) in &edits {
                sub.extend_series(id, v).expect("extend the ST-index");
            }
            subseq_us = t0.elapsed().as_secs_f64() * 1e6;
        }
        (index_us, subseq_us)
    }
}

/// The per-layer figures, accumulated over the traced sample and the
/// probes.
#[derive(Default)]
struct Acc {
    parse_us: Vec<f64>,
    exec_self_us: Vec<f64>,
    append_us_per_point: Vec<f64>,
    plan_us: Vec<f64>,
    qerror: Vec<f64>,
    features_us: Vec<f64>,
    tlb: Vec<f64>,
    exec_us: HashMap<&'static str, Vec<f64>>,
    filter_us: Vec<f64>,
    refine_us: Vec<f64>,
    filter_valid: bool,
    /// Whole-series reads: (candidates, refined, false hits, n, nodes).
    whole: Vec<(f64, f64, f64, f64, f64)>,
    index_extend_us_per_point: Vec<f64>,
    index_build_ms: f64,
    join_filter_ms: Vec<f64>,
    join_refine_ms: Vec<f64>,
    join_entries: Vec<f64>,
    join_valid: bool,
    subseq_build_ms: f64,
    subseq_probe_us: Vec<f64>,
    subseq_candidates: Vec<f64>,
    subseq_extend_us_per_point: Vec<f64>,
    mirror_valid: bool,
    pool_hits: u64,
    pool_misses: u64,
    reads: u64,
    ping_us: Vec<f64>,
    wait_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    pool_tasks: u64,
    pool_steals: u64,
    save_ms: Vec<f64>,
    open_paged_ms: Vec<f64>,
    bytes_per_user_byte: f64,
    /// Per read: traced minus untraced round trip.
    overhead_us: Vec<f64>,
    /// Picks the stored series the lower-bound tightness is sampled on.
    rng: Rng,
}

fn label(id: usize) -> String {
    format!("s{id}")
}

/// Whether the benchmark's own execution reproduces the reply: plan,
/// rows (labels, offsets, distance bits) and counters (pool counters
/// aside — the mirror has its own pool).
fn mirror_matches(reply: &QueryReply, plan: &str, rows: &PlanRows, exec: &ExecStats) -> bool {
    let mut want = reply.stats;
    want.pool_hits = exec.pool_hits;
    want.pool_misses = exec.pool_misses;
    let keyed: Vec<(String, Option<String>, Option<u64>, u64)> = match rows {
        PlanRows::Whole(m) => m
            .iter()
            .map(|m| (label(m.id), None, None, m.distance.to_bits()))
            .collect(),
        PlanRows::Pairs(p) => p
            .iter()
            .map(|p| (label(p.a), Some(label(p.b)), None, p.distance.to_bits()))
            .collect(),
        PlanRows::Windows(w) => w
            .iter()
            .map(|w| {
                (
                    label(w.series),
                    None,
                    Some(w.offset as u64),
                    w.distance.to_bits(),
                )
            })
            .collect(),
    };
    let got: Vec<(String, Option<String>, Option<u64>, u64)> = reply
        .rows
        .iter()
        .map(|r| (r.a.clone(), r.b.clone(), r.offset, r.distance.to_bits()))
        .collect();
    reply.plan == plan && want == *exec && keyed == got
}

/// Core-layer decomposition of one read: features, plan, execute, and
/// the form's own split (range filter, join filter, ST-index probe).
/// Returns the core time that `Catalog::execute` contains.
fn decompose(
    m: &Mirror,
    op: &Op,
    reply: Option<&QueryReply>,
    reps: usize,
    rec: &mut Recorder,
    parent: usize,
    acc: &mut Acc,
) -> f64 {
    let logical = m.logical(op);
    let form = op.form();
    let n = m.index.len();
    if let LogicalPlan::Range {
        query, transform, ..
    }
    | LogicalPlan::Knn {
        query, transform, ..
    } = &logical
    {
        let (qf, features_us) = rec.span_min("core.features", parent, reps, || {
            m.index
                .query_features(query, transform)
                .expect("query features")
        });
        acc.features_us.push(features_us);
        // Tightness of the lower bound: feature-space distance over the
        // exact distance, for a few stored series.
        let config = m.index.config();
        for _ in 0..4 {
            let id = acc.rng.below(n);
            let point = config
                .space
                .point(m.index.features(id).expect("id < len"), config.schema);
            let lb = config.space.transformed_lower_bound(
                &Rect::from_point(&point),
                transform,
                config.schema,
                &qf,
            );
            let exact = m.index.exact_distance(id, transform, &qf);
            if exact > 0.0 {
                acc.tlb.push(lb / exact);
            }
        }
    }
    // As in the catalog, only subsequence forms see the ST-index.
    let subseq = logical.subseq_window().and(m.subseq.as_ref());
    let (choice, plan_us) = rec.span_min("core.plan", parent, reps, || {
        Planner::new(&m.index, &m.stats)
            .plan(&logical, subseq)
            .expect("plan")
    });
    let ((rows, exec), exec_us) = rec.span_min("core.exec", parent, reps, || {
        execute_plan(&logical, &choice.plan, &m.index, subseq).expect("execute")
    });
    acc.plan_us.push(plan_us);
    acc.exec_us.entry(form.name()).or_default().push(exec_us);
    if let Some(reply) = reply {
        acc.mirror_valid &= mirror_matches(reply, choice.plan.op.name(), &rows, &exec);
    }
    match &logical {
        LogicalPlan::Range {
            query,
            eps,
            transform,
            window,
            ..
        } => {
            let config = m.index.config();
            let identity = transform.is_identity(1e-12);
            let (found, filter_us) = rec.span_min("core.filter", parent, reps, || {
                let qf = m
                    .index
                    .query_features(query, transform)
                    .expect("query features");
                let qrect = config.space.search_rect(&qf, config.schema, *eps, window);
                let accept = |r: &Rect| {
                    if identity {
                        r.intersects(&qrect)
                    } else {
                        config
                            .space
                            .transformed_intersects(r, transform, config.schema, &qrect)
                    }
                };
                let mut found = 0usize;
                let stats = match m.index.paged() {
                    Some(paged) => paged
                        .search_with(accept, |_, _| found += 1)
                        .expect("paged search"),
                    None => m.index.tree().search_with(accept, |_, _| found += 1),
                };
                (found, stats.nodes_visited)
            });
            acc.filter_valid &= found == (exec.candidates, exec.nodes_visited);
            acc.filter_us.push(filter_us);
            acc.refine_us.push(exec_us - filter_us);
        }
        LogicalPlan::Knn { .. } => {
            let est = choice.plan.estimate.refines.max(1.0);
            let act = (exec.refined as f64).max(1.0);
            acc.qerror.push((est / act).max(act / est));
        }
        LogicalPlan::Join { eps, transform, .. } => {
            join_split(m, *eps, transform, reps, rec, parent, acc)
        }
        LogicalPlan::SubseqRange { query, eps, .. } => {
            let sub = m.subseq.as_ref().expect("ST-index built");
            let ((_, st), probe_us) = rec.span_min("core.subseq.probe", parent, reps, || {
                sub.subseq_range(query, *eps).expect("subsequence probe")
            });
            acc.subseq_probe_us.push(probe_us);
            acc.subseq_candidates.push(st.candidates as f64);
        }
        LogicalPlan::SubseqKnn { query, k, .. } => {
            let sub = m.subseq.as_ref().expect("ST-index built");
            let ((_, st), probe_us) = rec.span_min("core.subseq.probe", parent, reps, || {
                sub.subseq_knn(query, *k).expect("subsequence probe")
            });
            acc.subseq_probe_us.push(probe_us);
            acc.subseq_candidates.push(st.candidates as f64);
        }
    }
    if matches!(form, Form::Range | Form::Knn) {
        acc.whole.push((
            exec.candidates as f64,
            exec.refined as f64,
            exec.false_hits as f64,
            n as f64,
            exec.nodes_visited as f64,
        ));
    }
    plan_us + exec_us
}

/// The join rebuilt from public functions — filter: `spatial_join_with`
/// with the engine's transformed pair bound; refine: per probe, its
/// transformed features and the early-abandoning exact distance to each
/// partner — and checked against the engine's own `JoinStats`.
fn join_split(
    m: &Mirror,
    eps: f64,
    transform: &tsq_core::LinearTransform,
    reps: usize,
    rec: &mut Recorder,
    parent: usize,
    acc: &mut Acc,
) {
    let index = &m.index;
    let config = index.config();
    let (space, schema) = (config.space, config.schema);
    let ((candidates, filter_stats), filter_us) =
        rec.span_min("core.join.filter", parent, reps, || {
            let mut memo: HashMap<usize, Rect> = HashMap::new();
            let mut transformed = |r: &Rect| -> Rect {
                memo.entry(r as *const Rect as usize)
                    .or_insert_with(|| space.transform_mbr(r, transform, schema))
                    .clone()
            };
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            let stats = spatial_join_with(
                index.tree(),
                index.tree(),
                |ra, rb| {
                    space.pair_lower_bound_pretransformed(
                        &transformed(ra),
                        &transformed(rb),
                        schema,
                    )
                },
                eps,
                |_, &a, _, &b| pairs.push((a, b)),
            );
            (pairs, stats)
        });
    let ((checks, abandoned, found), refine_us) =
        rec.span_min("core.join.refine", parent, reps, || {
            let mut sorted = candidates.clone();
            sorted.sort_unstable();
            let (mut checks, mut abandoned, mut found) = (0usize, 0usize, 0usize);
            for group in sorted.chunk_by(|x, y| x.0 == y.0) {
                let probe = group[0].0;
                let qf = index
                    .transformed_features(probe, transform)
                    .expect("probe features");
                for &(_, j) in group {
                    checks += 1;
                    match index.exact_distance_bounded(j, transform, &qf, eps) {
                        Some(_) if j != probe => found += 1,
                        Some(_) => {}
                        None => abandoned += 1,
                    }
                }
            }
            (checks, abandoned, found)
        });
    let engine = index.join_tree(eps, transform).expect("tree join");
    acc.join_valid &= candidates.len() == engine.stats.candidates
        && filter_stats == engine.stats.index
        && checks == engine.stats.exact_checks
        && abandoned == engine.stats.abandoned
        && found == engine.pairs.len();
    acc.join_filter_ms.push(filter_us / 1e3);
    acc.join_refine_ms.push(refine_us / 1e3);
    acc.join_entries.push(filter_stats.entries_tested as f64);
}

/// Core and catalog append costs on a private copy of `stocks`, for
/// workloads whose traffic does not append.
fn append_probe(seed: u64, data: &Data, stocks: &Mirror, acc: &mut Acc) {
    let rel = data.get(Rel::Stocks);
    let mut catalog = e2e::in_memory(&[Rel::Stocks], data);
    catalog
        .run(&e2e::warm_up_statement(rel))
        .expect("warm-up subsequence query");
    let mut mirror = Mirror {
        index: stocks.index.clone(),
        stats: stocks.stats.clone(),
        subseq: stocks.subseq.clone(),
    };
    let ticks = IngestStream::new(seed, rel).filter_map(|op| match op {
        Op::Append { values, .. } => Some(values),
        _ => None,
    });
    for values in ticks.take(4) {
        let points = values.len() as f64;
        let rows: Vec<AppendRow> = values
            .iter()
            .enumerate()
            .map(|(id, v)| AppendRow {
                label: label(id),
                values: vec![*v],
            })
            .collect();
        let t0 = Instant::now();
        catalog.append(rel.name(), &rows).expect("append");
        acc.append_us_per_point
            .push(t0.elapsed().as_secs_f64() * 1e6 / points);
        let (index_us, subseq_us) = mirror.append(&values);
        acc.index_extend_us_per_point.push(index_us / points);
        acc.subseq_extend_us_per_point.push(subseq_us / points);
    }
}

/// Snapshot save and paged reopen of the workload's catalog, and the
/// snapshot's size per byte of user data.
fn snapshot_probe(workload: Workload, data: &Data, work: &Path, acc: &mut Acc) {
    let rels = workload.relations();
    let catalog = e2e::in_memory(rels, data);
    let points: usize = rels
        .iter()
        .map(|&r| {
            data.get(r)
                .series()
                .iter()
                .map(TimeSeries::len)
                .sum::<usize>()
        })
        .sum();
    for i in 0..3 {
        let dir = work.join(format!("snapshot{i}"));
        std::fs::create_dir_all(&dir).expect("create the work directory");
        let path = dir.join("catalog.tsq");
        let t0 = Instant::now();
        let bytes = catalog.save(&path).expect("save the snapshot");
        acc.save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        acc.bytes_per_user_byte = bytes as f64 / (points * 8) as f64;
        let mut paged = Catalog::new();
        let t0 = Instant::now();
        paged
            .open_paged(&path, PAGED_POOL_MIB)
            .expect("open the snapshot paged");
        acc.open_paged_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
}

fn wire_costs(reply: &QueryReply, acc: &mut Acc) {
    let response = Response::Rows(reply.clone());
    let t0 = Instant::now();
    let bytes = encode_response(&response);
    acc.encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let t0 = Instant::now();
    let back = decode_response(&bytes).expect("decode a reply");
    acc.decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
    assert_eq!(back, response, "wire round trip must be lossless");
    acc.reply_bytes.push(bytes.len() as f64);
}

pub fn run(workload: Workload, seed: u64, seconds: u64, work: &Path) -> Outcome {
    let data = Data::generate(workload, seed);
    let served: Served = e2e::setup(workload, &data, &work.join("setup"));
    let mut client: Client = served.client();
    let mut streams = Streams::new(workload, seed, &data);
    let mut oracle = Oracle::new(workload, &data, &served, &streams.ops, work);
    let mut tally = Tally::default();
    // The traced run drives one connection; check its stream first.
    let checked = Streams {
        ops: streams.ops[..1].to_vec(),
        texts: streams.texts[..1].to_vec(),
        ingest: None,
    };
    e2e::check_streams(
        &checked,
        std::slice::from_mut(&mut client),
        &mut oracle,
        &mut tally,
    );

    let mut acc = Acc {
        filter_valid: true,
        join_valid: true,
        mirror_valid: true,
        rng: Rng::new(crate::workload::derive(seed, 300)),
        ..Acc::default()
    };
    let mut rec = Recorder::default();

    // The benchmark's own core structures, in step with the catalog.
    let main_rel = workload.relations()[0];
    let mut mirrors: HashMap<Rel, Mirror> = HashMap::new();
    for &rel in workload.relations().iter().chain(&[Rel::Stocks]) {
        if mirrors.contains_key(&rel) {
            continue;
        }
        let (mut mirror, build_ms) = Mirror::build(data.get(rel));
        if rel == main_rel {
            acc.index_build_ms = build_ms;
        }
        if workload == Workload::Paged && rel == Rel::Walks {
            mirror
                .index
                .attach_paged_budget(&work.join("mirror.pages"), (PAGED_POOL_MIB as u64) << 20)
                .expect("attach paged storage");
        }
        // The ST-index: on the relation the traffic probes, else on
        // stocks for the probes below.
        let subseq_rel = match workload {
            Workload::Ingest => Rel::Feed,
            _ => Rel::Stocks,
        };
        if rel == subseq_rel {
            acc.subseq_build_ms = mirror.build_subseq();
        }
        mirrors.insert(rel, mirror);
    }

    for _ in 0..200 {
        let t0 = Instant::now();
        client.ping().expect("ping");
        acc.ping_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    // Ingest: bring the mirror to the served state.
    let checked_len = checked.ops[0].len();
    for op in &checked.ops[0] {
        if let Op::Append { rel, values } = op {
            mirrors
                .get_mut(rel)
                .expect("mirrored relation")
                .append(values);
        }
    }
    // The traced sample: the stream again from the start (ingest: the
    // ticks after the checked ones), one statement at a time.
    let sample_ops: Box<dyn Iterator<Item = (usize, Op)>> = match streams.ingest.take() {
        Some(stream) => Box::new(stream.enumerate().map(move |(i, op)| (checked_len + i, op))),
        None => {
            let ops = streams.ops[0].clone();
            Box::new((0..).map(move |i| (i % ops.len(), ops[i % ops.len()].clone())))
        }
    };
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut forms_seen: Vec<Form> = Vec::new();
    let mut done = 0usize;
    for (request, (idx, op)) in sample_ops.enumerate() {
        if done >= min_sample(workload) && Instant::now() >= deadline {
            break;
        }
        done += 1;
        let request = request as u64;
        let text = op.text();
        let root = rec.begin("request", None, request);
        let read = op.form() != Form::Append;
        let reps = if read && oracle.repeatable() { REPS } else { 1 };
        // Round trips: untraced (plain clock) and traced (a span), in
        // alternating order; both replies are checked.
        let mut traced = None;
        let mut untraced_us = None;
        for traced_turn in [request.is_multiple_of(2), !request.is_multiple_of(2)] {
            if !traced_turn {
                if read {
                    let t0 = Instant::now();
                    let reply = e2e::send(&mut client, &text);
                    untraced_us = Some(t0.elapsed().as_secs_f64() * 1e6);
                    let seen = Digest::seen(&reply);
                    tally.record(oracle.check(idx, &text, &seen), &seen, &text);
                }
                continue;
            }
            let before = tsq_core::executor::pool_stats();
            let (reply, span) =
                rec.span("service.round_trip", root, || e2e::send(&mut client, &text));
            let after = tsq_core::executor::pool_stats();
            acc.pool_tasks += after.tasks - before.tasks;
            acc.pool_steals += after.steals - before.steals;
            // The in-process answer doubles as the `lang.exec` span: on
            // the twin for sequential workloads (it must see every
            // statement the server runs), else on the served catalog.
            let parsed = tsq_lang::parse(&text).expect("generated statements parse");
            let (out, exec_us) = rec.span_min("lang.exec", root, reps, || oracle.answer(&parsed));
            let seen = Digest::seen(&reply);
            tally.record(oracle.verdict(idx, &seen, &out), &seen, &text);
            traced = Some((reply, rec.us(span), exec_us));
        }
        let (reply, rt_us, exec_us) = traced.expect("every statement has a traced turn");
        if let Some(untraced_us) = untraced_us {
            acc.overhead_us.push(rt_us - untraced_us);
        }
        let Ok(reply) = reply else {
            rec.end(root);
            continue;
        };
        let mirror = mirrors.get_mut(&op.rel()).expect("mirrored relation");
        match &op {
            Op::Append { values, .. } => {
                let points = values.len() as f64;
                acc.append_us_per_point.push(exec_us / points);
                let (index_us, subseq_us) = mirror.append(values);
                acc.index_extend_us_per_point.push(index_us / points);
                acc.subseq_extend_us_per_point.push(subseq_us / points);
            }
            _ => {
                let (_, parse_us) =
                    rec.span_min("lang.parse", root, reps, || tsq_lang::parse(&text));
                acc.parse_us.push(parse_us);
                let core_us = decompose(mirror, &op, Some(&reply), reps, &mut rec, root, &mut acc);
                acc.exec_self_us.push(exec_us - core_us);
                acc.wait_us.push(rt_us - parse_us - exec_us);
                acc.pool_hits += reply.stats.pool_hits;
                acc.pool_misses += reply.stats.pool_misses;
                acc.reads += 1;
                wire_costs(&reply, &mut acc);
            }
        }
        if !forms_seen.contains(&op.form()) {
            forms_seen.push(op.form());
        }
        rec.end(root);
    }
    tally.cross_check(&mut client);
    drop(client);
    drop(oracle);
    e2e::shutdown(served);

    // Probes for the forms the traffic lacks, on the same inputs.
    let stocks = mirrors.get(&Rel::Stocks).expect("stocks mirror");
    let mut probe_rng = Rng::new(crate::workload::derive(seed, 400));
    let mut probes: Vec<(Rel, Op)> = Vec::new();
    if !forms_seen.contains(&Form::Range) {
        for _ in 0..16 {
            let rel = main_rel;
            probes.push((
                rel,
                Op::Range {
                    rel,
                    id: probe_rng.below(rel.size()),
                    eps: 1.0,
                    tf: [Tf::Identity, Tf::Mavg8, Tf::Reverse][probe_rng.below(3)],
                },
            ));
        }
    }
    if !forms_seen.contains(&Form::Join) {
        probes.push((
            Rel::Stocks,
            Op::Join {
                rel: Rel::Stocks,
                eps: 1.0,
                tf: Tf::Mavg8,
            },
        ));
    }
    if !forms_seen.contains(&Form::Subseq) {
        let stream =
            crate::workload::read_stream(Workload::Analytic, seed, 0, data.get(Rel::Stocks));
        for op in stream.into_iter().filter(|op| op.form() == Form::Subseq) {
            probes.push((Rel::Stocks, op));
        }
    }
    for (i, (rel, op)) in probes.iter().enumerate() {
        let root = rec.begin("probe", None, (done + i) as u64);
        let mirror = if *rel == Rel::Stocks {
            stocks
        } else {
            &mirrors[rel]
        };
        decompose(mirror, op, None, REPS, &mut rec, root, &mut acc);
        rec.end(root);
    }
    if !forms_seen.contains(&Form::Append) {
        append_probe(seed, &data, stocks, &mut acc);
    }
    snapshot_probe(workload, &data, work, &mut acc);

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let trace_path = out_dir.join(format!("trace-{}-{seed}.jsonl", workload.name()));
    if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|_| rec.write_jsonl(&trace_path)) {
        eprintln!("cannot write {}: {e}", trace_path.display());
    }

    let metrics = finish(&acc);
    let mut report = vec![
        ("sampled".to_string(), done.to_string()),
        ("probes".to_string(), probes.len().to_string()),
        ("spans".to_string(), trace_path.display().to_string()),
    ];
    for (name, _, moves) in LAYER_METRICS {
        report.push((format!("moves:{name}"), moves.to_string()));
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    }
}

fn finish(acc: &Acc) -> Vec<Metric> {
    let med = stats::median;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let exec = |form: &str| acc.exec_us.get(form).map_or(0.0, |v| med(v));
    let sum = |f: fn(&(f64, f64, f64, f64, f64)) -> f64| acc.whole.iter().map(f).sum::<f64>();
    let reads = acc.whole.len().max(1) as f64;
    let (candidates, refined, false_hits, n, nodes) = (
        sum(|w| w.0),
        sum(|w| w.1),
        sum(|w| w.2),
        sum(|w| w.3),
        sum(|w| w.4),
    );
    let fetches = (acc.pool_hits + acc.pool_misses) as f64;
    let wire_reads = acc.reads.max(1) as f64;
    let qerror = stats::sorted(acc.qerror.clone());
    let values: Vec<(&str, f64)> = vec![
        ("lang.parse.us", med(&acc.parse_us)),
        ("lang.exec.self_us", med(&acc.exec_self_us)),
        ("lang.append.us_per_point", med(&acc.append_us_per_point)),
        ("core.plan.us", med(&acc.plan_us)),
        ("core.plan.refines_qerror_p50", med(&qerror)),
        (
            "core.plan.refines_qerror_max",
            qerror.last().copied().unwrap_or(0.0),
        ),
        ("core.features.us", med(&acc.features_us)),
        ("core.features.tlb", med(&acc.tlb)),
        ("core.exec.range_us", exec("range")),
        ("core.exec.knn_us", exec("knn")),
        ("core.exec.join_us", exec("join")),
        ("core.exec.subseq_us", exec("subseq")),
        (
            "core.filter.us",
            if acc.filter_valid {
                med(&acc.filter_us)
            } else {
                0.0
            },
        ),
        (
            "core.refine.us",
            if acc.filter_valid {
                med(&acc.refine_us)
            } else {
                0.0
            },
        ),
        ("core.filter.valid", flag(acc.filter_valid)),
        ("core.candidates_per_query", candidates / reads),
        ("core.refined_per_query", refined / reads),
        ("core.false_hit_ratio", false_hits / refined.max(1.0)),
        ("core.pruning_ratio", 1.0 - refined / n.max(1.0)),
        (
            "core.index.extend_us_per_point",
            med(&acc.index_extend_us_per_point),
        ),
        ("core.index.build_ms", acc.index_build_ms),
        (
            "core.join.filter_ms",
            if acc.join_valid {
                med(&acc.join_filter_ms)
            } else {
                0.0
            },
        ),
        (
            "core.join.refine_ms",
            if acc.join_valid {
                med(&acc.join_refine_ms)
            } else {
                0.0
            },
        ),
        ("core.join.valid", flag(acc.join_valid)),
        ("core.subseq.build_ms", acc.subseq_build_ms),
        ("core.subseq.probe_us", med(&acc.subseq_probe_us)),
        (
            "core.subseq.candidates_per_probe",
            stats::mean(&acc.subseq_candidates),
        ),
        (
            "core.subseq.extend_us_per_point",
            med(&acc.subseq_extend_us_per_point),
        ),
        ("core.mirror.valid", flag(acc.mirror_valid)),
        ("rtree.nodes_per_query", nodes / reads),
        ("rtree.join.entries_tested", med(&acc.join_entries)),
        (
            "rtree.page.misses_per_query",
            acc.pool_misses as f64 / wire_reads,
        ),
        (
            "rtree.page.hit_ratio",
            if fetches > 0.0 {
                acc.pool_hits as f64 / fetches
            } else {
                0.0
            },
        ),
        ("service.ping_us", med(&acc.ping_us)),
        ("service.wait_us", med(&acc.wait_us)),
        ("service.wire.encode_us", med(&acc.encode_us)),
        ("service.wire.decode_us", med(&acc.decode_us)),
        ("service.reply_bytes", med(&acc.reply_bytes)),
        ("pool.tasks_per_query", acc.pool_tasks as f64 / wire_reads),
        ("pool.steals_per_query", acc.pool_steals as f64 / wire_reads),
        ("lang.snapshot.save_ms", med(&acc.save_ms)),
        ("lang.snapshot.open_paged_ms", med(&acc.open_paged_ms)),
        ("store.bytes_per_user_byte", acc.bytes_per_user_byte),
        ("trace.overhead_us", med(&acc.overhead_us)),
    ];
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (key, value))| {
            assert_eq!(name, key, "metric table and values must line up");
            Metric::new(name, value, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::LAYER_METRICS;

    /// `BENCHMARK.json` declares exactly the per-layer metrics the
    /// traced run prints, in order, with the same units.
    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let per_layer = json.split("\"per_layer\"").nth(1).expect("per_layer key");
        let declared: Vec<(String, String)> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap()
                    .to_string();
                (name, unit)
            })
            .collect();
        let printed: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, printed);
    }
}
