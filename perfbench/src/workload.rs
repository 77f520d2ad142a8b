//! Seeded inputs: the generated relations and each workload's statement
//! stream. Everything here is a pure function of `(workload, seed)`, so
//! two commits measured with the same seed send the same bytes.

use tsq_core::{LinearTransform, SeriesRelation};
use tsq_series::generate::{RandomWalkGenerator, StockGenerator};

/// Series length of every generated relation.
pub const LEN: usize = 128;
/// Random-walk relation size (`walks`).
pub const WALKS: usize = 20_000;
/// The paper's stock-relation size (`stocks`, and `feed` for ingest).
pub const STOCKS: usize = 1_067;
/// Sliding-window length of every subsequence query.
pub const WINDOW: usize = 32;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Point,
    Analytic,
    Ingest,
    Paged,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Point,
        Workload::Analytic,
        Workload::Ingest,
        Workload::Paged,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Point => "point",
            Workload::Analytic => "analytic",
            Workload::Ingest => "ingest",
            Workload::Paged => "paged",
        }
    }

    /// Persistent client connections driving the server.
    pub fn connections(self) -> usize {
        match self {
            Workload::Point => 2,
            _ => 1,
        }
    }

    /// Relations the served catalog holds.
    pub fn relations(self) -> &'static [Rel] {
        match self {
            Workload::Point | Workload::Analytic => &[Rel::Walks, Rel::Stocks],
            Workload::Ingest => &[Rel::Feed],
            Workload::Paged => &[Rel::Walks],
        }
    }
}

/// A generated relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    Walks,
    Stocks,
    Feed,
}

impl Rel {
    pub fn name(self) -> &'static str {
        match self {
            Rel::Walks => "walks",
            Rel::Stocks => "stocks",
            Rel::Feed => "feed",
        }
    }

    pub fn size(self) -> usize {
        match self {
            Rel::Walks => WALKS,
            Rel::Stocks | Rel::Feed => STOCKS,
        }
    }

    /// The relation's series, generated from `seed`.
    pub fn generate(self, seed: u64) -> SeriesRelation {
        let series = match self {
            Rel::Walks => RandomWalkGenerator::new(derive(seed, 1)).relation(WALKS, LEN),
            Rel::Stocks => StockGenerator::new(derive(seed, 2)).relation(STOCKS, LEN),
            Rel::Feed => StockGenerator::new(derive(seed, 3)).relation(STOCKS, LEN),
        };
        SeriesRelation::from_series(self.name(), series).expect("generated series are finite")
    }
}

/// The data-side transformation of a whole-series query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tf {
    Identity,
    Mavg8,
    Reverse,
}

impl Tf {
    fn clause(self) -> &'static str {
        match self {
            Tf::Identity => "",
            Tf::Mavg8 => " APPLY mavg(8)",
            Tf::Reverse => " APPLY reverse",
        }
    }

    /// The same transformation built directly from the core library.
    pub fn linear(self, n: usize) -> LinearTransform {
        match self {
            Tf::Identity => LinearTransform::identity(n),
            Tf::Mavg8 => LinearTransform::moving_average(n, 8),
            Tf::Reverse => LinearTransform::reverse(n),
        }
    }
}

/// Query forms, for per-form latency and per-layer attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    Range,
    Knn,
    Join,
    Subseq,
    Append,
}

impl Form {
    pub fn name(self) -> &'static str {
        match self {
            Form::Range => "range",
            Form::Knn => "knn",
            Form::Join => "join",
            Form::Subseq => "subseq",
            Form::Append => "append",
        }
    }
}

/// One statement, kept structured so the traced run can build the
/// engine's `LogicalPlan` from the generator's own parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Range {
        rel: Rel,
        id: usize,
        eps: f64,
        tf: Tf,
    },
    Knn {
        rel: Rel,
        id: usize,
        k: usize,
        tf: Tf,
    },
    Join {
        rel: Rel,
        eps: f64,
        tf: Tf,
    },
    SubseqRange {
        rel: Rel,
        query: Vec<f64>,
        eps: f64,
    },
    SubseqKnn {
        rel: Rel,
        query: Vec<f64>,
        k: usize,
    },
    /// One new point for every series `s0..` of the relation.
    Append {
        rel: Rel,
        values: Vec<f64>,
    },
}

impl Op {
    pub fn form(&self) -> Form {
        match self {
            Op::Range { .. } => Form::Range,
            Op::Knn { .. } => Form::Knn,
            Op::Join { .. } => Form::Join,
            Op::SubseqRange { .. } | Op::SubseqKnn { .. } => Form::Subseq,
            Op::Append { .. } => Form::Append,
        }
    }

    pub fn rel(&self) -> Rel {
        match self {
            Op::Range { rel, .. }
            | Op::Knn { rel, .. }
            | Op::Join { rel, .. }
            | Op::SubseqRange { rel, .. }
            | Op::SubseqKnn { rel, .. }
            | Op::Append { rel, .. } => *rel,
        }
    }

    /// The statement text sent over the wire.
    pub fn text(&self) -> String {
        match self {
            Op::Range { rel, id, eps, tf } => {
                let r = rel.name();
                format!(
                    "FIND SIMILAR TO {r}.s{id} IN {r} WITHIN {eps}{}",
                    tf.clause()
                )
            }
            Op::Knn { rel, id, k, tf } => {
                let r = rel.name();
                format!("FIND {k} NEAREST TO {r}.s{id} IN {r}{}", tf.clause())
            }
            Op::Join { rel, eps, tf } => format!("JOIN {} WITHIN {eps}{}", rel.name(), tf.clause()),
            Op::SubseqRange { rel, query, eps } => format!(
                "FIND SUBSEQUENCE OF {} IN {} WITHIN {eps} WINDOW {WINDOW}",
                literal(query),
                rel.name()
            ),
            Op::SubseqKnn { rel, query, k } => format!(
                "FIND {k} NEAREST SUBSEQUENCE OF {} IN {} WINDOW {WINDOW}",
                literal(query),
                rel.name()
            ),
            Op::Append { rel, values } => {
                let mut s = format!("APPEND {} CSV", rel.name());
                for (id, v) in values.iter().enumerate() {
                    s.push_str(&format!(" (s{id}, {v})"));
                }
                s
            }
        }
    }
}

fn literal(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

/// Rounds to four decimals, so the statement text parses back to the
/// very same `f64` the generator holds.
fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// SplitMix64: a tiny, fully specified generator, so streams do not
/// depend on any library's RNG.
#[derive(Debug, Clone, Default)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// A sub-seed for one purpose, so each relation and stream draws from
/// its own sequence.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// A subsequence query: a stored window with small seeded noise, so
/// answers are non-empty yet small.
fn window_query(rng: &mut Rng, data: &SeriesRelation) -> Vec<f64> {
    let series = data.get(rng.below(data.len())).expect("id < len").values();
    let start = rng.below(series.len() - WINDOW + 1);
    series[start..start + WINDOW]
        .iter()
        .map(|v| round4(v + rng.uniform(-0.05, 0.05)))
        .collect()
}

/// Ops per connection of the cyclic read streams.
const POINT_STREAM: usize = 1024;
const ANALYTIC_STREAM: usize = 256;
const PAGED_STREAM: usize = 1024;

/// The cyclic statement stream of connection `conn` of a read-only
/// workload. Timed runs loop over it; the first pass is the answer
/// check and warm-up.
pub fn read_stream(workload: Workload, seed: u64, conn: usize, stocks: &SeriesRelation) -> Vec<Op> {
    let mut rng = Rng::new(derive(seed, 100 + conn as u64));
    let tf3 = [Tf::Identity, Tf::Mavg8, Tf::Reverse];
    match workload {
        Workload::Point => (0..POINT_STREAM)
            .map(|_| match rng.below(10) {
                0..=2 => Op::Range {
                    rel: Rel::Walks,
                    id: rng.below(WALKS),
                    eps: 1.0,
                    tf: tf3[rng.below(3)],
                },
                3..=4 => Op::Range {
                    rel: Rel::Stocks,
                    id: rng.below(STOCKS),
                    eps: 1.0,
                    tf: tf3[rng.below(3)],
                },
                _ => Op::Knn {
                    rel: Rel::Stocks,
                    id: rng.below(STOCKS),
                    k: 1 + rng.below(10),
                    tf: [Tf::Identity, Tf::Mavg8][rng.below(2)],
                },
            })
            .collect(),
        // Per cycle of eight: one join, five 20k-walk kNN, two
        // subsequence probes — the median read is a kNN, and the tail
        // rung (p95) holds whether the machine runs fast or slow.
        Workload::Analytic => (0..ANALYTIC_STREAM)
            .map(|i| match i % 8 {
                0 => Op::Join {
                    rel: Rel::Stocks,
                    eps: 1.0,
                    tf: Tf::Mavg8,
                },
                1..=5 => Op::Knn {
                    rel: Rel::Walks,
                    id: rng.below(WALKS),
                    k: 5,
                    tf: Tf::Identity,
                },
                6 => Op::SubseqKnn {
                    rel: Rel::Stocks,
                    query: window_query(&mut rng, stocks),
                    k: 1 + rng.below(10),
                },
                _ => Op::SubseqRange {
                    rel: Rel::Stocks,
                    query: window_query(&mut rng, stocks),
                    eps: 0.5,
                },
            })
            .collect(),
        Workload::Paged => (0..PAGED_STREAM)
            .map(|_| {
                if rng.below(8) != 0 {
                    Op::Range {
                        rel: Rel::Walks,
                        id: rng.below(WALKS),
                        eps: 1.0,
                        tf: tf3[rng.below(3)],
                    }
                } else {
                    Op::Knn {
                        rel: Rel::Walks,
                        id: rng.below(WALKS),
                        k: 1 + rng.below(10),
                        tf: Tf::Identity,
                    }
                }
            })
            .collect(),
        Workload::Ingest => panic!("ingest has no cyclic stream; use IngestStream"),
    }
}

/// Reads that follow every ingest tick.
pub const READS_PER_TICK: usize = 20;

/// The unbounded ingest stream: each tick is one `APPEND feed CSV` with
/// a point for every series, followed by [`READS_PER_TICK`] reads.
#[derive(Debug, Clone)]
pub struct IngestStream {
    rng: Rng,
    last: Vec<f64>,
    initial: SeriesRelation,
    pending: std::collections::VecDeque<Op>,
}

impl IngestStream {
    pub fn new(seed: u64, feed: &SeriesRelation) -> Self {
        IngestStream {
            rng: Rng::new(derive(seed, 200)),
            last: feed
                .series()
                .iter()
                .map(|s| *s.values().last().expect("non-empty series"))
                .collect(),
            initial: feed.clone(),
            pending: Default::default(),
        }
    }

    fn tick(&mut self) {
        let rng = &mut self.rng;
        let values: Vec<f64> = self
            .last
            .iter()
            .map(|v| round4(v * (1.0 + rng.uniform(-0.02, 0.02))))
            .collect();
        self.last.clone_from(&values);
        self.pending.push_back(Op::Append {
            rel: Rel::Feed,
            values,
        });
        for i in 0..READS_PER_TICK {
            let op = match i {
                0..=7 => Op::Range {
                    rel: Rel::Feed,
                    id: rng.below(STOCKS),
                    eps: 1.0,
                    tf: [Tf::Identity, Tf::Mavg8][i % 2],
                },
                8..=15 => Op::Knn {
                    rel: Rel::Feed,
                    id: rng.below(STOCKS),
                    k: 1 + rng.below(10),
                    tf: Tf::Identity,
                },
                _ => Op::SubseqKnn {
                    rel: Rel::Feed,
                    query: window_query(rng, &self.initial),
                    k: 1 + rng.below(5),
                },
            };
            self.pending.push_back(op);
        }
    }
}

impl Iterator for IngestStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.pending.is_empty() {
            self.tick();
        }
        self.pending.pop_front()
    }
}

/// The first `n` statements of every connection's stream, concatenated:
/// the bytes the reproducibility self-test compares.
pub fn stream_bytes(workload: Workload, seed: u64, n: usize) -> Vec<u8> {
    let mut out = Vec::new();
    if workload == Workload::Ingest {
        for op in IngestStream::new(seed, &Rel::Feed.generate(seed)).take(n) {
            out.extend_from_slice(op.text().as_bytes());
            out.push(b'\n');
        }
    } else {
        let stocks = Rel::Stocks.generate(seed);
        for conn in 0..workload.connections() {
            for op in read_stream(workload, seed, conn, &stocks).iter().take(n) {
                out.extend_from_slice(op.text().as_bytes());
                out.push(b'\n');
            }
        }
    }
    out
}

/// Same seed ⇒ byte-identical stream; another seed ⇒ another stream.
pub fn self_test(workload: Workload, seed: u64) -> bool {
    let a = stream_bytes(workload, seed, 48);
    a == stream_bytes(workload, seed, 48) && a != stream_bytes(workload, seed.wrapping_add(1), 48)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_workload_and_seed() {
        for w in Workload::ALL {
            for seed in [0, 1, 42] {
                assert!(self_test(w, seed), "{}: seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn literals_parse_back_exactly() {
        let stocks = Rel::Stocks.generate(5);
        let mut rng = Rng::new(9);
        let q = window_query(&mut rng, &stocks);
        let text = literal(&q);
        let back: Vec<f64> = text[1..text.len() - 1]
            .split(", ")
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(back, q);
    }
}
