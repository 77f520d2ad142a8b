//! The untraced run: set up the served catalog, check every reply
//! against an in-process oracle, then drive the closed loop for the
//! measured window and check every timed reply too.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tsq_core::ExecStats;
use tsq_core::SeriesRelation;
use tsq_lang::{Catalog, Query, QueryOutput, SharedCatalog};
use tsq_service::{Client, ClientError, QueryReply, ServerHandle, ServiceConfig};

use crate::stats::{self, Metric};
use crate::workload::{read_stream, Form, IngestStream, Op, Rel, Workload, WINDOW};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Ingest ticks (append + reads) checked before the timed window.
const CHECK_TICKS: usize = 3;
/// Paged-pool budget of `Catalog::open_paged`, in MiB.
pub const PAGED_POOL_MIB: usize = 1;

/// The generated relations of one run.
pub struct Data {
    rels: HashMap<Rel, SeriesRelation>,
}

impl Data {
    /// The workload's relations, plus `stocks` (the subsequence-query
    /// source and the traced run's join and append probes).
    pub fn generate(workload: Workload, seed: u64) -> Data {
        let mut rels = HashMap::new();
        for &rel in workload.relations().iter().chain(&[Rel::Stocks]) {
            rels.entry(rel).or_insert_with(|| rel.generate(seed));
        }
        Data { rels }
    }

    pub fn get(&self, rel: Rel) -> &SeriesRelation {
        &self.rels[&rel]
    }
}

/// The system under test: a served catalog.
pub struct Served {
    pub shared: SharedCatalog,
    pub handle: ServerHandle,
}

impl Served {
    pub fn client(&self) -> Client {
        let mut client = Client::connect(self.handle.addr()).expect("connect to the local server");
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .expect("set client timeout");
        client
    }
}

/// A statement that builds the relation's ST-index for [`WINDOW`].
pub fn warm_up_statement(rel: &SeriesRelation) -> String {
    let head: Vec<String> = rel.series()[0].values()[..WINDOW]
        .iter()
        .map(f64::to_string)
        .collect();
    format!(
        "FIND 1 NEAREST SUBSEQUENCE OF [{}] IN {} WINDOW {WINDOW}",
        head.join(", "),
        rel.name()
    )
}

/// Builds the catalog the workload serves, without a server: the
/// relations are registered (paged: saved and reopened with a
/// [`PAGED_POOL_MIB`] pool) and lazy ST-indexes are built.
pub fn build_catalog(workload: Workload, data: &Data, dir: &Path) -> Catalog {
    let catalog = in_memory(workload.relations(), data);
    match workload {
        Workload::Paged => {
            std::fs::create_dir_all(dir).expect("create the work directory");
            let path = dir.join("walks.tsq");
            catalog.save(&path).expect("save the snapshot");
            let mut paged = Catalog::new();
            paged
                .open_paged(&path, PAGED_POOL_MIB)
                .expect("open the snapshot paged");
            paged
        }
        Workload::Analytic => {
            catalog
                .run(&warm_up_statement(data.get(Rel::Stocks)))
                .expect("warm-up subsequence query");
            catalog
        }
        Workload::Ingest => {
            catalog
                .run(&warm_up_statement(data.get(Rel::Feed)))
                .expect("warm-up subsequence query");
            catalog
        }
        Workload::Point => catalog,
    }
}

/// A catalog holding `rels`, in memory.
pub fn in_memory(rels: &[Rel], data: &Data) -> Catalog {
    let mut catalog = Catalog::new();
    for &rel in rels {
        catalog
            .register(data.get(rel).clone())
            .expect("register a generated relation");
    }
    catalog
}

/// One set-up: catalog build (and snapshot save + paged open), warm-up,
/// server start.
pub fn setup(workload: Workload, data: &Data, dir: &Path) -> Served {
    let shared = SharedCatalog::new(build_catalog(workload, data, dir));
    let handle = tsq_lang::serve("127.0.0.1:0", shared.clone(), ServiceConfig::default())
        .expect("start the server");
    Served { shared, handle }
}

/// Sets up [`SETUPS`] times and keeps the last; returns it with the
/// median set-up time in seconds.
pub fn timed_setup(workload: Workload, data: &Data, work: &Path) -> (Served, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        if let Some(old) = served.take() {
            shutdown(old);
        }
        let dir = work.join(format!("setup{i}"));
        let start = Instant::now();
        served = Some(setup(workload, data, &dir));
        times.push(start.elapsed().as_secs_f64());
    }
    (served.expect("at least one set-up"), stats::median(&times))
}

pub fn shutdown(served: Served) {
    let Served { shared, handle } = served;
    handle.shutdown();
    drop(shared);
}

/// A fingerprint of one answer (FNV-1a over the plan name, every row —
/// labels, offset, distance bits — and the `ExecStats`), once without
/// and once with the buffer-pool counters. Equal fingerprints mean a
/// bit-for-bit equal answer; keeping fingerprints instead of replies
/// keeps the load generator's memory flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    no_pool: u64,
    full: u64,
    /// Every node visit was one buffer-pool fetch (hits + misses ==
    /// nodes visited): what a paged reply's counters must satisfy.
    pool_balanced: bool,
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl Digest {
    fn of<'a>(
        plan: &str,
        stats: &ExecStats,
        shards: usize,
        rows: impl Iterator<Item = (&'a str, Option<&'a str>, Option<u64>, f64)>,
    ) -> Digest {
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        h.str(plan);
        h.u64(shards as u64);
        for (a, b, offset, distance) in rows {
            h.str(a);
            h.str(b.unwrap_or("\u{0}"));
            h.u64(offset.map_or(u64::MAX, |o| o));
            h.u64(distance.to_bits());
        }
        // Every counter, whatever fields `ExecStats` grows.
        let mut full = Fnv(h.0);
        full.str(&format!("{stats:?}"));
        let mut no_pool = h;
        no_pool.str(&format!(
            "{:?}",
            ExecStats {
                pool_hits: 0,
                pool_misses: 0,
                ..*stats
            }
        ));
        Digest {
            no_pool: no_pool.0,
            full: full.0,
            pool_balanced: stats.pool_hits + stats.pool_misses == stats.nodes_visited,
        }
    }

    /// What the checks see of a reply: its fingerprint, or the error.
    pub fn seen(reply: &Result<QueryReply, String>) -> Seen {
        reply.as_ref().map(Digest::reply).map_err(Clone::clone)
    }

    fn reply(r: &QueryReply) -> Digest {
        let rows = r
            .rows
            .iter()
            .map(|w| (w.a.as_str(), w.b.as_deref(), w.offset, w.distance));
        Digest::of(&r.plan, &r.stats, r.shard_stats.len(), rows)
    }

    pub fn output(o: &QueryOutput) -> Digest {
        let rows = o.rows.iter().map(|w| {
            (
                w.a.as_str(),
                w.b.as_deref(),
                w.offset.map(|x| x as u64),
                w.distance,
            )
        });
        Digest::of(&o.plan, &o.stats, o.shard_stats.len(), rows)
    }
}

/// A reply as the checks see it: its fingerprint, or the error text.
pub type Seen = Result<Digest, String>;

/// The in-process answer source for every reply.
pub enum Oracle {
    /// Read-only in-memory catalogs: each statement's answer, computed
    /// on the served `SharedCatalog` itself.
    Fixed {
        shared: SharedCatalog,
        answers: HashMap<String, Digest>,
    },
    /// A private twin fed the same statements in the order the server
    /// ran them: the paged twin reproduces the pool counters, the ingest
    /// twin the appended state. `memory` holds the in-memory answers the
    /// paged replies must also equal.
    Sequential {
        twin: Box<Catalog>,
        memory: Option<Vec<Digest>>,
    },
}

impl Oracle {
    pub fn new(
        workload: Workload,
        data: &Data,
        served: &Served,
        streams: &[Vec<Op>],
        work: &Path,
    ) -> Oracle {
        match workload {
            Workload::Point | Workload::Analytic => Oracle::Fixed {
                shared: served.shared.clone(),
                answers: HashMap::new(),
            },
            Workload::Paged => {
                let memory = in_memory(&[Rel::Walks], data);
                let answers = streams[0]
                    .iter()
                    .map(|op| Digest::output(&memory.run(&op.text()).expect("in-memory answer")))
                    .collect();
                drop(memory);
                Oracle::Sequential {
                    twin: Box::new(build_catalog(workload, data, &work.join("twin"))),
                    memory: Some(answers),
                }
            }
            Workload::Ingest => Oracle::Sequential {
                twin: Box::new(build_catalog(workload, data, work)),
                memory: None,
            },
        }
    }

    /// Runs a statement in process — on the served catalog, or on the
    /// twin, which must see every statement the server runs, in order.
    pub fn answer(&mut self, query: &Query) -> QueryOutput {
        match self {
            Oracle::Fixed { shared, .. } => shared.execute(query),
            Oracle::Sequential { twin, .. } => match query {
                Query::Append { relation, rows } => twin.append(relation, rows),
                _ => twin.execute(query),
            },
        }
        .expect("oracle statement must run")
    }

    /// Whether a read may run in process more than once without
    /// disturbing what later replies are checked against (not so for
    /// the paged twin, whose pool counters must track the server's).
    pub fn repeatable(&self) -> bool {
        !matches!(
            self,
            Oracle::Sequential {
                memory: Some(_),
                ..
            }
        )
    }

    /// Whether `reply` to statement `idx` equals the in-process `out`
    /// (and, for paged, the in-memory answer).
    pub fn verdict(&self, idx: usize, reply: &Seen, out: &QueryOutput) -> bool {
        let Ok(r) = reply else { return false };
        let memory = match self {
            Oracle::Sequential {
                memory: Some(m), ..
            } => Some(m[idx % m.len()]),
            _ => None,
        };
        *r == Digest::output(out) && memory.is_none_or(|m| m.no_pool == r.no_pool)
    }

    /// Checks `reply` to statement `idx`; calls must follow the
    /// server's execution order. Read-only in-memory answers are
    /// computed once per distinct statement.
    pub fn check(&mut self, idx: usize, text: &str, reply: &Seen) -> bool {
        let query = tsq_lang::parse(text).expect("generated statements parse");
        if let Oracle::Fixed { shared, answers } = self {
            let want = answers.entry(text.to_string()).or_insert_with(|| {
                Digest::output(&shared.execute(&query).expect("oracle statement must run"))
            });
            return reply.as_ref() == Ok(want);
        }
        let out = self.answer(&query);
        self.verdict(idx, reply, &out)
    }

    /// Checks a timed reply. Paged replies are checked against the
    /// in-memory answer with balanced pool counters; the twin's exact
    /// pool counters were checked before timing (replaying the timed
    /// window on it would double the run).
    pub fn check_timed(&mut self, idx: usize, text: &str, reply: &Seen) -> bool {
        match self {
            Oracle::Sequential {
                memory: Some(m), ..
            } => matches!(reply, Ok(r) if r.no_pool == m[idx % m.len()].no_pool && r.pool_balanced),
            _ => self.check(idx, text, reply),
        }
    }
}

/// One timed request.
struct Sample {
    conn: usize,
    idx: usize,
    form: Form,
    secs: f64,
    reply: Seen,
}

pub fn send(client: &mut Client, text: &str) -> Result<QueryReply, String> {
    client.query(text).map_err(|e: ClientError| e.to_string())
}

/// Sends one statement; returns the reply's fingerprint and round trip
/// in seconds (the fingerprint is taken after the clock stops).
fn send_seen(client: &mut Client, text: &str) -> (Seen, f64) {
    let t0 = Instant::now();
    let reply = send(client, text);
    let secs = t0.elapsed().as_secs_f64();
    (Digest::seen(&reply), secs)
}

/// Everything one untraced run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Named figures beyond the gated metrics (printed in the report).
    pub report: Vec<(String, String)>,
}

/// The statement streams of one run: per connection for the cyclic
/// read workloads; for ingest, the checked prefix plus the unbounded rest.
pub struct Streams {
    pub ops: Vec<Vec<Op>>,
    pub texts: Vec<Vec<String>>,
    pub ingest: Option<IngestStream>,
}

impl Streams {
    pub fn new(workload: Workload, seed: u64, data: &Data) -> Streams {
        let mut ingest =
            (workload == Workload::Ingest).then(|| IngestStream::new(seed, data.get(Rel::Feed)));
        let ops: Vec<Vec<Op>> = match &mut ingest {
            Some(stream) => vec![stream
                .by_ref()
                .take(CHECK_TICKS * (1 + crate::workload::READS_PER_TICK))
                .collect()],
            None => (0..workload.connections())
                .map(|c| read_stream(workload, seed, c, data.get(Rel::Stocks)))
                .collect(),
        };
        let texts = ops
            .iter()
            .map(|s| s.iter().map(Op::text).collect())
            .collect();
        Streams { ops, texts, ingest }
    }
}

/// Requests sent, wrong or failed replies, and failures the client saw
/// (to cross-check against the server's own count).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub client_errors: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool, reply: &Seen, text: &str) {
        self.attempted += 1;
        self.client_errors += reply.is_err() as u64;
        if !ok {
            eprintln!(
                "wrong or failed reply to {}: {:?}",
                abbreviate(text),
                reply.as_ref().err()
            );
            self.failed += 1;
        }
    }

    /// Counts a disagreement with the server's `queries_err` as a failure.
    pub fn cross_check(&mut self, client: &mut Client) {
        let server = server_errors(client);
        if server != Some(self.client_errors) {
            eprintln!(
                "server counted {server:?} failed queries, the client {}",
                self.client_errors
            );
            self.failed += 1;
        }
    }
}

/// The answer check: every statement of every stream once, over the
/// wire, against the oracle. It also warms caches and the page pool.
pub fn check_streams(
    streams: &Streams,
    clients: &mut [Client],
    oracle: &mut Oracle,
    tally: &mut Tally,
) {
    let mut seen = std::collections::HashSet::new();
    for (conn, texts) in streams.texts.iter().enumerate() {
        for (idx, text) in texts.iter().enumerate() {
            // A repeated statement of a read-only in-memory catalog has
            // one answer; check it once.
            if matches!(oracle, Oracle::Fixed { .. }) && !seen.insert(text) {
                continue;
            }
            let (reply, _) = send_seen(&mut clients[conn], text);
            let ok = oracle.check(idx, text, &reply);
            tally.record(ok, &reply, text);
        }
    }
}

pub fn run(workload: Workload, seed: u64, seconds: u64, work: &Path) -> Outcome {
    let data = Data::generate(workload, seed);
    let (served, setup_s) = timed_setup(workload, &data, work);
    let mut clients: Vec<Client> = (0..workload.connections())
        .map(|_| served.client())
        .collect();
    let mut streams = Streams::new(workload, seed, &data);
    let mut oracle = Oracle::new(workload, &data, &served, &streams.ops, work);
    let mut tally = Tally::default();

    // 1. Answer check, before any timing.
    check_streams(&streams, &mut clients, &mut oracle, &mut tally);
    let (streams_ops, texts) = (&streams.ops, &streams.texts);

    // 2. Timed closed loop.
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let started = Instant::now();
    let mut ingest_ops: Vec<Op> = Vec::new();
    let checked = streams_ops[0].len();
    let samples: Vec<Sample> = match &mut streams.ingest {
        Some(stream) => {
            let client = &mut clients[0];
            let mut out = Vec::new();
            let mut idx = checked;
            while Instant::now() < deadline {
                let op = stream.next().expect("the ingest stream is unbounded");
                let text = op.text();
                let (reply, secs) = send_seen(client, &text);
                out.push(Sample {
                    conn: 0,
                    idx,
                    form: op.form(),
                    secs,
                    reply,
                });
                ingest_ops.push(op);
                idx += 1;
            }
            out
        }
        None => std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(conn, client)| {
                    let texts = &texts[conn];
                    let ops = &streams_ops[conn];
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = 0;
                        while Instant::now() < deadline {
                            let idx = i % texts.len();
                            let (reply, secs) = send_seen(client, &texts[idx]);
                            out.push(Sample {
                                conn,
                                idx,
                                form: ops[idx].form(),
                                secs,
                                reply,
                            });
                            i += 1;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("load-generator thread"))
                .collect()
        }),
    };
    let elapsed = started.elapsed().as_secs_f64();
    let peak_rss = stats::peak_rss_mib();

    // 3. Check every timed reply, in the order the server ran them.
    for s in &samples {
        let text = match workload {
            Workload::Ingest => ingest_ops[s.idx - checked].text(),
            _ => texts[s.conn][s.idx].clone(),
        };
        let ok = oracle.check_timed(s.idx, &text, &s.reply);
        tally.record(ok, &s.reply, &text);
    }
    tally.cross_check(&mut clients[0]);
    drop(clients);
    drop(oracle);
    shutdown(served);

    let ms = |form: Option<Form>| -> Vec<f64> {
        stats::sorted(
            samples
                .iter()
                .filter(|s| match form {
                    Some(f) => s.form == f,
                    None => s.form != Form::Append,
                })
                .map(|s| s.secs * 1e3)
                .collect(),
        )
    };
    let reads = ms(None);
    let tail = stats::tail(&reads);
    let appends = ms(Some(Form::Append));
    let points_appended = (appends.len() * Rel::Feed.size()) as f64;
    let append_secs: f64 = appends.iter().sum::<f64>() / 1e3;
    let p50 = |v: &[f64]| stats::percentile(v, 0.5);

    let metrics = vec![
        Metric::new("qps", reads.len() as f64 / elapsed, "1/s"),
        Metric::new("p50_ms", p50(&reads), "ms"),
        Metric::new("tail_ms", tail.value, "ms"),
        Metric::new("knn_p50_ms", p50(&ms(Some(Form::Knn))), "ms"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mib", peak_rss, "MiB"),
    ];
    let mut report = vec![
        (
            "tail_percentile".to_string(),
            format!("p{}", tail.percentile),
        ),
        ("reads".to_string(), tail.n.to_string()),
    ];
    for form in [Form::Range, Form::Join, Form::Subseq] {
        let v = ms(Some(form));
        if !v.is_empty() {
            report.push((
                format!("{}_p50_ms", form.name()),
                format!("{} ms (n={})", stats::num(p50(&v)), v.len()),
            ));
        }
    }
    if !appends.is_empty() {
        report.push((
            "append_points_per_s".to_string(),
            format!("{} 1/s", stats::num(points_appended / append_secs)),
        ));
        report.push((
            "append_p50_ms".to_string(),
            format!("{} ms (n={})", stats::num(p50(&appends)), appends.len()),
        ));
    }
    report.push((
        "error_ratio".to_string(),
        format!(
            "{} ratio (n={})",
            stats::num(tally.failed as f64 / tally.attempted.max(1) as f64),
            tally.attempted
        ),
    ));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    }
}

/// `queries_err` from the server's own metrics.
pub fn server_errors(client: &mut Client) -> Option<u64> {
    let json = client.stats_json().ok()?;
    let rest = json.split("\"queries_err\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

pub fn abbreviate(text: &str) -> String {
    if text.len() <= 96 {
        text.to_string()
    } else {
        format!("{}...", &text[..96])
    }
}

/// A fresh per-process scratch directory inside the benchmark's own
/// tree; removed when the run ends.
pub fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the work directory");
    dir
}
