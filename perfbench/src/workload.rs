//! Seeded inputs: the fixture store and the request stream of each
//! workload. Everything here is a pure function of (workload, seed); the
//! run length only decides how long a prefix of the stream is used.

use cornet_core::rule::Rule;
use cornet_corpus::rulegen::numeric_rule;
use cornet_corpus::taskgen::generate_task_with_len;
use cornet_corpus::values::{numeric_column, NumericFamily};
use cornet_corpus::{generate_multirule_corpus, CorpusConfig, MultiRuleConfig, Task};
use cornet_serde::{to_string, ToJson};
use cornet_serve::sha256::sha256;
use cornet_serve::store::rule_id_for;
use cornet_serve::suggest::embed_column;
use cornet_serve::SuggestRequest;
use cornet_serve::{ClassRequest, LearnRequest, RuleStore, ScoreRequest, StoredRule};
use cornet_table::{CellValue, DataType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Rules in the pre-built store (ids that collide are dropped).
pub const FIXTURE_RULES: usize = 1200;
/// Rules packed into segment files; the rest stay loose sharded files.
pub const PACKED_RULES: usize = 800;
/// LRU capacity of the served store: a ninth of the fixture, so Zipf
/// reads both hit memory and go to segment or sharded files.
pub const CACHE_CAPACITY: usize = 128;
/// Zipf exponent of the rule-id popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Share of open-loop reads that are `/suggest` (the rest are `/score`).
pub const SUGGEST_SHARE: f64 = 0.15;
/// Suggestions asked for per `/suggest`.
pub const SUGGEST_K: usize = 3;
/// Tenant namespaces besides the global one.
pub const TENANTS: [&str; 3] = ["acme", "globex", "initech"];
/// Cells per fixture column, so every `/score` costs about the same
/// whichever rules the seed makes popular.
pub const SCORE_CELLS: usize = 64;
/// Distinct `/score` requests the closed-loop phase cycles through.
pub const PEAK_POOL: usize = 512;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Reads only while reads are timed; the learner bypass.
    ServeRead,
    /// The same reads beside fresh and repeated learns.
    ServeMixed,
    /// Long columns, where clustering dominates learning.
    LearnLong,
}

/// The fixed set of columns a closed-loop learn phase cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnSet {
    /// Corpus single-rule columns.
    ShortCorpus,
    /// Corpus single-rule columns alternating with multi-class columns.
    ShortMixed,
    /// 1 600- and 3 200-cell text, number and date columns.
    Long,
}

/// How a workload spends its run. A run is a number of rounds; each
/// round takes its slice of the open loop, its slice of the closed-loop
/// `/score` phase and one pass over the learn set, so a burst of noise
/// from outside the benchmark spoils one round instead of a whole
/// metric, and every metric is a median over rounds.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Open-loop read arrival rate (requests per second).
    pub read_rps: f64,
    /// Open-loop `/learn` arrival rate on the second connection.
    pub learn_rps: f64,
    /// Share of the run's seconds given to the open loop.
    pub open_share: f64,
    /// Share of the run's seconds given to the closed-loop `/score` phase.
    pub peak_share: f64,
    /// Rounds per run.
    pub rounds: usize,
    /// Columns of the closed-loop learn passes, one pass per round.
    pub learn_set: LearnSet,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ServeRead,
        Workload::ServeMixed,
        Workload::LearnLong,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRead => "serve_read",
            Workload::ServeMixed => "serve_mixed",
            Workload::LearnLong => "learn_long",
        }
    }

    /// The workload's traffic shape.
    pub fn profile(self) -> Profile {
        match self {
            Workload::ServeRead => Profile {
                read_rps: 200.0,
                learn_rps: 0.0,
                open_share: 0.5,
                peak_share: 0.3,
                rounds: 5,
                learn_set: LearnSet::ShortCorpus,
            },
            Workload::ServeMixed => Profile {
                read_rps: 200.0,
                learn_rps: 1.5,
                open_share: 0.65,
                peak_share: 0.15,
                rounds: 5,
                learn_set: LearnSet::ShortMixed,
            },
            Workload::LearnLong => Profile {
                read_rps: 200.0,
                learn_rps: 0.0,
                open_share: 0.2,
                peak_share: 0.15,
                rounds: 5,
                learn_set: LearnSet::Long,
            },
        }
    }
}

/// SplitMix64 over a root seed and two stream coordinates, so every
/// request slot draws from its own independent generator.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

const STREAM_FIXTURE: u64 = 1;
const STREAM_READS: u64 = 2;
const STREAM_PEAK: u64 = 3;
const STREAM_LEARNS: u64 = 4;
const STREAM_LEARN_SET: u64 = 5;
const STREAM_ZIPF: u64 = 6;

fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, stream, index))
}

/// Zipf-skewed sampler over `n` items: rank r is drawn with probability
/// proportional to r^-s, and ranks map to items through a seeded
/// permutation so popularity is unrelated to fixture order.
pub struct Zipf {
    cdf: Vec<f64>,
    items: Vec<usize>,
}

impl Zipf {
    /// A sampler over `0..n`.
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut items: Vec<usize> = (0..n).collect();
        let mut r = rng(seed, STREAM_ZIPF, 0);
        for i in (1..n).rev() {
            items.swap(i, r.gen_range(0..=i));
        }
        Zipf { cdf, items }
    }

    /// Draws one item.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.items[rank]
    }
}

/// One rule of the pre-built store, with the column its `/score`
/// requests carry.
#[derive(Debug, Clone)]
pub struct FixtureRule {
    /// Rule id (the learn-request fingerprint it would have had).
    pub id: String,
    /// Tenant namespace; `None` is the global one.
    pub tenant: Option<String>,
    /// The stored rule.
    pub rule: Rule,
    /// Column type, so `/suggest` columns come from the same family.
    pub dtype: DataType,
    /// Example indices of the learn request the id fingerprints.
    pub examples: Vec<usize>,
    /// Raw cell texts.
    pub cells: Vec<String>,
}

/// The pre-built store's contents: corpus tasks whose ground-truth rules
/// are stored as if they had been learned from their first three
/// formatted cells.
pub struct Fixture {
    /// The stored rules, in write order.
    pub rules: Vec<FixtureRule>,
}

fn texts(cells: &[CellValue]) -> Vec<String> {
    cells.iter().map(CellValue::display_string).collect()
}

impl Fixture {
    /// Generates the fixture of `seed`.
    pub fn generate(seed: u64) -> Fixture {
        let config = CorpusConfig::default();
        let mut seen = std::collections::HashSet::new();
        let mut rules = Vec::with_capacity(FIXTURE_RULES);
        for i in 0..FIXTURE_RULES {
            let mut r = rng(seed, STREAM_FIXTURE, i as u64);
            let tenant =
                (r.gen::<f64>() < 0.3).then(|| TENANTS[r.gen_range(0..TENANTS.len())].to_string());
            let dtype = TYPE_CYCLE[r.gen_range(0..TYPE_CYCLE.len())];
            let task = corpus_task(dtype, SCORE_CELLS, &config, &mut r);
            let cells = texts(&task.cells);
            let examples = task.examples(3);
            let id = rule_id_for(tenant.as_deref(), &cells, &examples, &[]);
            if seen.insert(id.clone()) {
                rules.push(FixtureRule {
                    id,
                    tenant,
                    rule: task.rule,
                    dtype,
                    examples,
                    cells,
                });
            }
        }
        Fixture { rules }
    }

    /// The store record of fixture rule `i`.
    pub fn stored(&self, i: usize) -> StoredRule {
        let f = &self.rules[i];
        StoredRule {
            id: f.id.clone(),
            rule: f.rule.clone(),
            score: 1.0,
            examples: f.examples.clone(),
            negatives: Vec::new(),
            column_len: f.cells.len(),
            consistent: true,
            rule_set: None,
            tenant: f.tenant.clone(),
            embedding: Some(embed_column(&f.cells)),
        }
    }

    /// Writes the store under `dir`: the first [`PACKED_RULES`] rules
    /// packed into a segment, the rest as loose sharded files.
    pub fn write_store(&self, dir: &Path) -> std::io::Result<()> {
        let mut store = RuleStore::open(dir, CACHE_CAPACITY)?;
        for i in 0..self.rules.len() {
            if i == PACKED_RULES {
                store.pack()?;
            }
            store.put(self.stored(i))?;
        }
        Ok(())
    }
}

/// What a request asks, kept beside its wire body for the oracle and
/// the replay.
#[derive(Debug, Clone)]
pub enum Op {
    /// `/score` with fixture rule `rule` on that rule's own column.
    Score { rule: usize },
    /// `/suggest` for a bare column.
    Suggest(SuggestRequest),
    /// `/learn`; `repeat_of` names the earlier learn it repeats.
    Learn {
        req: LearnRequest,
        repeat_of: Option<usize>,
    },
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// What the request asks.
    pub op: Op,
    /// Endpoint path.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
    /// Due time, in microseconds from the start of its phase (open loop).
    pub due_us: u64,
    /// Connection that carries it (open loop).
    pub conn: usize,
}

impl Req {
    fn new(op: Op, due_us: u64, conn: usize, fixture: &Fixture) -> Req {
        let (path, body) = match &op {
            Op::Score { rule } => (
                "/score",
                to_string(
                    &ScoreRequest {
                        rule_id: Some(fixture.rules[*rule].id.clone()),
                        rule: None,
                        rule_set: None,
                        cells: fixture.rules[*rule].cells.clone(),
                    }
                    .to_json(),
                ),
            ),
            Op::Suggest(req) => ("/suggest", to_string(&req.to_json())),
            Op::Learn { req, .. } => ("/learn", to_string(&req.to_json())),
        };
        Req {
            op,
            path,
            body,
            due_us,
            conn,
        }
    }

    /// Short label of the request kind.
    pub fn kind(&self) -> &'static str {
        match self.op {
            Op::Score { .. } => "score",
            Op::Suggest(_) => "suggest",
            Op::Learn { .. } => "learn",
        }
    }
}

/// Column length per type: the corpus means (Table 3 of the paper), so
/// every seed learns columns of the same sizes.
fn corpus_len(dtype: DataType) -> usize {
    match dtype {
        DataType::Text => 108,
        DataType::Number => 185,
        DataType::Date => 73,
    }
}

/// A corpus task of the given type and length.
fn corpus_task(dtype: DataType, n: usize, config: &CorpusConfig, r: &mut StdRng) -> Task {
    loop {
        if let Some(task) = generate_task_with_len(0, dtype, n, config, r) {
            return task;
        }
    }
}

/// A corpus single-rule column of the given type, learned from its
/// first three formatted cells.
fn corpus_learn(dtype: DataType, n: usize, r: &mut StdRng) -> LearnRequest {
    let task = corpus_task(dtype, n, &CorpusConfig::default(), r);
    LearnRequest {
        cells: texts(&task.cells),
        examples: task.examples(3),
        negatives: Vec::new(),
        classes: Vec::new(),
        tenant: None,
    }
}

/// A long numeric column of one family, learned from its first three
/// formatted cells.
fn numeric_learn(family: NumericFamily, n: usize, r: &mut StdRng) -> LearnRequest {
    loop {
        let (cells, spec) = numeric_column(family, n, r);
        let formatted = numeric_rule(&spec, &cells, r).execute(&cells);
        let count = formatted.count_ones();
        if count >= 5 && count < n {
            return LearnRequest {
                cells: texts(&cells),
                examples: formatted.iter_ones().take(3).collect(),
                negatives: Vec::new(),
                classes: Vec::new(),
                tenant: None,
            };
        }
    }
}

/// Multi-class column `i` of a stream: status words or numeric tiers,
/// with its length (40–200 cells) and class count (2–4) stepped by `i`
/// so every seed learns the same spread of shapes. Two examples per class.
fn multirule_learn(i: usize, r: &mut StdRng) -> LearnRequest {
    let n = 40 + 40 * ((i / 2) % 5);
    let k = 2 + (i / 2) % 3;
    let tasks = generate_multirule_corpus(&MultiRuleConfig {
        seed: r.gen(),
        n_tasks: 2,
        cells_range: (n, n),
        classes_range: (k, k),
    });
    let task = &tasks[i % 2];
    LearnRequest {
        cells: texts(&task.cells),
        examples: Vec::new(),
        negatives: Vec::new(),
        classes: task
            .classes
            .iter()
            .map(|c| ClassRequest {
                style: c.style.clone(),
                scope: c.scope,
                examples: c.members.iter().take(2).copied().collect(),
            })
            .collect(),
        tenant: None,
    }
}

/// Corpus column types cycle through this order, close to the corpus
/// mix (text 0.55, number 0.37, date 0.08), so every run learns the
/// same blend of types.
const TYPE_CYCLE: [DataType; 8] = [
    DataType::Text,
    DataType::Number,
    DataType::Text,
    DataType::Date,
    DataType::Text,
    DataType::Number,
    DataType::Text,
    DataType::Number,
];

/// Seed of the closed-loop learn sets. Each workload learns one fixed
/// set of columns in every run, so `learns_per_s` and `learn_p50_ms`
/// measure the same work whatever the run's seed; a set of a few columns
/// drawn per seed would make them vary far more than any bound allows.
const LEARN_SET_SEED: u64 = 0x5E7;

/// The long set: (type, numeric family, cells) per column. Clustering
/// dominates on the integer columns; 2 400 cells is the longest integer
/// column five rounds and the replay can afford in one run (3 200 cells
/// take 5–10 s).
const LONG_SET: [(DataType, NumericFamily, usize); 5] = [
    (DataType::Number, NumericFamily::Integers, 2400),
    (DataType::Text, NumericFamily::Integers, 3200),
    (DataType::Date, NumericFamily::Integers, 1600),
    (DataType::Number, NumericFamily::Percentages, 1600),
    (DataType::Number, NumericFamily::Integers, 1600),
];

/// Column `i` of a closed-loop learn set.
fn learn_set_item(set: LearnSet, i: usize) -> LearnRequest {
    let mut r = rng(LEARN_SET_SEED, STREAM_LEARN_SET, i as u64);
    let short = |dtype, r: &mut StdRng| corpus_learn(dtype, corpus_len(dtype), r);
    match set {
        LearnSet::ShortCorpus => short(TYPE_CYCLE[i % TYPE_CYCLE.len()], &mut r),
        LearnSet::ShortMixed if i.is_multiple_of(2) => {
            short(TYPE_CYCLE[(i / 2) % TYPE_CYCLE.len()], &mut r)
        }
        LearnSet::ShortMixed => multirule_learn(i / 2, &mut r),
        LearnSet::Long => match LONG_SET[i] {
            (DataType::Number, family, n) => numeric_learn(family, n, &mut r),
            (dtype, _, n) => corpus_learn(dtype, n, &mut r),
        },
    }
}

/// Columns per pass of each closed-loop learn set.
fn learn_set_len(set: LearnSet) -> usize {
    match set {
        LearnSet::ShortCorpus => 24,
        LearnSet::ShortMixed => 12,
        LearnSet::Long => LONG_SET.len(),
    }
}

/// Open-loop learn slot `j`: every fourth slot repeats an earlier fresh
/// learn (which the store must answer); the fresh ones alternate corpus
/// single-rule columns with multi-class columns.
fn open_learn(seed: u64, j: usize) -> (LearnRequest, Option<usize>) {
    let mut r = rng(seed, STREAM_LEARNS, j as u64);
    if j % 4 == 3 {
        let fresh: Vec<usize> = (0..j).filter(|k| k % 4 != 3).collect();
        let k = fresh[r.gen_range(0..fresh.len())];
        return (open_learn(seed, k).0, Some(k));
    }
    let req = if j % 4 == 1 {
        multirule_learn(j / 4, &mut r)
    } else {
        let dtype = TYPE_CYCLE[(j / 2) % TYPE_CYCLE.len()];
        corpus_learn(dtype, corpus_len(dtype), &mut r)
    };
    (req, None)
}

/// Open-loop read `i`: a Zipf-drawn `/score`, or a `/suggest` on a fresh
/// column of the Zipf-drawn rule's type and namespace.
fn open_read(seed: u64, fixture: &Fixture, zipf: &Zipf, i: usize) -> Op {
    let mut r = rng(seed, STREAM_READS, i as u64);
    let suggest = r.gen::<f64>() < SUGGEST_SHARE;
    let rule = zipf.sample(&mut r);
    if !suggest {
        return Op::Score { rule };
    }
    let f = &fixture.rules[rule];
    Op::Suggest(SuggestRequest {
        cells: corpus_learn(f.dtype, SCORE_CELLS, &mut r).cells,
        tenant: f.tenant.clone(),
        k: Some(SUGGEST_K),
    })
}

/// The generated input of one run.
pub struct Plan {
    /// Open-loop requests, in due order.
    pub open: Vec<Req>,
    /// Open-loop phase length in seconds.
    pub open_secs: f64,
    /// Closed-loop `/score` pool; connection c sends entries c, c+2, ….
    pub peak: Vec<Req>,
    /// Closed-loop `/score` phase length.
    pub peak_secs: f64,
    /// One pass over the closed-loop learn set (tenant unset).
    pub learn_set: Vec<LearnRequest>,
    /// Rounds the phases are split into.
    pub rounds: usize,
    /// The request that ends each timed set-up.
    pub probe: Req,
}

/// The learn set of a closed-loop pass: pass `p` learns under its own
/// tenant, so every pass is fresh to the store.
pub fn learn_pass(set: &[LearnRequest], pass: usize, fixture: &Fixture) -> Vec<Req> {
    set.iter()
        .map(|req| {
            let req = LearnRequest {
                tenant: Some(format!("pass-{pass}")),
                ..req.clone()
            };
            Req::new(
                Op::Learn {
                    req,
                    repeat_of: None,
                },
                0,
                0,
                fixture,
            )
        })
        .collect()
}

impl Plan {
    /// The plan of (workload, seed) for a run of `seconds`.
    pub fn generate(workload: Workload, seed: u64, seconds: f64, fixture: &Fixture) -> Plan {
        let p = workload.profile();
        let zipf = Zipf::new(fixture.rules.len(), ZIPF_EXPONENT, seed);
        let open_secs = seconds * p.open_share;
        let mut open = Vec::new();
        let n_reads = (open_secs * p.read_rps) as usize;
        // serve_read spreads reads over both connections; with learns in
        // the mix, reads keep the first connection and learns the second,
        // so a slow learn never holds a read back on the client side.
        let read_conns = if p.learn_rps > 0.0 { 1 } else { 2 };
        for i in 0..n_reads {
            let due = (i as f64 * 1e6 / p.read_rps) as u64;
            open.push(Req::new(
                open_read(seed, fixture, &zipf, i),
                due,
                i % read_conns,
                fixture,
            ));
        }
        let n_learns = (open_secs * p.learn_rps) as usize;
        let mut learn_index = Vec::new();
        for j in 0..n_learns {
            let due = ((j as f64 + 0.5) * 1e6 / p.learn_rps) as u64;
            let (req, repeat) = open_learn(seed, j);
            learn_index.push(open.len());
            let repeat_of = repeat.map(|k| learn_index[k]);
            open.push(Req::new(Op::Learn { req, repeat_of }, due, 1, fixture));
        }
        // Stable sort: `repeat_of` indices are remapped after ordering.
        let mut order: Vec<usize> = (0..open.len()).collect();
        order.sort_by_key(|&i| (open[i].due_us, i));
        let mut position = vec![0; open.len()];
        for (pos, &i) in order.iter().enumerate() {
            position[i] = pos;
        }
        let mut sorted: Vec<Req> = order.iter().map(|&i| open[i].clone()).collect();
        for req in &mut sorted {
            if let Op::Learn {
                repeat_of: Some(k), ..
            } = &mut req.op
            {
                *k = position[*k];
            }
        }

        let peak = (0..PEAK_POOL)
            .map(|i| {
                let rule = zipf.sample(&mut rng(seed, STREAM_PEAK, i as u64));
                Req::new(Op::Score { rule }, 0, i % 2, fixture)
            })
            .collect();
        let learn_set = (0..learn_set_len(p.learn_set))
            .map(|i| learn_set_item(p.learn_set, i))
            .collect();
        Plan {
            open: sorted,
            open_secs,
            peak,
            peak_secs: seconds * p.peak_share,
            learn_set,
            rounds: p.rounds,
            probe: Req::new(Op::Score { rule: 0 }, 0, 0, fixture),
        }
    }

    /// SHA-256 over every generated request (phase, due time,
    /// connection, path, body) and the fixture ids, hex-encoded. Equal
    /// for equal (workload, seed, seconds); printed with each result.
    pub fn hash(&self, fixture: &Fixture) -> String {
        let mut text = String::new();
        for f in &fixture.rules {
            text.push_str(&f.id);
            text.push('\n');
        }
        let phases: [(&str, &[Req]); 3] = [
            ("open", &self.open),
            ("peak", &self.peak),
            ("probe", std::slice::from_ref(&self.probe)),
        ];
        for (phase, reqs) in phases {
            for r in reqs {
                text.push_str(&format!(
                    "{phase} {} {} {} {}\n",
                    r.due_us, r.conn, r.path, r.body
                ));
            }
        }
        for req in &self.learn_set {
            text.push_str(&to_string(&req.to_json()));
            text.push('\n');
        }
        sha256(text.as_bytes())
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let a = Zipf::new(1000, ZIPF_EXPONENT, 11);
        let b = Zipf::new(1000, ZIPF_EXPONENT, 11);
        let draw = |z: &Zipf, seed: u64| -> Vec<usize> {
            let mut r = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(draw(&a, 5), draw(&b, 5));
        assert_ne!(draw(&a, 5), draw(&a, 6));
        assert_ne!(draw(&a, 5), draw(&Zipf::new(1000, ZIPF_EXPONENT, 12), 5));
        // The most popular item takes about 1/H(1000) ≈ 13% of draws.
        let draws = draw(&a, 5);
        let top = draws.iter().filter(|&&i| i == a.items[0]).count();
        assert!((150..400).contains(&top), "top item drawn {top} times");
        assert!(draws.iter().all(|&i| i < 1000));
    }

    #[test]
    fn stream_is_a_function_of_workload_and_seed() {
        let f1 = Fixture::generate(1);
        let h = |w, seed, f: &Fixture| Plan::generate(w, seed, 2.0, f).hash(f);
        assert_eq!(
            h(Workload::ServeMixed, 1, &f1),
            h(Workload::ServeMixed, 1, &Fixture::generate(1))
        );
        let f2 = Fixture::generate(2);
        assert_ne!(
            h(Workload::ServeMixed, 1, &f1),
            h(Workload::ServeMixed, 2, &f2)
        );
        assert_ne!(
            h(Workload::ServeRead, 1, &f1),
            h(Workload::ServeMixed, 1, &f1)
        );
    }

    #[test]
    fn repeats_point_at_earlier_fresh_learns() {
        let f = Fixture::generate(3);
        let plan = Plan::generate(Workload::ServeMixed, 3, 20.0, &f);
        let mut repeats = 0;
        for (i, r) in plan.open.iter().enumerate() {
            if let Op::Learn {
                req,
                repeat_of: Some(k),
            } = &r.op
            {
                repeats += 1;
                assert!(*k < i);
                match &plan.open[*k].op {
                    Op::Learn {
                        req: original,
                        repeat_of: None,
                    } => assert_eq!(original, req),
                    other => panic!("repeat of a non-learn {other:?}"),
                }
            }
        }
        assert!(repeats > 0);
    }
}
