//! In-process replay of a run's request stream, on one thread, against
//! services built from copies of the same fixture store.
//!
//! Every replay calls `route()` for each `/learn` in stream order, which
//! gives the oracle the exact body each learn must have been served. The
//! traced replay also calls into every layer's public functions around
//! each request and records a span per call:
//!
//! * `http`: `parse_request` on the encoded bytes, then `route()`.
//! * `service`: the matching `CornetService` call on a second service
//!   (the first already learned the rule through `route()`).
//! * `store`: `RuleStore::{open,get,put}` on a third copy of the store.
//! * `suggest`: `SuggestIndex` rebuild, `embed_column`, `query`, `insert`.
//! * `table`: `CellValue::parse` and `Rule::execute` per `/score`.
//! * `learner`: the stages of one learn, called in the learner's own
//!   order, whose top rule must equal the served rule.

use crate::trace::Tracer;
use crate::workload::{Fixture, Op, Req, CACHE_CAPACITY, SUGGEST_K};
use cornet_core::cluster::cluster_constrained;
use cornet_core::enumerate::enumerate_rules;
use cornet_core::features::rule_features_constrained;
use cornet_core::learner::CornetConfig;
use cornet_core::predgen::{generate_predicates, infer_type};
use cornet_core::rank::{score_descending, RankContext, Ranker, SymbolicRanker};
use cornet_core::rule::Rule;
use cornet_core::signature::CellSignatures;
use cornet_serde::{parse, FromJson};
use cornet_serve::http::{encode_request, parse_request, route, ParseOutcome};
use cornet_serve::service::LearnResponse;
use cornet_serve::suggest::embed_column;
use cornet_serve::{
    CornetService, LearnRequest, RuleStore, ScoreRequest, ServiceConfig, SuggestIndex,
};
use cornet_table::{BitVec, CellValue};
use std::collections::HashSet;
use std::path::Path;

/// A service over the store at `dir`, configured like the served one.
pub fn open_service(dir: &Path) -> std::io::Result<CornetService> {
    CornetService::new(&ServiceConfig {
        store_dir: dir.to_path_buf(),
        cache_capacity: CACHE_CAPACITY,
        max_sessions: ServiceConfig::default().max_sessions,
    })
}

/// Counts the learner stage replay gathers, per class learn.
#[derive(Debug, Default, Clone)]
pub struct LearnerCounts {
    pub class_learns: u64,
    pub abstained: u64,
    /// Passes through the stages (an abstained class runs them twice).
    pub stage_runs: u64,
    pub predicates: u64,
    pub representatives: u64,
    pub candidates: u64,
    pub cluster_sweeps: u64,
    pub distinct_row_ratio_sum: f64,
}

/// Counts the traced replay gathers beside its spans.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub learner: LearnerCounts,
    pub learn_requests: u64,
    pub learns_performed: u64,
    pub suggestions_returned: u64,
    pub neighbours_fetched: u64,
    /// Learns whose stage replay disagreed with the served rule.
    pub stage_mismatches: Vec<String>,
}

/// The layers only the traced replay touches.
struct Layers {
    service: CornetService,
    store: RuleStore,
    index: SuggestIndex,
}

/// Replays requests in stream order.
pub struct Replay<'f> {
    fixture: &'f Fixture,
    routed: CornetService,
    layers: Option<Layers>,
    pub counts: LayerCounts,
}

impl<'f> Replay<'f> {
    /// A replay over copies of the fixture store: `dirs[0]` backs the
    /// `route()` service; with `layers`, `dirs[1]` backs the direct
    /// service calls and `dirs[2]` the store replay.
    pub fn new(
        fixture: &'f Fixture,
        dirs: &[&Path],
        tracer: &mut Tracer,
        layers: bool,
    ) -> std::io::Result<Replay<'f>> {
        let routed = open_service(dirs[0])?;
        let layers = if layers {
            let service = open_service(dirs[1])?;
            let t = tracer.enter("store.open");
            let store = RuleStore::open(dirs[2], CACHE_CAPACITY);
            tracer.exit(t);
            let embeddings: Vec<Vec<f64>> = fixture
                .rules
                .iter()
                .map(|f| embed_column(&f.cells))
                .collect();
            let t = tracer.enter("suggest.rebuild");
            let mut index = SuggestIndex::new();
            for (f, e) in fixture.rules.iter().zip(&embeddings) {
                index.insert(f.tenant.as_deref(), &f.id, e);
            }
            tracer.exit(t);
            Some(Layers {
                service,
                store: store?,
                index,
            })
        } else {
            None
        };
        Ok(Replay {
            fixture,
            routed,
            layers,
            counts: LayerCounts::default(),
        })
    }

    /// Replays one request (stream position `id`) and returns what
    /// `route()` answered.
    pub fn request(&mut self, tracer: &mut Tracer, id: u64, req: &Req) -> (u16, String) {
        tracer.set_request(id);
        let root = tracer.enter(match req.op {
            Op::Score { .. } => "request.score",
            Op::Suggest(_) => "request.suggest",
            Op::Learn { .. } => "request.learn",
        });
        let bytes = encode_request("POST", req.path, Some(&req.body), false);
        let parsed = tracer.time("http.parse", || parse_request(bytes.as_bytes()));
        let ParseOutcome::Ready { request, .. } = parsed else {
            panic!("the generator produced an unparsable request");
        };
        let routed = &self.routed;
        let (status, body) = tracer.time(
            match req.op {
                Op::Score { .. } => "http.route.score",
                Op::Suggest(_) => "http.route.suggest",
                Op::Learn { .. } => "http.route.learn",
            },
            || route(routed, &request),
        );
        if let Some(layers) = &mut self.layers {
            match &req.op {
                Op::Score { rule } => {
                    self.counts
                        .score(layers, tracer, self.fixture, *rule, &req.body)
                }
                Op::Suggest(s) => {
                    let resp = tracer.time("service.suggest", || layers.service.suggest(s));
                    let q = tracer.time("suggest.embed", || embed_column(&s.cells));
                    let k = s.k.unwrap_or(SUGGEST_K) * 2;
                    let tenant = s.tenant.as_deref();
                    let index = &layers.index;
                    let neighbours = tracer.time("suggest.query", || index.query(tenant, &q, k));
                    self.counts.neighbours_fetched += neighbours.len() as u64;
                    self.counts.suggestions_returned +=
                        resp.map_or(0, |r| r.suggestions.len() as u64);
                    for (id, _) in &neighbours {
                        store_get(layers, tracer, id, "store.get_mem", "store.get_disk");
                    }
                }
                Op::Learn { req: learn, .. } => {
                    self.counts.learn(layers, tracer, learn, status, &body);
                }
            }
        }
        tracer.exit(root);
        (status, body)
    }
}

/// A traced `RuleStore::get`, named by whether the LRU answered it.
fn store_get(
    layers: &mut Layers,
    tracer: &mut Tracer,
    id: &str,
    hit: &'static str,
    miss: &'static str,
) {
    let (hits, _) = layers.store.counters();
    let t = tracer.enter("store.get");
    let _ = layers.store.get(id);
    let answered = layers.store.counters().0 > hits;
    tracer.exit_as(t, Some(if answered { hit } else { miss }));
}

impl LayerCounts {
    fn score(
        &mut self,
        layers: &mut Layers,
        tracer: &mut Tracer,
        fixture: &Fixture,
        rule: usize,
        body: &str,
    ) {
        let req = ScoreRequest::from_json(&parse(body).expect("generated JSON"))
            .expect("generated score request");
        let service = &layers.service;
        let _ = tracer.time("service.score", || service.score(&req));
        let f = &fixture.rules[rule];
        let cells: Vec<CellValue> = tracer.time("table.parse", || {
            f.cells.iter().map(|s| CellValue::parse(s)).collect()
        });
        let _ = tracer.time("table.execute", || f.rule.execute(&cells));
        store_get(layers, tracer, &f.id, "store.get_mem", "store.get_disk");
    }

    fn learn(
        &mut self,
        layers: &mut Layers,
        tracer: &mut Tracer,
        req: &LearnRequest,
        status: u16,
        body: &str,
    ) {
        self.learn_requests += 1;
        let before = layers.service.learns_performed();
        let t = tracer.enter("service.learn");
        let resp = layers.service.learn(req);
        let fresh = layers.service.learns_performed() > before;
        tracer.exit_as(
            t,
            Some(if fresh {
                "service.learn"
            } else {
                "service.learn_hit"
            }),
        );
        self.learns_performed += layers.service.learns_performed() - before;
        let Ok(resp) = resp else {
            if fresh {
                // The served learn abstained too: the stages must fail.
                if let Ok(rules) = learn_stages(tracer, req, &mut self.learner) {
                    self.stage_mismatches.push(format!(
                        "stages learned {} rule(s) for a {status}",
                        rules.len()
                    ));
                }
            }
            return;
        };
        let store = &mut layers.store;
        tracer.time("store.get_learn", || store.get(&resp.rule_id));
        if !fresh {
            return;
        }
        let stored = layers
            .service
            .rule(&resp.rule_id)
            .expect("a fresh learn is stored");
        let embedding = stored.embedding.clone().unwrap_or_default();
        let store = &mut layers.store;
        tracer
            .time("store.put", || store.put(stored))
            .expect("replay store write");
        let index = &mut layers.index;
        tracer.time("suggest.insert", || {
            index.insert(req.tenant.as_deref(), &resp.rule_id, &embedding)
        });
        // The stages must reproduce the rule route() served.
        let served: LearnResponse = match crate::oracle::payload(body, "learn") {
            Ok(served) => served,
            Err(e) => return self.stage_mismatches.push(e),
        };
        let expected: Vec<Rule> = match &served.rule_set {
            Some(set) => set.rules.iter().map(|r| r.rule.clone()).collect(),
            None => vec![served.rule.clone()],
        };
        match learn_stages(tracer, req, &mut self.learner) {
            Ok(rules) if same_conditions(&rules, &expected) => {}
            Ok(_) => self
                .stage_mismatches
                .push(format!("stage replay disagrees with {}", served.rule_id)),
            Err(e) => self
                .stage_mismatches
                .push(format!("stage replay failed on {}: {e}", served.rule_id)),
        }
    }
}

fn same_conditions(a: &[Rule], b: &[Rule]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.condition == y.condition)
}

/// Replays the learner on a learn request from outside, stage by stage,
/// in the order the learner runs them: a single rule as the service runs
/// it (relaxed only after an abstention with negatives), a rule set one
/// class at a time against the other classes' examples (relaxed after
/// any abstention). Returns the top rule of each class.
pub fn learn_stages(
    tracer: &mut Tracer,
    req: &LearnRequest,
    counts: &mut LearnerCounts,
) -> Result<Vec<Rule>, String> {
    let cells: Vec<CellValue> = req.cells.iter().map(|s| CellValue::parse(s)).collect();
    let learn = tracer.enter("learner.learn");
    let mut rules = Vec::new();
    let out = if req.classes.is_empty() {
        class_learn(
            tracer,
            &cells,
            &req.examples,
            &req.negatives,
            !req.negatives.is_empty(),
            counts,
        )
        .map(|r| rules.push(r))
    } else {
        req.classes.iter().enumerate().try_for_each(|(k, class)| {
            let mut rest = req.negatives.clone();
            for (other, c) in req.classes.iter().enumerate() {
                if other != k {
                    rest.extend_from_slice(&c.examples);
                }
            }
            rest.sort_unstable();
            rest.dedup();
            class_learn(tracer, &cells, &class.examples, &rest, true, counts).map(|r| rules.push(r))
        })
    };
    tracer.exit(learn);
    out.map(|()| rules)
}

/// One class learn: enforced first, relaxed after an abstention when
/// `relax` allows it.
fn class_learn(
    tracer: &mut Tracer,
    cells: &[CellValue],
    positives: &[usize],
    negatives: &[usize],
    relax: bool,
    counts: &mut LearnerCounts,
) -> Result<Rule, String> {
    let t = tracer.enter("learner.class");
    counts.class_learns += 1;
    let mut out = stages(tracer, cells, positives, negatives, true, counts);
    if matches!(out, Ok(None)) && relax {
        counts.abstained += 1;
        out = stages(tracer, cells, positives, negatives, false, counts);
    }
    tracer.exit(t);
    out?.ok_or_else(|| "no consistent rule".to_string())
}

/// Predicate generation, clustering, enumeration and ranking of one
/// learn; `Ok(None)` when enumeration finds no consistent candidate.
fn stages(
    tracer: &mut Tracer,
    cells: &[CellValue],
    positives: &[usize],
    negatives: &[usize],
    enforce: bool,
    counts: &mut LearnerCounts,
) -> Result<Option<Rule>, String> {
    let config = CornetConfig::default();
    let predicates = tracer.time("learner.predgen", || {
        generate_predicates(cells, &config.gen)
    });
    if predicates.is_empty() {
        return Err("no predicates".into());
    }
    let search_negatives: &[usize] = if enforce { negatives } else { &[] };
    let (signatures, outcome) = tracer.time("learner.cluster", || {
        let signatures = CellSignatures::from_predicates(&predicates);
        let outcome =
            cluster_constrained(&signatures, positives, search_negatives, &config.cluster);
        (signatures, outcome)
    });
    let candidates = tracer.time("learner.enumerate", || {
        enumerate_rules(&predicates, &outcome, &config.enumeration)
    });
    let distinct: HashSet<&BitVec> = (0..cells.len()).map(|i| signatures.row(i)).collect();
    counts.stage_runs += 1;
    counts.predicates += predicates.len() as u64;
    counts.representatives += predicates.representatives.len() as u64;
    counts.candidates += candidates.len() as u64;
    counts.cluster_sweeps += outcome.iterations as u64;
    counts.distinct_row_ratio_sum += distinct.len() as f64 / cells.len() as f64;
    if candidates.is_empty() {
        return Ok(None);
    }
    let best = tracer.time("learner.rank", || {
        let ranker = SymbolicRanker::heuristic();
        let texts: Vec<String> = cells.iter().map(CellValue::display_string).collect();
        let dtype = infer_type(cells);
        let negative_mask = BitVec::from_indices(cells.len(), negatives);
        let executions: Vec<_> = candidates
            .iter()
            .map(|c| {
                let execution = c.rule.execute(cells);
                let features = rule_features_constrained(
                    &c.rule,
                    &execution,
                    &outcome.labels,
                    &negative_mask,
                    dtype,
                );
                (execution, features)
            })
            .collect();
        let ctxs: Vec<RankContext<'_>> = candidates
            .iter()
            .zip(&executions)
            .map(|(c, (execution, features))| RankContext {
                rule: &c.rule,
                cell_texts: &texts,
                execution,
                cluster_labels: &outcome.labels,
                negatives: &negative_mask,
                dtype,
                features: *features,
            })
            .collect();
        let scores = ranker.score_batch(&ctxs);
        let mut scored: Vec<(f64, &Rule)> = scores
            .into_iter()
            .zip(candidates.iter().map(|c| &c.rule))
            .collect();
        scored.sort_by(|a, b| {
            score_descending(a.0, b.0)
                .then_with(|| a.1.token_length().cmp(&b.1.token_length()))
                .then_with(|| a.1.to_string().cmp(&b.1.to_string()))
        });
        scored[0].1.clone()
    });
    Ok(Some(best))
}
