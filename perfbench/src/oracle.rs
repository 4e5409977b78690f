//! Response checks. A response that fails one counts as a failed
//! request in the run's result, beside unexpected statuses and transport
//! errors.

use crate::workload::Fixture;
use cornet_core::rule::Rule;
use cornet_core::ruleset::RuleSet;
use cornet_serde::{open_envelope, parse, FromJson};
use cornet_serve::service::{LearnResponse, ScoreResponse};
use cornet_serve::{SuggestRequest, SuggestResponse};
use cornet_table::CellValue;
use std::collections::HashMap;

/// A stored rule the oracle can execute.
enum Exec {
    Rule(Rule),
    Set(RuleSet),
}

impl Exec {
    fn matches(&self, cells: &[CellValue]) -> Vec<usize> {
        match self {
            Exec::Rule(rule) => rule.execute(cells).iter_ones().collect(),
            Exec::Set(set) => set.matches(cells),
        }
    }
}

fn parse_cells(cells: &[String]) -> Vec<CellValue> {
    cells.iter().map(|s| CellValue::parse(s)).collect()
}

/// Decodes the payload of a `kind` envelope.
pub fn payload<T: FromJson>(body: &str, kind: &str) -> Result<T, String> {
    let doc = parse(body).map_err(|e| format!("unparsable body: {e}"))?;
    let payload = open_envelope(&doc, kind).map_err(|e| format!("bad {kind} envelope: {e}"))?;
    T::from_json(payload).map_err(|e| format!("bad {kind} payload: {e}"))
}

/// Every rule a response may name: the fixture's, plus each rule learned
/// during the run, with its tenant namespace.
pub struct Oracle {
    rules: HashMap<String, (Option<String>, Exec)>,
    /// Expected `/score` matches per fixture rule (its column is fixed).
    score_matches: HashMap<usize, Vec<usize>>,
}

impl Oracle {
    /// An oracle over the fixture's rules.
    pub fn new(fixture: &Fixture) -> Oracle {
        let rules = fixture
            .rules
            .iter()
            .map(|f| (f.id.clone(), (f.tenant.clone(), Exec::Rule(f.rule.clone()))))
            .collect();
        Oracle {
            rules,
            score_matches: HashMap::new(),
        }
    }

    /// Registers the rule of a served `200` learn body under `tenant`.
    pub fn learned(&mut self, tenant: Option<String>, body: &str) -> Result<(), String> {
        let resp: LearnResponse = payload(body, "learn")?;
        let exec = match resp.rule_set {
            Some(set) => Exec::Set(set),
            None => Exec::Rule(resp.rule),
        };
        self.rules.insert(resp.rule_id, (tenant, exec));
        Ok(())
    }

    /// A `/score` by fixture rule `rule` must return exactly the matches
    /// of executing that rule on the request's cells.
    pub fn check_score(
        &mut self,
        fixture: &Fixture,
        rule: usize,
        status: Option<u16>,
        body: &str,
    ) -> Result<(), String> {
        if status != Some(200) {
            return Err(format!("/score answered {status:?}"));
        }
        let f = &fixture.rules[rule];
        let expected = self
            .score_matches
            .entry(rule)
            .or_insert_with(|| f.rule.execute(&parse_cells(&f.cells)).iter_ones().collect());
        let resp: ScoreResponse = payload(body, "score")?;
        if resp.rule_id.as_deref() != Some(f.id.as_str()) {
            return Err(format!("/score named {:?}, asked {}", resp.rule_id, f.id));
        }
        if resp.matches != *expected || resp.n_cells != f.cells.len() {
            return Err(format!("/score of {} returned wrong matches", f.id));
        }
        Ok(())
    }

    /// Every `/suggest` item must name a stored rule visible to the
    /// caller's namespace, and its matches must equal executing that rule
    /// on the request's cells.
    pub fn check_suggest(
        &self,
        req: &SuggestRequest,
        status: Option<u16>,
        body: &str,
    ) -> Result<(), String> {
        if status != Some(200) {
            return Err(format!("/suggest answered {status:?}"));
        }
        let resp: SuggestResponse = payload(body, "suggest")?;
        if resp.suggestions.len() > req.k.unwrap_or(3) || resp.n_cells != req.cells.len() {
            return Err("/suggest returned a malformed list".into());
        }
        let cells = parse_cells(&req.cells);
        for s in &resp.suggestions {
            let Some((tenant, exec)) = self.rules.get(&s.rule_id) else {
                return Err(format!("/suggest named unknown rule {}", s.rule_id));
            };
            if tenant.is_some() && *tenant != req.tenant {
                return Err(format!("/suggest leaked {} across namespaces", s.rule_id));
            }
            if s.matches != exec.matches(&cells) {
                return Err(format!("/suggest of {} returned wrong matches", s.rule_id));
            }
        }
        Ok(())
    }
}

/// A `/learn` answer must equal, status and body byte for byte, what
/// `route()` returned for the same request in the replay. A `422` the
/// replay also returns is a correct answer.
pub fn check_learn(served: Option<u16>, body: &str, replay: (u16, &str)) -> Result<(), String> {
    if served != Some(replay.0) {
        return Err(format!("/learn answered {served:?}, replay {}", replay.0));
    }
    if body != replay.1 {
        return Err("/learn body differs from the replay".into());
    }
    Ok(())
}

/// A repeated learn must come from the store, under the original's id.
pub fn check_repeat(body: &str, original: &str) -> Result<(), String> {
    let repeat: LearnResponse = payload(body, "learn")?;
    let first: LearnResponse = payload(original, "learn")?;
    if !repeat.cached || repeat.rule_id != first.rule_id {
        return Err(format!("repeat of {} was not a store hit", first.rule_id));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Fixture;
    use cornet_serde::{envelope, to_string, ToJson};

    fn score_body(fixture: &Fixture, rule: usize, matches: Vec<usize>) -> String {
        let f = &fixture.rules[rule];
        let resp = ScoreResponse {
            rule_id: Some(f.id.clone()),
            matches,
            n_cells: f.cells.len(),
            assignments: None,
        };
        to_string(&envelope("score", resp.to_json()))
    }

    #[test]
    fn oracle_rejects_tampered_bodies() {
        let fixture = Fixture::generate(9);
        let mut oracle = Oracle::new(&fixture);
        let f = &fixture.rules[0];
        let truth: Vec<usize> = f.rule.execute(&parse_cells(&f.cells)).iter_ones().collect();
        assert!(!truth.is_empty());
        let good = score_body(&fixture, 0, truth.clone());
        assert_eq!(oracle.check_score(&fixture, 0, Some(200), &good), Ok(()));

        let mut dropped = truth.clone();
        dropped.pop();
        let tampered = score_body(&fixture, 0, dropped);
        assert!(oracle
            .check_score(&fixture, 0, Some(200), &tampered)
            .is_err());
        assert!(oracle.check_score(&fixture, 1, Some(200), &good).is_err());
        assert!(oracle.check_score(&fixture, 0, Some(503), &good).is_err());
        assert!(oracle
            .check_score(&fixture, 0, Some(200), &good.replace("\"v\":1", "\"v\":2"))
            .is_err());

        assert_eq!(check_learn(Some(200), &good, (200, &good)), Ok(()));
        assert!(check_learn(Some(200), &good, (200, &tampered)).is_err());
        assert!(check_learn(Some(422), &good, (200, &good)).is_err());
    }
}
