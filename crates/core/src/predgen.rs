//! Predicate generation (§3.1): instantiate every predicate template from
//! Table 1 with the constants of Table 2, keep those that hold for a
//! non-empty proper subset of the column, and deduplicate predicates with
//! identical evaluation signatures.

use crate::constants::{
    between_pairs, date_part_constants, numeric_constants, text_constants, ConstantConfig,
};
use crate::predicate::{CmpOp, DatePart, Predicate, TextOp};
use cornet_table::{BitVec, CellValue, DataType};
use std::collections::{HashMap, HashSet};

/// Configuration for predicate generation.
#[derive(Debug, Clone, Default)]
pub struct GenConfig {
    /// Constant-generation bounds.
    pub constants: ConstantConfig,
    /// Hard cap on the number of kept predicates (0 = unlimited). When the
    /// cap binds, earlier-generated predicates win, preserving the
    /// preference order documented in [`crate::constants`].
    pub max_predicates: usize,
}

/// A generated predicate set with per-predicate evaluation signatures.
///
/// All predicates passing the non-empty-proper-subset filter are kept — the
/// clustering distance of §3.2 counts *every* predicate, so families of
/// predicates sharing a signature (e.g. `year > 2021`, `year >= 2022`,
/// `year <> 2021` on a two-year column) legitimately amplify that signal.
/// For rule *enumeration*, however, signature-identical predicates are
/// interchangeable as decision-tree features, and removing a used root
/// would be pointless if its twin remained; [`PredicateSet::representatives`]
/// therefore indexes the first predicate of each distinct signature.
#[derive(Debug, Clone)]
pub struct PredicateSet {
    /// The predicates.
    pub predicates: Vec<Predicate>,
    /// `signatures[p].get(i)` — does predicate `p` hold on cell `i`?
    pub signatures: Vec<BitVec>,
    /// Number of cells the signatures cover.
    pub n_cells: usize,
    /// Indices of one representative predicate per distinct signature, in
    /// generation (preference) order.
    pub representatives: Vec<usize>,
}

impl PredicateSet {
    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// True when no predicate was generated.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Signatures of the representative predicates, for use as
    /// decision-tree features.
    pub fn representative_signatures(&self) -> Vec<BitVec> {
        self.representatives
            .iter()
            .map(|&i| self.signatures[i].clone())
            .collect()
    }
}

/// The inferred column type used for generation: majority vote over
/// non-empty cells (ties prefer text). Returns `None` for empty columns.
pub fn infer_type(cells: &[CellValue]) -> Option<DataType> {
    let mut counts = [0usize; 3];
    for c in cells {
        match c.data_type() {
            Some(DataType::Text) => counts[0] += 1,
            Some(DataType::Number) => counts[1] += 1,
            Some(DataType::Date) => counts[2] += 1,
            None => {}
        }
    }
    if counts.iter().all(|&c| c == 0) {
        return None;
    }
    let mut best = (counts[0], DataType::Text);
    for cand in [(counts[1], DataType::Number), (counts[2], DataType::Date)] {
        if cand.0 > best.0 {
            best = cand;
        }
    }
    Some(best.1)
}

/// Generates the predicate set for a column (§3.1). Predicates are produced
/// for the column's majority type only — "to avoid type errors, all
/// predicates are assigned a type and they only match cells of their type".
pub fn generate_predicates(cells: &[CellValue], config: &GenConfig) -> PredicateSet {
    let candidates = candidate_predicates(cells, &config.constants);
    filter_and_dedup(cells, candidates, config.max_predicates)
}

/// Every template instantiation for the column's majority type, in
/// generation (preference) order, before the proper-subset filter and
/// signature dedup. Empty for a column with no non-empty cell.
pub fn candidate_predicates(cells: &[CellValue], config: &ConstantConfig) -> Vec<Predicate> {
    match infer_type(cells) {
        None => Vec::new(),
        Some(DataType::Number) => numeric_candidates(cells, config),
        Some(DataType::Text) => text_candidates(cells, config),
        Some(DataType::Date) => date_candidates(cells, config),
    }
}

fn numeric_candidates(cells: &[CellValue], config: &ConstantConfig) -> Vec<Predicate> {
    let values: Vec<f64> = cells.iter().filter_map(CellValue::as_number).collect();
    let constants = numeric_constants(&values, config);
    let mut out = Vec::with_capacity(constants.len() * 5);
    for &n in &constants {
        for op in [
            CmpOp::Greater,
            CmpOp::GreaterEquals,
            CmpOp::Less,
            CmpOp::LessEquals,
        ] {
            out.push(Predicate::NumCmp { op, n });
        }
        // Numeric equality (Excel's "equal to" template), encoded as the
        // degenerate inclusive range.
        out.push(Predicate::NumBetween { lo: n, hi: n });
    }
    for (lo, hi) in between_pairs(&constants, config) {
        out.push(Predicate::NumBetween { lo, hi });
    }
    out
}

fn text_candidates(cells: &[CellValue], config: &ConstantConfig) -> Vec<Predicate> {
    // Each distinct text once, in first-occurrence order: a repeat adds no
    // constant (dedup is case-insensitive) and no prefix support (prefixes
    // are counted over distinct values), so the constants are unchanged.
    let mut seen = HashSet::new();
    let values: Vec<&str> = cells
        .iter()
        .filter_map(CellValue::as_text)
        .filter(|s| seen.insert(*s))
        .collect();
    let constants = text_constants(&values, config);
    let mut out = Vec::with_capacity(constants.len() * 4);
    // Equals first, then StartsWith/EndsWith, then Contains: when two
    // operators have the same signature on this column, the more specific
    // one is kept by dedup ("Cornet is generally more conservative and
    // yields more specific rules (Equals versus Contains)", Table 7).
    for op in [
        TextOp::Equals,
        TextOp::StartsWith,
        TextOp::EndsWith,
        TextOp::Contains,
    ] {
        for pattern in &constants {
            out.push(Predicate::Text {
                op,
                pattern: pattern.clone(),
            });
        }
    }
    out
}

fn date_candidates(cells: &[CellValue], config: &ConstantConfig) -> Vec<Predicate> {
    let dates: Vec<cornet_table::Date> = cells.iter().filter_map(CellValue::as_date).collect();
    let mut out = Vec::new();
    for part in DatePart::all() {
        let constants = date_part_constants(&dates, part, config);
        for &n in &constants {
            for op in [
                CmpOp::Greater,
                CmpOp::GreaterEquals,
                CmpOp::Less,
                CmpOp::LessEquals,
            ] {
                out.push(Predicate::DateCmp { op, part, n });
            }
        }
        let floats: Vec<f64> = constants.iter().map(|&v| v as f64).collect();
        for (lo, hi) in between_pairs(&floats, config) {
            out.push(Predicate::DateBetween {
                part,
                lo: lo as i64,
                hi: hi as i64,
            });
        }
    }
    out
}

/// Candidates whose signatures are evaluated per parallel batch: large
/// enough to amortise fan-out, small enough to bound wasted evaluations
/// when `max_predicates` binds mid-stream.
const EVAL_CHUNK: usize = 512;

/// A column's distinct values, numbered in first-occurrence order, with
/// what predicates read from a value computed once per value: the
/// lowercased text and the four date parts.
///
/// A predicate's truth on a cell depends on the cell's value alone, so a
/// signature over values expands to the signature over cells by reading
/// bit `value_of[i]` for cell `i`. Every value has at least one cell, so
/// that expansion is injective and preserves "holds on none" and "holds
/// on all": the proper-subset filter, signature dedup and cap give the
/// same answers on either side of it.
struct ValueSpace {
    /// `value_of[i]` — the id of cell `i`'s value.
    value_of: Vec<u32>,
    /// Number of distinct values (empty cells count as one).
    len: usize,
    /// `(id, number)` of each distinct number.
    numbers: Vec<(u32, f64)>,
    /// `(id, parts)` of each distinct date, its parts in [`DatePart::all`]
    /// (declaration) order.
    dates: Vec<(u32, [i64; 4])>,
    /// `(id, lowercased text)` of each distinct text.
    texts: Vec<(u32, String)>,
}

/// What makes two cells the same value: the exact text, the `f64` bit
/// pattern (so `0.0` and `-0.0` stay apart) or the date.
#[derive(PartialEq, Eq, Hash)]
enum ValueKey<'a> {
    Empty,
    Text(&'a str),
    Number(u64),
    Date(cornet_table::Date),
}

impl ValueSpace {
    fn new(cells: &[CellValue]) -> Self {
        let mut ids: HashMap<ValueKey, u32> = HashMap::new();
        let (mut numbers, mut dates, mut texts) = (Vec::new(), Vec::new(), Vec::new());
        let value_of = cells
            .iter()
            .map(|cell| {
                let key = match cell {
                    CellValue::Empty => ValueKey::Empty,
                    CellValue::Text(s) => ValueKey::Text(s),
                    CellValue::Number(x) => ValueKey::Number(x.to_bits()),
                    CellValue::Date(d) => ValueKey::Date(*d),
                };
                let next = ids.len() as u32;
                *ids.entry(key).or_insert_with(|| {
                    match cell {
                        CellValue::Empty => {}
                        CellValue::Text(s) => texts.push((next, s.to_lowercase())),
                        CellValue::Number(x) => numbers.push((next, *x)),
                        CellValue::Date(d) => {
                            dates.push((next, DatePart::all().map(|p| p.extract(*d))))
                        }
                    }
                    next
                })
            })
            .collect();
        ValueSpace {
            value_of,
            len: ids.len(),
            numbers,
            dates,
            texts,
        }
    }

    /// Bit `v` — does `predicate` hold on value `v`? Agrees with
    /// [`Predicate::eval`] on every cell of that value: both go through
    /// the same per-operator definitions, and values of another type (or
    /// empty) never match.
    fn signature(&self, predicate: &Predicate) -> BitVec {
        let mut sig = BitVec::zeros(self.len);
        let mut mark = |v: u32, holds: bool| {
            if holds {
                sig.set(v as usize, true);
            }
        };
        match predicate {
            Predicate::NumCmp { .. } | Predicate::NumBetween { .. } => {
                for &(v, x) in &self.numbers {
                    mark(v, predicate.eval_number(x));
                }
            }
            Predicate::DateCmp { part, .. } | Predicate::DateBetween { part, .. } => {
                for (v, parts) in &self.dates {
                    mark(*v, predicate.eval_date_part(parts[*part as usize]));
                }
            }
            Predicate::Text { op, pattern } => {
                let pattern = pattern.to_lowercase();
                for (v, text) in &self.texts {
                    mark(*v, op.matches(text, &pattern));
                }
            }
        }
        sig
    }
}

/// Keeps predicates holding on a non-empty proper subset of the column and
/// records one representative per distinct signature (first generated wins —
/// see the preference-order note in [`crate::constants`]).
///
/// Every candidate is evaluated once per distinct value ([`ValueSpace`]),
/// not once per cell, and only kept predicates are expanded to cell
/// signatures. Evaluation fans out over `cornet-pool` one [`EVAL_CHUNK`] at
/// a time; `par_map`'s submission-order collection feeds the serial
/// filter/dedup/cap pass in generation order, so the output is identical
/// to a serial per-cell loop at every thread count.
fn filter_and_dedup(
    cells: &[CellValue],
    candidates: Vec<Predicate>,
    max_predicates: usize,
) -> PredicateSet {
    let n = cells.len();
    let space = ValueSpace::new(cells);
    let d = space.len;
    let mut predicates = Vec::new();
    let mut value_signatures: Vec<BitVec> = Vec::new();
    let mut representatives = Vec::new();
    let mut seen: HashSet<BitVec> = HashSet::new();
    let mut pending = candidates.into_iter();
    'chunks: loop {
        let chunk: Vec<Predicate> = pending.by_ref().take(EVAL_CHUNK).collect();
        if chunk.is_empty() {
            break;
        }
        let sigs: Vec<BitVec> = cornet_pool::par_map(chunk.len(), |p| space.signature(&chunk[p]));
        for (pred, sig) in chunk.into_iter().zip(sigs) {
            if max_predicates != 0 && predicates.len() >= max_predicates {
                break 'chunks;
            }
            let ones = sig.count_ones();
            if ones == 0 || ones == d {
                continue; // not a non-empty proper subset
            }
            if seen.insert(sig.clone()) {
                representatives.push(predicates.len());
            }
            predicates.push(pred);
            value_signatures.push(sig);
        }
    }
    // First-occurrence numbering makes `value_of` the identity when every
    // value is distinct.
    let signatures = if d == n {
        value_signatures
    } else {
        value_signatures
            .iter()
            .map(|sig| sig.gather(&space.value_of))
            .collect()
    };
    PredicateSet {
        predicates,
        signatures,
        n_cells: n,
        representatives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cells(raw: &[&str]) -> Vec<CellValue> {
        raw.iter().map(|s| CellValue::parse(s)).collect()
    }

    #[test]
    fn running_example_generates_needed_predicates() {
        let cells = parse_cells(&["RW-187", "RS-762", "RW-159", "RW-131-T", "TW-224", "RW-312"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        assert!(!set.is_empty());
        // StartsWith("RW") must be present (as predicate or signature-equal
        // representative matching exactly cells {0,2,3,5}).
        let rw_sig = BitVec::from_indices(6, &[0, 2, 3, 5]);
        assert!(
            set.signatures.contains(&rw_sig),
            "no predicate matches the RW-prefix set"
        );
        // EndsWith("T") signature {3} must be available for the negation.
        let t_sig = BitVec::from_indices(6, &[3]);
        assert!(set.signatures.contains(&t_sig));
    }

    #[test]
    fn example_4_textequals_constants() {
        // TextEquals(c, "-") would hold for *all* cells → filtered as
        // improper subset; "RW-187" and tokens survive.
        let cells = parse_cells(&["RW-187", "RW-159", "RS-762"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        let displays: Vec<String> = set.predicates.iter().map(|p| p.to_string()).collect();
        assert!(displays.iter().any(|d| d == "TextEquals(\"RW-187\")"));
        assert!(!displays.iter().any(|d| d.contains("\"-\"")));
    }

    #[test]
    fn signatures_are_proper_subsets() {
        let cells = parse_cells(&["1", "5", "9", "12"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        for sig in &set.signatures {
            let ones = sig.count_ones();
            assert!(ones > 0 && ones < cells.len());
        }
    }

    #[test]
    fn representatives_deduplicate_signatures() {
        let cells = parse_cells(&["1", "2", "3"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        // Representative signatures are pairwise distinct…
        let mut rep_sigs = set.representative_signatures();
        let before = rep_sigs.len();
        rep_sigs.sort_by_key(|s| s.iter_ones().collect::<Vec<_>>());
        rep_sigs.dedup();
        assert_eq!(rep_sigs.len(), before);
        // …and cover every signature that occurs in the full set.
        for sig in &set.signatures {
            assert!(set
                .representatives
                .iter()
                .any(|&r| &set.signatures[r] == sig));
        }
        // The full set retains signature-equal families (e.g. `> 1` and
        // `>= 2` on an integer column), which the clustering distance needs.
        assert!(set.signatures.len() >= set.representatives.len());
    }

    #[test]
    fn numeric_column_generates_numeric_predicates_only() {
        let cells = parse_cells(&["1", "5", "9", "hello"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        assert!(set
            .predicates
            .iter()
            .all(|p| p.data_type() == DataType::Number));
    }

    #[test]
    fn date_column_generates_part_predicates() {
        let cells = parse_cells(&["2020-01-05", "2021-06-15", "2022-12-25"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        assert!(!set.is_empty());
        assert!(set
            .predicates
            .iter()
            .all(|p| p.data_type() == DataType::Date));
        // Some predicate must separate the 2020 date from the others.
        let first_only = BitVec::from_indices(3, &[0]);
        assert!(set.signatures.contains(&first_only));
    }

    #[test]
    fn empty_column_generates_nothing() {
        let cells = parse_cells(&["", "", ""]);
        let set = generate_predicates(&cells, &GenConfig::default());
        assert!(set.is_empty());
        assert_eq!(set.n_cells, 3);
    }

    #[test]
    fn cap_binds() {
        let cells = parse_cells(&["1", "2", "3", "4", "5", "6", "7", "8"]);
        let config = GenConfig {
            max_predicates: 5,
            ..GenConfig::default()
        };
        let set = generate_predicates(&cells, &config);
        assert!(set.len() <= 5);
    }

    #[test]
    fn uniform_column_yields_no_predicates() {
        // All-identical text: every predicate matches all or none.
        let cells = parse_cells(&["same", "same", "same"]);
        let set = generate_predicates(&cells, &GenConfig::default());
        assert!(set.is_empty());
    }

    #[test]
    fn text_candidates_read_each_distinct_text_once() {
        // Exact repeats, case variants and whitespace variants: the
        // constants must be those of every cell's text, in order, also
        // when the cap binds.
        let mut cells = parse_cells(&[
            "RW-187", "rw-187", "RW-187", "RS-762", "RW-159", "RS-762", "rw-159", "TW-224-T",
        ]);
        cells.push(CellValue::from(" RW-187"));
        cells.push(CellValue::from("RW-187"));
        let all: Vec<&str> = cells.iter().filter_map(CellValue::as_text).collect();
        for max_text_constants in [512, 5] {
            let config = ConstantConfig {
                max_text_constants,
                ..ConstantConfig::default()
            };
            let patterns: Vec<String> = text_candidates(&cells, &config)
                .into_iter()
                .filter_map(|p| match p {
                    Predicate::Text {
                        op: TextOp::Equals,
                        pattern,
                    } => Some(pattern),
                    _ => None,
                })
                .collect();
            assert_eq!(patterns, text_constants(&all, &config));
        }
    }

    #[test]
    fn infer_type_majority() {
        assert_eq!(
            infer_type(&parse_cells(&["1", "2", "x"])),
            Some(DataType::Number)
        );
        assert_eq!(infer_type(&parse_cells(&["", ""])), None);
    }
}
