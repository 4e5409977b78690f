//! Differential tests for predicate generation in value space.
//!
//! `generate_predicates` evaluates every candidate once per *distinct*
//! cell value (with lowercased text and date parts computed once per
//! value) and expands only the kept predicates to cell signatures. This
//! suite checks it against a test-local reference copy of the per-cell
//! loop it replaced: every candidate evaluated with [`Predicate::eval`] on
//! every cell, then the proper-subset filter, signature dedup and
//! `max_predicates` cap in generation order.
//!
//! Predicates (compared through `Debug`, so `0.0` and `-0.0` constants
//! differ), signatures, representatives and the cell count must be equal
//! on columns built to break a value-keyed evaluation: heavy duplicates,
//! all-distinct and all-equal columns, case variants, Unicode lowercasing
//! edges, empty and off-type cells, signed zeros, dates sharing parts, and
//! caps that bind in the middle of an evaluation chunk. Every comparison
//! runs at 1, 2 and 4 pool threads.

use cornet_repro::core::predgen::{
    candidate_predicates, generate_predicates, GenConfig, PredicateSet,
};
use cornet_repro::pool::with_threads;
use cornet_repro::table::{BitVec, CellValue, Date};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// The per-cell predicate generation loop, serial.
fn reference(cells: &[CellValue], config: &GenConfig) -> PredicateSet {
    let n = cells.len();
    let mut predicates = Vec::new();
    let mut signatures: Vec<BitVec> = Vec::new();
    let mut representatives = Vec::new();
    let mut seen: HashSet<BitVec> = HashSet::new();
    for pred in candidate_predicates(cells, &config.constants) {
        if config.max_predicates != 0 && predicates.len() >= config.max_predicates {
            break;
        }
        let mut sig = BitVec::zeros(n);
        for (i, cell) in cells.iter().enumerate() {
            if pred.eval(cell) {
                sig.set(i, true);
            }
        }
        let ones = sig.count_ones();
        if ones == 0 || ones == n {
            continue;
        }
        if seen.insert(sig.clone()) {
            representatives.push(predicates.len());
        }
        predicates.push(pred);
        signatures.push(sig);
    }
    PredicateSet {
        predicates,
        signatures,
        n_cells: n,
        representatives,
    }
}

/// Asserts `generate_predicates` equals the reference at 1, 2 and 4
/// threads, and returns the reference for further checks.
fn assert_matches_reference(name: &str, cells: &[CellValue], config: &GenConfig) -> PredicateSet {
    let expected = reference(cells, config);
    for threads in [1, 2, 4] {
        let got = with_threads(threads, || generate_predicates(cells, config));
        assert_eq!(got.n_cells, expected.n_cells, "{name}: n_cells @{threads}");
        assert_eq!(
            format!("{:?}", got.predicates),
            format!("{:?}", expected.predicates),
            "{name}: predicates @{threads}"
        );
        assert_eq!(
            got.signatures, expected.signatures,
            "{name}: signatures @{threads}"
        );
        assert_eq!(
            got.representatives, expected.representatives,
            "{name}: representatives @{threads}"
        );
    }
    expected
}

fn parse(raw: &[&str]) -> Vec<CellValue> {
    raw.iter().map(|s| CellValue::parse(s)).collect()
}

/// `raw` repeated in a seeded shuffle to `n` cells, so every value has
/// several copies in scattered positions.
fn repeated(raw: &[CellValue], n: usize, seed: u64) -> Vec<CellValue> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: Vec<CellValue> = raw.iter().cycle().take(n).cloned().collect();
    cells.shuffle(&mut rng);
    cells
}

fn date(y: i32, m: u32, d: u32) -> CellValue {
    CellValue::Date(Date::from_ymd(y, m, d).unwrap())
}

#[test]
fn heavily_duplicated_columns_match() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = |rng: &mut StdRng| -> String {
            match seed % 4 {
                0 => {
                    let prefix = *["RW", "rw", "RS", "TW"].choose(rng).unwrap();
                    let suffix = if rng.gen_bool(0.2) { "-T" } else { "" };
                    format!("{prefix}-{}{suffix}", rng.gen_range(100..1000))
                }
                1 => format!("{}", rng.gen_range(-400..4000) as f64 * 0.25),
                2 => format!(
                    "202{}-{:02}-{:02}",
                    rng.gen_range(0..4),
                    rng.gen_range(1..=12),
                    rng.gen_range(1..=28)
                ),
                _ => (*["Open", "OPEN", "Closed", "Pending", "Blocked"]
                    .choose(rng)
                    .unwrap())
                .to_string(),
            }
        };
        let n = rng.gen_range(64..=600);
        let distinct = rng.gen_range(2..=12);
        let pool: Vec<String> = (0..distinct).map(|_| value(&mut rng)).collect();
        let raw: Vec<String> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.05) {
                    value(&mut rng)
                } else {
                    pool.choose(&mut rng).unwrap().clone()
                }
            })
            .collect();
        let cells: Vec<CellValue> = raw.iter().map(|s| CellValue::parse(s)).collect();
        let set = assert_matches_reference(
            &format!("duplicated seed {seed}"),
            &cells,
            &GenConfig::default(),
        );
        assert!(!set.is_empty(), "seed {seed}: column generated nothing");
    }
}

#[test]
fn all_distinct_and_all_equal_columns_match() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut numbers: Vec<CellValue> = (0..300).map(|i| CellValue::Number(i as f64)).collect();
    numbers.shuffle(&mut rng);
    let ids: Vec<CellValue> = (0..200)
        .map(|i| CellValue::Text(format!("ID-{i:03}")))
        .collect();
    let dates: Vec<CellValue> = (0..150)
        .map(|i| CellValue::Date(Date::from_days(18_000 + 3 * i)))
        .collect();
    for (name, cells) in [
        ("distinct numbers", numbers),
        ("distinct text", ids),
        ("distinct dates", dates),
    ] {
        let set = assert_matches_reference(name, &cells, &GenConfig::default());
        assert!(!set.is_empty(), "{name}");
    }
    for (name, cell) in [
        ("equal text", CellValue::from("same")),
        ("equal numbers", CellValue::Number(7.0)),
        ("equal dates", date(2022, 5, 17)),
        ("all empty", CellValue::Empty),
    ] {
        let cells = vec![cell; 90];
        let set = assert_matches_reference(name, &cells, &GenConfig::default());
        assert!(set.is_empty(), "{name}");
    }
    assert_matches_reference("no cells", &[], &GenConfig::default());
}

#[test]
fn case_variants_match() {
    let raw = parse(&[
        "ABC", "abc", "Abc", "ABC-1", "abc-2", "aBc-3", "xyz", "XYZ", "Xyz-abc",
    ]);
    assert_matches_reference(
        "case variants",
        &repeated(&raw, 120, 1),
        &GenConfig::default(),
    );
    // Untrimmed text built directly: the value key is the exact text, so
    // " abc " and "abc" are different values with different matches.
    let direct: Vec<CellValue> = ["abc", " abc ", "ABC ", "abc", "x abc", "abc"]
        .iter()
        .map(|&s| CellValue::from(s))
        .collect();
    assert_matches_reference("untrimmed text", &direct, &GenConfig::default());
}

#[test]
fn unicode_lowercasing_edges_match() {
    // Final sigma lowercases by context ("ΟΔΟΣ" → "οδος", a lone "Σ" →
    // "σ"), and "İ" lowercases to two chars ("i̇"): lowercasing char by
    // char, or ASCII only, on either side changes which patterns match.
    let raw = parse(&[
        "ΟΔΟΣ",
        "οδος",
        "Οδός",
        "ΟΔΟΣ-1",
        "Σ",
        "σ-ΟΔΟΣ",
        "İ",
        "i",
        "I",
        "İstanbul",
        "istanbul",
        "ISTANBUL",
        "straße",
        "STRASSE",
    ]);
    let set = assert_matches_reference("unicode", &repeated(&raw, 140, 2), &GenConfig::default());
    assert!(!set.is_empty());
}

#[test]
fn empty_and_off_type_cells_match() {
    let numbers = parse(&["1", "5", "", "9", "n/a", "12", "5", "2022-01-01", "", "1"]);
    let text = parse(&[
        "open",
        "",
        "3",
        "closed",
        "open",
        "2021-05-05",
        "OPEN",
        "7",
        "",
    ]);
    let dates = parse(&[
        "2021-01-04",
        "",
        "2021-02-04",
        "tbd",
        "2022-01-04",
        "3.5",
        "2021-01-04",
    ]);
    for (name, raw, seed) in [
        ("numbers with gaps", numbers, 3),
        ("text with gaps", text, 4),
        ("dates with gaps", dates, 5),
    ] {
        let set = assert_matches_reference(name, &repeated(&raw, 150, seed), &GenConfig::default());
        assert!(!set.is_empty(), "{name}");
    }
}

#[test]
fn signed_zeros_match() {
    // `0.0 == -0.0` but their bit patterns differ, so they are two values
    // that every predicate treats alike. NaN compares false everywhere.
    let raw = vec![
        CellValue::Number(0.0),
        CellValue::Number(-0.0),
        CellValue::Number(1.0),
        CellValue::Number(-1.0),
        CellValue::Number(0.5),
        CellValue::Number(f64::NAN),
        CellValue::Number(-0.0),
    ];
    let set = assert_matches_reference(
        "signed zeros",
        &repeated(&raw, 80, 6),
        &GenConfig::default(),
    );
    assert!(!set.is_empty());
    let only_zeros = vec![CellValue::Number(0.0), CellValue::Number(-0.0)];
    assert_matches_reference(
        "only signed zeros",
        &repeated(&only_zeros, 20, 7),
        &GenConfig::default(),
    );
}

#[test]
fn dates_sharing_parts_match() {
    // Same month across years, same day across months, same weekday
    // (2021-03-01 and 2021-03-08 are Mondays), and the same year.
    let raw = vec![
        date(2021, 3, 1),
        date(2022, 3, 1),
        date(2021, 3, 8),
        date(2021, 4, 1),
        date(2021, 3, 15),
        date(2023, 12, 1),
        date(2020, 2, 29),
    ];
    let set = assert_matches_reference(
        "shared parts",
        &repeated(&raw, 100, 8),
        &GenConfig::default(),
    );
    assert!(!set.is_empty());
}

#[test]
fn caps_binding_mid_chunk_match() {
    // 300 distinct numbers give ~1 650 candidates, so evaluation runs in
    // four chunks of 512; caps land inside the first, on and around the
    // chunk boundary, and deep in later chunks.
    let mut rng = StdRng::seed_from_u64(9);
    let raw: Vec<CellValue> = (0..300)
        .map(|_| CellValue::Number(rng.gen_range(0..10_000) as f64))
        .collect();
    let cells = repeated(&raw, 900, 10);
    let uncapped = assert_matches_reference("uncapped", &cells, &GenConfig::default());
    assert!(uncapped.len() > 1_000, "{} predicates", uncapped.len());
    for cap in [1, 37, 511, 512, 513, 700, 1_000] {
        let config = GenConfig {
            max_predicates: cap,
            ..GenConfig::default()
        };
        let set = assert_matches_reference(&format!("cap {cap}"), &cells, &config);
        assert_eq!(set.len(), cap, "cap {cap} binds");
    }
}
