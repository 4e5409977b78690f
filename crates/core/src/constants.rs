//! Constant generation for predicate concretisation (Table 2).
//!
//! | Type    | Arg(s)    | Values                                            |
//! |---------|-----------|---------------------------------------------------|
//! | numeric | `n`       | all numbers that occur in the column              |
//! | numeric | `n`       | summary statistics: mean, min, max, percentiles   |
//! | numeric | `n`       | popular constants such as 0, 1 and 10ⁿ            |
//! | numeric | `n1`,`n2` | numeric generators for `n`, keeping `n1 < n2`     |
//! | text    | `s`       | whole cell value                                  |
//! | text    | `s`       | tokens from splitting on non-alphanumerics        |
//! | text    | `s`       | tokens from a prefix trie                         |
//! | date    | `n`,`d`   | per part `d`, extract values and use the numeric  |
//! |         |           | generator for `n`                                 |
//!
//! Candidate ordering matters downstream: when two predicates have identical
//! evaluation signatures on the column, predicate generation keeps the one
//! generated from the *earlier* constant source. Listing popular constants
//! and summary statistics before raw column values reproduces the paper's
//! observation that "due to enumeration, Cornet yields more general numbers
//! (10 versus 10.5)" (Table 7 discussion).

use cornet_table::Date;
use std::collections::HashSet;

/// Tunable bounds for constant generation. These are engineering bounds —
/// the paper enumerates unboundedly and relies on small real columns; the
/// defaults are generous enough to be behaviour-preserving on corpus-scale
/// columns while keeping worst-case work bounded.
#[derive(Debug, Clone)]
pub struct ConstantConfig {
    /// Maximum distinct numeric constants taken from raw column values;
    /// larger columns are thinned to evenly spaced quantile points.
    pub max_column_numbers: usize,
    /// Percentiles used as summary statistics.
    pub percentiles: Vec<f64>,
    /// "Popular" constants always tried for numeric predicates.
    pub popular: Vec<f64>,
    /// Maximum number of `between` pairs generated.
    pub max_between_pairs: usize,
    /// Minimum length of a prefix-trie token.
    pub min_prefix_len: usize,
    /// Minimum number of column values sharing a prefix for it to become a
    /// constant.
    pub min_prefix_support: usize,
    /// Maximum distinct text constants (whole values + tokens + prefixes).
    pub max_text_constants: usize,
}

impl Default for ConstantConfig {
    fn default() -> Self {
        ConstantConfig {
            // Effectively unthinned for realistic columns: every distinct
            // value is a candidate threshold, so any gold cut between two
            // adjacent values stays expressible (execution match depends on
            // it). Thinning only kicks in on pathological columns.
            max_column_numbers: 1024,
            percentiles: vec![0.25, 0.5, 0.75],
            popular: vec![0.0, 1.0, 10.0, 100.0, 1000.0],
            max_between_pairs: 128,
            min_prefix_len: 2,
            min_prefix_support: 2,
            max_text_constants: 512,
        }
    }
}

/// Numeric constants for single-argument predicates, in preference order
/// (popular → summary statistics → column values). Deduplicated.
pub fn numeric_constants(values: &[f64], config: &ConstantConfig) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    let mut push = |v: f64| {
        if v.is_finite() && !out.contains(&v) {
            out.push(v);
        }
    };
    for &p in &config.popular {
        push(p);
    }
    if !values.is_empty() {
        // The `is_finite` filter on the previous line makes NaN provably
        // unreachable here; `total_cmp` removes the panic path anyway.
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        if !sorted.is_empty() {
            let min = sorted[0];
            let max = sorted[sorted.len() - 1];
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            push(round_for_display(mean));
            push(min);
            push(max);
            for &p in &config.percentiles {
                push(percentile(&sorted, p));
            }
            if sorted.len() <= config.max_column_numbers {
                for &v in &sorted {
                    push(v);
                }
            } else {
                // Thin to evenly spaced quantile points so long columns keep
                // decision-boundary candidates everywhere in the range.
                for i in 0..config.max_column_numbers {
                    let idx = i * (sorted.len() - 1) / (config.max_column_numbers - 1);
                    push(sorted[idx]);
                }
            }
        }
    }
    out
}

/// `between` argument pairs: ordered pairs drawn from the single-argument
/// generator, keeping `lo < hi`, capped and biased toward pairs that bracket
/// dense regions (adjacent quantiles first, then wider spans).
pub fn between_pairs(constants: &[f64], config: &ConstantConfig) -> Vec<(f64, f64)> {
    // Public entry point: callers may pass arbitrary floats, so the sort
    // must be total — `partial_cmp(..).unwrap()` here panicked on NaN.
    let mut sorted: Vec<f64> = constants.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    let mut out = Vec::new();
    // Widening spans: first adjacent pairs, then distance-2 pairs, etc.
    'outer: for span in 1..sorted.len() {
        for i in 0..sorted.len() - span {
            if out.len() >= config.max_between_pairs {
                break 'outer;
            }
            out.push((sorted[i], sorted[i + span]));
        }
    }
    out
}

/// Text constants, in preference order: whole cell values → prefix-trie
/// tokens → delimiter tokens. Deduplicated case-insensitively, capped.
pub fn text_constants(values: &[&str], config: &ConstantConfig) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut push = |s: &str| {
        if s.is_empty() || out.len() >= config.max_text_constants {
            return;
        }
        if seen.insert(s.to_lowercase()) {
            out.push(s.to_string());
        }
    };
    // Whole values (Example 4's first source).
    for v in values {
        push(v.trim());
    }
    // Prefix-trie tokens: shared prefixes of ≥ min_prefix_len supported by
    // ≥ min_prefix_support values.
    for prefix in prefix_tokens(values, config.min_prefix_len, config.min_prefix_support) {
        push(&prefix);
    }
    // Delimiter tokens: split on non-alphanumeric characters.
    for v in values {
        for token in split_tokens(v) {
            push(token);
        }
    }
    out
}

/// Splits a cell value on runs of non-alphanumeric characters.
pub fn split_tokens(value: &str) -> impl Iterator<Item = &str> {
    value
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
}

/// Shared prefixes (length ≥ `min_len`, support ≥ `min_support`), found by
/// sorting lowercased values and taking longest common prefixes of adjacent
/// entries — equivalent to reading internal trie nodes. Only *maximal*
/// prefixes per adjacent pair are kept, plus their shorter closed ancestors
/// that gain additional support.
pub fn prefix_tokens(values: &[&str], min_len: usize, min_support: usize) -> Vec<String> {
    let mut lowered: Vec<String> = values.iter().map(|v| v.trim().to_lowercase()).collect();
    lowered.sort();
    lowered.dedup();
    let mut candidates: Vec<String> = Vec::new();
    for pair in lowered.windows(2) {
        let lcp = longest_common_prefix(&pair[0], &pair[1]);
        if lcp.chars().count() >= min_len {
            candidates.push(lcp.to_string());
        }
    }
    candidates.sort();
    candidates.dedup();
    // Filter by actual support over the original (deduplicated) values.
    candidates.retain(|prefix| {
        lowered
            .iter()
            .filter(|v| v.starts_with(prefix.as_str()))
            .count()
            >= min_support
    });
    candidates
}

fn longest_common_prefix<'a>(a: &'a str, b: &str) -> &'a str {
    let mut end = 0;
    for (ca, cb) in a.chars().zip(b.chars()) {
        if ca != cb {
            break;
        }
        end += ca.len_utf8();
    }
    &a[..end]
}

/// Date-part constants: for each requested part, extract the numeric values
/// and run the numeric generator (Table 2, last row). Returns integral
/// candidates only.
pub fn date_part_constants(
    dates: &[Date],
    part: crate::predicate::DatePart,
    config: &ConstantConfig,
) -> Vec<i64> {
    let values: Vec<f64> = dates.iter().map(|d| part.extract(*d) as f64).collect();
    numeric_constants(&values, config)
        .into_iter()
        .filter(|v| v.fract() == 0.0)
        .map(|v| v as i64)
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Rounds a derived statistic (e.g. the mean) to a display-friendly value so
/// generated rules carry readable constants.
fn round_for_display(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::DatePart;

    #[test]
    fn numeric_includes_all_sources() {
        let values = [5.0, 10.5, 20.0];
        let consts = numeric_constants(&values, &ConstantConfig::default());
        // Popular first.
        assert_eq!(consts[0], 0.0);
        assert!(consts.contains(&1.0));
        // Column values.
        assert!(consts.contains(&5.0));
        assert!(consts.contains(&10.5));
        assert!(consts.contains(&20.0));
        // Mean ≈ 11.83.
        assert!(consts.contains(&11.83));
        // No duplicates.
        let mut dedup = consts.clone();
        dedup.dedup_by(|a, b| a == b);
        assert_eq!(dedup.len(), consts.len());
    }

    #[test]
    fn numeric_popular_precede_column_values() {
        let values = [10.5, 42.0];
        let consts = numeric_constants(&values, &ConstantConfig::default());
        let pos_10 = consts.iter().position(|&v| v == 10.0).unwrap();
        let pos_105 = consts.iter().position(|&v| v == 10.5).unwrap();
        assert!(pos_10 < pos_105, "popular 10 must precede column 10.5");
    }

    #[test]
    fn numeric_thinning_caps_long_columns() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let config = ConstantConfig::default();
        let consts = numeric_constants(&values, &config);
        assert!(consts.len() <= config.max_column_numbers + config.popular.len() + 6);
        // Extremes survive thinning.
        assert!(consts.contains(&0.0));
        assert!(consts.contains(&9999.0));
    }

    #[test]
    fn between_pairs_ordered_and_capped() {
        let consts = [1.0, 2.0, 3.0, 4.0];
        let pairs = between_pairs(&consts, &ConstantConfig::default());
        assert!(pairs.iter().all(|(lo, hi)| lo < hi));
        // Adjacent pairs come first.
        assert_eq!(pairs[0], (1.0, 2.0));
        let config = ConstantConfig {
            max_between_pairs: 3,
            ..ConstantConfig::default()
        };
        assert_eq!(between_pairs(&consts, &config).len(), 3);
    }

    #[test]
    fn between_pairs_tolerates_nan_input() {
        // Public API: arbitrary floats may arrive. The sort used to panic
        // on NaN via `partial_cmp(..).unwrap()`; `total_cmp` sorts NaN to
        // one end, and the finite pairs are still produced.
        let consts = [2.0, f64::NAN, 1.0];
        let pairs = between_pairs(&consts, &ConstantConfig::default());
        assert!(pairs.contains(&(1.0, 2.0)));
    }

    #[test]
    fn text_constants_example_4() {
        // Paper Example 4: for RW-187 and TextEquals, the generated
        // constants are the whole value and its tokens (the "-" token is a
        // delimiter and never surfaces).
        let values = ["RW-187", "RW-159", "RS-762"];
        let consts = text_constants(&values, &ConstantConfig::default());
        assert!(consts.iter().any(|c| c == "RW-187"));
        assert!(consts.iter().any(|c| c == "RW"));
        assert!(consts.iter().any(|c| c == "187"));
        assert!(!consts.iter().any(|c| c == "-"));
    }

    #[test]
    fn text_prefixes_found() {
        let values = ["RW-187", "RW-159", "QX-1"];
        let consts = text_constants(&values, &ConstantConfig::default());
        // "rw-1" is the longest common prefix of the two RW ids.
        assert!(consts.iter().any(|c| c.eq_ignore_ascii_case("rw-1")));
    }

    #[test]
    fn text_dedup_case_insensitive() {
        let values = ["Pass", "PASS", "pass"];
        let consts = text_constants(&values, &ConstantConfig::default());
        assert_eq!(
            consts
                .iter()
                .filter(|c| c.eq_ignore_ascii_case("pass"))
                .count(),
            1
        );
    }

    /// The linear-scan dedup `text_constants` used before its set: a
    /// `Vec` of lowercased keys searched with `contains`.
    fn linear_scan_text_constants(values: &[&str], config: &ConstantConfig) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut seen: Vec<String> = Vec::new();
        let mut push = |s: &str| {
            if s.is_empty() || out.len() >= config.max_text_constants {
                return;
            }
            let key = s.to_lowercase();
            if !seen.contains(&key) {
                seen.push(key);
                out.push(s.to_string());
            }
        };
        for v in values {
            push(v.trim());
        }
        for prefix in prefix_tokens(values, config.min_prefix_len, config.min_prefix_support) {
            push(&prefix);
        }
        for v in values {
            for token in split_tokens(v) {
                push(token);
            }
        }
        out
    }

    #[test]
    fn text_constants_keep_linear_scan_order() {
        // Case variants of whole values, of prefixes and of tokens, with
        // the first spelling of each winning; Unicode case folds included.
        let values = [
            "RW-187",
            "rw-187",
            "Rw-159",
            "RS-762",
            "ABC",
            "abc",
            "Abc",
            " abc ",
            "ΟΔΟΣ",
            "οδος",
            "İstanbul",
            "istanbul",
            "TW-224-T",
            "tw-224-t",
            "x-T",
            "",
        ];
        let config = ConstantConfig::default();
        let expected = linear_scan_text_constants(&values, &config);
        assert_eq!(text_constants(&values, &config), expected);
        assert!(
            expected.iter().any(|c| c == "rw-1"),
            "prefix tokens reached"
        );
        // A cap that binds partway through the token source.
        let capped = ConstantConfig {
            max_text_constants: expected.len() - 3,
            ..ConstantConfig::default()
        };
        assert_eq!(
            text_constants(&values, &capped),
            linear_scan_text_constants(&values, &capped)
        );
    }

    #[test]
    fn text_cap_respected() {
        let values: Vec<String> = (0..500).map(|i| format!("value-{i}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let config = ConstantConfig::default();
        let consts = text_constants(&refs, &config);
        assert!(consts.len() <= config.max_text_constants);
    }

    #[test]
    fn prefix_tokens_require_support() {
        let tokens = prefix_tokens(&["abcd", "abce", "xyz"], 2, 2);
        assert!(tokens.contains(&"abc".to_string()));
        assert!(!tokens.iter().any(|t| t.starts_with("xy")));
        // Raising support above what the data offers removes everything.
        assert!(prefix_tokens(&["abcd", "abce", "xyz"], 2, 3).is_empty());
    }

    #[test]
    fn date_part_constants_integral() {
        let dates = [
            Date::from_ymd(2020, 3, 5).unwrap(),
            Date::from_ymd(2021, 7, 15).unwrap(),
            Date::from_ymd(2022, 11, 25).unwrap(),
        ];
        let months = date_part_constants(&dates, DatePart::Month, &ConstantConfig::default());
        assert!(months.contains(&3));
        assert!(months.contains(&7));
        assert!(months.contains(&11));
        let years = date_part_constants(&dates, DatePart::Year, &ConstantConfig::default());
        assert!(years.contains(&2020) && years.contains(&2022));
    }

    #[test]
    fn empty_inputs() {
        assert!(numeric_constants(&[], &ConstantConfig::default())
            .iter()
            .all(|v| v.is_finite()));
        assert!(text_constants(&[], &ConstantConfig::default()).is_empty());
        assert!(prefix_tokens(&[], 2, 2).is_empty());
    }
}
