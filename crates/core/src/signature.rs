//! Per-cell predicate signatures and the symmetric-difference cell distance
//! (§3.2: "The distance between two cells is the size of the symmetric
//! difference between the sets of predicates that hold for either cell").
//!
//! Long columns repeat themselves: a 3 200-cell text column typically has a
//! handful of distinct signature rows, a number column a few hundred. Rows
//! are therefore stored once each, and every cell points at its row, so
//! clustering can measure distances between distinct rows and weigh them
//! by multiplicity instead of walking every pair of cells.

use crate::predgen::PredicateSet;
use cornet_table::BitVec;
use std::collections::HashMap;

/// Transposed view of a [`PredicateSet`]: for each cell, the set of
/// predicates that hold on it, packed as a bit vector. Equal rows are
/// shared: cells map to *distinct rows*, numbered in order of first
/// occurrence.
#[derive(Debug, Clone)]
pub struct CellSignatures {
    /// Distinct predicate rows, in order of first occurrence.
    rows: Vec<BitVec>,
    /// The distinct row of each cell.
    row_ids: Vec<u32>,
}

impl CellSignatures {
    /// Builds cell signatures from a predicate set.
    pub fn from_predicates(set: &PredicateSet) -> CellSignatures {
        let n_cells = set.n_cells;
        let n_preds = set.len();
        let mut cell_rows = vec![BitVec::zeros(n_preds); n_cells];
        for (p, sig) in set.signatures.iter().enumerate() {
            for cell in sig.iter_ones() {
                cell_rows[cell].set(p, true);
            }
        }
        let mut ids: HashMap<BitVec, u32> = HashMap::new();
        let mut rows = Vec::new();
        let row_ids = cell_rows
            .into_iter()
            .map(|row| {
                *ids.entry(row).or_insert_with_key(|row| {
                    rows.push(row.clone());
                    (rows.len() - 1) as u32
                })
            })
            .collect();
        CellSignatures { rows, row_ids }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.row_ids.len()
    }

    /// Number of distinct signature rows.
    pub fn n_distinct(&self) -> usize {
        self.rows.len()
    }

    /// The distinct-row index of cell `i`: cells `i` and `j` have equal
    /// predicate sets exactly when their row ids are equal.
    #[inline]
    pub fn row_id(&self, i: usize) -> usize {
        self.row_ids[i] as usize
    }

    /// The predicate set of cell `i`.
    pub fn row(&self, i: usize) -> &BitVec {
        &self.rows[self.row_id(i)]
    }

    /// Symmetric-difference distance between two cells.
    #[inline]
    pub fn distance(&self, i: usize, j: usize) -> usize {
        self.row(i).hamming(self.row(j))
    }

    /// Combined min+max linkage distance from a cell to a cluster (§3.2:
    /// "we combine the minimal and maximal distance to any element of the
    /// cluster", linear rather than quadratic like a medoid update).
    ///
    /// The cell is given by its distinct `row`, and the cluster by its
    /// distinct member rows as `(row id, member count)` pairs, each count
    /// non-zero. When `self_member`, the cell is itself one of the members
    /// counted under `row`; a cell is not its own neighbour, so that one
    /// copy is excluded and the row only counts when another member shares
    /// it. Returns `None` when no other member remains.
    pub fn linkage(
        &self,
        row: usize,
        members: &[(usize, u32)],
        self_member: bool,
    ) -> Option<usize> {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut any = false;
        for &(m, count) in members {
            if self_member && m == row && count == 1 {
                continue;
            }
            let d = self.rows[row].hamming(&self.rows[m]);
            min = min.min(d);
            max = max.max(d);
            any = true;
        }
        any.then_some(min + max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predgen::{generate_predicates, GenConfig};
    use cornet_table::CellValue;

    fn sigs_for(raw: &[&str]) -> CellSignatures {
        let cells: Vec<CellValue> = raw.iter().map(|s| CellValue::parse(s)).collect();
        let set = generate_predicates(&cells, &GenConfig::default());
        CellSignatures::from_predicates(&set)
    }

    #[test]
    fn similar_cells_are_closer() {
        let s = sigs_for(&["RW-187", "RW-159", "QX-933"]);
        assert!(s.distance(0, 1) < s.distance(0, 2));
        assert_eq!(s.distance(0, 0), 0);
    }

    #[test]
    fn distance_is_symmetric() {
        let s = sigs_for(&["1", "5", "9", "12"]);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(s.distance(i, j), s.distance(j, i));
            }
        }
    }

    #[test]
    fn equal_rows_are_stored_once() {
        let s = sigs_for(&["RW-1", "XX-2", "RW-1", "RW-1", "XX-2", "QQ"]);
        assert_eq!(s.n_cells(), 6);
        assert_eq!(s.n_distinct(), 3);
        assert_eq!(
            (0..6).map(|i| s.row_id(i)).collect::<Vec<_>>(),
            vec![0, 1, 0, 0, 1, 2]
        );
        assert_eq!(s.distance(0, 2), 0);
    }

    #[test]
    fn linkage_combines_min_and_max() {
        let s = sigs_for(&["1", "2", "100", "2", "1", "7"]);
        let members = [0, 1, 3, 4];
        let mut counts = vec![0u32; s.n_distinct()];
        for &m in &members {
            counts[s.row_id(m)] += 1;
        }
        let rows: Vec<(usize, u32)> = (0..counts.len())
            .filter(|&r| counts[r] > 0)
            .map(|r| (r, counts[r]))
            .collect();
        for i in 0..s.n_cells() {
            // Min + max over every member cell other than `i` itself.
            let ds: Vec<usize> = members
                .iter()
                .filter(|&&m| m != i)
                .map(|&m| s.distance(i, m))
                .collect();
            let expected = Some(ds.iter().min().unwrap() + ds.iter().max().unwrap());
            let own = members.contains(&i);
            assert_eq!(s.linkage(s.row_id(i), &rows, own), expected, "cell {i}");
        }
        // A lone member's own copy is excluded; an empty cluster is None.
        let r0 = s.row_id(0);
        assert_eq!(s.linkage(r0, &[(r0, 1)], true), None);
        assert_eq!(s.linkage(r0, &[(r0, 2)], true), Some(0));
        assert_eq!(s.linkage(r0, &[], false), None);
    }

    #[test]
    fn transpose_is_consistent() {
        let raw = ["RW-1", "RW-2", "XX-3"];
        let cells: Vec<CellValue> = raw.iter().map(|s| CellValue::parse(s)).collect();
        let set = generate_predicates(&cells, &GenConfig::default());
        let s = CellSignatures::from_predicates(&set);
        for (p, sig) in set.signatures.iter().enumerate() {
            for c in 0..cells.len() {
                assert_eq!(sig.get(c), s.row(c).get(p));
            }
        }
    }
}
