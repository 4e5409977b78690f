//! A packed bit vector.
//!
//! Predicate signatures, formatting masks and decision-tree feature columns
//! are all sets over cells, so the whole workspace shares this one compact
//! representation. Distances between cells (§3.2 of the paper: "the size of
//! the symmetric difference between the sets of predicates that hold for
//! either cell") reduce to a popcount over XOR-ed words, which is what makes
//! the clustering step cheap.

use std::fmt;

/// A fixed-length vector of bits packed into `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a bit vector from a boolean slice.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::zeros(bools.len());
        for (i, &b) in bools.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a bit vector of length `len` with the given indices set.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut v = Self::zeros(len);
        for &i in indices {
            v.set(i, true);
        }
        v
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let (w, b) = (i / 64, i % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn none(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when every bit is set.
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Popcount of the symmetric difference (`self XOR other`).
    ///
    /// This is the cell distance of §3.2 when both vectors are predicate
    /// signatures of cells.
    pub fn hamming(&self, other: &BitVec) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Popcount of the intersection.
    pub fn and_count(&self, other: &BitVec) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union.
    pub fn or_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn and_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place symmetric difference.
    pub fn xor_assign(&mut self, other: &BitVec) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns the complement.
    pub fn not(&self) -> BitVec {
        let mut v = self.clone();
        for w in &mut v.words {
            *w = !*w;
        }
        v.mask_tail();
        v
    }

    /// True when `self` is a subset of `other`.
    pub fn is_subset(&self, other: &BitVec) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterator over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Iterator over all bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Converts to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Returns the vector whose bit `i` is bit `index[i]` of `self`, with
    /// length `index.len()`. Each output word is assembled from 64 lookups
    /// and written once.
    pub fn gather(&self, index: &[u32]) -> BitVec {
        let words = index
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |word, (b, &src)| {
                    let src = src as usize;
                    debug_assert!(src < self.len);
                    word | ((self.words[src / 64] >> (src % 64)) & 1) << b
                })
            })
            .collect();
        BitVec {
            len: index.len(),
            words,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bools)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert_eq!(z.len(), 70);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let o = BitVec::ones(70);
        assert_eq!(o.count_ones(), 70);
        assert!(o.all());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn hamming_is_symmetric_difference() {
        let a = BitVec::from_indices(10, &[1, 2, 3]);
        let b = BitVec::from_indices(10, &[2, 3, 4, 5]);
        assert_eq!(a.hamming(&b), 3); // {1} ∪ {4,5}
        assert_eq!(b.hamming(&a), 3);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn not_masks_tail_bits() {
        let v = BitVec::zeros(3);
        let n = v.not();
        assert_eq!(n.count_ones(), 3);
        assert!(n.all());
    }

    #[test]
    fn subset() {
        let a = BitVec::from_indices(8, &[1, 2]);
        let b = BitVec::from_indices(8, &[1, 2, 5]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
    }

    #[test]
    fn iter_ones_matches_get() {
        let v = BitVec::from_indices(200, &[0, 63, 64, 65, 128, 199]);
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn boolean_ops() {
        let a = BitVec::from_indices(6, &[0, 1, 2]);
        let b = BitVec::from_indices(6, &[2, 3]);
        let mut u = a.clone();
        u.or_assign(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let mut i = a.clone();
        i.and_assign(&b);
        assert_eq!(i.iter_ones().collect::<Vec<_>>(), vec![2]);
        let mut x = a.clone();
        x.xor_assign(&b);
        assert_eq!(x.iter_ones().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(a.and_count(&b), 1);
    }

    #[test]
    fn gather_matches_per_bit_lookup() {
        // A 130-bit source spans three words; indices start on its tail
        // bit and word edges, repeat one, then run in scrambled order.
        let src = BitVec::from_indices(130, &[0, 5, 63, 64, 100, 127, 129]);
        for len in [0usize, 1, 63, 64, 65, 129] {
            let index: Vec<u32> = [129, 0, 64, 63, 129, 128]
                .into_iter()
                .chain((0..).map(|i| (i * 37 + 11) % 130))
                .take(len)
                .collect();
            let gathered = src.gather(&index);
            assert_eq!(gathered.len(), len);
            let expected: Vec<bool> = index.iter().map(|&j| src.get(j as usize)).collect();
            assert_eq!(gathered.to_bools(), expected, "len {len}");
            // Bits past `len` in the last word stay clear, so equality,
            // hashing and popcounts agree with a vector built bit by bit.
            assert_eq!(gathered, BitVec::from_bools(&expected), "len {len}");
            assert_eq!(
                gathered.count_ones(),
                expected.iter().filter(|&&b| b).count()
            );
        }
        // The identity index reproduces the source.
        let identity: Vec<u32> = (0..130).collect();
        assert_eq!(src.gather(&identity), src);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bools = vec![true, false, true, true, false];
        let v = BitVec::from_bools(&bools);
        assert_eq!(v.to_bools(), bools);
        let collected: BitVec = bools.iter().copied().collect();
        assert_eq!(collected, v);
    }
}
