//! The `k`-dimensional emptiness bit array of §3.2.
//!
//! At an internal node `u` with `L` large keywords, the secondary
//! structure must answer in `O(1)`: *given `k` distinct large keywords
//! and a child `v`, is `⋂ᵢ D_v^act(wᵢ)` empty?* The paper implements it
//! as "a `k`-dimensional bit array where each cell indicates whether
//! `⋂ᵢ D_v^act(wᵢ)` is empty for a distinct combination of large
//! keywords": `L^k` bits, which is at most `N_u` bits because
//! `L ≤ N_u^{1/k}` (§3.2). Only the cells addressed by *sorted* keyword
//! tuples are populated and probed.

/// A dense `L^k`-bit table addressed by sorted `k`-tuples of local
/// large-keyword ids in `0..L`, over bit words it borrows (`&[u64]`
/// to probe, `&mut [u64]` to fill): a built tree keeps every node's
/// tables in one word pool per keyword layer and views them in place.
#[derive(Clone, Copy, Debug)]
pub struct ComboTable<B> {
    l: usize,
    bits: B,
}

/// The number of 64-bit words of an `L^k`-bit table.
///
/// # Errors
///
/// When `l < k` (no `k`-subset of fewer than `k` keywords exists) or
/// `k == 0`, or on absurd sizes, which the large-keyword bound
/// `L ≤ N_u^{1/k}` rules out for valid inputs.
pub fn table_words(l: usize, k: usize) -> Result<usize, String> {
    if k < 1 || l < k {
        return Err(format!("combo table needs 1 <= k <= l, got l={l} k={k}"));
    }
    let cells = (l as u128)
        .checked_pow(k as u32)
        .filter(|&c| c <= 1 << 40)
        .ok_or_else(|| format!("combo table of l={l} k={k} exceeds the cell budget"))?;
    Ok((cells as usize).div_ceil(64))
}

impl<B> ComboTable<B> {
    /// Views `bits` (of [`table_words`]`(l, k)` words) as the table for
    /// `l` large keywords.
    pub fn new(l: usize, bits: B) -> Self {
        Self { l, bits }
    }

    fn index(&self, sorted_ids: &[u32]) -> usize {
        debug_assert!(
            sorted_ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be strictly sorted"
        );
        let mut idx = 0usize;
        for &id in sorted_ids {
            debug_assert!((id as usize) < self.l);
            idx = idx * self.l + id as usize;
        }
        idx
    }
}

impl<B: AsRef<[u64]>> ComboTable<B> {
    /// Whether the combination was marked non-empty.
    pub fn get(&self, sorted_ids: &[u32]) -> bool {
        let i = self.index(sorted_ids);
        self.bits.as_ref()[i / 64] >> (i % 64) & 1 == 1
    }
}

impl<B: AsMut<[u64]>> ComboTable<B> {
    /// Marks the combination as non-empty.
    pub fn set(&mut self, sorted_ids: &[u32]) {
        let i = self.index(sorted_ids);
        self.bits.as_mut()[i / 64] |= 1 << (i % 64);
    }
}

/// Calls `f` with every strictly increasing `k`-subset of `ids`
/// (which must be strictly sorted). Used at build time to mark the
/// combinations realized by each object's document.
pub fn for_each_k_subset(ids: &[u32], k: usize, f: &mut impl FnMut(&[u32])) {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
    if ids.len() < k || k == 0 {
        if k == 0 {
            f(&[]);
        }
        return;
    }
    let mut buf = vec![0u32; k];
    subsets_rec(ids, k, 0, 0, &mut buf, f);
}

fn subsets_rec(
    ids: &[u32],
    k: usize,
    start: usize,
    depth: usize,
    buf: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32]),
) {
    if depth == k {
        f(buf);
        return;
    }
    // Prune: not enough ids left to fill the remaining slots.
    let remaining = k - depth;
    for i in start..=ids.len().saturating_sub(remaining) {
        buf[depth] = ids[i];
        subsets_rec(ids, k, i + 1, depth + 1, buf, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(l: usize, k: usize) -> ComboTable<Vec<u64>> {
        ComboTable::new(l, vec![0; table_words(l, k).unwrap()])
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = empty(5, 2);
        t.set(&[1, 3]);
        t.set(&[0, 4]);
        assert!(t.get(&[1, 3]));
        assert!(t.get(&[0, 4]));
        assert!(!t.get(&[1, 4]));
        assert!(!t.get(&[0, 1]));
    }

    #[test]
    fn distinct_tuples_distinct_cells() {
        let l = 6;
        let k = 3;
        let mut t = empty(l, k);
        let mut all: Vec<Vec<u32>> = Vec::new();
        let ids: Vec<u32> = (0..l as u32).collect();
        for_each_k_subset(&ids, k, &mut |s| all.push(s.to_vec()));
        assert_eq!(all.len(), 20); // C(6,3)
        for (i, s) in all.iter().enumerate() {
            t.set(s);
            // All tuples set so far are readable, later ones are not.
            for (j, s2) in all.iter().enumerate() {
                assert_eq!(t.get(s2), j <= i, "after setting {i}, tuple {j}");
            }
        }
    }

    #[test]
    fn k_equals_one() {
        let mut t = empty(3, 1);
        t.set(&[2]);
        assert!(t.get(&[2]));
        assert!(!t.get(&[0]));
    }

    #[test]
    fn subset_enumeration_counts() {
        let ids: Vec<u32> = vec![2, 5, 7, 11];
        let mut n = 0;
        for_each_k_subset(&ids, 2, &mut |s| {
            assert!(s[0] < s[1]);
            n += 1;
        });
        assert_eq!(n, 6);
        let mut n = 0;
        for_each_k_subset(&ids, 4, &mut |_| n += 1);
        assert_eq!(n, 1);
        let mut n = 0;
        for_each_k_subset(&ids, 5, &mut |_| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn too_few_large_rejected() {
        assert!(table_words(1, 2).unwrap_err().contains("1 <= k <= l"));
        assert!(table_words(1 << 20, 3).unwrap_err().contains("budget"));
        assert_eq!(table_words(8, 2), Ok(1));
        assert_eq!(table_words(9, 2), Ok(2));
    }
}
