//! Copy-on-write block storage for [`DocGraph`](crate::DocGraph)'s
//! per-document columns.
//!
//! Every per-document column — URLs, page kinds and the out-link rows — is
//! cut into blocks of [`BLOCK_ROWS`] consecutive documents, each behind an
//! `Arc`. A new graph version clones the block *pointers* and rebuilds only
//! the blocks that hold an edited or appended row, so
//! [`DocGraph::apply`](crate::DocGraph::apply) pays for what a delta touches
//! plus one pointer per block, never a copy of every link. Block `k` always
//! covers documents `k·B .. (k+1)·B`; only the last block may be partial,
//! and appends fill it before opening a new one, so the block count is
//! `⌈n/B⌉` however many deltas produced the column.

use std::sync::Arc;

use lmm_linalg::CsrMatrix;

/// Documents per block. Small enough that rebuilding the block of a
/// one-page edit costs a few microseconds on a campus-scale graph, large
/// enough that cloning the block pointers stays a few hundred `Arc`s.
pub(crate) const BLOCK_ROWS: usize = 256;

/// An immutable column of per-document values in [`BLOCK_ROWS`]-sized
/// `Arc` blocks.
#[derive(Debug)]
pub(crate) struct CowColumn<T> {
    blocks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> CowColumn<T> {
    pub(crate) fn from_vec(v: Vec<T>) -> Self {
        let len = v.len();
        let mut blocks = Vec::with_capacity(len.div_ceil(BLOCK_ROWS));
        let mut values = v.into_iter();
        loop {
            let block: Vec<T> = values.by_ref().take(BLOCK_ROWS).collect();
            if block.is_empty() {
                break;
            }
            blocks.push(Arc::new(block));
        }
        Self { blocks, len }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> &T {
        &self.blocks[i / BLOCK_ROWS][i % BLOCK_ROWS]
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &[Arc<Vec<T>>] {
        &self.blocks
    }
}

impl<T: Clone> CowColumn<T> {
    /// A new column sharing every full block, with `tail` appended: the
    /// partial last block is copied and topped up, then new blocks follow.
    pub(crate) fn append(&self, tail: impl IntoIterator<Item = T>) -> Self {
        let mut col = self.clone();
        let mut tail = tail.into_iter().peekable();
        if tail.peek().is_none() {
            return col;
        }
        if let Some(last) = col.blocks.last_mut().filter(|b| b.len() < BLOCK_ROWS) {
            let mut block = Vec::with_capacity(BLOCK_ROWS);
            block.extend(last.iter().cloned());
            block.extend(tail.by_ref().take(BLOCK_ROWS - block.len()));
            col.len += block.len() - last.len();
            *last = Arc::new(block);
        }
        loop {
            let block: Vec<T> = tail.by_ref().take(BLOCK_ROWS).collect();
            if block.is_empty() {
                break;
            }
            col.len += block.len();
            col.blocks.push(Arc::new(block));
        }
        col
    }
}

// Manual impl: the derive would demand `T: Clone`, but cloning only copies
// the block `Arc`s.
impl<T> Clone for CowColumn<T> {
    fn clone(&self) -> Self {
        Self {
            blocks: self.blocks.clone(),
            len: self.len,
        }
    }
}

impl<T: PartialEq> PartialEq for CowColumn<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// The out-link rows of [`BLOCK_ROWS`] consecutive documents, CSR-style:
/// row `r` is `cols[ptr[r]..ptr[r + 1]]`, strictly ascending.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LinkBlock {
    ptr: Vec<usize>,
    cols: Vec<usize>,
}

impl LinkBlock {
    fn n_rows(&self) -> usize {
        self.ptr.len().saturating_sub(1)
    }

    fn row(&self, r: usize) -> &[usize] {
        &self.cols[self.ptr[r]..self.ptr[r + 1]]
    }

    fn push_row(&mut self, cols: &[usize]) {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row not ascending");
        if self.ptr.is_empty() {
            self.ptr.push(0);
        }
        self.cols.extend_from_slice(cols);
        self.ptr.push(self.cols.len());
    }
}

/// The deduplicated 0/1 link structure of a document graph: one ascending
/// column list per document, stored in copy-on-write [`LinkBlock`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkRows {
    blocks: Vec<Arc<LinkBlock>>,
    n_rows: usize,
    nnz: usize,
}

impl LinkRows {
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// The ascending targets of row `r`.
    ///
    /// # Panics
    /// Panics if `r` is out of bounds.
    pub(crate) fn row(&self, r: usize) -> &[usize] {
        self.blocks[r / BLOCK_ROWS].row(r % BLOCK_ROWS)
    }

    /// Every `(src, dst)` pair, by source row then destination.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.blocks.iter().enumerate().flat_map(|(b, block)| {
            (0..block.n_rows())
                .flat_map(move |r| block.row(r).iter().map(move |&c| (b * BLOCK_ROWS + r, c)))
        })
    }

    /// Rows (ascending) that hold at least one column in `dead`: a
    /// read-only scan that skips whole blocks without such a column.
    pub(crate) fn rows_linking(&self, dead: &DocBitmap) -> Vec<usize> {
        let mut rows = Vec::new();
        for (b, block) in self.blocks.iter().enumerate() {
            if !block.cols.iter().any(|&c| dead.contains(c)) {
                continue;
            }
            for r in 0..block.n_rows() {
                if block.row(r).iter().any(|&c| dead.contains(c)) {
                    rows.push(b * BLOCK_ROWS + r);
                }
            }
        }
        rows
    }

    /// A new version with `n_rows` rows (at least the current count):
    /// every row named in `edits` (ascending by row) takes its new column
    /// list, appended rows without an edit are empty, and everything else
    /// is shared — only the blocks holding an edited or appended row are
    /// rebuilt.
    pub(crate) fn patch(&self, n_rows: usize, edits: &[(usize, Vec<usize>)]) -> LinkRows {
        debug_assert!(n_rows >= self.n_rows, "link rows never shrink");
        debug_assert!(edits.windows(2).all(|w| w[0].0 < w[1].0));
        let mut out = self.clone();
        out.n_rows = n_rows;
        let mut touched: Vec<usize> = edits.iter().map(|(r, _)| r / BLOCK_ROWS).collect();
        if n_rows > self.n_rows {
            touched.extend(self.n_rows / BLOCK_ROWS..n_rows.div_ceil(BLOCK_ROWS));
        }
        touched.sort_unstable();
        touched.dedup();
        out.blocks
            .resize_with(n_rows.div_ceil(BLOCK_ROWS), Arc::default);
        let mut next_edit = edits.iter().peekable();
        for b in touched {
            let start = b * BLOCK_ROWS;
            let end = n_rows.min(start + BLOCK_ROWS);
            let mut block = LinkBlock::default();
            for r in start..end {
                match next_edit.next_if(|(er, _)| *er == r) {
                    Some((_, cols)) => block.push_row(cols),
                    None if r < self.n_rows => block.push_row(self.row(r)),
                    None => block.push_row(&[]),
                }
            }
            out.nnz = out.nnz - out.blocks[b].cols.len() + block.cols.len();
            out.blocks[b] = Arc::new(block);
        }
        out
    }

    /// The 0/1 adjacency matrix, materialized (O(links)).
    pub(crate) fn to_csr(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz);
        for block in &self.blocks {
            for r in 0..block.n_rows() {
                col_idx.extend_from_slice(block.row(r));
                row_ptr.push(col_idx.len());
            }
        }
        let values = vec![1.0f64; col_idx.len()];
        CsrMatrix::from_raw_parts(self.n_rows, self.n_rows, row_ptr, col_idx, values)
            .expect("link rows are square, ascending and in range by construction")
    }

    #[cfg(test)]
    pub(crate) fn blocks(&self) -> &[Arc<LinkBlock>] {
        &self.blocks
    }
}

impl PartialEq for LinkRows {
    fn eq(&self, other: &Self) -> bool {
        // Equal row counts give equal block boundaries.
        self.n_rows == other.n_rows
            && self.nnz == other.nnz
            && self
                .blocks
                .iter()
                .zip(&other.blocks)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// A dense set of document slots, one bit per slot — small enough to stay
/// cache-resident during a scan of every link.
#[derive(Debug)]
pub(crate) struct DocBitmap {
    words: Vec<u64>,
}

impl DocBitmap {
    /// The set of `members` over slots `0..n`.
    pub(crate) fn new(n: usize, members: impl IntoIterator<Item = usize>) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        for d in members {
            words[d / 64] |= 1 << (d % 64);
        }
        Self { words }
    }

    pub(crate) fn contains(&self, d: usize) -> bool {
        (self.words[d / 64] >> (d % 64)) & 1 == 1
    }
}

/// Builds [`LinkRows`] one row at a time, in row order.
#[derive(Debug, Default)]
pub(crate) struct LinkRowsWriter {
    rows: LinkRows,
    block: LinkBlock,
}

impl LinkRowsWriter {
    /// Appends the next row; `cols` must be strictly ascending.
    pub(crate) fn push_row(&mut self, cols: &[usize]) {
        self.block.push_row(cols);
        self.rows.n_rows += 1;
        self.rows.nnz += cols.len();
        if self.block.n_rows() == BLOCK_ROWS {
            self.rows
                .blocks
                .push(Arc::new(std::mem::take(&mut self.block)));
        }
    }

    pub(crate) fn finish(mut self) -> LinkRows {
        if self.block.n_rows() > 0 {
            self.rows.blocks.push(Arc::new(self.block));
        }
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(n: usize) -> LinkRows {
        let mut w = LinkRowsWriter::default();
        for r in 0..n {
            let mut cols = vec![(r + 1) % n, (r + 7) % n];
            cols.sort_unstable();
            cols.dedup();
            w.push_row(&cols);
        }
        w.finish()
    }

    #[test]
    fn cow_column_block_count_stays_bounded_under_one_page_appends() {
        let mut col = CowColumn::from_vec(vec![0u32; 5]);
        for i in 0..1_000u32 {
            col = col.append([i + 1]);
        }
        let n = col.len();
        assert_eq!(n, 1_005);
        assert_eq!(col.blocks().len(), n.div_ceil(BLOCK_ROWS));
        let mut expected = vec![0u32; 5];
        expected.extend(1..=1_000);
        assert_eq!(col, CowColumn::from_vec(expected));
    }

    #[test]
    fn patch_rebuilds_only_touched_blocks() {
        let n = 3 * BLOCK_ROWS + 10;
        let base = rows_of(n);
        let row = BLOCK_ROWS + 5;
        let patched = base.patch(n, &[(row, vec![0, 1, 2])]);
        assert_eq!(patched.row(row), &[0, 1, 2]);
        assert_eq!(patched.nnz(), base.nnz() - base.row(row).len() + 3);
        for (b, block) in patched.blocks().iter().enumerate() {
            assert_eq!(Arc::ptr_eq(block, &base.blocks()[b]), b != 1, "block {b}");
        }
        // Growing fills the partial last block, then opens new ones.
        let grown = base.patch(n + BLOCK_ROWS, &[(n + 1, vec![3])]);
        assert_eq!(grown.n_rows, n + BLOCK_ROWS);
        assert_eq!(grown.blocks().len(), (n + BLOCK_ROWS).div_ceil(BLOCK_ROWS));
        assert_eq!(grown.row(n + 1), &[3]);
        assert!(grown.row(n).is_empty());
        assert!(Arc::ptr_eq(&grown.blocks()[2], &base.blocks()[2]));
        assert_eq!(grown.iter().count(), grown.nnz());
    }

    #[test]
    fn rows_linking_finds_exactly_the_rows_with_a_flagged_column() {
        let n = 2 * BLOCK_ROWS;
        let base = rows_of(n);
        let dead = DocBitmap::new(n, [9]);
        let expected: Vec<usize> = (0..n).filter(|&r| base.row(r).contains(&9)).collect();
        assert_eq!(base.rows_linking(&dead), expected);
        assert!(!expected.is_empty());
    }

    #[test]
    fn to_csr_matches_rows() {
        let rows = rows_of(BLOCK_ROWS + 1);
        let csr = rows.to_csr();
        assert_eq!(csr.nnz(), rows.nnz());
        for r in 0..rows.n_rows {
            assert_eq!(csr.row(r).0, rows.row(r));
        }
    }
}
