//! Distributed MNC sketch construction over row-partitioned matrices.
//!
//! Section 3.1: "The small size of `h_A` also makes it amenable to
//! large-scale ML, where the sketch can be computed via distributed
//! operations and subsequently, collected and used in the driver for
//! compilation." (Full distributed support is the paper's future work #4.)
//!
//! The construction is the natural two-phase distributed plan:
//!
//! 1. **Map**: every partition computes its local row counts (a slice of
//!    the global `h^r`) and a local column-count vector; the driver
//!    concatenates the row slices and sums the column vectors.
//! 2. **Second map** (only when neither Theorem 3.1 case holds): the
//!    driver broadcasts the global `h^c`; every partition computes its
//!    slice of `h^er` (which needs global column counts) and a local
//!    `h^ec` contribution (row counts are partition-local, so no broadcast
//!    is needed for them); the driver merges again.
//!
//! Partitions are processed on scoped OS threads, standing in for cluster
//! executors. The same two phases, over row chunks of one in-memory matrix,
//! are [`MncSketch::build_parallel`](crate::MncSketch::build_parallel).

use std::ops::Range;

use mnc_kernels::WorkerPool;
use mnc_matrix::partition::RowPartitionedMatrix;
use mnc_matrix::CsrMatrix;

use crate::sketch::MncSketch;

/// One row range of the matrix being sketched: rows `rows` of `m`, which
/// are global rows `row_base + i`. A partition is `0..part.nrows()` with
/// `row_base = offset`; a chunk of a whole matrix is `lo..hi` with
/// `row_base = 0`.
pub(crate) struct RowSlice<'a> {
    pub(crate) m: &'a CsrMatrix,
    pub(crate) rows: Range<usize>,
    pub(crate) row_base: usize,
}

/// Per-slice result of phase 1.
struct Phase1 {
    /// The slice of `h^r`.
    hr: Vec<u32>,
    /// Contribution to `h^c` (full width, sparse in practice).
    hc: Vec<u32>,
    /// Whether this slice is consistent with a global diagonal matrix
    /// (each global row `g` has exactly one non-zero, at column `g`).
    diagonal_fragment: bool,
}

fn phase1(s: &RowSlice<'_>, ncols: usize) -> Phase1 {
    let mut hr = vec![0u32; s.rows.len()];
    let mut hc = vec![0u32; ncols];
    let mut diagonal_fragment = true;
    for (rc, i) in hr.iter_mut().zip(s.rows.clone()) {
        let (cols, _) = s.m.row(i);
        *rc = cols.len() as u32;
        diagonal_fragment &= cols.len() == 1 && cols[0] as usize == s.row_base + i;
        for &c in cols {
            hc[c as usize] += 1;
        }
    }
    Phase1 {
        hr,
        hc,
        diagonal_fragment,
    }
}

/// Per-slice result of phase 2 (extended count vectors).
struct Phase2 {
    /// The slice of `h^er`.
    her: Vec<u32>,
    /// Contribution to `h^ec`.
    hec: Vec<u32>,
}

fn phase2(s: &RowSlice<'_>, global_hc: &[u32]) -> Phase2 {
    let mut her = vec![0u32; s.rows.len()];
    let mut hec = vec![0u32; global_hc.len()];
    for (er, i) in her.iter_mut().zip(s.rows.clone()) {
        let (cols, _) = s.m.row(i);
        let single_row = cols.len() == 1;
        for &c in cols {
            if global_hc[c as usize] == 1 {
                *er += 1;
            }
            if single_row {
                hec[c as usize] += 1;
            }
        }
    }
    Phase2 { her, hec }
}

fn add_into(acc: &mut [u32], part: &[u32]) {
    for (a, &v) in acc.iter_mut().zip(part) {
        *a += v;
    }
}

/// The two-phase build over `slices`, which must cover global rows
/// `0..nrows` in order. Each phase runs one pool task per slice; the calling
/// thread merges the partial counts in slice order. Count merging is additive over
/// integers, so the result is **identical** to the sequential
/// [`MncSketch::build_with`].
pub(crate) fn build_two_phase(
    slices: &[RowSlice<'_>],
    (nrows, ncols): (usize, usize),
    use_extended: bool,
    pool: &WorkerPool,
) -> MncSketch {
    // Phase 1: local counts, merged here.
    let mut hr = Vec::with_capacity(nrows);
    let mut hc = vec![0u32; ncols];
    let mut diagonal = nrows == ncols && nrows > 0;
    for p in pool.run(slices.len(), |k| phase1(&slices[k], ncols)) {
        hr.extend_from_slice(&p.hr);
        add_into(&mut hc, &p.hc);
        diagonal &= p.diagonal_fragment;
    }

    let max_hr = hr.iter().copied().max().unwrap_or(0);
    let max_hc = hc.iter().copied().max().unwrap_or(0);

    // Phase 2: extended vectors, with the global h^c broadcast.
    let (her, hec) = if use_extended && max_hr > 1 && max_hc > 1 {
        let hc_ref = &hc;
        let mut her = Vec::with_capacity(nrows);
        let mut hec = vec![0u32; ncols];
        for p in pool.run(slices.len(), |k| phase2(&slices[k], hc_ref)) {
            her.extend_from_slice(&p.her);
            add_into(&mut hec, &p.hec);
        }
        (Some(her), Some(hec))
    } else {
        (None, None)
    };

    MncSketch::from_vectors(nrows, ncols, hr, hc, her, hec, diagonal)
}

/// Builds the MNC sketch of a row-partitioned matrix with one worker thread
/// per partition. The result is **identical** to
/// [`MncSketch::build`](crate::MncSketch::build) on the assembled matrix.
pub fn build_distributed(m: &RowPartitionedMatrix) -> MncSketch {
    build_distributed_with(m, true)
}

/// Distributed build with the extended vectors optional (MNC Basic).
pub fn build_distributed_with(m: &RowPartitionedMatrix, use_extended: bool) -> MncSketch {
    let slices: Vec<RowSlice<'_>> = m
        .iter()
        .map(|(offset, part)| RowSlice {
            m: part,
            rows: 0..part.nrows(),
            row_base: offset,
        })
        .collect();
    let pool = WorkerPool::new(slices.len());
    build_two_phase(&slices, (m.nrows(), m.ncols()), use_extended, &pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn distributed_build_matches_local_build() {
        let mut r = rng(1);
        for (rows, cols, s) in [(50usize, 40usize, 0.1f64), (33, 7, 0.4), (8, 64, 0.02)] {
            let m = gen::rand_uniform(&mut r, rows, cols, s);
            let local = MncSketch::build(&m);
            for nparts in [1, 2, 3, 7] {
                let pm = RowPartitionedMatrix::from_matrix(&m, nparts);
                let dist = build_distributed(&pm);
                assert_eq!(dist, local, "{rows}x{cols} s={s} nparts={nparts}");
            }
        }
    }

    #[test]
    fn distributed_diagonal_flag() {
        let d = gen::scalar_diag(24, 2.0);
        let pm = RowPartitionedMatrix::from_matrix(&d, 4);
        let sketch = build_distributed(&pm);
        assert!(sketch.meta.fully_diagonal);

        // A permutation is not diagonal even though each row has one nnz.
        let mut r = rng(2);
        let p = gen::permutation(&mut r, 24);
        let pm = RowPartitionedMatrix::from_matrix(&p, 4);
        // (The permutation could coincidentally be the identity; regenerate
        // until it is not.)
        if !p.is_fully_diagonal() {
            assert!(!build_distributed(&pm).meta.fully_diagonal);
        }
    }

    #[test]
    fn distributed_basic_matches_local_basic() {
        let mut r = rng(3);
        let m = gen::rand_uniform(&mut r, 30, 30, 0.2);
        let pm = RowPartitionedMatrix::from_matrix(&m, 3);
        let dist = build_distributed_with(&pm, false);
        let local = MncSketch::build_with(&m, false);
        assert_eq!(dist, local);
        assert!(dist.her.is_none());
    }

    #[test]
    fn distributed_build_of_empty_matrix() {
        let m = mnc_matrix::CsrMatrix::zeros(0, 5);
        let pm = RowPartitionedMatrix::from_matrix(&m, 3);
        let sketch = build_distributed(&pm);
        assert_eq!(sketch.meta.nnz, 0);
        assert_eq!(sketch.ncols, 5);
    }
}
