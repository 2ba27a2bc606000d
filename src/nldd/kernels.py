"""The distance engine: exact squared Euclidean distances and a GEMM screen.

Exact distances. Every squared distance that decides a result is computed
one way: for each pair of rows, the squares of the differences are added in
feature order, j = 0 to d-1, into one accumulator, with no fused
multiply-add. ``paired_sq_dists`` computes listed pairs of rows and
``cross_sq_dists`` every pair of two row sets; both give the same bits for
the same pair of rows, whatever the layout, batch or block.

The screen. Scanning every training row exactly for every query is slow, so
``screen`` first computes, for a block of query rows a against all rows b,

    G = ||a||^2 + ||b||^2 - 2 a.b

with one matrix product, as FAISS does (Johnson, Douze & Jegou, arXiv
1702.08734), together with a per-query margin

    m = 8 (d + 4) (eps (||a||^2 + max_b ||b||^2) + tiny),

eps = 2^-52 and tiny = 2^-1022. Callers keep the rows that the margin says
could win and recompute only those exactly, so their results equal those of
an exact full scan.

Why m is safe. Write S = ||a||^2 + max_b ||b||^2 and u = eps/2 for the unit
roundoff. The exact value D = ||a - b||^2 is at most 2S. Forward error
bounds (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3),
which hold for any summation order and so for any BLAS:

- the norms and the dot product are each within d u S of their true
  values (|a.b| <= S/2), and the two final additions add at most 3 u S each,
  so |G - D| <= (2d + 6) u S;
- the exact kernel rounds each difference and its square and then adds d
  terms in order, so it is within (d + 2) u D <= (2d + 4) u S of D.

So |G - E| <= (4d + 10) u S <= m/4 for every row, E being the exact
kernel's value. A row j that wins on E has G_j <= E_j + m/4 <= E_k + m/4
<= G_k + m/2 for every k, and every row that ties it on E does too. Keeping
the rows with G <= min G + m, or using [G - m, G + m] as an interval for E,
therefore never drops a winner, with a factor of two to spare for the
rounding of m and of the threshold; the tiny term covers underflow.

A query row for which 4 S overflows (a standardised feature near 1e154 or
larger) has no usable screen: G overflows to inf, or to inf - inf = NaN
when a.b overflows too. Its margin is inf and its G is 0, so every
training row survives and the row gets the exact full scan.

Memory: blocks of query rows are sized so that a (block, N) float64
temporary is at most ``BLOCK_BYTES``; the exact kernels chunk their
(d, pairs) work arrays to the same size.
"""

import numpy as np

BLOCK_BYTES = 2 * 1024 * 1024

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def add_rows(terms):
    """Column sums of a C-contiguous (d, P) array, adding its rows in order,
    j = 0 to d-1, into one accumulator per column. The distance kernels and
    the BR linear score both add their feature terms this way."""
    if terms.shape[1] == 1:
        # NumPy drops a length-1 axis and would then sum pairwise over d;
        # accumulate is sequential by definition.
        return np.add.accumulate(terms, axis=0)[-1]
    # Reducing a C-contiguous (d, P) array over axis 0 adds the rows one
    # after another; NumPy's pairwise summation only runs along the inner
    # axis.
    return np.add.reduce(terms, axis=0)


def _chunk(d, width):
    """Number of columns of a (d, columns) float64 array within BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * d * width))


def paired_sq_dists(a, b, rows, cols):
    """Squared distance between ``a[rows[k]]`` and ``b[cols[k]]`` for each k."""
    out = np.empty(len(rows))
    step = _chunk(a.shape[1], 1)
    for s in range(0, len(rows), step):
        diff = np.subtract(b.T[:, cols[s:s + step]], a.T[:, rows[s:s + step]],
                           order="C")
        diff *= diff
        out[s:s + step] = add_rows(diff)
    return out


def cross_sq_dists(a, b):
    """(len(a), len(b)) squared distances between every row of ``a`` and of ``b``."""
    n, d = a.shape
    m = b.shape[0]
    out = np.empty((n, m))
    step = _chunk(d, m)
    for s in range(0, n, step):
        diff = np.subtract(b.T[:, None, :], a[s:s + step].T[:, :, None],
                           order="C").reshape(d, -1)
        diff *= diff
        out[s:s + step] = add_rows(diff).reshape(-1, m)
    return out


def blocks(n_queries, n_rows):
    """Slices of query rows small enough that a (block, n_rows) float64
    array is at most BLOCK_BYTES."""
    step = _chunk(1, n_rows)
    return [slice(s, min(s + step, n_queries)) for s in range(0, n_queries, step)]


def screen(a, mat):
    """``(G, margin)`` for the query rows ``a`` against the rows of ``mat``:
    the (len(a), N) screen values and the per-row bound described in the
    module docstring (inf, with G = 0, for a row that needs the full scan).
    Call it on ``blocks`` of the queries to bound its memory."""
    d = a.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mat_sq = np.einsum("ij,ij->i", mat, mat)
        a_sq = np.einsum("ij,ij->i", a, a)
        total = a_sq + mat_sq.max()
        margin = 8.0 * (d + 4) * (_EPS * total + _TINY)
        G = a @ mat.T
        G *= -2.0
        G += a_sq[:, None]
        G += mat_sq
        full = ~np.isfinite(4.0 * total)
    if full.any():
        G[full] = 0.0
        margin[full] = np.inf
    return G, margin
