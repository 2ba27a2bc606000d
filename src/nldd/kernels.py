"""The distance engine: exact squared Euclidean distances and a GEMM screen.

Exact distances. Every squared distance that decides a result is computed
one way: for each pair of rows, the squares of the differences are added in
feature order, j = 0 to d-1, into one accumulator, with no fused
multiply-add. ``paired_sq_dists`` computes listed pairs of rows; it gives
the same bits for the same pair of rows, whatever the layout, batch or
block.

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

Groups of rows. Mining and predict share one engine,
``model._argmin_rows``: per query row it finds the training row that
minimizes beta1*dx + beta2*dy. Mining's two pairs are the weights (1, 0)
and (0, 1) on squared distances, predict is the fitted weights on
distances. It screens dx against the training rows and dy against the K
labelsets (d = L), brackets each labelset as a whole, compares single rows
with their group's bound, and computes only the kept rows exactly.

A query row for which 4 S overflows (a standardised feature near 1e154 or
larger) has no usable screen: G overflows to inf, or to inf - inf = NaN
when a.b overflows too. Its margin is inf and its G is 0, so the screen
drops no training row and the row gets the exact full scan.

Memory: blocks of query rows are sized so that a (block, N) float64
temporary is at most ``BLOCK_BYTES``; the exact kernel chunks its
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


def blocks(n, width):
    """The slices of range(n) that keep a (block, width) float64 array
    within BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (8 * width))
    return [slice(s, min(s + step, n)) for s in range(0, n, step)]


def paired_sq_dists(a, b, rows, cols):
    """Squared distance between ``a[rows[k]]`` and ``b[cols[k]]`` for each k."""
    out = np.empty(len(rows))
    for blk in blocks(len(rows), a.shape[1]):
        # A row that overflows gets inf, the distance of the full scan.
        with np.errstate(over="ignore"):
            diff = np.subtract(b.T[:, cols[blk]], a.T[:, rows[blk]], order="C")
            diff *= diff
        out[blk] = add_rows(diff)
    return out


def row_norms(mat):
    """``(||b||^2 for each row b of mat, their maximum)``, as ``screen``
    takes them."""
    with np.errstate(over="ignore", invalid="ignore"):
        mat_sq = np.einsum("ij,ij->i", mat, mat)
    return mat_sq, mat_sq.max()


def screen(a, mat, norms):
    """``(G, margin)`` for the query rows ``a`` against the rows of ``mat``:
    the (len(a), N) screen values and the per-row bound described in the
    module docstring (inf, with G = 0, for a row that needs the full scan).
    Call it on ``blocks`` of the queries to bound its memory, passing
    ``norms = row_norms(mat)`` computed once for all of them."""
    d = a.shape[1]
    mat_sq, mat_sq_max = norms
    with np.errstate(over="ignore", invalid="ignore"):
        a_sq = np.einsum("ij,ij->i", a, a)
        total = a_sq + mat_sq_max
        margin = 8.0 * (d + 4) * (_EPS * total + _TINY)
        # Scaling by -2 is exact, and the tiny term covers a subnormal product.
        G = (-2.0 * a) @ mat.T
        G += a_sq[:, None]
        G += mat_sq
        full = ~np.isfinite(4.0 * total)
    if full.any():
        G[full] = 0.0
        margin[full] = np.inf
    return G, margin
