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

as one matrix product, as FAISS does (Johnson, Douze & Jegou, arXiv
1702.08734): the query rows, augmented as [-2a, ||a||^2, 1], times the
rows, which ``augment`` stores once as [b, 1, ||b||^2]. With G comes a
per-query margin

    m = 10 (d + 4) (eps (||a||^2 + max_b ||b||^2) + tiny),

eps = 2^-52 and tiny = 2^-1022. Callers keep the rows that the margin says
could win and recompute only those exactly, so their results equal those of
an exact full scan.

Why m is safe. Write S = ||a||^2 + max_b ||b||^2, s = ||a||^2 + ||b||^2 <= S,
u = eps/2 for the unit roundoff and g_n = n u / (1 - n u). Forward error
bounds (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 3),
which hold for any summation order, with or without fused multiply-adds,
and so for any BLAS:

- the stored norms are within g_d of ||a||^2 and ||b||^2 (relative), so
  their sum is within g_d s of s;
- scaling by -2 and multiplying by 1 are exact, so G is the product of
  two (d + 2)-vectors whose exact value is the sum of the stored norms
  minus 2 a.b, and G is within g_(d+2) of the sum of the absolute terms,
  2 |a|.|b| + the stored norms <= (2 + g_d) s;
- the exact kernel rounds each difference and its square and then adds d
  terms in order, so it is within g_(d+2) D of D = ||a - b||^2 <= 2 s.

So |G - E| <= (g_d + 4 g_(d+2) + g_d g_(d+2)) s, E being the exact
kernel's value: (5d + 8) u S to first order, and below (5d + 9) u S for any
d up to 10^6. The margin's m/4 is (5d + 20) u S, less its own rounding
(well under u S), so |G - E| <= m/4 for every row. A row j that wins on E
has G_j <= E_j + m/4 <= E_k + m/4 <= G_k + m/2 for every k, and every row
that ties it on E does too. Keeping the rows with G <= min G + m, or using
[G - m, G + m] as an interval for E, therefore never drops a winner, with a
factor of two to spare for the rounding of the threshold; the tiny term
covers underflow.

Groups of rows. Mining and predict share one engine,
``model._argmin_rows``: per query row it finds the training row that
minimizes beta1*dx + beta2*dy. Mining's two pairs are the weights (1, 0)
and (0, 1) on squared distances, predict is the fitted weights on
distances. It screens dx against the training rows and dy against the K
labelsets (d = L), brackets each labelset as a whole, keeps single rows by
one bound per labelset for all the weights, and computes the kept rows
exactly once; every weighting picks its winner among them.

A query row for which 4 S overflows (a standardised feature near 1e154 or
larger) has no usable screen: G overflows to inf, or to inf - inf = NaN
when a.b overflows too. Its margin is inf and its G is 0, so the screen
drops no training row and the row gets the exact full scan.

Memory: blocks of query rows are sized so that a (block, N) float64
temporary is at most ``BLOCK_BYTES``; the exact kernel chunks its
(d, pairs) work arrays to the same size. The rows exist once: the exact
kernel reads them as the first d entries of ``augment``'s copy.
"""

from typing import NamedTuple

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


class Augmented(NamedTuple):
    """Rows b as ``screen`` reads them: ``table``, a C-contiguous (d + 2, N)
    array whose column k is [b_k, 1, ||b_k||^2], and ``sq_max``, the largest
    ||b_k||^2."""
    table: np.ndarray
    sq_max: float

    @property
    def rows(self):
        """The (N, d) rows b themselves, a view of ``table``."""
        return self.table[:-2].T


def augment(mat, order=None):
    """The rows of ``mat`` (taken in ``order``, if given) as an
    ``Augmented``. Compute it once for all the blocks of queries."""
    n, d = mat.shape
    table = np.empty((d + 2, n))
    if order is None:
        table[:d] = mat.T
    else:
        # Gathered one feature at a time, straight into place, so that no
        # second (N, d) copy exists even for a moment; ``order`` is a valid
        # index, so "clip" changes nothing but spares take its buffered
        # output.
        for j in range(d):
            np.take(mat[:, j], order, out=table[j], mode="clip")
    table[d] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.einsum("ij,ij->j", table[:d], table[:d], out=table[d + 1])
    return Augmented(table, table[d + 1].max())


def screen(a, augmented):
    """``(G, margin)`` for the query rows ``a`` against the ``Augmented``
    rows: the (len(a), N) screen values and the per-row bound described in
    the module docstring (inf, with G = 0, for a row that needs the full
    scan). Call it on ``blocks`` of the queries to bound its memory."""
    q, d = a.shape
    query = np.empty((q, d + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        # Scaling by -2 is exact, and the tiny term covers a subnormal product.
        np.multiply(a, -2.0, out=query[:, :d])
        a_sq = np.einsum("ij,ij->i", a, a, out=query[:, d])
        query[:, d + 1] = 1.0
        total = a_sq + augmented.sq_max
        margin = 10.0 * (d + 4) * (_EPS * total + _TINY)
        G = query @ augmented.table
        full = ~np.isfinite(4.0 * total)
    if full.any():
        G[full] = 0.0
        margin[full] = np.inf
    return G, margin
