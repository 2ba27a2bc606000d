"""The distance engine: exact squared Euclidean distances, a GEMM screen,
and the block search that mining and predict share.

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

eps = 2^-52 and tiny = 2^-1022. The block search keeps the rows that the
margin says could win and recomputes only those exactly, so its results
equal those of an exact full scan.

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
that ties it on E does too; this holds as well within any subset of the
rows, such as one labelset's. Keeping the rows with G <= min G + m, or
using [G - m, G + m] as an interval for E, therefore never drops a winner,
with a factor of two to spare for the rounding of the threshold; the tiny
term covers underflow.

A query row for which 4 S overflows (a standardised feature near 1e154 or
larger) has no usable screen: G overflows to inf, or to inf - inf = NaN
when a.b overflows too. Its margin is inf and its G is 0, so the screen
drops no training row and the row gets the exact full scan.

Why the block search is exact. ``_argmin_rows`` screens dx² against the
training rows (margin m) and dy², one value per labelset, against the K
labelsets (p-hat against the table, d = L, margin m_y). With g a
labelset's smallest G (largest when beta1 < 0), ``_survivors`` takes the
ends max(g - m, 0) and g + m of dx², and max(Gy - m_y, 0) and Gy + m_y of
dy²; rounded sqrt and the score are monotone, so the ends bracket every
row's score in the labelset. Within a labelset the winner on (score, dy,
dx) is, for beta1 >= 0, a row of smallest exact dx, which the screen
places within m/2 of g, so its bound is g + m; for beta1 < 0 a rounding
tie in the score can let a row of smaller dx win, so its bound is +inf.
Each weighting's bound is -inf on the labelsets it drops. A full-scan row
has G = 0 and m = inf: every labelset survives when beta1 != 0, and when
beta1 = 0 dy alone brackets the score (p-hat in [0, 1] keeps m_y finite).

Per block one bound, the elementwise max of the weightings', keeps the
rows; only those get their exact dx and dy, once, and each weighting picks
its winner among all of them. A row that only another weighting's bound
keeps loses strictly. In a labelset that survives, beta1 >= 0 (a bound of
+inf keeps every row) and the row's G exceeds g + m, so its exact dx² is
more than m/2 above the labelset's least (|G - E| <= m/4), far beyond the
sqrt's rounding; its dy is the labelset's, so it loses on the score or, at
a rounding tie, on dx. In a dropped labelset its score is at least the
labelset's lower bound, above another labelset's upper bound.

Memory: ``blocks`` sizes the blocks of query rows, and the exact kernel's
chunks of pairs, to ``BLOCK_BYTES`` per work array. The rows exist once:
the exact kernel reads them as the first d rows of ``augment``'s table.
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
    within BLOCK_BYTES; past a width of 262,144 (BLOCK_BYTES / 8) each
    slice is one row, whose array alone is larger."""
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


def augment(mat, order=None):
    """The rows of ``mat`` (taken in ``order``, if given) as ``screen``
    reads them: a C-contiguous (d + 2, N) table whose column k is
    [b_k, 1, ||b_k||^2]; ``table[:-2].T`` is a view of the rows themselves.
    Compute it once for all the blocks of queries."""
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
    return table


def screen(a, table):
    """``(G, margin)`` for the query rows ``a`` against the rows of an
    ``augment`` table: the (len(a), N) screen values and the per-row bound
    described in the module docstring (inf, with G = 0, for a row that
    needs the full scan). Call it on ``blocks`` of the queries to bound its
    memory."""
    q, d = a.shape
    query = np.empty((q, d + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        # Scaling by -2 is exact, and the tiny term covers a subnormal product.
        np.multiply(a, -2.0, out=query[:, :d])
        a_sq = np.einsum("ij,ij->i", a, a, out=query[:, d])
        query[:, d + 1] = 1.0
        total = a_sq + table[-1].max()
        margin = 10.0 * (d + 4) * (_EPS * total + _TINY)
        G = query @ table
        full = ~np.isfinite(4.0 * total)
    if full.any():
        G[full] = 0.0
        margin[full] = np.inf
    return G, margin


def _labelset_groups(labels):
    """The rows of an (N, L) label matrix grouped by labelset.

    Returns ``(table, order, starts, sizes)``: the K distinct labelsets in
    lexicographic order, as ``np.unique(labels, axis=0)`` gives them; the
    row ids sorted stably by labelset, so that labelset k's rows are
    ``order[starts[k]:starts[k] + sizes[k]]`` in increasing id order; and
    each labelset's offset into ``order`` and its row count.
    """
    labels = np.asarray(labels)
    # lexsort's last key is the most significant, so column 0 goes last.
    order = np.lexsort(labels.T[::-1])
    ranked = labels[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return ranked[starts], order, starts, np.diff(np.r_[starts, len(order)])


def _first_per_row(query, keys):
    """Index of the smallest ``keys`` tuple (most significant first) among
    the survivors of each query row; ``query`` is sorted and covers every
    row of the block."""
    order = np.lexsort(tuple(reversed(keys)) + (query,))
    q = query[order]
    return order[np.r_[True, q[1:] != q[:-1]]]


def _score(beta1, beta2, dx, dy):
    """beta1*dx + beta2*dy without the term of a zero weight, so that an
    overflowed dx = inf under beta1 = 0 adds nothing instead of NaN."""
    if beta1 == 0:
        return beta2 * dy
    if beta2 == 0:
        return beta1 * dx
    return beta1 * dx + beta2 * dy


def _survivors(beta1, beta2, dx_ends, dy_ends):
    """Which labelsets of a block can hold the winner, from the (near, far)
    ends of dx and of dy, (block, K) arrays: the ends that lower the score
    bound every row's in the labelset from below, the others its best from
    above; a labelset survives iff its lower bound is <= the least upper one."""
    dxs = dx_ends if beta1 >= 0 else dx_ends[::-1]
    dys = dy_ends if beta2 >= 0 else dy_ends[::-1]
    lo, hi = (_score(beta1, beta2, dx, dy) for dx, dy in zip(dxs, dys))
    return lo <= hi.min(axis=1, keepdims=True)


def _argmin_rows(x, p_hat, features, labels, weights, squared):
    """For each (beta1, beta2) of the tuple ``weights`` and each query row,
    the training row minimizing (beta1*dx + beta2*dy, dy, dx, row index),
    with its dx and dy: three (len(weights), n) arrays. dx goes from ``x``
    to ``features``, dy from ``p_hat`` to ``labels``; with ``squared`` both
    are the exact squared distances of ``paired_sq_dists``, else their
    square roots.

    Mining and predict share this one search: mining's two pairs are the
    weights (1, 0) and (0, 1) on squared distances, predict's are the
    fitted weights on distances. Per block of query rows it screens dx
    against the training rows, sorted stably by labelset, and dy against
    the K labelsets (d = L), brackets each labelset as a whole, keeps
    single rows by one bound per labelset for all the weightings, and
    computes the kept rows exactly once; every weighting picks its winner
    among them. The module docstring says why no winner is dropped.
    """
    table, order, starts, sizes = _labelset_groups(labels)
    # The rows in labelset order, and the labelsets, as the screen reads
    # them; the exact kernel reads the same copies.
    train = augment(features, order)
    vertices = augment(table)
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    dist = (lambda sq: sq) if squared else (lambda sq: np.sqrt(sq, out=sq))  # in place
    n = x.shape[0]
    rows = np.empty((len(weights), n), dtype=np.intp)
    dx_out, dy_out = np.empty((2, len(weights), n))

    def fill(block):
        # A function, so that each block's (block, N) arrays die before the next's.
        G, margin = screen(x[block], train)
        # dy's interval ends; the far end is Gy + m_y, formed in Gy.
        Gy, margin_y = screen(p_hat[block], vertices)
        m_y = margin_y[:, None]
        dy_ends = dist(np.maximum(Gy - m_y, 0.0)), dist(np.add(Gy, m_y, out=Gy))
        # Each labelset's smallest G (largest for beta1 < 0), once per block.
        extreme = {f: f.reduceat(G, starts, axis=1) for f in
                   {np.minimum if beta1 >= 0 else np.maximum for beta1, _ in weights}}
        m = margin[:, None]
        bound = -np.inf
        for beta1, beta2 in weights:
            g = extreme[np.minimum if beta1 >= 0 else np.maximum]
            survive = _survivors(beta1, beta2, (dist(np.maximum(g - m, 0.0)),
                                                dist(g + m)), dy_ends)
            bound = np.maximum(bound, np.where(
                survive, g + m if beta1 >= 0 else np.inf, -np.inf))
        keep = G <= np.repeat(bound, sizes, axis=1)
        q, pos = np.divmod(np.flatnonzero(keep), keep.shape[1])
        dx = dist(paired_sq_dists(x[block], train[:-2].T, q, pos))
        dy = dist(paired_sq_dists(p_hat[block], vertices[:-2].T, q,
                                  group_of[pos]))
        j = order[pos]
        for w, (beta1, beta2) in enumerate(weights):
            first = _first_per_row(q, (_score(beta1, beta2, dx, dy), dy, dx, j))
            rows[w, block], dx_out[w, block], dy_out[w, block] = (
                j[first], dx[first], dy[first])

    for block in blocks(n, features.shape[0]):
        fill(block)
    return rows, dx_out, dy_out
