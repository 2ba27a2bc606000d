"""The distance engine: exact kernels against an index-order loop, and the
GEMM screen's margin against the exact kernel's values."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nldd import kernels
from test_model import sq_dist_oracle, sq_dists

PROPERTY = settings(max_examples=60, deadline=None)


def test_python_backend_matches_direct_computation():
    # d >= 8 is where einsum, NumPy's pairwise sum and a sequential sum all
    # round differently; n = 1 is where NumPy's reduction would go pairwise.
    rng = np.random.default_rng(0)
    for n, d in [(7, 1), (7, 5), (1, 8), (33, 8), (300, 50), (1, 50)]:
        x = rng.standard_normal(d)
        mat = rng.standard_normal((n, d))
        want = np.array([sq_dist_oracle(row, x) for row in mat])
        for order in ("C", "F"):
            got = sq_dists(x, np.array(mat, order=order))
            assert np.array_equal(got, want), (n, d, order)


@st.composite
def row_sets(draw, max_rows=12):
    """Two row sets of one width, with offsets that make G cancel badly,
    duplicated rows and rows one ulp apart."""
    d = draw(st.integers(1, 12))
    offset = draw(st.sampled_from([0.0, 1e4, -1e4]))
    values = st.one_of(st.floats(-3.0, 3.0, allow_nan=False),
                       st.sampled_from([-1.0, 0.0, 0.5]))
    a = draw(arrays(np.float64, (draw(st.integers(1, max_rows)), d),
                    elements=values)) + offset
    b = draw(arrays(np.float64, (draw(st.integers(1, max_rows)), d),
                    elements=values)) + offset
    for i in range(a.shape[0]):
        kind = draw(st.sampled_from(["own", "copy", "ulp"]))
        j = draw(st.integers(0, b.shape[0] - 1))
        if kind == "copy":
            a[i] = b[j]
        elif kind == "ulp":
            a[i] = np.nextafter(b[j], np.inf)
    return a, b


@PROPERTY
@given(sets=row_sets(), chunk=st.sampled_from([1, 2, 7, None]), data=st.data())
def test_paired_and_cross_match_oracle(sets, chunk, data):
    a, b = sets
    d = a.shape[1]
    size = kernels.BLOCK_BYTES if chunk is None else 8 * d * chunk
    rows = np.array(data.draw(st.lists(st.integers(0, a.shape[0] - 1),
                                       min_size=1, max_size=20)))
    cols = np.array(data.draw(st.lists(st.integers(0, b.shape[0] - 1),
                                       min_size=len(rows), max_size=len(rows))))
    with mock.patch.object(kernels, "BLOCK_BYTES", size):
        paired = kernels.paired_sq_dists(a, np.asfortranarray(b), rows, cols)
        cross = kernels.cross_sq_dists(a, b)
    want = [sq_dist_oracle(b[j], a[i]) for i, j in zip(rows, cols)]
    assert paired.tolist() == want
    assert cross.tolist() == [[sq_dist_oracle(row, x) for row in b] for x in a]


@PROPERTY
@given(sets=row_sets(), scale=st.sampled_from([1e-150, 1.0, 1e100]),
       rows_per_block=st.sampled_from([1, 2, 7, None]))
def test_screen_error_within_a_quarter_margin(sets, scale, rows_per_block):
    # The module docstring's bound: |G - E| <= m/4 for every pair, E being
    # the exact kernel's value.
    a, b = sets[0] * scale, sets[1] * scale
    n = b.shape[0]
    size = kernels.BLOCK_BYTES if rows_per_block is None else 8 * n * rows_per_block
    with mock.patch.object(kernels, "BLOCK_BYTES", size):
        blocks = kernels.blocks(a.shape[0], n)
    assert np.concatenate([np.arange(a.shape[0])[blk] for blk in blocks]
                          ).tolist() == list(range(a.shape[0]))
    if rows_per_block is not None:
        assert {blk.stop - blk.start for blk in blocks[:-1]} <= {rows_per_block}
    for blk in blocks:
        G, margin = kernels.screen(a[blk], b)
        assert np.isfinite(margin).all()
        exact = kernels.cross_sq_dists(a[blk], b)
        assert (np.abs(G - exact) <= margin[:, None] / 4).all()


def test_screen_gives_overflowing_rows_the_full_scan():
    # 1e155 overflows ||a||^2 (G = inf); 1.7e308 overflows a.b too (G = NaN).
    b = np.random.default_rng(3).standard_normal((5, 4)) + 3.0
    a = np.zeros((4, 4))
    a[1, 2], a[2, 0], a[3, 1] = 1e155, 1e200, 1.7e308
    G, margin = kernels.screen(a, b)
    assert np.isfinite(margin[0]) and np.isfinite(G[0]).all()
    assert np.isinf(margin[1:]).all()
    assert (G[1:] == 0.0).all()
