"""The distance engine: exact kernels against an index-order loop, the
GEMM screen's margin against the exact kernel's values, and the engine's
results under other BLAS thread counts and kernels."""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import nldd
from nldd import kernels
from test_model import sq_dist_oracle, sq_dists

PROPERTY = settings(max_examples=60, deadline=None)


def test_sq_dists_helper_equals_sq_dist_oracle():
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
    every_a, every_b = np.divmod(np.arange(a.shape[0] * b.shape[0]), b.shape[0])
    with mock.patch.object(kernels, "BLOCK_BYTES", size):
        paired = kernels.paired_sq_dists(a, np.asfortranarray(b), rows, cols)
        cross = kernels.paired_sq_dists(a, b, every_a, every_b)
    want = [sq_dist_oracle(b[j], a[i]) for i, j in zip(rows, cols)]
    assert paired.tolist() == want
    assert cross.reshape(a.shape[0], -1).tolist() == [
        [sq_dist_oracle(row, x) for row in b] for x in a]


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
        G, margin = kernels.screen(a[blk], kernels.augment(b))
        assert np.isfinite(margin).all()
        assert_within_a_quarter_margin(G, margin, a[blk], b)


def assert_within_a_quarter_margin(G, margin, a, b):
    exact = np.array([[sq_dist_oracle(row, x) for row in b] for x in a])
    assert (np.abs(G - exact) <= margin[:, None] / 4).all()


@PROPERTY
@given(n_labels=st.sampled_from([1, 2, 10]), data=st.data())
def test_dy_screen_error_within_a_quarter_margin(n_labels, data):
    # The screen as the engine runs it on dy: p-hat rows, at and next to
    # the ends of [0, 1] or anywhere in it, against 0/1 labelset rows.
    edges = st.sampled_from([1e-12, 1.0 - 1e-12, 0.0, 0.5, 1.0])
    p_hat = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), n_labels),
                             elements=st.one_of(edges, st.floats(0.0, 1.0))))
    table = data.draw(arrays(np.float64, (data.draw(st.integers(1, 8)), n_labels),
                             elements=st.sampled_from([0.0, 1.0])))
    G, margin = kernels.screen(p_hat, kernels.augment(table))
    assert np.isfinite(margin).all()
    assert_within_a_quarter_margin(G, margin, p_hat, table)


def test_screen_gives_overflowing_rows_the_full_scan():
    # 1e155 overflows ||a||^2 (G = inf); 1.7e308 overflows a.b too (G = NaN).
    b = np.random.default_rng(3).standard_normal((5, 4)) + 3.0
    a = np.zeros((4, 4))
    a[1, 2], a[2, 0], a[3, 1] = 1e155, 1e200, 1.7e308
    G, margin = kernels.screen(a, kernels.augment(b))
    assert np.isfinite(margin[0]) and np.isfinite(G[0]).all()
    assert np.isinf(margin[1:]).all()
    assert (G[1:] == 0.0).all()


# Mines pairs and runs the engine on fixed standardised inputs (T1 = T2 =
# 4000, d = 50, L = 10: large enough for OpenBLAS to split its products
# across threads), and prints a digest of the results.
_ENGINE_DIGEST = """
import hashlib
import numpy as np
from nldd.data import Dataset, standardize_apply, standardize_fit
from nldd.kernels import _argmin_rows
from nldd.model import mine_pairs
rng = np.random.default_rng(11)
raw = rng.standard_normal((8000, 50)) * rng.uniform(0.5, 3.0, 50)
labels = (rng.random((8000, 10)) < 0.3).astype(np.int64)
x = standardize_apply(standardize_fit(Dataset(raw, labels)), raw)
p_hat = rng.random((4000, 10))
digest = hashlib.sha256()
results = mine_pairs(p_hat, labels[4000:], x[:4000], labels[:4000], x[4000:])
results += _argmin_rows(x[4000:4400], p_hat[:400], x[:4000], labels[:4000],
                        ((-0.3, 1.9), (0.7, 0.4), (0.5, -0.8)), squared=False)
for a in results:
    digest.update(np.ascontiguousarray(a).tobytes())
print(digest.hexdigest())
"""


def test_engine_does_not_depend_on_the_blas():
    # The screen's GEMM rounds differently on one thread, on two and on
    # OpenBLAS's SSE3 kernel (no fused multiply-add); the margin holds for
    # any of them, so the mined pairs and the winners, with a beta1 < 0
    # and a beta2 < 0 among the weightings, must not change. One child per
    # setting.
    src = os.path.dirname(os.path.dirname(nldd.__file__))
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}
    digests = []
    for setting in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"},
                    {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run([sys.executable, "-c", _ENGINE_DIGEST],
                              capture_output=True, text=True,
                              env=dict(env, PYTHONPATH=src, **setting))
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1] == digests[2]
