"""Brute-force NLDD predict oracle computed from a saved model file.

It reads only the model JSON, never nldd's code: standardise the query,
score each label with its logistic (or constant) model, then scan every
training row and keep the lowest key (score, dy, dx, row index), the
documented predict tie rule. theta-hat is the sigmoid of beta0 + score,
clamped to [1e-12, 1 - 1e-12].
"""

import math

import numpy as np

PROB_CLAMP = 1e-12
# Two rows whose scores differ by less than this share are a tie within
# floating-point rounding; either labelset is accepted.
SCORE_RTOL = 1e-9


class PredictOracle:
    def __init__(self, doc):
        br = doc["br"]
        self.means = np.array(br["stats"]["means"], dtype=np.float64)
        self.sds = np.array(br["stats"]["sds"], dtype=np.float64)
        self.classifiers = br["classifiers"]
        fit = doc["fit"]
        self.beta0, self.beta1, self.beta2 = fit["beta0"], fit["beta1"], fit["beta2"]
        self.train_std = np.array(doc["train_features_std"], dtype=np.float64)
        self.train_labels = np.array(doc["train_labelsets"], dtype=np.int64)

    def probabilities(self, features):
        """Standardised rows and their (n, L) per-label probabilities."""
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        sds = np.where(self.sds > 0, self.sds, 1.0)
        z = np.where(self.sds > 0, (x - self.means) / sds, 0.0)
        cols = []
        for clf in self.classifiers:
            if clf["type"] == "constant":
                cols.append(np.full(z.shape[0], clf["p"]))
            else:
                w = np.array(clf["weights"])
                cols.append(1.0 / (1.0 + np.exp(-(w[0] + z @ w[1:]))))
        return z, np.clip(np.column_stack(cols), PROB_CLAMP, 1.0 - PROB_CLAMP)

    def br_predict(self, features):
        """(n, L) Binary Relevance labelsets: each probability >= 0.5 maps to 1."""
        return (self.probabilities(features)[1] >= 0.5).astype(np.int64)

    def scores(self, x):
        """(score, dy, dx) of every training row for the raw feature row x."""
        z, p = self.probabilities(x)
        dx = np.sqrt(np.sum((self.train_std - z[0]) ** 2, axis=1))
        dy = np.sqrt(np.sum((self.train_labels - p[0]) ** 2, axis=1))
        return self.beta1 * dx + self.beta2 * dy, dy, dx

    def predict(self, x):
        """(labelset tuple, theta-hat, score, per-row scores) for one row."""
        score, dy, dx = self.scores(x)
        j = min(range(score.shape[0]), key=lambda i: (score[i], dy[i], dx[i], i))
        z = self.beta0 + score[j]
        t = 1.0 / (1.0 + math.exp(-z)) if z > -700 else 0.0
        theta = min(max(t, PROB_CLAMP), 1.0 - PROB_CLAMP)
        return tuple(int(v) for v in self.train_labels[j]), theta, score

    def agrees(self, x, labelset, theta):
        """Empty string when (labelset, theta) is the oracle's answer for x,
        else a description of the mismatch."""
        want, want_theta, score = self.predict(x)
        if tuple(labelset) == want:
            if abs(theta - want_theta) <= SCORE_RTOL * max(want_theta, 1e-300):
                return ""
            return f"theta {theta!r} != oracle {want_theta!r}"
        best = score.min()
        near = np.abs(score - best) <= SCORE_RTOL * max(1.0, abs(best))
        rows = np.flatnonzero(near)
        if any(tuple(self.train_labels[r]) == tuple(labelset) for r in rows):
            return ""
        return f"labelset {labelset} != oracle {want}"
