"""Clustering and classification quality measures.

Normalized mutual information and the adjusted rand score are computed from
a shared contingency table.  The rand score is implemented twice on purpose:
once from the four pair counts (a, b, c, d) and once from the
Hubert-Arabie contingency-table formula, so each route can validate the
other.  Pair counts are derived from the table in O(clusters^2) via sums of
"count choose 2" terms, never by enumerating point pairs, and all pair
arithmetic uses Python integers because the products overflow int64 on
scene-sized inputs.  OA/AA/kappa score the square class-by-class table that
a majority-vote mapping of clusters to ground-truth classes yields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ParameterError, ShapeError


@dataclass(frozen=True)
class ContingencyTable:
    """Cluster-vs-cluster co-occurrence counts for two labelings."""

    counts: np.ndarray        # (|A|, |B|) non-negative integers
    row_labels: np.ndarray    # distinct labels of A, ascending
    col_labels: np.ndarray    # distinct labels of B, ascending

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def row_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class PairCounts:
    """Pair classifications between two labelings of n points.

    a: same group in both; b: same in A, different in B; c: same in B,
    different in A; d: different in both.  a+b+c+d = n(n-1)/2.
    """

    a: int
    b: int
    c: int
    d: int
    n: int


def contingency(labels_a, labels_b, mask=None) -> ContingencyTable:
    """Co-occurrence table of two integer labelings of one shape, paired by position.

    ``mask``, when given, has that shape too and selects the points to keep
    (True = keep); the callers use it to exclude background pixels.
    """
    a, b = np.asarray(labels_a), np.asarray(labels_b)
    if a.shape != b.shape:
        raise ParameterError(f"labelings disagree in shape: {a.shape} vs {b.shape}")
    if not (np.issubdtype(a.dtype, np.integer) and np.issubdtype(b.dtype, np.integer)):
        raise ParameterError(f"labels must be integers, got {a.dtype} and {b.dtype}")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != a.shape:
            raise ShapeError(f"mask shape {m.shape} does not match the labelings' {a.shape}")
        a, b = a[m], b[m]
    a, b = a.ravel(), b.ravel()
    if a.size == 0:
        raise DegenerateDataError("no points left after masking")
    row_labels, ai = np.unique(a, return_inverse=True)
    col_labels, bi = np.unique(b, return_inverse=True)
    counts = np.zeros((row_labels.size, col_labels.size), dtype=np.int64)
    np.add.at(counts, (ai, bi), 1)
    return ContingencyTable(counts=counts, row_labels=row_labels, col_labels=col_labels)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(table: ContingencyTable) -> float:
    """Normalized mutual information, MI / ((H(A)+H(B))/2), natural logs.

    Degenerate conventions: both entropies zero -> 1.0 (two constant
    labelings agree perfectly); exactly one zero -> 0.0 (a constant labeling
    carries no information about a varying one).
    """
    n = table.n
    h_a = _entropy(table.row_marginals, n)
    h_b = _entropy(table.col_marginals, n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    h_ab = _entropy(table.counts.ravel(), n)
    mi = h_a + h_b - h_ab
    return max(mi, 0.0) / ((h_a + h_b) / 2.0)


def _choose2(x: int) -> int:
    return x * (x - 1) // 2


def pair_counts(table: ContingencyTable) -> PairCounts:
    """Pair classifications derived from the contingency table."""
    n = table.n
    a = sum(_choose2(int(v)) for v in table.counts.ravel())
    same_a = sum(_choose2(int(v)) for v in table.row_marginals)
    same_b = sum(_choose2(int(v)) for v in table.col_marginals)
    total = _choose2(n)
    b = same_a - a
    c = same_b - a
    d = total - a - b - c
    return PairCounts(a=a, b=b, c=c, d=d, n=n)


def ars(pairs: PairCounts) -> float:
    """Adjusted rand score from pair counts.

    Evaluates [C(n,2)(a+d) - ((a+b)(a+c)+(c+d)(b+d))] over
    [C(n,2)^2 - ((a+b)(a+c)+(c+d)(b+d))].  Values can be negative for
    worse-than-chance agreement.  A zero denominator only arises when both
    labelings are trivial, which counts as perfect agreement.
    """
    if pairs.n < 2:
        raise DegenerateDataError("adjusted rand score needs at least two points")
    a, b, c, d = pairs.a, pairs.b, pairs.c, pairs.d
    total = _choose2(pairs.n)
    cross = (a + b) * (a + c) + (c + d) * (b + d)
    denom = total * total - cross
    if denom == 0:
        return 1.0
    return (total * (a + d) - cross) / denom


def adjusted_rand_from_table(table: ContingencyTable) -> float:
    """Independent adjusted-rand route: the Hubert-Arabie index.

    (sum_ij C(n_ij,2) - E) / (max - E) with E the chance expectation from
    the marginals.  Kept separate from :func:`ars` so the two derivations
    can be checked against each other.
    """
    if table.n < 2:
        raise DegenerateDataError("adjusted rand score needs at least two points")
    sum_ij = sum(_choose2(int(v)) for v in table.counts.ravel())
    sum_a = sum(_choose2(int(v)) for v in table.row_marginals)
    sum_b = sum(_choose2(int(v)) for v in table.col_marginals)
    total = _choose2(table.n)
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_ij - expected) / (maximum - expected)


def _supervised_scores(square: np.ndarray) -> tuple[float, float, float]:
    """Overall accuracy, average accuracy, and Cohen's kappa.

    ``square`` counts predictions (rows) against the ground-truth classes
    (columns, none empty) over the truth's vocabulary, so the diagonal is
    agreement.  OA is the diagonal mass, AA the mean per-class recall, and
    kappa = 1 - (1 - p_o)/(1 - p_e) with p_e the chance agreement implied by
    the marginals.
    """
    n = int(square.sum())
    p_o = float(np.trace(square)) / n
    col = square.sum(axis=0)
    aa = float((np.diag(square) / col).mean())
    p_e = float((square.sum(axis=1) / n) @ (col / n))
    if p_e == 1.0:
        kappa = 1.0 if p_o == 1.0 else 0.0
    else:
        kappa = 1.0 - (1.0 - p_o) / (1.0 - p_e)
    return p_o, aa, kappa


def evaluate_labelings(pred, truth) -> dict:
    """Full metrics report for a predicted labeling against ground truth.

    Background pixels (truth label 0) are excluded from every score.
    OA/AA/kappa are computed after a majority-vote cluster-to-class mapping
    and labeled as such: each cluster's row of the contingency table joins
    the row of the class it overlaps most (ties toward the smaller class id).
    """
    truth = np.asarray(truth)
    table = contingency(pred, truth, truth > 0)
    mapped = np.zeros((table.col_labels.size,) * 2, dtype=np.int64)
    np.add.at(mapped, table.counts.argmax(axis=1), table.counts)
    oa, aa, kappa = _supervised_scores(mapped)
    return {
        "nmi": nmi(table),
        "ars": ars(pair_counts(table)),
        "oa": oa,
        "aa": aa,
        "kappa": kappa,
        "supervised_mapping": "majority_vote",
        "n": table.n,
        "clusters_pred": int(table.row_labels.size),
        "clusters_true": int(table.col_labels.size),
        "masked_background": True,
    }
