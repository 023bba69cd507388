"""Executable evidence for the protocol's privacy claim.

``privacy_experiment`` runs many sessions for two equal-price choice sets
on a tiny group and compares what the seller saw: it refuses choice sets
whose billed totals differ, and the pooled query-element histograms must
be statistically indistinguishable (a chi-square test, computed with the
standard library). Tiny subgroups make the uniformity claim exhaustively
testable rather than asymptotic. Every draw comes from ``symcrypto._RNG``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base_ot import ot_query
from .catalog import FlatIndexMap
from .errors import HarnessError
from .group import GroupParams

MAX_EXPERIMENT_SUBGROUP = 101
P_THRESHOLD = 0.01  # chi-square p-value at or below which the views differ


@dataclass(frozen=True)
class PrivacyReport:
    verdict: str  # PASS | FAIL
    billed: int  # the total both choice sets pay
    chi2_p: float
    tv_distance: float
    sessions: int
    subgroup_order: int

    def to_text(self) -> str:
        return (
            f"sessions={self.sessions} per choice set, subgroup order {self.subgroup_order}\n"
            f"billed total: {self.billed} for each choice set\n"
            f"query histogram chi-square p={self.chi2_p:.4f}"
            f" (threshold {P_THRESHOLD}), TV distance {self.tv_distance:.4f}\n"
            f"verdict: {self.verdict}\n"
        )


def privacy_experiment(weights, choice_a, choice_b, sessions: int,
                       params: GroupParams) -> PrivacyReport:
    """Compare the seller's view across two equal-price choice sets of item indices."""
    if params.q > MAX_EXPERIMENT_SUBGROUP:
        raise HarnessError(f"subgroup order {params.q} too large for histogram statistics")
    if sessions < 1:
        raise HarnessError(f"need at least one session, got {sessions}")
    flat_map = FlatIndexMap(weights)
    picks = []
    for choice in (choice_a, choice_b):
        if not choice:
            raise HarnessError("empty choice set")
        for i in choice:
            if not 0 <= i < len(flat_map.weights):
                raise HarnessError(f"choice index {i} out of range")
        picks.append(flat_map.picks(choice))
    picks_a, picks_b = picks
    if len(picks_a) != len(picks_b):
        raise HarnessError(
            f"choice sets have different totals ({len(picks_a)} vs {len(picks_b)}); "
            "the comparison would be vacuous")

    n_flat = flat_map.total
    subgroup = sorted({pow(params.g, e, params.p) for e in range(params.q)})
    index_of = {elem: i for i, elem in enumerate(subgroup)}

    def observe(picks) -> list[int]:
        histogram = [0] * len(subgroup)
        for _ in range(sessions):
            for y in ot_query(params, n_flat, picks)[0]:
                histogram[index_of[y]] += 1
        return histogram

    hist_a = observe(picks_a)
    hist_b = observe(picks_b)

    count_a, count_b = sum(hist_a), sum(hist_b)
    tv = 0.5 * sum(abs(a / count_a - b / count_b) for a, b in zip(hist_a, hist_b))
    chi2_p = chi2_two_row_pvalue(hist_a, hist_b)
    return PrivacyReport(
        verdict="PASS" if chi2_p > P_THRESHOLD else "FAIL",
        billed=len(picks_a),
        chi2_p=chi2_p,
        tv_distance=tv,
        sessions=sessions,
        subgroup_order=params.q,
    )


def chi2_two_row_pvalue(row_a, row_b) -> float:
    """Chi-square test of independence on a 2 x K table of counts.

    Empty columns carry no information and are dropped; with fewer than
    two left the rows cannot differ and the p-value is 1. At one degree of
    freedom Yates' continuity correction applies, as in scipy's
    ``chi2_contingency`` default.
    """
    columns = [(a, b) for a, b in zip(row_a, row_b) if a or b]
    total_a = sum(a for a, _ in columns)
    total_b = sum(b for _, b in columns)
    if len(columns) < 2 or not total_a or not total_b:
        return 1.0
    dof = len(columns) - 1
    total = total_a + total_b
    stat = 0.0
    for a, b in columns:
        for observed, row_total in ((a, total_a), (b, total_b)):
            expected = row_total * (a + b) / total
            diff = abs(observed - expected)
            if dof == 1:
                diff -= min(0.5, diff)
            stat += diff * diff / expected
    return _gamma_q(dof / 2, stat / 2)


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma ``Q(a, x)``, the chi-square tail.

    Series for ``P = 1 - Q`` below ``x = a + 1``, Lentz's continued
    fraction for ``Q`` above (Numerical Recipes, 2nd ed., section 6.2).
    """
    if x <= 0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        for n in range(1, 10_000):
            term *= x / (a + n)
            total += term
            if term < total * 1e-16:
                break
        return max(0.0, 1 - total * front)
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1) < 1e-16:
            break
    return front * h
