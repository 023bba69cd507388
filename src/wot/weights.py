"""Price-vector reduction to shrink transfer cost.

The transfer runs over one key share per price unit, so its cost scales
with the weight sum. Dividing every weight by a common divisor ``q`` (and
billing ``q`` currency units per transferred share) cuts the work by a
factor of ``q``. When no common divisor exists the weights can instead be
rounded to the nearest multiple of a negotiated ``q``, trading a bounded
relative price error for the same speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ReductionError

TRIAL_DIVISION_LIMIT = 10**6
MAX_CANDIDATES = 8  # divisors ``candidate_divisors`` suggests at most


@dataclass(frozen=True)
class ReductionReport:
    q: int
    original: tuple[int, ...]
    reduced: tuple[int, ...]
    exact: bool
    max_relative_error: Fraction

    @property
    def work_before(self) -> int:
        return sum(self.original)

    @property
    def work_after(self) -> int:
        return sum(self.reduced)

    def to_text(self) -> str:
        lines = [
            f"q={self.q} exact={'yes' if self.exact else 'no'}"
            f" max_relative_error={float(self.max_relative_error):.6g}",
            f"work: {self.work_before} -> {self.work_after} shares",
            "# original\treduced\teffective_price",
        ]
        for orig, red in zip(self.original, self.reduced):
            lines.append(f"{orig}\t{red}\t{red * self.q}")
        return "\n".join(lines) + "\n"


def _check_weights(weights) -> tuple[int, ...]:
    weights = tuple(weights)
    if not weights:
        raise ReductionError("empty weight vector")
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ReductionError(f"weights must be positive integers, got {w!r}")
    return weights


def gcd_reduce(weights) -> ReductionReport:
    """Divide out the greatest common divisor of all weights."""
    weights = _check_weights(weights)
    q = math.gcd(*weights)
    reduced = tuple(w // q for w in weights)
    return ReductionReport(
        q=q,
        original=weights,
        reduced=reduced,
        exact=True,
        max_relative_error=Fraction(0),
    )


def approx_reduce(weights, q: int) -> ReductionReport:
    """Round each weight to the nearest multiple of ``q`` (ties round up).

    A weight that rounds to zero is an error: silently clamping it to one
    would change its price by an unbounded ratio.
    """
    weights = _check_weights(weights)
    if not isinstance(q, int) or q < 2:
        raise ReductionError(f"divisor must be an integer >= 2, got {q!r}")
    reduced = []
    for w in weights:
        r = (2 * w + q) // (2 * q)
        if r == 0:
            raise ReductionError(f"weight {w} vanishes under reduction by {q}")
        reduced.append(r)
    reduced = tuple(reduced)
    errors = [Fraction(abs(r * q - w), w) for w, r in zip(weights, reduced)]
    exact = all(w % q == 0 for w in weights)
    return ReductionReport(
        q=q,
        original=weights,
        reduced=reduced,
        exact=exact,
        max_relative_error=max(errors),
    )


def candidate_divisors(weights) -> tuple[int, ...]:
    """Suggest divisors worth negotiating when the gcd is 1.

    Candidates are the median weight's divisors plus round numbers
    (1/2/5 times powers of ten) that keep every rounded weight nonzero,
    ranked by the relative price error they would introduce. Advisory
    only; the two parties pick the divisor themselves.

    The median's divisors come from trial division by ``d`` up to
    ``TRIAL_DIVISION_LIMIT``, each with its cofactor ``median // d``. Below
    ``TRIAL_DIVISION_LIMIT ** 2 = 10^12`` that finds every divisor; above
    it, divisors whose cofactor is also past the limit are missed, which
    keeps a large prime median from taking time that grows as its square
    root.
    """
    weights = _check_weights(weights)
    ordered = sorted(weights)
    median = ordered[len(ordered) // 2]
    cap = 2 * min(weights)  # anything above rounds the cheapest item to zero

    candidates = set()
    for d in range(2, min(math.isqrt(median), TRIAL_DIVISION_LIMIT) + 1):
        if median % d == 0:
            candidates.update((d, median // d))
    candidates.add(median)
    scale = 10
    while scale <= cap:
        candidates.update(m * scale for m in (1, 2, 5) if m * scale <= cap)
        scale *= 10

    scored = []
    for q in sorted(candidates):
        if 2 <= q <= cap:  # within the cap, no rounded weight is zero
            scored.append((approx_reduce(weights, q).max_relative_error, -q))
    scored.sort()
    return tuple(-negq for _, negq in scored[:MAX_CANDIDATES])
