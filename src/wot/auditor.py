"""Price-leakage audit: what does the billed total alone reveal?

The seller learns the sum of the purchased weights. If only one subset of
the price vector produces a given total, that total names the purchase
outright; if every subset achieving it contains (or omits) some item, the
total leaks that item. This module counts, for every achievable total,
the subsets producing it, and derives forced-in/forced-out items per
total, by meet-in-the-middle over the two halves of the vector, so the
hard cap of n = 30 items costs 2^15 enumeration per half, not 2^30.

Buying nothing and buying everything are inherently self-revealing, so
the verdict only weighs interior totals (0 < t < sum of all prices):

* UNSAFE: some interior total is achieved by exactly one subset;
* WARN:   every interior total is ambiguous, but some item is forced
  at some interior total;
* OK:     otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AuditError

MAX_ITEMS = 30

VERDICT_OK = "OK"
VERDICT_WARN = "WARN"
VERDICT_UNSAFE = "UNSAFE"


@dataclass(frozen=True)
class TotalReport:
    total: int
    count: int
    forced_in: tuple[int, ...]   # items present in every subset achieving the total
    forced_out: tuple[int, ...]  # items absent from every such subset


@dataclass(frozen=True)
class LeakReport:
    prices: tuple[int, ...]
    totals: tuple[TotalReport, ...]  # ascending by total; covers every achievable total
    verdict: str
    fully_leaking: tuple[int, ...]   # nonzero totals with a unique subset
    min_ambiguity: int | None        # min count over interior totals; None if no interior totals
    below_threshold: tuple[int, ...]  # interior totals with count < min_ambiguity threshold
    threshold: int

    def to_text(self, max_rows: int = 40) -> str:
        lines = [
            f"items={len(self.prices)} achievable_totals={len(self.totals)}"
            f" verdict={self.verdict}",
            f"min_ambiguity={self.min_ambiguity} threshold={self.threshold}",
        ]
        if self.fully_leaking:
            shown = ", ".join(map(str, self.fully_leaking[:max_rows]))
            more = "" if len(self.fully_leaking) <= max_rows else f" (+{len(self.fully_leaking) - max_rows} more)"
            lines.append(f"fully leaking totals: {shown}{more}")
        flagged = [t for t in self.totals
                   if (t.forced_in or t.forced_out) and 0 < t.total < sum(self.prices)]
        for t in flagged[:max_rows]:
            lines.append(
                f"total {t.total}: count={t.count}"
                f" forced_in={list(t.forced_in)} forced_out={list(t.forced_out)}"
            )
        if len(flagged) > max_rows:
            lines.append(f"... {len(flagged) - max_rows} more totals with forced items")
        return "\n".join(lines) + "\n"


def _check_prices(prices) -> tuple[int, ...]:
    prices = tuple(prices)
    if not prices:
        raise AuditError("empty price vector")
    if len(prices) > MAX_ITEMS:
        raise AuditError(f"too many items for exhaustive audit: {len(prices)} > {MAX_ITEMS}")
    for p in prices:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise AuditError(f"prices must be positive integers, got {p!r}")
    return prices


def _half_masks(prices: tuple[int, ...]) -> list[int]:
    """Subset sums of one half, indexed by bitmask (mask over the half)."""
    sums = [0] * (1 << len(prices))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + prices[low.bit_length() - 1]
    return sums


def _half_profile(prices: tuple[int, ...]) -> dict[int, tuple[int, int, int]]:
    """Per half-sum: (count, AND of masks, OR of masks)."""
    sums = _half_masks(prices)
    profile: dict[int, tuple[int, int, int]] = {}
    for mask, s in enumerate(sums):
        if s in profile:
            count, and_mask, or_mask = profile[s]
            profile[s] = (count + 1, and_mask & mask, or_mask | mask)
        else:
            profile[s] = (1, mask, mask)
    return profile


def audit_prices(prices, min_ambiguity: int = 2) -> LeakReport:
    """Full leakage report over every achievable total."""
    prices = _check_prices(prices)
    n = len(prices)
    half = n // 2
    a_profile = _half_profile(prices[:half])
    b_profile = _half_profile(prices[half:])
    grand_total = sum(prices)

    # Merge halves: B-half masks are shifted into the high bits.
    merged: dict[int, tuple[int, int, int]] = {}
    for sa, (ca, and_a, or_a) in a_profile.items():
        for sb, (cb, and_b, or_b) in b_profile.items():
            t = sa + sb
            cell_and = and_a | (and_b << half)
            cell_or = or_a | (or_b << half)
            if t in merged:
                count, and_mask, or_mask = merged[t]
                merged[t] = (count + ca * cb, and_mask & cell_and, or_mask | cell_or)
            else:
                merged[t] = (ca * cb, cell_and, cell_or)

    totals = []
    fully_leaking = []
    below = []
    min_interior: int | None = None
    any_forced_interior = False
    for t in sorted(merged):
        count, and_mask, or_mask = merged[t]
        forced_in = tuple(i for i in range(n) if and_mask >> i & 1)
        forced_out = tuple(i for i in range(n) if not (or_mask >> i & 1))
        totals.append(TotalReport(total=t, count=count,
                                  forced_in=forced_in, forced_out=forced_out))
        if t > 0 and count == 1:
            fully_leaking.append(t)
        if 0 < t < grand_total:
            if min_interior is None or count < min_interior:
                min_interior = count
            if count < min_ambiguity:
                below.append(t)
            if forced_in or forced_out:
                any_forced_interior = True

    if min_interior is not None and min_interior == 1:
        verdict = VERDICT_UNSAFE
    elif any_forced_interior:
        verdict = VERDICT_WARN
    else:
        verdict = VERDICT_OK
    return LeakReport(
        prices=prices,
        totals=tuple(totals),
        verdict=verdict,
        fully_leaking=tuple(fully_leaking),
        min_ambiguity=min_interior,
        below_threshold=tuple(below),
        threshold=min_ambiguity,
    )
