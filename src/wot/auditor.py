"""Price-leakage audit: what does the billed total alone reveal?

The seller learns the sum of the purchased weights. If only one subset of
the price vector produces a given total, that total names the purchase
outright; if every subset achieving it contains (or omits) some item, the
total leaks that item. This module counts, for every achievable total,
the subsets producing it, and derives forced-in/forced-out items per
total, in one pass over the items that keeps, per total so far, the
subset count and the AND and OR of the subsets' item masks. The work and
the report grow with the number of distinct totals, so a vector is
refused as soon as the pass goes past ``MAX_TOTALS`` of them. Prices
``1, 2, 4, ..., 2^17`` take about 2 s on a 2-vCPU machine, and the worst
accepted 30-item vectors about 5 s; vectors with many repeated prices
are cheap at any length up to the item cap.

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
MAX_TOTALS = 1 << 18
MAX_ROWS = 40  # per list in ``LeakReport.to_text``

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

    def to_text(self) -> str:
        lines = [
            f"items={len(self.prices)} achievable_totals={len(self.totals)}"
            f" verdict={self.verdict}",
            f"min_ambiguity={self.min_ambiguity}",
        ]
        if self.fully_leaking:
            shown = ", ".join(map(str, self.fully_leaking[:MAX_ROWS]))
            more = "" if len(self.fully_leaking) <= MAX_ROWS else f" (+{len(self.fully_leaking) - MAX_ROWS} more)"
            lines.append(f"fully leaking totals: {shown}{more}")
        grand_total = sum(self.prices)
        flagged = [t for t in self.totals
                   if (t.forced_in or t.forced_out) and 0 < t.total < grand_total]
        for t in flagged[:MAX_ROWS]:
            lines.append(
                f"total {t.total}: count={t.count}"
                f" forced_in={list(t.forced_in)} forced_out={list(t.forced_out)}"
            )
        if len(flagged) > MAX_ROWS:
            lines.append(f"... {len(flagged) - MAX_ROWS} more totals with forced items")
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


def audit_prices(prices) -> LeakReport:
    """Full leakage report over every achievable total."""
    prices = _check_prices(prices)
    n = len(prices)
    grand_total = sum(prices)

    # Per total: (count, AND of masks, OR of masks) over the subsets so far.
    profile: dict[int, tuple[int, int, int]] = {0: (1, 0, 0)}
    for i, price in enumerate(prices):
        bit = 1 << i
        grown = dict(profile)  # the subsets without item i
        for t, (count, and_mask, or_mask) in profile.items():
            t += price
            if t in grown:
                c, a, o = grown[t]
                grown[t] = (c + count, a & (and_mask | bit), o | or_mask | bit)
            else:
                grown[t] = (count, and_mask | bit, or_mask | bit)
        if len(grown) > MAX_TOTALS:
            raise AuditError(f"too many distinct subset sums for exhaustive audit: "
                             f"more than {MAX_TOTALS} totals")
        profile = grown

    totals = []
    fully_leaking = []
    min_interior: int | None = None
    any_forced_interior = False
    for t in sorted(profile):
        count, and_mask, or_mask = profile[t]
        forced_in = tuple(i for i in range(n) if and_mask >> i & 1)
        forced_out = tuple(i for i in range(n) if not (or_mask >> i & 1))
        totals.append(TotalReport(total=t, count=count,
                                  forced_in=forced_in, forced_out=forced_out))
        if t > 0 and count == 1:
            fully_leaking.append(t)
        if 0 < t < grand_total:
            if min_interior is None or count < min_interior:
                min_interior = count
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
    )
