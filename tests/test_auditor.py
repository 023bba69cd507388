import random
from collections import Counter
from itertools import combinations

import pytest

from wot.auditor import (LeakReport, VERDICT_OK, VERDICT_UNSAFE, VERDICT_WARN,
                         audit_prices)
from wot.errors import AuditError
from wot.weights import gcd_reduce


def naive_distribution(prices):
    """Doubling enumeration, independent of the meet-in-the-middle path."""
    sums = [0]
    for p in prices:
        sums += [s + p for s in sums]
    return Counter(sums)


def naive_forced(prices, total):
    """(forced_in, forced_out) by direct subset enumeration."""
    n = len(prices)
    achieving = []
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if sum(prices[i] for i in combo) == total:
                achieving.append(set(combo))
    if not achieving:
        return None
    forced_in = set.intersection(*achieving)
    forced_out = set(range(n)) - set.union(*achieving)
    return tuple(sorted(forced_in)), tuple(sorted(forced_out))


def subset_counts(prices):
    """Total -> number of subsets achieving it, as ``wot audit`` computes it."""
    return {t.total: t.count for t in audit_prices(prices).totals}


class TestCountSubsets:
    def test_power_of_two_prices_unique(self):
        report = audit_prices([1, 2, 4, 8])
        by_total = {t.total: t for t in report.totals}
        assert by_total[11].count == 1
        # A unique subset is named by its forced sets.
        assert by_total[11].forced_in == (0, 1, 3)
        assert by_total[11].forced_out == (2,)

    def test_equal_prices_binomial(self):
        assert subset_counts([1, 1, 1])[2] == 3

    def test_zero_total_is_empty_set(self):
        zero = audit_prices([5, 9, 14]).totals[0]
        assert (zero.total, zero.count) == (0, 1)
        assert zero.forced_in == ()
        assert zero.forced_out == (0, 1, 2)

    def test_unreachable_total(self):
        assert 3 not in subset_counts([2, 4])

    def test_too_many_items_rejected(self):
        with pytest.raises(AuditError, match="too many"):
            audit_prices([1] * 31)

    def test_counts_match_naive_oracle(self):
        rng = random.Random(606)
        for _ in range(300):
            n = rng.randint(1, 12)
            prices = [rng.randint(1, 30) for _ in range(n)]
            assert subset_counts(prices) == naive_distribution(prices)

    def test_witnesses_actually_sum(self):
        """A total with one subset names it: its forced-in items sum to the total."""
        rng = random.Random(607)
        for _ in range(100):
            prices = [rng.randint(1, 20) for _ in range(rng.randint(1, 10))]
            for t in audit_prices(prices).totals:
                if t.count == 1:
                    assert sum(prices[i] for i in t.forced_in) == t.total
                    assert len(t.forced_in) + len(t.forced_out) == len(prices)


class TestDistribution:
    def test_counts_sum_to_power_of_two(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 20)
            prices = [rng.randint(1, 50) for _ in range(n)]
            dist = subset_counts(prices)
            assert sum(dist.values()) == 1 << n
            assert dist[0] == 1

    def test_matches_naive(self):
        rng = random.Random(12)
        for _ in range(100):
            prices = [rng.randint(1, 25) for _ in range(rng.randint(1, 14))]
            assert subset_counts(prices) == naive_distribution(prices)


class TestAudit:
    def test_binary_prices_unsafe(self):
        report = audit_prices([1, 2, 4, 8])
        assert report.verdict == VERDICT_UNSAFE
        # All fifteen nonzero totals are produced by exactly one subset.
        assert report.fully_leaking == tuple(range(1, 16))
        assert all(t.count == 1 for t in report.totals if t.total > 0)
        assert report.min_ambiguity == 1

    def test_uniform_prices_ok(self):
        report = audit_prices([1, 1, 1, 1])
        assert report.verdict == VERDICT_OK
        by_total = {t.total: t.count for t in report.totals}
        assert by_total == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
        for t in report.totals:
            if 0 < t.total < 4:
                assert not t.forced_in and not t.forced_out

    def test_forced_item_detected(self):
        # [5, 1, 1]: the totals 2 and 5 are unique, so the audit is UNSAFE;
        # total 6 additionally forces item 0 into every explanation.
        report = audit_prices([5, 1, 1])
        assert report.verdict == VERDICT_UNSAFE
        six = {t.total: t for t in report.totals}[6]
        assert six.count == 2
        assert six.forced_in == (0,)
        assert six.forced_out == ()
        assert 2 in report.fully_leaking and 5 in report.fully_leaking

    def test_warn_without_unique_interior_totals(self):
        # [1, 1, 2, 2]: interior counts are 2,3,4,3,2 (never unique), but
        # total 5 is only explained with both 2-priced items, and total 1
        # excludes them: partial leaks, hence WARN.
        report = audit_prices([1, 1, 2, 2])
        assert report.verdict == VERDICT_WARN
        assert report.min_ambiguity == 2
        by_total = {t.total: t for t in report.totals}
        assert by_total[5].forced_in == (2, 3)
        assert by_total[1].forced_out == (2, 3)

    def test_buying_everything_is_not_flagged(self):
        # The full-catalog total is always unique; it must not drive UNSAFE.
        report = audit_prices([3, 3])
        assert {t.total: t.count for t in report.totals}[6] == 1
        assert report.verdict == VERDICT_OK
        assert report.fully_leaking == (6,)

    def test_forced_sets_match_naive_oracle(self):
        rng = random.Random(77)
        for _ in range(60):
            prices = [rng.randint(1, 8) for _ in range(rng.randint(1, 10))]
            report = audit_prices(prices)
            for t in report.totals:
                assert naive_forced(prices, t.total) == (t.forced_in, t.forced_out)

    def test_gcd_reduction_preserves_structure(self):
        prices = [100, 200, 300, 700]
        reduced = gcd_reduce(prices).reduced
        full = audit_prices(prices)
        small = audit_prices(list(reduced))
        assert full.verdict == small.verdict
        assert len(full.totals) == len(small.totals)
        for a, b in zip(full.totals, small.totals):
            assert a.total == b.total * 100
            assert a.count == b.count
            assert a.forced_in == b.forced_in
            assert a.forced_out == b.forced_out

    def test_below_threshold_listing(self):
        report = audit_prices([1, 1, 5], min_ambiguity=3)
        # Interior totals: 1 (count 2), 2 (count 1), 5 (count 1), 6 (count 2).
        assert set(report.below_threshold) == {1, 2, 5, 6}
        assert report.threshold == 3

    def test_single_item_catalog(self):
        report = audit_prices([7])
        assert report.min_ambiguity is None
        assert report.verdict == VERDICT_OK

    def test_report_text(self):
        text = audit_prices([1, 2, 4, 8]).to_text()
        assert "UNSAFE" in text
        assert "fully leaking totals" in text

    def test_report_lookup(self):
        counts = subset_counts([2, 3])
        assert counts[5] == 1
        assert 4 not in counts


def test_leak_report_is_frozen():
    report = audit_prices([1, 2])
    assert isinstance(report, LeakReport)
    with pytest.raises(AttributeError):
        report.verdict = "OK"
