import random

import pytest

from wot import symcrypto
from wot.base_ot import ot_query
from wot.errors import HarnessError
from wot.harness import chi2_two_row_pvalue, privacy_experiment
from wot.protocol import publish

from conftest import count_calls, local_session, make_catalog, seed_source, share_draws


class TestPrivacyExperiment:
    def test_equal_totals_pass(self, p23, monkeypatch):
        seed_source(monkeypatch, random.Random(51))
        report = privacy_experiment((1, 2, 3), {0, 1}, {2}, 20_000, p23)
        assert report.verdict == "PASS"
        assert report.billed == 3
        assert report.chi2_p > 0.01
        assert report.tv_distance < 0.02

    def test_identical_choices_control(self, p23, monkeypatch):
        seed_source(monkeypatch, random.Random(52))
        report = privacy_experiment((1, 2, 3), {2}, {2}, 10_000, p23)
        assert report.verdict == "PASS"

    def test_unequal_totals_refused(self, p23, rng):
        with pytest.raises(HarnessError, match="different totals"):
            privacy_experiment((1, 2, 3), {0}, {2}, 100, p23)

    @pytest.mark.parametrize("choice_a, choice_b, sessions, message", [
        ({0}, {3}, 10, "choice index 3 out of range"),
        ({-1}, {0}, 10, "choice index -1 out of range"),
        (set(), set(), 10, "empty choice set"),
        ({0}, {0}, 0, "at least one session"),
    ], ids=["index-past-weights", "negative-index", "empty-choice", "zero-sessions"])
    def test_invalid_experiment_refused(self, p23, rng, choice_a, choice_b, sessions,
                                        message):
        with pytest.raises(HarnessError, match=message):
            privacy_experiment((1, 2, 3), choice_a, choice_b, sessions, p23)

    def test_large_group_refused(self, rng):
        from wot.group import setup_params
        with pytest.raises(HarnessError, match="too large"):
            privacy_experiment((1, 2), {0}, {0}, 10, setup_params("modp-2048"))

    def test_picks_as_a_purchase_does(self, p23, rng, monkeypatch):
        """The experiment queries the picks a purchase of the same items sends, in its order."""
        cat = make_catalog([2, 1, 3], rng)
        bundle, secrets = publish(cat, "p2", p23)
        queries = count_calls(monkeypatch, ot_query)
        local_session(bundle, secrets, ["item02", "item00"])
        privacy_experiment(bundle.manifest.weights, {2, 0}, {0, 2}, 1, p23)
        session, experiment_a, experiment_b = [picks for _, _, picks in queries]
        assert session == experiment_a == experiment_b == [0, 1, 3, 4, 5]

    def test_report_text(self, p23, monkeypatch):
        seed_source(monkeypatch, random.Random(53))
        text = privacy_experiment((1, 1), {0}, {1}, 2_000, p23).to_text()
        assert "verdict" in text and "chi-square" in text and "(threshold 0.01)" in text
        assert "billed total: 1 for each choice set\n" in text


class TestChiSquare:
    def test_matches_scipy_on_random_tables(self):
        """Over seeded 2 x K tables, K from 2 to 23, against ``chi2_contingency``."""
        from scipy.stats import chi2_contingency
        rng = random.Random(71)
        compared = 0
        for _ in range(1_200):
            k = rng.randint(2, 23)
            scale = rng.choice((3, 20, 200, 5_000))
            row_a = [rng.randrange(scale) for _ in range(k)]
            row_b = [rng.randrange(scale) for _ in range(k)]
            got = chi2_two_row_pvalue(row_a, row_b)
            # scipy refuses empty columns; they carry no information.
            kept = [(a, b) for a, b in zip(row_a, row_b) if a or b]
            if len(kept) < 2 or not all(map(sum, zip(*kept))):
                assert got == 1.0
                continue
            want = chi2_contingency(list(zip(*kept))).pvalue
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300), (row_a, row_b)
            compared += 1
        assert compared >= 1_000

    def test_fewer_than_two_columns(self):
        assert chi2_two_row_pvalue([0, 4, 0], [0, 9, 0]) == 1.0
        assert chi2_two_row_pvalue([0, 0], [0, 0]) == 1.0


class TestComplexityCheck:
    """The advertised costs on small catalogs, counted call by call."""

    def test_demo_vector_counts(self, p23, monkeypatch):
        cat = make_catalog([1, 2, 3, 7], random.Random(4))
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        splits = count_calls(monkeypatch, symcrypto.split_key)
        bundle, secrets = publish(cat, "p2", p23)
        assert len(encrypts) == 4
        assert share_draws(splits) == 9
        result, billed = local_session(bundle, secrets, [i.id for i in cat.items])
        assert billed == result.total == 13

    def test_weight_one_items_draw_nothing(self, p23, monkeypatch):
        cat = make_catalog([1, 1], random.Random(4))
        splits = count_calls(monkeypatch, symcrypto.split_key)
        publish(cat, "p2", p23)
        assert len(splits) == 2
        assert share_draws(splits) == 0

    def test_receiver_side_counts(self, p23, monkeypatch):
        # Choosing everything on [2, 1, 3]: six shares combined, three decryptions.
        cat = make_catalog([2, 1, 3], random.Random(4))
        bundle, secrets = publish(cat, "p2", p23)
        combines = count_calls(monkeypatch, symcrypto.combine_shares)
        decrypts = count_calls(monkeypatch, symcrypto.decrypt)
        local_session(bundle, secrets, [i.id for i in cat.items])
        assert sum(len(shares) for (shares,) in combines) == 6
        assert len(decrypts) == 3

    def test_p1_counts(self, p23, monkeypatch):
        cat = make_catalog([2, 1, 3], random.Random(4))
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        splits = count_calls(monkeypatch, symcrypto.split_key)
        bundle, secrets = publish(cat, "p1", p23)
        assert len(encrypts) == 6
        assert splits == []
        decrypts = count_calls(monkeypatch, symcrypto.decrypt)
        local_session(bundle, secrets, [i.id for i in cat.items])
        assert len(decrypts) == 6  # one per layer

    def test_random_catalogs(self, p23, monkeypatch):
        """One catalog in both modes: ``n`` against ``sum(p_i)`` encryptions."""
        rng = seed_source(monkeypatch, random.Random(6))
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        splits = count_calls(monkeypatch, symcrypto.split_key)
        for _ in range(10):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            cat = make_catalog(weights, rng, payload_size=32)
            for mode, want_encrypts, want_draws in (
                    ("p1", sum(weights), 0),
                    ("p2", len(weights), sum(weights) - len(weights))):
                encrypts.clear()
                splits.clear()
                publish(cat, mode, p23)
                assert (len(encrypts), share_draws(splits)) == (want_encrypts, want_draws)
