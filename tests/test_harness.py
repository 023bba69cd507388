import random

import pytest

from wot.errors import HarnessError
from wot.harness import (ComplexityReport, PrivacyExperiment, complexity_check,
                         correctness_oracle, privacy_experiment)
from wot.protocol import publish

from conftest import make_catalog


class TestPrivacyExperiment:
    def test_equal_totals_pass(self, p23):
        exp = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({0, 1}),
                                choice_b=frozenset({2}), sessions=20_000)
        report = privacy_experiment(exp, p23, random.Random(51))
        assert report.verdict == "PASS"
        assert report.totals_identical
        assert report.billed_a == report.billed_b == 3
        assert report.chi2_p > 0.01
        assert report.tv_distance < 0.02

    def test_identical_choices_control(self, p23):
        exp = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({2}),
                                choice_b=frozenset({2}), sessions=10_000)
        report = privacy_experiment(exp, p23, random.Random(52))
        assert report.verdict == "PASS"

    def test_unequal_totals_refused(self, p23, rng):
        exp = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({0}),
                                choice_b=frozenset({2}), sessions=100)
        with pytest.raises(HarnessError, match="different totals"):
            privacy_experiment(exp, p23, rng)

    @pytest.mark.parametrize("choice_a, choice_b, sessions, message", [
        ({0}, {3}, 10, "choice index 3 out of range"),
        ({-1}, {0}, 10, "choice index -1 out of range"),
        (set(), set(), 10, "empty choice set"),
        ({0}, {0}, 0, "at least one session"),
    ], ids=["index-past-weights", "negative-index", "empty-choice", "zero-sessions"])
    def test_invalid_experiment_refused(self, p23, rng, choice_a, choice_b, sessions,
                                        message):
        exp = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset(choice_a),
                                choice_b=frozenset(choice_b), sessions=sessions)
        with pytest.raises(HarnessError, match=message):
            privacy_experiment(exp, p23, rng)

    def test_large_group_refused(self, rng):
        from wot.group import setup_params
        exp = PrivacyExperiment(weights=(1, 2), choice_a=frozenset({0}),
                                choice_b=frozenset({0}), sessions=10)
        with pytest.raises(HarnessError, match="too large"):
            privacy_experiment(exp, setup_params("modp-2048"), rng)

    def test_report_text(self, p23):
        exp = PrivacyExperiment(weights=(1, 1), choice_a=frozenset({0}),
                                choice_b=frozenset({1}), sessions=2_000)
        text = privacy_experiment(exp, p23, random.Random(53)).to_text()
        assert "verdict" in text and "chi-square" in text


class TestCorrectnessOracle:
    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_three_item_catalog_all_sets(self, p23, mode):
        cat = make_catalog([1, 2, 3], random.Random(8))
        verdict = correctness_oracle(cat, mode, p23, random.Random(9))
        assert verdict.passed, verdict.failures
        assert verdict.sessions_run == 7

    def test_single_item(self, p23):
        cat = make_catalog([1], random.Random(8))
        verdict = correctness_oracle(cat, "p2", p23, random.Random(9))
        assert verdict.passed
        assert verdict.sessions_run == 1

    def test_oracle_detects_mis_split_share(self, p23):
        """Mutation check: corrupt one share and the oracle must notice."""
        cat = make_catalog([1, 2], random.Random(8))
        rng = random.Random(9)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        broken = list(secrets.flat_secrets)
        broken[1] = bytes(16)  # item 1 loses a share
        from wot.net import run_local_session
        from wot.protocol import SenderSecrets, plan_for_indices
        from wot.errors import ItemAuthenticationError
        bad = SenderSecrets(mode="p2", flat_secrets=tuple(broken))
        plan = plan_for_indices(bundle.manifest, {1})
        with pytest.raises(ItemAuthenticationError):
            run_local_session(bundle, bad, plan, p23,
                              receiver_rng=rng, sender_rng=rng)

    def test_oversize_catalog_refused(self, p23, rng):
        cat = make_catalog([1] * 7)
        with pytest.raises(HarnessError):
            correctness_oracle(cat, "p2", p23, rng)


class TestComplexityCheck:
    def test_demo_vector_counts(self, p23):
        cat = make_catalog([1, 2, 3, 7], random.Random(4))
        report = complexity_check(cat, "p2", p23, random.Random(5))
        assert report.passed, report.failures
        assert report.expected["encryptions"] == 4
        assert report.expected["share_draws"] == 9

    def test_weight_one_items_draw_nothing(self, p23):
        cat = make_catalog([1, 1], random.Random(4))
        report = complexity_check(cat, "p2", p23, random.Random(5))
        assert report.passed
        assert report.observed["share_draws"] == 0

    def test_receiver_side_counts(self, p23):
        # Choosing everything on [2, 1, 3]: six shares combined, three decryptions.
        cat = make_catalog([2, 1, 3], random.Random(4))
        report = complexity_check(cat, "p2", p23, random.Random(5),
                                  choice={0, 1, 2})
        assert report.passed
        assert report.observed["shares_combined"] == 6
        assert report.observed["receiver_decryptions"] == 3

    def test_p1_counts(self, p23):
        cat = make_catalog([2, 1, 3], random.Random(4))
        report = complexity_check(cat, "p1", p23, random.Random(5))
        assert report.passed, report.failures
        assert report.observed["encryptions"] == 6
        assert report.observed["share_draws"] == 0

    def test_random_catalogs(self, p23):
        rng = random.Random(6)
        for _ in range(10):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            cat = make_catalog(weights, rng, payload_size=32)
            choice = {i for i in range(len(weights)) if rng.random() < 0.5} or {0}
            for mode in ("p1", "p2"):
                report = complexity_check(cat, mode, p23, rng, choice=choice)
                assert isinstance(report, ComplexityReport)
                assert report.passed, report.failures
