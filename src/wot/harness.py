"""Executable evidence for the protocol's privacy and cost claims.

Three experiments, all deterministic given a seed:

* ``privacy_experiment`` runs many sessions for two equal-price choice
  sets on a tiny group and compares what the seller saw: the billed
  totals must be identical, and the pooled query-element histograms must
  be statistically indistinguishable (a chi-square test, computed with
  the standard library). Tiny subgroups make the uniformity claim
  exhaustively testable rather than asymptotic.
* ``correctness_oracle`` runs a real session for every nonempty choice
  set of a small catalog and checks the buyer got exactly the chosen
  plaintexts, the seller billed exactly their weight sum, and none of the
  buyer's recovered key material opens an unchosen item.
* ``complexity_check`` publishes and transacts with counters attached
  and asserts the advertised operation counts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base_ot import ot_query
from .catalog import Catalog, FlatIndexMap, MODE_P2, total_price
from .errors import HarnessError, WotError
from .group import GroupParams
from .instrument import Counters
from .net import run_local_session
from .protocol import item_context, plan_for_indices, publish
from . import symcrypto

MAX_EXPERIMENT_SUBGROUP = 101
MAX_ORACLE_ITEMS = 6


@dataclass(frozen=True)
class PrivacyExperiment:
    weights: tuple[int, ...]
    choice_a: frozenset[int]
    choice_b: frozenset[int]
    sessions: int = 100_000
    p_threshold: float = 0.01


@dataclass(frozen=True)
class PrivacyReport:
    verdict: str  # PASS | FAIL
    totals_identical: bool
    billed_a: int
    billed_b: int
    chi2_p: float
    tv_distance: float
    sessions: int
    subgroup_order: int
    p_threshold: float

    def to_text(self) -> str:
        return (
            f"sessions={self.sessions} per choice set, subgroup order {self.subgroup_order}\n"
            f"billed totals: {self.billed_a} vs {self.billed_b}"
            f" ({'identical' if self.totals_identical else 'DIFFERENT'})\n"
            f"query histogram chi-square p={self.chi2_p:.4f}"
            f" (threshold {self.p_threshold}), TV distance {self.tv_distance:.4f}\n"
            f"verdict: {self.verdict}\n"
        )


def privacy_experiment(exp: PrivacyExperiment, params: GroupParams, rng) -> PrivacyReport:
    """Compare the seller's view across two equal-price choice sets."""
    if params.q > MAX_EXPERIMENT_SUBGROUP:
        raise HarnessError(f"subgroup order {params.q} too large for histogram statistics")
    if exp.sessions < 1:
        raise HarnessError(f"need at least one session, got {exp.sessions}")
    flat_map = FlatIndexMap(exp.weights)
    picks = []
    for choice in (exp.choice_a, exp.choice_b):
        if not choice:
            raise HarnessError("empty choice set")
        for i in choice:
            if not 0 <= i < len(flat_map.weights):
                raise HarnessError(f"choice index {i} out of range")
        picks.append([f for i in sorted(choice) for f in flat_map.item_range(i)])
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
        for _ in range(exp.sessions):
            for y in ot_query(params, n_flat, picks, rng)[0]:
                histogram[index_of[y]] += 1
        return histogram

    hist_a = observe(picks_a)
    hist_b = observe(picks_b)

    count_a, count_b = sum(hist_a), sum(hist_b)
    tv = 0.5 * sum(abs(a / count_a - b / count_b) for a, b in zip(hist_a, hist_b))
    chi2_p = chi2_two_row_pvalue(hist_a, hist_b)
    totals_identical = len(picks_a) == len(picks_b)
    verdict = "PASS" if totals_identical and chi2_p > exp.p_threshold else "FAIL"
    return PrivacyReport(
        verdict=verdict,
        totals_identical=totals_identical,
        billed_a=len(picks_a),
        billed_b=len(picks_b),
        chi2_p=chi2_p,
        tv_distance=tv,
        sessions=exp.sessions,
        subgroup_order=params.q,
        p_threshold=exp.p_threshold,
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


@dataclass(frozen=True)
class OracleVerdict:
    passed: bool
    sessions_run: int
    failures: tuple[str, ...]


def correctness_oracle(catalog: Catalog, mode: str, params: GroupParams,
                       rng) -> OracleVerdict:
    """Exhaustively transact every nonempty choice set of a small catalog."""
    if catalog.n > MAX_ORACLE_ITEMS:
        raise HarnessError(f"oracle is exhaustive; {catalog.n} items is too many")
    bundle, secrets = publish(catalog, mode, params, rng=rng)
    failures = []
    sessions = 0
    for mask in range(1, 1 << catalog.n):
        choice = {i for i in range(catalog.n) if mask >> i & 1}
        plan = plan_for_indices(bundle.manifest, choice)
        result, billed, _ = run_local_session(bundle, secrets, plan, params,
                                              receiver_rng=rng, sender_rng=rng)
        sessions += 1
        expected = {catalog.items[i].id: catalog.items[i].payload for i in choice}
        got = dict(result.items)
        if got != expected:
            failures.append(f"choice {sorted(choice)}: wrong plaintexts")
        want_total = total_price(catalog, choice)
        if billed != want_total or result.total != want_total:
            failures.append(f"choice {sorted(choice)}: billed {billed}, "
                            f"expected {want_total}")
        failures.extend(_unchosen_breach(catalog, mode, bundle, secrets, choice))
    return OracleVerdict(passed=not failures, sessions_run=sessions,
                         failures=tuple(failures))


def _unchosen_breach(catalog, mode, bundle, secrets, choice) -> list[str]:
    """Try opening unchosen items with the material a buyer of ``choice`` holds."""
    flat_map = bundle.flat_map
    learned = [secrets.flat_secrets[f] for i in choice for f in flat_map.item_range(i)]
    learned_keys = []
    if mode == MODE_P2:
        for i in choice:
            learned_keys.append(symcrypto.combine_shares(
                [secrets.flat_secrets[f] for f in flat_map.item_range(i)]))
    else:
        learned_keys.extend(learned)
    all_xor = learned[0] if len(learned) == 1 else symcrypto.combine_shares(learned)
    failures = []
    for i in range(catalog.n):
        if i in choice:
            continue
        item = catalog.items[i]
        ct = bundle.ciphertexts[i]
        context = item_context(mode, item.id)
        for key in [*learned_keys, all_xor]:
            try:
                if mode == MODE_P2:
                    symcrypto.decrypt(key, ct, context)
                else:
                    symcrypto.nested_decrypt([key], ct, context)
            except WotError:
                continue
            failures.append(f"choice {sorted(choice)}: key material opened "
                            f"unchosen item {item.id!r}")
    return failures


@dataclass(frozen=True)
class ComplexityReport:
    mode: str
    passed: bool
    expected: dict
    observed: dict
    failures: tuple[str, ...]


def complexity_check(catalog: Catalog, mode: str, params: GroupParams,
                     rng, choice=None) -> ComplexityReport:
    """Publish + one session with counters; assert the advertised costs."""
    weights = catalog.weights
    publish_counters = Counters()
    bundle, secrets = publish(catalog, mode, params, rng=rng, counters=publish_counters)

    if choice is None:
        choice = set(range(catalog.n))
    plan = plan_for_indices(bundle.manifest, choice)
    rx = Counters()
    tx = Counters()
    result, billed, log = run_local_session(bundle, secrets, plan, params,
                                            receiver_rng=rng, sender_rng=rng,
                                            receiver_counters=rx, sender_counters=tx)
    k = len(plan.choice_indices)
    billed_weight = plan.total

    failures = []
    if mode == MODE_P2:
        expected = {
            "encryptions": catalog.n,
            "key_gens": catalog.n,
            "share_draws": sum(w - 1 for w in weights),
            "receiver_decryptions": k,
            "shares_combined": billed_weight,
        }
        observed = {
            "encryptions": publish_counters.encryptions,
            "key_gens": publish_counters.key_gens,
            "share_draws": publish_counters.share_draws,
            "receiver_decryptions": rx.decryptions,
            "shares_combined": rx.shares_combined,
        }
    else:
        expected = {
            "encryptions": sum(weights),
            "key_gens": sum(weights),
            "share_draws": 0,
            "receiver_decryptions": billed_weight,
        }
        observed = {
            "encryptions": publish_counters.encryptions,
            "key_gens": publish_counters.key_gens,
            "share_draws": publish_counters.share_draws,
            "receiver_decryptions": rx.decryptions,
        }
    # Exponent freshness: one query exponent and one response exponent per
    # pick, whatever the size of the flat index space.
    expected["query_exponents"] = billed_weight
    observed["query_exponents"] = rx.query_exponents
    expected["response_exponents"] = billed_weight
    observed["response_exponents"] = tx.response_exponents

    # One query flight and one response flight in the message log.
    query_flights = [entry for entry in log if entry[1] == "OtBatchQuery"]
    resp_flights = [entry for entry in log if entry[1] == "OtBatchResp"]
    if len(query_flights) != 1 or len(resp_flights) != 1:
        failures.append(f"expected one query and one response flight, log={log}")

    for name, want in expected.items():
        if observed.get(name) != want:
            failures.append(f"{name}: expected {want}, observed {observed.get(name)}")
    if billed != billed_weight or result.total != billed_weight:
        failures.append(f"billed {billed}, expected {billed_weight}")
    return ComplexityReport(mode=mode, passed=not failures, expected=expected,
                            observed=observed, failures=tuple(failures))
