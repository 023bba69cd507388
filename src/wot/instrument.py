"""Operation counters for complexity checks.

Every cost the protocol advertises (encryptions per publish, random share
draws, exponent draws per transfer, shares consumed on recombination) is
counted at the call site that does the work, so tests can assert the
advertised numbers exactly. A transfer draws one query exponent and one
response exponent per pick, whatever N is. Passing ``counters=None``
disables counting.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counters:
    encryptions: int = 0
    decryptions: int = 0
    key_gens: int = 0
    share_draws: int = 0
    shares_combined: int = 0
    query_exponents: int = 0
    response_exponents: int = 0
