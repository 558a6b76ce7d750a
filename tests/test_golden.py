"""Golden outputs: certificates, traces and harness payloads stay byte-identical.

The corpus and the fixture writer live in golden_corpus.py.
"""

import json

from golden_corpus import FIXTURE, digests, outputs


def test_outputs_match_frozen_digests():
    groups, rules = outputs()
    expected = json.loads(FIXTURE.read_text())
    actual = digests(groups)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"outputs changed in {changed}"
    # R6 need not fire: test_bound_miss_carries_best_effort_certificate
    # reaches it directly
    required = ("R1", "R2", "R3", "R4", "R5", "S1", "S2", "S3", "S4", "S5", "S6")
    unfired = [rule for rule in required if not rules[rule]]
    assert not unfired, f"the corpus never fires {unfired}"
