"""Byte oracle for the verification suites.

Each suite's report bytes at small sizes (seed 11, one worker) are pinned
by sha256.  A refactor that keeps every record, tie-break and float bit
keeps these digests; any change to the report bytes shows up here.
"""

import hashlib

import pytest

from schreierlab import suites

SMALL = {
    "norm-oracle": {"randoms_per_p": 30, "sign_indices": 5},
    "tau-oracle": {"random_count": 300},
    "lemma22": {"max_m": 4},
    "jameson": {"upper_count": 200, "max_k": 4},
    "domination": {"pairs": 4, "coeffs_per_combo": 10},
    "sigma": {"count": 80},
    "mpb": {"n_max": 8},
    "corollary64": {"pairs": 4},
    "gl-bounds": {"count": 10},
}

DIGESTS = {
    "norm-oracle": "f2a5c57605eda8cddfb561148ea2ad3af847e0f250cefb3095e873ccbd504ec4",
    "tau-oracle": "6548035a7484d837518195bc397ed8bab240f06bf44fd928b63083e751e21ab0",
    "lemma22": "6d2a1ea9f46fef64ddfd60907c20cad115c9d2fd03e8620576d153a975564924",
    "jameson": "9742459d7f002d7b51de746f7f71ac5903f1fb0e324316df67e4d36968b18d98",
    "domination": "c207087d5d841781c189845dd9b53fa0f905307ac2799cf8036f80f3e27d1d80",
    "sigma": "b52399a33084415bc5dc200b2d2d9e30fa0d51a21c4c3eba0a30cb5a9c7dcc2f",
    "mpb": "2227f75493aa7aaba052bb2d1cf8ed92c116f953d3ff3b2132ef5c9c237bd64f",
    "corollary64": "eec4eb061c09b5805cd4e2a49520eacc519f4b0fca7ac051210d9c0c37fdae1f",
    "gl-bounds": "83d87d608d817914f5706144d7393d609265dd0ef0e3ab9f7653cc00ad84b9e8",
}


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_report_bytes_match_pinned_digest(name):
    report = suites.run_suite(name, seed=11, sizes=SMALL[name], jobs=1)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == DIGESTS[name]
