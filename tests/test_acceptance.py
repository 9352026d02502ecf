"""Acceptance gate: each numbered criterion replays one named scenario.

Every check is exact integer equality (tolerance zero).  A criterion
passes only when its scenario reports no mismatch at all and its full
report hashes to the digest recorded for it; the printed line per
criterion shows up in the captured output, and the mismatch detail is
printed before the assert fires so a failing criterion documents
exactly which claimed value the computation refutes.
"""

from __future__ import annotations

import hashlib
import json

from veroproj.families import run_scenario

# sha256 of each full report, json.dumps(report, sort_keys=True): a change to
# any step's inputs, expected or actual values shows here even while the
# scenario still passes
REPORT_DIGESTS = {
    "escalating-generator-degrees": "6ec30e93cf506171301cb351990949ff444b46e17dbe329a40b14c3195876208",
    "square-complement-table": "effb7554e3696287ae593f96518cb914f9f471987908d7b243c767bc213f4bc3",
    "pinched-veronese-3-5-2": "c44accd7e1d541a716c878da46f386dabbb7fe9ef5adde150568bb68823f42b9",
    "two-normal-complements": "1dfb99f797922722d6bb0c9b833cf32445e79713b097e24afdd6abc9b9d9d557",
    "pinched-veronese-quadratic-grid": "9c8a6df012650d32fcc0695f198540a9f4b4b3fce035196f6cc856db2dede2fd",
    "quartic-group-invariants": "f6e4fc6047207500b982b66975c3a7f3de587395eece5cc6b5d8d9c95f70836e",
    "surface-criterion-cross-check": "563b53507b2e3ff85be59b53ccdbccc99113b24019d51d596f15263652eec3c4",
    "surface-koszul-cross-check": "34cbb71a48ec2aced4cc81181cca75f15f7d4614b8a573d406f1a49901a7430f",
    "threefold-parity": "865e5bb4116885e8e6493113ab4a3e8a8ddc3f6ac74b59783c649796ece3456c",
    "rc-order-quadratic": "0c1df086fccdb7696a809c1c7b3454a0e6c920a21ab33bc5509eb8461a69d9a7",
    "quartic-group-quadratic-gb": "3419a01c83454e0d5d8ce2d7b92e295b7ab09f9fa80851be20a03116b5a5ed65",
    "h-vector-dual-route": "834ea05fc85c474d77b23650fab836781e9b64393dbd65160b12e8d5d7054e08",
    "lift-preservation": "b403595bc5433e7a3154a7957e08e388d4dfee435a83d14af0d39bb0d885434b",
    "quadratic-surface-gb-search": "305671d9074f68c1d7dcc9001c1eb3eddf94eade17895f2f6ad8e3df7f1a32c5",
}


def _check(number: int, name: str) -> None:
    report = run_scenario(name)
    status = "PASS" if report["overall"] == "pass" else "FAIL"
    print(f"criterion {number:02d}: {status} ({name})")
    for step in report["steps"]:
        if not step["match"]:
            print(f"  mismatch {step['op']} {json.dumps(step['inputs'], sort_keys=True)}")
            print(f"    expected {json.dumps(step['expected'], sort_keys=True)}")
            print(f"    actual   {json.dumps(step['actual'], sort_keys=True)}")
    assert report["overall"] == "pass", f"criterion {number:02d} ({name}) has mismatches"
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name], f"criterion {number:02d} ({name}): the report changed"


def test_criterion_01_escalating_generator_degrees():
    _check(1, "escalating-generator-degrees")


def test_criterion_02_square_complement_table():
    _check(2, "square-complement-table")


def test_criterion_03_pinched_veronese_3_5_2():
    _check(3, "pinched-veronese-3-5-2")


def test_criterion_04_two_normal_complements():
    _check(4, "two-normal-complements")


def test_criterion_05_pinched_veronese_quadratic_grid():
    _check(5, "pinched-veronese-quadratic-grid")


def test_criterion_06_quartic_group_invariants():
    _check(6, "quartic-group-invariants")


def test_criterion_07_surface_criterion_cross_check():
    _check(7, "surface-criterion-cross-check")


def test_criterion_08_surface_koszul_cross_check():
    _check(8, "surface-koszul-cross-check")


def test_criterion_09_threefold_parity():
    _check(9, "threefold-parity")


def test_criterion_10_rc_order_quadratic():
    _check(10, "rc-order-quadratic")


def test_criterion_11_quartic_group_quadratic_gb():
    _check(11, "quartic-group-quadratic-gb")


def test_criterion_12_h_vector_dual_route():
    _check(12, "h-vector-dual-route")


def test_criterion_13_lift_preservation():
    _check(13, "lift-preservation")


def test_criterion_14_quadratic_surface_gb_search():
    _check(14, "quadratic-surface-gb-search")
