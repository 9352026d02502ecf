"""Tests for family specs, theorem labels, and the scenario runner."""

from __future__ import annotations

import json
import random

import pytest

from veroproj.errors import SpecParseError
from veroproj.families import (
    CITATIONS,
    FamilySpec,
    TheoremVerdict,
    koszul_label,
    parse_family,
    run_scenario,
    scenario_names,
)
from veroproj.fibers import minimal_generator_table
from veroproj.monomials import MonomialSet

# Degree-4 invariants of C(4;0,1,2,3), worked out by hand from the
# congruence b + 2c + 3d = 0 mod 4 on exponent vectors (a,b,c,d).
QUARTIC_SLICE = {
    (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
    (2, 1, 0, 1), (1, 2, 1, 0), (0, 1, 2, 1), (1, 0, 1, 2),
    (2, 0, 2, 0), (0, 2, 0, 2),
}


def test_parse_family_round_trip():
    texts = [
        "pinched(3,5,2)",
        "support(2,4,1; 2 1 1, 1 2 1)",
        "complement(2,4; 2 2 0)",
        "ci(2,5,2)",
        "koszul1(2,2)",
        "koszul2(3,2)",
        "group(C(4;0,1,2,3))",
        "group(C(6;0,1,3), 2)",
    ]
    for text in texts:
        spec = parse_family(text)
        canonical = spec.spec_string()
        again = parse_family(canonical)
        assert again.spec_string() == canonical
        assert again.kind == spec.kind

    # full(n,d) is stored as the pinched family with the trivial bound
    full = parse_family("full(2,3)")
    assert (full.kind, full.n, full.d, full.s) == ("pinched", 2, 3, 3)

    explicit = parse_family("file:/tmp/omega.txt")
    assert explicit.kind == "explicit" and explicit.path == "/tmp/omega.txt"


def test_parse_family_rejects_malformed_text():
    bad = [
        "nope(1,2)",
        "pinched(1,2)",  # wrong arity
        "pinched(a,2,3)",
        "pinched(3,5,2",  # unbalanced
        "complement(2,4)",  # missing removed exponents
        "complement(2,4; 1 1)",  # wrong exponent count
        "group(C(4;0,1,2,3), x)",
        "group(C(4;0,1,2,3), 1, 2)",
        "file:",
    ]
    for text in bad:
        with pytest.raises(SpecParseError):
            parse_family(text)


def test_build_pinched_and_support():
    pv = parse_family("pinched(2,3,2)").build()
    # full(2,3) has 10 members and (1,1,1) is the only one on full support
    assert len(pv) == 9
    assert (1, 1, 1) not in {tuple(m) for m in pv}

    patched = parse_family("support(2,3,2; 1 1 1)").build()
    assert {tuple(m) for m in patched} == {tuple(m) for m in MonomialSet.full(2, 3)}

    with pytest.raises(ValueError):
        parse_family("support(2,3,2; 1 1 2)").build()  # degree 4 extra
    with pytest.raises(ValueError):
        parse_family("support(2,3,2; 3 0 0)").build()  # already in the core


def test_build_complement_ci_and_koszul_kinds():
    squareless = parse_family("complement(2,4; 2 2 0)").build()
    assert len(squareless) == 14
    assert (2, 2, 0) not in {tuple(m) for m in squareless}

    ci = parse_family("ci(2,5,2)").build()
    # degree-5 triples with max <= 2 are the three permutations of (2,2,1)
    assert len(ci) == 21 - 3
    assert all(max(m) >= 3 for m in ci)

    k1 = parse_family("koszul1(2,2)").build()
    assert k1.d == 6 and len(k1) == 28 - 1
    assert (2, 2, 2) not in {tuple(m) for m in k1}

    k2 = parse_family("koszul2(2,2)").build()
    assert k2.d == 5 and len(k2) == 21 - 3
    removed = {(1, 2, 2), (2, 1, 2), (2, 2, 1)}
    assert removed & {tuple(m) for m in k2} == set()

    # removing the whole degree leaves nothing to project
    with pytest.raises(ValueError):
        parse_family("koszul2(1,1)").build()


def test_build_group_slice():
    spec = parse_family("group(C(4;0,1,2,3))")
    omega = spec.build()
    assert omega.d == 4
    assert {tuple(m) for m in omega} == QUARTIC_SLICE

    doubled = parse_family("group(C(4;0,1,2,3), 2)")
    slice2 = doubled.build()
    assert slice2.d == 8
    assert len(slice2) == 22
    for m in slice2:
        a, b, c, d = tuple(m)
        assert a + b + c + d == 8
        assert (b + 2 * c + 3 * d) % 8 == 0


def test_theorem_verdict_validation():
    ok = TheoremVerdict("Koszul", "proved-by-theorem", "removed-power-koszul")
    assert ok.to_json_dict() == {
        "property": "Koszul",
        "status": "proved-by-theorem",
        "citation": "removed-power-koszul",
    }
    with pytest.raises(ValueError):
        TheoremVerdict("Koszul", "guessed")
    with pytest.raises(ValueError):
        TheoremVerdict("Sparkly", "computed-unconditionally")
    with pytest.raises(ValueError):
        TheoremVerdict("Koszul", "proved-by-theorem", "no-such-citation")
    with pytest.raises(ValueError):
        TheoremVerdict("Quadratic", "computed-up-to")  # missing k_max
    with pytest.raises(ValueError):
        TheoremVerdict("Koszul", "unknown")  # unknown carries no property


def test_koszul_label_fixed_rules():
    cases = [
        ("full(3,4)", "GQuadratic", "full-veronese-gb"),
        ("pinched(2,3,2)", "Koszul", "pinched-veronese-232-koszul"),
        ("pinched(4,3,3)", "Quadratic", "support-half-quadratic"),
        ("ci(2,7,2)", "Koszul", "large-exponent-complement-koszul"),
        ("koszul1(3,2)", "Koszul", "removed-power-koszul"),
        ("koszul2(3,2)", "Koszul", "removed-orbit-koszul"),
        ("group(C(5;0,1,2), 2)", "GQuadratic", "cyclic-extension-gb"),
        ("group(C(6;0,1,3))", "GQuadratic", "rc-order-quadratic-gb"),
        ("group(C(4;0,1,3))", "GQuadratic", "even-reflection-gb"),
        ("group(C(4;0,2,2))", "GQuadratic", "veronese-power-gb"),
        ("group(C(5;0,1,2))", "NotKoszul", "surface-koszul-classification"),
        ("group(C(4;0,1,2,3))", "GQuadratic", "quartic-threefold-revlex-gb"),
        ("group(C(5;0,1,2,3))", "NotQuadratic", "threefold-parity"),
        ("group(C(6;0,1,2,3))", "Quadratic", "threefold-parity"),
        # a shifted presentation of the same threefold weights
        ("group(C(6;1,2,3,4))", "Quadratic", "threefold-parity"),
    ]
    for text, prop, citation in cases:
        verdict = koszul_label(parse_family(text))
        assert verdict.property == prop, text
        assert verdict.status == "proved-by-theorem", text
        assert verdict.citation == citation, text
        assert citation in CITATIONS

    # near misses fall back to unknown instead of extrapolating
    for text in ("pinched(4,3,2)", "ci(2,3,2)", "group(C(5;0,1,2,4))"):
        verdict = koszul_label(parse_family(text))
        assert verdict.status == "unknown" and verdict.property is None, text
    assert koszul_label(FamilySpec("explicit", path="x")).status == "unknown"


def test_group_label_details_per_route():
    # `label --json` prints these details; one group per route of the surface
    # verdict, and the threefold parity rule on an unsorted shift
    cases = [
        ("C(6;0,2,3)", "Koszul", "surface-koszul-classification", "normal form (0, 2, 3), gcd product 6"),
        ("C(5;0,1,2)", "NotKoszul", "surface-koszul-classification", "normal form (0, 1, 2), gcd product 1"),
        ("C(5;0,0,0)", "Koszul", "surface-koszul-classification", "normal form (0, 0, 0), gcd product None"),
        ("C(5;0,0,2)", "Koszul", "surface-koszul-classification", "normal form (0, 0, 2), gcd product 5"),
        ("C(2;0,1,1)+C(4;0,2,3)", "Koszul", "surface-koszul-noncyclic", "nontrivial invariant-factor chain [2, 4]"),
        ("C(2;0,1,1)+C(3;0,1,2)", "Koszul", "surface-koszul-classification", "witness (0, 3, 3)"),
        ("C(1;0,0,0)+C(5;0,1,2)", "NotKoszul", "surface-koszul-classification",
         "no invariant uses exactly two variables"),
        ("C(6;0,2,1,3)", "Quadratic", "threefold-parity", "order 6 is even"),
    ]
    for group, prop, citation, detail in cases:
        verdict = koszul_label(parse_family(f"group({group})"))
        assert (verdict.property, verdict.citation, verdict.detail) == (prop, citation, detail), group


def test_labels_never_contradict_computation():
    # any theorem label must agree with a direct generator-degree count
    rng = random.Random(7)
    seen_positive = seen_negative = 0
    for _ in range(30):
        d = rng.randint(2, 8)
        a1 = rng.randint(0, d - 1)
        a2 = rng.randint(a1, d - 1)
        spec = parse_family(f"group(C({d};0,{a1},{a2}))")
        verdict = koszul_label(spec)
        omega = spec.build()
        table = minimal_generator_table(omega, bound="group")
        quadratic = table.quadraticity().status == "yes"
        if verdict.property in ("Quadratic", "Koszul", "GQuadratic"):
            assert quadratic, (spec.spec_string(), verdict, table.degrees)
            seen_positive += 1
        elif verdict.property == "NotQuadratic":
            assert not quadratic, (spec.spec_string(), verdict)
            seen_negative += 1
    assert seen_positive >= 5


def test_labels_never_contradict_computation_threefolds():
    rng = random.Random(11)
    for _ in range(6):
        d = rng.randint(4, 6)
        spec = parse_family(f"group(C({d};0,1,2,3))")
        verdict = koszul_label(spec)
        table = minimal_generator_table(spec.build(), bound="group")
        quadratic = table.quadraticity().status == "yes"
        if verdict.property in ("Quadratic", "GQuadratic"):
            assert quadratic, (d, table.degrees)
        elif verdict.property == "NotQuadratic":
            assert not quadratic, (d, table.degrees)
        else:
            raise AssertionError(f"threefold rule missed d={d}")


def test_scenario_registry_and_report_shape():
    names = scenario_names()
    assert len(names) == 14
    assert len(set(names)) == 14

    report = run_scenario("square-complement-table")
    assert report["overall"] == "pass"
    for step in report["steps"]:
        assert set(step) == {"op", "inputs", "expected", "actual", "match"}
    json.dumps(report)  # reports must serialize as-is

    with pytest.raises(SpecParseError) as err:
        run_scenario("no-such-scenario")
    assert "escalating-generator-degrees" in str(err.value)


def test_escalating_scenario_tables():
    report = run_scenario("escalating-generator-degrees")
    assert report["overall"] == "pass"
    got = {step["inputs"]["k_max"] - 1: step["actual"] for step in report["steps"]}
    assert got == {
        4: {"2": 2, "4": 1},
        5: {"2": 1, "3": 2, "5": 1},
        6: {"2": 4, "6": 1},
    }


def test_scenario_mismatches_are_isolated():
    # the two scenarios that once tracked refuted claims now assert the
    # proved statements and keep the refuted claims visible in the report
    removal = run_scenario("two-normal-complements")
    assert removal["overall"] == "pass"
    sweeps = [s for s in removal["steps"] if s["op"] == "two-normal-removal-sweep"]
    assert len(sweeps) == 3
    for step in sweeps:
        n = step["inputs"]["n"]
        d = step["inputs"]["d"]
        offenders = step["actual"]["not-2-normal"]
        # one near-power per ordered pair i != j of the n + 1 variables
        assert len(offenders) == n * (n + 1)
        # every offender is a near-power x_i^{d-1} x_j
        for label in offenders:
            exps = [0] * (n + 1)
            for piece in label.split("*"):
                piece = piece.strip()
                var, _, power = piece.partition("^")
                exps[int(var[1:])] = int(power) if power else 1
            assert sorted(exps, reverse=True)[:2] == [d - 1, 1], label

    hvec = run_scenario("h-vector-dual-route")
    assert hvec["overall"] == "pass"
    (value,) = [s for s in hvec["steps"] if s["op"] == "h-vector-value"]
    assert value["expected"] == [1, 6, 9, 0]
    assert value["actual"] == [1, 6, 9, 0]
    assert value["inputs"]["recorded-claim"] == [1, 6, 4, 0]


def test_ci_label_cutoff_is_sharp():
    # scan the rule boundary: the proved region is exactly s*lam*(n+1) > (lam+1)*n
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        lam = rng.randint(1, 4)
        d = rng.randint(lam + 1, 4 * lam + 1)
        spec = parse_family(f"ci({n},{d},{lam})")
        verdict = koszul_label(spec)
        s = (d - 1) // lam
        expected = s * lam * (n + 1) > (lam + 1) * n
        assert (verdict.property == "Koszul") == expected, (n, d, lam)
        if not expected:
            assert verdict.status == "unknown"
