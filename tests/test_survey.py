"""Tests for weight canonicalization and survey rows."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random

import pytest

from veroproj.cli import main
from veroproj.errors import GuardExceeded
from veroproj.families import TheoremVerdict
from veroproj.fibers import minimal_generator_table
from veroproj.groups import (
    canonical_group,
    canonical_weight_vectors,
    canonicalize_weights,
    cyclic_group,
    invariants_of_degree,
    parse_group,
    surface_quadraticity,
    triple_projections,
)
from veroproj.survey import (
    SurveyOptions,
    SurveyRow,
    TriState,
    build_survey_row,
    survey_groups,
)


def test_canonical_weight_vectors_basics():
    assert canonical_weight_vectors(2, 2) == [(0, 0, 1)]
    # (0,1,1) is the shift of (0,0,1) by one, so only one of them is kept
    assert (0, 1, 1) not in canonical_weight_vectors(2, 2)
    # gcd-degenerate presentations are someone else's canonical form
    assert (0, 2, 4) not in canonical_weight_vectors(2, 6)
    assert all(any(v) for v in canonical_weight_vectors(2, 5))
    with pytest.raises(ValueError):
        canonical_weight_vectors(0, 4)
    with pytest.raises(ValueError):
        canonical_weight_vectors(2, 0)


def test_canonical_vectors_are_fixed_points():
    for d in range(2, 10):
        for v in canonical_weight_vectors(2, d):
            record = canonicalize_weights(d, v)
            assert not record["changed"], (d, v, record)
            assert record["canonical"] == {"d": d, "weights": list(v)}
    assert all(0 == a0 <= a1 <= a2 < 7 for a0, a1, a2 in canonical_weight_vectors(2, 7))


def test_canonicalize_weights_audit_record():
    record = canonicalize_weights(6, (2, 4, 0))
    assert record["gcd"] == 2
    assert record["spec"] == "C(3;0,1,2)"
    assert record["changed"] is True
    assert record["raw"] == {"d": 6, "weights": [2, 4, 0]}

    # a shift with no gcd reduction
    shifted = canonicalize_weights(2, (0, 1, 1))
    assert shifted["spec"] == "C(2;0,0,1)"
    assert shifted["gcd"] == 1 and shifted["changed"] is True

    fixed = canonicalize_weights(4, (0, 1, 2))
    assert fixed["changed"] is False and fixed["spec"] == "C(4;0,1,2)"


def test_canonicalization_is_invariant_under_shift_and_shuffle():
    rng = random.Random(31)
    for _ in range(80):
        d = rng.randint(2, 12)
        nvars = rng.randint(2, 5)
        weights = tuple(rng.randrange(d) for _ in range(nvars))
        base = canonicalize_weights(d, weights)
        c = rng.randrange(d)
        moved = [(w + c) % d for w in weights]
        rng.shuffle(moved)
        again = canonicalize_weights(d, tuple(moved))
        assert again["spec"] == base["spec"], (d, weights, c, moved)
        # and the canonical form is its own canonical form
        canon = base["canonical"]
        fixed = canonicalize_weights(canon["d"], tuple(canon["weights"]))
        assert not fixed["changed"]


def test_canonical_group_passthrough():
    moved, record = canonical_group(cyclic_group(2, (0, 1, 1)))
    assert moved.spec_string() == "C(2;0,0,1)"
    assert record is not None and record["spec"] == "C(2;0,0,1)"

    same, record = canonical_group(cyclic_group(4, (0, 1, 2)))
    assert same.spec_string() == "C(4;0,1,2)" and record is None

    product = parse_group("C(2;0,1,1)+C(2;0,1,0)")
    untouched, record = canonical_group(product)
    assert untouched is product and record is None


def test_tristate_and_row_validation():
    with pytest.raises(ValueError):
        TriState("maybe", "gut feeling")
    good = {
        "spec": "C(4;0,1,2)",
        "n": 2,
        "d": 4,
        "quadratic": TriState("no", "computation:fiber-components-up-to-3"),
        "koszul": TriState("no", "theorem:surface-koszul-classification"),
        "generator_degrees": {2: 5, 3: 1},
    }
    row = SurveyRow(gq_search={"status": "impossible-non-quadratic"}, **good)
    assert row.to_json_dict()["generator_degrees"] == {"2": 5, "3": 1}

    with pytest.raises(ValueError):
        SurveyRow(gq_search={"status": "found"}, **good)
    with pytest.raises(ValueError):
        SurveyRow(gq_search={"status": "???"}, **good)


def test_row_json_round_trip():
    row = build_survey_row(cyclic_group(4, (0, 1, 2)))
    data = json.loads(json.dumps(row.to_json_dict()))
    back = SurveyRow.from_json_dict(data)
    assert back.spec == row.spec
    assert back.quadratic == row.quadratic
    assert back.koszul == row.koszul
    assert back.generator_degrees == row.generator_degrees
    assert back.gq_search == row.gq_search


def test_build_survey_row_quadratic_surface():
    row = build_survey_row(cyclic_group(4, (0, 1, 2)))
    assert (row.n, row.d) == (2, 4)
    assert row.quadratic.value == "yes"
    assert row.quadratic.provenance.startswith("computation:")
    assert row.koszul.value == "yes"
    assert row.koszul.provenance.startswith("theorem:")
    assert row.gq_search["status"] == "found"
    assert row.gq_search["order"]
    assert max(row.generator_degrees) == 2
    assert row.canonicalization is None
    assert row.guard_error is None
    assert {"invariants_ms", "table_ms", "search_ms"} <= set(row.timings_ms)


def test_build_survey_row_nonquadratic_surface():
    row = build_survey_row(cyclic_group(5, (0, 1, 2)))
    assert row.quadratic.value == "no"
    assert row.koszul.value == "no"
    assert row.gq_search["status"] == "impossible-non-quadratic"
    assert row.gq_search["tried"] == 0
    assert max(row.generator_degrees) > 2


@pytest.mark.parametrize("weights, verdict, raises", [
    # C(4;0,1,2) is quadratic, C(5;0,1,2) is not
    ((4, (0, 1, 2)), TheoremVerdict("NotQuadratic", "proved-by-theorem", "threefold-parity"), True),
    ((4, (0, 1, 2)), TheoremVerdict("NotKoszul", "proved-by-theorem", "surface-koszul-classification"), True),
    ((4, (0, 1, 2)), TheoremVerdict("NotKoszul", "proved-by-theorem", "surface-koszul-noncyclic"), False),
    ((5, (0, 1, 2)), TheoremVerdict("Koszul", "proved-by-theorem", "surface-koszul-classification"), True),
    ((5, (0, 1, 2)), TheoremVerdict("GQuadratic", "proved-by-theorem", "cyclic-extension-gb"), True),
    ((5, (0, 1, 2)), TheoremVerdict("Quadratic", "proved-by-theorem", "threefold-parity"), True),
    ((5, (0, 1, 2)), TheoremVerdict(None, "unknown"), False),
])
def test_build_survey_row_raises_when_a_theorem_contradicts_the_table(monkeypatch, weights, verdict, raises):
    import veroproj.survey

    monkeypatch.setattr(veroproj.survey, "koszul_label", lambda *_, **__: verdict)
    if raises:
        with pytest.raises(AssertionError, match=f"theorem {verdict.citation} says {verdict.property}"):
            build_survey_row(cyclic_group(*weights))
    else:
        build_survey_row(cyclic_group(*weights))


def test_build_survey_row_canonicalizes_first():
    row = build_survey_row(cyclic_group(2, (0, 1, 1)))
    assert row.spec == "C(2;0,0,1)"
    assert row.canonicalization is not None
    assert row.canonicalization["raw"] == {"d": 2, "weights": [0, 1, 1]}


def test_build_survey_row_search_opt_out():
    options = SurveyOptions(search=False)
    row = build_survey_row(cyclic_group(4, (0, 1, 2)), options)
    assert row.quadratic.value == "yes"
    assert row.gq_search["status"] == "not-attempted"
    assert "search_ms" not in row.timings_ms


def test_survey_groups_resume(tmp_path):
    jsonl = tmp_path / "rows.jsonl"
    digest = tmp_path / "rows.csv"
    options = SurveyOptions(jsonl_path=jsonl, csv_path=digest)

    first = survey_groups(2, range(2, 4), options)
    # canonical surfaces: one of order 2, three of order 3
    assert [row.spec for row in first] == [
        "C(2;0,0,1)", "C(3;0,0,1)", "C(3;0,0,2)", "C(3;0,1,2)",
    ]
    # rows are appended one after another, in spec order
    stored = [json.loads(line)["spec"] for line in jsonl.read_text().splitlines()]
    assert stored == [row.spec for row in first]

    # extending the range only appends the new orders
    second = survey_groups(2, range(2, 5), options)
    assert len(second) == 7
    lines = jsonl.read_text().splitlines()
    assert len(lines) == 7

    # a rerun over the same range recomputes nothing
    third = survey_groups(2, range(2, 5), options)
    assert len(jsonl.read_text().splitlines()) == 7
    assert [row.spec for row in third] == [row.spec for row in second]
    assert third == sorted(third, key=lambda r: (r.n, r.d, r.spec))

    with digest.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["spec", "n", "d", "quadratic"]
    assert len(rows) == 1 + 7
    assert [r[0] for r in rows[1:]] == [row.spec for row in third]


def test_survey_resume_drops_a_torn_final_line(tmp_path, caplog):
    jsonl = tmp_path / "rows.jsonl"
    options = SurveyOptions(jsonl_path=jsonl)
    first = survey_groups(2, range(2, 4), options)
    lines = jsonl.read_text().splitlines(keepends=True)
    # an append interrupted mid-object: the last row is cut, no newline
    jsonl.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

    with caplog.at_level("WARNING", logger="veroproj"):
        again = survey_groups(2, range(2, 4), options)
    assert "torn final row" in caplog.text
    assert [row.spec for row in again] == [row.spec for row in first]
    # the torn row was cut and computed again on a line of its own
    stored = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [row["spec"] for row in stored] == [row.spec for row in first]
    for old, new in zip(first, again):
        assert {**old.to_json_dict(), "timings_ms": {}} == {**new.to_json_dict(), "timings_ms": {}}

    # a malformed line that is not the last one is not an interruption
    lines = jsonl.read_text().splitlines(keepends=True)
    jsonl.write_text(lines[0] + lines[1][:10] + "\n" + "".join(lines[2:]))
    with pytest.raises(ValueError, match=":2: malformed survey row"):
        survey_groups(2, range(2, 4), options)


def test_survey_resume_reuses_only_rows_of_the_same_options(tmp_path):
    jsonl = tmp_path / "rows.jsonl"
    plain = survey_groups(2, [4], SurveyOptions(jsonl_path=jsonl, search=False))
    assert {row.gq_search["status"] for row in plain} == {"not-attempted"}

    # rows stored without a search are searched now, each on a new line
    searched = survey_groups(2, [4], SurveyOptions(jsonl_path=jsonl))
    assert {row.gq_search["status"] for row in searched} == {"found"}
    assert len(jsonl.read_text().splitlines()) == 6
    assert survey_groups(2, [4], SurveyOptions(jsonl_path=jsonl)) == searched
    assert len(jsonl.read_text().splitlines()) == 6

    # another seed or budget is another search
    reseeded = survey_groups(2, [4], SurveyOptions(jsonl_path=jsonl, seed=5, budget=7))
    assert all((row.gq_search["seed"], row.gq_search["budget"]) == (5, 7) for row in reseeded)
    assert len(jsonl.read_text().splitlines()) == 9

    # a searched row answers a run without search
    options = SurveyOptions(jsonl_path=jsonl, seed=5, budget=7, search=False)
    assert survey_groups(2, [4], options) == reseeded
    assert len(jsonl.read_text().splitlines()) == 9


def test_survey_resume_reuses_guard_error_rows_of_the_same_guard(tmp_path):
    jsonl = tmp_path / "rows.jsonl"
    # 21 weight vectors fit the guard, the 28 candidate invariants of degree 6 do not
    for guard, lines in ((21, 5), (21, 5), (21, 5), (27, 10), (27, 10)):
        rows = survey_groups(2, [6], SurveyOptions(guard=guard, jsonl_path=jsonl))
        assert len(jsonl.read_text().splitlines()) == lines
        assert len(rows) == 5
        assert all(row.guard_error and row.guard == guard for row in rows)
    stored = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [row["guard"] for row in stored] == [21] * 5 + [27] * 5
    # only guard-error rows record the guard
    row = build_survey_row(cyclic_group(6, (0, 1, 3)))
    assert row.guard is None and "guard" not in row.to_json_dict()


def test_canonical_weight_vectors_checks_its_guard_before_walking(monkeypatch):
    import veroproj.groups

    def forbidden(*args, **kwargs):
        raise AssertionError("the walk started past its guard")

    monkeypatch.setattr(veroproj.groups, "_least_shift", forbidden)
    with pytest.raises(GuardExceeded) as exc:
        canonical_weight_vectors(6, 60, guard=10**6)
    assert exc.value.count == math.comb(65, 6)
    monkeypatch.undo()
    assert len(canonical_weight_vectors(2, 6, guard=21)) == 5
    with pytest.raises(GuardExceeded):
        canonical_weight_vectors(2, 6, guard=20)
    with pytest.raises(GuardExceeded):
        survey_groups(2, [6], SurveyOptions(guard=20))


def test_survey_csv_digest_is_replaced_atomically(tmp_path, monkeypatch):
    import veroproj.survey

    jsonl, digest = tmp_path / "rows.jsonl", tmp_path / "rows.csv"
    options = SurveyOptions(jsonl_path=jsonl, csv_path=digest, search=False)
    survey_groups(2, range(2, 4), options)
    before = digest.read_text()

    real_writer = csv.writer

    class DiesMidway:
        def __init__(self, fh):
            self.writer = real_writer(fh)

        def writerow(self, row):
            if row[0] == "C(4;0,0,3)":
                raise OSError("disk full")
            self.writer.writerow(row)

    # a digest write that dies halfway leaves the previous digest whole
    monkeypatch.setattr(veroproj.survey.csv, "writer", DiesMidway)
    with pytest.raises(OSError, match="disk full"):
        survey_groups(2, range(2, 5), options)
    assert digest.read_text() == before
    assert not (tmp_path / "rows.csv.tmp").exists()
    monkeypatch.undo()

    survey_groups(2, range(2, 5), options)
    with digest.open() as fh:
        assert len(list(csv.reader(fh))) == 1 + 7


NOT_SEARCHED = ("not-attempted", "impossible-non-quadratic")


def _unit_class(row: SurveyRow) -> tuple[int, ...]:
    """The least canonical weights over the unit multiples of a row's
    weights, from the definition: every unit, every shift, sorted."""
    d, weights = row.d, parse_group(row.spec).factors[0].weights
    return min(
        min(tuple(sorted((u * w - c) % d for w in weights)) for c in range(d))
        for u in range(1, d + 1) if math.gcd(u, d) == 1
    )


def test_survey_builds_one_table_per_unit_class_and_per_searched_row(monkeypatch):
    import veroproj.fibers
    import veroproj.groebner
    import veroproj.survey

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return veroproj.fibers.minimal_generator_table(*args, **kwargs)

    monkeypatch.setattr(veroproj.survey, "minimal_generator_table", counting)
    monkeypatch.setattr(veroproj.groebner, "minimal_generator_table", counting)
    rows = survey_groups(2, [5, 6], SurveyOptions())
    searched = [row for row in rows if row.gq_search["status"] not in NOT_SEARCHED]
    assert len(searched) >= 2
    # a searched row needs a table in its own index order; any other row
    # is served by the first table of its unit class
    classes = {(r.d, _unit_class(r)) for r in rows}
    unsearched_classes = classes - {(r.d, _unit_class(r)) for r in searched}
    assert unsearched_classes
    assert len(calls) == len(searched) + len(unsearched_classes)

    calls.clear()
    rows = survey_groups(3, [8, 9, 10], SurveyOptions(search=False))
    assert len(rows) == 140
    assert len(calls) == len({(r.d, _unit_class(r)) for r in rows}) == 42


@pytest.mark.parametrize("n, orders, options", [
    (2, range(2, 25), SurveyOptions()),
    (3, range(4, 11), SurveyOptions(search=False)),
    (3, range(4, 11), SurveyOptions()),
    (4, range(2, 9), SurveyOptions(search=False)),
    # the degree-3 fibers of some classes trip the guard, of others not
    (2, range(12, 17), SurveyOptions(guard=300)),
])
def test_survey_rows_equal_fresh_rows(n, orders, options):
    rows = survey_groups(n, orders, options)
    if options.guard == 300:
        tripped = {(r.d, _unit_class(r)) for r in rows if r.guard_error}
        assert tripped and len(tripped) < len({(r.d, _unit_class(r)) for r in rows})
    for row in rows:
        fresh = build_survey_row(parse_group(row.spec), options)
        assert {**row.to_json_dict(), "timings_ms": None} == {**fresh.to_json_dict(), "timings_ms": None}


def test_a_searched_row_raises_when_its_table_disagrees_with_its_class(monkeypatch):
    import veroproj.survey

    real = veroproj.survey.minimal_generator_table
    calls = []

    def wrong_first(*args, **kwargs):
        table = real(*args, **kwargs)
        calls.append(table)
        if len(calls) == 1:  # C(5;0,0,1), first of its class
            table = dataclasses.replace(table, degrees={**table.degrees, 2: table.degrees[2] + 1})
        return table

    monkeypatch.setattr(veroproj.survey, "minimal_generator_table", wrong_first)
    with pytest.raises(AssertionError, match=r"C\(5;0,0,2\): its own generator table gives"):
        survey_groups(2, [5], SurveyOptions())


def test_survey_logs_one_progress_line_per_order(tmp_path, caplog):
    options = SurveyOptions(jsonl_path=tmp_path / "rows.jsonl", search=False)
    survey_groups(3, [8], options)
    with caplog.at_level("INFO", logger="veroproj"):
        survey_groups(3, [8, 9], options)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("survey ")]
    assert len(lines) == 2
    assert lines[0].startswith(
        "survey n=3 d=8: 33 rows in 13 unit classes, 33 reused from the store, "
        "0 served from a shared outcome, "
    )
    assert lines[1].startswith(
        "survey n=3 d=9: 50 rows in 11 unit classes, 0 reused from the store, "
        "39 served from a shared outcome, "
    )
    assert lines[1].endswith(" s")


def test_survey_rows_without_store(tmp_path):
    rows = survey_groups(2, [4], SurveyOptions(search=False))
    assert [row.spec for row in rows] == ["C(4;0,0,1)", "C(4;0,0,3)", "C(4;0,1,2)"]
    for row in rows:
        assert row.gq_search["status"] in ("not-attempted", "impossible-non-quadratic")


def test_conjecture1_consistent_cases():
    options = SurveyOptions(search=False)
    # a quadratic parent whose triples all pass the criterion
    quartic = build_survey_row(parse_group("C(4;0,1,2,3)"), options)
    assert quartic.quadratic.value == "yes"
    assert quartic.conjecture1 == {"status": "consistent", "failing_triples": []}

    # a non-quadratic parent with at least one failing triple
    quintic = build_survey_row(parse_group("C(5;0,1,2,3)"), options)
    assert quintic.quadratic.value == "no"
    assert quintic.conjecture1["status"] == "consistent"
    assert quintic.conjecture1["failing_triples"]
    assert any(k > 2 for k in quintic.generator_degrees)
    assert SurveyRow.from_json_dict(quintic.to_json_dict()).conjecture1 == quintic.conjecture1

    # surfaces are the base case, and a noncyclic group has no triple restrictions
    for group in ("C(4;0,1,2)", "C(2;0,1,1,0)+C(2;0,0,1,1)"):
        row = build_survey_row(parse_group(group), options)
        assert row.quadratic.value != "unknown"
        assert row.conjecture1 is None and "conjecture1" not in row.to_json_dict()


def _b1_quadratic(group) -> bool:
    b1 = invariants_of_degree(group, 1)
    return minimal_generator_table(b1, bound="group").quadraticity().status == "yes"


def test_conjecture1_failing_triples_match_the_restricted_tables():
    # the gcd criterion against the fiber route, on every restriction of every
    # canonical threefold group with d <= 8
    rows = survey_groups(3, range(2, 9), SurveyOptions(search=False))
    assert rows
    for row in rows:
        group = parse_group(row.spec)
        failing = [list(t) for t, restricted in triple_projections(group) if not _b1_quadratic(restricted)]
        assert row.conjecture1 == {"status": "consistent", "failing_triples": failing}, row.spec


def test_conjecture1_flags_a_failing_triple_of_a_quadratic_parent(monkeypatch):
    import veroproj.survey

    def failing_one(group):
        crit = surface_quadraticity(group)
        return dataclasses.replace(crit, quadratic=False) if group.spec_string() == "C(4;0,1,3)" else crit

    monkeypatch.setattr(veroproj.survey, "surface_quadraticity", failing_one)
    row = build_survey_row(parse_group("C(4;0,1,2,3)"), SurveyOptions(search=False))
    assert row.quadratic.value == "yes"
    assert row.conjecture1 == {"status": "counterexample-candidate", "failing_triples": [[0, 1, 3]]}


def test_survey_resume_recomputes_threefold_rows_without_a_conjecture1_verdict(tmp_path):
    jsonl = tmp_path / "rows.jsonl"
    options = SurveyOptions(jsonl_path=jsonl, search=False)
    first = survey_groups(3, [3], options)
    assert all(row.conjecture1 for row in first)
    # the store as it was written before rows carried the verdict
    old = [json.loads(line) for line in jsonl.read_text().splitlines()]
    jsonl.write_text("".join(
        json.dumps({k: v for k, v in row.items() if k != "conjecture1"}, sort_keys=True) + "\n"
        for row in old
    ))

    again = survey_groups(3, [3], options)
    assert [row.conjecture1 for row in again] == [row.conjecture1 for row in first]
    stored = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [row["spec"] for row in stored] == [row.spec for row in first] * 2
    assert [row["conjecture1"] for row in stored[len(first):]] == [row.conjecture1 for row in first]
    # the later line wins, so a rerun recomputes nothing
    assert survey_groups(3, [3], options) == again
    assert len(jsonl.read_text().splitlines()) == 2 * len(first)


def test_group_report_shape(capsys):
    def group_row(group: str) -> dict:
        assert main(["survey", "--group", group, "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        return row

    found = group_row("C(6;0,1,3)")
    assert found["quadratic"]["value"] == "yes"
    assert found["gq_search"]["status"] == "found"
    assert found["gq_search"]["order"]

    hopeless = group_row("C(5;0,1,2)")
    assert hopeless["quadratic"]["value"] == "no"
    assert hopeless["gq_search"]["status"] == "impossible-non-quadratic"
    assert hopeless["gq_search"]["tried"] == 0
