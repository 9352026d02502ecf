"""End-to-end tests of the command line, including exit codes."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veroproj
from veroproj import cli, groebner, survey
from veroproj.cli import main
from veroproj.families import parse_family
from veroproj.groebner import Binomial, GroebnerBasis, parse_order, toric_generators, verify_groebner
from veroproj.groups import parse_group
from veroproj.monomials import read_omega


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_omega_text_round_trips(tmp_path, capsys):
    path = tmp_path / "pv.txt"
    code = main(["omega", "pinched(3,5,2)", "--out", str(path)])
    assert code == 0
    omega = read_omega(path)
    expected = parse_family("pinched(3,5,2)").build()
    assert {tuple(m) for m in omega} == {tuple(m) for m in expected}
    assert omega.n == 3 and omega.d == 5


def test_omega_json(capsys):
    code, out, _ = run(capsys, "omega", "pinched(2,3,2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "pinched(2,3,2)"
    assert payload["size"] == 9
    assert [1, 1, 1] not in payload["members"]


def test_mingens_text(capsys):
    code, out, _ = run(capsys, "mingens", "complement(2,4; 2 2 0)")
    assert code == 0
    assert "degree 2: 60 minimal generators" in out
    assert "degree 3: 3 minimal generators" in out
    assert "quadratic: no" in out


def test_hilbert_values(capsys):
    code, out, _ = run(capsys, "hilbert", "full(2,2)", "--max-degree", "2")
    assert code == 0
    assert out.splitlines() == ["HF(0) = 1", "HF(1) = 6", "HF(2) = 15"]


def test_normal2(capsys):
    code, out, _ = run(capsys, "normal2", "full(2,3)")
    assert code == 0 and out.strip() == "2-normal"

    code, out, _ = run(capsys, "normal2", "pinched(3,5,2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["two_normal"] is False
    assert sum(payload["witness"]) == 10  # a degree-2k monomial, k = 5


def test_hvec_routes(capsys):
    code, out, _ = run(capsys, "hvec", "group(C(4;0,1,2,3))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "group-slice"
    assert payload["h"] == [1, 6, 9, 0]

    code, out, _ = run(capsys, "hvec", "full(2,2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["route"] == "series"
    assert payload["h"] == [1, 3, 0]


def test_gb_text_and_json(capsys):
    code, out, _ = run(capsys, "gb", "full(1,3)")
    assert code == 0
    assert "3 binomials, max degree 2 (quadratic)" in out

    code, out, _ = run(capsys, "gb", "full(1,3)", "--order", "lex : w3 > w2 > w1 > w0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_degree"] >= 2
    assert payload["size"] == len(payload["elements"])


def test_gb_on_a_bounded_seed_keeps_every_s_pair(capsys):
    """`--max-degree 2` on C(5;0,1,2,3) seeds only its quadrics, which
    generate less than the toric ideal, so `gb` turns the trail criterion
    off: with it, this seed lost one of its 27 elements.  The digest is
    SHA-256 of the sorted [plus, minus] pairs."""
    family = "group(C(5;0,1,2,3))"
    code, out, _ = run(capsys, "gb", family, "--order", "lex", "--max-degree", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    pairs = sorted([e["plus"], e["minus"]] for e in payload["elements"])
    assert payload["size"] == len(pairs) == 27
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == (
        "65fc1f0974b4ac78b16f4533f8422a16eebb2edf44e5c8dd3be3138ed84e751d"
    )
    omega = parse_family(family).build()
    order = parse_order("lex", omega)
    elements = tuple(Binomial(tuple(e["plus"]), tuple(e["minus"])) for e in payload["elements"])
    gb = GroebnerBasis(elements, order, payload["max_degree"])
    assert verify_groebner(gb, toric_generators(omega, k_max=2))


def test_gb_search_outcomes(capsys):
    code, out, _ = run(capsys, "gb-search", "group(C(6;0,1,3))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["order"]

    code, out, _ = run(capsys, "gb-search", "group(C(5;0,1,2))", "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "family", "status", "order", "tried", "budget", "seed", "impossible", "warning"
    ]
    assert payload["status"] == "not-found-within"
    assert payload["impossible"] is True
    assert payload["tried"] == 0  # the degree-3 generator rules the search out upfront
    assert "degree 3" in payload["warning"]


def test_gb_search_text_lines(capsys):
    code, out, _ = run(capsys, "gb-search", "pinched(2,3,2)", "--budget", "5")
    assert (code, out) == (0, "not found within budget 5 (seed 0, tried 5)\n")

    # a user horizon certifies the table only that far, so a found order carries a note
    code, out, _ = run(capsys, "gb-search", "full(2,3)", "--max-degree", "2")
    found, note = out.splitlines()
    assert code == 0 and found.startswith("found: ")
    assert note.startswith("note: generator table only certified up to degree 2; ")


def test_a_file_family_runs_end_to_end(tmp_path, capsys):
    path = tmp_path / "pinched.txt"
    assert main(["omega", "pinched(2,3,2)", "--out", str(path)]) == 0
    _, expected, _ = run(capsys, "omega", "pinched(2,3,2)", "--json")
    code, out, _ = run(capsys, "omega", f"file:{path}", "--json")
    assert code == 0 and json.loads(out)["members"] == json.loads(expected)["members"]

    code, out, _ = run(capsys, "mingens", f"file:{path}")
    assert code == 0
    assert out == (
        f"family file:{path}\n"
        "degree 2: 17 minimal generators\n"
        "completeness: two-normal bound, verified up to degree 3\n"
        "quadratic: yes\n"
    )

    code, out, _ = run(capsys, "label", f"file:{path}")
    assert (code, out) == (0, f"file:{path}: no applicable rule\n")


def test_lift_with_certified_basis(capsys):
    code, out, _ = run(
        capsys, "lift", "group(C(4;0,1,3))", "--sizes", "2,1,1",
        "--order", "degrevlex", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["d"] == 4
    assert payload["max_degree"] == 2
    assert payload["basis_size"] == 21

    # malformed sizes and non-group bases are usage errors
    code, _, err = run(capsys, "lift", "group(C(4;0,1,3))", "--sizes", "2,x")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "lift", "full(2,2)", "--sizes", "2,1,1", "--order", "degrevlex")
    assert code == 2 and "error:" in err


def test_lift_order_checks_the_block_group(monkeypatch):
    # the lifted order ranks the lifted members and Buchberger's generators
    # index the block group's invariants, so the two must agree member for member
    block_group = cli.block_group
    monkeypatch.setattr(cli, "block_group", lambda group, sizes: block_group(group, sizes[::-1]))
    with pytest.raises(AssertionError, match="not the block group's invariants"):
        main(["lift", "group(C(4;0,1,3))", "--sizes", "2,1,1", "--order", "degrevlex"])


# orders under which each basis is quadratic, so `toric_basis` reads it off the fibers
FIBER_ROUTE_COMMANDS = [
    ("gb", "full(2,3)", "--order", "degrevlex"),
    ("gb", "pinched(3,2,2)", "--order", "lex"),
    ("gb", "group(C(12;0,1,3))", "--order", "rc(12,3,2)"),
    ("gb", "group(C(4;0,1,2,3))", "--order", "revlex : w0 > w2 > w8 > w3 > w5 > w1 > w7 > w4 > w6 > w9"),
    ("lift", "group(C(6;0,1,3))", "--sizes", "1,2,2", "--order", "rc(6,3,1)"),
    ("lift", "group(C(6;0,1,3))", "--sizes", "1,1,3", "--order", "rc(6,3,1)"),
]


@pytest.mark.parametrize("argv", FIBER_ROUTE_COMMANDS)
def test_fiber_route_prints_what_buchberger_prints(monkeypatch, capsys, argv):
    """`gb --json` and `lift --order --json` print the same bytes when
    `quadratic_basis` gives up and Buchberger runs instead."""
    found = []
    quadratic_basis = groebner.quadratic_basis
    monkeypatch.setattr(
        groebner, "quadratic_basis", lambda *args: found.append(quadratic_basis(*args)) or found[-1]
    )
    code, fibers, _ = run(capsys, *argv, "--json")
    assert code == 0 and len(found) == 1 and found[0] is not None
    monkeypatch.setattr(groebner, "quadratic_basis", lambda *args: None)
    code, buchberger, _ = run(capsys, *argv, "--json")
    assert code == 0 and buchberger == fibers


@pytest.mark.parametrize("sizes, total", [("1,1", 2), ("1,1,1,1", 4)])
def test_gb_rejects_lift_sizes_that_miss_the_variables(capsys, sizes, total):
    code, out, err = run(capsys, "gb", "full(2,2)", "--order", f"lift(lex; sizes={sizes})")
    assert code == 2 and out == ""
    assert f"sizes sum to {total}, but the monomials have 3 variables" in err


def test_label_subcommand(capsys):
    code, out, _ = run(capsys, "label", "pinched(2,3,2)")
    assert code == 0
    assert "Koszul (proved-by-theorem, pinched-veronese-232-koszul)" in out

    code, out, _ = run(capsys, "label", "pinched(4,3,2)")
    assert code == 0 and "no applicable rule" in out


def test_scenario_exit_codes(capsys):
    code, out, _ = run(capsys, "scenario", "square-complement-table")
    assert code == 0
    assert "overall: pass" in out

    code, out, _ = run(capsys, "scenario", "h-vector-dual-route")
    assert code == 0
    assert "overall: pass" in out

    # with no candidate order to try, every quadratic surface group is missed
    code, out, _ = run(capsys, "scenario", "quadratic-surface-gb-search", "--budget", "0")
    assert code == 1
    assert "FAIL gb-search-sweep" in out
    assert "overall: fail" in out

    code, _, err = run(capsys, "scenario", "bogus")
    assert code == 2
    assert "quadratic-surface-gb-search" in err  # the listing names every scenario


def test_unreadable_family_file_exits_two(tmp_path, capsys):
    # exit 1 means a scenario mismatch, so a file that cannot be read is a usage error
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, "normal2", f"file:{path}")
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("argv", [
    ("survey", "--d-max", "3", "--jsonl", "{missing}/x.jsonl"),
    ("survey", "--d-max", "3", "--csv", "{missing}/x.csv"),
    ("omega", "full(2,2)", "--out", "{missing}/x.txt"),
])
def test_unwritable_output_exits_two(tmp_path, monkeypatch, capsys, argv):
    # a survey checks its store and CSV paths before it builds the first row
    monkeypatch.setattr(survey, "build_survey_row", lambda *_: pytest.fail("a row was built"))
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[-1]}: cannot write: No such file or directory\n"


def test_survey_usage_and_rows(tmp_path, capsys):
    code, _, err = run(capsys, "survey")
    assert code == 2 and "--d-max" in err

    jsonl = tmp_path / "rows.jsonl"
    code, out, _ = run(
        capsys, "survey", "--d-max", "3", "--no-search",
        "--jsonl", str(jsonl), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    specs = [row["spec"] for row in payload["rows"]]
    assert specs == ["C(2;0,0,1)", "C(3;0,0,1)", "C(3;0,0,2)", "C(3;0,1,2)"]
    assert len(jsonl.read_text().splitlines()) == 4


def _stored_row(**changes) -> dict:
    row = survey.build_survey_row(parse_group("C(3;0,1,2)")).to_json_dict()
    return {**row, **changes}


@pytest.mark.parametrize("line", [
    {},
    [1, 2],
    _stored_row(koszul={"value": "maybe", "provenance": "no-rule"}),
    _stored_row(surplus=1),  # a key the row has no field for
])
def test_a_store_line_that_is_not_a_row_exits_two(tmp_path, capsys, line):
    jsonl = tmp_path / "rows.jsonl"
    jsonl.write_text(json.dumps(line) + "\n")
    code, out, err = run(capsys, "survey", "--d-max", "3", "--jsonl", str(jsonl))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {jsonl}:1: not a survey row: ")
    assert jsonl.read_text() == json.dumps(line) + "\n"


@pytest.mark.parametrize("changes", [
    {"n": "two"},
    {"d": True},
    {"spec": 3},
    {"generator_degrees": {"2": "2"}},
    {"gq_search": {"status": "found", "order": "lex : w0", "tried": 1.0, "budget": 200, "seed": 0}},
    {"guard": "100"},
])
def test_a_store_row_with_fields_of_the_wrong_type_exits_two(tmp_path, capsys, changes):
    jsonl = tmp_path / "rows.jsonl"
    jsonl.write_text(json.dumps(_stored_row(**changes)) + "\n")
    code, out, err = run(capsys, "survey", "--d-max", "3", "--jsonl", str(jsonl))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {jsonl}:1: not a survey row: TypeError: ")


def test_survey_prints_one_progress_line_per_order_on_stderr(capsys):
    logger = logging.getLogger("veroproj")
    before = (list(logger.handlers), logger.level)
    code, out, err = run(capsys, "survey", "--d-max", "3", "--no-search", "--json")
    assert code == 0
    assert [row["spec"] for row in json.loads(out)["rows"]] == [
        "C(2;0,0,1)", "C(3;0,0,1)", "C(3;0,0,2)", "C(3;0,1,2)",
    ]
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("survey n=2 d=2: 1 rows in 1 unit classes")
    assert lines[1].startswith("survey n=2 d=3: 3 rows in 2 unit classes")
    # main detaches its handler, so in-process callers do not collect them
    assert (logger.handlers, logger.level) == before


def test_survey_conjecture_flags(capsys):
    code, out, _ = run(capsys, "survey", "--group", "C(4;0,1,2,3)", "--json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["conjecture1"] == {"status": "consistent", "failing_triples": []}

    code, out, _ = run(capsys, "survey", "--group", "C(5;0,1,2,3)")
    assert code == 0
    assert out.endswith(", conjecture1 consistent\n")
    code, out, _ = run(capsys, "survey", "--group", "C(5;0,1,2,3)", "--json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["quadratic"]["value"] == "no"
    assert row["conjecture1"]["status"] == "consistent" and row["conjecture1"]["failing_triples"]

    code, out, _ = run(capsys, "survey", "--group", "C(5;0,1,2)")
    assert code == 0
    assert "search impossible-non-quadratic" in out and "conjecture1" not in out


def _without_timings(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "timings_ms"}


@pytest.mark.parametrize("group, d, spec", [
    ("C(12;0,1,3)", 12, "C(12;0,1,3)"),
    ("C(6;1,2,4)", 6, "C(6;0,1,3)"),  # non-canonical: reported as its canonical form
    ("C(5;0,1,2)", 5, "C(5;0,1,2)"),  # non-quadratic
])
def test_survey_group_prints_the_range_survey_row(capsys, group, d, spec):
    code, out, _ = run(capsys, "survey", "--group", group)
    assert code == 0
    code, ranged, _ = run(capsys, "survey", "--d-min", str(d), "--d-max", str(d))
    assert code == 0
    assert [out] == [line + "\n" for line in ranged.splitlines() if line.startswith(spec + ":")]

    code, out, _ = run(capsys, "survey", "--group", group, "--json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    code, ranged, _ = run(capsys, "survey", "--d-min", str(d), "--d-max", str(d), "--json")
    assert code == 0
    (ranged_row,) = [r for r in json.loads(ranged)["rows"] if r["spec"] == spec]
    # a range survey enumerates canonical specs only, so it records no canonicalization
    record = row.pop("canonicalization", None)
    assert _without_timings(row) == _without_timings(ranged_row)
    assert (record is not None and record["changed"]) == (group != spec)


def test_survey_group_noncyclic_row(capsys):
    group = "C(2;0,1,1)+C(4;0,2,3)"  # in no range survey
    code, out, _ = run(capsys, "survey", "--group", group, "--json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    expected = survey.build_survey_row(parse_group(group)).to_json_dict()
    assert _without_timings(row) == _without_timings(expected)


def test_survey_group_reports_a_guard_trip_and_no_search(capsys):
    code, out, _ = run(capsys, "survey", "--group", "C(7;0,1,3)", "--guard", "5")
    assert code == 0
    assert out.startswith("C(7;0,1,3): quadratic unknown, ") and ", guard: " in out

    code, out, _ = run(capsys, "survey", "--group", "C(12;0,1,3)", "--no-search")
    assert code == 0
    assert out == "C(12;0,1,3): quadratic yes, koszul yes, search not-attempted\n"


@pytest.mark.parametrize("first, second", [
    (("--d-max", "3"), ("--group", "C(5;0,1,2)")),
    (("--group", "C(5;0,1,2)"), ("--d-max", "3")),
])
def test_survey_modes_exclude_one_another(monkeypatch, capsys, first, second):
    monkeypatch.setattr(cli, "build_survey_row", lambda *_: pytest.fail("a row was built"))
    with pytest.raises(SystemExit) as exc:
        main(["survey", *first, *second])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and first[0] in err and second[0] in err


@pytest.mark.parametrize("mode", [("--group", "C(5;0,1,2)")])
@pytest.mark.parametrize("store", ["--jsonl", "--csv"])
def test_single_group_survey_takes_no_store(tmp_path, monkeypatch, capsys, mode, store):
    monkeypatch.setattr(cli, "build_survey_row", lambda *_: pytest.fail("a row was built"))
    path = tmp_path / "store"
    code, out, err = run(capsys, "survey", *mode, store, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and mode[0] in err and store in err
    assert not path.exists()


@pytest.mark.parametrize("mode, flag", [
    (("--group", "C(5;0,1,2)"), ("--n", "3")),
    (("--group", "C(5;0,1,2)"), ("--d-min", "2")),
])
def test_single_group_survey_rejects_the_flags_it_does_not_read(monkeypatch, capsys, mode, flag):
    # each flag is rejected even at its default value: the mode would ignore it
    monkeypatch.setattr(cli, "build_survey_row", lambda *_: pytest.fail("a row was built"))
    code, out, err = run(capsys, "survey", *mode, *flag)
    assert (code, out) == (2, "")
    assert err == f"error: {mode[0]} reports one group and takes no {flag[0]}\n"


@pytest.mark.parametrize("mode", [("--d-max", "3"), ("--group", "C(5;0,1,2)")])
def test_survey_takes_no_max_degree(capsys, mode):
    with pytest.raises(SystemExit) as exc:
        main(["survey", *mode, "--max-degree", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-degree 1" in capsys.readouterr().err


# the search and horizon flags each subcommand reads; it rejects the others
FLAGS_READ = {
    "omega": (), "normal2": (), "label": (), "lift": (),
    "mingens": ("--max-degree",), "hilbert": ("--max-degree",),
    "hvec": ("--max-degree",), "gb": ("--max-degree",),
    "gb-search": ("--seed", "--budget", "--max-degree"),
    "scenario": ("--seed", "--budget"),
    "survey": ("--seed", "--budget"),
}
OPERANDS = {
    "lift": ("full(2,2)", "--sizes", "1,1,1"),
    "scenario": ("quadratic-surface-gb-search",),
    "survey": ("--d-max", "3"),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag)
    for command, read in FLAGS_READ.items() if command != "survey"  # see test_survey_takes_no_max_degree
    for flag in ("--seed", "--budget", "--max-degree") if flag not in read
])
def test_subcommands_reject_the_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *OPERANDS.get(command, ("full(2,2)",)), flag, "3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, read in FLAGS_READ.items() for flag in read
])
def test_subcommands_take_the_flags_they_read(command, flag):
    args = cli._parser().parse_args([command, *OPERANDS.get(command, ("full(2,2)",)), flag, "3"])
    assert getattr(args, flag[2:].replace("-", "_")) == 3


def test_survey_flags_keep_their_defaults(capsys):
    # a range survey reads --seed, --budget, --n and --d-min, and without them
    # runs as with their documented defaults
    argv = ("survey", "--d-max", "3", "--json")
    code, out, _ = run(capsys, *argv)
    code_given, given, _ = run(capsys, *argv, "--seed", "0", "--budget", "200", "--n", "2", "--d-min", "2")
    assert code == code_given == 0
    rows = [_without_timings(row) for row in json.loads(out)["rows"]]
    assert rows == [_without_timings(row) for row in json.loads(given)["rows"]]
    assert [(row["gq_search"]["seed"], row["gq_search"]["budget"]) for row in rows] == [(0, 200)] * 4


@pytest.mark.parametrize("argv", [
    ("gb-search", "group(C(4;0,1,2))", "--out", "{tmp}/out.json"),
    ("scenario", "quadratic-surface-gb-search", "--out", "{tmp}/out.json"),
    ("survey", "--d-max", "4", "--jsonl", "{tmp}/rows.jsonl", "--csv", "{tmp}/rows.csv"),
])
def test_negative_budget_exits_two(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: the order-search budget must be non-negative, got -1\n"
    assert list(tmp_path.iterdir()) == []


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "mingens", "full(3,6)", "--guard", "10")
    assert code == 3 and "guard" in err


def test_label_guard_bounds_the_support_two_fallback(capsys):
    # a noncyclic surface group off the divisibility chain: the label enumerates
    # its 28 degree-6 candidate monomials, past a guard of 5
    code, _, err = run(capsys, "label", "--guard", "5", "group(C(2;0,1,1)+C(3;0,1,2))")
    assert code == 3 and "guard" in err


def test_mingens_rejects_a_max_degree_below_one(capsys):
    code, out, err = run(capsys, "mingens", "full(2,2)", "--max-degree", "-3")
    assert code == 2 and out == "" and "need k_max >= 1" in err
    code, out, _ = run(capsys, "mingens", "full(2,2)", "--max-degree", "1")
    assert code == 0 and "verified up to degree 1" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "omega", "bogus(1)")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("spec, n, d", [("full(0,3)", 0, 3), ("full(2,0)", 2, 0)])
def test_full_family_errors_name_full(capsys, spec, n, d):
    # full(n,d) becomes pinched(n,d,n+1), so its bounds are checked before that
    code, out, err = run(capsys, "omega", spec)
    assert code == 2 and out == ""
    assert f"full needs n >= 1 and d >= 1, got n={n}, d={d}" in err and "pinched" not in err


def test_module_entry_point():
    # a source checkout runs the CLI as `python -m veroproj`
    src = Path(veroproj.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "veroproj", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: veroproj" in proc.stdout
