"""The four fixed benchmark workloads, driven through the public veroproj API.

A workload is a list of steps.  A step's `run` makes the timed calls into
veroproj; its `canon` turns the raw results, after the clock has stopped,
into ``{op_key: output}``, where `output` holds only the mathematically
determined fields that the golden digests cover.  One op is one lift
case, one survey row, one grow basis, or one tables family table.

Left out of the digests on purpose: the order a search found, its `tried`
count and every `timings_ms`, because a pruning change may legitimately
move them.  The search seed echoed in a row is checked against the seed
passed in, not against the golden value.

The seed is the survey's search seed; every workload also runs its steps
in an order shuffled by the seed.  Scale "small" is the reduced size the
self-test uses; it has goldens of its own.
"""
from __future__ import annotations

import dataclasses
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("lift", "search", "grow", "tables")
SCALES = ("full", "small")

# the block sizes each lift case splits C(6;0,1,3) through
LIFT_SIZES = {"full": [(1, 2, 2), (2, 2, 1)], "small": [(1, 1, 2), (1, 2, 1)]}
# surface orders d of the searched survey
SEARCH_ORDERS = {"full": [20, 21], "small": [8]}
# (family, order, k_max) seeds of the growing Buchberger runs
GROW_INPUTS = {
    "full": [("pinched(2,8,2)", "lex", None), ("pinched(3,5,2)", "degrevlex", 3)],
    "small": [("pinched(2,4,2)", "lex", None), ("pinched(3,3,2)", "degrevlex", 3)],
}
# threefold orders surveyed without search, and the two-normal families
TABLES_INPUTS = {
    "full": ([8, 9, 10], ["pinched(4,4,3)", "pinched(2,8,2)"]),
    "small": ([5], ["pinched(2,4,2)", "pinched(2,5,2)"]),
}


@dataclass
class Step:
    run: Callable[[], object]
    canon: Callable[[object], dict]


def _elements(gb) -> list:
    return sorted([list(g.plus), list(g.minus)] for g in gb.elements)


def _survey_options(vp, **kwargs):
    # serial rows for as long as the survey still has a worker setting
    if "workers" in {f.name for f in dataclasses.fields(vp.SurveyOptions)}:
        kwargs["workers"] = 1
    return vp.SurveyOptions(**kwargs)


def _row_output(row: dict) -> dict:
    search = row["gq_search"]
    return {
        "spec": row["spec"],
        "n": row["n"],
        "d": row["d"],
        "quadratic": row["quadratic"],
        "koszul": row["koszul"],
        "generator_degrees": row["generator_degrees"],
        "canonicalization": row.get("canonicalization"),
        "guard_error": row.get("guard_error"),
        "search_status": search["status"],
        "search_budget": search["budget"],
    }


def lift(vp, seed: int, scale: str, store_dir: Path, marks: dict) -> list[Step]:
    group = vp.parse_group("C(6;0,1,3)")

    def case(sizes: tuple[int, ...]) -> Step:
        def run():
            base = vp.invariants_of_degree(group, 1)
            base_order = vp.parse_order("rc(6,3,1)", base)
            lifted = vp.lift_omega(base, sizes)
            order = vp.lift_order(base_order, base, lifted, sizes)
            block = vp.invariants_of_degree(vp.block_group(group, sizes), 1)
            return lifted, block, vp.buchberger(vp.toric_generators(block), order)

        def canon(raw) -> dict:
            lifted, block, gb = raw
            same = [tuple(m) for m in lifted] == [tuple(m) for m in block]
            out = {"mu": len(lifted), "matches_block_group": same,
                   "max_degree": gb.max_degree, "elements": _elements(gb)}
            return {"lift:" + ",".join(map(str, sizes)): out}

        return Step(run, canon)

    return [case(s) for s in LIFT_SIZES[scale]]


def search(vp, seed: int, scale: str, store_dir: Path, marks: dict) -> list[Step]:
    orders = SEARCH_ORDERS[scale]

    def run():
        with tempfile.TemporaryDirectory(prefix=".perfbench-store-", dir=store_dir) as tmp:
            options = _survey_options(
                vp, seed=seed, jsonl_path=Path(tmp, "rows.jsonl"), csv_path=Path(tmp, "rows.csv")
            )
            first = vp.survey_groups(2, orders, options)
            t0 = time.perf_counter()
            again = vp.survey_groups(2, orders, options)
            marks["survey.resume_s"] = time.perf_counter() - t0
        return first, again

    def canon(raw) -> dict:
        first, again = raw
        resumed = {r.spec: r.to_json_dict() for r in again}
        out = {}
        for row in first:
            d = row.to_json_dict()
            out["row:" + row.spec] = {
                **_row_output(d),
                "seed_echoed": d["gq_search"].get("seed") == seed,
                "resume_identical": resumed.pop(row.spec, None) == d,
            }
        for spec in resumed:  # a row only the resume pass returned
            out["resume-extra:" + spec] = None
        return out

    return [Step(run, canon)]


def grow(vp, seed: int, scale: str, store_dir: Path, marks: dict) -> list[Step]:
    def case(text: str, order_text: str, k_max: int | None) -> Step:
        spec = vp.parse_family(text)

        def run():
            omega = spec.build()
            gens = vp.toric_generators(omega, k_max=k_max)
            return gens, vp.buchberger(gens, vp.parse_order(order_text, omega))

        def canon(raw) -> dict:
            gens, gb = raw
            out = {"generators": len(gens), "max_degree": gb.max_degree, "elements": _elements(gb)}
            return {f"grow:{text}:{order_text}": out}

        return Step(run, canon)

    return [case(*inputs) for inputs in GROW_INPUTS[scale]]


def tables(vp, seed: int, scale: str, store_dir: Path, marks: dict) -> list[Step]:
    orders, families = TABLES_INPUTS[scale]

    def survey() -> Step:
        def run():
            return vp.survey_groups(3, orders, _survey_options(vp, search=False))

        def canon(rows) -> dict:
            return {"row:" + r.spec: _row_output(r.to_json_dict()) for r in rows}

        return Step(run, canon)

    def family(text: str) -> Step:
        spec = vp.parse_family(text)

        def run():
            omega = spec.build()
            table = vp.minimal_generator_table(omega, bound="two-normal")
            return table, vp.hilbert_values(omega, 4)

        def canon(raw) -> dict:
            table, hilbert = raw
            out = {
                "degrees": {str(k): v for k, v in sorted(table.degrees.items())},
                "verified_up_to": table.verified_up_to,
                "bound": table.bound,
                "hilbert": list(hilbert),
            }
            return {"table:" + text: out}

        return Step(run, canon)

    return [survey()] + [family(t) for t in families]


BUILDERS = {"lift": lift, "search": search, "grow": grow, "tables": tables}


def steps_for(vp, workload: str, seed: int, scale: str, store_dir: Path, marks: dict) -> list[Step]:
    """The workload's steps in the order the seed shuffles them into."""
    steps = BUILDERS[workload](vp, seed, scale, store_dir, marks)
    random.Random(seed).shuffle(steps)
    return steps
