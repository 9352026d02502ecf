"""Batch surveys over cyclic group parameters.

A survey row records, for one diagonal group, the computed generator
table, the quadraticity and Koszulness verdicts with their provenance,
and the outcome of a quadratic-order search.  A decided row of a cyclic
group on four or more variables also holds its quadraticity against
Conjecture 1 (quadratic iff every restriction to three variables passes
the surface criterion); a mismatch is a counterexample candidate with
its failing triples, never a bare refutation.  Rows are persisted as
append-only line-delimited JSON keyed by the group spec, so an
interrupted survey picks up without recomputing, and a CSV digest is
regenerated after every run.
"""
from __future__ import annotations

import csv
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DEFAULT_GUARD, GuardExceeded
from .families import FamilySpec, TheoremVerdict, koszul_label
from .fibers import minimal_generator_table
from .groebner import search_quadratic_order
from .groups import (
    DiagonalGroup,
    _unit_orbit,
    canonical_group,
    canonical_weight_vectors,
    cyclic_group,
    invariants_of_degree,
    surface_quadraticity,
    triple_projections,
)

logger = logging.getLogger("veroproj")

__all__ = [
    "SurveyOptions",
    "SurveyRow",
    "TriState",
    "build_survey_row",
    "survey_groups",
]


# ---------------------------------------------------------------------------
# rows


@dataclass(frozen=True)
class TriState:
    """A yes/no/unknown answer plus where it came from."""

    value: str
    provenance: str

    def __post_init__(self) -> None:
        if self.value not in ("yes", "no", "unknown"):
            raise ValueError(f"tri-state value must be yes/no/unknown, got {self.value!r}")

    def to_json_dict(self) -> dict:
        return {"value": self.value, "provenance": self.provenance}


SEARCH_STATUSES = ("found", "not-found-within", "not-attempted", "impossible-non-quadratic")


@dataclass
class SurveyRow:
    """One group's worth of survey evidence.

    `timings_ms` holds the phases the row ran: `invariants_ms` and
    `table_ms` when it built its generator table, `search_ms` when it
    searched.  A survey row served by its unit class's table (see
    `survey_groups`) has neither of the first two.
    """

    spec: str
    n: int
    d: int
    quadratic: TriState
    koszul: TriState
    gq_search: dict
    generator_degrees: dict[int, int]
    timings_ms: dict[str, int] = field(default_factory=dict)
    canonicalization: dict | None = None
    guard_error: str | None = None
    guard: int | None = None  # the guard a guard_error tripped
    conjecture1: dict | None = None  # n >= 3 cyclic rows with a decided quadraticity

    def __post_init__(self) -> None:
        status = self.gq_search.get("status")
        if status not in SEARCH_STATUSES:
            raise ValueError(f"unknown search status {status!r}")
        if self.quadratic.value == "no" and status != "impossible-non-quadratic":
            raise ValueError(
                "a non-quadratic row must mark its search impossible, got "
                f"{status!r} for {self.spec}"
            )

    def to_json_dict(self) -> dict:
        out = {
            "spec": self.spec,
            "n": self.n,
            "d": self.d,
            "quadratic": self.quadratic.to_json_dict(),
            "koszul": self.koszul.to_json_dict(),
            "gq_search": self.gq_search,
            "generator_degrees": {str(k): v for k, v in sorted(self.generator_degrees.items())},
            "timings_ms": self.timings_ms,
        }
        if self.canonicalization is not None:
            out["canonicalization"] = self.canonicalization
        if self.guard_error is not None:
            out["guard_error"] = self.guard_error
        if self.guard is not None:
            out["guard"] = self.guard
        if self.conjecture1 is not None:
            out["conjecture1"] = self.conjecture1
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "SurveyRow":
        return cls(
            spec=data["spec"],
            n=data["n"],
            d=data["d"],
            quadratic=TriState(**data["quadratic"]),
            koszul=TriState(**data["koszul"]),
            gq_search=data["gq_search"],
            generator_degrees={int(k): v for k, v in data["generator_degrees"].items()},
            timings_ms=data.get("timings_ms", {}),
            canonicalization=data.get("canonicalization"),
            guard_error=data.get("guard_error"),
            guard=data.get("guard"),
            conjecture1=data.get("conjecture1"),
        )


def _koszul_tristate(verdict: TheoremVerdict) -> TriState:
    if verdict.status == "unknown":
        return TriState("unknown", "no-rule")
    cite = f"theorem:{verdict.citation}"
    if verdict.property in ("GQuadratic", "Koszul"):
        return TriState("yes", cite)
    if verdict.property == "NotKoszul":
        return TriState("no", cite)
    if verdict.property == "NotQuadratic":
        return TriState("no", f"{cite} (not even quadratic)")
    # Quadratic alone does not settle Koszulness
    return TriState("unknown", f"{cite} gives quadraticity only")


def _implied_quadratic(verdict: TheoremVerdict) -> str | None:
    """The quadraticity a decided verdict implies: Koszul and G-quadratic algebras
    are quadratic, and the surface classification is an iff."""
    if verdict.property in ("Quadratic", "Koszul", "GQuadratic"):
        return "yes"
    if verdict.property == "NotQuadratic" or (
        verdict.property == "NotKoszul" and verdict.citation == "surface-koszul-classification"
    ):
        return "no"
    return None


def _ms() -> int:
    return time.perf_counter_ns() // 1_000_000


@dataclass(frozen=True)
class SurveyOptions:
    seed: int = 0
    budget: int = 200
    guard: int = DEFAULT_GUARD
    search: bool = True
    jsonl_path: str | Path | None = None
    csv_path: str | Path | None = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"the order-search budget must be non-negative, got {self.budget}")


def build_survey_row(group: DiagonalGroup, options: SurveyOptions = SurveyOptions()) -> SurveyRow:
    """Compute one survey row (canonicalizing a cyclic presentation first)."""
    return _build_row(group, options, {}, None)[0]


def _build_row(
    group: DiagonalGroup, options: SurveyOptions, outcomes: dict, key: str | None
) -> tuple[SurveyRow, bool]:
    """The survey row of a group, and whether its table outcome was served.

    `outcomes` maps the unit class `key` to the outcome of the first
    generator table built for it: its degrees and quadraticity, or the
    GuardExceeded it raised.  A later member takes that outcome instead
    of building a table, unless it must search, which needs a table in
    its own index order; the outcome of that table must then equal the
    class's, or the row raises.
    """
    group, record = canonical_group(group)
    spec = group.spec_string()
    timings: dict[str, int] = {}
    verdict = koszul_label(FamilySpec("group", group=group, t=1), guard=options.guard)
    koszul = _koszul_tristate(verdict)
    not_attempted = {
        "status": "not-attempted",
        "order": None,
        "tried": 0,
        "budget": options.budget,
        "seed": options.seed,
    }
    outcome = shared = outcomes.get(key)
    served = shared is not None and not (
        options.search and isinstance(shared, tuple) and shared[1].status != "no"
    )
    if not served:
        try:
            t0 = _ms()
            b1 = invariants_of_degree(group, 1, guard=options.guard)
            timings["invariants_ms"] = _ms() - t0
            t0 = _ms()
            table = minimal_generator_table(b1, bound="group", guard=options.guard)
            timings["table_ms"] = _ms() - t0
            outcome = (dict(table.degrees), table.quadraticity())
        except GuardExceeded as exc:
            outcome = exc
        if shared is None:
            outcomes[key] = outcome
        elif outcome != shared:
            raise AssertionError(
                f"{spec}: its own generator table gives {outcome!r}, but its unit class "
                f"{key} gave {shared!r}"
            )
    if isinstance(outcome, GuardExceeded):
        return SurveyRow(
            spec=spec,
            n=group.n,
            d=group.order,
            quadratic=TriState("unknown", "guard"),
            koszul=koszul,
            gq_search=not_attempted,
            generator_degrees={},
            timings_ms=timings,
            canonicalization=record,
            guard_error=str(outcome),
            guard=outcome.guard,
        ), served
    degrees, answer = outcome
    quadratic = TriState(
        answer.status if answer.status in ("yes", "no") else "unknown",
        f"computation:fiber-components-up-to-{answer.verified_up_to}",
    )
    if quadratic.value != "unknown" and _implied_quadratic(verdict) not in (None, quadratic.value):
        raise AssertionError(
            f"{spec}: theorem {verdict.citation} says {verdict.property}, but the generator "
            f"table computed quadratic={quadratic.value}"
        )
    if quadratic.value == "no":
        search = {**not_attempted, "status": "impossible-non-quadratic"}
    elif options.search:
        t0 = _ms()
        result = search_quadratic_order(
            b1, budget=options.budget, seed=options.seed, guard=options.guard, table=table
        )
        timings["search_ms"] = _ms() - t0
        search = {
            **not_attempted,
            "status": result.status,
            "order": result.order.spec_string() if result.order is not None else None,
            "tried": result.tried,
        }
    else:
        search = not_attempted
    conjecture1 = None
    if group.is_cyclic_presentation and group.n >= 3 and quadratic.value != "unknown":
        failing = [
            list(vars_) for vars_, restricted in triple_projections(group)
            if not surface_quadraticity(restricted).quadratic
        ]
        consistent = (quadratic.value == "yes") == (not failing)
        conjecture1 = {
            "status": "consistent" if consistent else "counterexample-candidate",
            "failing_triples": failing,
        }
    return SurveyRow(
        spec=spec,
        n=group.n,
        d=group.order,
        quadratic=quadratic,
        koszul=koszul,
        gq_search=search,
        generator_degrees=dict(degrees),
        timings_ms=timings,
        canonicalization=record,
        conjecture1=conjecture1,
    ), served


# ---------------------------------------------------------------------------
# batch surveys


def _row_sort_key(row: SurveyRow) -> tuple:
    return (row.n, row.d, row.spec)


def _load_jsonl(path: Path) -> dict[str, SurveyRow]:
    """The rows of a JSONL store, keyed by spec.

    An interrupted append leaves a torn final line; it is logged and cut
    from the file, so the next append starts on a line of its own and
    the row is computed again.  A malformed line anywhere else raises.
    """
    rows: dict[str, SurveyRow] = {}
    if not path.exists():
        return rows
    lines = path.read_bytes().splitlines(keepends=True)
    last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if i != last:
                raise ValueError(f"{path}:{i + 1}: malformed survey row: {exc}") from exc
            logger.warning("%s:%d: dropping a torn final row of %d bytes", path, i + 1, len(line))
            with path.open("r+b") as fh:
                fh.truncate(sum(len(kept) for kept in lines[:i]))
            break
        row = SurveyRow.from_json_dict(data)
        rows[row.spec] = row
    return rows


def _opened(path: Path, mode: str):
    """path.open(mode) to write, or a ValueError that names the path."""
    try:
        return path.open(mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _write_csv(path: Path, rows: list[SurveyRow]) -> None:
    """Write the digest beside the old one, then swap it in atomically or remove it."""
    tmp = path.with_name(path.name + ".tmp")
    fh = _opened(tmp, "w")
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow([
                "spec", "n", "d",
                "quadratic", "quadratic_provenance",
                "koszul", "koszul_provenance",
                "gq_status", "gq_order",
                "generator_degrees", "guard_error",
            ])
            for row in rows:
                degrees = ";".join(f"{k}:{v}" for k, v in sorted(row.generator_degrees.items()))
                writer.writerow([
                    row.spec, row.n, row.d,
                    row.quadratic.value, row.quadratic.provenance,
                    row.koszul.value, row.koszul.provenance,
                    row.gq_search.get("status"), row.gq_search.get("order") or "",
                    degrees, row.guard_error or "",
                ])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # a half-written digest is no digest
        raise


def _reusable(row: SurveyRow, options: SurveyOptions) -> bool:
    """Whether a stored row answers for these options.

    Its search must have the options' budget and seed, and must have
    been attempted when the options ask for a search.  A guard-error row
    never got to search; it answers while the guard it tripped is the
    options' guard.  A decided n >= 3 row written before rows carried
    their Conjecture 1 verdict is stale.
    """
    search = row.gq_search
    if search.get("budget") != options.budget or search.get("seed") != options.seed:
        return False
    if row.guard_error is not None:
        return row.guard == options.guard
    if row.n >= 3 and row.quadratic.value != "unknown" and row.conjecture1 is None:
        return False
    return not (options.search and search.get("status") == "not-attempted")


def survey_groups(
    n: int,
    d_values,
    options: SurveyOptions = SurveyOptions(),
) -> list[SurveyRow]:
    """Survey every canonical cyclic group of the given orders.

    Rows are computed one after another in spec order; the returned
    list is sorted canonically.  With a jsonl_path, rows already present
    in the file are reused when they answer for the same options (see
    `_reusable`; rows are keyed by group spec) and new rows are
    appended as they finish, a later line superseding an earlier one; a
    csv_path gets a digest of every row in the store, rewritten at the
    end of each run.

    Canonical vectors w and u * w, for a unit u mod d, present one
    group, so the survey builds one generator table per such unit class
    and serves its outcome to the class's other rows (`_build_row`);
    every row is the row `build_survey_row` gives.  Each order ends with
    one INFO line on the "veroproj" logger.
    """
    orders: dict[int, dict[str, DiagonalGroup]] = {}
    for d in d_values:
        if d not in orders:
            orders[d] = {}
            for weights in canonical_weight_vectors(n, d, options.guard):
                g = cyclic_group(d, weights)
                orders[d][g.spec_string()] = g
    specs = {spec for members in orders.values() for spec in members}

    jsonl_path = Path(options.jsonl_path) if options.jsonl_path is not None else None
    csv_path = Path(options.csv_path) if options.csv_path is not None else None
    for path in (jsonl_path, csv_path):  # fail before the first row is built
        if path is not None:
            existed = path.exists()
            _opened(path, "a").close()
            if not existed:
                path.unlink()
    existing = _load_jsonl(jsonl_path) if jsonl_path is not None else {}
    rows: dict[str, SurveyRow] = {
        spec: row for spec, row in existing.items() if spec in specs and _reusable(row, options)
    }

    outcomes: dict = {}  # unit class -> the outcome of its first table, see _build_row
    for d, members in orders.items():
        start = time.perf_counter()
        class_of: dict[tuple[int, ...], str] = {}  # weights -> their class's first spec
        reused = served = 0
        for spec, g in members.items():
            weights = g.factors[0].weights
            if weights not in class_of:
                class_of.update(dict.fromkeys(_unit_orbit(d, weights), spec))
            if spec in rows:
                reused += 1
                continue
            row, was_served = _build_row(g, options, outcomes, class_of[weights])
            served += was_served
            rows[row.spec] = row
            if jsonl_path is not None:
                with _opened(jsonl_path, "a") as fh:
                    fh.write(json.dumps(row.to_json_dict(), sort_keys=True) + "\n")
                existing[row.spec] = row
        logger.info(
            "survey n=%d d=%d: %d rows in %d unit classes, %d reused from the store, "
            "%d served from a shared outcome, %.2f s",
            n, d, len(members), len(set(class_of.values())), reused, served,
            time.perf_counter() - start,
        )

    if csv_path is not None:
        digest_rows = sorted(
            (existing | rows).values() if jsonl_path is not None else rows.values(),
            key=_row_sort_key,
        )
        _write_csv(csv_path, digest_rows)

    return sorted(rows.values(), key=_row_sort_key)
