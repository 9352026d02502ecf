"""Command-line front end.

Every subcommand takes a family spec (or a group spec for surveys),
computes with exact integers only, and prints either a human-readable
text block or, with --json, a single JSON document.  Exit codes: 0 when
every expectation held, 1 when a scenario reported a mismatch, 2 on
usage or spec-parse errors, 3 when a resource guard tripped.  Progress
lines (one per survey order) go to stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys

from .errors import DEFAULT_GUARD, GuardExceeded, SpecParseError
from .families import FamilySpec, koszul_label, parse_family, run_scenario
from .fibers import h_polynomial, hilbert_values, is_2_normal, minimal_generator_table
from .groebner import lift_omega, lift_order, parse_order, search_quadratic_order, toric_basis
from .groups import block_group, h_vector_group, invariants_of_degree, parse_group
from .monomials import MonomialSet, format_omega
from .survey import SurveyOptions, build_survey_row, survey_groups

__all__ = ["main"]


def _build(args) -> tuple[FamilySpec, MonomialSet]:
    spec = parse_family(args.family)
    return spec, spec.build(args.guard)


def _emit(args, text: str, payload: dict) -> None:
    out = json.dumps(payload, indent=2, sort_keys=False) + "\n" if args.json else text
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ValueError(f"{args.out}: cannot write: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(out)


def _cmd_omega(args) -> int:
    spec, omega = _build(args)
    payload = {
        "family": spec.spec_string(),
        "n": omega.n,
        "d": omega.d,
        "size": len(omega),
        "members": [list(m) for m in omega],
    }
    _emit(args, format_omega(omega, comment=spec.spec_string()), payload)
    return 0


def _cmd_mingens(args) -> int:
    spec, omega = _build(args)
    table = minimal_generator_table(omega, k_max=args.max_degree, guard=args.guard)
    answer = table.quadraticity()
    payload = {"family": spec.spec_string(), **table.to_json_dict()}
    payload["quadratic"] = {
        "status": answer.status,
        "witness_degree": answer.witness_degree,
        "verified_up_to": answer.verified_up_to,
    }
    lines = [f"family {spec.spec_string()}"]
    lines.extend(
        f"degree {k}: {c} minimal generators" for k, c in sorted(table.degrees.items())
    )
    if not table.degrees:
        lines.append("no minimal generators up to the bound")
    lines.append(f"completeness: {table.bound} bound, verified up to degree {table.verified_up_to}")
    lines.append(f"quadratic: {answer.status}")
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def _cmd_hilbert(args) -> int:
    spec, omega = _build(args)
    k_max = args.max_degree if args.max_degree is not None else 3
    values = hilbert_values(omega, k_max, guard=args.guard)
    payload = {"family": spec.spec_string(), "values": {str(k): v for k, v in enumerate(values)}}
    lines = [f"HF({k}) = {v}" for k, v in enumerate(values)]
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def _cmd_normal2(args) -> int:
    spec, omega = _build(args)
    ok, witness = is_2_normal(omega, guard=args.guard)
    payload = {
        "family": spec.spec_string(),
        "two_normal": ok,
        "witness": None if witness is None else list(witness),
    }
    text = "2-normal\n" if ok else f"not 2-normal: {witness} has no two-factor product\n"
    _emit(args, text, payload)
    return 0


def _cmd_hvec(args) -> int:
    spec, omega = _build(args)
    if spec.kind == "group" and spec.t == 1:
        hv = h_vector_group(spec.group, guard=args.guard)
        payload = {
            "family": spec.spec_string(),
            "route": "group-slice",
            "h": list(hv.h),
            "regularity": hv.regularity,
        }
        text = f"h-vector {tuple(hv.h)} (regularity {hv.regularity})\n"
    else:
        h = h_polynomial(omega, k_max=args.max_degree, guard=args.guard)
        payload = {"family": spec.spec_string(), "route": "series", "h": list(h)}
        text = f"h-vector {tuple(h)}\n"
    _emit(args, text, payload)
    return 0


def _cmd_gb(args) -> int:
    spec, omega = _build(args)
    order = parse_order(args.order, omega)
    gb = toric_basis(omega, order, k_max=args.max_degree, guard=args.guard)
    payload = {"family": spec.spec_string(), **gb.to_json_dict(), "size": len(gb.elements)}
    text = (
        f"order {order.spec_string()}\n"
        f"reduced basis: {len(gb.elements)} binomials, max degree {gb.max_degree}"
        f"{' (quadratic)' if gb.is_quadratic else ''}\n"
    )
    _emit(args, text, payload)
    return 0


def _cmd_gb_search(args) -> int:
    spec, omega = _build(args)
    result = search_quadratic_order(
        omega, budget=args.budget, seed=args.seed, k_max=args.max_degree, guard=args.guard
    )
    payload = {
        "family": spec.spec_string(),
        "status": result.status,
        "order": result.order.spec_string() if result.order is not None else None,
        "tried": result.tried,
        "budget": result.budget,
        "seed": result.seed,
        "impossible": result.impossible,
        "warning": result.warning,
    }
    if result.found:
        text = f"found: {result.order.spec_string()} (candidate {result.tried} of {result.budget})\n"
    elif result.impossible:
        text = f"impossible: {result.warning}\n"
    else:
        text = f"not found within budget {result.budget} (seed {result.seed}, tried {result.tried})\n"
    if result.warning and result.found:
        text += f"note: {result.warning}\n"
    _emit(args, text, payload)
    return 0


def _cmd_lift(args) -> int:
    spec, omega = _build(args)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise SpecParseError("sizes", args.sizes, args.sizes, "sizes are comma-separated integers")
    lifted = lift_omega(omega, sizes, guard=args.guard)
    payload: dict = {
        "family": spec.spec_string(),
        "sizes": list(sizes),
        "n": lifted.n,
        "d": lifted.d,
        "size": len(lifted),
        "members": [list(m) for m in lifted],
    }
    comment = f"lift of {spec.spec_string()} with sizes {','.join(str(s) for s in sizes)}"
    text = format_omega(lifted, comment=comment)
    if args.order is not None:
        if spec.kind != "group":
            raise SpecParseError(
                "family", args.family, args.family,
                "running a lifted Groebner basis needs a group family "
                "(the lifted generators are certified through the block group)",
            )
        base_order = parse_order(args.order, omega)
        lifted_order = lift_order(base_order, omega, lifted, sizes)
        block = invariants_of_degree(block_group(spec.group, sizes), spec.t, guard=args.guard)
        if [tuple(m) for m in lifted] != [tuple(m) for m in block]:
            # the order ranks the lifted members, the generators index the block's
            raise AssertionError("the lifted members are not the block group's invariants in order")
        gb = toric_basis(block, lifted_order, guard=args.guard)
        payload["order"] = lifted_order.spec_string()
        payload["max_degree"] = gb.max_degree
        payload["basis_size"] = len(gb.elements)
        text += (
            f"# order {lifted_order.spec_string()}: "
            f"{len(gb.elements)} binomials, max degree {gb.max_degree}\n"
        )
    _emit(args, text, payload)
    return 0


def _cmd_scenario(args) -> int:
    report = run_scenario(args.name, seed=args.seed, budget=args.budget, guard=args.guard)
    lines = [f"scenario {report['name']}"]
    for step in report["steps"]:
        mark = "ok  " if step["match"] else "FAIL"
        lines.append(f"  {mark} {step['op']} {json.dumps(step['inputs'], sort_keys=True)}")
        if not step["match"]:
            lines.append(f"       expected {json.dumps(step['expected'], sort_keys=True)}")
            lines.append(f"       actual   {json.dumps(step['actual'], sort_keys=True)}")
    lines.append(f"overall: {report['overall']}")
    _emit(args, "\n".join(lines) + "\n", report)
    return 0 if report["overall"] == "pass" else 1


def _cmd_survey(args) -> int:
    unread = {"--n": args.n, "--d-min": args.d_min, "--jsonl": args.jsonl, "--csv": args.csv}
    if args.group and (flags := [flag for flag, value in unread.items() if value is not None]):
        raise ValueError(f"--group reports one group and takes no {' or '.join(flags)}")
    if not args.group and args.d_max is None:
        raise SpecParseError("survey", "survey", "--d-max", "a survey needs --d-max (or --group)")
    options = SurveyOptions(
        seed=args.seed,
        budget=args.budget,
        guard=args.guard,
        search=not args.no_search,
        jsonl_path=args.jsonl,
        csv_path=args.csv,
    )
    if args.group:
        rows = [build_survey_row(parse_group(args.group), options)]
    else:
        n, d_min = (2 if value is None else value for value in (args.n, args.d_min))
        rows = survey_groups(n, range(d_min, args.d_max + 1), options)
    payload = {"rows": [row.to_json_dict() for row in rows]}
    lines = []
    for row in rows:
        search = row.gq_search
        lines.append(
            f"{row.spec}: quadratic {row.quadratic.value}, koszul {row.koszul.value}, "
            f"search {search['status']}"
            + (f" ({search['order']})" if search.get("order") else "")
            + (f", conjecture1 {row.conjecture1['status']}" if row.conjecture1 else "")
            + (f", guard: {row.guard_error}" if row.guard_error else "")
        )
    _emit(args, "\n".join(lines) + "\n", payload)
    return 0


def _cmd_label(args) -> int:
    spec = parse_family(args.family)
    verdict = koszul_label(spec, guard=args.guard)
    payload = {"family": spec.spec_string(), **verdict.to_json_dict()}
    if verdict.status == "unknown":
        text = f"{spec.spec_string()}: no applicable rule\n"
    else:
        text = (
            f"{spec.spec_string()}: {verdict.property} ({verdict.status}"
            + (f", {verdict.citation}" if verdict.citation else "")
            + ")\n"
        )
    _emit(args, text, payload)
    return 0


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
    common.add_argument(
        "--guard", type=int, default=DEFAULT_GUARD, metavar="N",
        help="abort any enumeration larger than this many objects",
    )
    common.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
    searched = argparse.ArgumentParser(add_help=False)  # gb-search, scenario, survey
    searched.add_argument("--seed", type=int, default=0, help="seed for randomized search stages")
    searched.add_argument("--budget", type=int, default=200, help="candidate budget for order searches")
    horizon = argparse.ArgumentParser(add_help=False)  # mingens, hilbert, hvec, gb, gb-search
    horizon.add_argument(
        "--max-degree", type=int, default=None, metavar="K",
        help="explicit degree horizon (user completeness bound / series cutoff)",
    )

    parser = argparse.ArgumentParser(
        prog="veroproj",
        description="Toric ideals of monomial projections of Veronese varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common, *parents], help=help_)
        p.set_defaults(func=func)
        return p

    p = add("omega", _cmd_omega, "build a family and emit its monomial set")
    p.add_argument("family", help="family spec, e.g. 'pinched(3,5,2)' or 'group(C(4;0,1,2,3))'")

    p = add("mingens", _cmd_mingens, "minimal generator table of the toric ideal", horizon)
    p.add_argument("family")

    p = add("hilbert", _cmd_hilbert, "Hilbert function values HF(0..K)", horizon)
    p.add_argument("family")

    p = add("normal2", _cmd_normal2, "2-normality check with witness")
    p.add_argument("family")

    p = add("hvec", _cmd_hvec, "h-vector (group slice count or series route)", horizon)
    p.add_argument("family")

    p = add("gb", _cmd_gb, "reduced Groebner basis under a given order", horizon)
    p.add_argument("family")
    p.add_argument("--order", default="degrevlex", help="order spec, e.g. 'rc(6,2,3)' or 'lex : w2 > w0 > w1'")

    p = add("gb-search", _cmd_gb_search, "search for a quadratic Groebner basis", searched, horizon)
    p.add_argument("family")

    p = add("lift", _cmd_lift, "lift a family through a variable split")
    p.add_argument("family")
    p.add_argument("--sizes", required=True, help="comma-separated block sizes, e.g. 2,1,1")
    p.add_argument("--order", default=None, help="base order to lift; runs the lifted basis for group families")

    p = add("label", _cmd_label, "theorem-backed Koszul/quadraticity label for a family")
    p.add_argument("family")

    p = add("scenario", _cmd_scenario, "run a named reproduction scenario", searched)
    p.add_argument("name", help="scenario name; see error listing for choices")

    # None defaults let --group reject each flag it does not read
    p = add("survey", _cmd_survey, "survey canonical cyclic groups, or report one group", searched)
    p.add_argument("--n", type=int, default=None, help="number of variables minus one (default 2)")
    p.add_argument("--d-min", type=int, default=None, help="smallest group order (default 2)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--d-max", type=int, default=None, help="largest group order")
    p.add_argument("--no-search", action="store_true", help="skip the quadratic-order search phase")
    p.add_argument("--jsonl", default=None, metavar="PATH", help="append-only row store (enables resuming)")
    p.add_argument("--csv", default=None, metavar="PATH", help="write a CSV digest of the row store")
    mode.add_argument("--group", default=None, metavar="GROUP", help="the survey row of one group's canonical form")

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # the "veroproj" INFO lines (a survey's one per order) are progress: on stderr, so stdout
    # stays the report alone, and only until main returns, so in-process callers collect none
    logger = logging.getLogger("veroproj")
    progress, level = logging.StreamHandler(sys.stderr), logger.level
    progress.setLevel(logging.INFO)
    logger.addHandler(progress)
    logger.setLevel(min(logger.getEffectiveLevel(), logging.INFO))
    try:
        return args.func(args)
    except GuardExceeded as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # SpecParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(progress)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
