"""Named monomial families, theorem-backed labels, and scripted scenarios.

A FamilySpec names one of the monomial subsets the library knows how to
build from a handful of integers: pinched Veronese sets, support-core
supersets, single-monomial complements, large-exponent complements and
their two removed-orbit specializations, group invariants, and explicit
files.  `build` materializes the set and re-checks the defining
predicate, `koszul_label` applies the encoded classification theorems
(guarded by their exact hypotheses, never extrapolated), and
`run_scenario` executes one of the named reproduction scripts and
returns a structured expected-versus-actual report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DEFAULT_GUARD, SpecParseError
from .fibers import (
    h_polynomial,
    hilbert_values,
    is_2_normal,
    is_product_of_two,
    minimal_generator_table,
)
from .groebner import (
    TermOrder,
    ambient_ranks,
    buchberger,
    lift_omega,
    lift_order,
    parse_order,
    search_quadratic_order,
    toric_basis,
    toric_generators,
    verify_groebner,
)
from .groups import (
    DiagonalGroup,
    _normal_form,
    block_group,
    canonical_weight_vectors,
    cyclic_group,
    h_vector_group,
    invariants_of_degree,
    parse_group,
    surface_certificate,
    surface_quadraticity,
)
from .monomials import (
    Monomial,
    MonomialSet,
    _positive_compositions,
    enumerate_support_bounded,
    read_omega,
)

__all__ = [
    "CITATIONS",
    "FamilySpec",
    "TheoremVerdict",
    "koszul_label",
    "parse_family",
    "run_scenario",
    "scenario_names",
]


# ---------------------------------------------------------------------------
# citation registry

# Keys are stable identifiers for the classification results the label
# rules rely on; the values say what each result claims, so a verdict
# can be traced without leaving the code base.
CITATIONS: dict[str, str] = {
    "full-veronese-gb": (
        "the set of all degree-d monomials presents with a quadratic "
        "Groebner basis, hence is G-quadratic and Koszul"
    ),
    "support-half-quadratic": (
        "for n, d >= 2, any set containing every degree-d monomial "
        "supported in at most ceil((n+2)/2) variables is quadratic"
    ),
    "pinched-veronese-232-koszul": (
        "the degree-3 plane monomials in at most two variables span a "
        "Koszul algebra"
    ),
    "large-exponent-complement-koszul": (
        "the monomials with some exponent above lambda form a Koszul "
        "algebra when s*lambda*(n+1) > (lambda+1)*n, where s is the "
        "largest integer with d > s*lambda"
    ),
    "removed-power-koszul": (
        "removing (x0...xn)^lambda from the degree-lambda*(n+1) "
        "monomials leaves a Koszul algebra"
    ),
    "removed-orbit-koszul": (
        "removing the n+1 near-powers of x0...xn from the degree-"
        "(lambda*(n+1)-1) monomials leaves a Koszul algebra"
    ),
    "surface-koszul-classification": (
        "a diagonal surface invariant algebra is Koszul iff it is "
        "quadratic iff some degree-d invariant uses exactly two "
        "variables; for cyclic weights the gcd product decides it"
    ),
    "surface-koszul-noncyclic": (
        "noncyclic diagonal surface groups always have an invariant in "
        "two of the variables, so their algebras are Koszul"
    ),
    "threefold-parity": (
        "the cyclic threefold group with weights (0,1,2,3) gives a "
        "quadratic algebra exactly when its order is even"
    ),
    "rc-order-quadratic-gb": (
        "cyclic surface weights equivalent to (0,1,k) with order "
        "t*k*(k-1) admit a quadratic Groebner basis under the "
        "rectangular weight order"
    ),
    "even-reflection-gb": (
        "cyclic surface weights (0,k,d-k) with d even and gcd(d,k)=1 "
        "admit a quadratic Groebner basis"
    ),
    "veronese-power-gb": (
        "when gcd(d,a1,a2) > 1 the invariant algebra is a Veronese "
        "power of a regularity-3 algebra and has a quadratic Groebner "
        "basis"
    ),
    "cyclic-extension-gb": (
        "the t-th cyclic extension of a diagonal surface group has a "
        "quadratic Groebner basis once 2*t reaches the regularity "
        "bound 3"
    ),
    "quartic-threefold-revlex-gb": (
        "the order-4 threefold group with weights (0,1,2,3) admits a "
        "quadratic revlex Groebner basis on suitably sorted invariants"
    ),
}


@dataclass(frozen=True)
class TheoremVerdict:
    """Classification claim about one family's presentation algebra.

    property is one of Quadratic, Koszul, GQuadratic, NotQuadratic,
    NotKoszul, or None when the status is unknown.  A proved-by-theorem
    status always names a citation key from CITATIONS.
    """

    property: str | None
    status: str
    citation: str | None = None
    detail: str = ""

    PROPERTIES = ("Quadratic", "Koszul", "GQuadratic", "NotQuadratic", "NotKoszul")
    STATUSES = ("proved-by-theorem", "unknown")

    def __post_init__(self) -> None:
        if self.status not in self.STATUSES:
            raise ValueError(f"unknown verdict status {self.status!r}")
        if self.status == "unknown":
            if self.property is not None:
                raise ValueError("an unknown verdict cannot carry a property")
            return
        if self.property not in self.PROPERTIES:
            raise ValueError(f"unknown property {self.property!r}")
        if self.citation not in CITATIONS:
            raise ValueError(f"citation {self.citation!r} is not in the registry")

    def to_json_dict(self) -> dict:
        out: dict = {"property": self.property, "status": self.status}
        if self.citation is not None:
            out["citation"] = self.citation
        if self.detail:
            out["detail"] = self.detail
        return out


# ---------------------------------------------------------------------------
# family specs

FAMILY_KINDS = (
    "pinched", "support", "complement", "ci", "koszul1", "koszul2", "group", "explicit",
)


@dataclass(frozen=True)
class FamilySpec:
    """A named monomial family plus the parameters that pin it down."""

    kind: str
    n: int | None = None
    d: int | None = None
    s: int | None = None
    lam: int | None = None
    extras: tuple[tuple[int, ...], ...] = ()
    removed: tuple[int, ...] | None = None
    group: DiagonalGroup | None = None
    t: int = 1
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")

    def spec_string(self) -> str:
        k = self.kind
        if k == "pinched":
            return f"pinched({self.n},{self.d},{self.s})"
        if k == "support":
            base = f"support({self.n},{self.d},{self.s}"
            if not self.extras:
                return base + ")"
            extras = ", ".join(" ".join(str(e) for e in m) for m in self.extras)
            return f"{base}; {extras})"
        if k == "complement":
            exps = " ".join(str(e) for e in self.removed)
            return f"complement({self.n},{self.d}; {exps})"
        if k == "ci":
            return f"ci({self.n},{self.d},{self.lam})"
        if k in ("koszul1", "koszul2"):
            return f"{k}({self.n},{self.lam})"
        if k == "group":
            if self.t == 1:
                return f"group({self.group.spec_string()})"
            return f"group({self.group.spec_string()}, {self.t})"
        return f"file:{self.path}"

    def build(self, guard: int = DEFAULT_GUARD) -> MonomialSet:
        """Materialize the family and re-check its defining predicate."""
        k = self.kind
        if k in ("pinched", "support"):
            n, d, s = self.n, self.d, self.s
            if n is None or n < 1 or d is None or d < 1:
                raise ValueError(f"{k} needs n >= 1 and d >= 1, got n={n}, d={d}")
            if s is None or not 1 <= s <= n + 1:
                raise ValueError(f"{k} needs 1 <= s <= n+1 = {n + 1}, got s={s}")
            core = enumerate_support_bounded(n, d, s)
            members = list(core)
            for m in self.extras:
                mm = Monomial(m)
                if mm.degree != d or mm.nvars != n + 1:
                    raise ValueError(
                        f"extra {tuple(mm)} is not a degree-{d} monomial in {n + 1} variables"
                    )
                if len(mm.support()) <= s:
                    raise ValueError(
                        f"extra {tuple(mm)} is already in the support-{s} core"
                    )
                members.append(mm)
            omega = MonomialSet(members)
            extras = {tuple(e) for e in self.extras}
            if not all(len(m.support()) <= s or tuple(m) in extras for m in omega):
                raise AssertionError(
                    f"{self.spec_string()} has a member outside the support-{s} core and extras"
                )
            return omega
        if k == "complement":
            n, d = self.n, self.d
            if n is None or n < 1 or d is None or d < 1:
                raise ValueError(f"complement needs n >= 1 and d >= 1, got n={n}, d={d}")
            full = MonomialSet.full(n, d)
            return full.remove(self.removed)
        if k == "ci":
            n, d, lam = self.n, self.d, self.lam
            if lam is None or lam < 1 or d is None or not d > lam:
                raise ValueError(f"ci needs d > lambda >= 1, got d={d}, lambda={lam}")
            if n is None or n < 1:
                raise ValueError(f"ci needs n >= 1, got {n}")
            members = [m for m in MonomialSet.full(n, d) if max(m) > lam]
            omega = MonomialSet(members)
            if not all(max(m) > lam for m in omega):
                raise AssertionError(
                    f"{self.spec_string()} has a member with every exponent <= {lam}"
                )
            return omega
        if k == "koszul1":
            n, lam = self.n, self.lam
            if n is None or n < 1 or lam is None or lam < 1:
                raise ValueError(f"koszul1 needs n >= 1 and lambda >= 1, got n={n}, lambda={lam}")
            d = lam * (n + 1)
            removed = tuple([lam] * (n + 1))
            return MonomialSet.full(n, d).remove(removed)
        if k == "koszul2":
            n, lam = self.n, self.lam
            if n is None or n < 1 or lam is None or lam < 1:
                raise ValueError(f"koszul2 needs n >= 1 and lambda >= 1, got n={n}, lambda={lam}")
            d = lam * (n + 1) - 1
            orbit = []
            for i in range(n + 1):
                exps = [lam] * (n + 1)
                exps[i] = lam - 1
                orbit.append(tuple(exps))
            full = MonomialSet.full(n, d)
            if len(full) <= len(orbit):
                raise ValueError(
                    f"koszul2({n},{lam}) removes every degree-{d} monomial; nothing is left"
                )
            return full.remove(*orbit)
        if k == "group":
            if self.t < 1:
                raise ValueError(f"group extension step must be >= 1, got {self.t}")
            return invariants_of_degree(self.group, self.t, guard=guard)
        omega = read_omega(self.path)
        return omega


def parse_family(text: str) -> FamilySpec:
    """Parse a family spec string.

    Grammar:  full(n,d) | pinched(n,d,s) | support(n,d,s[; e.. , e..])
    | complement(n,d; e0 e1 ... en) | ci(n,d,lambda) | koszul1(n,lambda)
    | koszul2(n,lambda) | group(GROUPSPEC[, t]) | file:PATH
    """
    text = text.strip()
    if text.startswith("file:"):
        path = text[5:].strip()
        if not path:
            raise SpecParseError("family", text, text, "empty path after file:")
        return FamilySpec("explicit", path=path)
    if "(" not in text or not text.endswith(")"):
        raise SpecParseError("family", text, text, "expected kind(...) or file:PATH")
    head, body = text.split("(", 1)
    head = head.strip()
    body = body[:-1]

    def ints(parts: list[str], want: int, what: str) -> list[int]:
        if len(parts) != want:
            raise SpecParseError(
                "family", text, body, f"{what} takes {want} integers, got {len(parts)}"
            )
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise SpecParseError("family", text, body, f"{what} needs integer arguments")

    def exponents(token: str) -> tuple[int, ...]:
        try:
            return tuple(int(p) for p in token.split())
        except ValueError:
            raise SpecParseError("family", text, token, "exponent vectors are space-separated integers")

    if head == "full":
        n, d = ints(body.split(","), 2, "full")
        if n < 1 or d < 1:  # checked here, as `build` sees only the pinched spec
            raise SpecParseError("family", text, body, f"full needs n >= 1 and d >= 1, got n={n}, d={d}")
        return FamilySpec("pinched", n=n, d=d, s=n + 1)
    if head == "pinched":
        n, d, s = ints(body.split(","), 3, "pinched")
        return FamilySpec("pinched", n=n, d=d, s=s)
    if head == "support":
        main, _, extra_part = body.partition(";")
        n, d, s = ints(main.split(","), 3, "support")
        extras = tuple(
            exponents(tok) for tok in extra_part.split(",") if tok.strip()
        ) if extra_part.strip() else ()
        return FamilySpec("support", n=n, d=d, s=s, extras=extras)
    if head == "complement":
        main, sep, exp_part = body.partition(";")
        if not sep or not exp_part.strip():
            raise SpecParseError("family", text, body, "complement needs '; e0 e1 ... en'")
        n, d = ints(main.split(","), 2, "complement")
        removed = exponents(exp_part.strip())
        if len(removed) != n + 1:
            raise SpecParseError(
                "family", text, exp_part.strip(), f"removed monomial needs {n + 1} exponents"
            )
        return FamilySpec("complement", n=n, d=d, removed=removed)
    if head == "ci":
        n, d, lam = ints(body.split(","), 3, "ci")
        return FamilySpec("ci", n=n, d=d, lam=lam)
    if head in ("koszul1", "koszul2"):
        n, lam = ints(body.split(","), 2, head)
        return FamilySpec(head, n=n, lam=lam)
    if head == "group":
        parts: list[str] = []
        depth = 0
        start = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(body[start:i])
                start = i + 1
        parts.append(body[start:])
        if not 1 <= len(parts) <= 2:
            raise SpecParseError("family", text, body, "group takes GROUPSPEC and optionally t")
        grp = parse_group(parts[0].strip())
        t = 1
        if len(parts) == 2:
            try:
                t = int(parts[1].strip())
            except ValueError:
                raise SpecParseError("family", text, parts[1], "extension step t must be an integer")
        return FamilySpec("group", group=grp, t=t)
    raise SpecParseError("family", text, head, f"unknown family kind {head!r}")


# ---------------------------------------------------------------------------
# theorem-backed labels


def _group_label(group: DiagonalGroup, t: int, guard: int) -> TheoremVerdict:
    if group.n == 2:
        if t >= 2:
            return TheoremVerdict(
                "GQuadratic", "proved-by-theorem", "cyclic-extension-gb",
                detail=f"extension step t={t} meets the regularity-3 bound",
            )
        cert = surface_certificate(group)
        if cert is not None:
            return TheoremVerdict("GQuadratic", "proved-by-theorem", cert.rule, detail=cert.detail)
        verdict = surface_quadraticity(group, guard)
        citation = (
            "surface-koszul-noncyclic"
            if verdict.route == "noncyclic-invariant"
            else "surface-koszul-classification"
        )
        return TheoremVerdict(
            "Koszul" if verdict.quadratic else "NotKoszul",
            "proved-by-theorem", citation, detail=verdict.detail,
        )
    if group.n == 3 and t == 1 and group.is_cyclic_presentation:
        d = group.order
        if _normal_form(group) == (0, 1, 2, 3) and d >= 4:
            if d == 4:
                return TheoremVerdict(
                    "GQuadratic", "proved-by-theorem", "quartic-threefold-revlex-gb",
                )
            return TheoremVerdict(
                "Quadratic" if d % 2 == 0 else "NotQuadratic",
                "proved-by-theorem", "threefold-parity",
                detail=f"order {d} is {'even' if d % 2 == 0 else 'odd'}",
            )
    return TheoremVerdict(None, "unknown")


def koszul_label(spec: FamilySpec, guard: int = DEFAULT_GUARD) -> TheoremVerdict:
    """Strongest classification the encoded theorems give this family.

    Every rule re-checks its hypothesis exactly; a family matching no
    rule comes back unknown rather than extrapolated.
    """
    k = spec.kind
    if k in ("pinched", "support"):
        n, d, s = spec.n, spec.d, spec.s
        if k == "pinched" and s == n + 1:
            return TheoremVerdict(
                "GQuadratic", "proved-by-theorem", "full-veronese-gb",
                detail="the support bound n+1 keeps every monomial",
            )
        if k == "pinched" and (n, d, s) == (2, 3, 2):
            return TheoremVerdict("Koszul", "proved-by-theorem", "pinched-veronese-232-koszul")
        if n >= 2 and d >= 2 and 2 * s >= n + 2:
            return TheoremVerdict(
                "Quadratic", "proved-by-theorem", "support-half-quadratic",
                detail=f"s={s} >= ceil((n+2)/2)={(n + 3) // 2}",
            )
        return TheoremVerdict(None, "unknown")
    if k == "ci":
        n, d, lam = spec.n, spec.d, spec.lam
        s = (d - 1) // lam
        if s * lam * (n + 1) > (lam + 1) * n:
            return TheoremVerdict(
                "Koszul", "proved-by-theorem", "large-exponent-complement-koszul",
                detail=f"s={s}, {s}*{lam}*{n + 1} > {(lam + 1) * n}",
            )
        return TheoremVerdict(None, "unknown")
    if k == "koszul1":
        return TheoremVerdict(
            "Koszul", "proved-by-theorem", "removed-power-koszul",
            detail=f"d = {spec.lam}*({spec.n}+1) = {spec.lam * (spec.n + 1)}",
        )
    if k == "koszul2":
        return TheoremVerdict(
            "Koszul", "proved-by-theorem", "removed-orbit-koszul",
            detail=f"d = {spec.lam}*({spec.n}+1)-1 = {spec.lam * (spec.n + 1) - 1}",
        )
    if k == "group":
        return _group_label(spec.group, spec.t, guard)
    return TheoremVerdict(None, "unknown")


# ---------------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class ScenarioOptions:
    seed: int = 0
    budget: int = 200
    guard: int = DEFAULT_GUARD


def _norm(value):
    """JSON-friendly normal form used for report fields and matching."""
    if isinstance(value, dict):
        return {str(k): _norm(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_norm(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_norm(v) for v in value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _step(op: str, inputs: dict, expected, actual) -> dict:
    expected = _norm(expected)
    actual = _norm(actual)
    return {
        "op": op,
        "inputs": _norm(inputs),
        "expected": expected,
        "actual": actual,
        "match": expected == actual,
    }


# reference data used by more than one scenario
ESCALATING_TABLES = {4: {2: 2, 4: 1}, 5: {2: 1, 3: 2, 5: 1}, 6: {2: 4, 6: 1}}

QUARTIC_GROUP = "C(4;0,1,2,3)"

QUARTIC_B1 = {
    (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4),
    (2, 1, 0, 1), (1, 2, 1, 0), (0, 1, 2, 1), (1, 0, 1, 2),
    (2, 0, 2, 0), (0, 2, 0, 2),
}

QUARTIC_B2 = {
    (8, 0, 0, 0), (0, 8, 0, 0), (1, 6, 1, 0), (2, 4, 2, 0), (3, 2, 3, 0),
    (4, 0, 4, 0), (2, 5, 0, 1), (3, 3, 1, 1), (4, 1, 2, 1), (4, 2, 0, 2),
    (5, 0, 1, 2), (0, 0, 8, 0), (0, 1, 6, 1), (0, 2, 4, 2), (1, 0, 5, 2),
    (0, 3, 2, 3), (1, 1, 3, 3), (0, 4, 0, 4), (1, 2, 1, 4), (2, 0, 2, 4),
    (2, 1, 0, 5), (0, 0, 0, 8),
}

# h-vector of C(4;0,1,2,3): HF(k) = 1, 10, 43, 116, ... (the degree-4k
# invariant counts) give h = (1, 6, 9, 0), whose sum is the degree
# 4^3/|G| = 16.  The recorded claim (1, 6, 4, 0) sums to 11; its 4 counts
# the cap-3 survivors of the level-2 slice (mod 8), not the degree-8
# invariants of the order-4 action with exponents <= 3 (there are 9).
QUARTIC_H = (1, 6, 9, 0)
QUARTIC_DEGREE = 16
QUARTIC_H_CLAIM = (1, 6, 4, 0)


def _escalating_omega(d: int) -> MonomialSet:
    # pure powers, the near-power x0^{d-1}x1, and the ladder x0^k x1^{d-2k} x2^k
    members = [(d, 0, 0), (0, d, 0), (0, 0, d), (d - 1, 1, 0)]
    members.extend((k, d - 2 * k, k) for k in range(1, d // 2 + 1))
    return MonomialSet(members)


def _scenario_escalating(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for d, expected in ESCALATING_TABLES.items():
        omega = _escalating_omega(d)
        table = minimal_generator_table(omega, k_max=d + 1, guard=opts.guard)
        steps.append(_step(
            "mingens",
            {"members": [tuple(m) for m in omega], "k_max": d + 1},
            expected,
            table.degrees,
        ))
    return steps


def _scenario_square_complement(opts: ScenarioOptions) -> list[dict]:
    spec = parse_family("complement(2,4; 2 2 0)")
    omega = spec.build(opts.guard)
    steps = [_step("omega-size", {"family": spec.spec_string()}, 14, len(omega))]
    table = minimal_generator_table(omega, guard=opts.guard)
    steps.append(_step(
        "mingens",
        {"family": spec.spec_string(), "bound": table.bound},
        {2: 60, 3: 3},
        table.degrees,
    ))
    return steps


def _scenario_pinched_352(opts: ScenarioOptions) -> list[dict]:
    spec = parse_family("pinched(3,5,2)")
    omega = spec.build(opts.guard)
    table = minimal_generator_table(omega, k_max=3, guard=opts.guard)
    return [_step(
        "mingens-up-to",
        {"family": spec.spec_string(), "k_max": 3},
        {2: 168, 3: 12},
        table.degrees,
    )]


def _scenario_two_normal_complements(opts: ScenarioOptions) -> list[dict]:
    pv = parse_family("pinched(3,5,2)").build(opts.guard)
    steps = [
        _step(
            "is-product-of-two",
            {"family": "pinched(3,5,2)", "target": (2, 2, 2, 4)},
            False,
            is_product_of_two(pv, (2, 2, 2, 4)),
        ),
        _step(
            "is-2-normal", {"family": "pinched(3,5,2)"},
            False, is_2_normal(pv, guard=opts.guard)[0],
        ),
    ]
    # proved: removing one non-pure-power m from full(n, d) keeps
    # 2-normality and the full Hilbert values at k = 2, 3 unless m is a
    # near-power x_i^{d-1} x_j; then x_i^{2d-1} x_j (resp. x_i^{3d-1} x_j)
    # factors only through x_i^d * m, so it drops out of degree 2 (resp. 3).
    # This refutes the recorded claim that every such removal keeps both.
    for n, d in ((2, 4), (2, 5), (3, 3)):
        full = MonomialSet.full(n, d)
        near = [str(Monomial(m)) for m in full if sorted(m, reverse=True)[:2] == [d - 1, 1]]
        bad_normal: list[str] = []
        bad_hilbert: list[str] = []
        for m in full:
            if len(m.support()) == 1:
                continue
            omega = full.remove(m)
            ok, _witness = is_2_normal(omega, guard=opts.guard)
            if not ok:
                bad_normal.append(str(Monomial(m)))
            hf = hilbert_values(omega, 3, guard=opts.guard)
            want = [math.comb(n + k * d, n) for k in (2, 3)]
            if [hf[2], hf[3]] != want:
                bad_hilbert.append(str(Monomial(m)))
        steps.append(_step(
            "two-normal-removal-sweep", {"n": n, "d": d},
            {"not-2-normal": near, "hilbert-short": near},
            {"not-2-normal": bad_normal, "hilbert-short": bad_hilbert},
        ))
    return steps


def _scenario_pinched_grid(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for n in range(2, 5):
        s = (n + 3) // 2
        for d in range(2, 6):
            spec = parse_family(f"pinched({n},{d},{s})")
            omega = spec.build(opts.guard)
            normal, _witness = is_2_normal(omega, guard=opts.guard)
            if normal:
                table = minimal_generator_table(omega, bound="two-normal", guard=opts.guard)
                status = table.quadraticity().status
            else:
                status = "not-2-normal"
            steps.append(_step(
                "quadraticity",
                {"family": spec.spec_string()},
                {"status": "yes"},
                {"status": status},
            ))
    return steps


def _scenario_quartic_invariants(opts: ScenarioOptions) -> list[dict]:
    g = parse_group(QUARTIC_GROUP)
    steps = []
    for t, expected in ((1, QUARTIC_B1), (2, QUARTIC_B2)):
        actual = {tuple(m) for m in invariants_of_degree(g, t, guard=opts.guard)}
        steps.append(_step(
            "invariants", {"group": QUARTIC_GROUP, "t": t}, expected, actual,
        ))
    return steps


def _surface_sweep(d_max: int, check, opts: ScenarioOptions) -> list[dict]:
    """One step per order d; check(group) returns a mismatch label or None."""
    steps = []
    for d in range(2, d_max + 1):
        mismatches = []
        for weights in canonical_weight_vectors(2, d):
            g = cyclic_group(d, weights)
            label = check(g)
            if label is not None:
                mismatches.append(label)
        steps.append(_step(
            "surface-sweep", {"d": d}, {"mismatches": []}, {"mismatches": mismatches},
        ))
    return steps


def _scenario_surface_criterion(opts: ScenarioOptions) -> list[dict]:
    def check(g: DiagonalGroup) -> str | None:
        crit = surface_quadraticity(g)
        b1 = invariants_of_degree(g, 1, guard=opts.guard)
        table = minimal_generator_table(b1, bound="group", guard=opts.guard)
        fiber_answer = table.quadraticity().status == "yes"
        if crit.quadratic != fiber_answer:
            return f"{g.spec_string()}: criterion {crit.quadratic}, fibers {fiber_answer}"
        return None

    return _surface_sweep(20, check, opts)


def _scenario_surface_koszul(opts: ScenarioOptions) -> list[dict]:
    def check(g: DiagonalGroup) -> str | None:
        verdict = surface_quadraticity(g)
        b1 = invariants_of_degree(g, 1, guard=opts.guard)
        support2 = any(len(m.support()) == 2 for m in b1)
        if verdict.quadratic != support2:
            return f"{g.spec_string()}: {verdict.route} {verdict.quadratic}, support-2 {support2}"
        return None

    return _surface_sweep(20, check, opts)


def _scenario_threefold_parity(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for d in range(4, 11):
        g = cyclic_group(d, (0, 1, 2, 3))
        b1 = invariants_of_degree(g, 1, guard=opts.guard)
        table = minimal_generator_table(b1, bound="group", guard=opts.guard)
        steps.append(_step(
            "quadraticity", {"group": g.spec_string()},
            {"quadratic": d % 2 == 0},
            {"quadratic": table.quadraticity().status == "yes"},
        ))
    return steps


def _scenario_rc_orders(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for k in range(2, 6):
        stride = k * (k - 1)
        for d in range(stride, 25, stride):
            omega = invariants_of_degree(cyclic_group(d, (0, 1, k)), 1)
            order = parse_order(f"rc({d},{k},{d // stride})", omega)
            gens = toric_generators(omega, guard=opts.guard)
            gb = buchberger(gens, order)
            steps.append(_step(
                "groebner-max-degree",
                {"order": order.spec_string(), "mu": len(omega)},
                {"max_degree": 2},
                {"max_degree": gb.max_degree},
            ))
    return steps


def _scenario_quartic_gb(opts: ScenarioOptions) -> list[dict]:
    g = parse_group(QUARTIC_GROUP)
    b1 = invariants_of_degree(g, 1, guard=opts.guard)
    # revlex on the members ranked by degrevlex on the ambient variables 1 > 3 > 0 > 2
    xperm = (1, 3, 0, 2)
    ranks = ambient_ranks(b1, TermOrder("degrevlex", xperm))
    order = TermOrder("revlex", ranks, origin=f"ambient-sorted-revlex{xperm}")
    gens = toric_generators(b1, guard=opts.guard)
    gb = buchberger(gens, order)
    return [
        _step(
            "mingens", {"group": QUARTIC_GROUP},
            {"degrees": {2: 12}},
            {"degrees": {d: sum(1 for x in gens if x.degree == d) for d in {x.degree for x in gens}}},
        ),
        _step(
            "groebner-max-degree",
            {"order": order.spec_string(), "verified": verify_groebner(gb, gens)},
            {"max_degree": 2},
            {"max_degree": gb.max_degree},
        ),
    ]


def _scenario_h_vector(opts: ScenarioOptions) -> list[dict]:
    def check(g: DiagonalGroup) -> str | None:
        b1 = invariants_of_degree(g, 1, guard=opts.guard)
        direct = h_vector_group(g, guard=opts.guard).h
        series = h_polynomial(b1, guard=opts.guard)
        if tuple(series) != tuple(direct):
            return f"{g.spec_string()}: series {series}, direct {direct}"
        return None

    steps = _surface_sweep(12, check, opts)
    g = parse_group(QUARTIC_GROUP)
    b1 = invariants_of_degree(g, 1, guard=opts.guard)
    series = h_polynomial(b1, guard=opts.guard)
    direct = h_vector_group(g, guard=opts.guard).h
    steps.append(_step(
        "h-vector-routes-agree", {"group": QUARTIC_GROUP},
        {"equal": True}, {"equal": tuple(series) == tuple(direct)},
    ))
    steps.append(_step(
        "h-vector-value", {"group": QUARTIC_GROUP, "recorded-claim": QUARTIC_H_CLAIM},
        QUARTIC_H, direct,
    ))
    steps.append(_step(
        "h-vector-degree", {"group": QUARTIC_GROUP, "degree": "4^3/|G|"},
        QUARTIC_DEGREE, sum(direct),
    ))
    survivors = {m for m in QUARTIC_B2 if max(m) <= 3}
    steps.append(_step(
        "b2-filter-survivors", {"group": QUARTIC_GROUP, "cap": 3},
        {(3, 2, 3, 0), (3, 3, 1, 1), (0, 3, 2, 3), (1, 1, 3, 3)},
        survivors,
    ))
    return steps


def _scenario_lift(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for spec in ("C(4;0,1,3)", "C(6;0,1,3)"):
        g = parse_group(spec)
        b1 = invariants_of_degree(g, 1, guard=opts.guard)
        found = search_quadratic_order(b1, budget=opts.budget, seed=opts.seed, guard=opts.guard)
        steps.append(_step(
            "base-order-search", {"group": spec, "budget": opts.budget, "seed": opts.seed},
            {"status": "found"}, {"status": found.status},
        ))
        if not found.found:
            continue
        for total in range(3, 6):
            for sizes in _positive_compositions(total, 3):
                lifted = lift_omega(b1, sizes, guard=opts.guard)
                block = invariants_of_degree(block_group(g, sizes), 1, guard=opts.guard)
                same = [tuple(m) for m in lifted] == [tuple(m) for m in block]
                order = lift_order(found.order, b1, lifted, sizes)
                max_degree = toric_basis(block, order, guard=opts.guard).max_degree
                steps.append(_step(
                    "lift", {"group": spec, "sizes": sizes},
                    {"matches-block-group": True, "max_degree": 2},
                    {"matches-block-group": same, "max_degree": max_degree},
                ))
    return steps


def _scenario_surface_search(opts: ScenarioOptions) -> list[dict]:
    steps = []
    for d in range(2, 16):
        missing = []
        for weights in canonical_weight_vectors(2, d):
            g = cyclic_group(d, weights)
            if not surface_quadraticity(g).quadratic:
                continue
            b1 = invariants_of_degree(g, 1, guard=opts.guard)
            result = search_quadratic_order(
                b1, budget=opts.budget, seed=opts.seed, guard=opts.guard
            )
            if not result.found:
                missing.append(g.spec_string())
        steps.append(_step(
            "gb-search-sweep",
            {"d": d, "budget": opts.budget, "seed": opts.seed},
            {"not-found": []},
            {"not-found": missing},
        ))
    return steps


SCENARIOS = {
    "escalating-generator-degrees": _scenario_escalating,
    "square-complement-table": _scenario_square_complement,
    "pinched-veronese-3-5-2": _scenario_pinched_352,
    "two-normal-complements": _scenario_two_normal_complements,
    "pinched-veronese-quadratic-grid": _scenario_pinched_grid,
    "quartic-group-invariants": _scenario_quartic_invariants,
    "surface-criterion-cross-check": _scenario_surface_criterion,
    "surface-koszul-cross-check": _scenario_surface_koszul,
    "threefold-parity": _scenario_threefold_parity,
    "rc-order-quadratic": _scenario_rc_orders,
    "quartic-group-quadratic-gb": _scenario_quartic_gb,
    "h-vector-dual-route": _scenario_h_vector,
    "lift-preservation": _scenario_lift,
    "quadratic-surface-gb-search": _scenario_surface_search,
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def run_scenario(
    name: str,
    seed: int = 0,
    budget: int = 200,
    guard: int = DEFAULT_GUARD,
) -> dict:
    """Run a named scenario and return its expected-versus-actual report."""
    if name not in SCENARIOS:
        available = ", ".join(scenario_names())
        raise SpecParseError("scenario", name, name, f"unknown scenario; available: {available}")
    opts = ScenarioOptions(seed=seed, budget=budget, guard=guard)
    steps = SCENARIOS[name](opts)
    overall = "pass" if all(s["match"] for s in steps) else "fail"
    return {"name": name, "steps": steps, "overall": overall}
