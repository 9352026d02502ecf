"""Finite diagonal abelian group actions and their invariant monomials.

A finite abelian subgroup of GL(n+1, K) that acts diagonally (K large
enough, char 0 in mind) is presented here as a product of cyclic
factors.  A factor of order e with weights (w_0, ..., w_n) sends x_j to
zeta^{w_j} x_j for a primitive e-th root of unity zeta, so a monomial
x^a is invariant exactly when

    sum_j w_j a_j == 0  (mod e)

holds for every factor.  Everything downstream (Hilbert series slices,
h-vectors, the surface quadraticity criterion, block groups for lifts)
reduces to enumerating solutions of those congruences degree by degree,
in one walk per call whose last two exponents step through one
arithmetic progression per prefix, as does its last walked exponent,
with the congruence constants computed once per call.

Presentations are taken at face value: weights are reduced modulo the
factor order but a factor whose action has smaller order than presented
is kept as presented, because the enumeration degree t * |G| depends on
the presented order.  All weight arithmetic on cyclic groups lives here:
the normal form (shift by the first weight, sort) that the one surface
verdict, the surface certificates and the threefold parity label read,
and the canonical form (least sorted shift, common factor with the order
divided out) that survey rows are keyed by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .errors import DEFAULT_GUARD, GuardExceeded, SpecParseError
from .monomials import MonomialSet


@dataclass(frozen=True)
class CyclicFactor:
    """One cyclic factor of a diagonal group presentation."""

    order: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"factor order must be positive, got {self.order}")
        if len(self.weights) < 1:
            raise ValueError("factor needs at least one weight")
        object.__setattr__(
            self, "weights", tuple(w % self.order for w in self.weights)
        )

    def spec_string(self) -> str:
        return f"C({self.order};{','.join(str(w) for w in self.weights)})"


class DiagonalGroup:
    """Product of cyclic factors acting diagonally on n+1 variables."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[CyclicFactor]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a group needs at least one factor")
        nv = len(factors[0].weights)
        for f in factors:
            if len(f.weights) != nv:
                raise ValueError(
                    f"factor {f.spec_string()} has {len(f.weights)} weights, "
                    f"expected {nv}"
                )
        self.factors = factors

    @property
    def n(self) -> int:
        return len(self.factors[0].weights) - 1

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    @property
    def is_cyclic_presentation(self) -> bool:
        return len(self.factors) == 1

    def spec_string(self) -> str:
        return "+".join(f.spec_string() for f in self.factors)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiagonalGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"DiagonalGroup({self.spec_string()!r})"


def cyclic_group(order: int, weights: Sequence[int]) -> DiagonalGroup:
    return DiagonalGroup([CyclicFactor(order, tuple(weights))])


def parse_group(text: str) -> DiagonalGroup:
    """Parse a presentation like "C(4; 0,1,2,3)" or "C(2;0,1,1)+C(4;0,2,3)"."""
    factors = []
    for chunk in text.split("+"):
        token = chunk.strip()
        if not (token.startswith("C(") and token.endswith(")")):
            raise SpecParseError("group", text, token, "expected C(order; w0,...,wn)")
        body = token[2:-1]
        if ";" not in body:
            raise SpecParseError("group", text, token, "missing ';' between order and weights")
        order_part, weights_part = body.split(";", 1)
        try:
            order = int(order_part.strip())
        except ValueError:
            raise SpecParseError("group", text, order_part.strip(), "order is not an integer") from None
        weights = []
        for field in weights_part.split(","):
            field = field.strip()
            try:
                weights.append(int(field))
            except ValueError:
                raise SpecParseError("group", text, field, "weight is not an integer") from None
        try:
            factors.append(CyclicFactor(order, tuple(weights)))
        except ValueError as exc:
            raise SpecParseError("group", text, token, str(exc)) from None
    return DiagonalGroup(factors)


def _invariant_monomials(
    group: DiagonalGroup,
    degree: int,
    cap: int | None = None,
    scale: int = 1,
    out: list[tuple[int, ...]] | None = None,
) -> int:
    """Count the monomials of the given total degree whose weighted exponent
    sums vanish modulo scale * order for every factor, optionally with every
    exponent bounded by cap, and append them to `out`, when given, in
    descending lex order.

    With scale == 1 these are exactly the invariant monomials of the
    group.  Positions 0..n-2 are walked with degree bounds; the last two
    exponents (x, rem - x) then solve one linear congruence a*x == b per
    factor, merged by CRT, so each tail is one arithmetic progression,
    counted or appended whole.  Only b depends on the prefix, so each
    factor's gcd, inverse and merge constants are computed once per
    call, and b is carried down the walk.  The e of the last walked
    position with a solvable tail form one progression of step E, the
    period, along which x's class moves by a fixed delta: each prefix
    solves at most E times, until its first solvable e, and then steps.
    """
    nv = group.n + 1
    if nv == 1:
        invariant = (cap is None or degree <= cap) and not any(
            f.weights[0] * degree % (f.order * scale) for f in group.factors)
        if invariant and out is not None:
            out.append((degree,))
        return int(invariant)
    # per factor of modulus m: w_p*x + w_q*(rem - x) + sum_j w_j*e_j == 0, so
    # a = w_p - w_q and b = -w_q*degree - sum_j (w_j - w_q)*e_j; a solution needs
    # g = gcd(a, m) | b and is x == (b/g) * inv (mod m2 = m/g), which joins the
    # earlier factors' class r (mod step) when h = gcd(step, m2) divides x - r
    consts, moduli, coefs, start, step = [], [], [], [], 1
    for f in group.factors:
        m = f.order * scale
        *ws, wp, wq = f.weights
        g = math.gcd(wp - wq, m)
        m2 = m // g
        h = math.gcd(step, m2)
        consts.append((g, m2, pow((wp - wq) // g, -1, m2), step, h, m2 // h, pow(step // h, -1, m2 // h)))
        step = step // h * m2
        moduli.append(m)
        coefs.append([(w - wq) % m for w in ws])
        start.append(-wq * degree % m)
    coefs = list(zip(*coefs))  # per prefix position, one coefficient per factor
    total, last = 0, nv - 2
    head = [0] * last  # the prefix's exponents

    def solve(bs: Sequence[int]) -> int | None:
        r = 0
        for b, (g, m2, inv, merged, h, m3, inv_merged) in zip(bs, consts):
            if b % g:
                return None
            x = b // g * inv % m2
            if (x - r) % h:
                return None
            r += merged * ((x - r) // h * inv_merged % m3)
        return r

    def emit(rem: int, r: int) -> None:
        nonlocal total
        lo, hi = (0, rem) if cap is None else (max(0, rem - cap), min(rem, cap))
        first = hi - (hi - r) % step  # descending lex wants the larger x first
        if first < lo:
            return
        xs = range(first, lo - 1, -step)
        total += len(xs)
        if out is not None:
            out.extend(zip(*map(repeat, head), xs, map(rem.__sub__, xs)))

    def walk(pos: int, rem: int, bs: Sequence[int]) -> None:
        top = rem if cap is None else min(rem, cap)
        low = 0 if cap is None else max(0, rem - cap * (nv - pos - 1))
        cs = coefs[pos]
        if pos < last - 1:
            for e in range(top, low - 1, -1):
                head[pos] = e
                walk(pos + 1, rem - e, [(b - c * e) % m for b, c, m in zip(bs, cs, moduli)])
            return
        # the last walked position: solve until the first solvable e, then step
        for e in range(top, max(low, top - period + 1) - 1, -1):
            if (r := solve([(b - c * e) % m for b, c, m in zip(bs, cs, moduli)])) is not None:
                break
        else:
            return
        for e in range(e, low - 1, -period):
            head[pos] = e
            emit(rem - e, r)
            r = (r + delta) % step

    if last:
        # b grows by the last walked column c per step down; the k with k*c solvable are a subgroup of Z
        period = 1
        while (delta := solve([period * c % m for c, m in zip(coefs[-1], moduli)])) is None:
            period += 1
        walk(0, degree, start)
    elif (r := solve(start)) is not None:
        emit(degree, r)
    return total


def _check_candidates(group: DiagonalGroup, degree: int, guard: int) -> None:
    # the walk's candidates are bounded by every monomial of the degree
    candidates = math.comb(group.n + degree, group.n)
    if candidates > guard:
        raise GuardExceeded(f"invariants of degree {degree} in {group.n + 1} variables", candidates, guard)


def invariants_of_degree(
    group: DiagonalGroup, t: int = 1, guard: int = DEFAULT_GUARD
) -> MonomialSet:
    """The generating slice B_t of the t-th extension of the group.

    Members are the monomials of degree t * |G| whose weighted exponent
    sums vanish modulo t * d_i for every cyclic factor of order d_i
    (weights taken in their reduced representatives).  For t == 1 this
    is exactly the set of invariant monomials of degree |G|; for larger
    t the scaled congruence carves the generators of the extension with
    the same weight pattern and t-fold order, a strict subset of the
    plain invariants of that degree.  Always contains every x_i^{t|G|}.
    The walk yields distinct members of the degree in descending lex
    order, so the set is built straight from its list, checking only the
    order (`MonomialSet.from_descending`).

    Parameters
    ----------
    group : the acting group, taken at its presented order
    t     : which slice of the extension tower to enumerate, t >= 1
    guard : bail out before enumerating more candidates than this
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    degree = t * group.order
    _check_candidates(group, degree, guard)
    members: list[tuple[int, ...]] = []
    if not _invariant_monomials(group, degree, scale=t, out=members):
        raise ValueError(
            f"group {group.spec_string()} has no invariants of degree {degree}"
        )
    return MonomialSet.from_descending(members, degree).tagged(group, t)


def count_invariants(
    group: DiagonalGroup, degree: int, cap: int | None = None, guard: int = DEFAULT_GUARD
) -> int:
    """Number of invariant monomials of a given total degree."""
    _check_candidates(group, degree, guard)
    return _invariant_monomials(group, degree, cap)


# ---------------------------------------------------------------------------
# cyclic weights: the normal form and the canonical form
# ---------------------------------------------------------------------------


def _shift(d: int, weights: Sequence[int], c: int) -> tuple[int, ...]:
    """The weights minus c, mod d.  A constant shift acts trivially on
    monomials whose degree is a multiple of d, so it fixes every slice."""
    return tuple((w - c) % d for w in weights)


def _normal_form(group: DiagonalGroup) -> tuple[int, ...]:
    """The weights of a cyclic presentation shifted by the first weight,
    which moves it to zero, then sorted, which renames the variables."""
    f = group.factors[0]
    return tuple(sorted(_shift(f.order, f.weights, f.weights[0])))


def _least_shift(d: int, weights: Sequence[int]) -> tuple[int, ...]:
    """The lexicographically least sorted shift of the weights."""
    return min(tuple(sorted(_shift(d, weights, c))) for c in set(weights))


def _unit_orbit(d: int, weights: Sequence[int]) -> set[tuple[int, ...]]:
    """The least sorted shifts of u * weights over the units u mod d.

    u * w generates the group w does, so every member has the same
    invariants up to the renaming of variables its sort applied.
    """
    return {
        _least_shift(d, [u * w % d for w in weights])
        for u in range(1, d + 1) if math.gcd(u, d) == 1
    }


def canonicalize_weights(d: int, weights: tuple[int, ...]) -> dict:
    """Audit record mapping a raw cyclic presentation to canonical form.

    Shifting every weight by a constant and permuting variables leave
    the invariant slices untouched, so the canonical form is the
    lexicographically least sorted shift; a common divisor with d is
    then divided out because the presented order exceeds the effective
    one (the reduced group is the same subgroup).
    """
    weights = tuple(w % d for w in weights)
    best = _least_shift(d, weights)
    g = math.gcd(d, *best)
    reduced_d = d // g
    reduced = tuple(w // g for w in best)
    spec = f"C({reduced_d};{','.join(str(w) for w in reduced)})"
    return {
        "raw": {"d": d, "weights": list(weights)},
        "shifted_sorted": list(best),
        "gcd": g,
        "canonical": {"d": reduced_d, "weights": list(reduced)},
        "spec": spec,
        "changed": g > 1 or best != weights,
    }


def canonical_group(group: DiagonalGroup) -> tuple[DiagonalGroup, dict | None]:
    """The canonical presentation of a cyclic group, plus its canonicalization record.

    Noncyclic presentations pass through unchanged (no canonicalization
    is defined for them); a cyclic one already in canonical form returns
    a None record.
    """
    if not group.is_cyclic_presentation:
        return group, None
    f = group.factors[0]
    record = canonicalize_weights(f.order, f.weights)
    if not record["changed"]:
        return group, None
    canon = record["canonical"]
    return cyclic_group(canon["d"], tuple(canon["weights"])), record


def canonical_weight_vectors(
    n: int, d: int, guard: int = DEFAULT_GUARD
) -> list[tuple[int, ...]]:
    """All canonical cyclic weight vectors for order d on n+1 variables.

    Canonical means: the lexicographically least among the sorted shifts
    of the vector (shifting every weight by a constant fixes all the
    invariant slices, sorting permutes variables), nontrivial, and with
    gcd(d, weights) = 1 so the presented order is the effective one.
    Exactly one vector per equivalence class survives, which is what
    keeps survey rows unique and resumable.  The walk visits every sorted
    vector with first weight 0, and the guard bounds their count first.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    total = math.comb(d - 1 + n, n)
    if total > guard:
        raise GuardExceeded(f"weight vectors of order {d} on {n + 1} variables", total, guard)
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], lo: int) -> None:
        if len(prefix) == n + 1:
            if any(prefix) and math.gcd(d, *prefix) == 1 and _least_shift(d, prefix) == prefix:
                out.append(prefix)
            return
        for w in range(lo, d):
            rec(prefix + (w,), w)

    rec((0,), 0)
    return out


# ---------------------------------------------------------------------------
# surfaces: the quadraticity verdict, weight certificates, h-vectors
# ---------------------------------------------------------------------------


def _gcd_product(d: int, a1: int, a2: int) -> int:
    """The gcd product of normalized surface weights (0, a1, a2).

    For 0 < a1 <= a2 < d write g1 = gcd(a1, d), a1' = a1/g1, d' = d/g1,
    and let lam be the unique integer in (0, d'] with
    lam * a1' == a2 (mod d').  The product is

        gcd(a1, d) * gcd(lam, d') * gcd(lam - g1, d')

    and the parameterized surface is cut out by quadrics exactly when it
    exceeds 1.
    """
    if not (0 < a1 <= a2 < d):
        raise ValueError(f"need 0 < a1 <= a2 < d, got ({d}; 0,{a1},{a2})")
    g1 = math.gcd(a1, d)
    a1p = a1 // g1
    dp = d // g1
    lam = a2 * pow(a1p, -1, dp) % dp or dp
    if not 0 < lam <= dp or (lam * a1p - a2) % dp:
        raise AssertionError(f"lam={lam} is not in (0, {dp}] or does not solve lam*{a1p} == {a2} (mod {dp})")
    return g1 * math.gcd(lam, dp) * math.gcd(lam - g1, dp)


@dataclass(frozen=True)
class SurfaceVerdict:
    """Whether a diagonal surface group's algebra is quadratic, which for
    these groups is the same as Koszul; `route` names the test that
    decided it and `detail` what that test saw."""

    quadratic: bool
    route: str
    detail: str


def surface_quadraticity(group: DiagonalGroup, guard: int = DEFAULT_GUARD) -> SurfaceVerdict:
    """Quadraticity, equivalently Koszulness, of a diagonal group on 3 variables.

    A cyclic presentation is decided by the gcd criterion on its normal
    form (0, a1, a2).  Degenerate actions come out quadratic, matching
    the fact that the parameterization is then a full Veronese in
    disguise: order 1 or all weights equal (no product), or a1 = 0 (the
    product is d).  A presentation with at least two nontrivial factors
    forming a divisibility chain always has an invariant of the shape
    x0^e x1^(d-e), which settles it affirmatively.  Any other
    presentation falls back to the support-2 test on B_1 (enumerated
    under `guard`), which is equivalent for every diagonal surface group.
    """
    if group.n != 2:
        raise ValueError(f"surface classification needs 3 variables, got {group.n + 1}")
    if group.is_cyclic_presentation:
        d, nf = group.order, _normal_form(group)
        _, a1, a2 = nf
        if d == 1 or a2 == 0:
            product = None
        elif a1 == 0:
            product = d  # gcd(0, d) = d, so d' = 1, lam = 1, and the product is d > 1
        else:
            product = _gcd_product(d, a1, a2)
        quadratic = product is None or product > 1
        return SurfaceVerdict(quadratic, "gcd-criterion", f"normal form {nf}, gcd product {product}")
    orders = [f.order for f in group.factors]
    chain = all(b % a == 0 for a, b in zip(orders, orders[1:]))
    if chain and all(o >= 2 for o in orders):
        return SurfaceVerdict(True, "noncyclic-invariant", f"nontrivial invariant-factor chain {orders}")
    # fall back: quadratic iff some invariant of degree |G| uses exactly 2 variables
    b1 = invariants_of_degree(group, 1, guard)
    witness = next((m for m in b1 if len(m.support()) == 2), None)
    if witness is not None:
        return SurfaceVerdict(True, "support-2", f"witness {tuple(witness)}")
    return SurfaceVerdict(False, "support-2", "no invariant uses exactly two variables")


@dataclass(frozen=True)
class SurfaceCertificate:
    """A weight rule that makes a cyclic surface group G-quadratic.

    `rule` is the rule's citation key and `detail` says how the weights
    meet it.  The rc rule ("rc-order-quadratic-gb") carries k and t with
    d = t*k*(k-1) and `roles`, the coordinates of the group playing the
    (a, b, c) exponents of the (0,1,k) pattern.  The Veronese-power rule
    ("veronese-power-gb") names delta = gcd(d, a1, a2) and the order
    d/delta of the reduced group in `detail`.
    """

    rule: str
    detail: str
    k: int | None = None
    t: int | None = None
    roles: tuple[int, int, int] | None = None


def surface_certificate(group: DiagonalGroup) -> SurfaceCertificate | None:
    """The first G-quadratic weight rule a cyclic surface group meets.

    Rules in priority order, on the weights shifted by the first weight:
    rc, when a unit u and a k >= 2 with k(k-1) | d (k ascending, then u
    ascending) give sorted(u*w mod d) == sorted((0, 1, k mod d)); even
    reflection, when the normal form is (0, a, d-a) with d even and
    gcd(d, a) = 1; Veronese power, when gcd(d, a1, a2) > 1.  Returns
    None for a group that is not a cyclic presentation on 3 variables,
    acts trivially, or meets no rule.
    """
    if group.n != 2 or not group.is_cyclic_presentation:
        return None
    f = group.factors[0]
    d = f.order
    shifted = _shift(d, f.weights, f.weights[0])
    _, a1, a2 = _normal_form(group)
    if d < 2 or a2 == 0:
        return None
    k = 2
    while k * (k - 1) <= d:
        if d % (k * (k - 1)) == 0:
            target = sorted((0, 1, k % d))
            for u in range(1, d):
                if math.gcd(u, d) != 1:
                    continue
                scaled = [u * w % d for w in shifted]
                if sorted(scaled) != target:
                    continue
                # b carries weight 1; of the other two, a has weight 0 and
                # c weight k (both weigh 0 when k == d == 2: a comes first)
                b = scaled.index(1)
                a, c = sorted((i for i in range(3) if i != b), key=scaled.__getitem__)
                return SurfaceCertificate(
                    "rc-order-quadratic-gb",
                    f"weights equivalent to (0,1,{k}) with d={d}",
                    k=k, t=d // (k * (k - 1)), roles=(a, b, c),
                )
        k += 1
    if d % 2 == 0 and a1 + a2 == d and math.gcd(d, a1) == 1:
        return SurfaceCertificate(
            "even-reflection-gb", f"normal form (0,{a1},{a2}) with a1+a2=d={d}"
        )
    delta = math.gcd(d, a1, a2)
    if delta > 1:
        return SurfaceCertificate(
            "veronese-power-gb",
            f"gcd(d,a1,a2)={delta} reduces to order {d // delta}",
        )
    return None


@dataclass(frozen=True)
class HVector:
    h: tuple[int, ...]
    regularity: int


def h_vector_group(group: DiagonalGroup, guard: int = DEFAULT_GUARD) -> HVector:
    """The h-vector of the invariant-ring slice algebra, by direct count.

    h_i is the number of invariant monomials of degree i*d whose
    exponents are all strictly below d (d the group order); the vector
    has entries for i = 0..n and the regularity is one more than the
    index of its last nonzero entry.
    """
    d = group.order
    n = group.n
    h = [count_invariants(group, i * d, cap=d - 1, guard=guard) for i in range(n + 1)]
    last = max(i for i, v in enumerate(h) if v != 0)
    return HVector(tuple(h), last + 1)


def triple_projections(group: DiagonalGroup) -> list[tuple[tuple[int, int, int], DiagonalGroup]]:
    """All restrictions of a cyclic group to 3 of its n+1 variables.

    Returns (variable triple, restricted cyclic surface group) pairs;
    the restricted groups keep the presented order.
    """
    if not group.is_cyclic_presentation:
        raise ValueError("triple projections are defined for cyclic presentations")
    if group.n < 3:
        raise ValueError(f"need at least 4 variables, got {group.n + 1}")
    from itertools import combinations

    f = group.factors[0]
    out = []
    for triple in combinations(range(group.n + 1), 3):
        w = tuple(f.weights[i] for i in triple)
        out.append((triple, cyclic_group(f.order, w)))
    return out


def block_group(group: DiagonalGroup, sizes: Sequence[int]) -> DiagonalGroup:
    """Group acting on split variables: weight w_i is repeated sizes[i] times."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) != group.n + 1:
        raise ValueError(
            f"need one block size per variable: {group.n + 1} sizes, got {len(sizes)}"
        )
    if any(s < 1 for s in sizes):
        raise ValueError(f"block sizes must be positive, got {sizes}")
    factors = []
    for f in group.factors:
        weights: list[int] = []
        for w, s in zip(f.weights, sizes):
            weights.extend([w] * s)
        factors.append(CyclicFactor(f.order, tuple(weights)))
    return DiagonalGroup(factors)
