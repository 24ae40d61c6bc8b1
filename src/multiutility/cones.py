"""Polyhedral cones over the rationals: construction, duality, membership.

A cone is stored as a lineality basis plus pointed-part rays, every vector a
primitive integer tuple.  ``cone_from_inequalities`` is the one double
description pass: rows are inserted incrementally starting from the full
space, and adjacency of rays is decided by containment between the bitmasks
of rows they lie on.  Each ray carries its values on the rows, and a combined
ray combines its parents' values, so rays are paired with rows only once.
The other direction needs no pass: the dual of {x : Hx >= 0} is cone(H),
whose lineality and extreme rays ``dual_cone`` reads off the rays' zero sets.
A hull of generators is read off the cone they cut out in the same way, so
building a cone never runs an LP.
An IN answer over independent generators is read off one elimination;
otherwise membership runs an exact feasibility LP.  Either way it returns a
checkable certificate: conic coefficients when the vector lies inside, an
integer separating functional when it does not.

The kernel is exact and integer: ``_echelon`` and ``_reduce`` are the one
elimination, and a queried vector is cleared to integers on entry.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from ._linalg import (
    Cleared,
    IntVector,
    clear_denominators,
    dot,
    is_zero,
    primitive,
    vec_neg,
)
from .linprog import OPTIMAL, CertificateError, ExactLP, LPResult
from .measures import SpaceMismatchError, Utility, as_fraction

IN = "IN"
OUT = "OUT"


class DimensionMismatchError(ValueError):
    """Vector length does not match the cone's ambient dimension."""


class EmptyUtilitySetError(ValueError):
    """A representation requires at least one utility."""


class MembershipCertificate(NamedTuple):
    """Checkable answer to a cone membership query.

    IN: ``combination`` lists (index, coefficient) pairs over the cone's
    directed generators (rays first, then lineality vectors, then their
    negations) that recombine exactly to the queried vector; coefficients are
    positive, omitted indices contribute zero.  OUT: ``separator`` is a
    primitive integer vector pairing nonnegatively with every generator and
    strictly negatively with the queried vector.
    """

    verdict: str
    combination: tuple[tuple[int, Fraction], ...] | None = None
    separator: IntVector | None = None


class PolyhedralCone:
    """Finitely generated convex cone in Q^dim.

    ``rays`` span the pointed part, ``lineality`` the largest linear subspace
    contained in the cone (canonical reduced-echelon basis).  An inequality
    representation, when given at construction, is a tuple of integer rows h
    with the cone equal to the set of x satisfying <h, x> >= 0 for every row.
    Every coordinate must be an ``int``: any other value, even an integral
    ``Fraction``, raises ``TypeError`` instead of being truncated.
    Instances are immutable, so every verdict depends only on the cone's value.
    """

    __slots__ = ("dim", "rays", "lineality", "_inequalities")

    def __init__(
        self,
        dim: int,
        rays: Iterable[IntVector] = (),
        lineality: Iterable[IntVector] = (),
        inequalities: Iterable[IntVector] | None = None,
    ):
        if type(dim) is not int:
            raise TypeError(f"ambient dimension must be an int, got {dim!r}")
        if dim < 1:
            raise DimensionMismatchError("ambient dimension must be at least 1")
        self.dim = dim
        self.rays = tuple(map(_int_vector, rays))
        self.lineality = tuple(map(_int_vector, lineality))
        for v in self.rays + self.lineality:
            if len(v) != self.dim:
                raise DimensionMismatchError(f"generator {v} has wrong length for dim {self.dim}")
        ineqs = None if inequalities is None else tuple(map(_int_vector, inequalities))
        if ineqs is not None:
            for h in ineqs:
                if len(h) != self.dim:
                    raise DimensionMismatchError(f"inequality {h} has wrong length for dim {self.dim}")
            _cross_check(self.rays, self.lineality, ineqs)
        self._inequalities = ineqs

    @property
    def directed_generators(self) -> tuple[IntVector, ...]:
        """Rays, then lineality vectors, then negated lineality vectors."""
        return self.rays + self.lineality + tuple(vec_neg(l) for l in self.lineality)

    def is_zero_cone(self) -> bool:
        return not self.rays and not self.lineality

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyhedralCone)
            and self.dim == other.dim
            and self.rays == other.rays
            and self.lineality == other.lineality
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.rays, self.lineality))

    def __repr__(self) -> str:
        return (
            f"PolyhedralCone(dim={self.dim}, rays={list(self.rays)!r}, "
            f"lineality={list(self.lineality)!r})"
        )


def _int_vector(v: Iterable[int]) -> IntVector:
    t = tuple(v)
    if any(type(x) is not int for x in t):
        raise TypeError(f"vector {t!r} has an entry that is not an int")
    return t


def _cross_check(rays, lineality, ineqs) -> None:
    # Both representations present: every generator must satisfy every row.
    for h in ineqs:
        for r in rays:
            if dot(h, r) < 0:
                raise ValueError(f"representations disagree: ray {r} violates row {h}")
        for l in lineality:
            if dot(h, l) != 0:
                raise ValueError(f"representations disagree: lineality {l} not on row {h}")


def _coerce_vector(x: Sequence | Cleared, dim: int) -> Cleared:
    """x as integer numerators over one positive denominator: x == nums / den.

    A ``Cleared`` x (a query's p - q, cleared once by ``preferences``) is taken as it is.
    """
    if not isinstance(x, Cleared):
        x = clear_denominators([as_fraction(v) for v in x])
    if len(x.nums) != dim:
        raise DimensionMismatchError(f"expected a vector of length {dim}, got {len(x.nums)}")
    return x


# -- construction -----------------------------------------------------------


def cone_from_generators(vectors: Iterable[Sequence], dim: int | None = None) -> PolyhedralCone:
    """Canonical conic hull of rational vectors.

    The generators become the rows of :func:`cone_from_inequalities`, the
    one double description pass, and :func:`dual_cone` reads their hull back
    off that cone's rays, with no LP.  The hull is returned without rows, so
    membership separates through the LP's Farkas functional.
    """
    vecs = list(vectors)
    if dim is None:
        if not vecs:
            raise DimensionMismatchError("dim is required when no generators are given")
        dim = len(vecs[0])
    hull = dual_cone(cone_from_inequalities(vecs, dim))
    return PolyhedralCone(dim, hull.rays, hull.lineality)


def _hull_lp(x: Sequence, gens: Sequence[IntVector], lineality: Sequence[IntVector]) -> LPResult:
    """Feasibility LP for x in cone(gens) + span(lineality); needs at least one column.

    Independent columns fix the coefficients: when x lies in their span with
    nonnegative ray coefficients, one reduction finds the LP's only solution,
    returned as the LP returns it, with zero objective and duals.
    """
    cols = tuple(gens) + tuple(lineality)
    basis = _independent_basis(cols)
    if basis is not None:
        # w = s * (x - G lam, -lam, 1) with s > 0
        dim, w = len(x), _reduce(basis, (*x, *(0,) * len(cols), 1))
        lam = tuple(Fraction(-v, w[-1]) for v in w[dim:-1])
        if not any(w[:dim]) and all(c >= 0 for c in lam[: len(gens)]):
            return LPResult(OPTIMAL, Fraction(0), lam, (Fraction(0),) * dim)
    lp = ExactLP(len(cols), free=range(len(gens), len(cols)))
    for row, b in zip(zip(*cols), x):
        lp.add(row, b)
    return lp.minimize()


@lru_cache(maxsize=16)
def _independent_basis(cols: tuple[IntVector, ...]):
    """Echelon basis of the lifted columns (c_j, e_j, 0), or None when the c_j are dependent."""
    basis = _echelon(c + tuple(int(i == j) for i in range(len(cols))) + (0,) for j, c in enumerate(cols))
    return basis if all(p < len(cols[0]) for p, _ in basis) else None


# -- double description ------------------------------------------------------


def _double_description(dim: int, rows: Sequence[IntVector]) -> tuple[list[IntVector], dict[IntVector, int]]:
    """Intersect half-spaces <row, y> >= 0 starting from the full space.

    Returns the lineality basis and the pointed rays of the intersection,
    each ray mapped to its zero set: the bitmask of the rows it lies on, bit
    k standing for ``rows[k]``.  The insertion order depends on the rows
    alone.  First every row that cuts the current lineality goes in, lowest
    index first (a row that does not cut it never will, as it only shrinks).
    Then, one at a time, the remaining row that forms the fewest plus-minus
    ray pairs, ties going to the lowest index, counted over the rays' values
    on that row.  Each ray gets its values on the remaining rows once, when
    the lineality is done; a combined ray's values are the same combination
    of its parents' values over the same gcd, so no new ray meets a row.
    Two rays are adjacent exactly when no third ray's zero set
    contains the intersection of theirs (Fukuda & Prodon), which holds
    because the rays stay distinct modulo the lineality.  A popcount bound,
    dim - |lineality| - 2, filters first.  The containment test is indexed:
    at each insertion every inserted row gets the bitmask of the positions
    of the rays that lie on it, and a pair ANDs the masks of the rows in its
    intersection into the mask of the other rays until none is left (the
    pair is kept) or the rows run out (a wider face; the pair is dropped).
    """
    lineality: list[IntVector] = [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    rays: dict[IntVector, int] = {}
    done = 0  # bitmask of the rows inserted so far
    rest = []
    for k, a in enumerate(rows):
        lin_vals = [dot(a, l) for l in lineality]
        cut = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if cut is None:
            rest.append(k)
            continue
        l0, d0 = lineality[cut], lin_vals[cut]
        if d0 < 0:
            l0, d0 = vec_neg(l0), -d0

        def onto_row(w: IntVector, v: int) -> IntVector:
            # w moved along l0 onto the hyperplane <a, y> = 0
            return primitive(tuple(d0 * x - v * y for x, y in zip(w, l0)))

        lineality = [onto_row(l, v) for i, (l, v) in enumerate(zip(lineality, lin_vals)) if i != cut]
        # l0 is orthogonal to every inserted row, so a ray moved along it keeps
        # its zero set, and l0 becomes a ray lying on all the inserted rows
        moved = [(onto_row(r, dot(a, r)), z | 1 << k) for r, z in rays.items()] + [(l0, done)]
        rays = {r: z for r, z in moved if not is_zero(r)}
        done |= 1 << k

    target = dim - len(lineality) - 2
    # each ray maps to its zero set and its values on the remaining rows, v[j] on rows[rest[j]]
    rays = {r: (z, [dot(rows[k], r) for k in rest]) for r, z in rays.items()}
    while rays and rest:
        cols = list(zip(*(v for _, v in rays.values())))  # cols[j]: the rays' values on rows[rest[j]]
        # the row forming the fewest plus-minus pairs, the lowest on a tie
        j = min(range(len(rest)), key=lambda j: sum(map((0).__lt__, cols[j])) * sum(map((0).__gt__, cols[j])))
        bit = 1 << rest.pop(j)
        # on[b]: bitmask of the positions of the rays lying on the inserted row with bit b
        on: dict[int, int] = {}
        for i, (z, _) in enumerate(rays.values()):
            while z:
                b = z & -z  # lowest set bit
                on[b] = on.get(b, 0) | 1 << i
                z ^= b
        every = (1 << len(rays)) - 1
        plus = [(r, z, v, 1 << i) for i, (r, (z, v)) in enumerate(rays.items()) if v[j] > 0]
        minus = [(r, z, v, 1 << i) for i, (r, (z, v)) in enumerate(rays.items()) if v[j] < 0]
        new_rays = [(r, (z, v)) for r, z, v, _ in plus] + [(r, (z | bit, v)) for r, (z, v) in rays.items() if not v[j]]
        for rp, zp, vp, ip in plus:
            for rm, zm, vm, im in minus:
                common = zp & zm
                if common.bit_count() < target:
                    continue
                # rp and rm lie on every row of common; a third ray that does is a wider face
                others, c = every ^ ip ^ im, common
                while others and c:
                    others &= on[c & -c]
                    c &= c - 1
                if others:
                    continue
                # s*rm + t*rp lands exactly on the new hyperplane; its values are the same combination
                s, t = vp[j], -vm[j]
                w = tuple(s * m + t * p for p, m in zip(rp, rm))
                g = gcd(*w)
                if g:  # a zero combination is no ray
                    vals = [(s * m + t * p) // g for p, m in zip(vp, vm)]
                    new_rays.append((tuple(x // g for x in w), (common | bit, vals)))
        rays = dict(new_rays)
        for _, v in rays.values():
            del v[j]  # the inserted row's values are spent; each list belongs to one ray
    return lineality, {r: z for r, (z, _) in rays.items()}


def _echelon(vectors: Iterable[IntVector]) -> tuple[tuple[int, IntVector], ...]:
    """Reduced echelon basis of the vectors' span as (pivot column, row) pairs, sorted by pivot.

    Fraction-free: rows are primitive, with a positive pivot and zeros in the
    other pivot columns, so they are unique.  A vector left nonzero by
    :func:`_reduce` joins after its pivot column is cleared from the others.
    """
    basis: dict[int, IntVector] = {}  # pivot column -> basis row
    for v in vectors:
        v = _reduce(basis.items(), v)
        q = next((j for j, x in enumerate(v) if x), None)
        if q is not None:
            v = v if v[q] > 0 else vec_neg(v)
            # v is zero in every earlier pivot column, so each row keeps its pivot
            basis = {p: primitive(tuple(v[q] * x - l[q] * y for x, y in zip(l, v))) for p, l in basis.items()}
            basis[q] = v
    return tuple(sorted(basis.items()))


def _reduce(basis: Iterable[tuple[int, IntVector]], v: IntVector) -> IntVector:
    """A positive multiple of v minus basis rows, zero in the pivot columns and primitive."""
    for p, l in basis:
        # multiplying v by l[p] > 0 keeps its orientation
        if v[p]:
            v = tuple(l[p] * x - v[p] * y for x, y in zip(v, l))
    return primitive(v)


def _canonical_vrep(lineality: Sequence[IntVector], rays: Iterable[IntVector]):
    """RREF lineality basis, and the rays reduced modulo it, primitive, deduplicated and sorted."""
    basis = _echelon(lineality)
    out = {r for r in (_reduce(basis, r) for r in rays) if not is_zero(r)}
    return tuple(l for _, l in basis), tuple(sorted(out))


def cone_from_inequalities(rows: Iterable[Sequence], dim: int) -> PolyhedralCone:
    """Cone of all x with <row, x> >= 0 for every row, converted to rays.

    Rows are scaled to primitive integers, and zero rows and repeats are
    dropped, first occurrences kept in order, so the first violated row is
    the same.  This is the one double description pass: every other
    conversion reads its answer off a cone built here.
    """
    int_rows = [h for h in dict.fromkeys(primitive(_coerce_vector(r, dim)[0]) for r in rows) if not is_zero(h)]
    lin, rays = _double_description(dim, int_rows)
    lin_c, rays_c = _canonical_vrep(lin, rays)
    return PolyhedralCone(dim, rays_c, lin_c, inequalities=tuple(int_rows))


def dual_cone(cone: PolyhedralCone) -> PolyhedralCone:
    """All y pairing nonnegatively with the cone; the cone's directed generators are its rows.

    A cone built with rows H is {x : Hx >= 0}, so its dual is cone(H), read
    off the rays' zero sets with no double description: a row lies in the
    lineality when every ray lies on it, and spans an extreme ray when no
    other row outside the lineality lies on a strictly larger set of rays.
    The lineality becomes a reduced echelon basis and the extreme rays are
    reduced modulo it, made primitive and sorted.  A cone without rows goes
    through :func:`cone_from_inequalities`.  The argument is left unchanged.
    """
    rows = cone._inequalities
    if rows is None:
        return cone_from_inequalities(cone.directed_generators, cone.dim)
    # tight[i]: bitmask of the rays that lie on row i
    tight = [sum(1 << j for j, r in enumerate(cone.rays) if not dot(h, r)) for h in rows]
    every = (1 << len(cone.rays)) - 1
    pointed = {t for t in tight if t != every}
    lineality = [h for h, t in zip(rows, tight) if t == every]
    rays = [h for h, t in zip(rows, tight) if t != every and not any(s != t and s & t == t for s in pointed)]
    lin_c, rays_c = _canonical_vrep(lineality, rays)
    return PolyhedralCone(cone.dim, rays_c, lin_c, inequalities=cone.directed_generators)


# -- membership ---------------------------------------------------------------


def membership(cone: PolyhedralCone, x: Sequence | Cleared) -> MembershipCertificate:
    """Exact membership verdict with a checkable certificate.

    IN comes with conic coefficients over the cone's directed generators,
    found by :func:`_hull_lp`: one elimination when they are unique, else
    exact LP.  OUT comes with an integer separator: the first
    violated row when the cone was built with inequality rows, otherwise a
    functional recovered from the LP's Farkas dual.  Rows and LP see x's
    integer numerators; Bland's rule sees the right-hand side only through
    signs and ratios, so the LP pivots and separates as it would on x.  The
    certificate is rechecked on those numerators by :func:`verify_membership`
    before being returned; a failed recheck raises :class:`CertificateError`.
    """
    vec, den = x = _coerce_vector(x, cone.dim)
    rows = cone._inequalities
    if rows is not None:
        violated = next((h for h in rows if dot(h, vec) < 0), None)
        if violated is not None:
            return _certified(cone, x, MembershipCertificate(OUT, separator=violated))

    gens = cone.rays
    lins = cone.lineality
    if not gens and not lins:
        if is_zero(vec):
            return MembershipCertificate(IN, combination=())
        # separate along any nonzero coordinate of x
        i = next(i for i, v in enumerate(vec) if v != 0)
        sep = tuple(0 if j != i else (-1 if vec[i] > 0 else 1) for j in range(cone.dim))
        return _certified(cone, x, MembershipCertificate(OUT, separator=sep))

    res = _hull_lp(vec, gens, lins)
    if res.status == OPTIMAL:
        combo: list[tuple[int, Fraction]] = []
        nrays, nlins = len(gens), len(lins)
        for j in range(nrays):
            if res.solution[j] != 0:
                combo.append((j, res.solution[j]))
        for j in range(nlins):
            mu = res.solution[nrays + j]
            if mu > 0:
                combo.append((nrays + j, mu))
            elif mu < 0:
                combo.append((nrays + nlins + j, -mu))
        # the LP solved for den * x
        return _certified(cone, x, MembershipCertificate(IN, combination=tuple((j, c / den) for j, c in combo)))
    return _certified(cone, x, MembershipCertificate(OUT, separator=primitive(vec_neg(res.duals))))


def _certified(cone: PolyhedralCone, x: Cleared, cert: MembershipCertificate) -> MembershipCertificate:
    if not verify_membership(cone, x, cert):
        raise CertificateError(f"{cert.verdict} certificate failed its arithmetic recheck")
    return cert


def contains(cone: PolyhedralCone, x: Sequence | Cleared) -> bool:
    """Membership verdict only; uses the cone's inequality rows when it has them."""
    vec, _ = _coerce_vector(x, cone.dim)
    rows = cone._inequalities
    if rows is not None:
        return all(dot(h, vec) >= 0 for h in rows)
    if cone.is_zero_cone():
        return is_zero(vec)
    return _hull_lp(vec, cone.rays, cone.lineality).status == OPTIMAL


def verify_membership(cone: PolyhedralCone, x: Sequence | Cleared, cert: MembershipCertificate) -> bool:
    """Recheck a certificate by plain integer arithmetic, no LP involved.

    IN scales the coefficients by their lcm and x by its denominator.  A
    combination or separator that is not a tuple or list, a pair that is not
    (index, coefficient), an index or separator entry that is not an ``int``,
    or a coefficient that is neither ``int`` nor ``Fraction`` fails the check.
    """
    vec, den = _coerce_vector(x, cone.dim)
    if cert.verdict == IN:
        combo = cert.combination
        if not isinstance(combo, (tuple, list)) or not all(
            isinstance(p, (tuple, list)) and len(p) == 2 and type(p[0]) is int and type(p[1]) in (int, Fraction)
            for p in combo
        ):
            return False
        gens = cone.directed_generators
        coeffs, scale = clear_denominators([c for _, c in combo])
        acc = [0] * cone.dim
        for (idx, _), c in zip(combo, coeffs):
            if not 0 <= idx < len(gens) or c < 0:
                return False
            acc = [a + c * y for a, y in zip(acc, gens[idx])]
        return all(den * a == scale * v for a, v in zip(acc, vec))
    if cert.verdict == OUT:
        sep = cert.separator
        if not isinstance(sep, (tuple, list)) or len(sep) != cone.dim or any(type(s) is not int for s in sep):
            return False
        if is_zero(sep) or any(dot(sep, r) < 0 for r in cone.rays):
            return False
        if any(dot(sep, l) != 0 for l in cone.lineality):
            return False
        return dot(sep, vec) < 0
    return False


def cone_equal(a: PolyhedralCone, b: PolyhedralCone) -> bool:
    """Mathematical equality: mutual containment of all directed generators.

    For two canonical cones ``a == b`` gives the same answer without an LP.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"cannot compare cones of dim {a.dim} and {b.dim}")
    return all(contains(b, g) for g in a.directed_generators) and all(
        contains(a, g) for g in b.directed_generators
    )


# -- utility-set canonicalization --------------------------------------------


def canonical_rep(utilities: Iterable[Utility]) -> PolyhedralCone:
    """Closed conic hull of a utility set together with both constant directions.

    Two utility sets induce the same preference relation exactly when these
    hulls coincide, so this cone is the canonical object to compare.
    """
    us = list(utilities)
    if not us:
        raise EmptyUtilitySetError("utility set must be nonempty")
    space = us[0].space
    for u in us[1:]:
        if u.space != space:
            raise SpaceMismatchError("utilities live on different outcome spaces")
    n = len(space)
    ones = [1] * n
    neg_ones = [-1] * n
    return cone_from_generators([u.values for u in us] + [ones, neg_ones], dim=n)

