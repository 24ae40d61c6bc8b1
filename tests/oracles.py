"""Independent cross-checking oracles for the test suite.

Everything here re-derives the mathematical answer from scratch with plain
Gaussian elimination over fractions.Fraction and shares no code with the
package under test.  The routines are exhaustive rather than clever and are
only meant for small dimensions.  The one exception is ``random_lottery``,
the suite's seeded test-data generator, which returns the package's Lottery.
"""
from fractions import Fraction
from itertools import combinations
from math import gcd

from multiutility.measures import Lottery


def random_lottery(rng, space):
    """Composition method: split a random denominator in 1..6 across the outcomes."""
    den = rng.randint(1, 6)
    cuts = sorted(rng.randint(0, den) for _ in range(len(space) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return Lottery.from_values(space, [Fraction(k, den) for k in parts])


def _solve_square(columns, target):
    # solve sum_j lam_j * columns[j] = target by row reduction; None when the
    # columns are dependent or the system is inconsistent
    s = len(columns)
    dim = len(target)
    rows = [[columns[j][i] for j in range(s)] + [target[i]] for i in range(dim)]
    rank = 0
    for col in range(s):
        pivot = next((i for i in range(rank, dim) if rows[i][col] != 0), None)
        if pivot is None:
            return None
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [v / head for v in rows[rank]]
        for i in range(dim):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    if any(rows[i][s] != 0 for i in range(rank, dim)):
        return None
    return [rows[j][s] for j in range(s)]


def oracle_membership(generators, target):
    """Conic membership decided by basic-solution enumeration.

    A vector lies in the conic hull of finitely many generators iff some
    linearly independent subset combines it with nonnegative coefficients,
    so trying every subset of size up to the dimension is a complete
    decision procedure.
    """
    tgt = [Fraction(v) for v in target]
    if all(v == 0 for v in tgt):
        return True
    gens = [[Fraction(v) for v in g] for g in generators]
    dim = len(tgt)
    for size in range(1, min(dim, len(gens)) + 1):
        for subset in combinations(gens, size):
            sol = _solve_square(subset, tgt)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def oracle_decompose(vector):
    """Positive/negative part split computed the naive coordinatewise way.

    Returns (alpha, p, q) as dense Fraction lists with alpha*(p - q) equal to
    the input; the zero vector maps to point masses on the first two
    coordinates by convention.
    """
    vec = [Fraction(v) for v in vector]
    plus = [v if v > 0 else Fraction(0) for v in vec]
    minus = [-v if v < 0 else Fraction(0) for v in vec]
    alpha = sum(plus)
    if alpha == 0:
        p = [Fraction(0)] * len(vec)
        q = [Fraction(0)] * len(vec)
        p[0] = Fraction(1)
        q[1] = Fraction(1)
        return Fraction(0), p, q
    return alpha, [v / alpha for v in plus], [v / alpha for v in minus]


def _rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] / mat[rank][col]
            if f != 0:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive(v):
    g = gcd(*v) or 1
    return tuple(x // g for x in v)


def _distinct_nonzero(vectors):
    return [v for v in dict.fromkeys(vectors) if any(v)]


def oracle_double_description(dim, rows):
    """Double description with the algebraic adjacency test.

    Intersects the half-spaces <row, y> >= 0 of integer rows, inserted in the
    given order, starting from the full space.  A plus ray and a minus ray
    are combined when the earlier rows they both lie on have rank
    dim - |lineality| - 2, which is the definition of adjacency.  Returns
    (lineality basis, rays) as integer tuples, neither reduced nor sorted.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []
    for a in rows:
        lin_vals = [_dot(a, l) for l in lineality]
        cut = next((k for k, v in enumerate(lin_vals) if v != 0), None)
        if cut is not None:
            l0, d0 = lineality[cut], lin_vals[cut]
            if d0 < 0:
                l0, d0 = tuple(-x for x in l0), -d0

            def onto_row(v, val):
                return _primitive(tuple(d0 * x - val * y for x, y in zip(v, l0)))

            lineality = [onto_row(l, v) for k, (l, v) in enumerate(zip(lineality, lin_vals)) if k != cut]
            rays = _distinct_nonzero([onto_row(r, _dot(a, r)) for r in rays] + [l0])
        else:
            vals = [_dot(a, r) for r in rays]
            target = dim - len(lineality) - 2
            combos = []
            for rp, vp in zip(rays, vals):
                for rm, vm in zip(rays, vals):
                    if vp <= 0 or vm >= 0 or target < 0:
                        continue
                    common = [c for c in processed if _dot(c, rp) == 0 and _dot(c, rm) == 0]
                    if _rank(common) == target:
                        combos.append(_primitive(tuple(vp * m - vm * p for p, m in zip(rp, rm))))
            rays = _distinct_nonzero([r for r, v in zip(rays, vals) if v >= 0] + combos)
        processed.append(a)
    return lineality, rays


def scan_double_description(dim, rows):
    """The package's double description pass with the adjacency test written as a scan.

    Same insertion order, same ray bookkeeping, and the same output format:
    (lineality basis, dict of rays in order, each mapped to the bitmask of
    the rows it lies on).  A plus ray and a minus ray are combined when the
    intersection of their zero sets passes the popcount bound and lies in
    the zero sets of no third ray, counted by scanning every ray.
    """
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays = {}
    done = 0
    rest = []
    for k, a in enumerate(rows):
        lin_vals = [_dot(a, l) for l in lineality]
        cut = next((i for i, v in enumerate(lin_vals) if v != 0), None)
        if cut is None:
            rest.append(k)
            continue
        l0, d0 = lineality[cut], lin_vals[cut]
        if d0 < 0:
            l0, d0 = tuple(-x for x in l0), -d0

        def onto_row(w, v):
            return _primitive(tuple(d0 * x - v * y for x, y in zip(w, l0)))

        lineality = [onto_row(l, v) for i, (l, v) in enumerate(zip(lineality, lin_vals)) if i != cut]
        moved = [(onto_row(r, _dot(a, r)), z | 1 << k) for r, z in rays.items()] + [(l0, done)]
        rays = {r: z for r, z in moved if any(r)}
        done |= 1 << k

    target = dim - len(lineality) - 2
    while rest:
        vals = {r: {j: _dot(rows[j], r) for j in rest} for r in rays}
        sides = {j: (sum(v[j] > 0 for v in vals.values()), sum(v[j] < 0 for v in vals.values())) for j in rest}
        k = min(rest, key=lambda j: sides[j][0] * sides[j][1])
        rest.remove(k)
        bit = 1 << k
        plus = [(r, z, vals[r][k]) for r, z in rays.items() if vals[r][k] > 0]
        minus = [(r, z, vals[r][k]) for r, z in rays.items() if vals[r][k] < 0]
        new_rays = [(r, z) for r, z, _ in plus] + [(r, z | bit) for r, z in rays.items() if vals[r][k] == 0]
        for rp, zp, vp in plus:
            for rm, zm, vm in minus:
                common = zp & zm
                if common.bit_count() < target or sum(z & common == common for z in rays.values()) > 2:
                    continue
                new_rays.append((_primitive(tuple(vp * m - vm * p for p, m in zip(rp, rm))), common | bit))
        rays = {r: z for r, z in new_rays if any(r)}
    return lineality, rays


def _primitive_fraction(v):
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return _primitive(tuple(int(x * den) for x in v))


def oracle_rref(vectors):
    """Reduced row echelon basis of the span of integer vectors, by Gauss-Jordan over Fractions.

    Rows come sorted by pivot column, each scaled to coprime integers, so
    every pivot is positive.
    """
    basis = []  # pivot entries 1
    for g in vectors:
        row = [Fraction(x) for x in g]
        for b in basis:
            p = next(j for j, x in enumerate(b) if x != 0)
            row = [x - row[p] * y for x, y in zip(row, b)]
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None:
            continue
        row = [x / row[p] for x in row]
        basis = [[x - b[p] * y for x, y in zip(b, row)] for b in basis] + [row]
    basis.sort(key=lambda b: next(j for j, x in enumerate(b) if x != 0))
    return tuple(_primitive_fraction(b) for b in basis)


def oracle_canonical_hull(generators):
    """Canonical (lineality basis, extreme rays) of a conic hull, by membership alone.

    A generator lies in the lineality when its negation lies in the hull.
    The lineality basis is the reduced row echelon form of those generators,
    each row scaled to coprime integers.  Every other generator is reduced
    modulo the lineality (its pivot coordinates cleared) and made primitive;
    of these distinct directions, the extreme rays are the ones outside the
    hull of the others plus the lineality, which for vectors reduced this
    way is the hull of the others alone.  Rays come back sorted, in the
    format of the package's canonical cones.
    """
    gens = _distinct_nonzero(_primitive(tuple(g)) for g in generators)
    lin = [g for g in gens if oracle_membership(gens, [-x for x in g])]
    basis = oracle_rref(lin)

    def reduce(g):
        row = [Fraction(x) for x in g]
        for b in basis:
            p = next(j for j, x in enumerate(b) if x != 0)
            row = [x - row[p] / b[p] * y for x, y in zip(row, b)]
        return _primitive_fraction(row)

    # reduced vectors vanish on the pivot columns, and so does the lineality
    # part of any combination of them, which the basis then forces to zero
    directions = _distinct_nonzero(reduce(g) for g in gens if g not in lin)
    rays = [d for d in directions if not oracle_membership([e for e in directions if e != d], d)]
    return basis, tuple(sorted(rays))
