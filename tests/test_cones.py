import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import multiutility.cones as cones
from multiutility import Lottery, OutcomeSpace, PreferenceDataset, Utility, extract_representation
from multiutility.cones import (
    IN,
    OUT,
    PolyhedralCone,
    _canonical_vrep,
    _double_description,
    _hull_lp,
    _independent_basis,
    CertificateError,
    DimensionMismatchError,
    EmptyUtilitySetError,
    MembershipCertificate,
    canonical_rep,
    cone_equal,
    cone_from_generators,
    cone_from_inequalities,
    contains,
    dual_cone,
    membership,
    verify_membership,
)
from multiutility._linalg import dot, primitive
from multiutility.linprog import OPTIMAL, ExactLP

from oracles import (
    oracle_canonical_hull,
    oracle_double_description,
    oracle_membership,
    oracle_rref,
    scan_double_description,
)
from test_metamorphic import moderate_dataset


def test_empty_generators_give_zero_cone():
    c = cone_from_generators([], dim=3)
    assert c.is_zero_cone()
    assert contains(c, (0, 0, 0))
    assert not contains(c, (1, 0, 0))


def test_cone_refuses_coordinates_that_are_not_ints():
    # truncated, (1/2, 0) would become the zero ray and (1, 0) would answer OUT
    for bad in [(Fraction(1, 2), 0), (Fraction(1), 0), (1.9, 0.2), ("1", 0), (True, 0)]:
        for kwargs in ({"rays": [bad]}, {"lineality": [bad]}, {"inequalities": [bad]}):
            with pytest.raises(TypeError, match=r"vector \(.*\) has an entry that is not an int"):
                PolyhedralCone(2, **kwargs)
    for dim in (2.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match="ambient dimension must be an int"):
            PolyhedralCone(dim)
    c = PolyhedralCone(2, rays=[(1, 0)])
    assert (c.dim, c.rays, c.lineality) == (2, ((1, 0),), ())
    assert membership(c, (1, 0)).verdict == IN
    assert membership(c, (0, 1)).verdict == OUT


def test_single_ray():
    c = cone_from_generators([(1, -1)])
    assert c.rays == ((1, -1),)
    assert c.lineality == ()
    assert contains(c, ("1/2", "-1/2"))
    assert not contains(c, (-1, 1))


def test_two_generator_cone_membership():
    c = cone_from_generators([(1, -1, 0), (0, 1, -1)])
    rng = random.Random(3)
    for _ in range(40):
        lam = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(2)]
        x = [lam[0] * g + lam[1] * h for g, h in zip((1, -1, 0), (0, 1, -1))]
        assert contains(c, x)
    assert not contains(c, (-1, 1, 0))
    assert not contains(c, (1, -2, 1))  # zero-sum but outside


def test_scaling_redundancy_and_orientation():
    assert cone_equal(cone_from_generators([(1, 0)]), cone_from_generators([(2, 0)]))
    assert cone_equal(
        cone_from_generators([(1, 0), (0, 1)]),
        cone_from_generators([(1, 0), (1, 1), (0, 1)]),
    )
    assert not cone_equal(cone_from_generators([(1, 0)]), cone_from_generators([(1, 0), (0, 1)]))


def test_lineality_detected():
    c = cone_from_generators([(1, 1), (-1, -1)])
    assert c.rays == ()
    assert c.lineality == ((1, 1),)
    assert contains(c, (-3, -3))


def test_dual_of_zero_cone_is_everything():
    d = dual_cone(cone_from_generators([], dim=2))
    full = cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert cone_equal(d, full)


def test_dual_of_chain_cone():
    # dual of the two-statement chain cone is the monotone-utility cone:
    # u(a) >= u(b) >= u(c), i.e. generators (1,0,0), (1,1,0) plus constants
    d = dual_cone(cone_from_generators([(1, -1, 0), (0, 1, -1)]))
    expected = cone_from_generators([(1, 0, 0), (1, 1, 0), (1, 1, 1), (-1, -1, -1)])
    assert cone_equal(d, expected)
    rng = random.Random(5)
    for _ in range(60):
        u = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        assert contains(d, u) == (u[0] >= u[1] >= u[2])


def test_bipolar_round_trip():
    c = cone_from_generators([(1, -1), (1, 1)])
    assert cone_equal(dual_cone(dual_cone(c)), c)


def test_bipolar_with_lineality():
    c = cone_from_generators([(1, 1, 0), (-1, -1, 0), (0, 0, 1)])
    assert cone_equal(dual_cone(dual_cone(c)), c)


def test_membership_origin():
    c = cone_from_generators([(1, -1, 0), (0, 1, -1)])
    cert = membership(c, (0, 0, 0))
    assert cert.verdict == IN
    assert cert.combination == ()


def test_membership_in_with_combination():
    c = cone_from_generators([(1, -1, 0), (0, 1, -1)])
    cert = membership(c, ("1/2", 0, "-1/2"))
    assert cert.verdict == IN
    coeffs = dict(cert.combination)
    assert set(coeffs.values()) == {Fraction(1, 2)}
    assert verify_membership(c, ("1/2", 0, "-1/2"), cert)


def test_membership_out_with_separator():
    c = cone_from_generators([(1, -1)])
    cert = membership(c, (-1, 1))
    assert cert.verdict == OUT
    assert cert.separator == (1, -1)
    assert verify_membership(c, (-1, 1), cert)


def test_membership_out_of_zero_cone():
    c = cone_from_generators([], dim=2)
    cert = membership(c, (0, 1))
    assert cert.verdict == OUT
    assert verify_membership(c, (0, 1), cert)


def test_verify_rejects_doctored_certificates():
    c = cone_from_generators([(1, -1)])
    good_in = membership(c, (2, -2))
    assert not verify_membership(c, (2, -2), MembershipCertificate(OUT, separator=(1, -1)))
    assert not verify_membership(c, (-1, 1), good_in)
    bad_combo = MembershipCertificate(IN, combination=((0, Fraction(1)),))
    assert not verify_membership(c, (2, -2), bad_combo)
    negative_coeff = MembershipCertificate(IN, combination=((0, Fraction(-2)),))
    assert not verify_membership(c, (-2, 2), negative_coeff)
    # an IN recheck compares the combination with x itself, not with x's numerators
    half = ("1/2", "-1/2")
    assert not verify_membership(c, half, MembershipCertificate(IN, combination=((0, 1),)))
    assert verify_membership(c, half, MembershipCertificate(IN, combination=((0, Fraction(1, 2)),)))
    # an IN without a combination, and a verdict that is neither IN nor OUT
    assert not verify_membership(c, (2, -2), MembershipCertificate(IN))
    assert not verify_membership(c, (2, -2), MembershipCertificate("MAYBE", combination=good_in.combination))
    # an OUT separator must vanish on the lineality: (1, 1) fails only there
    half_plane = cone_from_generators([(1, 0), (0, 1), (0, -1)])
    assert (half_plane.rays, half_plane.lineality) == (((1, 0),), ((0, 1),))
    assert verify_membership(half_plane, (-1, -5), MembershipCertificate(OUT, separator=(1, 0)))
    assert not verify_membership(half_plane, (-1, -5), MembershipCertificate(OUT, separator=(1, 1)))


def test_verify_rejects_certificates_of_the_wrong_types():
    # plain integer arithmetic: a float or string entry fails the check instead of raising or passing
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    ((idx, coeff),) = membership(quadrant, (1, 0)).combination
    assert coeff == 1
    assert verify_membership(quadrant, (-1, 0), MembershipCertificate(OUT, separator=(1, 0)))
    for combination in (((idx, 1.0),), ((str(idx), 1),), ((bool(idx), 1),)):
        assert not verify_membership(quadrant, (1, 0), MembershipCertificate(IN, combination=combination)), combination
    assert not verify_membership(quadrant, (-1, 0), MembershipCertificate(OUT, separator=(1.0, 0.0)))


def test_verify_rejects_certificates_of_the_wrong_shape():
    # a malformed certificate fails the recheck instead of raising
    quadrant = cone_from_generators([(1, 0), (0, 1)])
    for x, cert in (
        ((1, 0), MembershipCertificate(IN, combination=((0, 1, 1),))),
        ((1, 0), MembershipCertificate(IN, combination=((0,),))),
        ((1, 0), MembershipCertificate(IN, combination=(0,))),
        ((1, 0), MembershipCertificate(IN, combination=1)),
        ((-1, 0), MembershipCertificate(OUT, separator=1)),
    ):
        assert not verify_membership(quadrant, x, cert), cert


def test_cone_refuses_generators_that_break_its_rows():
    with pytest.raises(ValueError, match=r"^representations disagree: ray \(1, -1\) violates row \(0, 1\)$"):
        PolyhedralCone(2, rays=[(1, -1)], inequalities=[(1, 0), (0, 1)])
    with pytest.raises(ValueError, match=r"^representations disagree: lineality \(1, 1\) not on row \(1, 0\)$"):
        PolyhedralCone(2, lineality=[(1, 1)], inequalities=[(1, 0)])


def test_the_check_guards_the_double_description(monkeypatch):
    # a pass that returned a ray off the cone would reach the record unnoticed without the check
    monkeypatch.setattr(cones, "_double_description", lambda dim, rows: ([], {(1, -1): 0}))
    with pytest.raises(ValueError, match=r"^representations disagree: ray \(1, -1\) violates row \(0, 1\)$"):
        cone_from_inequalities([(1, 0), (0, 1)], dim=2)


def test_dot_refuses_vectors_of_unequal_length():
    with pytest.raises(ValueError, match=r"^cannot pair vectors of lengths 2 and 3$"):
        dot((1, 2), (1, 2, 3))


def test_inequalities_round_trip():
    # quadrant from rows, then back through generators
    c = cone_from_inequalities([(1, 0), (0, 1)], dim=2)
    assert cone_equal(c, cone_from_generators([(1, 0), (0, 1)]))
    assert contains(c, (3, "1/2"))
    assert not contains(c, (-1, 0))


def test_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        cone_from_generators([(1, 0), (1, 0, 0)])
    c = cone_from_generators([(1, 0)])
    with pytest.raises(DimensionMismatchError):
        membership(c, (1, 0, 0))
    with pytest.raises(DimensionMismatchError):
        cone_equal(c, cone_from_generators([(1, 0, 0)]))


def test_canonical_rep_halfplane():
    sp = OutcomeSpace(["a", "b"])
    rep = canonical_rep([Utility(sp, [1, 0])])
    expected = cone_from_generators([(1, 0), (1, 1), (-1, -1)])
    assert cone_equal(rep, expected)


def test_canonical_rep_constants_absorb():
    sp = OutcomeSpace(["a", "b"])
    rep = canonical_rep([Utility.constant(sp, 1)])
    assert cone_equal(rep, cone_from_generators([(1, 1), (-1, -1)]))


def test_canonical_rep_convex_midpoint():
    sp = OutcomeSpace(["a", "b"])
    u = [Utility(sp, [1, 0]), Utility(sp, [0, 1])]
    v = u + [Utility(sp, ["1/2", "1/2"])]
    assert cone_equal(canonical_rep(u), canonical_rep(v))
    with pytest.raises(EmptyUtilitySetError):
        canonical_rep([])


def test_random_bipolar():
    rng = random.Random(17)
    for _ in range(30):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        c = cone_from_generators(gens, dim=dim)
        assert cone_equal(dual_cone(dual_cone(c)), c)


def test_membership_agrees_with_oracle():
    rng = random.Random(23)
    seen = {IN: 0, OUT: 0}
    for _ in range(60):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        c = cone_from_generators(gens, dim=dim)
        if rng.random() < 0.5:
            x = tuple(rng.randint(-4, 4) for _ in range(dim))
        else:
            lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
            x = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(dim))
        cert = membership(c, x)
        seen[cert.verdict] += 1
        assert (cert.verdict == IN) == oracle_membership(gens, x)
        assert verify_membership(c, x, cert)
    assert seen[IN] > 0 and seen[OUT] > 0


def test_certificates_scale_with_the_queried_vector():
    # a positive scale keeps every sign: separators stay, combinations scale with it
    rng = random.Random(31)
    cases = [
        cone_from_generators([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, 1)]),
        cone_from_inequalities([(1, -1, 0, 0), (0, 1, -1, 0)], dim=4),
        cone_from_generators([(1, 0, 0, 0), (0, 1, 1, 0), (0, -1, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]),
        cone_from_generators([], dim=4),
    ]
    assert cases[1]._inequalities is not None and cases[0]._inequalities is None
    assert len(cases[1].lineality) == len(cases[2].lineality) == 2
    for c in cases:
        seen = set()
        for _ in range(30):
            if rng.random() < 0.5:
                x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4))
            else:
                x = tuple(sum(rng.randint(0, 2) * g[i] for g in c.directed_generators) for i in range(4))
            k = Fraction(rng.randint(1, 6), rng.choice([1, 1, 2, 5]))
            base = membership(c, x)
            kx = [k * v for v in x]
            forms = [kx, [str(v) for v in kx]]
            if all(v.denominator == 1 for v in kx):
                forms.append([int(v) for v in kx])
            for form in forms:
                cert = membership(c, form)
                assert (cert.verdict, cert.separator) == (base.verdict, base.separator), (c, x, k)
                if base.verdict == IN:
                    assert cert.combination == tuple((j, k * a) for j, a in base.combination), (c, x, k)
            seen.add(base.verdict)
        assert seen == {IN, OUT}


def test_dual_pairing_is_nonnegative_exactly():
    rng = random.Random(29)
    for _ in range(20):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        c = cone_from_generators(gens, dim=dim)
        d = dual_cone(c)
        for u in d.directed_generators:
            for g in c.directed_generators:
                assert sum(a * b for a, b in zip(u, g)) >= 0


def test_dual_cone_leaves_its_argument_and_its_certificates_unchanged():
    c = cone_from_generators([(1, -1, 0), (0, 1, -1)])
    before = membership(c, (-1, 1, 0))
    assert before.separator == (1, -1, -1)  # the LP's Farkas functional
    dual_cone(c)
    assert membership(c, (-1, 1, 0)) == before
    assert c == cone_from_generators([(1, -1, 0), (0, 1, -1)])
    assert c._inequalities is None
    rows = cone_from_inequalities([(1, 0), (0, 1)], dim=2)
    dual_cone(rows)
    assert rows._inequalities == ((1, 0), (0, 1))


def test_dual_cone_refuses_what_is_not_a_cone():
    with pytest.raises(TypeError, match=r"^dual_cone takes a PolyhedralCone, got list$"):
        dual_cone([1, 2])


def test_dual_cone_takes_no_product_beyond_its_results_check(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return dot(a, b)

    c = cone_from_inequalities([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], dim=4)
    monkeypatch.setattr(cones, "dot", counted)
    d = dual_cone(c)
    assert len(calls) == len(d._inequalities) * (len(d.rays) + len(d.lineality)) == 16


def test_certificate_error_is_not_a_value_error():
    # the CLI reports ValueErrors as bad input; a failed recheck is a defect
    assert not issubclass(CertificateError, ValueError)


def test_failed_recheck_raises_under_python_O():
    script = textwrap.dedent(
        """
        import sys
        import multiutility.cones as C
        assert sys.flags.optimize
        C.verify_membership = lambda *args: False
        c = C.cone_from_generators([(1, -1)])
        for x in [(-1, 1), (2, -2)]:
            try:
                print("returned", C.membership(c, x))
            except C.CertificateError:
                print("raised")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def _late_cut_rows(rng, dim):
    """Random integer rows with duplicates, scaled copies and zero rows.

    The first rows leave the last coordinates free, so the lineality along
    them is cut only by the rows that come after.
    """
    free = rng.randint(0, dim - 1)
    rows = []
    for i in range(rng.randint(1, dim + 4)):
        width = dim - free if i < dim - 1 else dim
        row = tuple(rng.randint(-2, 2) if j < width else 0 for j in range(dim))
        rows.append(row)
        roll = rng.random()
        if roll < 0.15:
            rows.append(row)
        elif roll < 0.3:
            rows.append(tuple(rng.randint(2, 3) * x for x in row))
    return rows


def test_double_description_agrees_with_rank_test_oracle():
    rng = random.Random(4242)
    for _ in range(150):
        dim = rng.randint(2, 9)
        rows = _late_cut_rows(rng, dim)
        assert _canonical_vrep(*_double_description(dim, rows)) == _canonical_vrep(
            *oracle_double_description(dim, rows)
        ), (dim, rows)


def test_indexed_adjacency_matches_the_scan():
    # same lineality, same rays in the same order, same zero sets
    rng = random.Random(7373)
    for _ in range(120):
        dim = rng.randint(2, 10)
        rows = _late_cut_rows(rng, dim)
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), rng.choice([(0,) * dim, rng.choice(rows)]))
        assert _matches_the_scan(dim, rows), (dim, rows)
    dataset = moderate_dataset(14, 28)
    rows = [primitive((p - q).dense()) for p, q in dataset.statements]
    for seed in range(8):
        random.Random(seed).shuffle(rows)
        assert _matches_the_scan(14, rows), seed
    # hull-shaped rows, as canonical_rep inserts them for equal-reps: a utility set and both constant directions
    rep = extract_representation(moderate_dataset(8, 16), "z0")
    hull = [*rep.utilities, (1,) * 8, (-1,) * 8]
    for seed in range(4):
        assert _matches_the_scan(8, hull), seed
        random.Random(seed).shuffle(hull)
    # the ray set empties while rows are left to insert
    for rows in ([(1, 0), (0, 1), (-1, -1), (1, 1)], [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)]):
        assert _double_description(len(rows[0]), rows) == ([], {})
        assert _matches_the_scan(len(rows[0]), rows), rows


def _matches_the_scan(dim, rows):
    lin, rays = _double_description(dim, rows)
    scan_lin, scan_rays = scan_double_description(dim, rows)
    return (lin, list(rays.items())) == (scan_lin, list(scan_rays.items()))


def _lineality_list(rng, dim):
    """Up to dim + 2 vectors with dependent combinations, negations, duplicates and zero vectors."""
    vecs = []
    for _ in range(rng.randint(0, dim + 2)):
        roll = rng.random()
        if len(vecs) >= 2 and roll < 0.25:
            a, b = rng.sample(vecs, 2)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            vecs.append(tuple(s * x + t * y for x, y in zip(a, b)))
        elif vecs and roll < 0.35:
            vecs.append(tuple(-x for x in rng.choice(vecs)))
        elif vecs and roll < 0.45:
            vecs.append(rng.choice(vecs))
        elif roll < 0.5:
            vecs.append((0,) * dim)
        else:
            vecs.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return vecs


def test_canonical_vrep_lineality_is_the_rref():
    rng = random.Random(6262)
    for _ in range(300):
        dim = rng.randint(1, 8)
        lin = _lineality_list(rng, dim)
        rays = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(3)]
        basis, reduced = _canonical_vrep(lin, rays)
        assert basis == oracle_rref(lin), (dim, lin)
        pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
        assert all(r[p] == 0 for r in reduced for p in pivots), (dim, lin, rays)


def _messy_generators(rng, dim):
    """Random integer generators with duplicates, scaled copies, two-sided pairs and zero vectors."""
    gens = []
    for _ in range(rng.randint(0, dim)):
        g = tuple(rng.randint(-2, 2) for _ in range(dim))
        gens.append(g)
        roll = rng.random()
        if roll < 0.15:
            gens.append(g)
        elif roll < 0.3:
            gens.append(tuple(rng.randint(2, 3) * x for x in g))
        elif roll < 0.45:
            gens.append(tuple(-x for x in g))
    if rng.random() < 0.3:
        gens.append((0,) * dim)
    return gens


def test_canonical_hull_agrees_with_membership_oracle_and_ignores_order():
    rng = random.Random(5151)
    for _ in range(80):
        dim = rng.randint(2, 6)
        gens = _messy_generators(rng, dim)
        c = cone_from_generators(gens, dim=dim)
        assert (c.lineality, c.rays) == oracle_canonical_hull(gens), (dim, gens)
        for _ in range(3):
            rng.shuffle(gens)
            assert cone_from_generators(gens, dim=dim) == c, (dim, gens)


def _spy_on_double_description(monkeypatch):
    """The rows of every double description pass, one list per pass."""
    calls = []
    real = cones._double_description

    def spy(dim, rows):
        calls.append(list(rows))
        return real(dim, rows)

    monkeypatch.setattr(cones, "_double_description", spy)
    return calls


def test_one_double_description_pass_per_representation_and_hull(monkeypatch):
    calls = _spy_on_double_description(monkeypatch)
    space = OutcomeSpace(["a", "b", "c", "d"])
    p, q, r = (Lottery.from_values(space, v) for v in ([1, 0, 0, 0], ["1/2", "1/2", 0, 0], [0, 0, "1/3", "2/3"]))
    rep = extract_representation(PreferenceDataset(space, ((p, q), (q, r), (q, q), (p, q))), "d")
    assert len(calls) == 1
    hull = cone_from_generators([(1, -1, 0, 0), (0, 2, -2, 0), (0, 0, 0, 0), (0, -1, 1, 0)])
    assert len(calls) == 2
    for with_rows in (rep.cone, rep.dual, dual_cone(rep.dual)):
        dual_cone(with_rows)
    assert len(calls) == 2
    dual_cone(hull)  # a hull carries no rows, so its dual takes a pass
    assert len(calls) == 3


def test_double_description_gets_no_zero_or_repeated_row(monkeypatch):
    calls = _spy_on_double_description(monkeypatch)
    rng = random.Random(6161)
    for _ in range(80):
        dim = rng.randint(1, 6)
        rows = _messy_generators(rng, dim)
        c = cone_from_inequalities(rows, dim)
        (passed,) = calls
        assert all(any(h) for h in passed) and len(set(passed)) == len(passed), rows
        assert c._inequalities == tuple(passed)
        padded = list(rows)
        padded.insert(rng.randint(0, len(padded)), (0,) * dim)
        if rows:
            k = rng.randrange(len(padded))
            padded.insert(rng.randint(k + 1, len(padded)), tuple(2 * x for x in padded[k]))
        again = cone_from_inequalities(padded, dim)
        assert (again, again._inequalities) == (c, c._inequalities), (rows, padded)
        calls.clear()


def test_dual_read_off_the_rows_equals_the_double_description_dual(monkeypatch):
    calls = _spy_on_double_description(monkeypatch)
    rng = random.Random(7272)
    for trial in range(120):
        dim = rng.randint(1, 7)
        rows = _messy_generators(rng, dim) if trial % 2 else _late_cut_rows(rng, dim)
        c = cone_from_inequalities(rows, dim)
        via_dd = dual_cone(PolyhedralCone(c.dim, c.rays, c.lineality))
        passes = len(calls)
        read = dual_cone(c)
        assert len(calls) == passes
        assert (read, read._inequalities) == (via_dd, via_dd._inequalities), (dim, rows)
        for cone in (c, read):
            scan = tuple(sum(1 << j for j, r in enumerate(cone.rays) if not dot(h, r)) for h in cone._inequalities)
            assert cone._tight == scan, (dim, rows)


def _hull_columns(rng, dim):
    """Up to dim columns, mostly independent, or k + 1 in a k-dimensional subspace; then the split.

    Columns from the split on are lineality vectors.
    """
    if rng.random() < 0.6:
        cols = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, dim))]
    else:
        k = rng.randint(1, dim)
        span = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
        cols = [tuple(sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(dim)) for _ in range(k + 1)]
    return cols, rng.choice([len(cols), len(cols), rng.randint(0, len(cols))])


def test_hull_solve_equals_the_lp_solution():
    # independent columns admit one solution, which the simplex would return
    rng = random.Random(8383)
    direct = {True: 0, False: 0}
    for trial in range(2000):
        dim = rng.randint(1, 8)
        cols, split = _hull_columns(rng, dim)
        gens, lins = cols[:split], cols[split:]
        kind = trial % 3
        if kind == 2:
            x = tuple(rng.randint(-3, 3) for _ in range(dim))
        else:
            # kind 1 lets ray coefficients go negative: in the span, mostly outside the cone
            lam = [rng.randint(-kind, 3) for _ in gens] + [rng.randint(-3, 3) for _ in lins]
            x = tuple(sum(l * c[i] for l, c in zip(lam, cols)) for i in range(dim))
        lp = ExactLP(len(cols), free=range(len(gens), len(cols)))
        for i in range(dim):
            lp.add([c[i] for c in cols], x[i])
        expected = lp.minimize()
        assert _hull_lp(x, gens, lins) == expected, (gens, lins, x)
        if expected.status == OPTIMAL:
            direct[_independent_basis(tuple(cols)) is not None] += 1
    assert min(direct.values()) > 150, direct


def _spy_on_lp(monkeypatch):
    """Every LP solved, one entry per call."""
    calls = []
    real = ExactLP.minimize

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(ExactLP, "minimize", spy)
    return calls


def test_only_a_unique_in_combination_skips_the_lp(monkeypatch):
    calls = _spy_on_lp(monkeypatch)
    for (n, m), lps in {(12, 24): 0, (10, 14): 1}.items():
        dataset = moderate_dataset(n, m)
        cone = extract_representation(dataset, "z0").cone
        assert (_independent_basis(cone.rays + cone.lineality) is not None) == (lps == 0)
        (p, q), (r, s) = dataset.statements[:2]
        calls.clear()
        assert membership(cone, ((p - q) + (r - s).scale(3)).dense()).verdict == IN
        assert len(calls) == lps, (n, m)
    # an OUT without rows still takes its separator from the Farkas duals
    hull = cone_from_generators([(1, -1, 0), (0, 1, -1)])
    assert hull._inequalities is None and _independent_basis(hull.rays) is not None
    calls.clear()
    cert = membership(hull, (-1, 1, 0))
    assert (cert.verdict, cert.separator, len(calls)) == (OUT, (1, -1, -1), 1)
