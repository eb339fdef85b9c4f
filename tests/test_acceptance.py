"""Acceptance suite: one test per exit criterion, each printing a verdict.

Every assertion is exact (rational arithmetic, zero tolerance); the two
runtime limits are the stated wall-clock bounds.  Run with `pytest -v
tests/test_acceptance.py -s` to see one pass/fail line per criterion.
"""

import random
import time
from fractions import Fraction

from weightedres import (
    CenterPresentation,
    CoordinateChange,
    LatticeIdeal,
    MultiOrder,
    Polynomial,
    PolyIdeal,
    build_charts,
    chart_grading_ok,
    constant_tube,
    controlled_transform,
    dominating_sequence,
    embedded_resolve,
    invariant_drop_check,
    is_admissible,
    is_in_mord,
    leading_term_basis,
    minimal_root,
    monomial_center_oracle,
    mord_compare,
    multiorder,
    nu_valuation,
    parameter_check,
    parse_ideal,
    parse_polynomial,
    principalize,
    rees_restriction_check,
    reembedding_check,
    rounding,
    split_gt1,
    tube_center_correspondence,
    center_from_tube,
    verify_split_tube,
    verify_tschirnhaus,
    transition_agrees,
    width,
    witness_vectors,
)
from weightedres.lattice import GT, LT
from weightedres.textio import parse_center

F = Fraction


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


CORPUS = [
    ("x^5 + x^3*y^3 + y^7", MultiOrder((5, 7))),
    ("x^5 + x^3*y^3 + y^8", MultiOrder((5, F(15, 2)))),
    ("x^4, x*y^4, x^2*y*z^2", MultiOrder((4, F(16, 3), F(32, 5)))),
    ("x*y^2 + y^4", MultiOrder((3, 3))),
]


def test_criterion_1_invariant_corpus():
    checks = []
    for text, expected in CORPUS[:3]:
        start = time.monotonic()
        got = multiorder(parse_ideal(text)).mord
        elapsed = time.monotonic() - start
        checks.append(got == expected and elapsed < 1.0)
    for n in range(1, 6):
        start = time.monotonic()
        got = multiorder(parse_ideal(f"x*y^{n} + y^{n + 2}")).mord
        elapsed = time.monotonic() - start
        checks.append(got == MultiOrder((n + 1, n + 1)) and elapsed < 1.0)
    report(1, all(checks), "invariant corpus exact, each under one second")


def test_criterion_2_rounding_corpus():
    lists = {
        "[x^5, y^7]": {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^7"},
        "[x^5, y^(15/2)]": {"x^5", "x^4*y^2", "x^3*y^3", "x^2*y^5", "x*y^6", "y^8"},
    }
    ok = True
    for text, expected in lists.items():
        J = parse_center(text)
        R = rounding(J)
        ok = ok and {str(g) for g in R.generators} == expected
        res = multiorder(R)
        ok = ok and res.mord == J.mord() and res.center == J
    report(2, ok, "verbatim rounding lists; canonical center of each rounding")


def test_criterion_3_membership_and_dichotomy():
    d = MultiOrder((4, F(16, 3), F(32, 5)))
    ok = is_in_mord(d)
    ok = ok and {v for v, _ in witness_vectors(d, 3)} == {
        (4, 0, 0),
        (1, 4, 0),
        (2, 1, 2),
        (0, 2, 4),
    }
    bad = MultiOrder((F(14, 5), F(7, 2)))
    ok = ok and not is_in_mord(bad)
    dom = dominating_sequence(bad)
    ok = ok and dom is not None and mord_compare(dom, bad) == GT
    target = LatticeIdeal(dom)
    ok = ok and all(
        target.contains(a) for a in LatticeIdeal(bad).minimal_generators()
    )
    report(3, ok, "witness set exact; dominating sequence verified on generators")


def test_criterion_4_leading_terms_and_certificates():
    def monomials(J):
        lt = leading_term_basis(J)
        return {
            "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(lt.coords, exp) if e)
            for exp in lt.basis
        }

    ok = monomials(parse_center("[x^5, y^7]")) == {"x^5", "y^7"}
    ok = ok and monomials(parse_center("[x^5, y^(15/2)]")) == {
        "x^5",
        "x^3*y^3",
        "x*y^6",
    }
    ok = ok and monomials(parse_center("[x^4, y^(16/3), z^(32/5)]")) == {
        "x^4",
        "x*y^4",
        "x^2*y*z^2",
        "y^2*z^4",
    }

    pairs = [
        ("x^5 + x^3*y^3 + y^7", "[x^5, y^7]"),
        ("x^5 + x^3*y^3 + y^8", "[x^5, y^(15/2)]"),
        ("x^4, x*y^4, x^2*y*z^2", "[x^4, y^(16/3), z^(32/5)]"),
    ]
    for ideal_text, center_text in pairs:
        I = parse_ideal(ideal_text)
        J = parse_center(center_text, I.variables)
        ok = ok and verify_tschirnhaus(I, J) is not None

    # sample admissible integral centers strictly below the canonical one
    refused = 0
    for ideal_text, _ in pairs:
        I = parse_ideal(ideal_text)
        canonical = multiorder(I).mord
        names = I.variables
        candidates = []
        values = [F(k, q) for q in (1, 2, 3) for k in range(1, 10 * q)]
        if len(names) == 2:
            for a in range(1, 6):
                for b in values:
                    if b >= a:
                        candidates.append((a, b))
        else:
            for a in range(1, 5):
                for b in (F(bb) for bb in range(1, 7)):
                    for c in values[:40]:
                        if a <= b <= c:
                            candidates.append((a, b, c))
        for entries in candidates:
            if refused >= 30:
                break
            try:
                d = MultiOrder(entries)
            except Exception:
                continue
            if not is_in_mord(d) or mord_compare(d, canonical) != LT:
                continue
            coords = names[: len(entries)]
            J = CenterPresentation(names, CoordinateChange.identity(names), coords, d)
            if not is_admissible(I, J):
                continue
            if verify_tschirnhaus(I, J) is not None:
                report(4, False, f"non-maximal center {J} was certified")
            refused += 1
    ok = ok and refused >= 20
    report(4, ok, f"leading-term bases exact; {refused} non-maximal centers refused")


def test_criterion_5_flagship_principalization():
    start = time.monotonic()
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    res = multiorder(I)
    N = minimal_root(res.mord)
    ok = N == 35
    charts = build_charts(res.center, N)
    Tx = controlled_transform(I, charts[0])
    Ty = controlled_transform(I, charts[1])
    expected_x = parse_polynomial("1 + s*y'^3 + y'^7", charts[0].ambient)
    expected_y = parse_polynomial("x'^5 + s*x'^3 + 1", charts[1].ambient)
    ok = ok and list(Tx.generators) == [expected_x]
    ok = ok and list(Ty.generators) == [expected_y]
    trace = principalize(I)
    elapsed = time.monotonic() - start
    ok = ok and trace.status == "principalized"
    ok = ok and trace.step_count() <= 10
    ok = ok and invariant_drop_check(trace)
    ok = ok and elapsed < 10.0
    report(5, ok, f"N=35, exact chart formulas, {trace.step_count()} steps, drop holds")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(20240809)
    agreements = 0
    for _ in range(110):
        n = rng.choice([2, 3])
        names = ("x", "y", "z")[:n]
        gens = []
        for _ in range(rng.randint(1, 4)):
            while True:
                exp = tuple(rng.randint(0, 6) for _ in range(n))
                if 1 <= sum(exp) <= 12:
                    break
            gens.append(Polynomial(names, {exp: 1}))
        I = PolyIdeal(names, gens)
        if multiorder(I).mord != monomial_center_oracle(I).mord:
            report(6, False, f"oracle disagreement on {I}")
        agreements += 1
    report(6, agreements >= 100, f"{agreements} random monomial ideals agree")


def test_criterion_7_reembedding():
    ok = True
    for text, _ in CORPUS:
        for c in (1, 2):
            ok = ok and reembedding_check(parse_ideal(text), c)
    report(7, ok, "invariant gains exactly c leading ones for c in {1, 2}")


def test_criterion_8_tube_suite():
    ok = constant_tube(MultiOrder((5, 7))).rank() == 23

    rng = random.Random(9)
    T = constant_tube(MultiOrder((5, 7)))
    changes = 0
    while changes < 20:
        cands = []
        for i, p in enumerate(T.params):
            img = Polynomial.variable(p, T.ambient())
            level = F(1) / T.width.entries[i]
            for _ in range(rng.randint(0, 2)):
                exp = tuple(rng.randint(0, 2) for _ in T.params)
                value = sum(F(e) / de for e, de in zip(exp, T.width.entries))
                if sum(exp) >= 2 and value >= level:
                    full = tuple(
                        exp[T.params.index(v)] if v in T.params else 0
                        for v in T.ambient()
                    )
                    img = img + Polynomial(T.ambient(), {full: rng.choice([1, -1, 2])})
            cands.append(img)
        ok = ok and parameter_check(T, cands)
        ok = ok and verify_split_tube(T, MultiOrder((5, 7)), cands)
        ok = ok and width(T) == MultiOrder((5, 7))
        changes += 1

    for text in ("[x^5, y^7]", "[x^5, y^(15/2)]", "[x^2, y^3]"):
        J = parse_center(text)
        V = tube_center_correspondence(J)
        ok = ok and center_from_tube(V) == J
        ones, tail = split_gt1(J.mord())
        ok = ok and V.width == tail

    J23 = parse_center("[x^2, y^3]")
    T23 = constant_tube(MultiOrder((2, 3)), params=("x", "y"))
    ok = ok and rees_restriction_check(J23, rounding(J23), 6, T23)

    Z = parse_ideal("x^2 - y^3")
    ok = ok and transition_agrees(J23, 6, 0, 1, Z) and transition_agrees(J23, 6, 1, 0, Z)
    ok = ok and all(
        chart_grading_ok(chart, controlled_transform(Z, chart)) for chart in build_charts(J23, 6)
    )
    report(8, ok, "rank 23; 20 parameter changes; round trip; Rees; chart transitions, grading")


def test_criterion_9_negative_control():
    I = parse_ideal("x^2, y^2, x*y*z")
    res = multiorder(I)
    ok = res.mord == MultiOrder((2, 2))
    ok = ok and str(res.center) == "[x^2, y^2]"
    # the invariant is constant along the third axis
    shifted = I.translate({"z": F(1)})
    ok = ok and multiorder(shifted).mord == MultiOrder((2, 2))
    trace = embedded_resolve(I, 2)
    ok = ok and trace.status == "stopped-generic-point"
    ok = ok and trace.step_count() == 1
    ok = ok and "unmodified" in trace.steps[0].note
    report(9, ok, "center [x^2, y^2] along the axis; subscheme left unmodified")


def test_criterion_10_substitution_invariance():
    rng = random.Random(77)
    ok = True
    for text, expected in CORPUS:
        I = parse_ideal(text)
        base = multiorder(I)
        names = I.variables
        for _ in range(20):
            images = {}
            for i, v in enumerate(names):
                img = Polynomial.variable(v, names).scale(rng.choice([1, 1, 2, -1]))
                for j in range(i + 1, len(names)):
                    if rng.random() < 0.6:
                        exp = [0] * len(names)
                        exp[j] = rng.randint(1, 2)
                        img = img + Polynomial(names, {tuple(exp): rng.choice([1, -1, 2])})
                images[v] = img
            transformed = I.substitute(images, names)
            res = multiorder(transformed)
            ok = ok and res.mord == base.mord
            # centers correspond: the transported roundings stay admissible
            for m in rounding(base.center).generators:
                ok = ok and nu_valuation(m.substitute(images, names), res.center) >= 1
            inverse = _invert(images, names)
            for m in rounding(res.center).generators:
                ok = ok and nu_valuation(m.substitute(inverse, names), base.center) >= 1
        if not ok:
            break
    report(10, ok, "invariant stable under 20 triangular changes per corpus ideal")


def _invert(images, names):
    inverse = {}
    for i in range(len(names) - 1, -1, -1):
        v = names[i]
        img = images[v]
        c = img.linear_part()[v]
        tail = img - Polynomial.variable(v, names).scale(c)
        inverse[v] = (
            Polynomial.variable(v, names) - tail.substitute(inverse, names)
        ).scale(F(1) / c)
    return inverse
