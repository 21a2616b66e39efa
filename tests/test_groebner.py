import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ as sQQ, GF as sGF, groebner as sympy_groebner, symbols

from flatspan.budget import Budget, BudgetExhausted
from flatspan.fields import GF, QQ
from flatspan.groebner import (
    eliminate,
    groebner_basis,
    ideal_intersection,
    ideals_equal,
    is_unit_ideal,
    modular_inverse,
    normal_form,
    saturate,
    spolynomial_pairs_reduce,
)
from flatspan.orders import Block, GrevLex, Lex
from flatspan.poly import MAX_EXPONENT, ExponentOverflow, Polynomial, PolynomialRing

from oracles import is_groebner_oracle, naive_divide, rescanning_reduce, unnormalized_buchberger

Rxy = PolynomialRing(QQ, ("x", "y"))


def P(text, ring=Rxy):
    from flatspan.polyparse import parse_polynomial

    return parse_polynomial(text, ring)


def test_reduced_basis_frozen_example_lex():
    # hand-run: S(x^2+y^2, x*y) under lex x>y reduces to y^3, then all
    # further S-pairs drop to zero
    basis = groebner_basis([P("x^2 + y^2"), P("x*y")], Lex(2))
    assert basis == [P("y^3"), P("x*y"), P("x^2 + y^2")]
    assert is_groebner_oracle(basis, Lex(2))


def test_unit_relation_collapses_to_sign_flip():
    R = PolynomialRing(QQ, ("t_inv", "t"), frozenset(["t"]))
    gens = [P("t*t_inv - 1", R), P("t^2 + 1", R)]
    basis = groebner_basis(gens, Lex(2))
    # t is invertible and t^2 = -1, so t_inv = -t
    assert basis == [P("t^2 + 1", R), P("t_inv + t", R)]


def test_zero_and_unit_ideals():
    assert groebner_basis([]) == []
    assert groebner_basis([Rxy.zero()]) == []
    b = groebner_basis([P("x"), P("x + 1")])
    assert b == [Rxy.one()]
    assert is_unit_ideal(b)
    assert not is_unit_ideal(groebner_basis([P("x")]))


def test_normal_form_univariate_frozen():
    R = PolynomialRing(QQ, ("t",))
    basis = groebner_basis([P("t^2 + 1", R)])
    # long division: t^4 + 1 = (t^2+1)(t^2-1) + 2
    assert normal_form(P("t^4 + 1", R), basis) == R.const(2)
    assert normal_form(P("t^4 - 1", R), basis).is_zero()  # (t^2+1)(t^2-1)
    assert normal_form(P("t^4", R), basis).is_zero() is False
    assert normal_form(P("t^3 + t", R), basis).is_zero()


# Budget.used for ("normal", "fifo"), recorded before the pair queue became
# a heap: a change that reorders pops moves these, and with them the step at
# which a budgeted check runs out (exit code 3).
@pytest.mark.parametrize(
    "order, field, steps",
    [
        pytest.param(GrevLex(3), QQ, (29, 27), id="GrevLex-QQ"),
        pytest.param(GrevLex(3), GF(5), (29, 27), id="GrevLex-GF5"),
        pytest.param(Lex(3), QQ, (569, 918), id="Lex-QQ"),
        pytest.param(Lex(3), GF(5), (492, 791), id="Lex-GF5"),
        pytest.param(Block(3, 1), QQ, (89, 68), id="Block-QQ"),
        pytest.param(Block(3, 1), GF(5), (89, 68), id="Block-GF5"),
    ],
)
def test_schedules_agree_on_reduced_output(order, field, steps):
    ring = PolynomialRing(field, ("x", "y", "z"))
    gens = [P("x^2 + y*z - 1", ring), P("x*y - z^2", ring), P("y^3 - x*z + 2", ring)]
    normal, fifo = Budget(), Budget()
    a = groebner_basis(gens, order, normal, "normal")
    b = groebner_basis(gens, order, fifo, "fifo")
    assert a == b
    assert is_groebner_oracle(a, order)
    assert (normal.used, fifo.used) == steps


@pytest.mark.parametrize("gens", [["x"], ["x*y - 1", "x*y - 1"], ["x", "y"]])
def test_unknown_strategy_is_rejected_before_any_work(gens):
    with pytest.raises(ValueError, match="unknown S-pair strategy"):
        groebner_basis([P(g) for g in gens], strategy="bogus")


def test_eliminate_projection_frozen():
    R = PolynomialRing(QQ, ("t", "x", "y"))
    gens = [P("t - x^2", R), P("t - y", R)]
    assert eliminate(gens, ["t"]) == [P("x^2 - y", R)]


def test_eliminate_empty_drop_is_groebner():
    gens = [P("x*y"), P("x^2 + y^2")]
    eliminated, direct = Budget(), Budget()
    assert eliminate(gens, [], eliminated) == groebner_basis(gens, budget=direct)
    assert eliminated.used == direct.used > 0


def test_saturate_strips_supported_component():
    R = PolynomialRing(QQ, ("t",))
    got = saturate([P("t^3 + t", R)], R.var("t"))
    assert got == [P("t^2 + 1", R)]
    # saturating by a unit factor changes nothing
    assert saturate([P("t^2 + 1", R)], R.var("t")) == [P("t^2 + 1", R)]


def test_ideal_intersection_of_coprime_factors():
    R = PolynomialRing(QQ, ("t",))
    inter = ideal_intersection([P("t", R)], [P("t^2 + 1", R)])
    assert inter == [P("t^3 + t", R)]


def test_ideals_equal_modulo_generators():
    assert ideals_equal([P("x + y"), P("x - y")], [P("x"), P("y")])
    assert not ideals_equal([P("x")], [P("y")])


def test_budget_exhaustion_raises():
    gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
    with pytest.raises(BudgetExhausted):
        groebner_basis(gens, budget=Budget(3))


def _random_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = tuple(rng.randint(0, 3) for _ in ring.names)
            if sum(exp) > 3:
                exp = tuple(min(e, 1) for e in exp)
            terms[exp] = ring.field.from_int(rng.randint(-4, 4))
        p = Polynomial(ring, terms)
        if not p.is_zero():
            gens.append(p)
    return gens or [ring.var(ring.names[0])]


def test_randomized_soundness_small():
    # smaller sibling of the acceptance sweep, kept here for fast feedback
    rng = random.Random(7)
    for field in (QQ, GF(5)):
        ring = PolynomialRing(field, ("x", "y", "z"))
        for _ in range(8):
            gens = _random_ideal(rng, ring)
            basis = groebner_basis(gens)
            assert is_groebner_oracle(basis, GrevLex(3))
            for g in gens:
                assert naive_divide(g, basis, GrevLex(3)).is_zero()
            assert groebner_basis(basis) == basis  # idempotent


def _to_sympy(p, syms):
    total = 0
    for exp, c in p.terms().items():
        term = sQQ.to_sympy(sQQ.convert(c)) if p.ring.field == QQ else int(c)
        for s, e in zip(syms, exp):
            term *= s**e
        total += term
    return total


def _from_sympy(expr, syms, ring):
    from sympy import Poly, Rational

    poly = Poly(expr, *syms)
    terms = {}
    for exp, c in poly.terms():
        r = Rational(c)
        terms[tuple(exp)] = ring.field.from_fraction(int(r.p), int(r.q))
    return Polynomial(ring, terms)


def test_cross_check_against_sympy_groebner():
    x, y = symbols("x y")
    gens = [P("x^3 - 2*x*y"), P("x^2*y - 2*y^2 + x")]
    ours = groebner_basis(gens, GrevLex(2))
    theirs = sympy_groebner([_to_sympy(g, (x, y)) for g in gens], x, y, order="grevlex")
    # sympy normalizes to integer content; compare monic under grevlex
    def monic(p):
        return p.scale(QQ.inv(p.terms()[p.leading_exponent(GrevLex(2))]))

    converted = sorted(
        (monic(_from_sympy(e, (x, y), Rxy)) for e in theirs.exprs),
        key=lambda p: GrevLex(2).key(p.leading_exponent(GrevLex(2))),
    )
    assert converted == ours


def test_modular_inverse_reads_off_the_companion():
    ring = PolynomialRing(QQ, ("t", "t_inv"), frozenset(["t"]))
    t, ti = ring.var("t"), ring.var("t_inv")
    found = modular_inverse(t, [t * ti - ring.one()])
    assert found == ti


def test_modular_inverse_of_a_constant():
    found = modular_inverse(P("3"), [])
    assert str(found) == "1/3"


def test_modular_inverse_spots_non_units():
    assert modular_inverse(P("x"), []) is None
    assert modular_inverse(P("x"), [P("x^2")]) is None


def test_modular_inverse_through_a_quadratic_relation():
    # z is invertible mod z^2 - 2 with inverse z/2
    ring = PolynomialRing(QQ, ("z",))
    z = ring.var("z")
    found = modular_inverse(z, [z * z - ring.const(2)])
    assert found is not None
    assert normal_form(found * z - ring.one(), groebner_basis([z * z - ring.const(2)])) == ring.zero()


def _drawn_poly(data, ring, max_terms, top=3):
    if ring.nvars > 3:  # at most three variables per term, so completions stay small
        exps = st.dictionaries(st.integers(0, ring.nvars - 1), st.integers(1, top), max_size=3).map(
            lambda d: tuple(d.get(i, 0) for i in range(ring.nvars))
        )
    else:
        exps = st.tuples(*[st.integers(0, top)] * ring.nvars)
    items = data.draw(st.lists(st.tuples(exps, st.integers(-4, 4)), max_size=max_terms))
    return Polynomial(ring, {e: ring.field.from_int(c) for e, c in items})


# Ring shapes the differential tests draw from, half the examples each:
# three variables under every kind of order, and six under the orders
# certification builds, the fiber variables leading a block over the base
# variables.
SHAPES = st.sampled_from(
    [
        (("x", "y", "z"), [Lex(3), GrevLex(3), Block(3, 1), Block(3, 2)]),
        (("t", "t_inv", "u", "s", "s_inv", "r"), [GrevLex(6)] + [Block(6, s) for s in range(2, 6)]),
    ]
)


def _reduce_or_exhaust(reduce, budget):
    try:
        return reduce(budget)
    except BudgetExhausted as exc:
        return exc.phase


@settings(max_examples=160, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(5)]), SHAPES)
def test_normal_form_matches_the_rescanning_division(data, field, shape):
    # The engine keeps the working terms in a heap; the oracle rescans them
    # with max.  Same leads, same reducers, same remainder term order, same
    # steps, and the same step at which a small budget runs out.
    names, orders = shape
    order = data.draw(st.sampled_from(orders))
    ring = PolynomialRing(field, names)
    p = _drawn_poly(data, ring, 8)
    if data.draw(st.booleans()):
        # low-degree divisors, so that several leads often divide one term
        basis = [_drawn_poly(data, ring, 4, top=1) for _ in range(data.draw(st.integers(1, 4)))]
    else:  # a reduced basis of a small ideal, kept small so Lex stays fast
        gens = [_drawn_poly(data, ring, 3, top=2) for _ in range(data.draw(st.integers(1, 2)))]
        basis = groebner_basis(gens, order)
    divisors = basis
    if data.draw(st.booleans()):  # divisors with any lead coefficient
        divisors = [g.scale(field.from_int(data.draw(st.sampled_from([2, 3, -1, -2])))) for g in basis]
    limit = data.draw(st.sampled_from([10**6, 1, 2, 3, 5, 8]))
    ours, theirs = Budget(limit), Budget(limit)
    got = _reduce_or_exhaust(lambda b: normal_form(p, divisors, order, b), ours)
    want = _reduce_or_exhaust(lambda b: rescanning_reduce(p, divisors, order, b), theirs)
    assert got == want  # a remainder, or the phase that ran out
    if isinstance(want, Polynomial):
        assert list(got.terms()) == list(want.terms())
    assert ours.used == theirs.used
    # the S-pair check reads only the divisors up to scaling
    plain, scaled = Budget(limit), Budget(limit)
    verdict = _reduce_or_exhaust(lambda b: spolynomial_pairs_reduce(basis, order, b), plain)
    assert _reduce_or_exhaust(lambda b: spolynomial_pairs_reduce(divisors, order, b), scaled) == verdict
    assert plain.used == scaled.used


@settings(max_examples=600, deadline=None)
@given(st.data(), st.sampled_from([QQ, GF(5)]), SHAPES, st.sampled_from(["normal", "fifo"]))
def test_buchberger_matches_the_unnormalized_kernel(data, field, shape, strategy):
    # The engine keeps its basis monic and carries each pair's lcm; the
    # oracle runs the pair loop on the basis as reduced and divides by any
    # lead.  Same basis and term order, same steps, same phase run out in.
    names, orders = shape
    order = data.draw(st.sampled_from(orders))
    ring = PolynomialRing(field, names)
    gens = [_drawn_poly(data, ring, 3, top=2) for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        # a unit last: its pairs are coprime and pop first under "normal",
        # and its lead divides every lcm, so the chain criterion reads
        # exactly the pairs the product criterion retired
        gens.append(ring.one())
    limit = data.draw(st.sampled_from([10**6, 1, 2, 3, 5, 8, 13]))
    ours, theirs = Budget(limit), Budget(limit)
    got = _reduce_or_exhaust(lambda b: groebner_basis(gens, order, b, strategy), ours)
    want = _reduce_or_exhaust(lambda b: unnormalized_buchberger(gens, order, b, strategy), theirs)
    assert got == want  # a basis, or the phase that ran out
    if isinstance(want, list):
        assert [list(g.terms()) for g in got] == [list(g.terms()) for g in want]
    assert ours.used == theirs.used


def test_division_entry_points_reject_an_order_of_another_arity():
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    basis = groebner_basis([P("x^2 - y", ring), P("y*z - 1", ring)])
    with pytest.raises(ValueError, match="order arity does not match ring"):
        normal_form(P("x^3", ring), basis, Block(5, 2))
    with pytest.raises(ValueError, match="order arity does not match ring"):
        spolynomial_pairs_reduce(basis, Lex(7))


def test_pair_check_rejects_a_basis_spread_over_rings():
    first = P("x^2 - y")
    modular = P("x*y - 1", PolynomialRing(GF(5), ("x", "y")))
    renamed = P("u*v - 1", PolynomialRing(QQ, ("u", "v")))
    for other in (modular, renamed):
        with pytest.raises(ValueError, match="basis element in a different ring"):
            spolynomial_pairs_reduce([first, other])


# Exponents at the cap MAX_EXPONENT = 2**31 - 1.  The results are pinned as
# the tuple-exponent kernel gave them; the packed kernel's 63-bit fields hold
# every sum these reach (up to about 2**42 within the 2000 steps).
M = MAX_EXPONENT
Rxyz = PolynomialRing(QQ, ("x", "y", "z"))


def _mono(*exp):
    return Polynomial(Rxyz, {exp: QQ.one})


def test_monomials_at_the_exponent_cap_are_their_own_basis():
    assert groebner_basis([_mono(M, 1, 0), _mono(1, M, 0)], GrevLex(3)) == [_mono(1, M, 0), _mono(M, 1, 0)]


def test_a_result_past_the_exponent_cap_raises():
    gens = [_mono(M, 0, 0) + _mono(0, 1, 0), _mono(1, M, 0) + _mono(0, 0, 1)]
    with pytest.raises(ExponentOverflow, match="^exponent 2147483648 exceeds 2147483647$"):
        groebner_basis(gens, GrevLex(3))


@pytest.mark.parametrize(
    "gens, order",
    [
        pytest.param([_mono(M, 0, 0) + _mono(0, M, 0), _mono(1, M, 0) + _mono(0, 0, 1)], Lex(3), id="Lex"),
        pytest.param([_mono(M, 0, 1) - Rxyz.one(), _mono(1, M, 0) - _mono(0, 0, 1)], Block(3, 1), id="Block"),
    ],
)
def test_completions_at_the_exponent_cap_run_out_where_they_did(gens, order):
    budget = Budget(2000)
    with pytest.raises(BudgetExhausted) as exc:
        groebner_basis(gens, order, budget)
    assert exc.value.phase == "S-pair formation"
    assert budget.used == 2001


def test_an_exponent_past_the_field_width_raises_instead_of_wrapping():
    # y = z^M, then x = y^K = z^(K*M), then x^K = z^(K*K*M): K*K*M passes
    # 2**63 - 1, the widest exponent a packed field holds, during the last
    # reduction, so the sum sets a guard bit.
    k = 2**16 + 1
    gens = [_mono(0, 1, 0) - _mono(0, 0, M), _mono(1, 0, 0) - _mono(0, k, 0), _mono(k, 0, 0)]
    with pytest.raises(ExponentOverflow, match="exceeds 9223372036854775807$"):
        groebner_basis(gens, Lex(3))
