from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flatspan.budget import InputError
from flatspan.fields import GF, QQ, FieldError, field_from_name, field_name
from flatspan.poly import (
    ExponentOverflow,
    MAX_EXPONENT,
    Polynomial,
    PolynomialRing,
    RingMismatch,
    companion_name,
    laurent_valuation,
)

from oracles import looping_power


def ring_qq(*names, inverted=()):
    return PolynomialRing(QQ, tuple(names), frozenset(inverted))


def test_field_roundtrip_names():
    assert field_name(field_from_name("QQ")) == "QQ"
    assert field_name(field_from_name("Fp:5")) == "Fp:5"
    with pytest.raises(FieldError, match="6 is not prime"):
        field_from_name("Fp:6")
    # leading zeros are no digits of p, and too many digits are refused before int()
    assert field_name(field_from_name("Fp:" + "0" * 5000 + "7")) == "Fp:7"
    with pytest.raises(FieldError, match="^7{5000} is too large"):
        field_from_name("Fp:" + "7" * 5000)
    with pytest.raises(FieldError):
        field_from_name("RR")


def test_gf_inverse():
    f5 = GF(5)
    for a in range(1, 5):
        assert f5.mul(a, f5.inv(a)) == 1
    with pytest.raises(FieldError):
        f5.inv(0)


def test_basic_arithmetic():
    R = ring_qq("x", "y")
    x, y = R.var("x"), R.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.total_degree() == 2
    assert max(exp[R.index("x")] for exp in p.terms()) == 2


def test_constant_collapse():
    R = ring_qq("x")
    assert R.const(0).is_zero()
    assert R.const(3).constant_value() == Fraction(3)
    f2 = PolynomialRing(GF(2), ("x",))
    x = f2.var("x")
    # char 2: x + x = 0
    assert (x + x).is_zero()


def test_leading_moves_names_to_the_front_and_keeps_the_rest():
    R = ring_qq("a", "t", "t_inv", "b", inverted=["t"])
    moved = R.leading(["b", "t_inv"])
    assert moved.names == ("b", "t_inv", "a", "t")
    assert moved.inverted == R.inverted and moved.field == R.field
    assert R.leading([]) == R
    with pytest.raises(RingMismatch):
        R.leading(["z"])


def test_ring_mismatch_rejected():
    a = ring_qq("x").var("x")
    b = ring_qq("y").var("y")
    with pytest.raises(RingMismatch):
        _ = a + b


def test_arithmetic_with_a_non_polynomial_is_a_type_error():
    R = ring_qq("x", "y")
    x, y = R.var("x"), R.var("y")
    for compute in (lambda: x * y - 1, lambda: 1 - x, lambda: x + 1, lambda: 2 * x, lambda: x * 0.5):
        with pytest.raises(TypeError, match="unsupported operand"):
            compute()


def test_exponent_overflow_is_hard_error():
    R = ring_qq("x")
    with pytest.raises(ExponentOverflow):
        Polynomial(R, {(MAX_EXPONENT + 1,): QQ.one})
    big = Polynomial(R, {(MAX_EXPONENT,): QQ.one})
    with pytest.raises(ExponentOverflow):
        _ = big * R.var("x")


def test_companion_bookkeeping():
    R = ring_qq("t", "t_inv", inverted=["t"])
    assert companion_name("t") == "t_inv"
    tm2 = R.var(companion_name("t")) ** 2
    assert tm2 == R.var("t_inv") ** 2
    assert laurent_valuation(tm2, "t") == -2
    with pytest.raises(ValueError):
        R.var("t") ** -2


def test_laurent_encode_and_valuation():
    R = ring_qq("x", "t", "t_inv", inverted=["t"])
    # x * t^-2 + t
    p = R.var("x") * R.var("t_inv") ** 2 + R.var("t")
    assert laurent_valuation(p, "t") == -2
    assert laurent_valuation(R.one(), "t") == 0
    assert laurent_valuation(R.zero(), "t") is None


def test_substitute_is_ring_hom():
    R = ring_qq("x", "y")
    S = ring_qq("u")
    u = S.var("u")
    images = {"x": u + S.one(), "y": u * u}
    p = R.var("x") * R.var("y") + R.const(2)
    q = R.var("x") + R.var("y")
    lhs = (p * q).substitute(images, S)
    rhs = p.substitute(images, S) * q.substitute(images, S)
    assert lhs == rhs


def test_map_ring_respects_names():
    R = ring_qq("x", "y")
    S = ring_qq("y", "x", "z")
    p = R.var("x") ** 2 + R.var("y")
    moved = p.map_ring(S)
    assert moved == S.var("x") ** 2 + S.var("y")
    with pytest.raises(RingMismatch):
        p.map_ring(ring_qq("x"))  # y is used but absent


coeffs = st.integers(min_value=-6, max_value=6)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


def polys(ring):
    return st.lists(st.tuples(exps, coeffs), max_size=5).map(
        lambda items: _from_items(ring, items)
    )


def _from_items(ring, items):
    total = ring.zero()
    for exp, c in items:
        total = total + Polynomial(ring, {exp: ring.field.one}).scale(c)
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ring_axioms_random(data):
    for field in (QQ, GF(5)):
        R = PolynomialRing(field, ("x", "y"))
        p = data.draw(polys(R))
        q = data.draw(polys(R))
        r = data.draw(polys(R))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
        assert p * R.one() == p


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rename_by_map_ring_matches_substitute(data):
    exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    for field in (QQ, GF(5)):
        R = PolynomialRing(field, ("x", "y", "z"))
        p = _from_items(R, data.draw(st.lists(st.tuples(exps3, coeffs), max_size=6)))
        targets = data.draw(st.permutations(["a", "b", "c", "x"]))
        rename = dict(zip(R.names, targets))
        R2 = PolynomialRing(field, tuple(data.draw(st.permutations(targets))))
        renamed = p.map_ring(R2, rename)
        substituted = p.substitute({v: R2.var(rename[v]) for v in R.names}, R2)
        assert list(renamed.terms().items()) == list(substituted.terms().items())
        wider = PolynomialRing(field, tuple(data.draw(st.permutations(["w", "x", "y", "z"]))))
        moved = p.map_ring(wider)
        assert list(p.substitute({}, wider).terms().items()) == list(moved.terms().items())


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_map_ring_relabels_as_the_accumulating_loop(data):
    """The same terms in the same order as adding each coefficient into the
    target through the field; a used variable with no target name, or two
    used variables on one, raises."""
    from oracles import accumulating_map_ring

    powers = st.sampled_from([0, 0, 1, 2, 3])
    field = data.draw(st.sampled_from([QQ, GF(5)]))
    R = PolynomialRing(field, ("x", "y", "z"))
    p = _from_items(R, data.draw(st.lists(st.tuples(st.tuples(powers, powers, powers), coeffs), max_size=6)))
    rename = dict(zip(R.names, data.draw(st.lists(st.sampled_from("abxyz"), min_size=3, max_size=3))))
    names = set(rename.values()) | data.draw(st.sets(st.sampled_from("abcxyz")))
    names -= data.draw(st.sets(st.sampled_from(sorted(names)), max_size=1))
    target = PolynomialRing(field, tuple(data.draw(st.permutations(sorted(names)))))
    try:
        want = accumulating_map_ring(p, target, rename)
    except RingMismatch:
        with pytest.raises(RingMismatch):
            p.map_ring(target, rename)
        return
    landed = [rename[v] for v in p.variables()]
    if len(set(landed)) < len(landed):
        with pytest.raises(RingMismatch, match="both map to"):
            p.map_ring(target, rename)
        return
    got = p.map_ring(target, rename)
    assert got == want
    assert list(got.terms().items()) == list(want.terms().items())


def _moved(move, p, target, rename):
    try:
        q = move(p, target, rename)
    except RingMismatch as err:
        return "RingMismatch", str(err)
    return q.ring, list(q.terms().items())


@pytest.mark.parametrize("case", ["identity", "padding", "renames", "dropped", "absent", "merged"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_map_ring_moves_as_the_slot_loop(case, data):
    """The same ring, terms and term order, or the same RingMismatch message,
    as rebuilding the slot map from the names and the terms on every call;
    with the slot plans dropped first and then kept."""
    import flatspan.poly
    from oracles import slot_loop_map_ring

    field = data.draw(st.sampled_from([QQ, GF(5)]))
    low = 2 if case in ("dropped", "merged") else 1
    names = tuple(data.draw(st.permutations("xyzw")))[: data.draw(st.integers(low, 4))]
    R = PolynomialRing(field, names)
    # the variables p uses: all but at least one when some must be dropped
    high = len(names) - 1 if case == "dropped" else len(names)
    pair = 2 if case == "merged" else 1
    used = data.draw(st.lists(st.sampled_from(names), min_size=pair, max_size=high, unique=True))
    power = st.integers(0, 3)
    shape = st.tuples(*(power if v in used else st.just(0) for v in names))
    p = _from_items(R, data.draw(st.lists(st.tuples(shape, coeffs), max_size=5)))
    # one term of degree 4 in every used variable, so p uses exactly those
    p = p + Polynomial(R, {tuple(4 if v in used else 0 for v in names): field.one})
    extra = data.draw(st.lists(st.sampled_from("abc"), unique=True, max_size=2))
    rename = None
    landed = list(names)
    if case == "identity":
        rename = data.draw(st.sampled_from([None, {}, {v: v for v in names}]))
        extra = []
    elif case == "padding":
        extra = extra or ["a"]
    elif case == "renames":
        # not always one to one: unused names may share a slot with any name
        images = data.draw(st.lists(st.sampled_from("abxyzw"), min_size=len(names), max_size=len(names)))
        rename = dict(zip(names, images))
        landed = images
    elif case == "dropped":
        unused = [v for v in names if v not in used]
        gone = data.draw(st.lists(st.sampled_from(unused), min_size=1, unique=True))
        landed = [v for v in names if v not in gone]
    elif case == "absent":
        gone = data.draw(st.sampled_from(used))
        landed = [v for v in names if v != gone]
    else:  # two used names on one slot
        a, b = data.draw(st.lists(st.sampled_from(used), min_size=2, max_size=2, unique=True))
        rename = {a: b}
        landed = [v for v in names if v != a]
    target = PolynomialRing(field, tuple(data.draw(st.permutations(sorted(set(landed) | set(extra))))))
    want = _moved(slot_loop_map_ring, p, target, rename)
    if case in ("absent", "merged"):
        assert want[0] == "RingMismatch"
    flatspan.poly._slot_plan.cache_clear()
    assert _moved(Polynomial.map_ring, p, target, rename) == want
    assert _moved(Polynomial.map_ring, p, target, rename) == want


def test_map_ring_refuses_to_merge_used_variables():
    R, S = ring_qq("x", "y"), ring_qq("z")
    with pytest.raises(RingMismatch, match="both map to 'z'"):
        (R.var("x") * R.var("y")).map_ring(S, {"x": "z", "y": "z"})
    assert R.var("y").map_ring(S, {"x": "z", "y": "z"}) == S.var("z")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalize_idempotent_and_hash_stable(data):
    R = PolynomialRing(QQ, ("x", "y"))
    p = data.draw(polys(R))
    rebuilt = Polynomial(R, p.terms())
    assert rebuilt == p
    assert hash(p) == hash(rebuilt)


def _substitute_by_fold(p, images, target):
    """``substitute`` as a running sum, ``total = total + term`` per term."""
    total = target.zero()
    for exp, c in p.terms().items():
        term = target.const(1).scale(c)
        for name, k in zip(p.ring.names, exp):
            if k:
                term = term * (images[name] if name in images else target.var(name)) ** k
        total = total + term
    return total


def _substituted(substitute, p, images, target):
    try:
        q = substitute(p, images, target)
    except (RingMismatch, ExponentOverflow) as err:
        return type(err).__name__, str(err)
    return list(q.terms().items())


# exponents of a monomial image: small, or large enough that a power or a
# product of powers passes MAX_EXPONENT
image_exps = st.sampled_from([0, 1, 2, 3, 2**30, MAX_EXPONENT])


def _image(data, S, kind):
    """An image of ``kind`` over ``S``; ``foreign`` lives in a ring with
    other names or another field."""
    exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    nonzero = coeffs.filter(lambda c: c % 5)
    if kind == "polynomial":
        return _from_items(S, data.draw(st.lists(st.tuples(exps3, coeffs), max_size=3)))
    if kind == "monomial":
        exp = data.draw(st.tuples(image_exps, image_exps, image_exps))
        return Polynomial(S, {exp: S.field.one}).scale(data.draw(nonzero))
    if kind == "constant":
        return S.const(data.draw(nonzero))
    if kind == "zero":
        return S.zero()
    other = data.draw(
        st.sampled_from(
            [PolynomialRing(S.field, ("u", "y", "w")), PolynomialRing(GF(7), S.names)]
        )
    )
    return data.draw(st.sampled_from([other.var(other.names[0]), other.one(), other.zero()]))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_substitute_matches_the_running_sum(data):
    """Same terms in the same order, or the same error type and message, as
    the fold; images are polynomials, monomials (with powers and products
    past the cap), constants, zero, or polynomials of another ring."""
    exps3 = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    kinds = st.sampled_from(["polynomial", "monomial", "constant", "zero", "foreign"])
    for field in (QQ, GF(5)):
        R = PolynomialRing(field, ("x", "y", "z"))
        S = PolynomialRing(field, ("u", "y", "z"))
        p = _from_items(R, data.draw(st.lists(st.tuples(exps3, coeffs), max_size=6)))
        mapped = data.draw(st.lists(st.sampled_from(R.names), unique=True))
        images = {v: _image(data, S, data.draw(kinds)) for v in mapped}
        images.setdefault("x", S.var("u"))  # S has no x
        got = _substituted(Polynomial.substitute, p, images, S)
        assert got == _substituted(_substitute_by_fold, p, images, S)


def _powered(power, p, k):
    try:
        q = power(p, k)
    except InputError as err:
        return type(err).__name__, str(err)
    return [(e, type(c), c) for e, c in q.terms().items()]


# exponents at and around the cap boundary, where a power of a monomial
# stays under MAX_EXPONENT or passes it
cap_exps = st.sampled_from([0, 1, 2, 3, 2**30 - 1, 2**30, 2**30 + 1, MAX_EXPONENT])
cap_powers = st.sampled_from([2**30 - 1, 2**30, MAX_EXPONENT, 2**31])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_power_matches_the_whole_polynomial_loop(data):
    """``p ** k`` has the terms, term order, coefficient types and errors of
    square-and-multiply on whole polynomials: monomials with exponents at
    the cap boundary, constants (0 and ±1 included), several terms, over QQ
    (fractions included) and GF(p).  A QQ coefficient other than 0 or ±1
    is raised only to small powers."""
    field = data.draw(st.sampled_from([QQ, GF(5), GF(MAX_EXPONENT)]))
    R = PolynomialRing(field, ("x", "y", "z"))
    units = st.sampled_from([0, 1, -1])
    fractions = st.tuples(st.integers(-5, 5), st.integers(1, 4))
    kind = data.draw(st.sampled_from(["monomial", "constant", "polynomial"]))
    if kind == "polynomial":
        items = st.tuples(st.tuples(cap_exps, cap_exps, cap_exps), fractions)
        terms = data.draw(st.lists(items, min_size=2, max_size=4))
        p = _from_items(R, [(e, field.from_fraction(*c)) for e, c in terms])
        k = data.draw(st.integers(-1, 4))
    else:
        cap = cap_exps if kind == "monomial" else st.just(0)
        exp = data.draw(st.tuples(cap, cap, cap))
        unit = data.draw(st.booleans())
        c = data.draw(units) if unit else field.from_fraction(*data.draw(fractions))
        p = Polynomial(R, {exp: field.add(field.zero, c)})
        small = st.integers(-1, 6)
        big = st.one_of(small, st.integers(0, 64), cap_powers)
        k = data.draw(big if unit or field is not QQ else small)
    assert _powered(Polynomial.__pow__, p, k) == _powered(looping_power, p, k)
