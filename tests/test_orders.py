from hypothesis import given, settings, strategies as st

from flatspan.groebner import _packing
from flatspan.orders import Block, GrevLex, Lex, exp_divides
from flatspan.poly import MAX_EXPONENT
from oracles import exp_add, exp_coprime, exp_lcm


def _orders(n):
    return [Lex(n), GrevLex(n)] + [Block(n, s) for s in range(1, n)]


def _grevlex_tuple(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _reference(order, e):
    """The order written as a tuple that Python compares lexicographically."""
    if isinstance(order, Lex):
        return tuple(e)
    if isinstance(order, GrevLex):
        return _grevlex_tuple(e)
    return _grevlex_tuple(e[: order.split]) + _grevlex_tuple(e[order.split :])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_linear_key_orders_like_tuples_and_packs_additively(data, n):
    exps = st.tuples(*[st.sampled_from([0, 1, 2, 2**20, MAX_EXPONENT])] * n)
    sample = data.draw(st.lists(exps, min_size=2, max_size=10))
    for order in _orders(n):
        packing = _packing(order)
        for a in sample:
            pa = packing.pack(a)
            assert packing.unpack(pa) == a
            for b in sample:
                pb = packing.pack(b)
                assert (order.key(a) < order.key(b)) == (_reference(order, a) < _reference(order, b))
                assert (order.key(a) == order.key(b)) == (a == b)
                assert (pa < pb) == (order.key(a) < order.key(b))
                assert pa + pb == packing.pack(exp_add(a, b))
                assert (not (pb - pa) & packing.guard) == exp_divides(a, b)
                assert packing.lcm(pa, pb) == packing.pack(exp_lcm(a, b))
                assert packing.coprime(pa, pb) == exp_coprime(a, b)
    for a in sample:
        for b in sample:
            assert exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            assert exp_coprime(a, b) == all(x == 0 or y == 0 for x, y in zip(a, b))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_the_lcm_of_coprime_monomials_is_their_packed_sum(data, n):
    """The Groebner kernel takes ``a + b`` for the lcm of coprime leads when
    it pushes their pair; that is the packed lcm under every order."""
    exps = st.lists(st.sampled_from([0, 1, 2, 2**20, MAX_EXPONENT]), min_size=n, max_size=n)
    a, b = data.draw(exps), data.draw(exps)
    # each variable in at most one of them
    owner = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = tuple(x if mine else 0 for x, mine in zip(a, owner))
    b = tuple(0 if mine else y for y, mine in zip(b, owner))
    for order in _orders(n):
        packing = _packing(order)
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.coprime(pa, pb)
        assert packing.lcm(pa, pb) == pa + pb
