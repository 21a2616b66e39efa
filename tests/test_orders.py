from hypothesis import given, settings, strategies as st

from flatspan.orders import Block, GrevLex, Lex, exp_coprime, exp_lcm


def _orders(n):
    return [Lex(n), GrevLex(n)] + [Block(n, s) for s in range(1, n)]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_heap_key_reverses_key_and_both_are_injective(data, n):
    exps = st.tuples(*[st.integers(0, 4)] * n)
    sample = data.draw(st.lists(exps, min_size=2, max_size=12))
    for order in _orders(n):
        for a in sample:
            for b in sample:
                assert (order.key(a) < order.key(b)) == (order.heap_key(a) > order.heap_key(b))
                assert (order.key(a) == order.key(b)) == (a == b)
                assert (order.heap_key(a) == order.heap_key(b)) == (a == b)
    for a in sample:
        for b in sample:
            assert exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            assert exp_coprime(a, b) == all(x == 0 or y == 0 for x, y in zip(a, b))
