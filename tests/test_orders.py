import random

import pytest

from sagbikit.minors import MatrixRing, minor_polynomial
from sagbikit.orders import (TieError, degrevlex_order, leading_term, lex_order,
                             weight_order, weight_selects)
from sagbikit.rings import Polynomial, RingContext


def test_lex_ignores_lower_variables():
    o = lex_order(2)
    assert o.key((1, 0)) > o.key((0, 5))


def test_reflexivity():
    for o in (lex_order(3), degrevlex_order(3),
              weight_order((1, 2, 3), lex_order(3))):
        assert o.key((2, 1, 0)) == o.key((2, 1, 0))


def test_weight_tiebreak_lex():
    o = weight_order((1, 1), lex_order(2))
    assert o.key((2, 0)) > o.key((1, 1))


def test_weight_order_rejects_negative_entries():
    with pytest.raises(ValueError):
        weight_order((1, -1), lex_order(2))


def test_length_mismatch():
    with pytest.raises(ValueError):
        weight_order((1, 1, 1), lex_order(2))
    R = RingContext(["x", "y"])
    with pytest.raises(ValueError):
        weight_selects(Polynomial(R, {(1, 0): 1}), (1, 0, 0))


def _random_orders(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    w = [rng.randint(0, 9) for _ in range(n)]
    return [lex_order(n, perm), degrevlex_order(n, perm),
            weight_order(w, lex_order(n, perm))]


def test_multiplicativity_ten_thousand_triples_per_kind():
    rng = random.Random(7)
    for kind in range(3):
        checks = 0
        while checks < 10_000:
            n = rng.randint(2, 6)
            order = _random_orders(rng, n)[kind]
            a = tuple(rng.randint(0, 8) for _ in range(n))
            b = tuple(rng.randint(0, 8) for _ in range(n))
            c = tuple(rng.randint(0, 8) for _ in range(n))
            ka, kb = order.key(a), order.key(b)
            if ka == kb:
                continue
            sa = order.key(tuple(x + z for x, z in zip(a, c)))
            sb = order.key(tuple(y + z for y, z in zip(b, c)))
            assert (sa > sb) - (sa < sb) == (ka > kb) - (ka < kb)
            checks += 1


def test_zero_exponent_is_minimal():
    rng = random.Random(8)
    for _ in range(500):
        n = rng.randint(1, 6)
        zero = (0,) * n
        e = tuple(rng.randint(0, 5) for _ in range(n))
        if not any(e):
            continue
        for order in _random_orders(rng, n):
            assert order.key(e) > order.key(zero)


def test_leading_term_examples():
    R = RingContext(["x", "y"])
    f = Polynomial(R, {(1, 0): 1, (0, 1): 1})
    assert leading_term(lex_order(2), f) == ((1, 0), 1)
    g = Polynomial(R, {(2, 1): 3})
    for o in (lex_order(2), degrevlex_order(2)):
        assert leading_term(o, g) == ((2, 1), 3)
    with pytest.raises(ValueError):
        leading_term(lex_order(2), Polynomial.zero(R))


def test_two_by_two_determinant_leads_with_diagonal():
    from sagbikit.minors import diagonal_order
    M = MatrixRing(2, 2)
    det = minor_polynomial(M, (0, 1), (0, 1))
    e, c = leading_term(diagonal_order(M), det)
    assert e == (1, 0, 0, 1) and c == 1


def test_leading_term_multiplicative_over_field():
    rng = random.Random(9)
    R = RingContext(["x", "y", "z"])
    for _ in range(300):
        o = _random_orders(rng, 3)[rng.randrange(3)]
        f = Polynomial(R, {tuple(rng.randint(0, 4) for _ in range(3)):
                           rng.randint(1, 5) for _ in range(rng.randint(1, 4))})
        g = Polynomial(R, {tuple(rng.randint(0, 4) for _ in range(3)):
                           rng.randint(1, 5) for _ in range(rng.randint(1, 4))})
        if f.is_zero() or g.is_zero():
            continue
        ef = leading_term(o, f)[0]
        eg = leading_term(o, g)[0]
        efg = leading_term(o, f * g)[0]
        assert efg == tuple(a + b for a, b in zip(ef, eg))


def test_weight_selects_examples():
    R = RingContext(["x", "y"])
    f = Polynomial(R, {(1, 0): 1, (0, 1): 1})
    assert weight_selects(f, (2, 1)) == (1, 0)
    with pytest.raises(TieError) as err:
        weight_selects(f, (1, 1))
    assert set(err.value.tied) == {(1, 0), (0, 1)}


def test_weight_selects_table_3x4_entry():
    # the 2-minor on rows {1,2}, columns {1,2} under the first full-support
    # weight matrix: the anti-diagonal term wins (0 + 3 beats 1 + 0)
    M = MatrixRing(3, 4)
    w1 = [1, 0, 2, 3,
          3, 0, 3, 2,
          0, 2, 2, 0]
    f = minor_polynomial(M, (0, 1), (0, 1))
    sel = weight_selects(f, w1)
    anti = [0] * 12
    anti[M.cell(0, 1)] = 1
    anti[M.cell(1, 0)] = 1
    assert sel == tuple(anti)


def test_weight_selects_agrees_with_weight_order():
    rng = random.Random(10)
    R = RingContext(["a", "b", "c", "d"])
    for _ in range(300):
        w = tuple(rng.randint(0, 7) for _ in range(4))
        order = weight_order(w, lex_order(4))
        f = Polynomial(R, {tuple(rng.randint(0, 3) for _ in range(4)): 1
                           for _ in range(rng.randint(1, 5))})
        if f.is_zero():
            continue
        try:
            sel = weight_selects(f, w)
        except TieError:
            continue
        assert sel == leading_term(order, f)[0]


@pytest.mark.parametrize("kind", range(3))
def test_linear_key_orders_like_key(kind):
    rng = random.Random(11 + kind)
    for _ in range(200):
        n = rng.randint(1, 5)
        order = _random_orders(rng, n)[kind]
        if kind == 2 and rng.random() < 0.5:
            # a nested weight order, with zero weights in the outer vector
            w = [rng.choice([0, 0, 1, 3]) for _ in range(n)]
            order = weight_order(w, order)
        bound = rng.randint(1, 6)
        c = order.linear_key(bound)
        for _ in range(20):
            a = tuple(rng.choice([0, bound, rng.randint(0, bound)]) for _ in range(n))
            b = tuple(rng.choice([0, bound, rng.randint(0, bound)]) for _ in range(n))
            la = sum(x * y for x, y in zip(c, a))
            lb = sum(x * y for x, y in zip(c, b))
            ka, kb = order.key(a), order.key(b)
            assert (la > lb) - (la < lb) == (ka > kb) - (ka < kb)
            assert ka == tuple(sum(x * y for x, y in zip(r, a)) for r in order.rows())
