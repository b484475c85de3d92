"""The warm-started strict system against the cold simplex and the
Caratheodory search for zero in the convex hull, and its two column rules
(opposite columns refuse a system, repeated ones are dropped) against
the same oracles and against the witnesses solved without them."""
import random

from oracles import _solve_convex_zero, strict_feasible_cold
from sagbikit.lp import StrictSystem, strict_feasible


def _random_diffs(rng, nvars, count):
    return [tuple(rng.randint(-2, 2) for _ in range(nvars)) for _ in range(count)]


def _checked_verdict(system, cols, nvars):
    """The system's witness, checked against both oracles and every column;
    the one-shot solve must repeat the cold solve exactly."""
    w = system.solve()
    cold = strict_feasible_cold(cols, nvars)
    assert (w is None) == (cold is None) == _solve_convex_zero(cols)
    if w is not None:
        assert all(sum(a * b for a, b in zip(w, d)) >= 1 for d in cols)
    assert strict_feasible(cols, nvars) == cold
    return w


def test_grown_system_agrees_with_cold_and_hull_oracles():
    rng = random.Random(31)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        nvars = rng.randint(2, 4)
        system = StrictSystem(nvars)
        cols = []
        infeasible = False
        chunks = rng.randint(1, 4)
        for c in range(chunks):
            chunk = _random_diffs(rng, nvars, rng.randint(1, 3))
            system = system.extended(chunk)
            cols += chunk
            # some parents stay unsolved, so a later solve walks a chain
            if c == chunks - 1 or rng.random() < 0.7:
                w = _checked_verdict(system, cols, nvars)
                assert not (infeasible and w is not None)
                infeasible = w is None
                verdicts[infeasible] += 1
        # two children of one parent: solving one must not touch the
        # parent's tableau that the other grows from
        before = system.solve()
        chunk_a = _random_diffs(rng, nvars, rng.randint(1, 3))
        chunk_b = _random_diffs(rng, nvars, rng.randint(1, 3))
        a, b = system.extended(chunk_a), system.extended(chunk_b)
        _checked_verdict(a, cols + chunk_a, nvars)
        _checked_verdict(b, cols + chunk_b, nvars)
        assert system.solve() == before
    assert min(verdicts.values()) > 30


def test_child_without_pivot_shares_its_parents_rows():
    # a repeated column is dropped, so the child has no column of its own,
    # makes no pivot and keeps the parent's basis inverse and witness
    rng = random.Random(7)
    shared = 0
    for _ in range(60):
        nvars = rng.randint(2, 4)
        cols = _random_diffs(rng, nvars, rng.randint(2, 5))
        system = StrictSystem(nvars, cols)
        w = system.solve()
        if w is None:
            continue
        child = system.extended([rng.choice(cols)])
        assert child.solve() == w
        parent_tableau, child_tableau = system._optimal(), child._optimal()
        assert child_tableau.rows is parent_tableau.rows
        assert child_tableau.basis is parent_tableau.basis
        shared += 1
    assert shared > 20


def _zero_rule_only(system):
    # the rules before the column index: only a zero column refused a
    # system, and every column went into the tableau
    return all(map(any, system._new))


def test_opposite_and_repeated_columns_keep_verdicts_and_witnesses(monkeypatch):
    rng = random.Random(53)
    refused = repeated = feasible = 0
    for _ in range(120):
        nvars = rng.randint(2, 4)
        chunks, cols = [], []
        for _ in range(rng.randint(2, 4)):
            chunk = _random_diffs(rng, nvars, rng.randint(1, 3))
            if cols and rng.random() < 0.5:
                chunk.insert(rng.randrange(len(chunk) + 1), rng.choice(cols))
            pool = cols + chunk
            if rng.random() < 0.15:
                chunk.append(tuple(-a for a in rng.choice(pool)))
            chunks.append(chunk)
            cols += chunk
        with monkeypatch.context() as patched:
            patched.setattr(StrictSystem, "_sifted", _zero_rule_only)
            old, witnesses = StrictSystem(nvars), []
            for chunk in chunks:
                old = old.extended(chunk)
                witnesses.append(old.solve())
        system, seen = StrictSystem(nvars), []
        for chunk, before in zip(chunks, witnesses):
            system = system.extended(chunk)
            repeated += any(c in seen for c in chunk)
            seen += chunk
            w = _checked_verdict(system, seen, nvars)
            assert w == before
            feasible += w is not None
            refused += any(tuple(-a for a in c) in seen for c in seen)
    assert min(refused, repeated, feasible) > 30


def test_opposite_columns_refuse_without_a_tableau():
    d = (1, -2, 0)
    system = StrictSystem(3, [d, (-1, 2, 0)])
    assert system.solve() is None
    assert not hasattr(system, "rows")
    # a child's opposite pair with its parent leaves the parent unsolved
    parent = StrictSystem(3, [d, (0, 1, 1)])
    child = parent.extended([(2, 2, 2), (-1, 2, 0)])
    assert child.solve() is None and child.extended([(1, 1, 1)]).solve() is None
    assert not parent._solved
    assert parent.solve() is not None
