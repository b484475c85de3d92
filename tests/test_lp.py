"""The warm-started strict system against the cold simplex and the
Caratheodory search for zero in the convex hull."""
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
    # a repeated column prices out like its first copy, so the child makes
    # no pivot and keeps the parent's basis inverse and witness
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
