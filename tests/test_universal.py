import random

import pytest

from constructions import GroupElement, act
from oracles import find_selection, transport_bracket_tuple_brute
from sagbikit.cases import CASES
from sagbikit.cli import main
from sagbikit.hilbert import expand_series, semigroup_hilbert
from sagbikit.matchings import (diagonal_matching, make_matching, matching_from_weight,
                                restrict_matching)
from sagbikit.minors import MatrixRing, bracket, minors
from sagbikit import universal
from sagbikit.universal import (G36_TYPES, CaseReport, VerificationError, bracket_pair,
                                column_restrictions, drop_cells,
                                g36_reference, random_coherent_matching,
                                structured_family, transport_bracket_tuple,
                                verify_a233, verify_g36, verify_g37_sampled)


def test_g36_reference_values():
    assert g36_reference() == [1, 20, 175, 980, 4116, 14112]


def test_structured_family_type1_supports():
    M = MatrixRing(3, 6)
    fam = structured_family(M, G36_TYPES[0]["zeros"])
    sizes = sorted(len(f) for f in fam)
    assert sizes == [1] * 10 + [2] * 9 + [6]


def test_type1_g_reduces_to_paper_g0():
    # dropping the six forgotten variables leaves the recorded two terms
    M = MatrixRing(3, 6)
    g = bracket_pair(M, G36_TYPES[0]["g"])
    g0 = drop_cells(g, M, G36_TYPES[0]["zeros"])
    def cells_exp(cells):
        e = [0] * 18
        for i, j in cells:
            e[M.cell(i, j)] += 1
        return tuple(e)
    plus = cells_exp([(0, 0), (1, 1), (2, 2), (0, 4), (1, 5), (2, 3)])
    minus = cells_exp([(0, 0), (1, 1), (2, 2), (0, 5), (1, 3), (2, 4)])
    assert set(g0.terms) == {plus, minus}
    assert g0.terms[plus] == -g0.terms[minus]


def test_transport_bracket_tuple_identity():
    spec_t = G36_TYPES[0]
    mapped = transport_bracket_tuple(spec_t["bad"], spec_t["bad"], spec_t["g"],
                                     list(range(6)))
    assert mapped is not None
    M = MatrixRing(3, 6)
    a = bracket_pair(M, mapped)
    b = bracket_pair(M, spec_t["g"])
    assert a == b or a == -b


def test_verify_a233_passes():
    report = verify_a233()
    assert report.meta == {"vertices": 102, "orbits": 5}


def test_verify_g37_small_sample():
    report = verify_g37_sampled(10, seed=4242)
    assert sum(report.meta["defect_histogram"].values()) == 10


def test_column_restrictions_agree_with_restrict_matching():
    # the packed pairwise sums give what restricting each sample and
    # counting its semigroup gives, with the exponent sum kept in 3x7
    # coordinates (column i zero, the other columns in order)
    M7, M6 = MatrixRing(3, 7), MatrixRing(3, 6)
    minors7 = minors(3, M7)
    fam7 = [mi.polynomial for mi in minors7]
    rng = random.Random(37)
    for _ in range(50):
        T = random_coherent_matching(fam7, rng)
        count, per_column = column_restrictions(T.selection, minors7, 7)
        assert count == semigroup_hilbert(T.selection, 2, M7.ring).values[2]
        for i, (sub_count, esum) in enumerate(per_column):
            cols = [c for c in range(7) if c != i]
            _, sub = restrict_matching(T, minors7, M7, cols)
            assert sub_count == semigroup_hilbert(sub.selection, 2, M6.ring).values[2]
            assert all(esum[M7.cell(r, i)] == 0 for r in range(3))
            assert tuple(esum[M7.cell(r, c)] for r in range(3) for c in cols) \
                == sub.exponent_sum


def test_prop_87_worked_example():
    # the type-1 matching with fifteens on the diagonal: removing the first
    # column leaves the recorded all-even matrix, which transports to
    # [4,6,2][5,3,7]-[4,6,5][2,3,7]
    M7 = MatrixRing(3, 7)
    minors7 = minors(3, M7)
    fam7 = [mi.polynomial for mi in minors7]
    target = (15, 0, 0, 10, 2, 6, 2,
              0, 15, 0, 4, 9, 4, 3,
              0, 0, 15, 1, 4, 5, 10)
    selection = find_selection(fam7, target)
    m = make_matching(fam7, selection)
    assert m.exponent_sum == target
    from sagbikit.matchings import is_coherent
    assert is_coherent(fam7, selection) is not None
    even_cols = []
    for i in range(7):
        cols = [c for c in range(7) if c != i]
        _, sub = restrict_matching(m, minors7, M7, cols)
        if all(v % 2 == 0 for v in sub.exponent_sum):
            even_cols.append((i, sub, cols))
    # exact arithmetic: this matching has degree-2 defect 2, located by two
    # all-even restrictions (the write-up of the worked example mentions
    # only the first; the located count still equals the defect)
    assert [i for i, _, _ in even_cols] == [0, 3]
    h = 490 - semigroup_hilbert(m.selection, 2, M7.ring).values[2]
    assert h == len(even_cols) == 2
    _, sub, cols = even_cols[0]
    M6 = MatrixRing(3, 6)
    D1 = M6.to_matrix(sub.exponent_sum)
    # the recorded restriction: all-even, still of type 1
    assert D1 == ((0, 0, 10, 2, 6, 2), (10, 0, 0, 6, 2, 2), (0, 10, 0, 2, 2, 6))
    u10 = sum(1 for row in D1 for v in row if v == 10)
    spec_t = G36_TYPES[4 - u10 - 1]
    mapped = transport_bracket_tuple(spec_t["bad"], D1, spec_t["g"], cols)
    assert mapped is not None
    # the column substitution of the worked example arises from one of the
    # symmetries carrying the recorded representative onto D1
    from itertools import permutations
    candidates = set()
    for rp in permutations(range(3)):
        for cp in permutations(range(6)):
            if all(spec_t["bad"][i][j] == D1[rp[i]][cp[j]]
                   for i in range(3) for j in range(6)):
                t = tuple(cols[cp[c - 1]] + 1 for c in spec_t["g"])
                g = bracket_pair(M7, t)
                candidates.add(g.key())
                candidates.add((-g).key())
    want = (bracket(M7, (3, 5, 1)) * bracket(M7, (4, 2, 6))
            - bracket(M7, (3, 5, 4)) * bracket(M7, (1, 2, 6)))
    assert want.key() in candidates
    assert bracket_pair(M7, mapped).key() in candidates


def test_transport_bracket_tuple_matches_the_permutation_scan():
    # small entries repeat columns; half the targets permute the recorded
    # matrix, the other half are drawn on their own and mostly not conjugate
    rng = random.Random(23)
    seen = {"conjugate": 0, "not conjugate": 0, "repeated column": 0}
    for trial in range(300):
        top = rng.choice((1, 2, 3))
        bad = tuple(tuple(rng.randint(0, top) for _ in range(6)) for _ in range(3))
        if trial % 2:
            symmetry = GroupElement(tuple(rng.sample(range(3), 3)),
                                    tuple(rng.sample(range(6), 6)))
            target = act(symmetry, bad)
        else:
            target = tuple(tuple(rng.randint(0, top) for _ in range(6)) for _ in range(3))
        g = tuple(rng.sample(range(1, 7), 6))
        cols = rng.sample(range(7), 6)
        got = transport_bracket_tuple(bad, target, g, cols)
        assert got == transport_bracket_tuple_brute(bad, target, g, cols)
        seen["not conjugate" if got is None else "conjugate"] += 1
        seen["repeated column"] += len(set(zip(*bad))) < 6
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("m, n, t", [(2, 4, 2), (3, 3, 2), (3, 4, 2), (3, 6, 3), (4, 5, 3)])
def test_diagonal_matching_selects_every_main_diagonal(m, n, t):
    M = MatrixRing(m, n)
    minor_list = minors(t, M)
    selection = diagonal_matching(M, minor_list).selection
    for mi, e in zip(minor_list, selection, strict=True):
        diagonal = [0] * M.ring.nvars
        for r, c in zip(mi.rows, mi.cols):
            diagonal[M.cell(r, c)] += 1
        assert e == tuple(diagonal)


def test_verify_universal_dispatch(capsys):
    assert {case: getattr(universal, name) for case, name in CASES.items()} == {
        "A233": verify_a233, "G36": verify_g36, "G37_sampled": verify_g37_sampled}
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and all(name in err for name in CASES)


def test_verify_calls_the_case_function_bound_when_it_runs(monkeypatch, capsys):
    # a profiler that wraps a case rebinds its module name; the CLI must
    # reach the wrapper, not the function bound when the module loaded
    calls = []

    def wrapped():
        calls.append("A233")
        return CaseReport(case="A233")
    monkeypatch.setattr(universal, "verify_a233", wrapped)
    assert main(["verify", "--case", "A233"]) == 0
    assert calls == ["A233"]
    assert capsys.readouterr().out.splitlines()[-2:] == ["# case: A233", "PASS"]
