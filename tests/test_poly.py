import ast
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest

import kohnert.poly
from kohnert import (
    SPOT_COMPOSITIONS,
    SparsePolynomial,
    SweepRange,
    classify_symmetry,
    enumerate_tableaux,
    is_monomial_positive,
    is_quasisymmetric,
    is_symmetric,
    key_diagram,
    key_polynomial,
    lock_diagram,
    lock_polynomial,
    padded_weight,
    polynomial,
    render_text,
    schur_polynomial,
    subtract,
)

import reference


def poly(n, *terms):
    return SparsePolynomial.from_dict(n, {exp: coef for exp, coef in terms})


KEY_1021 = poly(
    4,
    ((2, 1, 1, 0), 1),
    ((1, 2, 1, 0), 1),
    ((1, 1, 2, 0), 1),
    ((2, 1, 0, 1), 1),
    ((1, 2, 0, 1), 1),
    ((2, 0, 1, 1), 1),
    ((1, 1, 1, 1), 1),
    ((1, 0, 2, 1), 1),
)

LOCK_023 = poly(
    3,
    ((0, 2, 3), 1),
    ((1, 1, 3), 1),
    ((2, 0, 3), 1),
    ((1, 2, 2), 1),
    ((2, 1, 2), 1),
    ((2, 2, 1), 1),
    ((2, 3, 0), 1),
)


def test_key_polynomial_1021():
    assert key_polynomial((1, 0, 2, 1)) == KEY_1021


def test_key_polynomial_trivial_and_02():
    assert key_polynomial((0, 0)) == SparsePolynomial.one(2)
    assert key_polynomial((0, 2)) == poly(2, ((2, 0), 1), ((1, 1), 1), ((0, 2), 1))


def test_lock_polynomial_023():
    assert lock_polynomial((0, 2, 3)) == LOCK_023


def test_lock_polynomial_trivial():
    assert lock_polynomial((0, 0)) == SparsePolynomial.one(2)


def test_lock_equals_key_for_decreasing_nonzero_parts():
    for a in [(3, 1), (2, 2), (3, 0, 2, 1), (1, 1, 1)]:
        assert lock_polynomial(a) == key_polynomial(a)


def test_is_symmetric():
    assert is_symmetric(key_polynomial((0, 2)))
    assert not is_symmetric(key_polynomial((2, 0)))
    assert is_symmetric(SparsePolynomial.one(3))
    assert is_symmetric(SparsePolynomial.zero(3))


def test_is_quasisymmetric():
    assert is_quasisymmetric(lock_polynomial((0, 2, 3)))
    assert not is_quasisymmetric(key_polynomial((2, 0)))
    assert is_quasisymmetric(SparsePolynomial.one(4))
    assert is_quasisymmetric(key_polynomial((2, 1)))
    assert not is_symmetric(key_polynomial((2, 1)))


def test_schur_single_row():
    assert schur_polynomial((2,), 2) == poly(2, ((2, 0), 1), ((1, 1), 1), ((0, 2), 1))


def test_schur_empty_shape():
    assert schur_polynomial((), 3) == SparsePolynomial.one(3)
    assert schur_polynomial((0, 0), 2) == SparsePolynomial.one(2)


def test_schur_two_by_two():
    expected = poly(
        3,
        ((2, 2, 0), 1),
        ((2, 1, 1), 1),
        ((2, 0, 2), 1),
        ((1, 2, 1), 1),
        ((1, 1, 2), 1),
        ((0, 2, 2), 1),
    )
    assert schur_polynomial((2, 2), 3) == expected
    assert lock_polynomial((0, 2, 2)) == expected


def test_schur_hook_has_two_tableaux_of_content_111():
    expected = poly(3, *((exp, 1) for exp in set(itertools.permutations((2, 1, 0)))),
                    ((1, 1, 1), 2))
    assert schur_polynomial((2, 1), 3) == expected


def test_schur_long_row_fills_without_recursion():
    # one filling of 1,000 cells: deeper than the default recursion limit
    assert schur_polynomial((1000,), 1) == poly(1, ((1000,), 1))


def test_schur_rejects_non_partition():
    with pytest.raises(ValueError):
        schur_polynomial((1, 2), 3)
    with pytest.raises(ValueError, match="variable count must be nonnegative"):
        schur_polynomial((1,), -1)


def test_schur_more_rows_than_variables_is_zero():
    assert schur_polynomial((1, 1, 1), 2) == SparsePolynomial.zero(2)


def test_key_of_increasing_content_is_reversed_schur():
    for a in [(0, 2), (1, 2), (0, 1, 2), (1, 1, 3)]:
        assert key_polynomial(a) == schur_polynomial(tuple(reversed(a)), len(a))


def test_subtract_and_monomial_positivity():
    p = key_polynomial((1, 0, 2, 1))
    q = lock_polynomial((1, 0, 2, 1))
    diff = subtract(p, q)
    assert diff == poly(4, ((2, 1, 1, 0), 1), ((2, 1, 0, 1), 1), ((2, 0, 1, 1), 1))
    assert is_monomial_positive(diff)
    assert not is_monomial_positive(subtract(q, p))
    assert subtract(p, p) == SparsePolynomial.zero(4)
    assert is_monomial_positive(SparsePolynomial.zero(4))


def test_subtract_rejects_mismatched_variable_counts():
    with pytest.raises(ValueError):
        subtract(SparsePolynomial.one(2), SparsePolynomial.one(3))


def test_kappa_minus_lock_zero_for_31():
    assert subtract(key_polynomial((3, 1)), lock_polynomial((3, 1))) == SparsePolynomial.zero(2)


def test_classify_symmetry():
    statements = ("key symmetric", "key quasisymmetric", "lock symmetric", "lock quasisymmetric")
    cases = {
        (0, 2, 3): (True, True, False, True),
        (2, 1): (False, True, False, True),
        (0, 2, 2): (True, True, True, True),
        (0, 0): (True, True, True, True),
        (2, 0, 2): (False, False, False, False),
    }
    for a, values in cases.items():
        # the statements in the order the characterizations check reports them
        assert list(classify_symmetry(a).items()) == list(zip(statements, values)), a


def closure_polynomial(a, kind):
    """The weight count over the Kohnert closure of the key or lock diagram
    of ``a``, found by the reference search."""
    seed = lock_diagram if kind == "lock" else key_diagram
    n = len(a)
    rows = (Counter(r for r, _ in cells) for cells in reference.closure(seed(a).cells))
    return SparsePolynomial.from_dict(
        n, Counter(tuple(count[r] for r in range(1, n + 1)) for count in rows)
    )


@pytest.mark.parametrize("kind", ["key", "lock"])
def test_coefficients_count_tableaux_by_weight(kind):
    """polynomial(a, kind) is the weight count over the Kohnert closure of
    the key or lock diagram, found by the reference search, and also the
    generating function of the family's tableaux."""
    for a in [*SweepRange(4, 3).compositions(), *SPOT_COMPOSITIONS]:
        n = len(a)
        expected = closure_polynomial(a, kind)
        assert polynomial(a, kind) == expected, a
        tableau_weights = Counter(padded_weight(t.diagram, n) for t in enumerate_tableaux(a, kind))
        assert SparsePolynomial.from_dict(n, tableau_weights) == expected, a


def test_demazure_operators_count_key_closures_on_the_benchmark_pool():
    """Kohnert's theorem on the query pool, whose lengths reach 7: the key
    polynomial by Demazure operators is the key closure's weight count."""
    pool = Path(__file__).resolve().parent.parent / "bench" / "pool.txt"
    comps = [tuple(map(int, line.split()[0].split(","))) for line in pool.read_text().splitlines()]
    assert max(map(len, comps)) == 7
    for a in comps:
        assert polynomial(a, "key") == closure_polynomial(a, "key"), a


def test_each_demazure_step_refuses_before_it_expands(monkeypatch):
    """A limit just under any step's coefficient sum stops the operators
    there: no expanded polynomial ever exceeds the limit."""
    a = (0, 1, 0, 2, 1)
    steps = []
    pi = kohnert.poly._pi

    def recorded(terms, i):
        steps.append(pi(terms, i))
        return steps[-1]

    monkeypatch.setattr(kohnert.poly, "_pi", recorded)
    polynomial.cache_clear()
    polynomial(a, "key")
    sums = [sum(step.values()) for step in steps]
    assert sums[-1] == len(reference.closure(key_diagram(a).cells)) == 31
    assert sums == sorted(sums) and len(set(sums)) == len(sums)
    for k, total in enumerate(sums):
        steps.clear()
        polynomial.cache_clear()
        for module in (kohnert.core, kohnert.poly):
            monkeypatch.setattr(module, "MAX_CLOSURE", total - 1)
        with pytest.raises(
            ValueError,
            match=rf"weight \(0, 1, 0, 2, 1\) exceeds the limit of {total - 1} diagrams",
        ):
            polynomial(a, "key")
        assert [sum(step.values()) for step in steps] == sums[:k]
    polynomial.cache_clear()


def test_render_text():
    assert render_text(SparsePolynomial.zero(2)) == "0"
    assert render_text(SparsePolynomial.one(2)) == "1"
    assert render_text(poly(2, ((2, 0), 1), ((1, 1), -2))) == "-2*x1*x2 + x1^2"
    assert render_text(poly(2, ((2, 0), 1), ((1, 1), 1))) == "x1*x2 + x1^2"


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        SparsePolynomial(2, (((1,), 1),))
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((1,), 0),))
    with pytest.raises(ValueError):
        SparsePolynomial(1, (((2,), 1), ((1,), 1)))
    with pytest.raises(ValueError, match=re.escape("negative exponent in (1, -1)")):
        SparsePolynomial(2, (((1, -1), 1),))


UNSORTED = "terms must be sorted with distinct exponents"


@pytest.mark.parametrize(
    "n, terms, message",
    [
        (2, (((0, 1), 1), ((1,), 1)), "exponent (1,) has length != 2"),
        (2, (((0, 1), 1), ((1, 0, 0), 1)), "exponent (1, 0, 0) has length != 2"),
        (2, (((0, 1), 1), ((1, -1), 1)), "negative exponent in (1, -1)"),
        (2, (((0, 1), 1), ((1, 0), 0)), "zero coefficient stored"),
        (2, (((0, 1), 1), ((1, 0), 2), ((1, 0), 3)), UNSORTED),
        (2, (((0, 1), 1), ((1, 1), 2), ((1, 0), 3)), UNSORTED),
        # the tests run in this order, each naming the first term it refuses
        (2, (((0, 1), 1), ((0, -1), 0), ((1,), 1)), "exponent (1,) has length != 2"),
        (2, (((0, 1), 1), ((1, -1), 1), ((0, -2), 1)), "negative exponent in (1, -1)"),
        (2, (((1, 0), 1), ((0, 1), 0)), "zero coefficient stored"),
    ],
)
def test_polynomial_refuses_a_fault_past_the_first_term(n, terms, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SparsePolynomial(n, terms)


def test_polynomial_in_no_variables():
    assert SparsePolynomial(0, (((), 1),)).terms == (((), 1),)
    assert SparsePolynomial(0, ()).terms == ()
    assert SparsePolynomial(3).terms == ()
    with pytest.raises(ValueError, match=UNSORTED):
        SparsePolynomial(0, (((), 1), ((), 2)))


def test_json_shape():
    data = LOCK_023.to_json()
    assert data["n"] == 3
    assert data["terms"][0] == {"exp": [0, 2, 3], "coef": 1}
    assert [t["exp"] for t in data["terms"]] == sorted(t["exp"] for t in data["terms"])


def test_poly_imports_from_no_kohnert_module_but_core():
    """Polynomials are counted on diagrams, so the poly path cannot reach a
    labeling: ``poly`` imports nothing from ``tableaux`` or later modules."""
    tree = ast.parse(Path(kohnert.poly.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    ours = {name for name in imported if name.startswith(".") or name.startswith("kohnert")}
    assert ours == {".core"}
