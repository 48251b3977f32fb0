"""Sparse integer polynomials over exponent vectors, and the generating
polynomials of key and lock Kohnert tableaux: key polynomials by Demazure
operators, lock polynomials by Kohnert's rule.

Coefficients are Python ints (arbitrary precision).  The variable count n is
carried explicitly because quasisymmetry depends on it, not just on the
support of the terms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .core import (
    MAX_CLOSURE,
    Composition,
    _closure_too_large,
    cached_on_composition,
    family_closure,
    is_lock,
    padded_weight,
)

ExponentVector = tuple[int, ...]


@dataclass(frozen=True, order=True)
class SparsePolynomial:
    """Map from exponent vectors to nonzero integer coefficients.

    Terms are stored as a tuple sorted lexicographically by exponent, so
    equality, hashing, and serialization are all canonical.
    """

    n: int
    terms: tuple[tuple[ExponentVector, int], ...] = ()

    def __post_init__(self) -> None:
        for exp, coef in self.terms:
            if len(exp) != self.n:
                raise ValueError(f"exponent {exp} has length != {self.n}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if coef == 0:
                raise ValueError("zero coefficient stored")
        exps = [exp for exp, _ in self.terms]
        if sorted(set(exps)) != exps:
            raise ValueError("terms must be sorted with distinct exponents")

    @classmethod
    def from_dict(cls, n: int, mapping: dict[ExponentVector, int]) -> "SparsePolynomial":
        return cls(n, tuple(sorted((e, c) for e, c in mapping.items() if c != 0)))

    @classmethod
    def zero(cls, n: int) -> "SparsePolynomial":
        return cls(n, ())

    @classmethod
    def one(cls, n: int) -> "SparsePolynomial":
        return cls(n, (((0,) * n, 1),))

    def to_json(self) -> dict:
        return {"n": self.n, "terms": [{"exp": list(e), "coef": c} for e, c in self.terms]}

    def __str__(self) -> str:
        return render_text(self)


def _monomial_text(exp: ExponentVector) -> str:
    parts = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e > 0]
    return "*".join(parts) if parts else "1"


def render_text(p: SparsePolynomial) -> str:
    """Human-readable form like ``x1^2*x2 + x1*x2^2``."""
    if not p.terms:
        return "0"
    pieces = []
    for k, (exp, coef) in enumerate(p.terms):
        mono = _monomial_text(exp)
        mag = abs(coef)
        body = mono if mag == 1 and mono != "1" else (str(mag) if mono == "1" else f"{mag}*{mono}")
        if k == 0:
            pieces.append(body if coef > 0 else f"-{body}")
        else:
            pieces.append((" + " if coef > 0 else " - ") + body)
    return "".join(pieces)


def subtract(p: SparsePolynomial, q: SparsePolynomial) -> SparsePolynomial:
    """Termwise difference; zero terms are dropped."""
    if p.n != q.n:
        raise ValueError(f"variable counts differ: {p.n} != {q.n}")
    out = dict(p.terms)
    for exp, coef in q.terms:
        out[exp] = out.get(exp, 0) - coef
    return SparsePolynomial.from_dict(p.n, out)


def is_monomial_positive(p: SparsePolynomial) -> bool:
    """True when every stored coefficient is positive (0 counts as positive)."""
    return all(coef > 0 for _, coef in p.terms)


def _pad(p: SparsePolynomial, a: Composition) -> SparsePolynomial:
    """``p`` in len(a) variables, the new ones with exponent zero."""
    zeros = (0,) * (len(a) - p.n)
    return SparsePolynomial(len(a), tuple((exp + zeros, c) for exp, c in p.terms))


@cached_on_composition(pad=_pad)
def polynomial(a: Composition, kind: str) -> SparsePolynomial:
    """Generating polynomial of the key or lock Kohnert tableaux of content ``a``.

    The key polynomial is the Demazure character ``_demazure(a)``.  The lock
    polynomial is, by Kohnert's rule, the sum of x^wt(D) over the Kohnert
    closure of the lock diagram: each closure diagram carries exactly one
    lock tableau, so the weights are counted without labeling.  Trailing
    zero parts add only zero exponents, so a padded content pads its
    stripped content's exponents.
    """
    n = len(a)
    if not is_lock(kind):
        return SparsePolynomial.from_dict(n, _demazure(a))
    counts = Counter(padded_weight(d, n) for d in family_closure(a, kind))
    return SparsePolynomial.from_dict(n, dict(counts))


def _sorting_word(a: Composition) -> list[int]:
    """The indices i of the adjacent swaps that sort ``a`` into decreasing
    order, in the order they are made: while some a_i < a_(i+1), record i
    and swap the two parts.  Each swap removes one inversion, so the word is
    reduced."""
    b = list(a)
    word = []
    unsorted = True
    while unsorted:
        unsorted = False
        for i in range(1, len(b)):
            if b[i - 1] < b[i]:
                b[i - 1], b[i] = b[i], b[i - 1]
                word.append(i)
                unsorted = True
    return word


def _demazure(a: Composition) -> dict[ExponentVector, int]:
    """The key polynomial of ``a`` as {exponent: coefficient}: the Demazure
    operators pi_i of ``_sorting_word(a)``, last recorded first, applied to
    x^lambda, lambda being ``a`` sorted into decreasing order.

    Every intermediate polynomial is the key polynomial of a partly sorted
    content, whose coefficient sum is its number of Kohnert diagrams, and
    that sum never falls from one step to the next.  So each step's sum is
    computed before the step expands, and once it exceeds MAX_CLOSURE the
    key closure of ``a`` does too: ValueError, with the closure's message.
    """
    terms = {tuple(sorted(a, reverse=True)): 1}
    for i in reversed(_sorting_word(a)):
        if sum(c * (e[i - 1] - e[i] + 1) for e, c in terms.items()) > MAX_CLOSURE:
            raise _closure_too_large(a)
        terms = _pi(terms, i)
    return terms


def _pi(terms: dict[ExponentVector, int], i: int) -> dict[ExponentVector, int]:
    """The Demazure operator pi_i, (x_i f - x_(i+1) s_i f) / (x_i - x_(i+1)).

    On x^b with p = b_i and q = b_(i+1) it gives the sum of
    x_i^k x_(i+1)^(p+q-k) over k = q..p when p >= q, zero when p + 1 = q,
    and minus that sum over k = p+1..q-1 when p + 1 < q: in every case its
    coefficient sum is p - q + 1.
    """
    out: dict[ExponentVector, int] = {}
    get = out.get
    for exp, c in terms.items():
        p, q = exp[i - 1], exp[i]
        if p < q:  # minus the sum over k = p+1..q-1, empty when p + 1 = q
            c = -c
            p, q = q - 1, p + 1
        head, tail, total = exp[: i - 1], exp[i + 1 :], exp[i - 1] + exp[i]
        for k in range(q, p + 1):
            e = head + (k, total - k) + tail
            out[e] = get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def key_polynomial(a: Composition) -> SparsePolynomial:
    return polynomial(a, "key")


def lock_polynomial(a: Composition) -> SparsePolynomial:
    return polynomial(a, "lock")


def is_symmetric(p: SparsePolynomial) -> bool:
    """Invariance under every adjacent transposition of variable indices.
    A transposition of two equal exponents gives the same term back, so
    only the unequal neighbours of each term are swapped."""
    coeffs = dict(p.terms)
    for exp, coef in p.terms:
        for i in range(p.n - 1):
            if exp[i] != exp[i + 1]:
                swapped = exp[:i] + (exp[i + 1], exp[i]) + exp[i + 2:]
                if coeffs.get(swapped, 0) != coef:
                    return False
    return True


def is_quasisymmetric(p: SparsePolynomial) -> bool:
    """Coefficients agree whenever the ordered nonzero exponents agree.

    Terms are grouped by their packed exponent sequence; for a packed
    sequence of length k all C(n, k) increasing variable placements must
    carry the same coefficient, with missing placements counting as zero.
    """
    groups: dict[ExponentVector, list[int]] = {}
    for exp, coef in p.terms:
        packed = tuple(e for e in exp if e > 0)
        groups.setdefault(packed, []).append(coef)
    for packed, coefs in groups.items():
        if len(set(coefs)) > 1:
            return False
        if len(coefs) != comb(p.n, len(packed)):
            return False
    return True


def schur_polynomial(shape: Composition, n: int) -> SparsePolynomial:
    """Sum of x^content over semistandard Young tableaux of ``shape``.

    Rows weakly increase left to right and columns strictly increase top to
    bottom, with entries in 1..n.  This enumerates fillings directly and is
    independent of the Kohnert machinery, so it can serve as an oracle for
    the symmetric special cases of key and lock polynomials.
    """
    shape = tuple(shape)
    while shape and shape[-1] == 0:
        shape = shape[:-1]
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(
        part < 0 for part in shape
    ):
        raise ValueError(f"shape must be a partition, got {shape}")
    if n < 0:
        raise ValueError("variable count must be nonnegative")

    # the cells in row-major order, each with the index of its left and upper
    # neighbours, or -1: value[-1] is a sentinel 0, so cell k's smallest
    # entry is max(value[left[k]], value[up[k]] + 1)
    left: list[int] = []
    up: list[int] = []
    start = 0
    for i, part in enumerate(shape):
        for j in range(part):
            left.append(start + j - 1 if j else -1)
            up.append(start - shape[i - 1] + j if i else -1)
        start += part
    last = start - 1
    value = [0] * (start + 1)
    content = [0] * n
    counts: Counter[ExponentVector] = Counter()
    if last < 0:
        counts[tuple(content)] += 1
    else:
        # depth-first over the fillings with an explicit cursor k: value[k]
        # is the entry of cell k now tried, and content counts the entries
        # of cells 0..k-1
        k = 0
        value[0] = 1
        while k >= 0:
            v = value[k]
            if v > n:  # cell k is exhausted: try the previous cell's next entry
                k -= 1
                if k >= 0:
                    content[value[k] - 1] -= 1
                    value[k] += 1
                continue
            if k == last:
                content[v - 1] += 1
                counts[tuple(content)] += 1
                content[v - 1] -= 1
                value[k] = v + 1
            else:
                content[v - 1] += 1
                k += 1
                value[k] = max(value[left[k]], value[up[k]] + 1)
    return SparsePolynomial.from_dict(n, dict(counts))


def classify_symmetry(a: Composition) -> dict[str, bool]:
    """The four shape-side predicates of ``a``, keyed by the statement each decides.

    key polynomial symmetric  <=> a weakly increasing;
    key/lock quasisymmetric   <=> no zero parts, or weakly increasing;
    lock polynomial symmetric <=> a is zeros followed by equal positive
    parts (the all-zero composition counts as symmetric by convention).
    """
    increasing = all(a[i] <= a[i + 1] for i in range(len(a) - 1))
    qsym = 0 not in a or increasing
    nonzero = [p for p in a if p > 0]
    k = len(nonzero)
    lock_sym = k == 0 or (len(set(nonzero)) == 1 and all(p == 0 for p in a[: len(a) - k]))
    return {
        "key symmetric": increasing,
        "key quasisymmetric": qsym,
        "lock symmetric": lock_sym,
        "lock quasisymmetric": qsym,
    }
