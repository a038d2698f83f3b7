from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ambient_matrix import inverse

from flagcr.gaussq import (
    C_I,
    C_ONE,
    CMatrix,
    CNum,
    Factored,
    RMatrix,
    complexify_vector,
    kernel,
    realify_vector,
    solve_linear,
)


def test_cnum_arithmetic():
    a = CNum(Fraction(1), Fraction(2))
    b = CNum(Fraction(3), Fraction(-1))
    assert a + b == CNum(Fraction(4), Fraction(1))
    assert a * b == CNum(Fraction(5), Fraction(5))
    assert (a / b) * b == a
    assert a.conj() == CNum(Fraction(1), Fraction(-2))
    assert str(CNum(Fraction(1, 2))) == "1/2"
    with pytest.raises(ZeroDivisionError):
        a / CNum()
    assert not CNum() and a and CNum(Fraction(0), Fraction(-1)) and CNum(Fraction(1, 3))


def test_cnum_is_an_immutable_value():
    a = CNum(Fraction(1), Fraction(2))
    assert a == CNum(1, 2) and hash(a) == hash(CNum(1, 2))
    assert len({a, CNum(1, 2), CNum(Fraction(2), Fraction(1))}) == 2
    # not a tuple: no equality with one, and + stays arithmetic
    assert a != (Fraction(1), Fraction(2)) and a + a == CNum(2, 4)
    assert repr(a) == "CNum(re=Fraction(1, 1), im=Fraction(2, 1))"
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, Fraction(3))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert (a.re, a.im) == (1, 2)


def test_realify_roundtrip():
    v = (CNum(Fraction(1), Fraction(2)), CNum(Fraction(-3), Fraction(0)))
    assert complexify_vector(realify_vector(v)) == v


def test_rmatrix_ops():
    a = RMatrix(3, [[1, 0, 1], [0, 1, 1]])
    b = RMatrix(3, [[1, 1, 2], [1, -1, 0]])
    assert a == b
    c = RMatrix(3, [[1, 0, 0]])
    assert a.sum(c).rank() == 3
    inter = a.intersect(RMatrix(3, [[1, 0, 1], [0, 0, 1]]))
    assert inter.rank() == 1
    assert inter.contains([1, 0, 1])
    assert not a.contains([1, 0, 0])
    assert a.contains_space(RMatrix(3, [[1, 1, 2]]))


def test_cmatrix_complex_spans():
    v = (C_ONE, C_I)
    a = CMatrix(2, [v])
    assert a.contains((C_I, -C_ONE))  # i * v
    assert not a.contains((C_ONE, -C_I))
    b = CMatrix(2, [(C_ONE, -C_I)])
    assert a.intersect(b).rank() == 0
    with pytest.raises(TypeError, match="unhashable type: 'CMatrix'"):
        hash(a)


def test_solve_linear():
    columns = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]]
    x = solve_linear(columns, [Fraction(5), Fraction(6)], Fraction)
    assert x == [Fraction(3, 2), Fraction(2)]
    assert solve_linear([[Fraction(1), Fraction(1)]], [Fraction(1), Fraction(2)], Fraction) is None


def test_factored_inverse_and_singular():
    # the tests' inverse solves A x = e_k through Factored, column by column
    assert Factored([[2, 1], [4, 3]], 2, Fraction).rank == 2
    assert inverse([[2, 1], [4, 3]], Fraction) == [(Fraction(3, 2), Fraction(-1, 2)), (Fraction(-2), Fraction(1))]
    assert kernel([[2, 1], [4, 3]], 2, Fraction) == []
    assert Factored([[1, 2], [2, 4]], 2, Fraction).solve([0, 1]) is None
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]], Fraction)
    with pytest.raises(ValueError):
        inverse([[1, 0, 0], [0, 1, 0]], Fraction)


# Property tests of the factor-once object on small random matrices over Q
# and Q(i); ranks are cross-checked against the row spaces of RMatrix /
# CMatrix, which reduce the rows without the row transform.

_Q = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_QI = st.builds(CNum, _Q, _Q)
FIELDS = {"Q": (_Q, Fraction, RMatrix), "Q(i)": (_QI, CNum.of, CMatrix)}


@st.composite
def systems(draw):
    """(field, n, columns, b): the m columns of an n x m matrix A, with
    m, n <= 4; b is A x for a random x half the time (a consistent system)
    and random otherwise."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    entry, coerce, _ = FIELDS[name]
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # sparse entries make rank-deficient matrices common
    cols = [[draw(st.one_of(st.just(coerce(0)), entry)) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x = [draw(entry) for _ in range(m)]
        b = _mul(n, cols, x, coerce)
    else:
        b = [draw(entry) for _ in range(n)]
    return name, n, cols, b


def _mul(n, cols, x, coerce):
    """A x for the matrix A of height n with the given columns."""
    out = [coerce(0)] * n
    for col, v in zip(cols, x):
        out = [s + u * v for s, u in zip(out, col)]
    return out


def _rank(name, n, rows):
    return FIELDS[name][2](n, rows).rank()


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_solve_property(system):
    name, n, cols, b = system
    coerce = FIELDS[name][1]
    f = Factored(cols, n, coerce)
    assert f.rank == _rank(name, n, cols)
    x = f.solve(b)
    augmented_rank = _rank(name, n, cols + [b])
    assert (x is None) == (augmented_rank > f.rank)
    if x is not None:
        assert _mul(n, cols, x, coerce) == [coerce(v) for v in b]
    assert solve_linear(cols, b, coerce) == x


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_kernel_property(system):
    name, n, cols, _ = system
    coerce = FIELDS[name][1]
    ker = kernel(cols, n, coerce)
    assert len(ker) == len(cols) - Factored(cols, n, coerce).rank
    for v in ker:
        assert all(not z for z in _mul(n, cols, v, coerce))
    assert _rank(name, len(cols), ker) == len(ker)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_factored_inverse_property(system):
    name, _, cols, _ = system
    coerce = FIELDS[name][1]
    m = len(cols)
    cols = [col[:m] + [coerce(1)] * (m - len(col)) for col in cols]  # square
    if Factored(cols, m, coerce).rank < m:
        with pytest.raises(ValueError):
            inverse(cols, coerce)
        return
    # column k of A^-1 solves A x = e_k
    prod = [_mul(m, cols, col, coerce) for col in inverse(cols, coerce)]
    assert prod == [[coerce(1 if i == k else 0) for i in range(m)] for k in range(m)]


# Width properties over both fields: a subspace is built with its width n,
# refuses a row or vector of any other width, and the zero subspace of
# width n, X(n, []), is the empty result of intersect and sum.


@st.composite
def spaces_and_strays(draw):
    """(field, n, rows, stray): up to 3 rows of width n <= 4, and a vector
    whose width is not n."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    entry, coerce, _ = FIELDS[name]
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.one_of(st.just(coerce(0)), entry), min_size=n, max_size=n), max_size=3))
    width = draw(st.integers(0, 6).filter(lambda w: w != n))
    stray = draw(st.lists(entry, min_size=width, max_size=width))
    return name, n, rows, stray


@settings(max_examples=100, deadline=None)
@given(spaces_and_strays(), st.data())
def test_a_ragged_row_is_refused(case, data):
    name, n, rows, stray = case
    at = data.draw(st.integers(0, len(rows)))
    with pytest.raises(ValueError, match=f"vector {at} has {len(stray)} coordinates, not {n}"):
        FIELDS[name][2](n, rows[:at] + [stray] + rows[at:])


@settings(max_examples=100, deadline=None)
@given(spaces_and_strays())
def test_a_vector_of_another_width_is_refused(case):
    name, n, rows, stray = case
    space = FIELDS[name][2](n, rows)
    with pytest.raises(ValueError, match=f"vector has {len(stray)} coordinates, not {n}"):
        space.contains(stray)
    with pytest.raises(ValueError, match=f"vector has {len(stray)} coordinates, not {n}"):
        space.residue(stray)
    other = FIELDS[name][2](len(stray), [])
    for combine in (space.sum, space.intersect):
        with pytest.raises(ValueError, match=f"space has {len(stray)} coordinates, not {n}"):
            combine(other)


@settings(max_examples=100, deadline=None)
@given(spaces_and_strays())
def test_the_zero_subspace_keeps_its_width(case):
    name, n, rows, _ = case
    space_type = FIELDS[name][2]
    zero, space = space_type(n, []), space_type(n, rows)
    assert zero.ncols == space.ncols == n and zero != space_type(n + 1, [])
    assert space.intersect(zero) == zero.intersect(space) == zero.sum(zero) == zero
    assert zero.sum(space) == space.sum(zero) == space
    assert zero.contains([0] * n) and zero.residue([0] * n) == [FIELDS[name][1](0)] * n


# Shape properties of the solvers over both fields: each takes the columns
# of a matrix and their height n, and refuses a column or a right-hand side
# of any other height instead of cutting it.


@settings(max_examples=100, deadline=None)
@given(spaces_and_strays(), st.data())
def test_a_column_or_right_hand_side_of_another_height_is_refused(case, data):
    name, n, cols, stray = case
    coerce = FIELDS[name][1]
    at = data.draw(st.integers(0, len(cols)))
    ragged = cols[:at] + [stray] + cols[at:]
    message = f"column {at} has {len(stray)} coordinates, not {n}"
    with pytest.raises(ValueError, match=message):
        Factored(ragged, n, coerce)
    with pytest.raises(ValueError, match=message):
        kernel(ragged, n, coerce)
    with pytest.raises(ValueError, match=message):
        solve_linear(ragged, [0] * n, coerce)
    with pytest.raises(ValueError, match=f"right-hand side has {len(stray)} coordinates, not {n}"):
        Factored(cols, n, coerce).solve(stray)
    if cols:
        with pytest.raises(ValueError, match=f"column 0 has {n} coordinates, not {len(stray)}"):
            solve_linear(cols, stray, coerce)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_short_second_column_is_refused(name):
    # the first column gives no width to guess: the second column of
    # [[1, 2], [1]] has 1 coordinate, not 2
    coerce = FIELDS[name][1]
    for solve in (Factored, kernel, lambda cols, n, coerce: solve_linear(cols, [1, 1], coerce)):
        with pytest.raises(ValueError, match="column 1 has 1 coordinates, not 2"):
            solve([[1, 2], [1]], 2, coerce)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_height_zero_kernel_is_the_unit_basis(name):
    # no condition on m unknowns: every x solves A x = 0
    coerce = FIELDS[name][1]
    for m in range(4):
        assert kernel([()] * m, 0, coerce) == [tuple(coerce(int(i == j)) for i in range(m)) for j in range(m)]
