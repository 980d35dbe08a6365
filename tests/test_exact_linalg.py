from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from relrep.exact_linalg import (
    Matrix,
    QQ,
    block_diag,
    complement_projection,
    exact_div,
    gather_columns,
    hstack,
    rational,
    subspace_contains,
    vstack,
)


def from_blocks(blocks):
    """Assemble a matrix from a 2d grid of consistent blocks."""
    return vstack([hstack(list(row)) for row in blocks])


def test_rational_coercions():
    assert rational(3) == 3
    assert rational("2/4") == Fraction(1, 2)
    assert rational(Fraction(-5, 10)) == Fraction(-1, 2)
    half = rational("1/2")
    assert half.numerator == 1 and half.denominator == 2


def test_rational_rejects_floats():
    try:
        rational(0.5)
    except TypeError:
        pass
    else:
        raise AssertionError("float should be rejected")


def test_rref_frozen_example():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    red, pivots = m.rref()
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_identity_and_idempotence():
    m = Matrix.from_rows([[0, 2, 1], [1, 1, 1], [2, 0, 1]])
    red, pivots = m.rref()
    red2, pivots2 = red.rref()
    assert red == red2 and pivots == pivots2


def test_kernel_basis_frozen_example():
    m = Matrix.from_rows([[1, 1]])
    k = m.kernel_basis()
    assert k.cols == 1
    # spans (1, -1)
    assert k[0, 0] == -k[1, 0] and k[0, 0] != 0
    assert k == Matrix.from_rows([[-1], [1]])


def test_kernel_of_identity_is_empty():
    assert Matrix.identity(2).kernel_basis().cols == 0


def test_solve_right_frozen_example():
    a = Matrix.from_rows([[2]])
    b = Matrix.from_rows([[1]])
    x = a.solve_right(b)
    assert x == Matrix.from_rows([[Fraction(1, 2)]])


def test_solve_right_inconsistent():
    a = Matrix.from_rows([[1, 1], [1, 1]])
    b = Matrix.column([0, 1])
    assert a.solve_right(b) is None


def test_solve_right_multiple_columns():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    rhs = Matrix.identity(2)
    x = a.solve_right(rhs)
    assert a @ x == rhs
    assert x == a.inverse()


def test_matmul_and_transpose():
    a = Matrix.from_rows([[1, 2], [0, 1]])
    b = Matrix.from_rows([[1, 0], [3, 1]])
    assert (a @ b) == Matrix.from_rows([[7, 2], [3, 1]])
    assert a.transpose() == Matrix.from_rows([[1, 0], [2, 1]])


def test_stacking_and_blocks():
    a = Matrix.identity(2)
    b = Matrix.zeros(2, 1)
    assert hstack([a, b]).cols == 3
    assert vstack([a, a]).rows == 4
    d = block_diag([a, Matrix.from_rows([[5]])])
    assert d.rows == 3 and d[2, 2] == 5 and d[0, 2] == 0
    g = from_blocks([[a, b], [b.transpose(), Matrix.from_rows([[7]])]])
    assert g.rows == 3 and g[2, 2] == 7


def test_column_space_and_span_membership():
    a = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = a.column_space_basis()
    assert basis.cols == a.rank() == 2
    assert subspace_contains(basis, Matrix.column([3, 6, 1]))
    assert not subspace_contains(basis, Matrix.column([0, 1, 0]))


def subspace_sum(ambient_dim: int, parts) -> Matrix:
    """Basis of the sum of column-span subspaces of a common ambient space
    (a reference for the reduced radical bases in ``test_syzygy_steps``)."""
    cols = [m for m in parts if m.cols]
    if not cols:
        return Matrix.zeros(ambient_dim, 0)
    return hstack(cols).column_space_basis()


def test_subspace_sum():
    e1 = Matrix.column([1, 0, 0])
    e2 = Matrix.column([0, 1, 0])
    s = subspace_sum(3, [e1, e2, e1 + e2])
    assert s.cols == 2


def test_gather_columns():
    a = Matrix.from_rows([[1, 2], [3, QQ(1, 2)]])
    b = Matrix.from_rows([[5], [6]])
    g = gather_columns(2, [(b, 0), (a, 1), (a, 0), (a, 1)])
    assert g == Matrix.from_rows([[5, 2, 1, 2], [6, QQ(1, 2), 3, QQ(1, 2)]])
    assert gather_columns(2, []) == Matrix.zeros(2, 0)
    assert gather_columns(0, [(Matrix.zeros(0, 3), 2)]) == Matrix.zeros(0, 1)


def test_inverse_and_singular():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    assert a.inverse() @ a == Matrix.identity(2)
    assert a.inverse() == Matrix.from_rows([[-2, 1], [QQ(3, 2), QQ(-1, 2)]])
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


small_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix.from_rows(entries)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert m.rank() + m.kernel_basis().cols == m.cols


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_kernel_annihilates(m):
    k = m.kernel_basis()
    if k.cols:
        assert (m @ k).is_zero()


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_is_idempotent(m):
    red, pivots = m.rref()
    red2, pivots2 = red.rref()
    assert red == red2 and pivots == pivots2


@settings(max_examples=100, deadline=None)
@given(matrices(max_dim=4), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_agrees_with_rank_test(m, vec):
    vec = vec[: m.rows] + [0] * max(0, m.rows - len(vec))
    b = Matrix.column(vec)
    x = m.solve_right(b)
    solvable = hstack([m, b]).rank() == m.rank()
    if solvable:
        assert x is not None and m @ x == b
    else:
        assert x is None


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4), matrices(max_dim=4))
def test_product_transpose(a, b):
    if a.cols != b.rows:
        return
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


# -- the integer kernel against a plain Gauss-Jordan reference over Fraction --


def _reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction: unit pivots, zeros above and below."""
    w = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(w)) if w[i][c] != 0), None)
        if p is None:
            continue
        w[r], w[p] = w[p], w[r]
        inv = 1 / w[r][c]
        w[r] = [x * inv for x in w[r]]
        for i in range(len(w)):
            if i != r and w[i][c] != 0:
                f = w[i][c]
                w[i] = [a - f * b for a, b in zip(w[i], w[r])]
        pivots.append(c)
        r += 1
    return w, tuple(pivots)


def _reference_kernel(rows, ncols):
    red, pivots = _reference_rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -red[k][f]
        basis.append(v)
    return basis


def _reference_solve(rows, ncols, rhs):
    """The solution with free variables zero, or None; rhs is a list of columns."""
    aug = [list(row) + [col[i] for col in rhs] for i, row in enumerate(rows)]
    red, pivots = _reference_rref(aug, ncols + len(rhs))
    if pivots and pivots[-1] >= ncols:
        return None
    out = [[Fraction(0)] * len(rhs) for _ in range(ncols)]
    for k, p in enumerate(pivots):
        out[p] = red[k][ncols:]
    return out


def _is_canonical(x):
    return type(x) is int or (type(x) is QQ and x.denominator != 1)


scalars = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def exact_matrices(draw, max_rows=12, max_cols=15):
    """Matrices with fractional entries, zero or empty shapes, and products of
    thin factors (rank-deficient by construction)."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    kind = draw(st.sampled_from(["dense", "zero", "low_rank"]))
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    if kind == "low_rank":
        k = draw(st.integers(min_value=0, max_value=min(rows, cols, 4)))
        a = draw(st.lists(st.lists(scalars, min_size=k, max_size=k), min_size=rows, max_size=rows))
        b = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=k, max_size=k))
        return [
            [sum((Fraction(a[i][t]) * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
            for i in range(rows)
        ]
    return draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows))


@settings(max_examples=200, deadline=None)
@given(exact_matrices(), st.lists(st.lists(scalars, min_size=12, max_size=12), min_size=0, max_size=3))
def test_integer_kernel_matches_fraction_reference(rows, rhs_cols):
    ncols = len(rows[0]) if rows else 0
    m = Matrix(len(rows), ncols, rows)
    ref_red, ref_pivots = _reference_rref(rows, ncols)
    red, pivots = m.rref()
    assert pivots == ref_pivots
    assert red.to_lists() == ref_red
    assert Matrix(len(rows), ncols, rows).rank() == len(ref_pivots)

    kern = m.kernel_basis()
    assert kern.rows == ncols
    assert [[kern[i, j] for i in range(ncols)] for j in range(kern.cols)] == _reference_kernel(rows, ncols)

    rhs = [col[: len(rows)] for col in rhs_cols]
    b = Matrix(len(rows), len(rhs), [[col[i] for col in rhs] for i in range(len(rows))])
    sol = m.solve_right(b)
    expected = _reference_solve(rows, ncols, rhs)
    if expected is None:
        assert sol is None
    else:
        assert sol is not None and sol.to_lists() == expected and m @ sol == b

    # a map of full row rank: its section and kernel off one RREF of [m | I]
    if len(ref_pivots) == len(rows):
        section, kern_too = m.section_and_kernel()
        assert kern_too == kern
        assert section == m.solve_right(Matrix.identity(len(rows)))
    else:
        try:
            m.section_and_kernel()
        except ValueError:
            pass
        else:
            raise AssertionError("a matrix without full row rank has no section")

    if len(ref_pivots) == ncols:
        left = m.left_inverse()
        assert left @ m == Matrix.identity(ncols)
        ident = [[int(i == j) for j in range(len(rows))] for i in range(len(rows))]
        aug_red, _ = _reference_rref([r + e for r, e in zip(rows, ident)], ncols + len(rows))
        assert left.to_lists() == [aug_red[i][ncols:] for i in range(ncols)]


def _all_canonical(m):
    return all(_is_canonical(x) for row in m.to_lists() for x in row)


@settings(max_examples=80, deadline=None)
@given(exact_matrices(max_rows=6, max_cols=6), exact_matrices(max_rows=6, max_cols=6), scalars)
def test_every_built_entry_is_canonical(a_rows, b_rows, c):
    a = Matrix(len(a_rows), len(a_rows[0]) if a_rows else 0, a_rows)
    b = Matrix(len(b_rows), len(b_rows[0]) if b_rows else 0, b_rows)
    built = [a, -a, a + a, a - a, a.scale(c), a.scale(Fraction(1, 2)), a.transpose()]
    built += [a.rref()[0], a.kernel_basis(), a.column_space_basis()]
    built += [Matrix.zeros(3, 2), Matrix.identity(3), hstack([a, a]), vstack([a, a])]
    built += [block_diag([a, b]), a.take_rows(range(a.rows)), a.take_columns(range(a.cols))]
    if a.cols == b.rows:
        built.append(a @ b)
    if a.cols == a.rows:
        built.append(a @ a)
    if a.rows:
        built.append(a.solve_right(Matrix.zeros(a.rows, 1)))
        if a.rank() == a.cols:
            built.append(a.left_inverse())
        if a.rank() == a.rows:
            built.extend(a.section_and_kernel())
    for m in built:
        assert _all_canonical(m)
    assert _is_canonical(rational(c)) and rational(c) == c


def test_rational_is_canonical():
    assert type(rational(Fraction(4, 2))) is int and rational(Fraction(4, 2)) == 2
    assert type(rational("6/3")) is int
    assert type(rational(True)) is int
    assert type(rational(QQ(-3))) is int
    half = rational(Fraction(2, 4))
    assert type(half) is QQ and half == Fraction(1, 2)
    for bad in (0.5, 2.0):
        try:
            rational(bad)
        except TypeError:
            pass
        else:
            raise AssertionError("float should be rejected")
    assert type(Matrix.from_rows([[Fraction(2, 1), "3/3"]])[0, 1]) is int


def test_inverse_of_an_integer_matrix_is_exact():
    inv = Matrix.from_rows([[2]]).inverse()
    assert inv[0, 0] == Fraction(1, 2)
    assert not isinstance(inv[0, 0], float)
    assert type(inv[0, 0]) is QQ


def test_exact_div_never_makes_floats():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(1, 3) == Fraction(1, 3) and type(exact_div(1, 3)) is QQ
    assert type(exact_div(Fraction(1, 2), Fraction(1, 4))) is int
    try:
        exact_div(1, 0)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("division by zero should raise")


def _reference_complement_projection(basis):
    """The inverse-based construction: invert [basis | unit columns at the
    non-pivots of basis^T] and keep the rows that read off the complement."""
    n = basis.rows
    _, pivots = basis.transpose().rref()
    free = [j for j in range(n) if j not in set(pivots)]
    t = hstack([basis, Matrix.identity(n).take_columns(free)])
    return t.inverse().take_rows(range(basis.cols, n)), free


@st.composite
def spanning_sets(draw, max_dim=9):
    """(n, columns) spanning a random subspace of QQ^n, n <= 9: empty, zero,
    full and fractional spans, with dependent columns among them."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    kind = draw(st.sampled_from(["random", "none", "zero", "full", "units"]))
    if kind == "none":
        return n, []
    if kind == "units" and n:
        # multiples of unit vectors, repeats among them: a coordinate subspace
        units = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_dim))
        return n, [[draw(scalars) if i == t else 0 for i in range(n)] for t in units]
    if kind == "zero":
        return n, [[0] * n for _ in range(draw(st.integers(1, 3)))]
    if kind == "full":
        return n, [[int(i == j) + (j < i) for i in range(n)] for j in range(n)]
    k = draw(st.integers(min_value=0, max_value=max_dim + 2))
    return n, draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(spanning_sets())
def test_complement_projection_matches_the_inverse_route(case):
    n, columns = case
    span = Matrix(n, len(columns), [[col[i] for col in columns] for i in range(n)])
    basis = span.column_space_basis()
    proj, free = complement_projection(basis)
    ref_proj, ref_free = _reference_complement_projection(basis)
    assert free == ref_free
    assert proj == ref_proj
    assert _all_canonical(proj)
    section = Matrix.identity(n).take_columns(free)
    assert (proj @ basis).is_zero()
    assert proj @ section == Matrix.identity(len(free))
    assert len(free) == n - basis.cols
    # any spanning set of the same subspace gives the same projection
    assert complement_projection(span) == (proj, free)


def test_complement_projection_edge_shapes():
    assert complement_projection(Matrix.zeros(0, 0)) == (Matrix.zeros(0, 0), [])
    assert complement_projection(Matrix.zeros(3, 0)) == (Matrix.identity(3), [0, 1, 2])
    assert complement_projection(Matrix.identity(3)) == (Matrix.zeros(0, 3), [])
    proj, free = complement_projection(Matrix.from_rows([[1], [2], [3]]))
    assert free == [1, 2]
    assert proj == Matrix.from_rows([[-2, 1, 0], [-3, 0, 1]])


def test_subspace_contains_takes_several_columns():
    basis = Matrix.from_rows([[1, 0], [2, 0], [0, 1]])
    assert subspace_contains(basis, Matrix.from_rows([[1, 0, 2], [2, 0, 4], [5, 0, 1]]))
    assert not subspace_contains(basis, Matrix.from_rows([[1, 0], [2, 1], [0, 0]]))
    assert subspace_contains(basis, Matrix.zeros(3, 0))
    assert subspace_contains(Matrix.zeros(3, 0), Matrix.zeros(3, 2))
    assert not subspace_contains(Matrix.zeros(3, 0), Matrix.identity(3))
