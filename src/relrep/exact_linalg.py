"""Exact linear algebra over the rationals.

Everything downstream (path algebras, representations, relative homology)
reduces to exact rank / kernel / solve computations, so this module is the
single arithmetic substrate.  No floats anywhere.

Scalar convention: an exact scalar is a Python ``int`` when it is integral and
a ``QQ`` (gmpy2 ``mpq``, or ``fractions.Fraction`` without gmpy2) only when it
is a true fraction, with denominator != 1.  ``rational`` returns this
canonical form, the public ``Matrix`` constructor applies it to every entry,
and every matrix this module builds itself keeps it, so ``Matrix[i, j]`` may
return an ``int``.  Nearly all entries met in practice are integral, so
arithmetic, zero tests and eliminations run on Python ints.

Elimination is fraction-free: rows are scaled to integers once and reduced by
Bareiss's integer elimination (Math. Comp. 22, 1968) with exact ``//``
divisions; only the final unit-pivot normalization makes fractions.

Subspaces are matrices whose columns span them.  Every quotient in the
library (module quotients and cokernels, the reduction of Ext^1 cocycles, the
quotients of structure-constant modules) goes through ``complement_projection``,
which reads the projection onto a coordinate complement straight off one RREF.
"""

from __future__ import annotations

from itertools import chain, compress
from math import gcd
from operator import add, sub
from typing import Iterable, Sequence

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as QQ

_QQ_TYPE = type(QQ(0))


def _canon(x):
    """The canonical form of an exact scalar: ``int`` when integral, else QQ."""
    if type(x) is int:
        return x
    if x.denominator == 1:
        return int(x.numerator)
    return x


def _canon_row(row: list) -> list:
    """``row`` with every entry in canonical form; a row of ints is returned
    as it is (a QQ entry would make the row's sum a QQ, never an int)."""
    if type(sum(row)) is int:
        return row
    return [x if type(x) is int else _canon(x) for x in row]


def rational(value):
    """Coerce ints, strings like '2/3', Fractions or QQ values to a canonical
    exact scalar: an ``int`` when integral, a QQ otherwise."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    if type(value) is not _QQ_TYPE:
        value = QQ(value)
    return _canon(value)


def exact_div(a, b):
    """The exact quotient ``a / b`` of two exact scalars, in canonical form."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else QQ(a, b)
    return _canon(QQ(a) / b)


class Matrix:
    """A dense exact matrix, row-major, immutable by convention.

    Entries are canonical exact scalars (see the module docstring).  Mutating
    helpers are private and only used before the instance escapes.
    """

    __slots__ = ("rows", "cols", "_data", "_rref")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence]) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        data = []
        for row in entries:
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
            data.append([x if type(x) is int else rational(x) for x in row])
        self.rows = rows
        self.cols = cols
        self._data = data
        self._rref = None

    @classmethod
    def _trusted(cls, rows: int, cols: int, data: list) -> "Matrix":
        """Wrap row lists of canonical scalars built in this module, unchecked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._data = data
        m._rref = None
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m._data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence]) -> "Matrix":
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        return cls(rows, cols, entries)

    @classmethod
    def column(cls, values: Sequence) -> "Matrix":
        return cls(len(values), 1, [[v] for v in values])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "Matrix":
        cols = len(columns)
        rows = len(columns[0]) if cols else 0
        return cls(rows, cols, [[columns[j][i] for j in range(cols)] for i in range(rows)])

    # -- basic access ------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> list:
        return list(self._data[i])

    def columns(self) -> list[list]:
        """The columns as plain lists."""
        return [[row[j] for row in self._data] for j in range(self.cols)]

    def column_vector(self, j: int) -> "Matrix":
        return Matrix._trusted(self.rows, 1, [[row[j]] for row in self._data])

    def to_lists(self) -> list:
        return [list(r) for r in self._data]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    __hash__ = None  # mutable-ish container; never used as a dict key

    def __repr__(self) -> str:
        if self.rows * self.cols > 64:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self._data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not any(any(row) for row in self._data)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._trusted(
            self.rows,
            self.cols,
            [_canon_row(list(map(add, ra, rb))) for ra, rb in zip(self._data, other._data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._trusted(
            self.rows,
            self.cols,
            [_canon_row(list(map(sub, ra, rb))) for ra, rb in zip(self._data, other._data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, [[-a for a in row] for row in self._data])

    def scale(self, c) -> "Matrix":
        c = rational(c)
        return Matrix._trusted(
            self.rows, self.cols, [_canon_row([c * a for a in row]) for row in self._data]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        ncols = other.cols
        bdata = other._data
        # the nonzeros of each row of the right factor, listed when first used
        bnz = [None] * other.rows
        out = []
        for arow in self._data:
            orow = [0] * ncols
            for k, a in enumerate(arow):
                if a:
                    nz = bnz[k]
                    if nz is None:
                        nz = bnz[k] = [(j, b) for j, b in enumerate(bdata[k]) if b]
                    for j, b in nz:
                        orow[j] += a * b
            out.append(_canon_row(orow))
        return Matrix._trusted(self.rows, ncols, out)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix._trusted(self.cols, 0, [[] for _ in range(self.cols)])
        return Matrix._trusted(self.cols, self.rows, [list(col) for col in zip(*self._data)])

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- elimination -------------------------------------------------------

    def _integer_rows(self) -> list:
        """Copies of the rows, each scaled by a positive integer to int entries."""
        w = []
        for row in self._data:
            if type(sum(row)) is int:  # no QQ entry (see _canon_row)
                w.append(list(row))
                continue
            scale = 1
            for x in row:
                if type(x) is not int:
                    d = int(x.denominator)
                    scale = scale // gcd(scale, d) * d
            w.append([int(x * scale) for x in row])
        return w

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices.

        Integer Bareiss elimination clears below and above every pivot, which
        leaves each pivot equal to the last one, ``det``; dividing the pivot
        rows by ``det`` gives the unique RREF.
        """
        if self._rref is not None:
            return self._rref
        w = self._integer_rows()
        pivots, det = _bareiss(w, self.cols, True)
        if det != 1:
            for k in range(len(pivots)):
                w[k] = [x // det if x % det == 0 else QQ(x, det) for x in w[k]]
        result = (Matrix._trusted(self.rows, self.cols, w), tuple(pivots))
        self._rref = result
        return result

    def rank(self) -> int:
        """The rank: the RREF's if cached, else the pivots of a forward pass."""
        if self._rref is not None:
            return len(self._rref[1])
        return len(_bareiss(self._integer_rows(), self.cols, False)[0])

    def kernel_basis(self) -> "Matrix":
        """Matrix whose columns form a basis of the right kernel.

        Basis vectors are ordered by ascending free-column index; entries
        are read off the RREF, so the result is deterministic.
        """
        red, pivots = self.rref()
        return _kernel_from_rref(red._data, pivots, self.cols)

    def solve_right(self, rhs: "Matrix") -> "Matrix | None":
        """One exact solution X of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, so the solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        aug = hstack([self, rhs])
        red, pivots = aug.rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        out = [[0] * rhs.cols for _ in range(n)]
        for k, p in enumerate(pivots):
            out[p] = red._data[k][n:]
        return Matrix._trusted(n, rhs.cols, out)

    def section_and_kernel(self) -> tuple["Matrix", "Matrix"]:
        """``(solve_right(identity), kernel_basis())`` of a matrix of full row
        rank, read off one RREF of [self | I]: all its pivots lie in the left
        block, which is therefore the RREF of self."""
        n = self.cols
        red, pivots = hstack([self, Matrix.identity(self.rows)]).rref()
        if pivots and pivots[-1] >= n:
            raise ValueError("matrix does not have full row rank")
        section = [[0] * self.rows for _ in range(n)]
        for k, p in enumerate(pivots):
            section[p] = red._data[k][n:]
        return Matrix._trusted(n, self.rows, section), _kernel_from_rref(red._data, pivots, n)

    def left_inverse(self) -> "Matrix":
        """An exact L with L @ self = identity; needs full column rank.

        Computed once from the RREF of [self | I]; callers that repeatedly
        solve against the same full-rank matrix should prefer this over
        solve_right, which re-eliminates for every right-hand side.
        """
        n = self.cols
        aug, pivots = hstack([self, Matrix.identity(self.rows)]).rref()
        if tuple(pivots[:n]) != tuple(range(n)):
            raise ValueError("matrix does not have full column rank")
        return Matrix._trusted(n, self.rows, [aug._data[i][n:] for i in range(n)])

    def column_space_basis(self) -> "Matrix":
        """Columns of self at the pivot positions of its RREF: an image basis."""
        _, pivots = self.rref()
        return self.take_columns(pivots)

    def in_column_span(self, v: "Matrix") -> bool:
        return self.solve_right(v) is not None

    def take_columns(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._trusted(self.rows, len(idx), [[row[j] for j in idx] for row in self._data])

    def take_rows(self, indices: Iterable[int]) -> "Matrix":
        idx = list(indices)
        return Matrix._trusted(len(idx), self.cols, [list(self._data[i]) for i in idx])

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        sol = self.solve_right(Matrix.identity(self.rows))
        if sol is None or not (self @ sol == Matrix.identity(self.rows)):
            raise ValueError("matrix is singular")
        return sol

    def flatten(self) -> list:
        """Row-major flat list of entries."""
        return [x for row in self._data for x in row]


def _kernel_from_rref(red: list, pivots: Sequence[int], n: int) -> Matrix:
    """The kernel basis of the first ``n`` columns of the RREF rows ``red``
    with pivot columns ``pivots`` (all < n): one vector per free column, in
    ascending order, with its 1 there and minus that column's RREF entries at
    the pivots."""
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    out = [[0] * len(free) for _ in range(n)]
    for t, f in enumerate(free):
        out[f][t] = 1
        for k, p in enumerate(pivots):
            coeff = red[k][f]
            if coeff:
                out[p][t] = -coeff
    return Matrix._trusted(n, len(free), out)


def _bareiss(w: list, n: int, full: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of the int rows ``w`` (``n`` columns) in place.

    Bareiss's one-step rule keeps every entry an integer minor of the input,
    so each ``//`` is exact.  The forward pass clears below each pivot;
    ``full`` also clears above it, after which every pivot row's pivot equals
    the last pivot.  Returns the pivot columns and the last pivot (1 if none).
    """
    m = len(w)
    pivots = []
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        for p in range(r, m):
            if w[p][c]:
                break
        else:
            continue
        row_r = w[p]
        if p != r:
            w[p] = w[r]
            w[r] = row_r
        piv = row_r[c]
        nz = [(j, x) for j, x in enumerate(row_r) if x and j != c]
        for i in range(0 if full else r + 1, m):
            if i == r:
                continue
            row_i = w[i]
            f = row_i[c]
            if piv == prev:
                # (y*piv - f*x) // prev is y - f*x // prev: touch only row_r's nonzeros
                if f:
                    if prev == 1:
                        for j, x in nz:
                            row_i[j] -= f * x
                    else:
                        for j, x in nz:
                            row_i[j] -= f * x // prev
                    row_i[c] = 0
            elif f:
                w[i] = [(y * piv - f * x) // prev for y, x in zip(row_i, row_r)]
            elif any(row_i):
                w[i] = [y * piv // prev for y in row_i]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, prev


def hstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row count mismatch in hstack")
    data = [list(chain.from_iterable(parts)) for parts in zip(*[m._data for m in mats])]
    return Matrix._trusted(rows, sum(m.cols for m in mats), data)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch in vstack")
    data = []
    for m in mats:
        data.extend(m.to_lists())
    return Matrix._trusted(sum(m.rows for m in mats), cols, data)


def gather_columns(rows: int, picks: Sequence[tuple[Matrix, int]]) -> Matrix:
    """The ``rows``-row matrix whose t-th column is column j of m, for the
    t-th pair ``(m, j)`` of ``picks`` (each m has ``rows`` rows)."""
    return Matrix._trusted(
        rows, len(picks), [[m._data[i][j] for m, j in picks] for i in range(rows)]
    )


def block_diag(mats: Sequence[Matrix]) -> Matrix:
    mats = list(mats)
    cols = sum(m.cols for m in mats)
    data, c = [], 0
    for m in mats:
        left, right = [0] * c, [0] * (cols - c - m.cols)
        data.extend(left + row + right for row in m._data)
        c += m.cols
    return Matrix._trusted(len(data), cols, data)


def subspace_contains(span: Matrix, vectors: Matrix) -> bool:
    """Whether every column of ``vectors`` lies in the column span of ``span``."""
    if span.cols == 0:
        return vectors.is_zero()
    return span.in_column_span(vectors)


def complement_projection(span: Matrix) -> tuple[Matrix, list[int]]:
    """The quotient of QQ^n (n = ``span.rows``) by the column span of ``span``.

    The columns of ``span`` need only span the subspace.  Returns ``(proj,
    free)``: ``free`` lists the coordinates that are not pivots of the RREF of
    ``span``'s transpose, so the unit vectors at ``free`` span a complement,
    and ``proj`` (``len(free) x n``) is the projection along the subspace onto
    that complement, read in those coordinates.  With ``section`` the identity
    columns at ``free``: ``proj @ span == 0`` and ``proj @ section == I``.
    """
    n = span.rows
    # with at most one nonzero per column the span is the coordinate subspace
    # of the rows touched (path actions on a monomial path basis)
    touched, seen = set(), set()
    for i, row in enumerate(span._data):
        cols = list(compress(range(len(row)), row))
        if not seen.isdisjoint(cols):
            break
        seen.update(cols)
        if cols:
            touched.add(i)
    else:
        free = [j for j in range(n) if j not in touched]
        return Matrix._trusted(len(free), n, [[int(j == f) for j in range(n)] for f in free]), free
    reduced, pivots = span.transpose().rref()
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    # v -> v - sum_k v[pivot_k] * row_k vanishes on the span (row k has a 1 at
    # pivot_k and 0 at the other pivots) and fixes the unit vectors at free
    rows = []
    for f in free:
        row = [0] * n
        row[f] = 1
        for k, p in enumerate(pivots):
            c = reduced._data[k][f]
            if c:
                row[p] = -c
        rows.append(row)
    return Matrix._trusted(len(free), n, rows), free
