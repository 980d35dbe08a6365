"""Bound quiver algebras over QQ with an explicit path basis.

A presentation is a finite quiver, a list of admissible relations (parallel
linear combinations of paths of length >= 2) and a nilpotency bound N such
that every path of length N lies in the ideal.  The bound makes the quotient
finite dimensional and lets the basis be computed degree by degree with plain
linear algebra, no Groebner machinery.

Composition convention: ``p * q`` means "first traverse p, then q", so the
product is defined when ``target(p) == source(q)``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .cache import Cached, cached, memoized
from .exact_linalg import Matrix, rational


class AlgebraError(ValueError):
    """Raised for inadmissible presentations or malformed algebra data."""


class InternalError(AlgebraError):
    """A fault of the program, not of its input: a computed object broke an
    invariant that the mathematics guarantees.  ``layer`` names the module
    (``endo``, ``relhom``, ...) whose check failed."""

    def __init__(self, layer: str, message: str) -> None:
        super().__init__(f"internal error in {layer}: {message}")
        self.layer = layer


class Arrow(NamedTuple):
    name: str
    source: int
    target: int


class Path:
    """A directed path: a start vertex and a tuple of composable arrow indices."""

    __slots__ = ("source", "target", "arrows", "_hash")

    def __init__(self, source: int, target: int, arrows: tuple[int, ...]) -> None:
        self.source = source
        self.target = target
        self.arrows = arrows
        # paths key the module action tables: hash once, not on every lookup
        self._hash = hash((source, arrows))

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self.source == other.source and self.arrows == other.arrows

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.source, self.arrows)

    def __repr__(self) -> str:
        return f"Path(v{self.source}->v{self.target}, arrows={self.arrows})"


class Quiver(Cached):
    """A finite quiver on vertices 0..vertex_count-1."""

    def __init__(self, vertex_count: int, arrows: Sequence[Arrow]) -> None:
        if vertex_count < 1:
            raise AlgebraError("quiver needs at least one vertex")
        self.vertex_count = vertex_count
        self.arrows = tuple(arrows)
        names = set()
        for a in self.arrows:
            if not (0 <= a.source < vertex_count and 0 <= a.target < vertex_count):
                raise AlgebraError(f"arrow {a.name} endpoint out of range")
            if a.name in names:
                raise AlgebraError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
        self.arrows_from = [[] for _ in range(vertex_count)]
        self.arrows_to = [[] for _ in range(vertex_count)]
        for idx, a in enumerate(self.arrows):
            self.arrows_from[a.source].append(idx)
            self.arrows_to[a.target].append(idx)
        self.arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        super().__init__()

    def trivial_path(self, v: int) -> Path:
        return Path(v, v, ())

    def arrow_path(self, idx: int) -> Path:
        a = self.arrows[idx]
        return Path(a.source, a.target, (idx,))

    def path_from_arrows(self, arrow_indices: Sequence[int], source: int | None = None) -> Path:
        """Build a path, validating composability ("first entry first")."""
        arrow_indices = tuple(arrow_indices)
        if not arrow_indices:
            if source is None:
                raise AlgebraError("trivial path needs an explicit vertex")
            return self.trivial_path(source)
        first = self.arrows[arrow_indices[0]]
        if source is not None and source != first.source:
            raise AlgebraError("path source does not match first arrow")
        at = first.source
        for idx in arrow_indices:
            a = self.arrows[idx]
            if a.source != at:
                raise AlgebraError("arrows do not compose")
            at = a.target
        return Path(first.source, at, arrow_indices)

    def concat(self, p: Path, q: Path) -> Path:
        """First traverse p, then q; requires target(p) == source(q)."""
        if p.target != q.source:
            raise AlgebraError("paths do not compose")
        return Path(p.source, q.target, p.arrows + q.arrows)

    @memoized("paths")
    def paths_up_to(self, max_length: int) -> tuple[Path, ...]:
        """All paths of length <= max_length, sorted by (length, source, arrows)."""
        out = [self.trivial_path(v) for v in range(self.vertex_count)]
        frontier = list(out)
        for _ in range(max_length):
            nxt = []
            for p in frontier:
                for idx in self.arrows_from[p.target]:
                    a = self.arrows[idx]
                    nxt.append(Path(p.source, a.target, p.arrows + (idx,)))
            out.extend(nxt)
            frontier = nxt
            if not frontier:
                break
        out.sort(key=Path.sort_key)
        return tuple(out)

    @memoized("paths of length")
    def paths_of_length(self, length: int) -> tuple[Path, ...]:
        return tuple(p for p in self.paths_up_to(length) if p.length == length)

    def is_nakayama(self) -> bool:
        return all(
            len(self.arrows_from[v]) <= 1 and len(self.arrows_to[v]) <= 1
            for v in range(self.vertex_count)
        )

    def opposite(self) -> "Quiver":
        return Quiver(
            self.vertex_count,
            [Arrow(a.name, a.target, a.source) for a in self.arrows],
        )


class Relation:
    """A parallel linear combination of paths of length >= 2."""

    def __init__(self, terms: Sequence[tuple[object, Path]]) -> None:
        cleaned = []
        for coeff, path in terms:
            c = rational(coeff)
            if c == 0:
                continue
            cleaned.append((c, path))
        if not cleaned:
            raise AlgebraError("relation has no nonzero terms")
        src, tgt = cleaned[0][1].source, cleaned[0][1].target
        for _, path in cleaned:
            if path.source != src or path.target != tgt:
                raise AlgebraError("relation terms are not parallel")
            if path.length < 2:
                raise AlgebraError("inadmissible relation: term of length < 2")
        self.terms = tuple(cleaned)
        self.source = src
        self.target = tgt

    def __repr__(self) -> str:
        return f"Relation({self.terms!r})"


def cyclic_quiver(vertex_count: int) -> Quiver:
    """The cyclic quiver v0 -> v1 -> ... -> v0 with arrows a0, a1, ..."""
    arrows = [
        Arrow(f"a{i}", i, (i + 1) % vertex_count) for i in range(vertex_count)
    ]
    return Quiver(vertex_count, arrows)


def linear_quiver(vertex_count: int) -> Quiver:
    arrows = [Arrow(f"a{i}", i, i + 1) for i in range(vertex_count - 1)]
    return Quiver(vertex_count, arrows)


class AlgebraPresentation(Cached):
    """A bound quiver algebra KQ/I with I + R^N taken as the defining ideal.

    The constructor checks that every path of length N lies in the span of the
    ideal inside the length<=N truncation.  For genuinely admissible input
    (R^N really contained in I) the computed algebra is exactly KQ/I.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Relation],
        nilpotency_bound: int,
        name: str = "",
    ) -> None:
        if nilpotency_bound < 1:
            raise AlgebraError("nilpotency bound must be >= 1")
        self.quiver = quiver
        self.relations = tuple(relations)
        self.nilpotency_bound = nilpotency_bound
        self.name = name
        super().__init__()
        self._compute_basis()

    # -- basis -------------------------------------------------------------

    def _compute_basis(self) -> None:
        n_bound = self.nilpotency_bound
        all_paths = self.quiver.paths_up_to(n_bound)
        col_of = {p: j for j, p in enumerate(all_paths)}
        ncols = len(all_paths)

        rows = []
        for rel in self.relations:
            min_len = min(p.length for _, p in rel.terms)
            us = [
                u
                for u in all_paths
                if u.target == rel.source and u.length <= n_bound - min_len
            ]
            for u in us:
                budget = n_bound - u.length - min_len
                ws = [
                    w
                    for w in all_paths
                    if w.source == rel.target and w.length <= budget
                ]
                for w in ws:
                    vec = [0] * ncols
                    nonzero = False
                    for coeff, p in rel.terms:
                        total = u.length + p.length + w.length
                        if total > n_bound:
                            continue
                        full = Path(u.source, w.target, u.arrows + p.arrows + w.arrows)
                        vec[col_of[full]] += coeff
                        nonzero = True
                    if nonzero and any(x != 0 for x in vec):
                        rows.append(vec)

        if rows:
            ideal = Matrix.from_rows(rows)
            red, pivots = ideal.rref()
        else:
            red, pivots = Matrix.zeros(0, ncols), ()
        pivot_set = set(pivots)
        pivot_row = {c: k for k, c in enumerate(pivots)}

        # nilpotency check: every length-N path must be a pivot whose row is a unit vector
        for p in all_paths:
            if p.length != n_bound:
                continue
            j = col_of[p]
            ok = j in pivot_set
            if ok:
                row = red.row(pivot_row[j])
                ok = all(x == 0 for i, x in enumerate(row) if i != j)
            if not ok:
                raise AlgebraError(
                    f"nilpotency bound violated: path of length {n_bound} "
                    "does not lie in the ideal"
                )

        basis = [
            p for p in all_paths if p.length < n_bound and col_of[p] not in pivot_set
        ]
        self.basis: tuple[Path, ...] = tuple(basis)
        self.basis_index = {p: i for i, p in enumerate(basis)}
        self.dim = len(basis)

        # reduction table: every path of length < N -> coordinates in the basis
        reduce_table: dict[Path, list] = {}
        for p in all_paths:
            if p.length >= n_bound:
                continue
            j = col_of[p]
            if j not in pivot_set:
                vec = [0] * self.dim
                vec[self.basis_index[p]] = 1
            else:
                row = red.row(pivot_row[j])
                vec = [0] * self.dim
                for jj, x in enumerate(row):
                    if jj == j or x == 0:
                        continue
                    q = all_paths[jj]
                    vec[self.basis_index[q]] -= x
            reduce_table[p] = vec
        self._reduce_table = reduce_table

        by_source = [[] for _ in range(self.quiver.vertex_count)]
        by_target = [[] for _ in range(self.quiver.vertex_count)]
        for i, p in enumerate(basis):
            by_source[p.source].append(i)
            by_target[p.target].append(i)
        self.basis_by_source = [tuple(ix) for ix in by_source]
        self.basis_by_target = [tuple(ix) for ix in by_target]

    # -- algebra structure ---------------------------------------------------

    def reduce_path(self, p: Path) -> list:
        """Coordinates of a path's residue in the algebra basis."""
        if p.length >= self.nilpotency_bound:
            return [0] * self.dim
        try:
            return list(self._reduce_table[p])
        except KeyError:
            raise AlgebraError(f"path {p!r} is not a path of this quiver") from None

    # -- derived presentations ----------------------------------------------

    @memoized("opposite")
    def opposite(self) -> "AlgebraPresentation":
        """The opposite algebra: same vertices, reversed arrows and relations."""
        opp = AlgebraPresentation(
            self.quiver.opposite(),
            [Relation([(c, self.reverse_path(p)) for c, p in rel.terms]) for rel in self.relations],
            self.nilpotency_bound,
            name=f"{self.name}^op" if self.name else "op",
        )
        cached(opp, "opposite", lambda: self)  # (A^op)^op is A itself
        return opp

    def reverse_path(self, p: Path) -> Path:
        """The same walk read backwards, as a path of the opposite quiver."""
        return Path(p.target, p.source, tuple(reversed(p.arrows)))

    @classmethod
    def truncated(
        cls, quiver: Quiver, bound: int, name: str = ""
    ) -> "AlgebraPresentation":
        """Monomial truncation: all paths of length == bound are relations."""
        relations = [Relation([(1, p)]) for p in quiver.paths_of_length(bound)]
        return cls(quiver, relations, bound, name=name)

    def __repr__(self) -> str:
        label = self.name or "algebra"
        return (
            f"AlgebraPresentation({label}: {self.quiver.vertex_count} vertices, "
            f"{len(self.quiver.arrows)} arrows, dim {self.dim})"
        )
