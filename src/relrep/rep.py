"""Finite dimensional representations of a bound quiver algebra.

A module is a dimension vector plus one exact matrix per arrow; a morphism is
one matrix per vertex commuting with the arrow action.  Everything is plain
linear algebra over QQ.

Every module has one ``Presentation``, computed on first use by
``presentation`` and minimal: generators at vertices v_1..v_r, one per
summand of the projective cover P(v_1) + ... + P(v_r) -> M, and relations,
one per top generator of the cover's kernel.  A projective of
``proj_module`` presents itself; a direct sum concatenates the presentations
of its summands; any other module, quotients and cokernels included, takes
its presentation from its projective cover.  Hom
spaces have one route: evaluation at the generators embeds Hom(M, Y) in
e_{v_1} Y + ... + e_{v_r} Y as the vectors that every relation kills, kept
as ``gens``, so coordinates come off generator images, and composites over a
whole basis off one product (after a fixed map) or off path operators
(before one), with no basis map built.
"""

from __future__ import annotations

from math import isqrt, lcm
from typing import Sequence

from .cache import Cached, cached, cached_pair, involution, memoized
from .exact_linalg import (
    Matrix,
    _canon_row,
    block_diag,
    complement_projection,
    exact_div,
    gather_columns,
    hstack,
    rational,
    vstack,
)
from .path_algebra import AlgebraError, AlgebraPresentation, Path


class ExpressionError(ValueError):
    """Raised for malformed module expressions."""


class Presentation:
    """A minimal projective presentation P1 -> P0 -> M -> 0 of a module M.

    M is the quotient of P0 = P(v_1) + ... + P(v_r), the v_i being
    ``vertices``, by the submodule generated by ``relations``.  A relation is
    a tuple of ``(i, c, p)`` triples, p a path from v_i and all of them ending
    at one vertex w, standing for the element sum c p·e_i of P0, e_i the
    trivial path of the i-th summand: the image of the generator of the
    summand P(w) of P1.  Both are minimal: r is dim top M, and the relations
    are as many as the summands of P1.  None means no relation and identity
    sections: M is the projective P0 itself on its path basis.
    ``sections[w]`` embeds M_w into the path coordinates of (P0)_w,
    generator by generator (the paths of
    ``proj_module(v_i)._proj_paths[w]``); a direct sum has None, its
    summands' sections applying block by block.  ``generators[i]``, a column
    over M at v_i, is the class of e_i.
    """

    __slots__ = ("vertices", "relations", "sections", "generators", "_labels", "_units")

    def __init__(self, vertices: tuple, relations: tuple | None, sections, generators: tuple):
        self.vertices = vertices
        self.relations = relations
        self.sections = sections
        self.generators = generators
        self._labels = None
        self._units = None

    def labels(self, algebra: AlgebraPresentation) -> list[list[tuple]]:
        """Per vertex w, the ``(i, p)`` naming each path coordinate of P_w."""
        if self._labels is None:
            self._labels = [
                [(i, p) for i, v in enumerate(self.vertices) for p in proj_module(algebra, v)._proj_paths[w]]
                for w in range(algebra.quiver.vertex_count)
            ]
        return self._labels

    def values(self, maps: Sequence[Matrix]) -> list[list]:
        """The value at each generator of the vertex maps ``maps``: one list
        per generator, over the target's space at its vertex."""
        if self._units is None:
            # k for a generator that is the unit vector e_k, else None
            self._units = []
            for g in self.generators:
                nonzero = [(k, row[0]) for k, row in enumerate(g._data) if row[0]]
                self._units.append(nonzero[0][0] if len(nonzero) == 1 and nonzero[0][1] == 1 else None)
        return [
            (maps[v] @ g).flatten() if k is None else [row[k] for row in maps[v]._data]
            for v, g, k in zip(self.vertices, self.generators, self._units)
        ]


class Module(Cached):
    """A representation: vertex dimensions plus an exact matrix per arrow.

    The matrix for an arrow a: i -> j has shape dims[j] x dims[i] and acts on
    column vectors.  Instances are immutable by convention; identity is object
    identity (no structural __eq__), so results about a module are cached on
    it (see ``relrep.cache``).  A direct sum is a view over its ``summands``
    and ``_offsets`` (``_offsets[s][v]`` is where summand s starts inside
    vertex space v): its arrow maps are assembled on first read, and until
    then its path actions are assembled from the summands' (``direct_sum``).
    """

    __slots__ = (
        "algebra",
        "dims",
        "_arrow_maps",
        "summands",
        "_offsets",
        "_proj_paths",
        "_proj_vertex",
        "__weakref__",
    )

    def __init__(
        self,
        algebra: AlgebraPresentation,
        dims: Sequence[int],
        arrow_maps: Sequence[Matrix] | None,
        validate: bool = True,
    ) -> None:
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.quiver.vertex_count:
            raise AlgebraError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise AlgebraError("negative dimension")
        if arrow_maps is not None:
            # None: a sum whose maps ``direct_sum`` leaves to be assembled
            arrow_maps = tuple(arrow_maps)
            if len(arrow_maps) != len(algebra.quiver.arrows):
                raise AlgebraError("need one matrix per arrow")
            for idx, a in enumerate(algebra.quiver.arrows):
                m = arrow_maps[idx]
                if m.rows != self.dims[a.target] or m.cols != self.dims[a.source]:
                    raise AlgebraError(
                        f"arrow {a.name}: expected shape "
                        f"{self.dims[a.target]}x{self.dims[a.source]}, got {m.rows}x{m.cols}"
                    )
        self._arrow_maps = arrow_maps
        self.summands: tuple[Module, ...] | None = None
        self._offsets = None
        self._proj_paths = None
        self._proj_vertex = None
        super().__init__()
        if validate:
            self._validate_relations()

    # -- structure ----------------------------------------------------------

    def _validate_relations(self) -> None:
        for rel in self.algebra.relations:
            acc = None
            for coeff, path in rel.terms:
                term = self.action(path).scale(coeff)
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                raise AlgebraError("arrow maps violate a defining relation")
        bound = self.algebra.nilpotency_bound
        for path in self.algebra.quiver.paths_of_length(bound):
            if not self.action(path).is_zero():
                raise AlgebraError(
                    f"arrow maps violate nilpotency: length-{bound} path acts nonzero"
                )

    @property
    def arrow_maps(self) -> tuple[Matrix, ...]:
        """One matrix per arrow; a sum's are assembled block-diagonally from
        its summands' on first read, and kept."""
        maps = self._arrow_maps
        if maps is None:
            arrows = range(len(self.algebra.quiver.arrows))
            maps = self._arrow_maps = tuple(block_diag([s.arrow_maps[idx] for s in self.summands]) for idx in arrows)
        return maps

    @memoized("action")
    def action(self, path: Path) -> Matrix:
        """The matrix of a path acting on this module (first arrow first); on
        a sum whose maps are not built, the block diagonal of its summands'."""
        arrows = path.arrows
        if not arrows:
            return Matrix.identity(self.dims[path.source])
        if self._arrow_maps is None:
            return block_diag([s.action(path) for s in self.summands])
        m = self.arrow_maps[arrows[0]]
        for idx in arrows[1:]:
            m = self.arrow_maps[idx] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self) -> str:
        return f"Module(dims={self.dims})"


class Morphism:
    """A homomorphism of representations: one matrix per vertex."""

    __slots__ = ("source", "target", "maps")

    def __init__(
        self,
        source: Module,
        target: Module,
        maps: Sequence[Matrix],
        validate: bool = True,
    ) -> None:
        if source.algebra is not target.algebra:
            raise AlgebraError("morphism endpoints live over different algebras")
        self.source = source
        self.target = target
        self.maps = tuple(maps)
        if len(self.maps) != len(source.dims):
            raise AlgebraError("need one matrix per vertex")
        for v, m in enumerate(self.maps):
            if m.rows != target.dims[v] or m.cols != source.dims[v]:
                raise AlgebraError(
                    f"vertex {v}: expected {target.dims[v]}x{source.dims[v]}, "
                    f"got {m.rows}x{m.cols}"
                )
        if validate:
            self._validate_commutes()

    @classmethod
    def _make(cls, source: Module, target: Module, maps) -> "Morphism":
        return cls(source, target, maps, validate=False)

    def _validate_commutes(self) -> None:
        for idx, a in enumerate(self.source.algebra.quiver.arrows):
            lhs = self.maps[a.target] @ self.source.arrow_maps[idx]
            rhs = self.target.arrow_maps[idx] @ self.maps[a.source]
            if not (lhs == rhs):
                raise AlgebraError(f"maps do not commute with arrow {a.name}")

    # -- algebra of morphisms ------------------------------------------------

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self after other (usual g @ f reading)."""
        if other.target is not self.source and other.target.dims != self.source.dims:
            raise AlgebraError("composition shape mismatch")
        return Morphism._make(
            other.source,
            self.target,
            tuple(g @ f for g, f in zip(self.maps, other.maps)),
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        return Morphism._make(
            self.source, self.target, tuple(a + b for a, b in zip(self.maps, other.maps))
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        return Morphism._make(
            self.source, self.target, tuple(a - b for a, b in zip(self.maps, other.maps))
        )

    def scale(self, c) -> "Morphism":
        c = rational(c)
        return Morphism._make(self.source, self.target, tuple(m.scale(c) for m in self.maps))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.maps)

    def is_mono(self) -> bool:
        return all(m.kernel_basis().cols == 0 for m in self.maps)

    def is_epi(self) -> bool:
        return all(m.rank() == m.rows for m in self.maps)

    def is_iso(self) -> bool:
        return all(m.rows == m.cols and m.rank() == m.rows for m in self.maps)

    def flat(self) -> list:
        out = []
        for m in self.maps:
            out.extend(m.flatten())
        return out

    @classmethod
    def identity(cls, module: Module) -> "Morphism":
        return cls._make(module, module, tuple(Matrix.identity(d) for d in module.dims))

    @classmethod
    def zero(cls, source: Module, target: Module) -> "Morphism":
        return cls._make(
            source,
            target,
            tuple(Matrix.zeros(t, s) for t, s in zip(target.dims, source.dims)),
        )

    @classmethod
    def from_flat(cls, source: Module, target: Module, vec: Sequence) -> "Morphism":
        maps = []
        pos = 0
        for v in range(len(source.dims)):
            r, c = target.dims[v], source.dims[v]
            maps.append(
                Matrix(r, c, [[vec[pos + i * c + j] for j in range(c)] for i in range(r)])
            )
            pos += r * c
        return cls._make(source, target, tuple(maps))

    def __repr__(self) -> str:
        return f"Morphism({self.source.dims} -> {self.target.dims})"


class ShortExactSequence:
    """0 -> A -f-> B -g-> C -> 0, validated at construction."""

    __slots__ = ("f", "g")

    def __init__(self, f: Morphism, g: Morphism) -> None:
        if f.target is not g.source and f.target.dims != g.source.dims:
            raise AlgebraError("middle terms do not match")
        if not f.is_mono():
            raise AlgebraError("first map is not injective")
        if not g.is_epi():
            raise AlgebraError("second map is not surjective")
        for gv, fv in zip(g.maps, f.maps):
            if not (gv @ fv).is_zero():
                raise AlgebraError("composite g o f is nonzero")
            # f mono gives rank fv = cols fv and g epi rank gv = rows gv, so
            # exactness needs cols fv = dim ker gv = cols gv - rows gv
            if fv.cols != gv.cols - gv.rows:
                raise AlgebraError("sequence is not exact in the middle")
        self.f = f
        self.g = g

    @property
    def sub(self) -> Module:
        return self.f.source

    @property
    def middle(self) -> Module:
        return self.f.target

    @property
    def quotient(self) -> Module:
        return self.g.target

    def __repr__(self) -> str:
        return (
            f"SES({self.sub.dims} -> {self.middle.dims} -> {self.quotient.dims})"
        )


# -- constructions ----------------------------------------------------------


@memoized("proj")
def proj_module(algebra: AlgebraPresentation, vertex: int) -> Module:
    """The indecomposable projective at a vertex, on its path basis."""
    quiver = algebra.quiver
    per_vertex: list[list[Path]] = [[] for _ in range(quiver.vertex_count)]
    for idx in algebra.basis_by_source[vertex]:
        p = algebra.basis[idx]
        per_vertex[p.target].append(p)
    pos = {p: k for w in range(quiver.vertex_count) for k, p in enumerate(per_vertex[w])}
    dims = [len(per_vertex[w]) for w in range(quiver.vertex_count)]
    maps = []
    for idx, a in enumerate(quiver.arrows):
        m = Matrix.zeros(dims[a.target], dims[a.source])
        for col, p in enumerate(per_vertex[a.source]):
            ext = quiver.concat(p, quiver.arrow_path(idx))
            coords = algebra.reduce_path(ext)
            for bi, c in enumerate(coords):
                if c != 0:
                    q = algebra.basis[bi]
                    m._data[pos[q]][col] = c
        maps.append(m)
    mod = Module(algebra, dims, maps, validate=False)
    mod._proj_paths = tuple(tuple(ps) for ps in per_vertex)
    mod._proj_vertex = vertex
    return mod


@memoized("inj")
def inj_module(algebra: AlgebraPresentation, vertex: int) -> Module:
    """The indecomposable injective at a vertex: dual of the opposite projective."""
    return dualize(proj_module(algebra.opposite(), vertex))


def simple_module(algebra: AlgebraPresentation, vertex: int) -> Module:
    """The simple at a vertex: the shared atom P(vertex)/rad^1."""
    return radical_quotient_atom(proj_module(algebra, vertex), 1)


@memoized("regular")
def regular_module(algebra: AlgebraPresentation) -> Module:
    """The algebra as a module: direct sum of all indecomposable projectives."""
    return direct_sum(
        algebra, [proj_module(algebra, v) for v in range(algebra.quiver.vertex_count)]
    )


@memoized("cogenerator")
def cogenerator_module(algebra: AlgebraPresentation) -> Module:
    """Direct sum of all indecomposable injectives."""
    return direct_sum(
        algebra, [inj_module(algebra, v) for v in range(algebra.quiver.vertex_count)]
    )


def direct_sum(algebra: AlgebraPresentation, parts: Sequence[Module]) -> Module:
    """The sum of ``parts`` as a view: it records the summands and their
    offsets, and builds no arrow map until one is read (``Module.arrow_maps``)."""
    parts = list(parts)
    for p in parts:
        if p.algebra is not algebra:
            raise AlgebraError("direct sum over mixed algebras")
    offs, running = [], (0,) * algebra.quiver.vertex_count
    for p in parts:
        offs.append(running)
        running = tuple(r + d for r, d in zip(running, p.dims))
    mod = Module(algebra, running, None, validate=False)
    mod.summands = tuple(parts)
    mod._offsets = offs
    return mod


def flatten_atoms(m: Module) -> list[Module]:
    """The leaves of the summand tree of ``m``, left to right (``[m]`` if it is not a sum).

    Zero leaves are kept; this is the order in which hom spaces out of and
    into sums lay out their bases.
    """
    if m.summands is None:
        return [m]
    out: list[Module] = []
    for s in m.summands:
        out.extend(flatten_atoms(s))
    return out


def nonzero_atoms(m: Module) -> tuple[Module, ...]:
    """The nonzero leaves of ``flatten_atoms(m)``, in order.  Cached on m
    when m is a sum (a module that is not one is its own leaf)."""
    if m.summands is None:
        return () if m.is_zero() else (m,)
    return cached(m, "nonzero atoms", _nonzero_leaves, m)


def _nonzero_leaves(m: Module) -> tuple[Module, ...]:
    return tuple(a for a in flatten_atoms(m) if not a.is_zero())


def assemble_from_components(sum_source: Module, target: Module, comps: Sequence[Morphism]) -> Morphism:
    """Morphism out of a direct sum with the given restrictions to summands."""
    plist = sum_source.summands
    if plist is None or len(comps) != len(plist):
        raise AlgebraError("component count mismatch")
    maps = []
    for w in range(len(sum_source.dims)):
        blocks = [c.maps[w] for c in comps]
        if blocks:
            maps.append(hstack(blocks))
        else:
            maps.append(Matrix.zeros(target.dims[w], 0))
    return Morphism._make(sum_source, target, tuple(maps))


def assemble_into_components(source: Module, sum_target: Module, comps: Sequence[Morphism]) -> Morphism:
    plist = sum_target.summands
    if plist is None or len(comps) != len(plist):
        raise AlgebraError("component count mismatch")
    maps = []
    for w in range(len(source.dims)):
        blocks = [c.maps[w] for c in comps]
        if blocks:
            maps.append(vstack(blocks))
        else:
            maps.append(Matrix.zeros(0, source.dims[w]))
    return Morphism._make(source, sum_target, tuple(maps))


# -- kernels, images, quotients ---------------------------------------------


def kernel(f: Morphism) -> tuple[Module, Morphism]:
    """Kernel submodule with its inclusion.

    The kernel basis B_v of f_v is the identity at the free (non-pivot)
    columns of f_v's RREF, so an arrow a: u -> v restricts to the rows of
    a @ B_u at the free columns of f_v; one product checks closure.
    """
    module = f.source
    bases = []
    frees = []
    for m in f.maps:
        bases.append(m.kernel_basis())
        pivots = set(m.rref()[1])
        frees.append([j for j in range(m.cols) if j not in pivots])
    maps = []
    for idx, a in enumerate(module.algebra.quiver.arrows):
        moved = module.arrow_maps[idx] @ bases[a.source]
        restricted = moved.take_rows(frees[a.target])
        if not (bases[a.target] @ restricted == moved):
            raise AlgebraError("kernel is not closed under the arrow action")
        maps.append(restricted)
    sub = Module(module.algebra, [b.cols for b in bases], maps, validate=False)
    return sub, Morphism._make(sub, module, tuple(bases))


def image(f: Morphism) -> tuple[Module, Morphism]:
    """Image submodule of the target with its inclusion."""
    module = f.target
    bases = [m.column_space_basis() for m in f.maps]
    maps = []
    for idx, a in enumerate(module.algebra.quiver.arrows):
        sol = bases[a.target].solve_right(module.arrow_maps[idx] @ bases[a.source])
        if sol is None:
            raise AlgebraError("image is not closed under the arrow action")
        maps.append(sol)
    sub = Module(module.algebra, [b.cols for b in bases], maps, validate=False)
    return sub, Morphism._make(sub, module, tuple(bases))


def quotient_by_subspaces(
    module: Module, sub_bases: Sequence[Matrix]
) -> tuple[Module, Morphism, tuple[Matrix, ...]]:
    """Quotient by an arrow-stable family of subspaces.

    ``sub_bases[v]`` has columns spanning the subspace at vertex v (they need
    not be independent).  Returns the quotient, the projection, and per-vertex
    sections s_v with proj_v @ s_v = id (used to transport morphisms along the
    quotient).
    """
    projs = []
    frees = []
    for s in sub_bases:
        proj, free = complement_projection(s)
        projs.append(proj)
        frees.append(free)
    maps = [
        projs[a.target] @ module.arrow_maps[idx].take_columns(frees[a.source])
        for idx, a in enumerate(module.algebra.quiver.arrows)
    ]
    quot = Module(module.algebra, [p.rows for p in projs], maps, validate=False)
    proj = Morphism._make(module, quot, tuple(projs))
    sections = tuple(
        Matrix._trusted(n, len(free), [[int(j == f) for f in free] for j in range(n)])
        for n, free in zip(module.dims, frees)
    )
    return quot, proj, sections


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel of f with its projection: a plain quotient of the target,
    presented from its own cover on first use (see ``presentation``)."""
    quot, proj, _ = quotient_by_subspaces(f.target, f.maps)
    return quot, proj


def radical_spans(module: Module, power: int = 1) -> list[Matrix]:
    """Per vertex w, the images of the length-``power`` paths ending at w side
    by side: columns spanning (rad^power M)_w, not reduced to a basis.  Past
    the nilpotency bound N the spans are empty: the defining ideal contains
    every path of length N, so no path needs enumerating."""
    if power >= module.algebra.nilpotency_bound:
        return [Matrix.zeros(d, 0) for d in module.dims]
    per_vertex: list[list[Matrix]] = [[] for _ in module.dims]
    for p in module.algebra.quiver.paths_of_length(power):
        m = module.action(p)
        if m.cols and not m.is_zero():
            per_vertex[p.target].append(m)
    return [hstack(ms) if ms else Matrix.zeros(d, 0) for d, ms in zip(module.dims, per_vertex)]


def radical_quotient(module: Module, power: int) -> tuple[Module, Morphism]:
    """M / rad^power M with its projection: a plain quotient of M, presented
    from its own cover on first use (see ``presentation``)."""
    if power < 1:
        raise AlgebraError("radical power must be >= 1")
    quot, proj, _ = quotient_by_subspaces(module, radical_spans(module, power))
    return quot, proj


def radical_quotient_atom(base: Module, power: int) -> Module:
    """base / rad^power base as an atom shared by every caller: computed once
    per (base, power) and cached on base, so what later queries cache on the
    quotient serves them all.  Powers from the nilpotency bound N on share
    the entry of N (rad^N is zero), so any power adds at most one entry."""
    return _radical_quotient_atom(base, min(power, base.algebra.nilpotency_bound))


@memoized("radical quotient")
def _radical_quotient_atom(base: Module, power: int) -> Module:
    return radical_quotient(base, power)[0]


def loewy_length(module: Module) -> int:
    k = 0
    current = module.dims
    while any(d > 0 for d in current):
        k += 1
        current = tuple(s.rank() for s in radical_spans(module, k))
        if k > module.total_dim + 1:
            raise AlgebraError("radical series does not terminate")
    return k


# -- presentations --------------------------------------------------------------


def top_generators(x: Module) -> list[tuple[int, int]]:
    """``(v, k)`` for each generator of a minimal projective cover of x: the
    coordinates k that ``complement_projection`` leaves free in the span of
    the arrow images into v, (rad x)_v, so the unit vectors e_k map to a basis
    of top(x)_v."""
    return [
        (v, k) for v, span in enumerate(radical_spans(x, 1)) for k in complement_projection(span)[1]
    ]


def _cover_maps(x: Module, gens: Sequence[tuple[Module, int]]) -> tuple[Matrix, ...]:
    """The vertex maps of the cover of x by one P(v) per ``(P(v), k)`` of
    ``gens``, sending a path p of that P(v) to column k of x.action(p)."""
    return tuple(
        gather_columns(d, [(x.action(p), k) for pv, k in gens for p in pv._proj_paths[w]])
        for w, d in enumerate(x.dims)
    )


def projective_cover(x: Module) -> Morphism:
    """The minimal epi onto x from a direct sum of indecomposable projectives,
    one per generator of ``top_generators`` (see ``_cover_maps``).  The
    source carries its summand layout; each summand records the vertex of the
    projective it is a copy of."""
    algebra = x.algebra
    gens = [(proj_module(algebra, v), k) for v, k in top_generators(x)]
    source = direct_sum(algebra, [pv for pv, _ in gens])
    return Morphism._make(source, x, _cover_maps(x, gens))


@memoized("presentation")
def presentation(m: Module) -> Presentation:
    """The minimal presentation of m, computed once and cached on m.

    A projective of ``proj_module`` presents itself: no relation, identity
    sections.  A direct sum concatenates its summands' generators and
    relations.  Any other module is presented by its projective cover: its
    generators are those of ``top_generators``, its relations the top
    generators of the cover's kernel, and its sections right inverses of the
    cover's vertex maps."""
    if m._proj_vertex is not None:
        v = m._proj_vertex
        gen = Matrix.zeros(m.dims[v], 1)
        gen._data[m._proj_paths[v].index(m.algebra.quiver.trivial_path(v))][0] = 1
        return Presentation((v,), None, tuple(Matrix.identity(d) for d in m.dims), (gen,))
    if m.summands is not None:
        parts = [presentation(s) for s in m.summands]
        relations, generators, shift = [], [], 0
        for p, off in zip(parts, m._offsets):
            relations.extend(tuple((i + shift, c, q) for i, c, q in rel) for rel in p.relations or ())
            shift += len(p.vertices)
            for v, g in zip(p.vertices, p.generators):
                col = Matrix.zeros(m.dims[v], 1)
                col._data[off[v] : off[v] + g.rows] = g.to_lists()
                generators.append(col)
        return Presentation(tuple(v for p in parts for v in p.vertices), tuple(relations), None, tuple(generators))
    algebra = m.algebra
    gens = [(proj_module(algebra, v), k) for v, k in top_generators(m)]
    labels = [[(i, p) for i, (pv, _) in enumerate(gens) for p in pv._proj_paths[w]] for w in range(len(m.dims))]
    # the cover is onto: each vertex map has a right inverse, and its kernel
    # K_w is the identity at the free columns, so an arrow restricts to K by
    # the rows there; the top generators of K are the relations
    sections, kernels, frees = [], [], []
    for pi in _cover_maps(m, gens):
        section, kern = pi.section_and_kernel()
        sections.append(section)
        kernels.append(kern)
        # kernel vector t has its 1 at free column f_t and nonzeros only above
        frees.append([max(j for j, row in enumerate(kern._data) if row[t]) for t in range(kern.cols)])
    rad: list[list[Matrix]] = [[] for _ in m.dims]
    for idx, a in enumerate(algebra.quiver.arrows):
        moved = block_diag([pv.arrow_maps[idx] for pv, _ in gens]) @ kernels[a.source]
        rad[a.target].append(moved.take_rows(frees[a.target]))
    relations = tuple(
        tuple((i, row[k], p) for row, (i, p) in zip(kernels[w]._data, labels[w]) if row[k])
        for w, ker in enumerate(kernels)
        for k in complement_projection(hstack(rad[w]) if rad[w] else Matrix.zeros(ker.cols, 0))[1]
    )
    return Presentation(
        tuple(pv._proj_vertex for pv, _ in gens),
        relations,
        tuple(sections),
        tuple(Matrix.identity(m.dims[pv._proj_vertex]).column_vector(k) for pv, k in gens),
    )


# -- duality -----------------------------------------------------------------


def dualize(module: Module) -> Module:
    """The QQ-dual as a module over the opposite algebra; an exact duality.

    The dual is held by the module and holds it weakly (see
    ``relrep.cache.involution``): dualizing the dual gives the module back
    while the module lives."""
    return involution(module, "dual", _dual)


def _dual(module: Module) -> Module:
    op = module.algebra.opposite()
    if module.summands is not None:
        return direct_sum(op, [dualize(s) for s in module.summands])
    return Module(op, module.dims, [m.transpose() for m in module.arrow_maps], validate=False)


def dualize_morphism(f: Morphism) -> Morphism:
    return Morphism._make(
        dualize(f.target), dualize(f.source), tuple(m.transpose() for m in f.maps)
    )


# -- hom spaces ---------------------------------------------------------------


def _value_offsets(x: Module, y: Module) -> tuple[list[int], int]:
    """Where the value at each generator of x's presentation starts in the
    stacked vector over e_{v_1} y + ... + e_{v_r} y, and its length."""
    offsets, pos = [], 0
    for v in presentation(x).vertices:
        offsets.append(pos)
        pos += y.dims[v]
    return offsets, pos


class _HomCore(Cached):
    """The module-free part of Hom(X, Y), cached on the younger of X and Y:
    ``gens``, ``offsets``, whether the space is all of its ambient space, the
    left inverse of ``gens`` and the vertex maps of the basis (both built on
    first use), and the composition tables of this space with others."""

    __slots__ = ("gens", "offsets", "free", "solver", "basis")

    def __init__(self, gens: Matrix, offsets: list[int], free: bool):
        self.gens = gens
        self.offsets = offsets
        self.free = free
        self.solver = None
        self.basis = None
        super().__init__()


class HomSpace:
    """Hom(X, Y): its dimension, generator coordinates, and a basis built on first use.

    Evaluation at the generators g_1..g_r of X's presentation embeds Hom(X, Y)
    in e_{v_1} Y + ... + e_{v_r} Y.  ``gens`` holds the generator images of
    the basis maps as its columns, the value at g_i in the rows from
    ``offsets[i]``; it is the identity when Hom(X, Y) is all of that space.
    Coordinates are read off generator images.

    A HomSpace is a view, built on each ``hom_space`` lookup: it holds X and
    Y and a copy of the fields of the cached core, which holds no module.
    """

    __slots__ = ("source", "target", "dim", "gens", "offsets", "_free", "_core", "_basis", "_morphisms")

    def __init__(self, source: Module, target: Module, core: _HomCore):
        self.source = source
        self.target = target
        self.dim = core.gens.cols
        self.gens = core.gens
        self.offsets = core.offsets
        self._free = core.free
        self._core = core
        self._basis = core.basis
        self._morphisms = None

    @property
    def basis(self) -> list[Morphism]:
        if self._morphisms is None:
            if self._basis is None:
                core = self._core
                if core.basis is None:
                    core.basis = [self.basis_map(j).maps for j in range(self.dim)]
                self._basis = core.basis
            self._morphisms = [Morphism._make(self.source, self.target, maps) for maps in self._basis]
        return self._morphisms

    def basis_map(self, j: int) -> Morphism:
        """The j-th basis map, built alone off its generator images while the
        basis vertex maps are not built."""
        if self._basis is not None:
            return Morphism._make(self.source, self.target, self._basis[j])
        return morphism_from_generator(self.source, self.target, self.gens.column_vector(j))

    def generator_coords(self, images: Matrix) -> Matrix:
        """Coordinates, as columns, of the maps whose stacked generator images
        are the columns of ``images``; raises if one is not in the space."""
        if self._free:
            return images
        if self.dim == 0:
            if not images.is_zero():
                raise AlgebraError("morphism not in hom space")
            return Matrix.zeros(0, images.cols)
        # gens has full column rank: a left inverse computed once gives the
        # candidate coordinates, and gens @ sol == images checks membership
        core = self._core
        if core.solver is None:
            core.solver = self.gens.left_inverse()
        sol = core.solver @ images
        if self.gens @ sol != images:
            raise AlgebraError("morphism not in hom space")
        return sol

    def coords(self, f: Morphism) -> list:
        """The coordinates of f; raises unless f is a morphism of the space."""
        try:
            f._validate_commutes()
        except AlgebraError:
            raise AlgebraError("morphism not in hom space") from None
        values = presentation(self.source).values(f.maps)
        images = Matrix._trusted(self.gens.rows, 1, [[c] for vals in values for c in vals])
        return self.generator_coords(images).flatten()

    def from_coords(self, cs: Sequence) -> Morphism:
        if len(cs) != self.dim:
            raise AlgebraError("coordinate length mismatch")
        return morphism_from_generator(self.source, self.target, self.gens @ Matrix.column(list(cs)))


def path_operator(y: Module, terms: Sequence[tuple], rows: int, offsets: Sequence[int], cols: int) -> Matrix:
    """The ``rows x cols`` matrix with sum c y.action(p) at the columns from
    ``offsets[i]``, over the ``(i, c, p)`` of ``terms``.  For ``terms`` the
    path combination sum c p·g_i of an element of X, and u the stacked values
    u_i at the generators of a map X -> y, the product with u is the map's
    value sum c p·u_i at that element."""
    if len(terms) == 1 and terms[0][1] == 1:
        # one path at the only generator: its action
        action = y.action(terms[0][2])
        if action.cols == cols:
            return action
    out = [[0] * cols for _ in range(rows)]
    for i, c, p in terms:
        off = offsets[i]
        for orow, arow in zip(out, y.action(p)._data):
            for k, a in enumerate(arow):
                if a:
                    orow[off + k] += c * a
    return Matrix(rows, cols, out)


def morphism_from_generator(source: Module, target: Module, u: Matrix) -> Morphism:
    """The morphism out of ``source`` with the stacked generator values u
    (one block per generator of its presentation, over the target at the
    generator's vertex).

    The caller guarantees u satisfies the source's relations (automatic when
    the source is projective).
    """
    if source.summands is not None:
        comps, pos = [], 0
        for s in source.summands:
            n = _value_offsets(s, target)[1]
            comps.append(morphism_from_generator(s, target, u.take_rows(range(pos, pos + n))))
            pos += n
        return assemble_from_components(source, target, comps)
    pres = presentation(source)
    supports, pos = [], 0
    for v in pres.vertices:
        supports.append([(k, row[0]) for k, row in enumerate(u._data[pos : pos + target.dims[v]]) if row[0]])
        pos += target.dims[v]
    maps = []
    for w, labels in enumerate(pres.labels(source.algebra)):
        # column (i, p) is the value p·u_i at the path p of generator i
        phi = [[0] * len(labels) for _ in range(target.dims[w])]
        for col, (i, p) in enumerate(labels):
            if supports[i]:
                for orow, arow in zip(phi, target.action(p)._data):
                    orow[col] = sum(arow[k] * c for k, c in supports[i])
        phi = Matrix._trusted(target.dims[w], len(labels), [_canon_row(row) for row in phi])
        maps.append(phi if pres.relations is None else phi @ pres.sections[w])
    return Morphism._make(source, target, tuple(maps))


def hom_space(x: Module, y: Module) -> HomSpace:
    """Hom(x, y) in generator coordinates.

    The core is cached on the younger of x and y (modules are immutable; see
    ``relrep.cache``), so the solvers built lazily inside amortize across the
    whole run; each call returns a fresh view over it.
    """
    if x.algebra is not y.algebra:
        raise AlgebraError("hom between modules over different algebras")
    return HomSpace(x, y, _hom_core(x, y))


def _hom_core(x: Module, y: Module) -> _HomCore:
    return cached_pair(x, y, "homspaces", _compute_hom_core, x, y)


def _compute_hom_core(x: Module, y: Module) -> _HomCore:
    """Out of a sum, or from a cyclic module into a sum, gens is block
    diagonal in the summands' cached spaces, and the basis runs summand by
    summand.  Otherwise gens is the kernel of the stacked relation
    operators."""
    if x.summands is not None:
        children = [_hom_core(s, y) for s in x.summands]
        offsets, pos = [], 0
        for c in children:
            offsets.extend(pos + off for off in c.offsets)
            pos += c.gens.rows
        gens = block_diag([c.gens for c in children])
        return _HomCore(gens, offsets, all(c.free for c in children))
    offsets, n = _value_offsets(x, y)
    if y.summands is not None and len(offsets) == 1:
        children = [_hom_core(x, s) for s in y.summands]
        gens = block_diag([c.gens for c in children])
        return _HomCore(gens, offsets, all(c.free for c in children))
    blocks = [
        path_operator(y, rel, y.dims[rel[0][2].target], offsets, n)
        for rel in presentation(x).relations or ()
        if y.dims[rel[0][2].target]
    ]
    if not blocks:
        return _HomCore(Matrix.identity(n), offsets, True)
    return _HomCore(vstack(blocks).kernel_basis(), offsets, False)


def hom_basis(x: Module, y: Module) -> list[Morphism]:
    return hom_space(x, y).basis


def hom_dim(x: Module, y: Module) -> int:
    return hom_space(x, y).dim


# -- composition in coordinates -------------------------------------------------


def path_combination(x: Module, v: int, w: Sequence) -> list[tuple]:
    """The nonzero ``(i, c, p)`` with w = sum c p·g_i, for w a vector of e_v x
    and g_i the generators of x's presentation, read through the section into
    the path coordinates of the cover."""
    if x.summands is not None:
        out, shift = [], 0
        for s, off in zip(x.summands, x._offsets):
            piece = w[off[v] : off[v] + s.dims[v]]
            if any(piece):
                out.extend((i + shift, c, p) for i, c, p in path_combination(s, v, piece))
            shift += len(presentation(s).vertices)
        return out
    pres = presentation(x)
    # with no relation the module is its own cover: its sections are identities
    if pres.relations is not None:
        w = [sum(c * w[j] for j, c in enumerate(row) if c) for row in pres.sections[v]._data]
    return [(i, c, p) for c, (i, p) in zip(w, pres.labels(x.algebra)[v]) if c != 0]


def _combinations(x: Module, vertices: Sequence[int], column: Sequence) -> list[list[tuple]]:
    """For a map h: u -> x given by its stacked values ``column`` at the
    generators of u (at ``vertices``), the path combination of each value
    over the generators of x."""
    out, pos = [], 0
    for v in vertices:
        out.append(path_combination(x, v, column[pos : pos + x.dims[v]]))
        pos += x.dims[v]
    return out


def _evaluate(space: HomSpace, vertices: Sequence[int], combos: Sequence[list]) -> Matrix:
    """Stacked generator images, over the generators of u (at ``vertices``),
    of b∘h for every h: u -> X given by its ``_combinations`` (one entry of
    ``combos``, outer in the column order) and every basis map b of ``space``
    = Hom(X, Y): the values of b at h's generator images."""
    y = space.target
    columns = []
    for per_generator in combos:
        blocks = []
        for v, terms in zip(vertices, per_generator):
            if not (terms and space.dim):
                blocks.append(Matrix.zeros(y.dims[v], space.dim))
                continue
            # the values of the basis maps at sum c p·g_i
            op = path_operator(y, terms, y.dims[v], space.offsets, space.gens.rows)
            blocks.append(op if space._free else op @ space.gens)
        columns.append(blocks[0] if len(blocks) == 1 else vstack(blocks or [Matrix.zeros(0, space.dim)]))
    return hstack(columns) if columns else Matrix.zeros(sum(y.dims[v] for v in vertices), 0)


def _precomposed_images(space: HomSpace, u: Module, columns: Sequence[Sequence]) -> Matrix:
    """``_evaluate`` for maps u -> X given by their stacked generator values,
    one entry of ``columns`` each."""
    vertices = presentation(u).vertices
    return _evaluate(space, vertices, [_combinations(space.source, vertices, c) for c in columns])


def composite_coords(outer, inner) -> Matrix:
    """Coordinates, as columns, of the composites of one morphism h with every
    basis map b_j of a hom space: of h∘b_j when ``outer`` is h and ``inner``
    the space, of b_j∘h when ``outer`` is the space and ``inner`` is h.

    After h the generator images of h∘b_j are h's vertex maps times the row
    blocks of ``gens``, one product per generator; before h they come off
    path operators (see ``_evaluate``).  One ``generator_coords`` reads them.
    """
    if isinstance(outer, Morphism):
        h, space = outer, inner
        result = hom_space(space.source, h.target)
        blocks = [
            h.maps[v] @ space.gens.take_rows(range(off, off + h.source.dims[v]))
            for v, off in zip(presentation(space.source).vertices, space.offsets)
        ]
        images = vstack(blocks) if blocks else Matrix.zeros(0, space.dim)
    else:
        space, h = outer, inner
        result = hom_space(h.source, space.target)
        values = presentation(h.source).values(h.maps)
        images = _precomposed_images(space, h.source, [[c for vals in values for c in vals]])
    return result.generator_coords(images)


def composition_table(outer: HomSpace, inner: HomSpace) -> tuple[Matrix, ...]:
    """Coordinates of the composites of two hom-space bases.

    For outer = Hom(X, Y) with basis a_i and inner = Hom(U, X) with basis b_j,
    column i of ``table[j]`` is the coordinate vector of a_i∘b_j in
    ``hom_space(U, Y)``.  Cached on the younger of the two spaces' cores.
    """
    return cached_pair(outer._core, inner._core, "composition", _composition_table, outer, inner)


def _composition_table(outer: HomSpace, inner: HomSpace) -> tuple[Matrix, ...]:
    # the generator images of b_j are the columns of inner.gens
    result = hom_space(inner.source, outer.target)
    images = _precomposed_images(outer, inner.source, inner.gens.columns())
    coords = result.generator_coords(images)
    n = outer.dim
    return tuple(coords.take_columns(range(j * n, (j + 1) * n)) for j in range(inner.dim))


# -- radicals of endomorphism rings ---------------------------------------------


def trace_form_radical(mult) -> Matrix:
    """Kernel (as columns) of the trace form of an algebra with basis e_0..e_{n-1}.

    ``mult[i][j]`` lists the nonzero ``(m, c)`` pairs of ``e_i e_j = sum c e_m``.
    The form is T(e_i, e_j) = sum_m c_ij^m tr(L_{e_m}), L_x being left
    multiplication by x; over the rationals its kernel is the Jacobson radical.
    """
    n = len(mult)
    # ltrace[m] = trace of left multiplication by e_m
    ltrace = [0] * n
    for m, plane in enumerate(mult):
        for j, pairs in enumerate(plane):
            for t, c in pairs:
                if t == j:
                    ltrace[m] += c
    form = [[sum((c * ltrace[m] for m, c in pairs), 0) for pairs in plane] for plane in mult]
    return Matrix(n, n, form).kernel_basis()


@memoized("end_radical")
def _end_radical_coords(x: Module) -> Matrix:
    """Coordinate basis of rad End(x), in the basis of ``hom_space(x, x)``,
    off the trace form of the regular action.

    Cached on the module, like hom spaces are; the n^2 products come from the
    composition table of End(x) with itself.
    """
    end_space = hom_space(x, x)
    table = composition_table(end_space, end_space)
    n = end_space.dim
    # e_i e_j = b_i∘b_j is column i of table[j]
    return trace_form_radical(
        [
            [[(m, row[i]) for m, row in enumerate(table[j]._data) if row[i]] for j in range(n)]
            for i in range(n)
        ]
    )


@memoized("split_local")
def _split_local(z: Module) -> bool:
    """Whether End(z)/rad is QQ: z is indecomposable with a split local
    endomorphism ring.  Cached on z."""
    return hom_dim(z, z) - _end_radical_coords(z).cols == 1


@memoized("end_top")
def _end_top_projection(z: Module) -> Matrix:
    """The projection End(z) -> End(z)/rad, in the basis of ``hom_space(z, z)``;
    cached on z."""
    return complement_projection(_end_radical_coords(z))[0]


def _stable_power(v: Morphism) -> Morphism:
    """v^N for N the dimension of v's source: by Fitting's lemma the source
    is Ker v^N + Im v^N."""
    n = max(1, v.source.total_dim)
    power = v
    for _ in range(n - 1):
        power = power @ v
    return power


@memoized("local parts")
def local_parts(a: Module) -> tuple:
    """The local summands of a nonzero module ``a`` as ``(part, into,
    onto)``, ``into`` and ``onto`` the vertex maps of the part's inclusion
    into ``a`` and of its projection along the other parts; ``()`` when
    ``a`` is local itself (a cached value holds no reference to its owner).

    Fitting's lemma splits ``a``: for a basis endomorphism phi and a
    rational root lam of the minimal polynomial of phi's image in
    End(a)/rad, psi = (phi - lam)^N with N = dim a gives a = Ker psi + Im
    psi whenever psi is neither 0 nor invertible, and each side is split in
    turn.  When nothing splits, ``a`` is certified local where that is
    cheap: End(a)/rad is QQ, or it is QQ[phi] for one phi whose minimal
    polynomial has degree at most 3 and no rational root, so is
    irreducible.  Any other ``a`` is refused with ``AlgebraError``, which is
    no verdict, and so is one whose minimal polynomials have coefficients
    past ``_ROOT_SEARCH_BOUND``, where the search for roots would not end.
    """
    if _split_local(a):
        return ()
    space = hom_space(a, a)
    top = _end_top_projection(a)
    table = composition_table(space, space)
    identity = Morphism.identity(a)
    unit = Matrix.column(space.coords(identity))
    certified = False
    for j in range(space.dim):
        # left multiplication by phi = b_j: b_j∘b_i is column j of table[i]
        left = hstack([t.column_vector(j) for t in table])
        poly = _minimal_polynomial(top, left, unit)
        roots = _rational_roots(poly)
        if roots is None:
            raise AlgebraError(
                f"endo: atom decomposition undecided for the atom of dimension vector {a.dims}: "
                "minimal polynomial coefficients too large to search for roots"
            )
        for lam in roots:
            power = _stable_power(space.basis_map(j) - identity.scale(lam))
            if not (power.is_zero() or power.is_iso()):
                return _fitting_parts(power)
        certified = certified or (not roots and len(poly) - 1 == top.rows <= 3)
    if certified:
        return ()
    raise AlgebraError(f"endo: atom decomposition undecided for the atom of dimension vector {a.dims}")


def _minimal_polynomial(top: Matrix, left: Matrix, unit: Matrix) -> list:
    """The coefficients, constant first and monic, of the minimal polynomial
    of phi's image under ``top`` (End -> End/rad), for ``left`` the matrix
    of left multiplication by phi and ``unit`` the identity's coordinates."""
    power, images = unit, []
    while True:
        image = top @ power
        if images:
            solution = hstack(images).solve_right(image)
            if solution is not None:
                return [-c for c in solution.flatten()] + [1]
        images.append(image)
        power = left @ power


# the rational root theorem tries the divisors of two coefficients, found by
# trial division up to their square roots
_ROOT_SEARCH_BOUND = 10**12


def _rational_roots(poly: list) -> list | None:
    """The distinct rational roots of sum poly[i] x^i (rational root
    theorem), or None when a coefficient it divides exceeds
    ``_ROOT_SEARCH_BOUND``."""
    scale = 1
    for c in poly:
        scale = lcm(scale, int(rational(c).denominator))
    ints = [int(rational(c) * scale) for c in poly]
    roots = [0] if ints[0] == 0 else []
    while ints[0] == 0:
        ints = ints[1:]
    if max(abs(ints[0]), abs(ints[-1])) > _ROOT_SEARCH_BOUND:
        return None
    for q in _divisors(ints[-1]):
        for p in _divisors(ints[0]):
            for r in {exact_div(p, q), exact_div(-p, q)} - set(roots):
                if sum(c * r**i for i, c in enumerate(ints)) == 0:
                    roots.append(r)
    return roots


def _divisors(n: int) -> set:
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.update((d, n // d))
    return out


def _fitting_parts(power: Morphism) -> tuple:
    """The local parts of a = Ker power + Im power for a Fitting map power
    of a, neither 0 nor invertible, placed in a."""
    parts = []
    halves = (kernel(power), image(power))
    # the inverse of [Ker | Im] at a vertex stacks the two projections
    inverses = [hstack([k, i]).inverse() for k, i in zip(halves[0][1].maps, halves[1][1].maps)]
    start = [0] * len(inverses)
    for sub, incl in halves:
        onto = [inv.take_rows(range(s, s + d)) for inv, s, d in zip(inverses, start, sub.dims)]
        start = [s + d for s, d in zip(start, sub.dims)]
        for part, part_into, part_onto in local_parts(sub) or ((sub, None, None),):
            if part_into is None:
                parts.append((part, incl.maps, tuple(onto)))
            else:
                parts.append(
                    (
                        part,
                        tuple(i @ p for i, p in zip(incl.maps, part_into)),
                        tuple(p @ o for p, o in zip(part_onto, onto)),
                    )
                )
    return tuple(parts)


def placed_parts(m: Module) -> list[tuple]:
    """``(part, into, onto, offsets)`` for the local parts (``local_parts``)
    of the nonzero atoms of m, in order: ``into`` and ``onto`` are the vertex
    maps that place the part in its atom (None when the atom is its own
    part), ``offsets`` the atom's offsets inside m.  By Krull-Schmidt m is
    the sum of these parts."""
    out, running = [], [0] * len(m.dims)
    for a in nonzero_atoms(m):
        out.extend((part, into, onto, running) for part, into, onto in local_parts(a) or ((a, None, None),))
        running = [r + d for r, d in zip(running, a.dims)]
    return out


def iso_classes(parts: Sequence[Module]) -> tuple[list[int], list[int]]:
    """``(classes, keep)`` for local modules: ``classes[s]`` numbers the
    isomorphism class of ``parts[s]`` in order of first appearance, and
    ``keep`` holds the index of each class's first part.  A local part z
    that is a summand of a local a of the same dimension vector is all of
    a, so a is in z's class exactly when ``_multiplicity(z, a)`` is nonzero."""
    classes: list[int] = []
    keep: list[int] = []
    for a in parts:
        k = next(
            (c for c, s in enumerate(keep) if a.dims == parts[s].dims and _multiplicity(parts[s], a)),
            len(keep),
        )
        if k == len(keep):
            keep.append(len(classes))
        classes.append(k)
    return classes, keep


def distinct_atoms(m: Module) -> list[Module]:
    """The local parts of m's atoms (``placed_parts``), one per isomorphism
    class: add(m) is read through them.  Cached on m when m is a sum (a
    module that is not one may be its own part)."""
    if m.summands is None:
        return _distinct_parts(m)
    return cached(m, "distinct atoms", _distinct_parts, m)


def _distinct_parts(m: Module) -> list[Module]:
    parts = [part for part, *_ in placed_parts(m)]
    return [parts[s] for s in iso_classes(parts)[1]]


# -- isomorphism testing -------------------------------------------------------


def _multiplicity(z: Module, a: Module) -> int:
    """How often the local module z is a summand of a: the rank of the
    pairing Hom(z, a) x Hom(a, z) -> End(z)/rad, (f, g) -> g∘f, over the
    dimension of End(z)/rad, which each summand z of a adds to the rank.

    Cached on the younger of z and a (``relrep.cache.cached_pair``), so a
    sweep over long-lived atoms and witnesses reads each pair once."""
    return cached_pair(z, a, "multiplicity", _pairing_rank, z, a)


def _pairing_rank(z: Module, a: Module) -> int:
    into, out = hom_space(z, a), hom_space(a, z)
    if into.dim == 0 or out.dim == 0:
        return 0
    proj = _end_top_projection(z)
    return vstack([proj @ t for t in composition_table(out, into)]).rank() // proj.rows


def is_isomorphic(x: Module, y: Module) -> bool:
    """Exact isomorphism test by Krull-Schmidt; every answer carries a
    certificate.

    "False" comes from the dimension vectors or from unequal
    multiplicities, "true" from equal multiplicities: x (y when only y is
    a sum) is read through the local parts of its atoms
    (``distinct_atoms``), and x is isomorphic to y exactly when each part
    is as often a summand of y as of x.  ``local_parts`` refuses an atom it
    cannot decompose with ``AlgebraError``.
    """
    if x is y:
        return True
    if x.algebra is not y.algebra or x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if x.summands is None and y.summands is not None:
        # isomorphism is symmetric: read the sum, whose atoms are known,
        # rather than split the plain module by Fitting's lemma
        x, y = y, x
    # equal multiplicities make x a summand of y, and equal dimensions make
    # it all of y
    return all(_multiplicity(z, x) == _multiplicity(z, y) for z in distinct_atoms(x))


# -- Nakayama enumeration -------------------------------------------------------


def enumerate_indecomposables_nakayama(algebra: AlgebraPresentation) -> list[Module]:
    """All indecomposables of a Nakayama algebra: radical quotients of projectives.

    Ordered by vertex, then by Loewy length ascending.
    """
    if not algebra.quiver.is_nakayama():
        raise AlgebraError("complete enumeration is only available for Nakayama quivers")
    out = []
    for v in range(algebra.quiver.vertex_count):
        p = proj_module(algebra, v)
        ll = loewy_length(p)
        for j in range(1, ll + 1):
            if j == ll:
                out.append(p)
            else:
                out.append(radical_quotient_atom(p, j))
    return out


# -- module expressions ----------------------------------------------------------


def parse_module_expression(algebra: AlgebraPresentation, text: str) -> Module:
    """Parse expressions like ``P(1)+P(2)+S(1)+P(3)/rad^2`` (vertices 1-based).

    Atoms: P(i) projective, I(i) injective, S(i) simple; an atom may carry a
    single /rad^k quotient; terms are combined with '+' into a direct sum.
    Atoms are shared per algebra: the same term always parses to the same
    module (S(i) is P(i)/rad^1), so what is cached on it serves every later
    expression.  A sum of two or more terms is a fresh module on each call.
    """
    terms = [t.strip() for t in text.split("+")]
    if not terms or any(not t for t in terms):
        raise ExpressionError(f"empty term in module expression {text!r}")
    mods = []
    for term in terms:
        mods.append(_parse_term(algebra, term))
    if len(mods) == 1:
        return mods[0]
    return direct_sum(algebra, mods)


def _parse_term(algebra: AlgebraPresentation, term: str) -> Module:
    rad_power = None
    body = term
    if "/" in term:
        body, _, suffix = term.partition("/")
        body = body.strip()
        suffix = suffix.strip()
        if not suffix.startswith("rad^"):
            raise ExpressionError(f"unknown quotient suffix in {term!r}")
        try:
            rad_power = int(suffix[4:])
        except ValueError:
            raise ExpressionError(f"bad radical power in {term!r}") from None
        if rad_power < 1:
            raise ExpressionError(f"radical power must be >= 1 in {term!r}")
    if len(body) < 4 or body[0] not in "PIS" or body[1] != "(" or body[-1] != ")":
        raise ExpressionError(f"malformed atom {body!r}")
    try:
        vertex = int(body[2:-1])
    except ValueError:
        raise ExpressionError(f"bad vertex number in {body!r}") from None
    if not (1 <= vertex <= algebra.quiver.vertex_count):
        raise ExpressionError(
            f"vertex {vertex} out of range 1..{algebra.quiver.vertex_count}"
        )
    v = vertex - 1
    kind = body[0]
    if kind == "P":
        mod = proj_module(algebra, v)
    elif kind == "I":
        mod = inj_module(algebra, v)
    else:
        mod = simple_module(algebra, v)
    if rad_power is not None:
        mod = radical_quotient_atom(mod, rad_power)
    return mod
