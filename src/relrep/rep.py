"""Finite dimensional representations of a bound quiver algebra.

A module is a dimension vector plus one exact matrix per arrow; a morphism is
one matrix per vertex commuting with the arrow action.  Everything is plain
linear algebra over QQ.

Hom spaces are computed by solving the commutation system.  Three structural
fast paths avoid assembling large systems when the source or target is built
from standard pieces (direct sums, cyclic modules, duals of such): they
produce the same bases, just block by block.  Every route builds its basis
maps only when asked.  A cyclic module carries a ``CyclicHint``: its vertex,
generator and relations, the path combinations that generate the kernel of
the projective cover P(v) -> u.  Radical quotients of hinted modules keep a
hint, and so do cokernels of maps from cyclic modules into a hinted one,
which makes the transpose of a module with an indecomposable P1 cyclic.  Out
of a cyclic module the space works in generator coordinates: evaluation at
the generator embeds Hom(u, Y) in e_v Y as the vectors every relation kills,
so coordinates, and the composition tables that replace compose-then-read
loops, come off generator images and path operators.
"""

from __future__ import annotations

from typing import Sequence

from .cache import Cached, cached_pair, memoized
from .exact_linalg import (
    Matrix,
    block_diag,
    complement_projection,
    hstack,
    intersect_kernels,
    rational,
    vstack,
)
from .path_algebra import AlgebraError, AlgebraPresentation, Path


class ExpressionError(ValueError):
    """Raised for malformed module expressions."""


class CyclicHint:
    """Marks a module as generated by one vector over a single vertex.

    The module is the quotient of the projective P at ``vertex`` by the
    submodule generated by ``relations``; None means no relation, i.e. the
    projective itself.  A relation is a tuple of ``(c, p)`` pairs, p a path
    from ``vertex`` and all of them ending at one vertex, standing for the
    element sum c p of P.  For P/rad^k the relations are the length-k paths
    from the vertex; a hinted cokernel adds the image of each source generator
    (see ``cokernel``).  ``sections`` embed each vertex space back into P's
    path coordinates; ``generator`` is the class of the trivial path.
    """

    __slots__ = ("vertex", "relations", "sections", "generator")

    def __init__(self, vertex: int, relations: tuple | None, sections, generator: Matrix):
        self.vertex = vertex
        self.relations = relations
        self.sections = sections
        self.generator = generator


class Module(Cached):
    """A representation: vertex dimensions plus an exact matrix per arrow.

    The matrix for an arrow a: i -> j has shape dims[j] x dims[i] and acts on
    column vectors.  Instances are immutable by convention; identity is object
    identity (no structural __eq__), so results about a module are cached on
    it (see ``relrep.cache``).
    """

    __slots__ = (
        "algebra",
        "dims",
        "arrow_maps",
        "summands",
        "_offsets",
        "hint",
        "_dual_of",
        "_proj_paths",
        "_proj_vertex",
    )

    def __init__(
        self,
        algebra: AlgebraPresentation,
        dims: Sequence[int],
        arrow_maps: Sequence[Matrix],
        validate: bool = True,
    ) -> None:
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != algebra.quiver.vertex_count:
            raise AlgebraError("dimension vector length mismatch")
        if any(d < 0 for d in self.dims):
            raise AlgebraError("negative dimension")
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
        self.arrow_maps = arrow_maps
        self.summands: tuple[Module, ...] | None = None
        self._offsets = None
        self.hint: CyclicHint | None = None
        self._dual_of: Module | None = None
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

    @memoized("action")
    def action(self, path: Path) -> Matrix:
        """The matrix of a path acting on this module (first arrow first)."""
        arrows = path.arrows
        if not arrows:
            return Matrix.identity(self.dims[path.source])
        m = self.arrow_maps[arrows[0]]
        for idx in arrows[1:]:
            m = self.arrow_maps[idx] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def structurally_equal(self, other: "Module") -> bool:
        """Same algebra, dims and matrices (not isomorphism)."""
        return (
            self.algebra is other.algebra
            and self.dims == other.dims
            and all(a == b for a, b in zip(self.arrow_maps, other.arrow_maps))
        )

    def offsets(self) -> list[tuple[int, ...]]:
        """offsets()[s][v]: start of summand s inside vertex space v."""
        if self.summands is None or self._offsets is None:
            raise AlgebraError("module has no registered summand layout")
        return self._offsets

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
            # f mono gives rank fv = cols fv; exactness needs rank fv = dim ker gv
            if fv.cols != gv.cols - gv.rank():
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


def zero_module(algebra: AlgebraPresentation) -> Module:
    v = algebra.quiver.vertex_count
    maps = [
        Matrix.zeros(0, 0)
        for _ in algebra.quiver.arrows
    ]
    return Module(algebra, (0,) * v, maps, validate=False)


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
    gen = Matrix.zeros(dims[vertex], 1)
    gen._data[pos[quiver.trivial_path(vertex)]][0] = 1
    mod.hint = CyclicHint(
        vertex,
        None,
        tuple(Matrix.identity(d) for d in dims),
        gen,
    )
    return mod


@memoized("inj")
def inj_module(algebra: AlgebraPresentation, vertex: int) -> Module:
    """The indecomposable injective at a vertex: dual of the opposite projective."""
    return dualize(proj_module(algebra.opposite(), vertex))


@memoized("simple")
def simple_module(algebra: AlgebraPresentation, vertex: int) -> Module:
    mod, _ = radical_quotient(proj_module(algebra, vertex), 1)
    return mod


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
    parts = list(parts)
    for p in parts:
        if p.algebra is not algebra:
            raise AlgebraError("direct sum over mixed algebras")
    v = algebra.quiver.vertex_count
    dims = tuple(sum(p.dims[w] for p in parts) for w in range(v))
    maps = []
    for idx in range(len(algebra.quiver.arrows)):
        maps.append(block_diag([p.arrow_maps[idx] for p in parts]))
    mod = Module(algebra, dims, maps, validate=False)
    mod.summands = tuple(parts)
    offs = []
    running = [0] * v
    for p in parts:
        offs.append(tuple(running))
        running = [running[w] + p.dims[w] for w in range(v)]
    mod._offsets = offs
    return mod


def flatten_atoms(m: Module) -> list[Module]:
    """The leaves of the summand tree of ``m``, left to right (``[m]`` if it is not a sum).

    Zero leaves are kept; this is the order in which the hom-space sum routes
    lay out their bases.
    """
    if m.summands is None:
        return [m]
    out: list[Module] = []
    for s in m.summands:
        out.extend(flatten_atoms(s))
    return out


def summand_injection(sum_module: Module, s: int) -> Morphism:
    part = sum_module.summands[s]
    return _embed(Morphism.identity(part), part, sum_module, sum_module._offsets[s], True)


def summand_projection(sum_module: Module, s: int) -> Morphism:
    part = sum_module.summands[s]
    return _block(Morphism.identity(sum_module), part, sum_module._offsets[s], True)


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
        Matrix.identity(n).take_columns(free) for n, free in zip(module.dims, frees)
    )
    return quot, proj, sections


def _cyclic_sum(m: Module) -> bool:
    """Whether m is laid out as a direct sum of cyclic modules."""
    return m.summands is not None and all(s.hint is not None for s in m.summands)


def generator_images(f: Morphism) -> list[tuple[int, list]]:
    """``(v, f(g))`` for each generator g of f's source, in summand order: v
    is the vertex of g and f(g) a vector of e_v of the target.  The source is
    cyclic or a direct sum of cyclic modules."""
    src = f.source
    if src.summands is None:
        parts, offs = (src,), ((0,) * len(src.dims),)
    else:
        parts, offs = src.summands, src._offsets
    out = []
    for u, off in zip(parts, offs):
        v = u.hint.vertex
        gen = [(k, row[0]) for k, row in enumerate(u.hint.generator._data) if row[0]]
        out.append((v, [sum(row[off[v] + k] * g for k, g in gen) for row in f.maps[v]._data]))
    return out


def _quotient_hint(parent: CyclicHint, proj: Morphism, sections, relations) -> CyclicHint:
    """The hint of a quotient of a hinted module, given the quotient's
    projection and sections: the parent's generator and sections carried
    over."""
    return CyclicHint(
        parent.vertex,
        relations,
        tuple(ps @ qs for ps, qs in zip(parent.sections, sections)),
        proj.maps[parent.vertex] @ parent.generator,
    )


def cokernel(f: Morphism) -> tuple[Module, Morphism]:
    """Cokernel of f with its projection.

    When f maps a cyclic module, or a direct sum of them, into a hinted
    module, the cokernel is cyclic on the image of the target's generator:
    its relations are the target's plus the path combination of each source
    generator's image.
    """
    quot, proj, sections = quotient_by_subspaces(f.target, f.maps)
    parent = f.target.hint
    if parent is not None and (f.source.hint is not None or _cyclic_sum(f.source)):
        lifts = [tuple(path_combination(f.target, v, w)) for v, w in generator_images(f)]
        relations = (parent.relations or ()) + tuple(r for r in lifts if r)
        quot.hint = _quotient_hint(parent, proj, sections, relations)
    return quot, proj


def radical_spans(module: Module, power: int = 1) -> list[Matrix]:
    """Per vertex w, the images of the length-``power`` paths ending at w side
    by side: columns spanning (rad^power M)_w, not reduced to a basis."""
    per_vertex: list[list[Matrix]] = [[] for _ in module.dims]
    for p in module.algebra.quiver.paths_of_length(power):
        m = module.action(p)
        if m.cols and not m.is_zero():
            per_vertex[p.target].append(m)
    return [hstack(ms) if ms else Matrix.zeros(d, 0) for d, ms in zip(module.dims, per_vertex)]


def socle_subspaces(module: Module) -> list[Matrix]:
    """Per-vertex bases of the largest semisimple submodule."""
    algebra = module.algebra
    out = []
    for v in range(len(module.dims)):
        arrows_out = algebra.quiver.arrows_from[v]
        if not arrows_out:
            out.append(Matrix.identity(module.dims[v]))
        else:
            out.append(intersect_kernels([module.arrow_maps[i] for i in arrows_out]))
    return out


def radical_quotient(module: Module, power: int) -> tuple[Module, Morphism]:
    """M / rad^power M with its projection (hinted when M is)."""
    if power < 1:
        raise AlgebraError("radical power must be >= 1")
    quot, proj, sections = quotient_by_subspaces(module, radical_spans(module, power))
    if module.hint is not None:
        quot.hint = _quotient_hint(
            module.hint, proj, sections, _radical_relations(module, power)
        )
    return quot, proj


def _radical_relations(module: Module, power: int) -> tuple:
    """Relations of M / rad^power M for a hinted M = P/K: the relations of M
    with a path shorter than ``power``, and the length-``power`` paths from
    the vertex -- all of them when a relation of M was dropped, else those
    that do not already vanish on M's generator.  On P/rad^k that leaves the
    length-min(k, power) paths."""
    hint = module.hint
    paths = [p for p in module.algebra.quiver.paths_of_length(power) if p.source == hint.vertex]
    kept: tuple = ()
    if hint.relations is not None:
        kept = tuple(r for r in hint.relations if any(p.length < power for _, p in r))
        if len(kept) == len(hint.relations):
            paths = [p for p in paths if not (module.action(p) @ hint.generator).is_zero()]
    return kept + tuple(((1, p),) for p in paths)


def loewy_length(module: Module) -> int:
    k = 0
    current = module.dims
    while any(d > 0 for d in current):
        k += 1
        current = tuple(s.rank() for s in radical_spans(module, k))
        if k > module.total_dim + 1:
            raise AlgebraError("radical series does not terminate")
    return k


# -- duality -----------------------------------------------------------------


def dualize(module: Module) -> Module:
    """The QQ-dual as a module over the opposite algebra; an exact duality."""
    if module._dual_of is not None:
        return module._dual_of
    op = module.algebra.opposite()
    if module.summands is not None:
        dual = direct_sum(op, [dualize(s) for s in module.summands])
    else:
        maps = [m.transpose() for m in module.arrow_maps]
        dual = Module(op, module.dims, maps, validate=False)
    dual._dual_of = module
    module._dual_of = dual
    return dual


def dualize_morphism(f: Morphism) -> Morphism:
    return Morphism._make(
        dualize(f.target), dualize(f.source), tuple(m.transpose() for m in f.maps)
    )


# -- hom spaces ---------------------------------------------------------------


class HomSpace(Cached):
    """Hom(X, Y): its dimension, a basis built on first use, and exact coordinates.

    When X is cyclic with generator g at vertex v, evaluation at g embeds
    Hom(X, Y) in e_v Y.  Such a space keeps ``gens``, the generator images of
    its basis maps as the columns of a matrix over e_v Y (the identity when
    it is square, that is when Hom(X, Y) is all of e_v Y), and reads
    coordinates off f(g); every other space has ``gens`` None and a coordinate
    reader from its route.  Composition tables between two spaces live on the
    younger one (see ``composition_table``).
    """

    __slots__ = (
        "source",
        "target",
        "dim",
        "gens",
        "_basis",
        "_build",
        "_coords",
        "_solver",
        "__weakref__",
    )

    def __init__(self, source, target, dim: int, build=None, coords=None, gens=None):
        self.source = source
        self.target = target
        self.dim = dim
        self.gens = gens
        self._basis = None
        self._build = build
        self._coords = coords
        self._solver = None
        super().__init__()

    @property
    def basis(self) -> list[Morphism]:
        if self._basis is None:
            if self._build is None:
                self._basis = [self.basis_map(j) for j in range(self.dim)]
            else:
                self._basis = self._build()
        return self._basis

    def basis_map(self, j: int) -> Morphism:
        """The j-th basis map, built alone off its generator image when the
        space has one and the basis is not built yet."""
        if self._basis is None and self.gens is not None:
            return morphism_from_generator(self.source, self.target, self.gens.column_vector(j))
        return self.basis[j]

    def generator_coords(self, images: Matrix) -> Matrix:
        """Coordinates, as columns, of the maps whose generator images are the
        columns of ``images``; raises if one is not in the space."""
        if self.dim == 0:
            if not images.is_zero():
                raise AlgebraError("morphism not in hom space")
            return Matrix.zeros(0, images.cols)
        # gens has full column rank: a left inverse computed once gives the
        # candidate coordinates, and gens @ sol == images checks membership
        if self._solver is None:
            self._solver = self.gens.left_inverse()
        sol = self._solver @ images
        if self.gens @ sol != images:
            raise AlgebraError("morphism not in hom space")
        return sol

    def coords(self, f: Morphism) -> list:
        if self.gens is None:
            return self._coords(f)
        hint = self.source.hint
        return self.generator_coords(f.maps[hint.vertex] @ hint.generator).flatten()

    def from_coords(self, cs: Sequence) -> Morphism:
        if self.gens is not None:
            return morphism_from_generator(
                self.source, self.target, self.gens @ Matrix.column(list(cs))
            )
        f = Morphism.zero(self.source, self.target)
        for c, b in zip(cs, self.basis):
            if c != 0:
                f = f + b.scale(c)
        return f


def _dot(row: Sequence, vec: Sequence):
    return sum((c * vec[j] for j, c in enumerate(row) if c != 0), 0)


def _hom_raw(x: Module, y: Module) -> HomSpace:
    algebra = x.algebra
    v_count = len(x.dims)
    var_offsets = []
    total = 0
    for v in range(v_count):
        var_offsets.append(total)
        total += x.dims[v] * y.dims[v]
    rows = []
    for idx, a in enumerate(algebra.quiver.arrows):
        i, j = a.source, a.target
        xa = x.arrow_maps[idx]
        ya = y.arrow_maps[idx]
        # f_j @ X_a - Y_a @ f_i = 0, entry (r, c): r in Y_j, c in X_i
        for r in range(y.dims[j]):
            for c in range(x.dims[i]):
                row = [0] * total
                for k in range(x.dims[j]):
                    coeff = xa[k, c]
                    if coeff != 0:
                        row[var_offsets[j] + r * x.dims[j] + k] += coeff
                for k in range(y.dims[i]):
                    coeff = ya[r, k]
                    if coeff != 0:
                        row[var_offsets[i] + k * x.dims[i] + c] -= coeff
                if any(e != 0 for e in row):
                    rows.append(row)
    if rows:
        system = Matrix.from_rows(rows)
        kern = system.kernel_basis()
    else:
        kern = Matrix.identity(total)

    def build() -> list[Morphism]:
        return [
            Morphism.from_flat(x, y, [kern[i, j] for i in range(total)])
            for j in range(kern.cols)
        ]

    # coords solves kern @ c = flat(f); the basis has full column rank, so a
    # left inverse computed once gives the candidate coordinates, and
    # kern @ c == flat(f) checks membership
    solver: list[Matrix] = []

    def coords(f: Morphism) -> list:
        if kern.cols == 0:
            if not f.is_zero():
                raise AlgebraError("morphism not in hom space")
            return []
        if not solver:
            solver.append(kern.left_inverse())
        flat = f.flat()
        sol = [_dot(row, flat) for row in solver[0]._data]
        if any(_dot(row, sol) != u for row, u in zip(kern._data, flat)):
            raise AlgebraError("morphism not in hom space")
        return sol

    return HomSpace(x, y, kern.cols, build, coords)


def _embed(b: Morphism, x: Module, y: Module, offs: Sequence[int], into_rows: bool) -> Morphism:
    """``b`` placed as a block of a map x -> y: at rows ``offs[v]`` of each
    vertex map when ``into_rows`` (a summand of y), else at columns ``offs[v]``
    (a summand of x)."""
    maps = []
    for w in range(len(x.dims)):
        m = Matrix.zeros(y.dims[w], x.dims[w])
        off = offs[w]
        for r, row in enumerate(b.maps[w]._data):
            if into_rows:
                m._data[off + r] = list(row)
            else:
                m._data[r][off : off + len(row)] = row
        maps.append(m)
    return Morphism._make(x, y, tuple(maps))


def _block(f: Morphism, part: Module, offs: Sequence[int], from_rows: bool) -> Morphism:
    """The inverse of ``_embed``: the block of ``f`` at a summand ``part`` laid
    out at ``offs``, read from the rows of each vertex map when ``from_rows``
    (part of f's target), else from the columns (part of f's source)."""
    maps = []
    for w, m in enumerate(f.maps):
        span = range(offs[w], offs[w] + part.dims[w])
        maps.append(m.take_rows(span) if from_rows else m.take_columns(span))
    if from_rows:
        return Morphism._make(f.source, part, tuple(maps))
    return Morphism._make(part, f.target, tuple(maps))


def _hom_sum(x: Module, y: Module, into_sum: bool) -> HomSpace:
    """Hom(x, y) summand by summand, for y a direct sum when ``into_sum``,
    else for x one.  Coordinates read each summand's block off the vertex
    maps; into a sum from a cyclic x the children's generator images stack
    block-diagonally instead."""
    total = y if into_sum else x
    children = [hom_space(x, s) if into_sum else hom_space(s, y) for s in total.summands]

    def build() -> list[Morphism]:
        return [
            _embed(b, x, y, total._offsets[s], into_sum)
            for s, child in enumerate(children)
            for b in child.basis
        ]

    dim = sum(child.dim for child in children)
    if into_sum and x.hint is not None:
        return HomSpace(x, y, dim, build, gens=block_diag([c.gens for c in children]))

    def coords(f: Morphism) -> list:
        out = []
        for s, child in enumerate(children):
            out.extend(child.coords(_block(f, total.summands[s], total._offsets[s], into_sum)))
        return out

    return HomSpace(x, y, dim, build, coords)


def _cyclic_constraints(y: Module, relations):
    """One row block per relation: its action on y, from e_v y to the space
    at the relation's end vertex.  A vector of e_v y is the generator image
    of a map out of the hinted module exactly when every block kills it."""
    if relations is None:
        return None
    mats = []
    for rel in relations:
        rows = y.dims[rel[0][1].target]
        if rows:
            mats.append(path_operator(y, rel, rows))
    return vstack(mats) if mats else None


def morphism_from_generator(source: Module, target: Module, u: Matrix) -> Morphism:
    """The morphism out of a cyclic module sending its generator to u.

    The caller guarantees u satisfies the source's defining constraints
    (automatic when the source is a projective).
    """
    hint = source.hint
    if hint is None:
        raise AlgebraError("source module is not cyclic-hinted")
    proj = proj_module(source.algebra, hint.vertex)
    maps = []
    for w in range(len(source.dims)):
        cols = [target.action(p) @ u for p in proj._proj_paths[w]]
        if cols:
            phi_p = hstack(cols)
        else:
            phi_p = Matrix.zeros(target.dims[w], 0)
        maps.append(phi_p @ hint.sections[w])
    return Morphism._make(source, target, tuple(maps))


def _hom_cyclic_source(x: Module, y: Module) -> HomSpace:
    hint = x.hint
    constraints = _cyclic_constraints(y, hint.relations)
    if constraints is None:
        gens = Matrix.identity(y.dims[hint.vertex])
    else:
        gens = constraints.kernel_basis()
    return HomSpace(x, y, gens.cols, gens=gens)


def _hom_dual_target(x: Module, y: Module) -> HomSpace:
    # Hom(X, D Z) is the dual of Hom(Z, D X), computed on the opposite side
    z = y._dual_of
    op_space = hom_space(z, dualize(x))

    def build() -> list[Morphism]:
        return [dualize_morphism(g) for g in op_space.basis]

    def coords(f: Morphism) -> list:
        return op_space.coords(dualize_morphism(f))

    return HomSpace(x, y, op_space.dim, build, coords)


def _has_structure(m: Module) -> bool:
    return m.summands is not None or m.hint is not None


def hom_space(x: Module, y: Module) -> HomSpace:
    """Basis of Hom(x, y), choosing the cheapest correct decomposition.

    Results are cached on the younger of x and y (modules are immutable; see
    ``relrep.cache``), so the per-space solvers built lazily inside amortize
    across the whole run.
    """
    if x.algebra is not y.algebra:
        raise AlgebraError("hom between modules over different algebras")
    return cached_pair(x, y, "homspaces", _hom_space, x, y)


def _hom_space(x: Module, y: Module) -> HomSpace:
    if x.summands is not None:
        return _hom_sum(x, y, False)
    if y.summands is not None:
        return _hom_sum(x, y, True)
    if x.hint is not None:
        return _hom_cyclic_source(x, y)
    if y._dual_of is not None and _has_structure(y._dual_of):
        return _hom_dual_target(x, y)
    return _hom_raw(x, y)


def hom_basis(x: Module, y: Module) -> list[Morphism]:
    return hom_space(x, y).basis


def hom_dim(x: Module, y: Module) -> int:
    return hom_space(x, y).dim


# -- composition in coordinates -------------------------------------------------


def path_combination(x: Module, v: int, w: Sequence) -> list[tuple]:
    """The nonzero ``(c_k, p_k)`` with w = sum_k c_k p_k·g, for w a vector of
    e_v x and x cyclic with generator g, read through the section into the
    path coordinates of the projective covering x."""
    hint = x.hint
    paths = proj_module(x.algebra, hint.vertex)._proj_paths[v]
    # a projective (no relations) is its own cover: its sections are identities
    if hint.relations is not None:
        w = [_dot(row, w) for row in hint.sections[v]._data]
    return [(c, p) for c, p in zip(w, paths) if c != 0]


def path_operator(y: Module, terms: Sequence[tuple], rows: int, gens: Matrix | None = None) -> Matrix:
    """A @ gens for A = sum_k c_k y.action(p_k) over the ``(c_k, p_k)`` of
    ``terms``, with ``rows`` rows; A itself when ``gens`` is None.

    For ``terms = path_combination(x, v, w)`` and ``gens`` the generator
    images of a basis of Hom(x, y), column i is a_i(w) = sum_k c_k p_k·a_i(g).
    """
    cols = y.dims[terms[0][1].source] if gens is None else gens.rows
    out = [[0] * cols for _ in range(rows)]
    for c, p in terms:
        for orow, arow in zip(out, y.action(p)._data):
            for k, a in enumerate(arow):
                if a:
                    orow[k] += c * a
    op = Matrix(rows, cols, out)
    # square gens are the identity: Hom(x, y) is all of e_v y
    return op if gens is None or gens.cols == gens.rows else op @ gens


def composition_table(outer: HomSpace, inner: HomSpace) -> tuple[Matrix, ...]:
    """Coordinates of the composites of two hom-space bases.

    For outer = Hom(X, Y) with basis a_i and inner = Hom(U, X) with basis b_j,
    column i of ``table[j]`` is the coordinate vector of a_i∘b_j in
    ``hom_space(U, Y)``.  Cached on the younger of the two spaces.
    """
    return cached_pair(outer, inner, "composition", _composition_table, outer, inner)


def _composition_table(outer: HomSpace, inner: HomSpace) -> tuple[Matrix, ...]:
    result = hom_space(inner.source, outer.target)
    if inner.gens is None or outer.gens is None:
        return tuple(
            Matrix.from_columns([result.coords(a @ b) for a in outer.basis])
            if outer.dim
            else Matrix.zeros(result.dim, 0)
            for b in inner.basis
        )
    if inner.dim == 0:
        return ()
    # U and X are cyclic: a_i∘b_j is fixed by a_i(w) = A_w a_i(g) for the
    # generator image w = b_j(g) in e_v X, one path operator A_w per w
    v = inner.source.hint.vertex
    x, y = outer.source, outer.target
    images = hstack(
        [
            path_operator(y, path_combination(x, v, w), y.dims[v], outer.gens)
            for w in inner.gens.columns()
        ]
    )
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


def _split_local(z: Module) -> bool:
    """Whether End(z)/rad is QQ: z is indecomposable with a split local
    endomorphism ring."""
    return hom_dim(z, z) - _end_radical_coords(z).cols == 1


# -- isomorphism testing -------------------------------------------------------


@memoized("fingerprint")
def _radical_fingerprint(m: Module) -> tuple:
    out = [m.dims]
    k = 1
    while True:
        dims = tuple(s.rank() for s in radical_spans(m, k))
        out.append(dims)
        if all(d == 0 for d in dims):
            break
        k += 1
        if k > m.total_dim + 1:
            break
    out.append(tuple(s.cols for s in socle_subspaces(m)))
    return tuple(out)


def _multiplicity(z: Module, a: Module) -> int:
    """How often the split local module z is a summand of a: the rank of the
    pairing Hom(z, a) x Hom(a, z) -> End(z)/rad = QQ, (f, g) -> g∘f."""
    into, out = hom_space(z, a), hom_space(a, z)
    if into.dim == 0 or out.dim == 0:
        return 0
    proj, _ = complement_projection(_end_radical_coords(z))
    return vstack([proj @ t for t in composition_table(out, into)]).rank()


def is_isomorphic(x: Module, y: Module) -> bool:
    """Exact isomorphism test; every answer carries a certificate.

    "False" comes from an invariant: the dimension vectors, the radical
    layers and socle, the dimensions of the four hom spaces, or a
    Krull-Schmidt multiplicity.  "True" comes from an invertible basis map
    of Hom(x, y), or from equal multiplicities of every atom of a side whose
    atoms are all split local.  A basis map is enough for a split local x:
    the maps x -> y that are not invertible form the hyperplane
    phi∘rad End(x).  Raises AlgebraError when neither certificate applies,
    that is when no basis map is invertible and neither side is a sum of
    split local atoms.
    """
    if x is y:
        return True
    if x.algebra is not y.algebra:
        return False
    if x.dims != y.dims:
        return False
    if x.total_dim == 0:
        return True
    if _radical_fingerprint(x) != _radical_fingerprint(y):
        return False
    hom_xy = hom_space(x, y)
    k = hom_xy.dim
    if k == 0:
        return False
    if hom_dim(y, x) != k:
        return False
    de_x = hom_dim(x, x)
    if de_x != hom_dim(y, y) or de_x != k:
        # an isomorphism identifies all four spaces
        return False
    if any(hom_xy.basis_map(i).is_iso() for i in range(k)):
        return True
    for a, b in ((x, y), (y, x)):
        atoms = [z for z in flatten_atoms(b) if not z.is_zero()]
        if all(_split_local(z) for z in atoms):
            # equal multiplicities make b a summand of a, and equal
            # dimensions make it all of a
            return all(_multiplicity(z, a) == _multiplicity(z, b) for z in atoms)
    raise AlgebraError(
        "isomorphism undecided: no hom basis map is invertible and neither "
        "module is a sum of split local atoms"
    )


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
                out.append(radical_quotient(p, j)[0])
    return out


# -- module expressions ----------------------------------------------------------


def parse_module_expression(algebra: AlgebraPresentation, text: str) -> Module:
    """Parse expressions like ``P(1)+P(2)+S(1)+P(3)/rad^2`` (vertices 1-based).

    Atoms: P(i) projective, I(i) injective, S(i) simple; an atom may carry a
    single /rad^k quotient; terms are combined with '+' into a direct sum.
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
        mod = radical_quotient(mod, rad_power)[0]
    return mod
