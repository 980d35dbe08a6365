"""Covers, resolutions, transposes, extension groups and add-membership.

Everything here is absolute homological algebra for a fixed bound quiver
algebra: minimal projective covers and injective hulls, stepwise resolutions
with cached syzygies, Ext dimensions off the hom complex (Yoneda on the
projective route, which adds values cached per atom pair over direct sums;
the injective route works on the whole modules), a concrete Ext^1
presentation with realization (the pushout, built off a middle core cached
on the quotient) and pullback pairing, the transpose of a minimal
presentation, and minimal add-approximations with the split-solve route
kept alongside as an independent cross-check.  add(m) is read through the
local parts of m's atoms (``rep.distinct_atoms``): add-membership is a
Krull-Schmidt count over them, and the approximations are minimal by
construction.

Ext is additive over direct sums, and the projective routes use it: the
first edge of the resolution of a sum of atoms with one top generator each,
the Ext^1 presentation of a sum and the middle core of its extensions are
assembled from the atoms' cached pieces, bit for bit what the whole modules
give.  ``rep.projective_cover``, ``injective_hull`` and every injective
route work on the whole modules and cross-check that additivity.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .cache import cached, cached_pair, memoized
from .exact_linalg import Matrix, block_diag, complement_projection, hstack, subspace_contains
from .path_algebra import AlgebraError, InternalError
from .rep import (
    HomSpace,
    Module,
    Morphism,
    ShortExactSequence,
    assemble_from_components,
    assemble_into_components,
    _combinations,
    _end_radical_coords,
    _evaluate,
    _multiplicity,
    _precomposed_images,
    _split_local,
    cokernel,
    composite_coords,
    composition_table,
    direct_sum,
    distinct_atoms,
    dualize,
    dualize_morphism,
    flatten_atoms,
    hom_basis,
    hom_dim,
    hom_space,
    kernel,
    morphism_from_generator,
    nonzero_atoms,
    presentation,
    proj_module,
    projective_cover,
)

# -- covers and hulls ---------------------------------------------------------


def injective_hull(x: Module) -> Morphism:
    """The minimal mono from x into a direct sum of indecomposable injectives."""
    return dualize_morphism(projective_cover(dualize(x)))


# -- stepwise resolutions -----------------------------------------------------


class _ResolutionCore:
    """The module-free part of a resolution, cached on what it resolves: the
    terms, the differentials, the syzygies with their edges, the vertex maps
    of the augmentation (None until built) and the steps after it."""

    __slots__ = ("terms", "differentials", "first", "steps", "edges")

    def __init__(self):
        self.terms: list[Module] = []
        self.differentials: list[Morphism] = []
        self.first: tuple[Matrix, ...] | None = None
        self.steps: list[Morphism] = []
        self.edges: list[tuple[Module, Morphism]] = []


class Resolution:
    """A lazily extended resolution built from a cover (or hull) step.

    A flavor containing "injective" means the cochain direction: the target
    maps into terms[0] and differentials run terms[i] -> terms[i+1]; otherwise
    the chain direction: terms[0] maps onto the target and differentials run
    terms[i+1] -> terms[i].  syzygy(0) is the target itself; syzygy(i) for
    i >= 1 is the i-th kernel (resp. cokernel), and syzygy_edge(i) also hands
    back its inclusion into (projection from) terms[i-1].

    A Resolution is a view, built on each lookup: it holds the target and the
    step, and shares ``terms`` and ``differentials`` with the cached core,
    which holds neither; extending through any view extends them all.
    """

    __slots__ = ("target", "flavor", "terms", "differentials", "augmentation", "_core", "_step", "_cochain")

    def __init__(self, target: Module, step: Callable[[Module], Morphism], flavor: str, core: _ResolutionCore):
        self.target = target
        self.flavor = flavor
        self.terms = core.terms
        self.differentials = core.differentials
        self._core = core
        self._step = step
        self._cochain = "injective" in flavor
        self.augmentation: Morphism | None = None
        if core.first is not None:
            self._ensure_first()

    def _ensure_first(self) -> None:
        if self.augmentation is not None:
            return
        core = self._core
        if core.first is None:
            step = self._step(self.target)
            core.first = step.maps
            core.terms.append(step.target if self._cochain else step.source)
            self.augmentation = step
        elif self._cochain:
            self.augmentation = Morphism._make(self.target, core.terms[0], core.first)
        else:
            self.augmentation = Morphism._make(core.terms[0], self.target, core.first)

    def _advance_edge(self) -> None:
        """Take the next kernel (or cokernel) off the last computed step."""
        core = self._core
        prev = core.steps[-1] if core.steps else self.augmentation
        core.edges.append(cokernel(prev) if self._cochain else kernel(prev))

    def _advance_term(self) -> None:
        """Cover (or hull) the last syzygy, producing the next term."""
        core = self._core
        syz, edge = core.edges[-1]
        step = self._step(syz)
        if self._cochain:
            core.differentials.append(step @ edge)
        else:
            core.differentials.append(edge @ step)
        core.steps.append(step)
        core.terms.append(step.target if self._cochain else step.source)

    def ensure_terms(self, count: int) -> None:
        """Make terms[0..count-1] (and the syzygies between them) available."""
        self._ensure_first()
        core = self._core
        while len(core.terms) < count:
            if len(core.edges) < len(core.terms):
                self._advance_edge()
            self._advance_term()

    def syzygy(self, i: int) -> Module:
        """The i-th (co)syzygy, without building its own cover term."""
        if i == 0:
            return self.target
        self._ensure_first()
        core = self._core
        while len(core.edges) < i:
            if len(core.edges) == len(core.terms):
                self._advance_term()
            else:
                self._advance_edge()
        return core.edges[i - 1][0]

    def syzygy_edge(self, i: int) -> tuple[Module, Morphism]:
        """The i-th (co)syzygy and the morphism tying it to terms[i-1]."""
        if i < 1:
            raise AlgebraError("syzygy edges start at index 1")
        self.syzygy(i)
        return self._core.edges[i - 1]

    def step_onto(self, i: int) -> Morphism:
        """The cover of syzygy(i) by terms[i] (or hull of it into terms[i])."""
        self.ensure_terms(i + 1)
        return self.augmentation if i == 0 else self._core.steps[i - 1]

    def hom_to(self, k: int, y: Module) -> HomSpace:
        """Hom(terms[k], y) (chain) or Hom(y, terms[k]) (cochain), cached by hom_space."""
        self.ensure_terms(k + 1)
        if self._cochain:
            return hom_space(y, self.terms[k])
        return hom_space(self.terms[k], y)


def projective_resolution(x: Module) -> Resolution:
    """The minimal projective resolution of x, cached on x.  For a sum of
    atoms with one top generator each, its first edge is assembled from the
    atoms' (see ``_projective_core``); every later step covers the whole
    syzygy."""
    return Resolution(x, projective_cover, "projective", cached(x, "projres", _projective_core, x))


def _starts(parts: Sequence[Module], n: int) -> list[tuple[int, ...]]:
    """Where each of ``parts`` starts in every vertex space of their direct sum."""
    out, running = [], (0,) * n
    for part in parts:
        out.append(running)
        running = tuple(r + d for r, d in zip(running, part.dims))
    return out


def _atom_offsets(m: Module) -> list[tuple[Module, tuple[int, ...]]]:
    """The nonzero atoms of m (``nonzero_atoms``), each with where it starts
    in every vertex space of m."""
    atoms = nonzero_atoms(m)
    return list(zip(atoms, _starts(atoms, len(m.dims))))


def _cover_order(x: Module) -> list[tuple[Module, tuple[int, ...], Resolution]] | None:
    """The nonzero atoms of the sum x with their offsets and resolutions, in
    the order of the top generators of x, or None when some atom has more
    than one.  The top of a sum is the sum of its atoms' tops, so x's
    generators are the atoms' at their offsets; ``top_generators`` sorts them
    by vertex, then by position in x, which is atom order."""
    keyed = []
    for j, (atom, off) in enumerate(_atom_offsets(x)):
        res = projective_resolution(atom)
        top = res.step_onto(0).source.summands
        if len(top) != 1:
            return None
        keyed.append((top[0]._proj_vertex, j, atom, off, res))
    keyed.sort(key=lambda t: t[:2])
    return [(atom, off, res) for _, _, atom, off, res in keyed]


def _placed(rows: int, blocks: Sequence[tuple[int, Matrix]]) -> Matrix:
    """The matrix with ``rows`` rows whose columns are the ``(offset, block)``
    blocks' columns side by side, each block's rows starting at its offset:
    a map out of the sum of the blocks' sources into a sum of atoms, every
    row of which lies in one block."""
    width = sum(block.cols for _, block in blocks)
    out, left = [None] * rows, 0
    for off, block in blocks:
        for r, row in enumerate(block._data):
            out[off + r] = [0] * left + row + [0] * (width - left - block.cols)
        left += block.cols
    return Matrix._trusted(rows, width, out)


def _projective_core(x: Module) -> _ResolutionCore:
    """A fresh core for the projective resolution of x.  When x is a sum of
    atoms with one top generator each, it starts with the first edge
    assembled from the atoms' cached edges: the very matrices that
    ``projective_cover`` and ``kernel`` give on the whole sum.  P0 is the
    atoms' P(v) in the order of ``_cover_order``, the cover of x places each
    atom's cover at the atom's rows, and Omega^1 x is the direct sum of the
    atoms' in the same order, included block-diagonally: the RREF of a
    matrix whose row blocks meet disjoint column blocks has the union of the
    blocks' pivots, so its kernel basis is block-diagonal too."""
    core = _ResolutionCore()
    parts = _cover_order(x) if x.summands is not None else None
    if parts is None:
        return core
    covers = [res.step_onto(0) for _, _, res in parts]
    edges = [res.syzygy_edge(1) for _, _, res in parts]
    first = [
        _placed(d, [(off[w], cover.maps[w]) for (_, off, _), cover in zip(parts, covers)])
        for w, d in enumerate(x.dims)
    ]
    p0 = direct_sum(x.algebra, [cover.source.summands[0] for cover in covers])
    k = direct_sum(x.algebra, [syz for syz, _ in edges])
    incl = tuple(block_diag([inc.maps[w] for _, inc in edges]) for w in range(len(x.dims)))
    core.first = tuple(first)
    core.terms.append(p0)
    core.edges.append((k, Morphism._make(k, p0, incl)))
    return core


def injective_resolution(x: Module) -> Resolution:
    return Resolution(x, injective_hull, "injective", cached(x, "injres", _ResolutionCore))


# -- Ext dimensions -----------------------------------------------------------


def _boundary_rank(
    src_space: HomSpace, tgt_space: HomSpace, d: Morphism, cochain: bool = False
) -> int:
    """Rank of the map src_space -> tgt_space given by composition with d."""
    if src_space.dim == 0 or tgt_space.dim == 0:
        return 0
    if cochain:
        cols = [tgt_space.coords(d @ b) for b in src_space.basis]
    else:
        cols = [tgt_space.coords(b @ d) for b in src_space.basis]
    return Matrix.from_columns(cols).rank()


def _generator_rank(d: Morphism, y: Module) -> int:
    """Rank of Hom(d, y): b -> b∘d over the basis of Hom(target, y), read in
    the generator images of Hom(source, y) (Yoneda when the source is
    projective: Hom(P(v), y) = e_v y).  One block matrix of path operators
    applied to the generator images of the basis: no basis map and no
    composite is built."""
    space = hom_space(d.target, y)
    if space.dim == 0:
        return 0
    values = presentation(d.source).values(d.maps)
    return _precomposed_images(space, d.source, [[c for vals in values for c in vals]]).rank()


def _hom_complex(res: Resolution, other: Module):
    """``(dim, rank)``: ``dim(k)`` is the dimension of the degree-k term of the
    hom complex of res against other, ``rank(k)`` the rank of the boundary
    built from ``res.differentials[k]``.

    A chain resolution works in generator coordinates.  A cochain one composes
    hom-space bases with its differentials, which keeps the injective routes
    independent checks.
    """

    def rank(k: int) -> int:
        d = res.differentials[k]
        if not res._cochain:
            return _generator_rank(d, other)
        return _boundary_rank(res.hom_to(k, other), res.hom_to(k + 1, other), d, True)

    return lambda k: res.hom_to(k, other).dim, rank


def resolution_cohomology_dim(res: Resolution, i: int, other: Module) -> int:
    """Degree-i cohomology dimension of the hom complex built from res.

    For a chain resolution of x this is the complex Hom(terms[*], other); for
    a cochain coresolution of y it is Hom(other, terms[*]).  Degree 0 is the
    kernel of the first differential, i.e. Hom of the resolved pair.
    """
    if i < 0:
        raise AlgebraError("ext degree must be >= 0")
    res.ensure_terms(i + 2)
    dim, rank = _hom_complex(res, other)
    out = dim(i) - rank(i)
    return out - rank(i - 1) if i else out


def ext_dim(i: int, x: Module, y: Module, via: str = "projective") -> int:
    """dim Ext^i(x, y).

    via="projective" is additive over direct sums: for i >= 1 it adds
    dim Ext^i(a, b) over the nonzero atoms a of x and b of y
    (``nonzero_atoms``, repeats included).  Each atom pair's value is cached
    on the younger atom (``relrep.cache.cached_pair``) and computed on a miss
    off a minimal projective resolution of a, in Yoneda coordinates:
    Hom(P(v), b) = e_v b, so each boundary of the hom complex is one block
    matrix read off the differential (see ``_generator_rank``).  So a fresh
    sum of atoms already seen costs lookups alone.  via="injective" works
    off a minimal injective coresolution of the whole of y, composing
    hom-space bases with the differentials; the two agree, and the second is
    kept as an independent, morphism-level cross-check of the Yoneda route
    and of its additivity.
    """
    if i < 0:
        raise AlgebraError("ext degree must be >= 0")
    if i == 0:
        return hom_dim(x, y)
    if via == "projective":
        targets = nonzero_atoms(y)
        return sum(cached_pair(a, b, ("ext", i), _atom_ext_dim, i, a, b) for a in nonzero_atoms(x) for b in targets)
    if via == "injective":
        return resolution_cohomology_dim(injective_resolution(y), i, x)
    raise AlgebraError(f"unknown ext route {via!r}")


def _atom_ext_dim(i: int, a: Module, b: Module) -> int:
    return resolution_cohomology_dim(projective_resolution(a), i, b)


# -- morphism factorization ---------------------------------------------------


def factor_through(g: Morphism, q: Morphism) -> Morphism | None:
    """A morphism u with g o u = q, or None if q does not factor through g."""
    if g.target.dims != q.target.dims:
        raise AlgebraError("factorization targets do not match")
    sp_uw = hom_space(q.source, g.target)
    rhs = sp_uw.coords(q)
    if sp_uw.dim == 0:
        return Morphism.zero(q.source, g.source)
    sp_uv = hom_space(q.source, g.source)
    sol = composite_coords(g, sp_uv).solve_right(Matrix.column(rhs))
    if sol is None:
        return None
    return sp_uv.from_coords([sol[i, 0] for i in range(sol.rows)])


def is_split_epi(g: Morphism) -> bool:
    return factor_through(g, Morphism.identity(g.target)) is not None


# -- Ext^1 as a concrete space ------------------------------------------------


def _entry_coordinates(space: HomSpace) -> tuple[Matrix, list[int], Matrix]:
    """Hom(k, a) in entry coordinates: ``(cocycles, free, change)``.

    The entry coordinates of a map are its entries at ``free`` (entries of the
    vertex maps counted vertex by vertex, row by row), ordered atom of a by
    atom: the free unknowns of the commutation system f_j k_a = a_a f_i,
    which are the pivots of the flattened basis maps' echelon form reduced
    from the right.  Column t of ``cocycles`` is the map with 1 at
    ``free[t]`` and 0 at the other free unknowns; ``change`` turns generator
    coordinates into entry coordinates.
    """
    k, a = space.source, space.target
    total = sum(dk * da for dk, da in zip(k.dims, a.dims))
    flats = [space.basis_map(j).flat() for j in range(space.dim)]
    if not flats:
        return Matrix.zeros(total, 0), [], Matrix.zeros(0, 0)
    red, pivots = Matrix.from_rows([f[::-1] for f in flats]).rref()
    free = [total - 1 - p for p in pivots]
    atoms = flatten_atoms(a)
    atom_of = [s for v in range(len(k.dims)) for s, part in enumerate(atoms) for _ in range(part.dims[v] * k.dims[v])]
    order = sorted(range(len(free)), key=lambda t: (atom_of[free[t]], free[t]))
    cocycles = Matrix(total, len(order), [[red._data[t][total - 1 - e] for t in order] for e in range(total)])
    free = [free[t] for t in order]
    return cocycles, free, Matrix(len(free), len(flats), [[f[e] for f in flats] for e in free])


class _Ext1Core:
    """The module-free part of Ext^1(c, a), cached on the younger of c and
    a: the cocycle basis, the free unknowns, the reducer to class
    coordinates and the section indices."""

    __slots__ = ("cocycles", "free", "reducer", "section_idx")

    def __init__(self, cocycles: Matrix, free: list[int], reducer: Matrix, section_idx: list[int]):
        self.cocycles = cocycles
        self.free = free
        self.reducer = reducer
        self.section_idx = section_idx


def _whole_ext1_core(c: Module, a: Module) -> _Ext1Core:
    """The core of Ext^1(c, a) read off Hom(K, a) on the whole modules."""
    k, incl = projective_resolution(c).syzygy_edge(1)
    cocycles, free, change = _entry_coordinates(hom_space(k, a))
    # coboundaries: the restrictions of Hom(P, a) to K
    restrictions = composite_coords(hom_space(incl.target, a), incl)
    reducer, section_idx = complement_projection(change @ restrictions)
    return _Ext1Core(cocycles, free, reducer, section_idx)


def _ext1_core(c: Module, a: Module) -> _Ext1Core:
    """The core of Ext^1(c, a).  Ext^1 is additive, and so is every field
    of the core: when c or a is a sum it is assembled from the cores of the
    atom pairs, cached on the younger atom (see ``_assembled_ext1_core``).
    Two atoms go whole, and so does a sum c with an atom of more than one
    top generator, whose first syzygy is not laid out atom by atom."""
    if c.summands is None:
        if a.summands is None:
            return _whole_ext1_core(c, a)
        parts = [(c, projective_resolution(c))]
    else:
        order = _cover_order(c)
        if order is None:
            return _whole_ext1_core(c, a)
        parts = [(atom, res) for atom, _, res in order]
    return _assembled_ext1_core(parts, a)


def _assembled_ext1_core(parts: list[tuple[Module, Resolution]], a: Module) -> _Ext1Core:
    """The core of Ext^1(c, a) from the cores of the atom pairs (c_j, a_k):
    ``parts`` are the atoms c_j of c with their resolutions, in the order of
    their first syzygies K_j inside K, and a_k runs over the nonzero atoms
    of a.  Hom(K, a) is the direct sum of the Hom(K_j, a_k) on disjoint
    entries, and so are the coboundaries; an echelon form of a sum of
    subspaces on disjoint coordinates has the union of the blocks' pivots
    and their rows, so every field is the blocks' fields scattered.  A local
    entry (v, r, s) is the global entry (v, off(a_k)[v] + r, off(K_j)[v] + s);
    the free unknowns run by atom of a, then by entry; the section indices
    ascend."""
    n = len(a.dims)
    syzygies = [res.syzygy(1) for _, res in parts]
    k_dims = [sum(k.dims[v] for k in syzygies) for v in range(n)]
    base = [0]
    for v in range(n):
        base.append(base[-1] + a.dims[v] * k_dims[v])
    k_offs = _starts(syzygies, n)
    # free: (atom of a, global entry, block, local index) per free unknown;
    # a block is a pair's core, its global entries and its free positions
    blocks, free = [], []
    for t, (a_k, a_off) in enumerate(_atom_offsets(a)):
        for (c_j, _), k_j, k_off in zip(parts, syzygies, k_offs):
            core = cached_pair(c_j, a_k, "ext1", _ext1_core, c_j, a_k)
            if not core.free:
                continue
            place = [
                base[v] + (a_off[v] + r) * k_dims[v] + k_off[v] + s
                for v in range(n)
                for r in range(a_k.dims[v])
                for s in range(k_j.dims[v])
            ]
            free.extend((t, place[e], len(blocks), i) for i, e in enumerate(core.free))
            blocks.append((core, place, [0] * len(core.free)))
    free.sort()
    cocycles = [[0] * len(free) for _ in range(base[-1])]
    for u, (_, _, b, i) in enumerate(free):
        core, place, pos = blocks[b]
        pos[i] = u
        for e, row in enumerate(core.cocycles._data):
            if row[i]:
                cocycles[place[e]][u] = row[i]
    sections = sorted(
        (pos[i], b, row)
        for b, (core, _, pos) in enumerate(blocks)
        for row, i in enumerate(core.section_idx)
    )
    reducer = []
    for _, b, row in sections:
        core, _, pos = blocks[b]
        out = [0] * len(free)
        for i, x in enumerate(core.reducer._data[row]):
            if x:
                out[pos[i]] = x
        reducer.append(out)
    return _Ext1Core(
        Matrix._trusted(base[-1], len(free), cocycles),
        [e for _, e, _, _ in free],
        Matrix._trusted(len(reducer), len(free), reducer),
        [u for u, _, _ in sections],
    )


class _MiddleCore:
    """The part of every extension of c that depends on c alone, cached on c
    (see ``_middle_core``): per vertex v the number of free coordinates F_v
    and g's block G_v; per arrow the blocks C and T of the middle term."""

    __slots__ = ("free_dims", "c_blocks", "t_blocks", "g_blocks")

    def __init__(self, free_dims: tuple, c_blocks: tuple, t_blocks: tuple, g_blocks: tuple):
        self.free_dims = free_dims
        self.c_blocks = c_blocks
        self.t_blocks = t_blocks
        self.g_blocks = g_blocks


def _whole_middle_core(cover: Morphism, incl: Morphism) -> _MiddleCore:
    """The middle core read off the cover sequence 0 -> K -> P -> c -> 0.

    The pushout of P <- K -psi-> a is (P + a) modulo the columns of
    [incl_v; -psi_v].  incl_v is mono, so the RREF of their transpose has
    all its pivots in the P block, at the pivots of incl_v's alone, with
    row operations R_v^T = (incl_v[pivots])^-1.  So the quotient keeps the
    coordinates F_v of P free of pivots and all of a, and for an arrow
    alpha: v -> w its map is [[C, 0], [psi_w T, a_alpha]], with
    C = pi_w P_alpha[:, F_v] (pi_w the projection along incl_w onto F_w)
    and T = (incl_w[pivots_w])^-1 P_alpha[pivots_w, F_v]; g_v is
    [G_v | 0] with G_v = cover_v[:, F_v]."""
    p = cover.source
    projs, frees, pivots, inverses = [], [], [], []
    for m in incl.maps:
        proj, free = complement_projection(m)
        free_set = set(free)
        piv = [j for j in range(m.rows) if j not in free_set]
        try:
            inverses.append(m.take_rows(piv).inverse())
        except ValueError:
            raise InternalError("homology", "the first syzygy does not embed in the cover") from None
        projs.append(proj)
        frees.append(free)
        pivots.append(piv)
    c_blocks, t_blocks = [], []
    for idx, arrow in enumerate(p.algebra.quiver.arrows):
        cols = p.arrow_maps[idx].take_columns(frees[arrow.source])
        c_blocks.append(projs[arrow.target] @ cols)
        t_blocks.append(inverses[arrow.target] @ cols.take_rows(pivots[arrow.target]))
    return _MiddleCore(
        tuple(len(free) for free in frees),
        tuple(c_blocks),
        tuple(t_blocks),
        tuple(m.take_columns(free) for m, free in zip(cover.maps, frees)),
    )


@memoized("middle")
def _middle_core(c: Module) -> _MiddleCore:
    """The middle core of c.  For a sum whose atoms have one top generator
    each, P, K and the inclusion are the atoms' block-diagonally in
    ``_cover_order`` (see ``_projective_core``), and so are F, C and T: the
    atoms' cores placed, G_v at the atoms' rows.  Any other module is read
    off its own cover sequence."""
    parts = _cover_order(c) if c.summands is not None else None
    if parts is None:
        res = projective_resolution(c)
        return _whole_middle_core(res.step_onto(0), res.syzygy_edge(1)[1])
    cores = [_middle_core(atom) for atom, _, _ in parts]
    arrows = range(len(c.algebra.quiver.arrows))
    return _MiddleCore(
        tuple(sum(core.free_dims[v] for core in cores) for v in range(len(c.dims))),
        tuple(block_diag([core.c_blocks[i] for core in cores]) for i in arrows),
        tuple(block_diag([core.t_blocks[i] for core in cores]) for i in arrows),
        tuple(
            _placed(d, [(off[v], core.g_blocks[v]) for (_, off, _), core in zip(parts, cores)])
            for v, d in enumerate(c.dims)
        ),
    )


class Ext1Space:
    """Ext^1(c, a) presented on the minimal cover sequence 0 -> K -> P -> c -> 0.

    Classes are coordinates on Hom(K, a) reduced modulo the restrictions of
    Hom(P, a).  Hom(K, a) is read in entry coordinates (see
    ``_entry_coordinates``), which fix the meaning of class coordinates;
    realize() turns a class into an honest short exact sequence, the pushout
    of the cover sequence along a cocycle, built from the middle core cached
    on c (see ``_whole_middle_core``), and class_of() recovers the class of
    any such sequence by lifting the cover through its epi.

    An Ext1Space is a view, built on each ``ext1_space`` lookup: it holds c,
    a and the cover sequence of c's cached resolution, and copies the fields
    of the core cached on the younger of c and a, which holds no module.
    Ext^1 is additive, Ext^1(+c_j, +a_k) = +Ext^1(c_j, a_k): when c or a is
    a sum, ``ext1_space`` scatters the cores of the atom pairs, each cached
    on the younger atom, into the whole (see ``_assembled_ext1_core``), and
    K is the direct sum of the atoms' first syzygies.  Two atoms, and a sum
    c with an atom of more than one top generator (the Kronecker quiver's
    I(2)), are read off Hom(K, a) on the whole modules.
    """

    __slots__ = ("c", "a", "cover", "k", "incl", "dim", "_cocycles", "_free", "_reducer", "_section_idx")

    def __init__(self, c: Module, a: Module, core: _Ext1Core):
        self.c = c
        self.a = a
        res = projective_resolution(c)
        self.k, self.incl = res.syzygy_edge(1)
        self.cover = res.augmentation
        self._cocycles = core.cocycles
        self._free = core.free
        self._reducer = core.reducer
        self._section_idx = core.section_idx
        self.dim = len(core.section_idx)

    def reduce(self, psi: Morphism) -> tuple:
        """Class coordinates of a cocycle K -> a; anything else is refused."""
        if psi.source is not self.k or psi.target.dims != self.a.dims:
            raise AlgebraError("a cocycle is a map from the first syzygy of c to a")
        flat = psi.flat()
        raw = Matrix.column([flat[e] for e in self._free])
        if self._cocycles @ raw != Matrix.column(flat):
            raise AlgebraError("morphism not in hom space")
        v = self._reducer @ raw
        return tuple(v[i, 0] for i in range(v.rows))

    def representative(self, coords: Sequence) -> Morphism:
        """A cocycle K -> a with the given class coordinates."""
        if len(coords) != self.dim:
            raise AlgebraError("class coordinate length mismatch")
        raw = [0] * len(self._free)
        for c, idx in zip(coords, self._section_idx):
            raw[idx] = c
        return Morphism.from_flat(self.k, self.a, (self._cocycles @ Matrix.column(raw)).flatten())

    def realize(self, data) -> ShortExactSequence:
        """The extension of c by a with the given class (coordinates or
        cocycle): the pushout along psi of the cover sequence of c, built
        from c's cached middle core with one product psi_w T per arrow (see
        ``_whole_middle_core``).  A cocycle is checked as ``reduce`` does."""
        if isinstance(data, Morphism):
            self.reduce(data)
            psi = data
        else:
            psi = self.representative(data)
        core, a = _middle_core(self.c), self.a
        maps = []
        for idx, arrow in enumerate(a.algebra.quiver.arrows):
            lower = psi.maps[arrow.target] @ core.t_blocks[idx]
            zeros = [0] * a.dims[arrow.source]
            rows = [row + zeros for row in core.c_blocks[idx]._data]
            rows += [left + right for left, right in zip(lower._data, a.arrow_maps[idx]._data)]
            maps.append(Matrix._trusted(len(rows), core.free_dims[arrow.source] + len(zeros), rows))
        middle = Module(a.algebra, [n + d for n, d in zip(core.free_dims, a.dims)], maps, validate=False)
        f_maps, g_maps = [], []
        for n, d, block in zip(core.free_dims, a.dims, core.g_blocks):
            f_maps.append(Matrix._trusted(n + d, d, [[0] * d for _ in range(n)] + Matrix.identity(d)._data))
            zeros = [0] * d
            g_maps.append(Matrix._trusted(block.rows, n + d, [row + zeros for row in block._data]))
        f = Morphism._make(a, middle, tuple(f_maps))
        g = Morphism(middle, self.c, tuple(g_maps))
        return ShortExactSequence(f, g)

    def cocycle_of(self, ses: ShortExactSequence) -> Morphism:
        """A cocycle K -> a representing the class of a sequence 0->a->B->c->0."""
        lift = factor_through(ses.g, self.cover)
        if lift is None:
            raise AlgebraError("cover does not lift through the sequence epi")
        through = lift @ self.incl
        maps = []
        for fv, tv in zip(ses.f.maps, through.maps):
            sol = fv.solve_right(tv)
            if sol is None:
                raise AlgebraError("lift does not land in the submodule")
            maps.append(sol)
        return Morphism._make(self.k, self.a, tuple(maps))

    def class_of(self, ses: ShortExactSequence) -> tuple:
        return self.reduce(self.cocycle_of(ses))


def ext1_space(c: Module, a: Module) -> Ext1Space:
    return Ext1Space(c, a, cached_pair(c, a, "ext1", _ext1_core, c, a))


def syzygy_lift(f: Morphism) -> Morphism:
    """The map on first syzygies induced by lifting f through minimal covers.

    Returns kappa with incl_target o kappa = (lift of f) o incl_source, where
    the inclusions come from the cached minimal projective resolutions of the
    source and target of f.
    """
    res_s = projective_resolution(f.source)
    res_t = projective_resolution(f.target)
    k_s, incl_s = res_s.syzygy_edge(1)
    k_t, incl_t = res_t.syzygy_edge(1)
    lift = factor_through(res_t.step_onto(0), f @ res_s.step_onto(0))
    if lift is None:
        raise AlgebraError("cover lift failed")
    through = lift @ incl_s
    maps = []
    for cv, tv in zip(incl_t.maps, through.maps):
        sol = cv.solve_right(tv)
        if sol is None:
            raise AlgebraError("lift does not restrict to the syzygies")
        maps.append(sol)
    return Morphism._make(k_s, k_t, tuple(maps))


def yoneda_ext1_pairing(eta: ShortExactSequence, f: Morphism) -> tuple:
    """Class coordinates of the pullback of eta along f: M -> quotient(eta).

    The result lives in ext1_space(M, sub(eta)); it is computed by lifting f
    through the chosen covers and precomposing a cocycle for eta with the
    induced map on syzygies.
    """
    if f.target.dims != eta.quotient.dims:
        raise AlgebraError("pairing map does not end at the sequence quotient")
    space_c = ext1_space(eta.quotient, eta.sub)
    space_m = ext1_space(f.source, eta.sub)
    psi = space_c.cocycle_of(eta)
    kappa = syzygy_lift(f)
    return space_m.reduce(psi @ kappa)


# -- transpose and its composites ---------------------------------------------


def _path_class_vector(proj: Module, path) -> Matrix:
    """Coordinates of a path's residue inside a projective's vertex space."""
    algebra = proj.algebra
    coords = algebra.reduce_path(path)
    rows = [[coords[algebra.basis_index[q]]] for q in proj._proj_paths[path.target]]
    return Matrix(len(rows), 1, rows)


@memoized("transpose")
def transpose(x: Module) -> Module:
    """Cokernel of the reversed minimal presentation, over the opposite algebra.

    Transposing commutes with direct sums (minimal presentations add up), so
    the summand tree of x is preserved; downstream consumers such as
    add-approximations rely on summand lists staying as fine as possible.
    An atom is read off its own presentation (see ``presentation``): P0 has
    one summand per generator, P1 one per relation, at the vertex where the
    relation ends, and the relation's ``(i, c, p)`` triples are the entries
    of P1 -> P0.  The presentation is minimal, so the cokernel is Tr x
    itself, with no projective summand added.
    """
    algebra = x.algebra
    op = algebra.opposite()
    if x.summands is not None:
        return direct_sum(op, [transpose(s) for s in x.summands])
    pres = presentation(x)
    relations = pres.relations or ()
    src = direct_sum(op, [proj_module(op, v) for v in pres.vertices])
    p1 = [proj_module(op, rel[0][2].target) for rel in relations]
    tgt = direct_sum(op, p1)
    # the component P0[c] <- P1[b] is right multiplication by sum_k u_k p_k;
    # transposed, P0[c]^op -> P1[b]^op sends the generator to sum_k u_k rev(p_k)
    comps_per_source: list[Morphism] = []
    for c, src_c in enumerate(src.summands):
        us = [Matrix.zeros(tgt_b.dims[src_c._proj_vertex], 1) for tgt_b in p1]
        for b, rel in enumerate(relations):
            for c_k, coeff, path in rel:
                if c_k == c:
                    us[b] = us[b] + _path_class_vector(p1[b], algebra.reverse_path(path)).scale(coeff)
        into_targets = [morphism_from_generator(src_c, tgt_b, u) for tgt_b, u in zip(p1, us)]
        comps_per_source.append(assemble_into_components(src_c, tgt, into_targets))
    d_op = assemble_from_components(src, tgt, comps_per_source)
    return cokernel(d_op)[0]


@memoized("dtr")
def dtr(x: Module) -> Module:
    """Dual of the transpose (back over the original algebra)."""
    return dualize(transpose(x))


@memoized("trd")
def trd(x: Module) -> Module:
    """Transpose of the dual (back over the original algebra)."""
    return transpose(dualize(x))


# -- add-membership and minimal approximations ---------------------------------


def is_right_minimal(g: Morphism) -> bool:
    """Certificate: every endomorphism killed by g lies in rad End(source)."""
    end_space = hom_space(g.source, g.source)
    if end_space.dim == 0:
        return True
    return subspace_contains(_end_radical_coords(g.source), composite_coords(g, end_space).kernel_basis())


def is_left_minimal(f: Morphism) -> bool:
    return is_right_minimal(dualize_morphism(f))


def _radical_terms(u: Module, w: Module) -> list:
    """For each map phi in a basis of the radical maps u -> w (all of
    Hom(u, w) when w is not u, rad End(u) when it is), the path combinations
    of its values at u's generators (see ``_combinations``)."""
    phis = hom_space(u, w).gens
    if w is u:
        phis = phis @ _end_radical_coords(u)
    vertices = presentation(u).vertices
    return [_combinations(w, vertices, col) for col in phis.columns()]


def _radical_compositions(atoms: Sequence[Module], spaces: Sequence[HomSpace], t: int) -> Matrix:
    """Coordinates in ``spaces[t]`` = Hom(u_t, x), as columns, of a spanning
    set of the composites psi∘phi with phi: u_t -> u_s radical inside add m
    and psi in ``spaces[s]`` = Hom(u_s, x).  psi∘phi is fixed by the values
    of psi at phi's generator images: one block of path operators per atom
    pair, whose path combinations are cached on the younger atom, and one
    ``generator_coords`` for them all."""
    u = atoms[t]
    vertices = presentation(u).vertices
    blocks = [
        _evaluate(space_s, vertices, cached_pair(u, u_s, "radical terms", _radical_terms, u, u_s))
        for u_s, space_s in zip(atoms, spaces)
        if space_s.dim
    ]
    space_t = spaces[t]
    return space_t.generator_coords(hstack(blocks) if blocks else Matrix.zeros(space_t.gens.rows, 0))


def minimal_right_approximation(x: Module, m: Module) -> Morphism:
    """The right minimal add(m)-approximation of x.

    Source multiplicities come from the tops of the restricted hom functor,
    over the local parts u of m's atoms (``distinct_atoms``, cached on m):
    the maps u -> x modulo the composites through radical maps inside add
    m form a right vector space over D = End(u)/rad, and basis maps whose
    classes are a D-basis of it give the copies of u.  For D = QQ these are
    the basis maps spanning a complement, read in generator coordinates;
    otherwise each chosen map v brings all of v∘End(u) into the span
    (``_d_linear_choice``).  The result is minimal by construction.
    """
    atoms = distinct_atoms(m)
    spaces = [hom_space(u, x) for u in atoms]
    parts: list[Module] = []
    comps: list[Morphism] = []
    for t, u in enumerate(atoms):
        space_t = spaces[t]
        if space_t.dim == 0:
            continue
        span = _radical_compositions(atoms, spaces, t)
        _, chosen = complement_projection(span)
        if not _split_local(u):
            chosen = _d_linear_choice(space_t, span, chosen)
        for idx in chosen:
            parts.append(u)
            comps.append(space_t.basis_map(idx))
    source = direct_sum(x.algebra, parts)
    return assemble_from_components(source, x, comps)


def _d_linear_choice(space: HomSpace, span: Matrix, candidates: Sequence[int]) -> list[int]:
    """The candidate basis maps v of ``space`` = Hom(u, x) that are not in
    ``span`` + the v'∘End(u) of the ones chosen before: their classes are
    a basis of Hom(u, x)/span over End(u)/rad when the candidates span it
    over QQ.  The v∘End(u) are columns of ``composition_table``."""
    table = composition_table(space, hom_space(space.source, space.source))
    chosen = []
    for i in candidates:
        if not subspace_contains(span, Matrix.column([int(k == i) for k in range(space.dim)])):
            chosen.append(i)
            span = hstack([span] + [t.column_vector(i) for t in table])
    return chosen


def minimal_left_approximation(x: Module, m: Module) -> Morphism:
    """The left minimal add(m)-approximation of x (computed by duality)."""
    g = minimal_right_approximation(dualize(x), dualize(m))
    return dualize_morphism(g)


def in_add(x: Module, m: Module) -> bool:
    """Whether x is a direct summand of a finite direct sum of copies of m.

    By a Krull-Schmidt count over the local parts z of m's atoms
    (``distinct_atoms``): x is in add(m) exactly when the summands
    isomorphic to some z fill it, sum of multiplicity(z, x)·dim z = dim x.
    The count certifies both answers and never builds End(x).
    """
    return x.is_zero() or sum(_multiplicity(z, x) * z.total_dim for z in distinct_atoms(m)) == x.total_dim


def in_add_via_split(x: Module, m: Module) -> bool:
    """Independent route: the assembled hom-basis map splits off x."""
    if x.is_zero():
        return True
    if m.is_zero():
        return False
    basis = hom_basis(m, x)
    if not basis:
        return False
    source = direct_sum(x.algebra, [m] * len(basis))
    g = assemble_from_components(source, x, basis)
    if not g.is_epi():
        return False
    return is_split_epi(g)
