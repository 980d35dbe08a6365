"""Endomorphism algebras as structure-constant algebras, and checkers built on them.

The first half turns ``End(M)`` into exact linear-algebra data: the atom
blocks of End(M) over the local parts of M's atoms, its Jacobson radical
read off them, modules over the algebra, and bounded
projective/injective-dimension tests driven by projective covers.  The
second half holds the headline checks: maximal orthogonality, the
four-condition cotilting equivalence, the orthogonality implication with its
converse-failure probe, and the exchange-sequence search.

Conventions.  The product ``x * y`` of two endomorphisms is the composite
"apply ``y`` first, then ``x``" (matching ``Morphism.__matmul__``).  With this
choice ``Hom(M2, M1)`` is a left ``End(M1)``-module under post-composition and
a left ``End(M2)^op``-module under pre-composition, so its dual is a left
``End(M2)``-module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .cache import Cached, cached, cached_pair, memoized
from .exact_linalg import Matrix, _canon_row, exact_div, subspace_contains
from .path_algebra import AlgebraError, InternalError
from .rep import (
    Module,
    Morphism,
    ShortExactSequence,
    _end_radical_coords,
    cokernel,
    composite_coords,
    composition_table,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_space,
    inj_module,
    is_isomorphic,
    iso_classes,
    placed_parts,
    proj_module,
)
from .homology import ext_dim, factor_through, in_add, is_left_minimal, is_right_minimal, minimal_left_approximation
from .relhom import (
    F_coresolution,
    F_resolutions_of_atoms,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    gldim_F_le,
    id_F_le,
    is_F_exact,
    pd_F_le,
    resolution_step_sequence,
)

# ---------------------------------------------------------------------------
# structure-constant algebras


class StructureConstantAlgebra(Cached):
    """End(A_0 + ... + A_k) for local atoms A_s, held by its atom blocks
    (``_AtomBlocks``) and built only by :func:`_block_algebra`.

    Its basis is the union of the bases of the Hom(A_s, A_t), block (s, t)
    at ``_blocks.offsets[s][t]``; ``unit`` is the identity's coordinates.
    ``idempotents`` are the identities e_s of the atoms, pairwise orthogonal
    and summing to the unit, and the left ideal ``A·e_s`` is spanned by the
    run of blocks (s, t), its ``piece_members``; the engine builds projective
    covers from them.  ``piece_classes`` groups the atoms by isomorphism
    class: an End(M) that repeats a class is resolved over its basic algebra.
    """

    __slots__ = (
        "dim",
        "_blocks",
        "unit",
        "idempotents",
        "piece_members",
        "piece_classes",
        "name",
        "__weakref__",
    )

    def __init__(self, dim, unit, idempotents, piece_classes, piece_members, blocks, name: str = "") -> None:
        super().__init__()
        self.dim = dim
        self._blocks = blocks
        self.unit = tuple(unit)
        self.idempotents = tuple(tuple(e) for e in idempotents)
        self.piece_classes = tuple(piece_classes)
        self.piece_members = piece_members
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "algebra"
        return f"StructureConstantAlgebra({label}, dim={self.dim})"


def _terms(vec) -> list:
    """The nonzero ``(index, coefficient)`` pairs of a dense vector."""
    return [(t, c) for t, c in enumerate(vec) if c != 0]


@memoized("block radical")
def _block_radical(g: StructureConstantAlgebra) -> list:
    """The ``(s, t, vector)`` that lift a basis of rad/rad² of g = End(A_0 +
    ... + A_k), each vector in the coordinates of block (s, t).

    For local, pairwise non-isomorphic atoms (``rep.local_parts`` certifies
    locality) the radical is all of Hom(A_s, A_t) for s != t and rad
    End(A_s) on the diagonal (``_RadicalBlock``).  rad² is blocked alike,
    rad²(s, t) = sum over u of rad(u, t)∘rad(s, u), each product read off
    the record of its atom triple (``_Triple.square``), and the radical
    vectors that are pivots of [rad² | rad] lift a basis of rad/rad², block
    by block.  A block that rad² misses lifts itself, and a 1-dimensional
    block that it meets lifts nothing.
    """
    blocks = g._blocks
    if blocks.radicals is None:
        raise InternalError("endo", "an End(M) that repeats an atom class is resolved over its basic algebra")
    triples, radicals = blocks.triples, blocks.radicals
    count = len(radicals)
    generators = []
    for s in range(count):
        for t in range(count):
            block = radicals[s][t].vectors
            if not block:
                continue
            d = len(block[0])
            rows = []
            for u in range(count):
                triple = triples[s][u][t]
                if triple is not None:
                    products = triple.square
                    if products is None:
                        products = triple.fill_square(radicals[u][t].terms, radicals[s][u].terms, d)
                    rows += products
            if not rows:
                generators.extend((s, t, vec) for vec in block)
            elif d > 1:
                square = len(rows)
                _, pivots = Matrix._trusted(square + len(block), d, rows + block).transpose().rref()
                generators.extend((s, t, block[p - square]) for p in pivots if p >= square)
    return generators


def radical(g: StructureConstantAlgebra) -> Matrix:
    """Basis (columns) of the Jacobson radical of g, an End(M) of pairwise
    non-isomorphic parts (the basic algebra of any End(M) is one), read off
    its atom blocks (``_RadicalBlock``) and laid out in offset order: the
    blocks hold disjoint runs of coordinates, so that is the normal form of
    ``kernel_basis``.  The chains read the blocks themselves."""
    if g._blocks.radicals is None:
        raise AlgebraError("endo: an End(M) that repeats an atom class has no block radical; read its basic algebra's")
    offsets, n = g._blocks.offsets, g.dim
    cols = []
    for s, row in enumerate(g._blocks.radicals):
        for t, block in enumerate(row):
            for vec in block.vectors:
                col = [0] * n
                col[offsets[s][t] : offsets[s][t] + len(vec)] = vec
                cols.append(col)
    return Matrix.from_columns(cols) if cols else Matrix.zeros(n, 0)


# ---------------------------------------------------------------------------
# modules over a structure-constant algebra


class SCModule:
    """A left module: one action matrix per algebra basis element.

    ``grading`` gives each coordinate its vertex: each structural
    idempotent e_i acts as the projection onto the coordinates at vertex i.
    The engine resolves one vertex at a time, so a module without a grading
    is refused when it is built.
    """

    __slots__ = ("algebra", "dim", "action", "grading")

    def __init__(self, algebra: StructureConstantAlgebra, dim: int, action, grading) -> None:
        self.algebra = algebra
        self.dim = int(dim)
        self.action = tuple(action)
        self.grading = grading
        if len(self.action) != algebra.dim:
            raise AlgebraError("need one action matrix per algebra basis element")
        if grading is None or len(grading) != self.dim or not set(grading) <= set(range(len(algebra.idempotents))):
            raise AlgebraError("grading must give each coordinate a vertex of the algebra")
        for a in self.action:
            if a.rows != self.dim or a.cols != self.dim:
                raise AlgebraError("action matrix shape mismatch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SCModule(dim={self.dim} over dim-{self.algebra.dim} algebra)"


# ---------------------------------------------------------------------------
# projective covers and bounded dimensions over a structure-constant algebra


class _Span:
    """Incremental exact Gaussian span of row vectors of a fixed length.

    ``rows`` are the rows of the RREF of the span, each with its pivot in
    ``pivots``, in the order they were found.
    """

    __slots__ = ("length", "rows", "pivots")

    def __init__(self, length: int) -> None:
        self.length = length
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def _reduce(self, vec: list) -> list:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                for t, rt in enumerate(row):
                    if rt != 0:
                        v[t] -= c * rt
        return v

    def contains(self, vec: list) -> bool:
        return all(c == 0 for c in self._reduce(vec))

    def add(self, vec: list) -> bool:
        v = self._reduce(vec)
        for p, c in enumerate(v):
            if c != 0:
                if c != 1:
                    v = [exact_div(t, c) for t in v]
                for row in self.rows:
                    cc = row[p]
                    if cc != 0:
                        for t in range(self.length):
                            if v[t] != 0:
                                row[t] -= cc * v[t]
                self.rows.append(v)
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


class _Cover:
    """One projective cover P -> K of a chain, P the sum of the pieces
    A e_kind at dense ``offsets``.  e_i P lists, summand by summand, the
    members at vertex i (summand r from ``starts[i][r]``); ``kernels[i]`` is
    a basis of e_i ker(P -> K) in those coordinates.  ``gens[r]``, the image
    of summand r's idempotent, is a vector of K at vertex ``kinds[r]``, None
    on a simple top's cover (:meth:`_Chain._at_top`)."""

    __slots__ = ("kinds", "offsets", "dim", "starts", "widths", "by_vertex", "gens", "kernels")

    def __init__(self, tables: "_ChainTables", kinds: list, gens) -> None:
        self.kinds = kinds
        self.gens = gens
        self.by_vertex = tables.by_vertex
        self.offsets = []
        self.dim = 0
        self.starts = [[] for _ in tables.members]
        self.widths = [0] * len(tables.members)
        for kind in kinds:
            self.offsets.append(self.dim)
            self.dim += len(tables.members[kind])
            for i, width in enumerate(tables.widths[kind]):
                self.starts[i].append(self.widths[i])
                self.widths[i] += width
        self.kernels: list[list[list]] | None = None

    def dense(self, vertex: int, vec: list) -> list:
        """The e_vertex P vector ``vec`` in P's dense coordinates."""
        out = [0] * self.dim
        for kind, off, start in zip(self.kinds, self.offsets, self.starts[vertex]):
            for p, t in enumerate(self.by_vertex[kind][vertex]):
                out[off + t] = vec[start + p]
        return out


class _ChainTables:
    """What every chain over g reads (read only), once per g and holding no
    reference to it.  The pieces are the A e_s.  b_m lies at ``vertex[m]``,
    the i with e_i·b_m = b_m; ``by_vertex[s][i]`` lists the positions in A
    e_s of its members at vertex i, the coordinates of e_i A e_s, and
    ``widths[s][i]`` counts them.  ``acts[s][t]`` maps k to the nonzero
    b_k·(member t of A e_s) in e_vertex[k] A e_s coordinates;
    ``rad_spans[s][i]`` spans e_i (rad A) e_s, and ``tops[s]`` lists the
    members of A e_s outside it.  ``leaving[i]`` holds the homogeneous
    e_j·ℓ·e_i of the radical generators ℓ as ``(j, terms)``, which generate
    rad A as the ℓ do."""

    __slots__ = ("members", "vertex", "by_vertex", "widths", "acts", "rad_spans", "tops", "leaving", "__weakref__")

    @classmethod
    def _from_blocks(cls, g: StructureConstantAlgebra) -> "_ChainTables":
        """The tables placed at the offsets of g's atom blocks: A e_s is the
        run of blocks (s, t), each at vertex t, e_t (rad A) e_s is the span
        of rad Hom(A_s, A_t) (``_RadicalBlock``), and b_k·b_m for b_m in
        block (s, u) and b_k in block (u, w) is read off the record of the
        triple (s, u, w) (``_Triple.rows``), already in the coordinates of
        e_w A e_s."""
        blocks = g._blocks
        generators = _block_radical(g)
        dims, offsets, triples = blocks.dims, blocks.offsets, blocks.triples
        tables = cls.__new__(cls)
        tables.members = g.piece_members
        tables.vertex = [t for row in dims for t, d in enumerate(row) for _ in range(d)]
        tables.by_vertex = [
            [list(range(off - starts[0], off - starts[0] + d)) for off, d in zip(starts, row)]
            for starts, row in zip(offsets, dims)
        ]
        tables.widths = dims
        tables.rad_spans = [[block.span for block in row] for row in blocks.radicals]
        tables.tops = [[offsets[s][s] + q for q in row[s].tops] for s, row in enumerate(blocks.radicals)]
        tables.acts = []
        for s, row in enumerate(dims):
            piece = []
            for u, d in enumerate(row):
                at = [(offsets[u][w], triple.rows) for w, triple in enumerate(triples[s][u]) if triple is not None]
                for j in range(d):
                    piece.append({off + i: terms for off, rows in at for i, terms in rows[j]})
            tables.acts.append(piece)
        tables.leaving = [[] for _ in dims]
        for s, t, vec in generators:
            tables.leaving[s].append((t, [(offsets[s][t] + q, c) for q, c in enumerate(vec) if c]))
        return tables


@memoized("chain tables")
def _chain_tables(g: StructureConstantAlgebra) -> _ChainTables:
    return _ChainTables._from_blocks(g)


class _Chain:
    """A chain of projective covers ... -> P_1 -> P_0 -> x -> 0, graded by
    vertex: P_k -> P_{k-1} maps e_i P_k into e_i P_{k-1} (P_0 -> x maps it
    into e_i x, x's coordinates at vertex i), so each kernel is solved for
    one vertex at a time and its vectors lie at one vertex.

    The cover of K (x, or a kernel) spans rad K = L·K by the homogeneous
    radical generators leaving each vector's vertex, one ``_Span`` per
    vertex, and takes the basis vectors of K outside it (x's unit vectors,
    or the kernel vectors) as generators.  The images of the members of
    their piece come in one pass; those of the members outside rad A join
    the spans.  A cover checks, vertex by vertex, that it is onto and that
    its kernel lies in rad P (minimality): with local, pairwise
    non-isomorphic atoms every cover taken this way is a projective cover.
    A chain keeps g's tables and x's action, not g: memoized chains do not
    point back at g.
    """

    def __init__(self, g: StructureConstantAlgebra, base: SCModule) -> None:
        self._read_algebra(g)
        self.base_action = base.action
        self.base_at = [[c for c, i in enumerate(base.grading) if i == v] for v in range(len(self.members))]

    @classmethod
    def _at_top(cls, g: StructureConstantAlgebra, kind: int) -> "_Chain":
        """The chain of top(A e) for piece ``kind``, started at its projective
        cover: covers[0] is A e itself with kernel (rad A)e, minimal by
        definition, so no base module is built and no kernel is solved for."""
        chain = cls.__new__(cls)
        chain._read_algebra(g)
        cover = _Cover(chain.tables, [kind], None)
        cover.kernels = [span.rows for span in chain.tables.rad_spans[kind]]
        chain.covers.append(cover)
        return chain

    def _read_algebra(self, g: StructureConstantAlgebra) -> None:
        self.tables = _chain_tables(g)
        self.algebra_dim = g.dim
        self.members = self.tables.members
        self.covers: list[_Cover] = []

    # -- cover construction ---------------------------------------------------

    def _member_images(self, cover: _Cover, j: int, vec: list) -> dict:
        """m -> b_m·vec for the members b_m of A e_j, for an e_j P vector:
        each an e_vertex[m] P vector, all read in one pass over vec."""
        tables = self.tables
        images = {m: [0] * cover.widths[tables.vertex[m]] for m in tables.members[j]}
        for r, kind in enumerate(cover.kinds):
            start = cover.starts[j][r]
            piece = tables.acts[kind]
            for p, t in enumerate(tables.by_vertex[kind][j]):
                c = vec[start + p]
                if c == 0:
                    continue
                for k, pairs in piece[t].items():
                    img = images[k]
                    target = cover.starts[tables.vertex[k]][r]
                    for q, x in pairs:
                        img[target + q] += c * x
        return images

    def extend(self) -> None:
        tables = self.tables
        if self.covers:
            below = self.covers[-1]
            widths = below.widths
            candidates = [(j, v) for j, vecs in enumerate(below.kernels) for v in vecs]
            by_candidate = [self._member_images(below, j, v) for j, v in candidates]
        else:
            at, action = self.base_at, self.base_action
            widths = [len(coords) for coords in at]
            candidates = [
                (i, [int(p == q) for q in range(len(coords))]) for i, coords in enumerate(at) for p in range(len(coords))
            ]
            by_candidate = [
                {m: [action[m]._data[r][c] for r in at[tables.vertex[m]]] for m in tables.members[i]}
                for i, coords in enumerate(at)
                for c in coords
            ]
        spans = [_Span(width) for width in widths]
        for (i, _), images in zip(candidates, by_candidate):
            for j, terms in tables.leaving[i]:
                w = [0] * widths[j]
                for k, c in terms:
                    for q, x in enumerate(images[k]):
                        if x:
                            w[q] += c * x
                spans[j].add(w)
        kinds, gens = [], []
        columns = [[] for _ in tables.members]
        for (kind, w), images in zip(candidates, by_candidate):
            if spans[kind].contains(w):
                continue
            kinds.append(kind)
            gens.append(w)
            for m in tables.tops[kind]:
                spans[tables.vertex[m]].add(images[m])
            ms = tables.members[kind]
            for i, positions in enumerate(tables.by_vertex[kind]):
                columns[i].extend(images[ms[t]] for t in positions)
        cover = _Cover(tables, kinds, gens)
        cover.kernels = []
        rank = 0
        for block in columns:
            if len(block) < 2:  # a single column is in the kernel iff it is zero
                kernel = [[1]] if block and not any(block[0]) else []
            else:
                rows = [_canon_row(list(row)) for row in zip(*block)]
                kernel = Matrix._trusted(len(rows), len(block), rows).kernel_basis().columns()
            cover.kernels.append(kernel)
            rank += len(block) - len(kernel)
        if rank != len(candidates):
            raise InternalError("endo", "projective cover construction is not onto")
        if not all(
            tables.rad_spans[kind][i].contains(v[start : start + len(tables.by_vertex[kind][i])])
            for i, vecs in enumerate(cover.kernels)
            for v in vecs
            for kind, start in zip(cover.kinds, cover.starts[i])
        ):
            raise InternalError("endo", "projective cover construction is not minimal: its kernel leaves rad P")
        self.covers.append(cover)

    def ensure(self, count: int) -> None:
        while len(self.covers) < count:
            self.extend()

    def kernel_is_zero(self, k: int) -> bool:
        """Whether the k-th syzygy (kernel after k covers) vanishes, k >= 1."""
        self.ensure(k)
        return not any(self.covers[k - 1].kernels)

    def _dense_gens(self, level: int) -> list[list]:
        """The generators of cover ``level`` >= 1 as dense P_{level-1} vectors."""
        below, cover = self.covers[level - 1], self.covers[level]
        return [below.dense(kind, w) for kind, w in zip(cover.kinds, cover.gens)]

    # -- Hom complexes ---------------------------------------------------------

    def hom_complex_dims_and_ranks(self, k_hi: int, action, grading):
        """Dims of Hom(P_k, Y) for k <= k_hi and ranks of the k -> k+1 maps,
        for Y given by its action matrices and grading: Hom(A e_i, Y) is
        e_i Y, Y's coordinates at vertex i, so a map is read off the columns
        of Y's action at its source vertex and the rows at its target."""
        self.ensure(k_hi + 1)
        at = [[c for c, i in enumerate(grading) if i == v] for v in range(len(self.members))]
        hom_dims = [sum(len(at[kind]) for kind in cover.kinds) for cover in self.covers[: k_hi + 1]]
        ranks = []
        for k in range(k_hi):
            targets = self.covers[k + 1].kinds
            gens = self._dense_gens(k + 1)
            cols = []
            for kind, off in zip(self.covers[k].kinds, self.covers[k].offsets):
                ms = self.members[kind]
                # the elements of A e_kind that the generators of P_{k+1} have at this summand
                elements = [
                    [(ms[p], c) for p, c in enumerate(gen[off : off + len(ms)]) if c != 0] for gen in gens
                ]
                for u in at[kind]:
                    cols.append(
                        [
                            sum(c * action[m]._data[r][u] for m, c in terms)
                            for kind_s, terms in zip(targets, elements)
                            for r in at[kind_s]
                        ]
                    )
            ranks.append(Matrix.from_columns(cols).rank())
        return hom_dims, ranks


def _reduce_to_basic(g: StructureConstantAlgebra):
    """``(basic, transport)`` for an End(M) that repeats an atom class (a
    Morita reduction built from its atoms on first read and memoized on g,
    ``_block_basic``), ``transport`` mapping an SCModule over g to one over
    basic; ``(g, None)`` for every other algebra, which is resolved as
    given."""
    if g._blocks is None or g._blocks.atoms is None:
        return g, None
    return cached(g, "basic", _block_basic, g)


def _pd_le_on_chain(chain: _Chain, n: int) -> bool:
    # every cover is a projective cover, so the n-th syzygy is projective
    # exactly when the kernel after n+1 covers vanishes
    return any(chain.kernel_is_zero(k) for k in range(1, n + 2))


def sc_pd_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    """Projective dimension bound over a structure-constant algebra.

    Covers are projective covers, sums of pieces ``A e``: pd x <= n
    exactly when the kernel after ``n+1`` covers is zero.  Read over the
    basic algebra, like every bound here.
    """
    if x.dim == 0:
        return True
    if n < 0:
        return False
    basic, transport = _reduce_to_basic(g)
    return _pd_le_on_chain(_Chain(basic, transport(x) if transport else x), n)


def _simple_chains(g: StructureConstantAlgebra) -> tuple:
    """``(transport, chains)``: the transport of ``_reduce_to_basic`` (None
    when g is resolved as given) and the resolution chains, over the basic
    algebra, of the tops of one piece per idempotent class: the simple
    modules.  Zero tops have no chain."""
    basic, transport = _reduce_to_basic(g)
    classes = basic.piece_classes
    chains = [_top_chain(basic, kind) for kind, cls in enumerate(classes) if cls not in classes[:kind]]
    return transport, [chain for chain in chains if chain is not None]


def gldim_le(g: StructureConstantAlgebra, n: int) -> bool:
    """Whether the global dimension is at most n: pd S <= n for every simple S."""
    if n < 0:
        raise AlgebraError("global dimension bound must be >= 0")
    return all(_pd_le_on_chain(chain, n) for chain in _simple_chains(g)[1])


@memoized("top chain")
def _top_chain(g: StructureConstantAlgebra, kind: int) -> "_Chain | None":
    """The resolution chain of the top A e / (rad A)e of piece
    ``kind`` (None if zero), seeded at its known first syzygy (rad A)e."""
    if sum(span.rank for span in _chain_tables(g).rad_spans[kind]) == len(g.piece_members[kind]):
        return None
    return _Chain._at_top(g, kind)


def sc_ext_dims(g: StructureConstantAlgebra, x: SCModule, y: SCModule, up_to: int) -> list[int]:
    """Dimensions of Ext^i(x, y) for i = 1..up_to over the algebra."""
    if up_to < 1:
        return []
    basic, transport = _reduce_to_basic(g)
    if transport:
        x = transport(x)
        y = transport(y)
    if x.dim == 0 or y.dim == 0:
        return [0] * up_to
    chain = _Chain(basic, x)
    dims, ranks = chain.hom_complex_dims_and_ranks(up_to + 1, y.action, y.grading)
    out = []
    for i in range(1, up_to + 1):
        kernel_dim = dims[i] - ranks[i]
        out.append(kernel_dim - ranks[i - 1])
    return out


def sc_injective_dim_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    """Injective dimension bound: id x <= n exactly when Ext^(n+1)(S, x) = 0
    for every simple S, read off the chains of the simples (``gldim_le``'s)."""
    if x.dim == 0:
        return True
    if n < 0:
        return False
    transport, chains = _simple_chains(g)
    if transport is not None:
        x = transport(x)
    for chain in chains:
        dims, ranks = chain.hom_complex_dims_and_ranks(n + 2, x.action, x.grading)
        if dims[n + 1] - ranks[n + 1] - ranks[n]:
            return False
    return True


# ---------------------------------------------------------------------------
# endomorphism algebras of representations


def end_algebra(m: Module) -> tuple[StructureConstantAlgebra, list[Morphism]]:
    """The endomorphism algebra of ``m`` with its morphism basis.

    The algebra is :func:`end_ring`.  The basis is built on each call: the
    basis map of phi: A_s -> A_t, for local parts of m's atoms, is
    into_t∘phi∘onto_s (``rep.placed_parts``), its vertex maps placed at the
    offsets of the atoms of A_t (rows) and A_s (columns) inside m.
    """
    placed = placed_parts(m)
    basis = []
    for a_s, _, onto, off_s in placed:
        for a_t, into, _, off_t in placed:
            for phi in hom_space(a_s, a_t).basis:
                maps = []
                for v, (d, block, row_off, col_off) in enumerate(zip(m.dims, phi.maps, off_t, off_s)):
                    if into is not None:
                        block = into[v] @ block
                    if onto is not None:
                        block = block @ onto[v]
                    rows = [[0] * d for _ in range(d)]
                    for i, entries in enumerate(block._data):
                        rows[row_off + i][col_off : col_off + len(entries)] = entries
                    maps.append(Matrix._trusted(d, d, rows))
                basis.append(Morphism._make(m, m, tuple(maps)))
    return end_ring(m), basis


class _AtomBlocks(NamedTuple):
    """End(A_0 + ... + A_k) by atom blocks: ``dims[s][t]`` and
    ``offsets[s][t]`` place Hom(A_s, A_t).  For pairwise non-isomorphic
    atoms ``triples[s][u][t]`` is the record of Hom(A_u, A_t) after Hom(A_s,
    A_u) (``_Triple``, None where a block is zero) and ``radicals[s][t]``
    rad Hom(A_s, A_t) (``_RadicalBlock``), and no module is held.  An End(M)
    that repeats an atom class is resolved over its basic algebra and reads
    no triple: it holds its ``atoms`` instead (none of them is M, which has
    at least two), for ``_block_basic``."""

    dims: list
    offsets: list
    triples: list | None
    radicals: list | None
    atoms: tuple | None


class _Triple:
    """One atom triple (s, u, t) of an End(M): the composites of Hom(A_u,
    A_t) after Hom(A_s, A_u), cached on the pair of their hom cores
    (``_atom_triple``), so every End(M) over the same atoms reads one
    record, and holding no module.

    ``columns[j][i]`` holds the nonzero ``(k, c)`` of a_i∘b_j for the bases
    a of Hom(A_u, A_t) and b of Hom(A_s, A_u); ``rows[j]`` the ``(i,
    columns[j][i])`` that are not empty, what the chain tables read for b_j
    as a member of A e_s.  ``square`` holds the nonzero rad(u, t)∘rad(s, u)
    in block (s, t) as canonical rows, None until ``_block_radical`` first
    reads it.  Only an End(M) of pairwise non-isomorphic atoms reads it,
    where A_u is A_t exactly when u = t: so the radicals it is filled from
    depend on the triple alone.
    """

    __slots__ = ("columns", "rows", "square", "__weakref__")

    def __init__(self, outer, inner) -> None:
        self.columns = _sparse_columns(outer, inner)
        self.rows = tuple(tuple((i, terms) for i, terms in enumerate(column) if terms) for column in self.columns)
        self.square = None

    def fill_square(self, outer: list, inner: list, d: int) -> list:
        """Set ``square`` from the ``_terms`` of bases of rad(u, t)
        (``outer``) and rad(s, u) (``inner``), d the dimension of block (s,
        t), and return it."""
        rows = []
        for x in outer:
            for y in inner:
                prod = [0] * d
                for j, yj in y:
                    column = self.columns[j]
                    for i, xi in x:
                        for k, r in column[i]:
                            prod[k] += xi * yj * r
                if any(prod):
                    rows.append(_canon_row(prod))
        self.square = rows
        return rows


def _atom_triple(outer, inner) -> _Triple:
    """The record of ``outer`` after ``inner``, cached on the younger of the
    two spaces' cores, like their composition table."""
    return cached_pair(outer._core, inner._core, "atom triple", _Triple, outer, inner)


def _sparse_columns(outer, inner) -> tuple:
    """``composition_table(outer, inner)`` as sparse columns: ``[j][i]``
    holds the nonzero ``(k, c)`` of a_i∘b_j."""
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(col) if c != 0) for col in zip(*coords._data))
        if coords.rows
        else ((),) * outer.dim
        for coords in composition_table(outer, inner)
    )


def _atom_triples(spaces: list, dims: list) -> list:
    """``triples[s][u][t]``, the record of ``spaces[u][t]`` after
    ``spaces[s][u]`` (``_atom_triple``), None where one of them is zero."""
    count = len(spaces)
    return [
        [
            [_atom_triple(spaces[u][t], spaces[s][u]) if dims[u][t] else None for t in range(count)]
            if dims[s][u]
            else [None] * count
            for u in range(count)
        ]
        for s in range(count)
    ]


class _RadicalBlock(NamedTuple):
    """rad Hom(A_s, A_t) of local atoms, holding no module: rad End(A_s) on
    the diagonal, and all of Hom(A_s, A_t) for A_s and A_t non-isomorphic.
    ``vectors`` is a basis in the coordinates of the hom space, ``terms``
    their ``_terms``, ``span`` their span and ``tops`` the coordinates whose
    unit vectors lie outside it.  Cached on the hom core and read only: one
    object serves every End(M) over the atoms."""

    vectors: list
    terms: list
    span: _Span
    tops: list


def _radical_block(space) -> _RadicalBlock:
    return cached(space._core, "radical block", _make_radical_block, space)


def _make_radical_block(space) -> _RadicalBlock:
    d = space.dim
    if space.source is space.target:
        vectors = _end_radical_coords(space.source).columns()
    else:
        vectors = [[int(p == q) for q in range(d)] for p in range(d)]
    span = _Span(d)
    for vec in vectors:
        span.add(vec)
    tops = [q for q in range(d) if not span.contains([int(p == q) for p in range(d)])] if span.rank < d else []
    return _RadicalBlock(vectors, [_terms(vec) for vec in vectors], span, tops)


@memoized("identity coords")
def _identity_coords(a: Module) -> list:
    """The coordinates of the identity of ``a`` in ``hom_space(a, a)``."""
    return hom_space(a, a).coords(Morphism.identity(a))


@memoized("end_algebra")
def end_ring(m: Module) -> StructureConstantAlgebra:
    """End(m) as structure constants without its morphism basis
    (``_block_algebra`` of the local parts of m's atoms, ``placed_parts``),
    the parts grouped into isomorphism classes (``iso_classes``).  When a
    class repeats, End(m) is resolved over its basic algebra, built on first
    read (``_reduce_to_basic``)."""
    atoms = [part for part, *_ in placed_parts(m)]
    return _block_algebra(atoms, iso_classes(atoms)[0], f"End(dim {m.total_dim})" if atoms else "End(0)")


def _block_algebra(atoms: list, classes: list, name: str) -> StructureConstantAlgebra:
    """End(A_0 + ... + A_k) from the hom spaces of the atom pairs, its basis
    blocked by (source atom, target atom): atom A_s gives the idempotent
    e_s, and A·e_s is the run of blocks (s, t).  The atoms are local; when
    ``classes`` are all distinct the records of the atom triples and the
    radical blocks, from which the radical, its generators and the chain
    tables are read, are looked up once per End(M)."""
    count = len(atoms)
    spaces = [[hom_space(a, b) for b in atoms] for a in atoms]
    dims = [[space.dim for space in row] for row in spaces]
    offsets, total = [], 0
    for row in dims:
        offsets.append([])
        for d in row:
            offsets[-1].append(total)
            total += d
    unit = [0] * total
    idempotents = []
    for s, a in enumerate(atoms):
        vec = [0] * total
        for k, c in enumerate(_identity_coords(a), offsets[s][s]):
            vec[k] = c
            unit[k] += c
        idempotents.append(vec)
    if len(set(classes)) == count:
        radicals = [[_radical_block(space) for space in row] for row in spaces]
        blocks = _AtomBlocks(dims, offsets, _atom_triples(spaces, dims), radicals, None)
    else:
        blocks = _AtomBlocks(dims, offsets, None, None, tuple(atoms))
    members = tuple(tuple(range(row[0], end)) for row, end in zip(offsets, [row[0] for row in offsets[1:]] + [total]))
    return StructureConstantAlgebra(total, unit, idempotents, classes, members, blocks, name)


def _block_basic(g: StructureConstantAlgebra) -> tuple:
    """``(basic, transport)`` for g = End(atoms) that repeats an atom class:
    basic = End(the first atom of each class) = eps·g·eps, eps the sum of
    the kept idempotents, its block (s, t) g's block (keep[s], keep[t]).
    The transport x -> eps·x holds those basis indices, not g."""
    classes = g.piece_classes
    keep = [classes.index(c) for c in range(max(classes) + 1)]
    atoms = g._blocks.atoms
    basic = _block_algebra([atoms[s] for s in keep], list(range(len(keep))), g.name + " basic")
    dims, offsets = g._blocks.dims, g._blocks.offsets
    indices = [k for s in keep for t in keep for k in range(offsets[s][t], offsets[s][t] + dims[s][t])]
    position = {s: p for p, s in enumerate(keep)}

    def transport(x: SCModule) -> SCModule:
        coords = [c for c, i in enumerate(x.grading) if i in position]
        action = [x.action[k].take_rows(coords).take_columns(coords) for k in indices]
        return SCModule(basic, len(coords), action, [position[x.grading[c]] for c in coords])

    return basic, transport


def hom_sc_bimodule_sides(m2: Module, m1: Module) -> tuple[SCModule, SCModule]:
    """Hom(m2, m1) as a left End(m1)-module, and its dual as a left
    End(m2)-module.

    The first action is post-composition; the second is the transpose of
    pre-composition, which makes Hom(m2, m1) a left End(m2)^op-module.
    Hom(m2, m1) is laid out in blocks (j, s) = Hom(B_j, A_s) for the local
    parts B_j of m2's atoms (outer) and A_s of m1's (``placed_parts``), and
    its dual in the dual basis.  The
    End(m1) basis element phi: A_s -> A_t sends block (j, s) to (j, t) by
    psi -> phi∘psi, and the End(m2) basis element phi: B_j -> B_k sends
    block (k, s) to (j, s) by psi -> psi∘phi, read off atom-level
    composition tables.
    """
    g1 = end_ring(m1)
    g2 = end_ring(m2)
    targets = [part for part, *_ in placed_parts(m1)]
    sources = [part for part, *_ in placed_parts(m2)]
    blocks = [[hom_space(b, a) for a in targets] for b in sources]
    offsets = []
    tdim = 0
    for row in blocks:
        offsets.append([])
        for space in row:
            offsets[-1].append(tdim)
            tdim += space.dim
    post = []
    for s, a_s in enumerate(targets):
        for t, a_t in enumerate(targets):
            outer = hom_space(a_s, a_t)
            if not outer.dim:
                continue
            # a table with a zero factor is empty: it is not built
            tables = [composition_table(outer, row[s]) if row[s].dim else () for row in blocks]
            for p in range(outer.dim):
                rows = [[0] * tdim for _ in range(tdim)]
                # phi_p∘psi_i has coordinates column p of table[i]
                for j, table in enumerate(tables):
                    for i, coords in enumerate(table):
                        col = offsets[j][s] + i
                        for k, r in enumerate(coords._data):
                            if r[p] != 0:
                                rows[offsets[j][t] + k][col] = r[p]
                post.append(Matrix._trusted(tdim, tdim, rows))
    pre = []
    for j, b_j in enumerate(sources):
        for k, b_k in enumerate(sources):
            inner = hom_space(b_j, b_k)
            if not inner.dim:
                continue
            tables = [composition_table(space, inner) if space.dim else None for space in blocks[k]]
            for p in range(inner.dim):
                rows = [[0] * tdim for _ in range(tdim)]
                # psi_i∘phi_p has coordinates column i of table[p], written
                # into row i of the transpose
                for s, table in enumerate(tables):
                    if table is None:
                        continue
                    col_off, row_off = offsets[j][s], offsets[k][s]
                    for m, r in enumerate(table[p]._data):
                        for i, c in enumerate(r):
                            if c != 0:
                                rows[row_off + i][col_off + m] = c
                pre.append(Matrix._trusted(tdim, tdim, rows))
    # block (j, s) lies at vertex s over End(m1) and at vertex j over End(m2)
    at = [(j, s) for j, row in enumerate(blocks) for s, space in enumerate(row) for _ in range(space.dim)]
    side1 = SCModule(g1, tdim, post, [s for _, s in at])
    side2 = SCModule(g2, tdim, pre, [j for j, _ in at])
    return side1, side2


# ---------------------------------------------------------------------------
# reports


@dataclass
class ClauseReport:
    name: str
    passed: bool
    detail: str = ""


class MaxOrthogonalReport:
    """The verdict of ``check_maximal_orthogonal`` and its clause report.

    Every clause is a conjunction, so the first failing step decides a false
    verdict.  ``verdict`` is decided when the check runs: it consumes the
    mode's steps in cost order and stops at the first one that fails.
    ``clauses`` is built on first read by draining the rest of the same steps
    and folding all of them; clauses that disagree with the verdict are an
    ``InternalError``.  Reports compare by (verdict, mode, bound, clauses).
    """

    def __init__(self, mode: str, bound: int, steps: Iterator, fold: Callable[[list], list[ClauseReport]]) -> None:
        self.mode = mode
        self.bound = bound
        self.verdict = True
        self._seen = []
        for step in steps:
            self._seen.append(step)
            if not step.passed:
                self.verdict = False
                break
        self._steps = steps
        self._fold = fold
        self._clauses: list[ClauseReport] | None = None

    @property
    def clauses(self) -> list[ClauseReport]:
        if self._clauses is None:
            if self._steps is None:
                raise AlgebraError("endo: an earlier read of these clauses failed part way; run the check again")
            steps, self._steps = self._steps, None
            clauses = self._fold(self._seen + list(steps))
            if all(c.passed for c in clauses) != self.verdict:
                raise InternalError("endo", f"{self.mode} clauses {clauses} disagree with the verdict {self.verdict}")
            self._clauses, self._seen = clauses, None
        return self._clauses

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxOrthogonalReport):
            return NotImplemented
        return (self.verdict, self.mode, self.bound, self.clauses) == (other.verdict, other.mode, other.bound, other.clauses)

    def __repr__(self) -> str:
        return f"MaxOrthogonalReport(verdict={self.verdict}, mode={self.mode!r}, bound={self.bound}, clauses={self.clauses})"


@dataclass
class TheoremReport:
    """Outcome of the four-condition cotilting equivalence check."""

    bound: int
    hypotheses: list[ClauseReport] = field(default_factory=list)
    condition_a: bool | None = None
    condition_b: bool | None = None
    condition_c: bool | None = None
    condition_d: bool | None = None
    details: dict = field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return all(c.passed for c in self.hypotheses)

    @property
    def flags(self) -> tuple:
        return (self.condition_a, self.condition_b, self.condition_c, self.condition_d)

    @property
    def conditions_agree(self) -> bool:
        flags = self.flags
        if any(f is None for f in flags):
            return False
        return len(set(flags)) == 1

    @property
    def all_true(self) -> bool:
        return all(f is True for f in self.flags)


@dataclass
class OrthogonalityReport:
    """Hypothesis and conclusions of the orthogonality implication."""

    k: int
    bound: int
    hypothesis_dims: list[int] = field(default_factory=list)
    conclusion_dims: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def hypothesis_holds(self) -> bool:
        return all(d == 0 for d in self.hypothesis_dims)

    @property
    def conclusions_hold(self) -> bool:
        return all(a == 0 and b == 0 for _, a, b in self.conclusion_dims)


@dataclass
class ExchangeResult:
    found: bool
    trivial: bool = False
    reason: str = ""
    terms: list[Module] = field(default_factory=list)
    maps: list[Morphism] = field(default_factory=list)
    conditions: dict = field(default_factory=dict)

    @property
    def length(self) -> int:
        return max(len(self.terms) - 2, 0)


@dataclass
class PropGldimReport:
    bound: int
    generator_cogenerator: bool
    endo_bound: bool | None = None
    covariant_bound: bool | None = None
    contravariant_bound: bool | None = None

    @property
    def values(self) -> tuple:
        return (self.endo_bound, self.covariant_bound, self.contravariant_bound)

    @property
    def agree(self) -> bool:
        vals = self.values
        return all(v is not None for v in vals) and len(set(vals)) == 1


# ---------------------------------------------------------------------------
# generator-cogenerator and orthogonality checks


def _generator_cogenerator_clauses(m: Module) -> Iterator[ClauseReport]:
    """The generator clause, then the cogenerator clause."""
    alg = m.algebra
    for name, kind, atom in (("generator", "projectives", proj_module), ("cogenerator", "injectives", inj_module)):
        missing = [v + 1 for v in range(alg.quiver.vertex_count) if not in_add(atom(alg, v), m)]
        yield ClauseReport(name, not missing, "" if not missing else f"{kind} at vertices {missing} missing")


def is_generator_cogenerator(m: Module) -> bool:
    return all(c.passed for c in _generator_cogenerator_clauses(m))


def selforthogonality_failures(m: Module, l: int) -> list[tuple[int, int]]:
    """(degree, dim) pairs where Ext^i(m, m) fails to vanish, 0 < i <= l."""
    out = []
    for i in range(1, l + 1):
        d = ext_dim(i, m, m)
        if d:
            out.append((i, d))
    return out


def _corollary_clauses(m: Module, l: int) -> Iterator[ClauseReport]:
    """Iyama's clauses in cost order: generator-cogenerator (Krull-Schmidt
    counts), selforthogonality (Ext cached per atom pair), and only then
    End(m) and its global-dimension bound l + 2."""
    yield from _generator_cogenerator_clauses(m)
    fails = selforthogonality_failures(m, l)
    yield ClauseReport("selforthogonality", not fails, "" if not fails else f"nonzero self-extensions at {fails}")
    bound_ok = gldim_le(end_ring(m), l + 2)
    yield ClauseReport("endomorphism-gldim", bound_ok, "" if bound_ok else f"global dimension exceeds {l + 2}")


class _WitnessStep(NamedTuple):
    """One witness of enumeration mode: whether it lies in add(m), in the
    right and in the left orthogonal class of m.  It passes when the three
    agree."""

    module: Module
    member: bool
    right_orth: bool
    left_orth: bool

    @property
    def passed(self) -> bool:
        return self.member == self.right_orth == self.left_orth


def _witness_steps(m: Module, l: int, witnesses: list[Module]) -> Iterator[_WitnessStep]:
    for w in witnesses:
        yield _WitnessStep(
            w,
            in_add(w, m),
            all(ext_dim(i, m, w) == 0 for i in range(1, l + 1)),
            all(ext_dim(i, w, m) == 0 for i in range(1, l + 1)),
        )


def _perp_clauses(steps: list[_WitnessStep]) -> list[ClauseReport]:
    """Both orthogonal classes against add(m), with every mismatching witness."""
    bad_right = [(s.module.dims, s.member, s.right_orth) for s in steps if s.right_orth != s.member]
    bad_left = [(s.module.dims, s.member, s.left_orth) for s in steps if s.left_orth != s.member]
    return [
        ClauseReport("right-perp-equals-add", not bad_right, "" if not bad_right else f"witness mismatches {bad_right}"),
        ClauseReport("left-perp-equals-add", not bad_left, "" if not bad_left else f"witness mismatches {bad_left}"),
    ]


def check_maximal_orthogonal(
    m: Module,
    l: int,
    mode: str = "corollary",
    witnesses: list[Module] | None = None,
) -> MaxOrthogonalReport:
    """Maximal orthogonality of ``m`` at level ``l``.

    Corollary mode combines the generator-cogenerator test, selforthogonality
    up to ``l`` and the endomorphism global-dimension bound ``l + 2``.
    Enumeration mode compares add(m) with both orthogonality classes over an
    explicit, nonempty witness list (all indecomposables for a Nakayama
    presentation).  The verdict stops at the first failing clause, or
    witness; the clauses are built when first read (``MaxOrthogonalReport``).
    """
    if l < 1:
        raise AlgebraError("orthogonality level must be >= 1")
    if mode == "corollary":
        return MaxOrthogonalReport(mode, l, _corollary_clauses(m, l), list)
    if mode == "enumeration":
        if witnesses is None:
            witnesses = enumerate_indecomposables_nakayama(m.algebra)
        if not witnesses:
            raise AlgebraError("witness list must be nonempty")
        return MaxOrthogonalReport(mode, l, _witness_steps(m, l, witnesses), _perp_clauses)
    raise AlgebraError(f"unknown mode {mode!r}; expected 'corollary' or 'enumeration'")


# ---------------------------------------------------------------------------
# the four-condition equivalence


def _condition_a(m1: Module, m2: Module, l: int) -> tuple[bool, list]:
    f_cov = covariant_functor(m2)
    f_con = contravariant_functor(m1)
    fails = []
    for i in range(1, l + 1):
        d1 = ext_F_dim(i, m1, m1, f_cov)
        if d1:
            fails.append(("covariant", i, d1))
        d2 = ext_F_dim(i, m2, m2, f_con)
        if d2:
            fails.append(("contravariant", i, d2))
    return not fails, fails


def _relative_tilting_check(
    l: int,
    module: Module,
    f_self,
    dim_le,
    dim_key: str,
    resolutions: list,
    add_target: Module,
    add_key: str,
    f_steps,
) -> tuple[bool, dict]:
    """The shared body of the relative (co)tilting condition sets.

    Relative selforthogonality of ``module`` for ``f_self`` up to ``l``, the
    dimension bound ``dim_le(module, f_self, l)`` (under ``dim_key``), and
    the witness of a (co)resolution given as the sum of ``resolutions``: its
    ``l``-th (co)syzygy in add(``add_target``) (under ``add_key``), and
    exactness of its first ``l`` steps for ``f_steps``.  Both hold for a sum
    exactly when they hold for each summand.
    """
    fails = [(i, ext_F_dim(i, module, module, f_self)) for i in range(1, l + 1)]
    detail: dict = {"selforthogonality_failures": [(i, d) for i, d in fails if d]}
    detail[dim_key] = dim_le(module, f_self, l)
    detail[add_key] = all(in_add(res.syzygy(l), add_target) for res in resolutions)
    detail["steps_cross_exact"] = [
        all(is_F_exact(resolution_step_sequence(res, i), f_steps) for res in resolutions)
        for i in range(1, l + 1)
    ]
    ok = (
        not detail["selforthogonality_failures"]
        and detail[dim_key]
        and detail[add_key]
        and all(detail["steps_cross_exact"])
    )
    return ok, detail


def cotilting_style_condition(m1: Module, m2: Module, l: int) -> tuple[bool, dict]:
    """Condition (b): the second module is relative-cotilting for Hom(-, m1).

    Checks relative selforthogonality up to ``l``, the relative injective
    dimension bound, and the constructive finite-resolution witness: the
    Hom(m2, -)-relative projective resolution of ``m1`` has its ``l``-th
    syzygy in add(m2) and all its steps exact for Hom(-, m1).  That
    resolution is read atom by atom (``F_resolutions_of_atoms``), off the
    very resolutions condition (a) builds.
    """
    f_con = contravariant_functor(m1)
    return _relative_tilting_check(
        l, m2, f_con, id_F_le, "injective_dimension_ok",
        F_resolutions_of_atoms(m1, covariant_functor(m2)), m2, "syzygy_in_add", f_con,
    )


def dual_cotilting_style_condition(m1: Module, m2: Module, l: int) -> tuple[bool, dict]:
    """Condition (c): the mirror of condition (b) under duality.

    Checks relative selforthogonality of ``m1`` for Hom(m2, -), the relative
    projective dimension bound, and the witness from the Hom(-, m1)-relative
    injective coresolution of ``m2``: its ``l``-th cosyzygy lies in add(m1)
    and all steps are exact for Hom(m2, -).  This is the tilting-style set
    for ``m1``; under the verified hypotheses the relative global dimension
    is finite, which makes it equivalent to the cotilting-style one.
    """
    f_cov = covariant_functor(m2)
    return _relative_tilting_check(
        l, m1, f_cov, pd_F_le, "projective_dimension_ok",
        [F_coresolution(m2, contravariant_functor(m1))], m1, "cosyzygy_in_add", f_cov,
    )


def _condition_d(m1: Module, m2: Module, l: int) -> tuple[bool, dict]:
    """Condition (d): Hom(m2, m1) is cotilting on both one-sided structures.

    On each side (over End(m1) and over End(m2)^op) the check is
    selforthogonality in all degrees up to the global-dimension bound l + 2
    together with the injective-dimension bound l + 2.  The End(m2)^op side
    is read off the dual of Hom(m2, m1) over End(m2): Ext over End(m2)^op of
    Hom(m2, m1) is Ext over End(m2) of its dual, and its injective dimension
    is the projective dimension of the dual.
    """
    side1, side2 = hom_sc_bimodule_sides(m2, m1)
    bound = l + 2
    detail: dict = {}
    ok = True
    for label, side, dim_le in (
        ("over-End(m1)", side1, sc_injective_dim_le),
        ("over-End(m2)-op", side2, sc_pd_le),
    ):
        exts = sc_ext_dims(side.algebra, side, side, bound)
        idb = dim_le(side.algebra, side, bound)
        detail[label] = {"ext_dims": exts, "injective_dimension_ok": idb}
        if any(exts) or not idb:
            ok = False
    return ok, detail


def verify_theorem(m1: Module, m2: Module, l: int) -> TheoremReport:
    """Run the four equivalent conditions on a generator-cogenerator pair.

    Hypotheses (generator-cogenerator on both sides, endomorphism global
    dimension at most ``l + 2`` on both sides) are verified first; when any
    fails the conditions are left unset and the failures are reported.
    """
    if l < 1:
        raise AlgebraError("the bound must be a positive integer")
    report = TheoremReport(bound=l)
    for label, mod in (("m1", m1), ("m2", m2)):
        for clause in _generator_cogenerator_clauses(mod):
            report.hypotheses.append(
                ClauseReport(f"{label} {clause.name}", clause.passed, clause.detail)
            )
    for label, mod in (("m1", m1), ("m2", m2)):
        g = end_ring(mod)
        ok = gldim_le(g, l + 2)
        report.hypotheses.append(
            ClauseReport(
                f"{label} endomorphism gldim <= {l + 2}",
                ok,
                "" if ok else "bound fails",
            )
        )
    if not report.hypotheses_ok:
        return report
    # conditions (a)-(c) ask these two functors the same relative questions;
    # held here, each functor and the resolutions cached on it are shared
    functors = covariant_functor(m2), contravariant_functor(m1)
    ok_a, detail_a = _condition_a(m1, m2, l)
    report.condition_a = ok_a
    report.details["a"] = detail_a
    ok_b, detail_b = cotilting_style_condition(m1, m2, l)
    report.condition_b = ok_b
    report.details["b"] = detail_b
    ok_c, detail_c = dual_cotilting_style_condition(m1, m2, l)
    report.condition_c = ok_c
    report.details["c"] = detail_c
    ok_d, detail_d = _condition_d(m1, m2, l)
    report.condition_d = ok_d
    report.details["d"] = detail_d
    return report


# ---------------------------------------------------------------------------
# orthogonality implication and its converse probe


def check_iyama_orthogonality(m1: Module, m2: Module, k: int, l: int) -> OrthogonalityReport:
    """Test the k-fold orthogonality hypothesis and the relative conclusions.

    Both modules must be maximal l-orthogonal (verified).  The conclusions
    are computed regardless of the hypothesis so that converse failures are
    observable; if the hypothesis holds but a conclusion fails, the
    implication itself is broken and an error is raised.
    """
    if not (1 <= k <= l <= 2 * k + 1):
        raise AlgebraError("need 1 <= k <= l <= 2k+1")
    for label, mod in (("m1", m1), ("m2", m2)):
        rep = check_maximal_orthogonal(mod, l, mode="corollary")
        if not rep.verdict:
            failing = [c.name for c in rep.clauses if not c.passed]
            raise AlgebraError(f"{label} is not maximal {l}-orthogonal (failing: {failing})")
    report = OrthogonalityReport(k=k, bound=l)
    report.hypothesis_dims = [ext_dim(i, m2, m1) for i in range(1, k + 1)]
    f_cov = covariant_functor(m2)
    f_con = contravariant_functor(m1)
    for i in range(1, l + 1):
        report.conclusion_dims.append(
            (i, ext_F_dim(i, m1, m1, f_cov), ext_F_dim(i, m2, m2, f_con))
        )
    if report.hypothesis_holds and not report.conclusions_hold:
        raise InternalError(
            "endo",
            "orthogonality implication violated: hypothesis holds but a relative "
            f"self-extension survives ({report.conclusion_dims})",
        )
    return report


# ---------------------------------------------------------------------------
# exchange sequences


def _left_approximation_property(lam: Morphism, n: Module) -> bool:
    """Every map from the source into add(n) factors through ``lam``."""
    source = lam.source
    target = lam.target
    space = hom_space(source, n)
    if space.dim == 0:
        return True
    mat = composite_coords(hom_space(target, n), lam)
    # the coordinates of the basis maps of Hom(source, n) are the unit vectors
    return subspace_contains(mat, Matrix.identity(space.dim))


def _right_approximation_property(pi: Morphism, n: Module) -> bool:
    """Every map from add(n) into the target factors through ``pi``."""
    for gmap in hom_basis(n, pi.target):
        if factor_through(pi, gmap) is None:
            return False
    return True


def search_exchange_sequence(n: Module, x1: Module, x2: Module, max_len: int) -> ExchangeResult:
    """Greedy chain of minimal left add(n)-approximations from x2 towards x1.

    From ``x2``, take the minimal left approximation into add(n) and pass
    to its cokernel; success means a cokernel within ``max_len + 1`` steps
    is isomorphic to ``x1``.  Then every defining condition is verified:
    exactness of the spliced sequence, the left/right minimal-approximation
    property at each stage, and exactness of every step under Hom(n + x2, -)
    and Hom(-, n + x1).  An endpoint that is not one nonzero local atom is
    refused with ``AlgebraError``.
    """
    if max_len < 0:
        raise AlgebraError("maximum length must be >= 0")
    if not is_generator_cogenerator(n):
        raise AlgebraError("the exchange base must be a generator-cogenerator")
    for label, x in (("x1", x1), ("x2", x2)):
        # one part exactly when x is one nonzero atom that local_parts leaves whole
        if len(placed_parts(x)) != 1:
            raise AlgebraError(f"{label} must be indecomposable")
        if in_add(x, n):
            raise AlgebraError(f"{label} must lie outside add of the base")
    if is_isomorphic(x1, x2):
        return ExchangeResult(found=True, trivial=True, terms=[x2, x1])
    alg = n.algebra
    m1 = direct_sum(alg, [n, x1])
    m2 = direct_sum(alg, [n, x2])
    current = x2
    monos: list[Morphism] = []
    projections: list[Morphism] = []
    middles: list[Module] = []
    reached = False
    for _ in range(max_len + 1):
        lam = minimal_left_approximation(current, n)
        if not lam.is_mono():
            return ExchangeResult(
                found=False,
                reason="conditions failed on candidate",
                conditions={"left approximation is injective": False},
            )
        coker_mod, coker_proj = cokernel(lam)
        monos.append(lam)
        projections.append(coker_proj)
        middles.append(lam.target)
        current = coker_mod
        if is_isomorphic(current, x1):
            reached = True
            break
        if current.total_dim == 0:
            break
    if not reached:
        return ExchangeResult(found=False, reason="not found within bound")
    terms = [x2] + middles + [current]
    conditions: dict = {}
    f_con = contravariant_functor(m1)
    f_cov = covariant_functor(m2)
    pieces = []
    splice_ok = True
    for lam, proj in zip(monos, projections):
        try:
            pieces.append(ShortExactSequence(lam, proj))
        except AlgebraError:
            splice_ok = False
            break
    conditions["exactness"] = splice_ok
    if splice_ok:
        conditions["left approximations"] = all(
            _left_approximation_property(lam, n) for lam in monos
        )
        conditions["left minimality"] = all(is_left_minimal(lam) for lam in monos)
        conditions["right approximations"] = all(
            _right_approximation_property(proj, n) for proj in projections
        )
        conditions["right minimality"] = all(is_right_minimal(proj) for proj in projections)
        conditions["exact for Hom(-, m1)"] = all(is_F_exact(p, f_con) for p in pieces)
        conditions["exact for Hom(m2, -)"] = all(is_F_exact(p, f_cov) for p in pieces)
    verified = splice_ok and all(bool(v) for v in conditions.values())
    if not verified:
        return ExchangeResult(
            found=False,
            reason="conditions failed on candidate",
            terms=terms,
            maps=monos + [projections[-1]],
            conditions=conditions,
        )
    return ExchangeResult(
        found=True,
        terms=terms,
        maps=monos + [projections[-1]],
        conditions=conditions,
    )


# ---------------------------------------------------------------------------
# three-way global-dimension comparison


def check_prop_gldim(
    m: Module,
    l: int,
    witnesses: list[Module] | None = None,
) -> PropGldimReport:
    """Compare gldim End(m) <= l+2 with both relative global-dimension bounds.

    Independent routes: structure-constant resolutions for End(m), relative
    projective resolutions over the module category for the relative sides.
    When ``m`` is not a generator-cogenerator the comparison is skipped and
    the report says so.
    """
    if l < 1:
        raise AlgebraError("the bound must be a positive integer")
    gen_cogen = is_generator_cogenerator(m)
    report = PropGldimReport(bound=l, generator_cogenerator=gen_cogen)
    if not gen_cogen:
        return report
    g = end_ring(m)
    report.endo_bound = gldim_le(g, l + 2)
    report.covariant_bound = gldim_F_le(covariant_functor(m), l, witnesses=witnesses)
    report.contravariant_bound = gldim_F_le(contravariant_functor(m), l, witnesses=witnesses)
    return report
