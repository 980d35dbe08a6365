"""The reference routes of the structure-constant engine, and the
hand-built algebras the tests use.

``relrep.endo`` builds one kind of algebra: End(M) for the local parts of
M's atoms, held by its atom blocks, with its radical and chain tables read
off them.  Here is everything else, the generic route that reads an algebra
through its product table:

- ``DenseAlgebra``, an algebra built by hand from its dense tensor (or,
  ``from_sparse``, from sparse product rows), which detects the members of
  its pieces A·e (one piece when its basis mixes vertices);
- ``tensor``, the product table of any algebra, an End(M)'s assembled from
  the records of its atom triples;
- the radical from scratch off the trace form (``radical_data``), and
  ``radical``/``radical_generators``, which read an End(M)'s off its blocks
  (``endo.radical``, ``endo._block_radical``) and any other algebra's off
  its trace form;
- ``GenericChainTables``, the chain tables read off the product table and
  that radical, the reference for the block-read ones;
- ungraded covers that take the radical of their kernel from the whole
  radical basis, with the split test for the covers that are not minimal,
  Hom complexes that eliminate for the piece spaces e·Y of any module Y, a
  first cover in the dense coordinates of its module, the chain of a simple
  top starting at the top module itself, the basis of End(M) composed out of
  summand injections and projections, the injective dimension as the
  projective dimension of the dual over the opposite algebra, and the basic
  algebra of an End(M) that repeats an atom class cut out of its product
  table (``reduce_to_basic``).

The reference routes read no grading, so they also take a module in a basis
that mixes vertices (an ``UngradedModule``); ``relrep.endo`` refuses to build
one.

It also builds the modules no library path needs, each graded: the regular
module (each basis vector at its vertex), its quotients (each free column
keeps its vertex), the top A/rad A, and the graded copy of a module in a
basis that mixes vertices.  ``check_module`` checks the grading of a module
with its axioms.

``relrep.endo`` resolves one vertex at a time (homogeneous radical
generators, kernel vectors and the unit vectors of a graded module as their
own top candidates, one elimination per vertex), takes only minimal covers,
reads e·Y off the grading of Y, starts the chain of the top of A e at its
projective cover A e with kernel (rad A)e, places the vertex maps of each
basis map of two local parts at their atoms' offsets, reads injective
dimension off Ext^(n+1)(S, x) for the simple modules S, and builds the basic
algebra of End(M) from one part per class; the tests compare the routes.
The ungraded chain here builds its own tables from the structure constants
and shares no cover, Hom complex or split-test code with ``relrep.endo``.
"""

from functools import partial
from typing import NamedTuple

from relrep.cache import cached
from relrep.endo import (
    SCModule,
    StructureConstantAlgebra,
    _block_radical,
    radical as block_radical,
    _Chain,
    _ChainTables,
    _Cover,
    _Span,
    _atom_triples,
    _terms,
)
from relrep.exact_linalg import Matrix, _canon_row, complement_projection, hstack, rational
from relrep.path_algebra import AlgebraError, InternalError
from relrep.rep import (
    Module,
    Morphism,
    flatten_atoms,
    hom_space,
    local_parts,
    trace_form_radical,
)
from hom_reference import summand_injection, summand_projection


# -- hand-built algebras and product tables ---------------------------------------


class DenseAlgebra(StructureConstantAlgebra):
    """An algebra built by hand from its tensor: ``mult[i][j]`` is e_i * e_j,
    dense, coerced and sparsified once into ``(m, c)`` pairs, ``m``
    ascending and ``c`` a nonzero exact scalar (a zero product is ``()``).
    ``idempotents`` are pairwise orthogonal idempotents summing to the unit,
    each left ideal A·e spanned by a subset of the basis, its piece members
    (detected).  Given none, or a basis that mixes vertices, the algebra is
    one piece: the unit is its only idempotent."""

    __slots__ = ("mult",)

    def __init__(self, mult, unit, idempotents=None, piece_classes=None, name: str = "") -> None:
        dim = len(mult)
        sparse = []
        for plane in mult:
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise AlgebraError("multiplication tensor is not dim x dim x dim")
            sparse.append(tuple(_sparse_row(row) for row in plane))
        self._init(dim, tuple(sparse), unit, idempotents, piece_classes, name)

    def _init(self, dim, mult, unit, idempotents, piece_classes, name, piece_members=None) -> None:
        self.mult = mult
        unit = tuple(rational(c) for c in unit)
        if len(unit) != dim:
            raise AlgebraError("unit vector has wrong length")
        idempotents = tuple(tuple(rational(c) for c in e) for e in idempotents or (unit,))
        piece_classes = tuple(int(c) for c in piece_classes or range(len(idempotents)))
        if len(piece_classes) != len(idempotents):
            raise AlgebraError("piece classes must label the idempotents")
        super().__init__(dim, unit, idempotents, piece_classes, piece_members, None, name)
        self.piece_members = piece_members or self._detect_members()

    def _detect_members(self) -> tuple:
        """Basis indices spanning each A·e.  When some b_m·e or e·b_m is
        neither b_m nor 0 the basis mixes vertices, and the algebra becomes
        one piece, the unit its only idempotent."""
        right = _vertices(self, left=False)
        if right is None or _vertices(self, left=True) is None:
            self.idempotents, self.piece_classes, right = (self.unit,), (0,), [0] * self.dim
        return tuple(tuple(m for m in range(self.dim) if right[m] == s) for s in range(len(self.idempotents)))


def from_sparse(
    dim: int,
    mult,
    unit,
    idempotents=None,
    piece_classes=None,
    name: str = "",
    piece_members=None,
) -> DenseAlgebra:
    """An algebra from product rows already in the sparse ``(m, c)`` layout
    (not re-coerced): how an algebra is derived from another's product
    table (a copy with nothing cached, an opposite, a basic reduction)."""
    if len(mult) != dim or any(len(plane) != dim for plane in mult):
        raise AlgebraError("multiplication tensor is not dim x dim x dim")
    g = DenseAlgebra.__new__(DenseAlgebra)
    g._init(dim, tuple(tuple(plane) for plane in mult), unit, idempotents, piece_classes, name, piece_members)
    return g


def dense_copy(g: StructureConstantAlgebra) -> DenseAlgebra:
    """g's structure on a new hand-built algebra with nothing cached: the
    generic route."""
    return from_sparse(g.dim, tensor(g), g.unit, g.idempotents, g.piece_classes, name=g.name, piece_members=g.piece_members)


def on_generic_tables(g: DenseAlgebra) -> DenseAlgebra:
    """g with its chain tables set to ``GenericChainTables`` (memoized under
    the name ``relrep.endo._chain_tables`` uses), so that the library's
    chains run over the hand-built algebra g on the generic route."""
    cached(g, "chain tables", GenericChainTables, g)
    return g


def generic(g: StructureConstantAlgebra) -> DenseAlgebra:
    """``dense_copy(g)`` on the generic route (``on_generic_tables``)."""
    return on_generic_tables(dense_copy(g))


def _sparse_row(row) -> tuple:
    """The nonzero ``(m, c)`` pairs of a dense coordinate row, each ``c``
    coerced to a canonical exact scalar: an ``int`` when integral, else QQ."""
    out = []
    for m, c in enumerate(row):
        c = rational(c)
        if c != 0:
            out.append((m, c))
    return tuple(out)


def tensor(g: StructureConstantAlgebra) -> tuple:
    """The sparse product table of g: a hand-built algebra's own, an
    End(M)'s assembled from its atom blocks on first read and cached on g
    (e_a * e_b for a in block (sa, ta) and b in block (sb, sa) is a
    composition column moved to block (sb, ta))."""
    if isinstance(g, DenseAlgebra):
        return g.mult
    return cached(g, "product table", _block_tensor, g._blocks)


def _block_tensor(blocks) -> tuple:
    """The product table off the records of the atom triples: an End(M)
    that repeats an atom class holds none, and they are built here from its
    atoms (and cached on their hom cores, as the library caches them)."""
    triples = blocks.triples
    if triples is None:
        spaces = [[hom_space(a, b) for b in blocks.atoms] for a in blocks.atoms]
        triples = _atom_triples(spaces, blocks.dims)
    total = blocks.offsets[-1][-1] + blocks.dims[-1][-1] if blocks.dims else 0
    mult = [[()] * total for _ in range(total)]
    for sb, by_middle in enumerate(triples):
        for sa, by_target in enumerate(by_middle):
            for ta, triple in enumerate(by_target):
                if triple is None:
                    continue
                off, outer, inner = blocks.offsets[sb][ta], blocks.offsets[sa][ta], blocks.offsets[sb][sa]
                for j, column in enumerate(triple.columns):
                    for i, terms in enumerate(column):
                        mult[outer + i][inner + j] = tuple((off + k, c) for k, c in terms)
    return tuple(tuple(row) for row in mult)


def _vertices(g: StructureConstantAlgebra, left: bool) -> list | None:
    """For each basis vector b_m the i with e_i·b_m = b_m (``left``) or
    b_m·e_i = b_m, or None when some such product is neither b_m nor 0 (b_m
    mixes vertices on that side)."""
    # rows[k][m] holds the products b_k·b_m (left) or b_m·b_k
    rows = tensor(g) if left else tuple(zip(*tensor(g)))
    vertex = [None] * g.dim
    for i, e in enumerate(g.idempotents):
        e_terms = _terms(e)
        for m in sorted({m for k, _ in e_terms for m, pairs in enumerate(rows[k]) if pairs}):
            prod = {}
            for k, c in e_terms:
                for p, r in rows[k][m]:
                    prod[p] = prod.get(p, 0) + c * r
            prod = [(p, c) for p, c in prod.items() if c != 0]
            if not prod:
                continue
            if prod != [(m, 1)] or vertex[m] is not None:
                return None
            vertex[m] = i
    return None if None in vertex else vertex


def _member_vertices(g: StructureConstantAlgebra) -> list:
    """``_vertices(g, left=True)`` under g's piece members, which must not
    mix vertices."""
    vertex = _vertices(g, left=True)
    if vertex is None:
        raise InternalError("endo", "piece members mix vertices: some e_i·b is neither b nor 0")
    return vertex


def _matvec(mat: Matrix, vec: list) -> list:
    """``mat @ vec`` for a plain list, walking only the nonzeros of ``vec``."""
    vec_terms = _terms(vec)
    out = []
    for row in mat._data:
        acc = 0
        for t, v in vec_terms:
            a = row[t]
            if a != 0:
                acc += a * v
        out.append(acc)
    return out


class UngradedModule(NamedTuple):
    """A module in a basis that mixes vertices, for the reference routes
    (``relrep.endo.SCModule`` requires a grading)."""

    algebra: StructureConstantAlgebra
    dim: int
    action: tuple
    grading: None = None


# -- the radical -------------------------------------------------------------------


def on_blocks(g: StructureConstantAlgebra) -> bool:
    """Whether g is an End(M) of local, pairwise non-isomorphic atoms, whose
    radical ``relrep.endo`` reads off its atom blocks."""
    return g._blocks is not None and g._blocks.radicals is not None


def radical(g: StructureConstantAlgebra) -> Matrix:
    """Basis (columns) of the Jacobson radical, in the normal form of
    ``kernel_basis``, which depends only on the subspace: an End(M) on the
    blocks reads it off them (``endo.radical``), every other algebra off its
    trace form (``radical_data``).  Cached on g."""
    return _radical(g)[0]


def radical_generators(g: StructureConstantAlgebra) -> tuple:
    """Radical basis columns that lift a basis of rad/rad², as coordinate
    tuples.  They generate the radical as a right ideal (rad = L·A, rad being
    nilpotent), so rad X = L·X for every module X."""
    return _radical(g)[1]


def _radical(g: StructureConstantAlgebra) -> tuple:
    return cached(g, "radical", _placed_block_radical if on_blocks(g) else radical_data, g)


def _placed_block_radical(g: StructureConstantAlgebra) -> tuple:
    """``endo.radical`` and the generators of ``endo._block_radical``, each
    placed at the offset of its block."""
    offsets = g._blocks.offsets
    generators = []
    for s, t, vec in _block_radical(g):
        out = [0] * g.dim
        out[offsets[s][t] : offsets[s][t] + len(vec)] = vec
        generators.append(tuple(out))
    return block_radical(g), tuple(generators)


class GenericChainTables(_ChainTables):
    """The chain tables of ``relrep.endo`` read off g's product table and its
    radical: the reference for those read off the atom blocks
    (``_ChainTables._from_blocks``)."""

    def __init__(self, g: StructureConstantAlgebra) -> None:
        members = g.piece_members
        count = len(members)
        vertex = _member_vertices(g)
        mult = tensor(g)
        # place[m]: the piece of b_m and its position there among the members at vertex[m]
        place = [None] * g.dim
        by_vertex = []
        for s, ms in enumerate(members):
            rows = [[] for _ in range(count)]
            for t, m in enumerate(ms):
                place[m] = (s, len(rows[vertex[m]]))
                rows[vertex[m]].append(t)
            by_vertex.append(rows)
        # b_k·b_m can be nonzero only when b_k ∈ A e_vertex[m]
        acts = []
        for s, ms in enumerate(members):
            piece = []
            for m in ms:
                row = {}
                for k in members[vertex[m]]:
                    pairs = mult[k][m]
                    if pairs:
                        if any(place[p][0] != s for p, _ in pairs):
                            raise AlgebraError("left ideal is not spanned by basis vectors")
                        row[k] = tuple((place[p][1], c) for p, c in pairs)
                piece.append(row)
            acts.append(piece)
        # e_i (rad A) e_s: the radical basis cut down to the members of A e_s at i
        rad_spans = [[_Span(len(at)) for at in rows] for rows in by_vertex]
        for r in radical(g).columns():
            parts = {}
            for m, c in _terms(r):
                (s, q), i = place[m], vertex[m]
                if (s, i) not in parts:
                    parts[s, i] = [0] * len(by_vertex[s][i])
                parts[s, i][q] = c
            for (s, i), vec in parts.items():
                rad_spans[s][i].add(vec)
        leaving_parts = []
        for ell in radical_generators(g):
            parts = {}
            for m, c in _terms(ell):
                parts.setdefault((place[m][0], vertex[m]), []).append((m, c))
            leaving_parts.extend((i, j, terms) for (i, j), terms in parts.items())
        self._fill(members, vertex, by_vertex, acts, rad_spans, leaving_parts)

    def _fill(self, members, vertex, by_vertex, acts, rad_spans, leaving_parts) -> None:
        """Set the tables; the tops are the members whose unit vectors lie
        outside the spans, and ``leaving_parts`` are the generators'
        ``(piece, vertex, terms)`` parts in generator order."""
        self.members = members
        self.vertex = vertex
        self.by_vertex = by_vertex
        self.widths = [[len(at) for at in rows] for rows in by_vertex]
        self.acts = acts
        self.rad_spans = rad_spans
        self.tops = [
            [
                ms[t]
                for span, at in zip(self.rad_spans[s], by_vertex[s])
                if span.rank < len(at)
                for q, t in enumerate(at)
                if not span.contains([int(p == q) for p in range(len(at))])
            ]
            for s, ms in enumerate(members)
        ]
        self.leaving = [[] for _ in members]
        for i, j, terms in leaving_parts:
            self.leaving[i].append((j, terms))


def act_on_cover(chain: _Chain, level: int, terms: list, vec: list) -> list:
    """The action of an algebra element (``(k, c)`` terms) on a dense vector
    of the cover ``chain.covers[level]`` of a graded chain."""
    tables = chain.tables
    cover = chain.covers[level]
    out = [0] * cover.dim
    for kind, off in zip(cover.kinds, cover.offsets):
        at = tables.by_vertex[kind]
        for t, row in enumerate(tables.acts[kind]):
            c = vec[off + t]
            if c == 0:
                continue
            for k, ck in terms:
                pairs = row.get(k)
                if pairs:
                    cc = c * ck
                    positions = at[tables.vertex[k]]
                    for p, r in pairs:
                        out[off + positions[p]] += cc * r
    return out


def kernel_cols(cover) -> list[list]:
    """The kernel basis of a cover in its dense coordinates: a graded
    cover's vertex by vertex, an ungraded one's as solved."""
    if isinstance(cover, _Cover):
        return [cover.dense(i, v) for i, vecs in enumerate(cover.kernels) for v in vecs]
    return cover.kernel_cols


def _combine(action, dim: int, terms) -> Matrix:
    """Matrix of the sum of ``c * action[k]`` over ``(k, c)`` pairs, for the
    ``dim x dim`` action matrices of a module."""
    out = [[0] * dim for _ in range(dim)]
    for k, c in terms:
        for orow, arow in zip(out, action[k]._data):
            for t, a in enumerate(arow):
                if a != 0:
                    orow[t] += c * a
    return Matrix._trusted(dim, dim, [_canon_row(row) for row in out])


def element_matrix(x: SCModule, coeffs) -> Matrix:
    """The matrix by which the element with coordinates ``coeffs`` acts on x."""
    return _combine(x.action, x.dim, _terms(coeffs))


def apply(x: SCModule, coeffs, vec: list) -> list:
    """The element with coordinates ``coeffs`` acting on the vector ``vec`` of x."""
    out = [0] * x.dim
    vec_terms = _terms(vec)
    for k, c in _terms(coeffs):
        for r, row in enumerate(x.action[k]._data):
            acc = 0
            for t, vt in vec_terms:
                a = row[t]
                if a != 0:
                    acc += a * vt
            if acc != 0:
                out[r] += c * acc
    return out


def multiply(g: StructureConstantAlgebra, x, y) -> list:
    """The product ``x * y`` of two elements given by coordinates."""
    out = [0] * g.dim
    y_terms = _terms(y)
    mult = tensor(g)
    for i, xi in _terms(x):
        for j, yj in y_terms:
            for m, rm in mult[i][j]:
                out[m] += xi * yj * rm
    return out


def left_mult_matrix(g: StructureConstantAlgebra, x) -> Matrix:
    """The matrix of left multiplication by ``x``."""
    rows = [[0] * g.dim for _ in range(g.dim)]
    for i, xi in _terms(x):
        for j, pairs in enumerate(tensor(g)[i]):
            for m, rm in pairs:
                rows[m][j] += xi * rm
    return Matrix(g.dim, g.dim, rows)


def reduce_to_basic(g: StructureConstantAlgebra):
    """``(basic, transport)`` cut out of g's product table, or ``(g, None)``
    when g has one idempotent per class: eps·A·eps for eps the sum of the
    first idempotent of each class, spanned by the members of the kept
    pieces at kept vertices, and the transport x -> eps·x.  The basic
    algebra detects its own piece members and computes its own radical;
    ``relrep.endo`` builds it from one atom per class instead."""
    keep = []
    seen = set()
    for kind, cls in enumerate(g.piece_classes):
        if cls not in seen:
            seen.add(cls)
            keep.append(kind)
    if len(keep) == len(g.piece_classes):
        return g, None
    vertex = _member_vertices(g)
    position = {kind: t for t, kind in enumerate(keep)}
    indices = sorted(m for kind in keep for m in g.piece_members[kind] if vertex[m] in keep)
    index_pos = {m: t for t, m in enumerate(indices)}
    mult = [[tuple((index_pos[m], c) for m, c in tensor(g)[i][j]) for j in indices] for i in indices]
    unit = [0] * len(indices)
    idems = []
    for kind in keep:
        vec = [g.idempotents[kind][m] for m in indices]
        idems.append(vec)
        for t, c in enumerate(vec):
            unit[t] += c
    basic = from_sparse(
        len(indices),
        mult,
        unit,
        idempotents=idems,
        piece_classes=list(range(len(keep))),
        name=(g.name + " basic") if g.name else "basic",
    )

    def transport(x: SCModule) -> SCModule:
        coords = [c for c, i in enumerate(x.grading) if i in position]
        action = [x.action[i].take_rows(coords).take_columns(coords) for i in indices]
        return SCModule(basic, len(coords), action, [position[x.grading[c]] for c in coords])

    return basic, transport


def opposite(g: StructureConstantAlgebra) -> StructureConstantAlgebra:
    """The opposite algebra, e_i ·op e_j = e_j · e_i, a new algebra built
    from g's product table on each call: it detects its own piece members
    (the left ideals of A^op are the right ideals of A) and its own radical."""
    mult = tuple(tuple(tensor(g)[j][i] for j in range(g.dim)) for i in range(g.dim))
    return from_sparse(
        g.dim,
        mult,
        g.unit,
        idempotents=g.idempotents,
        piece_classes=g.piece_classes,
        name=g.name + "^op" if g.name else "",
    )


def dual_sc_module(x):
    """The vector-space dual of x as a left module over the opposite algebra
    (ungraded when x is)."""
    action = [a.transpose() for a in x.action]
    if x.grading is None:
        return UngradedModule(opposite(x.algebra), x.dim, tuple(action))
    return SCModule(opposite(x.algebra), x.dim, action, x.grading)


def _accumulate(weighted_rows, dim: int) -> list:
    """Dense vector of the sum of ``c * row`` over ``(c, sparse row)`` pairs."""
    out = [0] * dim
    for c, pairs in weighted_rows:
        for m, rm in pairs:
            out[m] += c * rm
    return out


def check_associativity(g: StructureConstantAlgebra) -> bool:
    """Exhaustive check of (e_i e_j) e_k == e_i (e_j e_k); desk scale only."""
    n = g.dim
    mult = tensor(g)
    for i in range(n):
        for j in range(n):
            ij = mult[i][j]
            for k in range(n):
                left = _accumulate(((c, mult[m][k]) for m, c in ij), n)
                right = _accumulate(((c, mult[i][m]) for m, c in mult[j][k]), n)
                if left != right:
                    return False
    return True


def check_unit(g: StructureConstantAlgebra) -> bool:
    """Whether ``g.unit`` is a two-sided identity on every basis vector."""
    for j in range(g.dim):
        e = [1 if t == j else 0 for t in range(g.dim)]
        if multiply(g, list(g.unit), e) != e or multiply(g, e, list(g.unit)) != e:
            return False
    return True


def check_module(x: SCModule) -> bool:
    """The action respects multiplication and unit, and each idempotent e_i
    acts as the projection onto the coordinates graded i; desk scale only."""
    g = x.algebra
    if element_matrix(x, g.unit) != Matrix.identity(x.dim) or len(x.grading) != x.dim:
        return False
    for i, e in enumerate(g.idempotents):
        projection = [[int(r == c and x.grading[c] == i) for c in range(x.dim)] for r in range(x.dim)]
        if element_matrix(x, e) != Matrix(x.dim, x.dim, projection):
            return False
    mult = tensor(g)
    for i in range(g.dim):
        for j in range(g.dim):
            if x.action[i] @ x.action[j] != _combine(x.action, x.dim, mult[i][j]):
                return False
    return True


def regular_sc_module(g: StructureConstantAlgebra) -> SCModule:
    """The algebra as a left module over itself, b_m at the i with
    e_i·b_m = b_m."""
    action = []
    for plane in tensor(g):
        rows = [[0] * g.dim for _ in range(g.dim)]
        for j, pairs in enumerate(plane):
            for m, c in pairs:
                rows[m][j] = c
        action.append(Matrix(g.dim, g.dim, rows))
    return SCModule(g, g.dim, action, _vertices(g, left=True))


def _sc_quotient(x: SCModule, span: Matrix) -> SCModule:
    """The quotient of ``x`` by the submodule spanned by the columns of
    ``span``, each spanning vector at one vertex: the free columns of the
    complement keep their vertices."""
    proj, free = complement_projection(span)
    return SCModule(x.algebra, proj.rows, [proj @ a.take_columns(free) for a in x.action], [x.grading[c] for c in free])


def semisimple_quotient_module(g: StructureConstantAlgebra) -> SCModule:
    """The algebra modulo its radical, as a left module (cyclic, generated by 1)."""
    return _sc_quotient(regular_sc_module(g), radical(g))


def rebased(x: SCModule) -> SCModule:
    """x moved onto bases of its e_i·x, one idempotent after another: the
    graded copy of a module in a basis that mixes vertices."""
    blocks = [element_matrix(x, e).column_space_basis() for e in x.algebra.idempotents]
    basis = hstack(blocks)
    inv = basis.inverse()
    grading = [i for i, b in enumerate(blocks) for _ in range(b.cols)]
    return SCModule(x.algebra, x.dim, [inv @ a @ basis for a in x.action], grading)


def spanned_by(length: int, vectors: list) -> _Span:
    """The span of ``vectors``, read off one fraction-free RREF: the RREF is
    unique, so it holds the same rows and pivots as a ``_Span`` the vectors
    were added to one by one."""
    span = _Span(length)
    if vectors:
        red, pivots = Matrix._trusted(len(vectors), length, vectors).rref()
        span.rows = red._data[: len(pivots)]
        span.pivots = list(pivots)
    return span


def radical_data(g: StructureConstantAlgebra) -> tuple[Matrix, tuple]:
    """``(radical basis, radical generators)`` of g from its own trace form,
    every matrix built by the public constructor, nothing cached."""
    mult = tensor(g)
    rad = trace_form_radical(mult)
    n, r = g.dim, rad.cols
    right = [[0] * (n * r) for _ in range(n)]
    for b, vec in enumerate(rad.columns()):
        for j, x in _terms(vec):
            for i, plane in enumerate(mult):
                for m, c in plane[j]:
                    right[i][b * n + m] += x * c
    right = Matrix(n, n * r, right)
    layer = rad.transpose()
    generators = None
    for _ in range(n + 1):
        products = [
            row[b * n : (b + 1) * n] for row in (layer @ right)._data for b in range(r)
        ]
        products = [p for p in products if any(p)]
        if products:
            red, pivots = Matrix(len(products), n, products).rref()
            layer = red.take_rows(range(len(pivots)))
        if generators is None:
            square = layer._data if products else []
            cols = rad.columns()
            _, pivots = Matrix.from_columns([*square, *cols]).rref()
            generators = tuple(tuple(cols[p - len(square)]) for p in pivots if p >= len(square))
        if not products:
            break
    else:
        raise AlgebraError("trace-form kernel is not nilpotent; structure constants inconsistent")
    return rad, generators


def _piece_radical(g: StructureConstantAlgebra, members) -> list[list]:
    """A basis of (rad A)e, in the coordinates of the basis vectors
    ``members`` that span A e: r·e is r restricted to the members."""
    span = _Span(len(members))
    out = []
    for r in radical(g).columns():
        comp = [r[m] for m in members]
        if span.add(comp):
            out.append(comp)
    return out


class _DenseCover:
    """One ungraded cover ``P -> K``: P is the sum of the pieces A e_kind at
    ``offsets``, ``gens`` the images of their idempotents, ``mat`` the map in
    ambient coordinates and ``kernel_cols`` its kernel, the next syzygy."""

    def __init__(self, kinds, gens, offsets, dim, mat) -> None:
        self.kinds = kinds
        self.gens = gens
        self.offsets = offsets
        self.dim = dim
        self.mat = mat
        self.kernel_cols = None
        self.minimal = None


class FullRadicalChain(_Chain):
    """The ungraded chain: each cover tries every idempotent on every kernel
    vector as a top candidate, spans the radical of its kernel by every
    radical basis vector applied to every kernel vector, and solves one
    full-width kernel; minimality is checked against the whole of rad P."""

    def __init__(self, g: StructureConstantAlgebra, base: SCModule) -> None:
        self.algebra_dim = g.dim
        self.members = g.piece_members
        self.idem_vectors = [list(e) for e in g.idempotents]
        self.idem_terms = [_terms(e) for e in self.idem_vectors]
        self.piece_rads = [_piece_radical(g, ms) for ms in self.members]
        self.rad_terms = [_terms(r) for r in radical(g).columns()]
        self.acts = []
        for ms in self.members:
            index = {m: t for t, m in enumerate(ms)}
            self.acts.append(
                [[tuple((index[m], c) for m, c in plane[member]) for plane in tensor(g)] for member in ms]
            )
        self.base_dim = base.dim
        self.base_action = base.action
        self.covers = []

    def _act_in_piece(self, terms: list, kind: int, comp: list) -> list:
        acts = self.acts[kind]
        out = [0] * len(comp)
        for t, c in enumerate(comp):
            if c == 0:
                continue
            for k, ck in terms:
                for pos, rm in acts[t][k]:
                    out[pos] += c * ck * rm
        return out

    def _apply(self, level: int, terms: list, vec: list) -> list:
        cover = self.covers[level]
        out = []
        for kind, off in zip(cover.kinds, cover.offsets):
            out.extend(self._act_in_piece(terms, kind, vec[off : off + len(self.members[kind])]))
        return out

    def _build_cover(self, level: int) -> _DenseCover:
        """Cover of the kernel at ``level`` (level -1 means the base module)."""
        if level < 0:
            ambient_dim = self.base_dim
            candidate_images = [
                _combine(self.base_action, ambient_dim, terms).columns() for terms in self.idem_terms
            ]
            apply_basis = lambda k, vec: _matvec(self.base_action[k], vec)
            rad_images = [
                col
                for terms in self.rad_terms
                for col in _combine(self.base_action, ambient_dim, terms).columns()
            ]
            originals = Matrix.identity(ambient_dim).columns()
        else:
            ambient_dim = self.covers[level].dim
            originals = list(self.covers[level].kernel_cols)
            candidate_images = [
                [self._apply(level, terms, v) for v in originals] for terms in self.idem_terms
            ]
            apply_basis = lambda k, vec: self._apply(level, [(k, 1)], vec)
            rad_images = [self._apply(level, terms, v) for terms in self.rad_terms for v in originals]
        span = spanned_by(ambient_dim, rad_images)
        kinds, gens, offsets, cols = [], [], [], []
        for s in range(len(originals)):
            for kind in range(len(self.members)):
                w = candidate_images[kind][s]
                if all(c == 0 for c in w) or span.contains(w):
                    continue
                offsets.append(len(cols))
                kinds.append(kind)
                gens.append(w)
                for m in self.members[kind]:
                    img = apply_basis(m, w)
                    cols.append(img)
                    span.add(img)
        for v in originals:
            if not span.contains(v):
                raise InternalError("endo", "projective cover construction is not onto")
        mat = Matrix.from_columns(cols) if cols else Matrix.zeros(ambient_dim, 0)
        return _DenseCover(kinds, gens, offsets, len(cols), mat)

    def extend(self) -> None:
        cover = self._build_cover(len(self.covers) - 1)
        self.covers.append(cover)
        cover.kernel_cols = cover.mat.kernel_basis().columns()
        rad_vectors = []
        for kind, off in zip(cover.kinds, cover.offsets):
            for comp in self.piece_rads[kind]:
                vec = [0] * cover.dim
                vec[off : off + len(comp)] = comp
                rad_vectors.append(vec)
        rad_span = spanned_by(cover.dim, rad_vectors)
        cover.minimal = all(rad_span.contains(v) for v in cover.kernel_cols)

    def kernel_is_zero(self, k: int) -> bool:
        self.ensure(k)
        return not self.covers[k - 1].kernel_cols

    def _dense_gens(self, level: int) -> list[list]:
        return self.covers[level].gens

    def _piece_value_space(self, kind: int, y_apply, y_dim: int) -> list[list]:
        """Basis of e_kind . Y inside Y's coordinates."""
        span = _Span(y_dim)
        out = []
        e = self.idem_vectors[kind]
        for s in range(y_dim):
            unit = [1 if t == s else 0 for t in range(y_dim)]
            w = y_apply(e, unit)
            if span.add(w):
                out.append(w)
        return out

    def hom_complex_dims_and_ranks(self, k_hi: int, y_apply, y_dim: int):
        """Dims of Hom(P_k, Y) for k <= k_hi and ranks of the k -> k+1 maps,
        for ``y_apply(coeffs, vec)`` the Y-action of an algebra element
        given by coordinates.  Uses Hom(A e, Y) = e Y on each piece, each
        value solved for in a basis of its piece space."""
        self.ensure(k_hi + 1)
        value_bases = {}
        piece_spaces = []
        for k in range(k_hi + 1):
            for kind in self.covers[k].kinds:
                if kind not in value_bases:
                    value_bases[kind] = self._piece_value_space(kind, y_apply, y_dim)
            piece_spaces.append([value_bases[kind] for kind in self.covers[k].kinds])
        hom_dims = [sum(len(space) for space in spaces) for spaces in piece_spaces]
        solvers = {kind: Matrix.from_columns(space).left_inverse() for kind, space in value_bases.items() if space}
        ranks = []
        for k in range(k_hi):
            src_cover, tgt_cover = self.covers[k], self.covers[k + 1]
            gens = self._dense_gens(k + 1)
            cols = []
            for t, (kind_t, off_t) in enumerate(zip(src_cover.kinds, src_cover.offsets)):
                width = len(self.members[kind_t])
                for u in piece_spaces[k][t]:
                    col = []
                    for kind_s, gen in zip(tgt_cover.kinds, gens):
                        elt = [0] * self.algebra_dim
                        for pos, c in enumerate(gen[off_t : off_t + width]):
                            elt[self.members[kind_t][pos]] = c
                        value = y_apply(elt, u)
                        if kind_s not in solvers:
                            if any(value):
                                raise InternalError("endo", "Hom complex value escapes its piece space")
                            continue
                        col.extend(_matvec(solvers[kind_s], value))
                    cols.append(col)
            mat = Matrix.from_columns(cols) if cols else Matrix.zeros(hom_dims[k + 1], 0)
            ranks.append(mat.rank())
        return hom_dims, ranks


def pd_le_on_chain(chain: FullRadicalChain, n: int) -> bool:
    """pd <= n off an ungraded chain: a zero kernel, the minimality
    certificate, or else the split test on 0 -> K_{n+1} -> P_n -> K_n -> 0
    via Ext^1(K_n, K_{n+1}) = 0, with K_{n+1} acted on through the kernel
    basis and its left inverse."""
    for k in range(1, n + 2):
        if chain.kernel_is_zero(k):
            return True
    if chain.covers[n].minimal:
        return False
    chain.ensure(n + 3)
    kern = chain.covers[n].kernel_cols
    basis = Matrix.from_columns(kern)
    solver = basis.left_inverse()

    def y_apply(coeffs, vec):
        return _matvec(solver, chain._apply(n, _terms(coeffs), _matvec(basis, vec)))

    dims, ranks = chain.hom_complex_dims_and_ranks(n + 2, y_apply, len(kern))
    return dims[n + 1] - ranks[n + 1] - ranks[n] == 0


class DenseFirstCoverChain(_Chain):
    """The graded chain with its first cover in the dense coordinates of its
    module x, whatever x's basis: the columns of the idempotents' action are
    the top candidates, one span of rad x (seeded by the radical generators
    on every coordinate) serves every vertex, and each kernel system has
    every row of x.  Later covers are the graded ones of ``relrep.endo``;
    every cover must be minimal, as there."""

    def __init__(self, g: StructureConstantAlgebra, base: SCModule) -> None:
        self._read_algebra(g)
        self.base_dim = base.dim
        self.base_action = base.action
        self.idem_terms = [_terms(e) for e in g.idempotents]
        self.rad_terms = [_terms(ell) for ell in radical_generators(g)]

    def extend(self) -> None:
        if self.covers:
            return super().extend()
        tables = self.tables
        dim, action = self.base_dim, self.base_action
        seeds = [col for terms in self.rad_terms for col in _combine(action, dim, terms).columns() if any(col)]
        span = spanned_by(dim, seeds)
        by_kind = [_combine(action, dim, terms).columns() for terms in self.idem_terms]
        kinds, gens = [], []
        columns = [[] for _ in tables.members]
        for s in range(dim):
            for kind, cols in enumerate(by_kind):
                w = cols[s]
                if not any(w) or span.contains(w):
                    continue
                kinds.append(kind)
                gens.append(w)
                images = {m: _matvec(action[m], w) for m in tables.members[kind]}
                for m in tables.tops[kind]:
                    span.add(images[m])
                ms = tables.members[kind]
                for i, positions in enumerate(tables.by_vertex[kind]):
                    columns[i].extend(images[ms[t]] for t in positions)
        cover = _Cover(tables, kinds, gens)
        cover.kernels = []
        rank = 0
        for block in columns:
            kernel = Matrix.from_columns(block).kernel_basis().columns() if block else []
            cover.kernels.append(kernel)
            rank += len(block) - len(kernel)
        if rank != dim:
            raise InternalError("endo", "projective cover construction is not onto")
        if not all(
            tables.rad_spans[kind][i].contains(v[start : start + len(tables.by_vertex[kind][i])])
            for i, vecs in enumerate(cover.kernels)
            for v in vecs
            for kind, start in zip(cover.kinds, cover.starts[i])
        ):
            raise InternalError("endo", "projective cover construction is not minimal: its kernel leaves rad P")
        self.covers.append(cover)


def _top_of_piece(g: StructureConstantAlgebra, kind: int) -> SCModule:
    """The simple quotient of the projective A e_kind as an SCModule."""
    members = g.piece_members[kind]
    vertex = _vertices(g, left=True)
    index = {m: t for t, m in enumerate(members)}
    width = len(members)
    action = []
    for k in range(g.dim):
        cols = []
        for m in members:
            col = [0] * width
            for mm, c in tensor(g)[k][m]:
                col[index[mm]] = c
            cols.append(col)
        action.append(Matrix.from_columns(cols))
    rad = _piece_radical(g, members)
    return _sc_quotient(
        SCModule(g, width, action, [vertex[m] for m in members]),
        Matrix.from_columns(rad) if rad else Matrix.zeros(width, 0),
    )


def top_chain(g: StructureConstantAlgebra, kind: int) -> "FullRadicalChain | None":
    """The chain of the top of piece ``kind``, resolved from the top module."""
    top = _top_of_piece(g, kind)
    return FullRadicalChain(g, top) if top.dim else None


def gldim_le(g: StructureConstantAlgebra, n: int) -> bool:
    if n < 0:
        raise AlgebraError("global dimension bound must be >= 0")
    basic, _ = reduce_to_basic(g)
    chains = [
        top_chain(basic, kind)
        for kind, cls in enumerate(basic.piece_classes)
        if cls not in basic.piece_classes[:kind]
    ]
    return all(chain is None or pd_le_on_chain(chain, n) for chain in chains)


def sc_pd_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    if x.dim == 0:
        return True
    if n < 0:
        return False
    return pd_le_on_chain(FullRadicalChain(g, x), n)


def sc_injective_dim_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    """id x <= n as pd of the dual over the opposite: id_A x = pd_(A^op) Dx."""
    return sc_pd_le(opposite(g), dual_sc_module(x), n)


def sc_ext_dims(g: StructureConstantAlgebra, x: SCModule, y: SCModule, up_to: int) -> list[int]:
    if up_to < 1:
        return []
    basic, transport = reduce_to_basic(g)
    if transport:
        x = transport(x)
        y = transport(y)
    if x.dim == 0 or y.dim == 0:
        return [0] * up_to
    chain = FullRadicalChain(basic, x)
    dims, ranks = chain.hom_complex_dims_and_ranks(up_to + 1, partial(apply, y), y.dim)
    return [dims[i] - ranks[i] - ranks[i - 1] for i in range(1, up_to + 1)]


def _atom_access(m: Module):
    """Injection/projection morphisms for each atom of ``flatten_atoms(m)``."""
    if m.summands is None:
        ident = Morphism.identity(m)
        return [ident], [ident]
    injections = []
    projections = []
    for s in range(len(m.summands)):
        inj = summand_injection(m, s)
        proj = summand_projection(m, s)
        part = m.summands[s]
        if part.summands is None:
            injections.append(inj)
            projections.append(proj)
        else:
            sub_inj, sub_proj = _atom_access(part)
            for i, p in zip(sub_inj, sub_proj):
                injections.append(inj @ i)
                projections.append(p @ proj)
    return injections, projections


def end_basis(m: Module) -> list[Morphism]:
    """The basis of End(m) in the order of ``end_ring(m)``: for the local
    parts A_s, A_t of the nonzero atoms (source outer), each composed out of
    its atom's summand injection and projection and its own inclusion and
    projection (checked morphisms), and phi in the basis of Hom(A_s, A_t),
    ``injections[t] @ phi @ projections[s]``."""
    flat = flatten_atoms(m)
    atom_in, atom_out = _atom_access(m)
    injections, projections, parts = [], [], []
    for a, inj, proj in zip(flat, atom_in, atom_out):
        if a.total_dim == 0:
            continue
        for part, into, onto in local_parts(a) or ((a, None, None),):
            parts.append(part)
            if into is None:
                injections.append(inj)
                projections.append(proj)
            else:
                injections.append(inj @ Morphism(part, a, into))
                projections.append(Morphism(a, part, onto) @ proj)
    return [
        injections[t] @ phi @ projections[s]
        for s in range(len(parts))
        for t in range(len(parts))
        for phi in hom_space(parts[s], parts[t]).basis
    ]
