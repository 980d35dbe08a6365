"""The reference routes of the structure-constant engine: the radical
computed from scratch on every algebra, every cover taking the radical of its
kernel from the whole radical basis, the chain of a simple top starting at
the top module itself, and the basis of End(M) composed out of summand
injections and projections.

``relrep.endo`` shares the radical of an algebra with its opposite, spans the
radical of a kernel K by L·K for the radical generators L (a lift of a basis
of rad/rad²), starts the chain of the top of A e at its projective cover A e
with kernel (rad A)e, and places the vertex maps of each atom-pair basis map
at the atoms' offsets; the tests compare the routes.
"""

from relrep.endo import (
    SCModule,
    StructureConstantAlgebra,
    _Chain,
    _pd_le_on_chain,
    _piece_radical,
    _reduce_to_basic,
    _sc_quotient,
    _terms,
    dual_sc_module,
    radical,
    semisimple_quotient_module,
)
from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraError
from relrep.rep import (
    Module,
    Morphism,
    flatten_atoms,
    hom_space,
    summand_injection,
    summand_projection,
    trace_form_radical,
)


def radical_data(g: StructureConstantAlgebra) -> tuple[Matrix, tuple]:
    """``(radical basis, radical generators)`` of g from its own trace form,
    every matrix built by the public constructor, nothing cached."""
    rad = trace_form_radical(g.mult)
    n, r = g.dim, rad.cols
    right = [[0] * (n * r) for _ in range(n)]
    for b, vec in enumerate(rad.columns()):
        for j, x in _terms(vec):
            for i, plane in enumerate(g.mult):
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


class FullRadicalChain(_Chain):
    """A chain whose covers apply every radical basis vector to the kernel."""

    def __init__(self, g: StructureConstantAlgebra, base: SCModule) -> None:
        super().__init__(g, base)
        self.rad_terms = [_terms(r) for r in radical(g).columns()]


def _top_of_piece(g: StructureConstantAlgebra, kind: int) -> SCModule:
    """The simple quotient of the projective A e_kind as an SCModule."""
    members = g.piece_members[kind]
    index = {m: t for t, m in enumerate(members)}
    width = len(members)
    action = []
    for k in range(g.dim):
        cols = []
        for m in members:
            col = [0] * width
            for mm, c in g.mult[k][m]:
                col[index[mm]] = c
            cols.append(col)
        action.append(Matrix.from_columns(cols))
    rad = _piece_radical(g, members)
    return _sc_quotient(
        SCModule(g, width, action), Matrix.from_columns(rad) if rad else Matrix.zeros(width, 0)
    )


def top_chain(g: StructureConstantAlgebra, kind: int) -> "FullRadicalChain | None":
    """The chain of the top of piece ``kind``, resolved from the top module."""
    top = _top_of_piece(g, kind)
    return FullRadicalChain(g, top) if top.dim else None


def semisimple_chain(g: StructureConstantAlgebra) -> "FullRadicalChain | None":
    quot = semisimple_quotient_module(g)
    return FullRadicalChain(g, quot) if quot.dim else None


def gldim_le(g: StructureConstantAlgebra, n: int) -> bool:
    if n < 0:
        raise AlgebraError("global dimension bound must be >= 0")
    basic, _ = _reduce_to_basic(g)
    if basic.piece_members is not None:
        chains = [
            top_chain(basic, kind)
            for kind, cls in enumerate(basic.piece_classes)
            if cls not in basic.piece_classes[:kind]
        ]
    else:
        chains = [semisimple_chain(basic)]
    return all(chain is None or _pd_le_on_chain(chain, n) for chain in chains)


def sc_pd_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    if x.dim == 0:
        return True
    if n < 0:
        return False
    return _pd_le_on_chain(FullRadicalChain(g, x), n)


def sc_injective_dim_le(g: StructureConstantAlgebra, x: SCModule, n: int) -> bool:
    return sc_pd_le(g.opposite(), dual_sc_module(x), n)


def sc_ext_dims(g: StructureConstantAlgebra, x: SCModule, y: SCModule, up_to: int) -> list[int]:
    if up_to < 1:
        return []
    basic, transport = _reduce_to_basic(g)
    if basic is not g:
        x = transport(x)
        y = transport(y)
    if x.dim == 0 or y.dim == 0:
        return [0] * up_to
    chain = FullRadicalChain(basic, x)
    dims, ranks = chain.hom_complex_dims_and_ranks(up_to + 1, y.apply, y.dim)
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
    """The basis of End(m) in the order of ``end_ring(m)``: for the nonzero
    atoms A_s, A_t (source outer) and phi in the basis of Hom(A_s, A_t),
    ``injections[t] @ phi @ projections[s]``."""
    flat = flatten_atoms(m)
    keep = [i for i, a in enumerate(flat) if a.total_dim > 0]
    injections, projections = _atom_access(m)
    return [
        injections[t] @ phi @ projections[s]
        for s in keep
        for t in keep
        for phi in hom_space(flat[s], flat[t]).basis
    ]
