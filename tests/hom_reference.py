"""Reference routes the tests compare the library against.

The reference hom route: Hom(X, Y) as the kernel of the commutation system
f_j X_a = Y_a f_i on the entries of the vertex maps, solved whole.  This is
a different algorithm from ``relrep.rep.hom_space``, which reads Hom(X, Y)
off a presentation of X.

The reference realization of an Ext^1 class: the pushout of the cover
sequence along a cocycle, built as the quotient of P + a by the graph of
(incl, -psi), with the summand injections and projections of the sum.
``Ext1Space.realize`` builds the same matrices from c's cached middle core.

The socle, per vertex, as the common kernel of the arrows leaving it: the
tests check minimal injective hulls against it.
"""

from relrep.exact_linalg import Matrix, vstack
from relrep.path_algebra import AlgebraError
from relrep.rep import (
    Module,
    Morphism,
    ShortExactSequence,
    assemble_into_components,
    direct_sum,
    hom_space,
    quotient_by_subspaces,
)


class _RawHom:
    """Hom(x, y) as the kernel of the commutation system on the entries of
    the vertex maps, taken vertex by vertex and row by row."""

    def __init__(self, x: Module, y: Module):
        self.source, self.target = x, y
        offsets, total = [], 0
        for v in range(len(x.dims)):
            offsets.append(total)
            total += x.dims[v] * y.dims[v]
        rows = []
        for idx, a in enumerate(x.algebra.quiver.arrows):
            i, j = a.source, a.target
            xa, ya = x.arrow_maps[idx], y.arrow_maps[idx]
            # f_j @ X_a - Y_a @ f_i = 0, entry (r, c): r in Y_j, c in X_i
            for r in range(y.dims[j]):
                for c in range(x.dims[i]):
                    row = [0] * total
                    for k in range(x.dims[j]):
                        row[offsets[j] + r * x.dims[j] + k] += xa[k, c]
                    for k in range(y.dims[i]):
                        row[offsets[i] + k * x.dims[i] + c] -= ya[r, k]
                    if any(row):
                        rows.append(row)
        self.kern = Matrix.from_rows(rows).kernel_basis() if rows else Matrix.identity(total)
        self.dim = self.kern.cols
        self.basis = [self.from_coords([int(i == j) for i in range(self.dim)]) for j in range(self.dim)]

    def coords(self, f: Morphism) -> list:
        sol = self.kern.solve_right(Matrix.column(f.flat()))
        if sol is None:
            raise AlgebraError("morphism not in hom space")
        return sol.flatten()

    def from_coords(self, cs) -> Morphism:
        return Morphism.from_flat(self.source, self.target, (self.kern @ Matrix.column(list(cs))).flatten())


def _hom_raw(x: Module, y: Module) -> _RawHom:
    return _RawHom(x, y)


def _compose_then_coords(outer, inner) -> Matrix:
    """``composite_coords`` the long way: compose with every basis map and
    read the coordinates of each composite."""
    if isinstance(outer, Morphism):
        result = hom_space(inner.source, outer.target)
        cols = [result.coords(outer @ b) for b in inner.basis]
    else:
        result = hom_space(inner.source, outer.target)
        cols = [result.coords(b @ inner) for b in outer.basis]
    return Matrix.from_columns(cols) if cols else Matrix.zeros(result.dim, 0)


def summand_injection(sum_module: Module, s: int) -> Morphism:
    maps = tuple(m.transpose() for m in summand_projection(sum_module, s).maps)
    return Morphism._make(sum_module.summands[s], sum_module, maps)


def summand_projection(sum_module: Module, s: int) -> Morphism:
    part, offs = sum_module.summands[s], sum_module._offsets[s]
    maps = tuple(Matrix.identity(d).take_rows(range(o, o + p)) for d, o, p in zip(sum_module.dims, offs, part.dims))
    return Morphism._make(sum_module, part, maps)


def pushout_realize(space, psi: Morphism) -> ShortExactSequence:
    """The extension of ``space.c`` by ``space.a`` with cocycle psi, as the
    quotient of P + a by the columns of [incl; -psi]."""
    sum_pa = direct_sum(space.c.algebra, [space.cover.source, space.a])
    phi = assemble_into_components(space.k, sum_pa, [space.incl, psi.scale(-1)])
    middle, proj, sections = quotient_by_subspaces(sum_pa, phi.maps)
    f = proj @ summand_injection(sum_pa, 1)
    h = space.cover @ summand_projection(sum_pa, 0)
    g = Morphism(middle, space.c, tuple(hv @ sv for hv, sv in zip(h.maps, sections)))
    return ShortExactSequence(f, g)


def socle_subspaces(module: Module) -> list[Matrix]:
    """Per-vertex bases of the largest semisimple submodule."""
    out = []
    for v, d in enumerate(module.dims):
        arrows_out = module.algebra.quiver.arrows_from[v]
        if not arrows_out:
            out.append(Matrix.identity(d))
        else:
            out.append(vstack([module.arrow_maps[i] for i in arrows_out]).kernel_basis())
    return out
