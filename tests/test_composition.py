"""Hom spaces in generator coordinates and composition in coordinates.

Every way a hom space is built is checked against the morphism level: the cached
composition table against composing basis maps and reading coordinates,
generator images against evaluating basis maps at the generator, and the
generator-route ranks of relative projective resolutions against composing
hom-space bases with the differentials.  The algebras reach past the cyclic
Nakayama examples: the commuting square, A3 with one zero relation and the
Kronecker quiver.
"""

import pytest

from relrep.exact_linalg import QQ, Matrix
from relrep.homology import _boundary_rank, _hom_complex
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.relhom import F_resolution, contravariant_functor, covariant_functor, ext_F_dim
from relrep.rep import (
    Module,
    Morphism,
    composition_table,
    direct_sum,
    hom_dim,
    hom_space,
    inj_module,
    presentation,
    proj_module,
    radical_quotient,
    simple_module,
)
from conftest import zero_module
from test_homology import _a3_zero_relation, _commuting_square, _kronecker, _test_modules

ROUTES = {"sum source", "sum target", "projective", "computed"}


def _cyc3_trunc5():
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")


ALGEBRAS = [_cyc3_trunc5, _commuting_square, _a3_zero_relation, _kronecker]


def _route(x: Module, y: Module) -> str:
    """How ``hom_space(x, y)`` is built (mirrors ``rep._compute_hom_core``):
    from the summands' spaces, or off x's presentation, a projective's own
    (no relation) or one computed from x's cover."""
    if x.summands is not None:
        return "sum source"
    if y.summands is not None:
        return "sum target"
    return "projective" if presentation(x).relations is None else "computed"


def _pool(alg):
    """Modules that between them reach every way a hom space is built: cyclic
    ones, an injective (a dual), a plain copy with no layout, the
    zero module, and direct sums with a zero summand."""
    n = alg.quiver.vertex_count
    p0, s_last = proj_module(alg, 0), simple_module(alg, n - 1)
    top2 = radical_quotient(p0, 2)[0]
    inj = inj_module(alg, 0)
    plain = Module(alg, top2.dims, top2.arrow_maps)
    zero = zero_module(alg)
    return [
        p0,
        top2,
        s_last,
        inj,
        plain,
        zero,
        direct_sum(alg, [s_last, zero, p0]),
        direct_sum(alg, [top2, inj]),
    ]


@pytest.mark.parametrize("make", ALGEBRAS)
def test_composition_table_matches_compose_then_coords(make):
    pool = _pool(make())
    inner_routes, outer_routes = set(), set()
    zero_sides = nonzero = 0
    for u in pool:
        for x in pool:
            inner = hom_space(u, x)
            for y in pool:
                outer = hom_space(x, y)
                result = hom_space(u, y)
                table = composition_table(outer, inner)
                assert composition_table(outer, inner) is table
                assert len(table) == inner.dim
                for b, coords in zip(inner.basis, table):
                    assert (coords.rows, coords.cols) == (result.dim, outer.dim)
                    for i, a in enumerate(outer.basis):
                        assert coords.column_vector(i).flatten() == result.coords(a @ b)
                        nonzero += not (a @ b).is_zero()
                inner_routes.add(_route(u, x))
                outer_routes.add(_route(x, y))
                zero_sides += (inner.dim == 0) != (outer.dim == 0)
    assert inner_routes == ROUTES and outer_routes == ROUTES
    assert zero_sides and nonzero


@pytest.mark.parametrize("make", ALGEBRAS)
def test_hom_spaces_build_basis_maps_only_when_asked(make):
    pool = _pool(make())
    for x in pool:
        for y in pool:
            space = hom_space(x, y)
            assert hom_dim(x, y) == space.dim
            assert space._basis is None, _route(x, y)
    for x in pool:
        for y in pool:
            assert len(hom_space(x, y).basis) == hom_dim(x, y)


@pytest.mark.parametrize("make", ALGEBRAS)
def test_generator_images_are_the_basis_at_the_generator(make):
    pool = _pool(make())
    computed = 0
    for x in pool:
        pres = presentation(x)
        for y in pool:
            space = hom_space(x, y)
            computed += pres.relations is not None and x.summands is None and space.dim > 0
            # built alone, before the basis exists, a basis map is the same map
            alone = [space.basis_map(j) for j in range(space.dim)]
            assert space._basis is None
            for j, b in enumerate(space.basis):
                assert alone[j].maps == b.maps
                values = [c for vals in pres.values(b.maps) for c in vals]
                assert space.gens.column_vector(j).flatten() == values
            if len(pres.vertices) == 1 and space.gens.rows == space.gens.cols:
                assert space.gens == Matrix.identity(space.dim)
            cs = [QQ(k + 1, 2) * (-1) ** k for k in range(space.dim)]
            summed = Morphism.zero(x, y)
            for c, b in zip(cs, space.basis):
                summed = summed + b.scale(c)
            assert space.from_coords(cs).maps == summed.maps
            assert space.coords(summed) == cs
    assert computed


def _cyclic_sum(m: Module) -> bool:
    """Whether m is laid out as a direct sum of modules with one generator each."""
    return m.summands is not None and all(len(presentation(s).vertices) == 1 for s in m.summands)


def _covariant_module(alg):
    n = alg.quiver.vertex_count
    return direct_sum(alg, [simple_module(alg, n - 1), radical_quotient(proj_module(alg, 0), 2)[0]])


@pytest.mark.parametrize("make", [_cyc3_trunc5, _commuting_square])
def test_generator_ranks_match_boundary_ranks_on_relative_resolutions(make):
    """Every chain resolution ranks its boundaries in generator coordinates.
    Covariant resolutions have terms whose summands have one generator each,
    and so do contravariant ones when the transposes in trd(M) are cyclic
    (P1 indecomposable, always so on cyc3); so does the plain copy with no
    layout in the last functor, whose presentation is computed from its
    cover.  On the square trd(M) has a decomposable P1, and its summand has
    several generators.  Either way the hom complex must match the one built
    by composing hom-space bases with the differentials."""
    alg = make()
    mods = _test_modules(alg)
    m = _covariant_module(alg)
    s_last, top2 = m.summands
    plain = direct_sum(alg, [s_last, Module(alg, top2.dims, top2.arrow_maps)])
    cyclic = several = nonzero = 0
    for functor in (covariant_functor(m), contravariant_functor(m), covariant_functor(plain)):
        for x in mods:
            res = F_resolution(x, functor)
            res.ensure_terms(4)
            for y in mods:
                dim, rank = _hom_complex(res, y)
                for k, d in enumerate(res.differentials):
                    src, tgt = res.hom_to(k, y), res.hom_to(k + 1, y)
                    expected = _boundary_rank(src, tgt, d)
                    assert (dim(k), rank(k)) == (src.dim, expected), (k, x, y)
                    if _cyclic_sum(d.source) and _cyclic_sum(d.target):
                        cyclic += 1
                        nonzero += expected > 0
                    else:
                        several += 1
    assert cyclic and nonzero
    assert bool(several) == (make is _commuting_square)


@pytest.mark.parametrize("make", [_commuting_square, _a3_zero_relation])
def test_relative_ext_routes_agree_off_the_cyclic_algebras(make):
    alg = make()
    mods = _test_modules(alg)
    m = _covariant_module(alg)
    nonzero = 0
    for functor in (covariant_functor(m), contravariant_functor(m)):
        for x in mods:
            for y in mods:
                dims = [ext_F_dim(i, x, y, functor) for i in (1, 2, 3)]
                assert dims == [ext_F_dim(i, x, y, functor, via="injective") for i in (1, 2, 3)]
                nonzero += any(dims)
    assert nonzero


def test_injective_routes_never_take_the_generator_route(monkeypatch):
    import relrep.homology as homology

    def refuse(*args):
        raise AssertionError("a cochain resolution took the generator route")

    monkeypatch.setattr(homology, "_generator_rank", refuse)
    alg = _commuting_square()
    mods = _test_modules(alg)
    functor = covariant_functor(_covariant_module(alg))
    for x in mods:
        for y in mods:
            for i in (1, 2, 3):
                homology.ext_dim(i, x, y, via="injective")
                ext_F_dim(i, x, y, functor, via="injective")
