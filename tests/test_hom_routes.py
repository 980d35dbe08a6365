"""Hom spaces in generator coordinates against the commutation system.

``hom_space`` reads every Hom(X, Y) off a presentation of X: the generator
images of its basis maps span the common kernel of the relation operators.
The reference is the route it replaced, kept in ``hom_reference``: Hom(X, Y)
as the kernel of the commutation system f_j X_a = Y_a f_i on the entries of
the vertex maps (``_hom_raw``).  On the syzygy-step corpus of five algebras
(plain kernels, realized middle terms, duals, transposes and translates
among them) the two agree in dimension, every basis map commutes,
coordinates round-trip both ways, the "morphism not in hom space" guard
rejects exactly the vertex families the system rejects, and
``composite_coords`` agrees on both sides with composing map by map and
reading coordinates.
"""

import pytest

from relrep.exact_linalg import Matrix
from relrep.path_algebra import AlgebraError
from relrep.rep import (
    Module,
    Morphism,
    composite_coords,
    composition_table,
    direct_sum,
    hom_space,
    parse_module_expression,
    presentation,
    proj_module,
    radical_quotient,
    simple_module,
)
from conftest import zero_module
from hom_reference import _compose_then_coords, _hom_raw
from test_syzygy_steps import ALGEBRAS, _built, _cyc3_trunc5, _parsed


# -- the corpus ----------------------------------------------------------------------


def _sample(alg) -> list[Module]:
    """The modules of the syzygy-step corpus over ``alg`` (the corpus
    mixes in modules over the opposite algebra), with a plain copy of P(1)
    + S(1) and a sum holding a plain atom and a zero summand."""
    mods = [m for m in _parsed(alg) + _built(alg) if m.algebra is alg]
    layered = parse_module_expression(alg, "P(1)+S(1)")
    plain = Module(alg, layered.dims, layered.arrow_maps)
    n = alg.quiver.vertex_count
    mods += [plain, direct_sum(alg, [simple_module(alg, n - 1), zero_module(alg), plain])]
    return mods


@pytest.fixture(scope="module", params=ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def sample(request):
    return _sample(request.param())


def _route(x: Module) -> str:
    if x.summands is not None:
        return "sum"
    return "projective" if presentation(x).relations is None else "computed"


# -- tests ---------------------------------------------------------------------------


def test_hom_spaces_match_the_commutation_system(sample):
    routes = set()
    for x in sample:
        for y in sample:
            space, raw = hom_space(x, y), _hom_raw(x, y)
            assert space.dim == raw.dim, (x, y)
            assert space.gens.rows == sum(y.dims[v] for v in presentation(x).vertices)
            for j, b in enumerate(space.basis):
                Morphism(x, y, b.maps)
                assert space.coords(b) == [int(i == j) for i in range(space.dim)]
                assert raw.from_coords(raw.coords(b)).maps == b.maps
            for f in raw.basis:
                assert space.from_coords(space.coords(f)).maps == f.maps
            routes.add((_route(x), _route(y)))
    assert {r for r, _ in routes} == {"sum", "projective", "computed"}


def test_coords_reject_exactly_the_vertex_families_that_do_not_commute(sample):
    """Add one to one entry of a basis map (or of the zero map): the guard
    raises exactly when the commutation system says the family left the
    space."""
    rejected = accepted = 0
    for x in sample[::2]:
        for y in sample[::2]:
            space, raw = hom_space(x, y), _hom_raw(x, y)
            start = space.basis[0] if space.dim else Morphism.zero(x, y)
            for v in range(len(x.dims)):
                if not x.dims[v] * y.dims[v]:
                    continue
                maps = [m.to_lists() for m in start.maps]
                maps[v][0][x.dims[v] - 1] += 1
                f = Morphism._make(x, y, tuple(Matrix.from_rows(m) if m else z for m, z in zip(maps, start.maps)))
                try:
                    expected = raw.coords(f)
                except AlgebraError:
                    with pytest.raises(AlgebraError, match="morphism not in hom space"):
                        space.coords(f)
                    rejected += 1
                else:
                    assert raw.coords(space.from_coords(space.coords(f))) == expected
                    accepted += 1
    assert rejected and accepted


def test_composite_coords_match_compose_then_coords_on_both_sides(sample):
    sides = set()
    mods = sample[::3]
    for u in mods:
        for x in mods:
            inner = hom_space(u, x)
            for y in mods:
                outer = hom_space(x, y)
                for h in outer.basis[:2]:
                    assert composite_coords(h, inner) == _compose_then_coords(h, inner)
                    sides.add("after")
                for h in inner.basis[:2]:
                    assert composite_coords(outer, h) == _compose_then_coords(outer, h)
                    sides.add("before")
                table = composition_table(outer, inner)
                for h, coords in zip(inner.basis, table):
                    assert coords == composite_coords(outer, h)
    assert sides == {"after", "before"}


def test_presentations_generate_and_their_relations_vanish(sample):
    """Every relation kills the generators, and the sections (a sum has
    its summands') are right inverses of the cover by the generators."""
    for x in sample:
        pres = presentation(x)
        assert len(pres.generators) == len(pres.vertices)
        for rel in pres.relations or ():
            end = rel[0][2].target
            value = Matrix.zeros(x.dims[end], 1)
            for i, c, p in rel:
                assert p.source == pres.vertices[i] and p.target == end
                value = value + (x.action(p) @ pres.generators[i]).scale(c)
            assert value.is_zero()
        for w, section in enumerate(pres.sections or ()):
            images = [
                x.action(p) @ pres.generators[i] for i, p in pres.labels(x.algebra)[w]
            ]
            if x.dims[w]:
                assert Matrix.from_columns([m.flatten() for m in images]) @ section == Matrix.identity(x.dims[w])


def test_from_coords_checks_the_coordinate_length():
    alg = _cyc3_trunc5()
    p1 = proj_module(alg, 0)
    cyclic = radical_quotient(p1, 2)[0]
    layered = parse_module_expression(alg, "S(1)+S(3)")
    plain = Module(alg, layered.dims, layered.arrow_maps)
    spaces = [
        hom_space(cyclic, p1),
        hom_space(layered, layered),
        hom_space(plain, plain),
        hom_space(simple_module(alg, 0), p1),
    ]
    assert [s.dim for s in spaces] == [1, 2, 2, 0]
    for space in spaces:
        for n in (space.dim - 1, space.dim + 1):
            if n >= 0:
                with pytest.raises(AlgebraError, match="coordinate length mismatch"):
                    space.from_coords([1] * n)
        assert space.from_coords([0] * space.dim).is_zero()
