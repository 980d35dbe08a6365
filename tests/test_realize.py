"""``Ext1Space.realize`` against the pushout it replaces.

``realize`` builds the middle term of an extension from c's cached middle
core: the free coordinates F of the cover P, the blocks C and T of every
arrow and the blocks G of g, with one product psi_w T per arrow.  These
tests check that its sequences are, matrix by matrix and entry type by
entry type, the quotient of P + a by the columns of [incl; -psi] that
``hom_reference.pushout_realize`` builds, on every basis class, the zero
class and a class with fractional coordinates, over cyclic3, the commuting
square, A3 with a zero relation, A4/rad^2 and the Kronecker quiver.  The
corpus has sums with repeated atoms, zero atoms and nested sums, and the
Kronecker quiver's I(2), an atom with two top generators, whose sums take
the whole-module route.  The core assembled for a sum from its atoms' is
checked against the core read off the sum's whole cover sequence, and a
guard counts what one call builds.  A map K -> a that is not a cocycle is
refused on the morphism path.
"""

import itertools
from fractions import Fraction

import pytest

from relrep import exact_linalg, homology, rep
from relrep.homology import ext1_space
from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    Morphism,
    direct_sum,
    inj_module,
    kernel,
    parse_module_expression,
    proj_module,
    projective_cover,
    simple_module,
)
from conftest import zero_module

import hom_reference
from hom_reference import pushout_realize
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _kronecker


def _cyclic3():
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")


ALGEBRAS = [_cyclic3, _commuting_square, _a3_zero_relation, _a4_rad2, _kronecker]


def _corpus(alg) -> list:
    """Simples, an indecomposable projective and injective, radical
    quotients, and sums with repeated atoms, zero atoms and nesting."""
    n = alg.quiver.vertex_count
    s = [simple_module(alg, v) for v in range(n)]
    p1, i1, i_n = proj_module(alg, 0), inj_module(alg, 0), inj_module(alg, n - 1)
    zero = zero_module(alg)
    return [
        *s,
        p1,
        i_n,
        parse_module_expression(alg, "P(1)/rad^2"),
        direct_sum(alg, [s[0], s[0], s[-1]]),
        direct_sum(alg, [s[-1], zero, i1, zero]),
        direct_sum(alg, [direct_sum(alg, [s[0], i_n]), zero, direct_sum(alg, [s[-1], s[0]])]),
    ]


def _exact(m) -> list:
    """The entries of a matrix with their types: 1 and Fraction(1) differ."""
    return [[(type(x).__name__, x) for x in row] for row in m._data]


def _sequence(ses) -> tuple:
    return (
        ses.middle.dims,
        [_exact(m) for m in ses.middle.arrow_maps],
        [_exact(m) for m in ses.f.maps],
        [_exact(m) for m in ses.g.maps],
    )


def _classes(dim: int) -> list[tuple]:
    """Every basis class, the zero class and one with fractional coordinates."""
    basis = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    return basis + [(0,) * dim, tuple(Fraction(2 * k + 1, k + 2) - k for k in range(dim))]


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def test_realize_is_the_pushout_matrix_for_matrix(make):
    alg = make()
    modules = _corpus(alg)
    realized = whole_sums = 0
    for c, a in itertools.product(modules, repeat=2):
        space = ext1_space(c, a)
        if space.dim == 0:
            continue
        for x in _classes(space.dim):
            psi = space.representative(x)
            ses = space.realize(x)
            assert ses.sub is a and ses.quotient is c
            assert _sequence(ses) == _sequence(pushout_realize(space, psi)), (alg.name, c.dims, a.dims, x)
            assert _sequence(space.realize(psi)) == _sequence(ses)
            assert space.class_of(ses) == tuple(exact_linalg.rational(v) for v in x)
            realized += 1
            whole_sums += c.summands is not None and homology._cover_order(c) is None
    assert realized >= 20, (alg.name, realized)
    if alg.name == "kronecker":
        # I(2) has two top generators, so the sums with it take the whole route
        assert len(rep.top_generators(inj_module(alg, 1))) == 2
        assert whole_sums


def _fields(core) -> tuple:
    return (
        core.free_dims,
        [_exact(m) for m in core.c_blocks],
        [_exact(m) for m in core.t_blocks],
        [_exact(m) for m in core.g_blocks],
    )


@pytest.mark.parametrize("make", ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def test_the_core_of_a_sum_is_its_atoms_placed(make):
    alg = make()
    # on the Kronecker quiver the sums with I(2) go whole
    sums = [c for c in _corpus(alg) if c.summands is not None and homology._cover_order(c) is not None]
    assert sums
    for c in sums:
        cover = projective_cover(c)
        whole = homology._whole_middle_core(cover, kernel(cover)[1])
        assert _fields(homology._middle_core(c)) == _fields(whole), (alg.name, c.dims)


@pytest.fixture
def builds(monkeypatch):
    """Counts modules built and calls of the public ``direct_sum``,
    ``quotient_by_subspaces`` and ``complement_projection``, wherever the
    library and the pushout reference read them."""
    calls = {"module": 0, "direct_sum": 0, "quotient_by_subspaces": 0, "complement_projection": 0}
    init = rep.Module.__init__

    def counting_init(self, *args, **kwargs):
        calls["module"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(rep.Module, "__init__", counting_init)
    for name in ("direct_sum", "quotient_by_subspaces", "complement_projection"):
        real = getattr(exact_linalg if name == "complement_projection" else rep, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for module in (exact_linalg, rep, homology, hom_reference):
            monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_realize_builds_the_middle_term_alone(builds):
    alg = _cyclic3()
    u21, u13 = parse_module_expression(alg, "P(2)/rad^2"), parse_module_expression(alg, "P(1)/rad^3")
    spaces = [ext1_space(u21, u13), ext1_space(direct_sum(alg, [u21, zero_module(alg), u21]), u13)]
    for space in spaces:
        space.realize((1,) * space.dim)
    # a fresh sum of atoms seen before: its core is the atoms' cores placed
    spaces.append(ext1_space(direct_sum(alg, [u21, u21, u21]), direct_sum(alg, [u13, u13])))
    for space in spaces:
        assert space.dim
        for key in builds:
            builds[key] = 0
        ses = space.realize((1,) * space.dim)
        assert not ses.middle.summands
        assert builds == {"module": 1, "direct_sum": 0, "quotient_by_subspaces": 0, "complement_projection": 0}
    # the guard sees the pushout route
    pushout_realize(spaces[0], spaces[0].representative((1,)))
    assert builds["direct_sum"] and builds["quotient_by_subspaces"] and builds["complement_projection"]


def test_a_map_that_is_not_a_cocycle_is_refused():
    alg = _cyclic3()
    c, a = parse_module_expression(alg, "S(1)"), parse_module_expression(alg, "P(2)/rad^4")
    space = ext1_space(c, a)
    entries = [0] * sum(x * y for x, y in zip(space.k.dims, a.dims))
    entries[1] = 1
    psi = Morphism.from_flat(space.k, a, entries)
    with pytest.raises(AlgebraError, match="commute"):
        Morphism(space.k, a, psi.maps)
    with pytest.raises(AlgebraError):
        space.reduce(psi)
    with pytest.raises(AlgebraError):
        space.realize(psi)
    # a cocycle from a module other than K is refused too
    other = rep.Module(alg, space.k.dims, space.k.arrow_maps)
    cocycle = space.representative((1,) * space.dim)
    with pytest.raises(AlgebraError, match="first syzygy"):
        space.realize(Morphism(other, a, cocycle.maps))
    assert space.class_of(space.realize(cocycle)) == (1,) * space.dim
