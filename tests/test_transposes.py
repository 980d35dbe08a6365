"""Transposes read off the module's own minimal presentation.

``transpose`` builds P0^op -> P1^op from the presentation of x: one summand
of P0 per generator, one of P1 per relation, and the relations' path
combinations as the entries.  Checked against the construction it replaced
(kept below as the reference: the differential P1 -> P0 of the minimal
projective resolution, its entries read as path combinations, and the
cokernel of its reversal) on Tr, trd and dtr of the syzygy-step corpus over
cyclic3, the commuting square, A3 with one zero relation, the Kronecker
quiver and A4/rad^2.
"""

import pytest

from relrep.exact_linalg import Matrix
from relrep.homology import (
    _path_class_vector,
    dtr,
    transpose,
    trd,
)
from relrep.rep import (
    Module,
    Morphism,
    assemble_from_components,
    assemble_into_components,
    direct_sum,
    dualize,
    flatten_atoms,
    hom_space,
    inj_module,
    morphism_from_generator,
    path_combination,
    presentation,
    proj_module,
    quotient_by_subspaces,
    simple_module,
)
from hom_reference import _hom_raw
from test_homology import minimal_presentation
from test_syzygy_steps import ALGEBRAS, _built, _parsed, assert_relations_present

# -- the replaced construction -----------------------------------------------------


def _path_entries(d: Morphism) -> list[list[tuple]]:
    """For each generator g of d's source, the nonzero ``(b, u_k, p_k)`` with
    d(g) = sum_k u_k p_k·g_b over the generators g_b of d's target."""
    pres = presentation(d.source)
    return [path_combination(d.target, v, column) for v, column in zip(pres.vertices, pres.values(d.maps))]


def _reference_presentation(x: Module):
    """The reversed minimal presentation d_op: P0^op -> P1^op, always into a
    direct sum (one summand or more)."""
    algebra = x.algebra
    op = algebra.opposite()
    d1, _ = minimal_presentation(x)
    src = direct_sum(op, [proj_module(op, s._proj_vertex) for s in d1.target.summands])
    tgt = direct_sum(op, [proj_module(op, s._proj_vertex) for s in d1.source.summands])
    entries = _path_entries(d1)
    comps = []
    for c, src_c in enumerate(src.summands):
        into = []
        for b, tgt_b in enumerate(tgt.summands):
            u = Matrix.zeros(tgt_b.dims[src_c._proj_vertex], 1)
            for c_k, coeff, path in entries[b]:
                if c_k == c:
                    u = u + _path_class_vector(tgt_b, algebra.reverse_path(path)).scale(coeff)
            into.append(morphism_from_generator(src_c, tgt_b, u))
        comps.append(assemble_into_components(src_c, tgt, into))
    return assemble_from_components(src, tgt, comps)


def _reference_transpose(x: Module) -> Module:
    d_op = _reference_presentation(x)
    return quotient_by_subspaces(d_op.target, d_op.maps)[0]


# -- the corpus --------------------------------------------------------------------


def _atoms(alg) -> list[Module]:
    seen, out = set(), []
    for m in _parsed(alg) + _built(alg):
        for x in flatten_atoms(m):
            if not x.is_zero() and id(x) not in seen:
                seen.add(id(x))
                out.append(x)
    return out


def _targets(alg) -> list[Module]:
    n = alg.quiver.vertex_count
    simples = [simple_module(alg, v) for v in range(n)]
    return (
        simples
        + [proj_module(alg, v) for v in range(n)]
        + [inj_module(alg, v) for v in range(n)]
        + [direct_sum(alg, simples[:2])]
    )


@pytest.fixture(scope="module", params=ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def atoms(request):
    return _atoms(request.param())


def _p1_vertices(x: Module) -> list[int]:
    return [s._proj_vertex for s in minimal_presentation(x)[0].source.summands]


def _assert_same_matrices(new: Module, ref: Module) -> None:
    assert new.dims == ref.dims
    assert new.arrow_maps == ref.arrow_maps


def _assert_hom_routes_agree(x: Module, y: Module) -> None:
    """``hom_space`` and ``_hom_raw`` agree in dimension, and each basis
    round-trips through the other's coordinates."""
    space, raw = hom_space(x, y), _hom_raw(x, y)
    assert space.dim == raw.dim
    for a, b in ((space, raw), (raw, space)):
        for f in a.basis:
            assert b.from_coords(b.coords(f)).maps == f.maps


# -- tests ---------------------------------------------------------------------------


def test_transposes_match_the_reference_construction(atoms):
    """Same matrices as the reference, and one generator of Tr z per summand
    of P1, at its vertex."""
    other = 0
    for x in atoms:
        for z in (x, dualize(x)):
            t, ref = transpose(z), _reference_transpose(z)
            _assert_same_matrices(t, ref)
            assert sorted(presentation(t).vertices) == sorted(_p1_vertices(z))
            assert_relations_present(t)
            other += len(_p1_vertices(z)) != 1
        _assert_same_matrices(trd(x), _reference_transpose(dualize(x)))
        assert dtr(x).arrow_maps == tuple(m.transpose() for m in _reference_transpose(x).arrow_maps)
    # besides single projectives, P1 is zero (z projective) or decomposable
    assert other


def test_hom_spaces_of_transposes_match_the_raw_route(atoms):
    targets = {}
    for x in atoms:
        # the corpus holds duals, so x lives over the algebra or its opposite
        base, op = x.algebra, x.algebra.opposite()
        for alg in (base, op):
            if alg not in targets:
                targets[alg] = _targets(alg)
        for t, ys in ((transpose(x), targets[op]), (trd(x), targets[base])):
            for y in ys + [t]:
                _assert_hom_routes_agree(t, y)
        # dtr x is the dual of Tr x: maps into it are read off its own presentation
        for a in targets[base]:
            _assert_hom_routes_agree(a, dtr(x))
