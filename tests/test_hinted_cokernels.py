"""Hinted cokernels: transposes with an indecomposable P1 are cyclic.

The transpose takes its cokernel into the single projective P1 when P1 is
indecomposable, and the cokernel keeps a hint whose relations are the
target's plus the generator images of the map.  Checked against the
construction it replaced (kept below as the reference: the cokernel into a
one-summand sum, which carries no hint) on Tr, trd and dtr of the syzygy-step
corpus over cyclic3, the commuting square, A3 with one zero relation, the
Kronecker quiver and A4/rad^2.
"""

import pytest

from relrep.exact_linalg import Matrix
from relrep.homology import (
    _path_class_vector,
    _path_entries,
    dtr,
    minimal_presentation,
    transpose,
    trd,
)
from relrep.rep import (
    Module,
    assemble_from_components,
    assemble_into_components,
    direct_sum,
    dualize,
    flatten_atoms,
    hom_space,
    inj_module,
    morphism_from_generator,
    proj_module,
    quotient_by_subspaces,
    simple_module,
)
from hom_reference import _hom_raw
from test_syzygy_steps import ALGEBRAS, _built, _parsed, assert_relations_present

# -- the replaced construction -----------------------------------------------------


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


def _expected_relations(x: Module) -> tuple:
    """The rows of d_op read in P1's path basis: for each summand of P0^op,
    the nonzero ``(0, c, p)`` with d_op(generator) = sum c p."""
    d_op = _reference_presentation(x)
    (p1,) = d_op.target.summands
    out = []
    for c, src_c in enumerate(d_op.source.summands):
        w = src_c._proj_vertex
        off = d_op.source.offsets()[c][w]
        image = d_op.maps[w].take_columns(range(off, off + src_c.dims[w])) @ src_c.hint.generators[0]
        rel = tuple(
            (0, image[i, 0], p) for i, p in enumerate(p1._proj_paths[w]) if image[i, 0] != 0
        )
        if rel:
            out.append(rel)
    return tuple(out)


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
def corpus(request):
    alg = request.param()
    return alg, _atoms(alg)


def _single_p1(x: Module) -> bool:
    return len(minimal_presentation(x)[0].source.summands) == 1


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


def test_transposes_keep_their_matrices_and_are_hinted_exactly_for_one_p1(corpus):
    alg, atoms = corpus
    hinted = unhinted = 0
    for x in atoms:
        for z in (x, dualize(x)):
            t, ref = transpose(z), _reference_transpose(z)
            _assert_same_matrices(t, ref)
            assert (t.hint is not None) == _single_p1(z)
            if t.hint is None:
                unhinted += 1
                continue
            hinted += 1
            assert t.hint.vertices == (minimal_presentation(z)[0].source.summands[0]._proj_vertex,)
            assert t.hint.relations == _expected_relations(z)
            assert_relations_present(t)
        _assert_same_matrices(trd(x), _reference_transpose(dualize(x)))
        assert dtr(x).arrow_maps == tuple(m.transpose() for m in _reference_transpose(x).arrow_maps)
    assert hinted
    if alg.name != "cyc3-trunc5":
        # off the Nakayama algebra some P1 is decomposable
        assert unhinted


def test_hom_spaces_of_hinted_transposes_match_the_raw_route(corpus):
    _, atoms = corpus
    targets = {}
    hinted = 0
    for x in atoms:
        # the corpus holds duals, so x lives over the algebra or its opposite
        base, op = x.algebra, x.algebra.opposite()
        for alg in (base, op):
            if alg not in targets:
                targets[alg] = _targets(alg)
        for t, ys in ((transpose(x), targets[op]), (trd(x), targets[base])):
            if t.hint is None:
                continue
            hinted += 1
            for y in ys + [t]:
                _assert_hom_routes_agree(t, y)
        # dtr x is the dual of Tr x: maps into it are read off its own presentation
        for a in targets[base]:
            _assert_hom_routes_agree(a, dtr(x))
    assert hinted
