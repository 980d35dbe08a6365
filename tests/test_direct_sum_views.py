"""A direct sum is a view over its summands.

``rep.direct_sum`` records the summands and their offsets and builds no
arrow map: ``Module.arrow_maps`` assembles them block-diagonally from the
summands' on first read and keeps them, and ``Module.action`` on a sum whose
maps are not built is the block diagonal of the summands' actions.  These
tests read the ``_arrow_maps`` slot to see whether a sum's maps were built,
and check both assembled routes against the summands' matrices on nested
sums, zero summands, the empty sum and the regular module, over cyclic3 and
two algebras with more than one arrow at a vertex.  They also pin that Ext,
hom spaces with their basis maps, and duals of parsed sums build no map of
those sums.
"""

import pytest

from relrep.exact_linalg import Matrix, block_diag
from relrep.homology import ext_dim
from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    Module,
    direct_sum,
    dualize,
    flatten_atoms,
    hom_space,
    inj_module,
    parse_module_expression,
    proj_module,
    regular_module,
    simple_module,
)
from conftest import zero_module

from test_homology import _commuting_square, _kronecker


def _cyc3_trunc5():
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")


ALGEBRAS = [_cyc3_trunc5, _commuting_square, _kronecker]


def _sums(alg) -> dict:
    """Fresh sums of every shape, their maps not yet built, by name."""
    n = alg.quiver.vertex_count
    simples = [simple_module(alg, v) for v in range(n)]
    inner = direct_sum(alg, [proj_module(alg, 0), simples[-1]])
    return {
        "atoms": direct_sum(alg, [simples[0], proj_module(alg, n - 1), inj_module(alg, 0)]),
        "nested": direct_sum(alg, [inner, inj_module(alg, n - 1), direct_sum(alg, [inner, simples[0]])]),
        "zero summands": direct_sum(alg, [zero_module(alg), simples[0], zero_module(alg), proj_module(alg, 0)]),
        "only zero summands": direct_sum(alg, [zero_module(alg), zero_module(alg)]),
        "empty": direct_sum(alg, []),
        "regular": direct_sum(alg, regular_module(alg).summands),
    }


def _product(maps, path) -> Matrix:
    """The action of a nontrivial ``path`` as the product of ``maps`` along it."""
    out = maps[path.arrows[0]]
    for idx in path.arrows[1:]:
        out = maps[idx] @ out
    return out


@pytest.mark.parametrize("make", ALGEBRAS)
def test_a_sum_records_its_summands_and_builds_no_map(make):
    alg = make()
    for name, m in _sums(alg).items():
        assert m._arrow_maps is None, name
        assert all(s.algebra is alg for s in m.summands)
    assert regular_module(alg)._arrow_maps is None


@pytest.mark.parametrize("make", ALGEBRAS)
def test_the_maps_are_the_block_diagonal_of_the_parts_and_kept(make):
    alg = make()
    for name, m in [*_sums(alg).items(), ("memoized regular", regular_module(alg))]:
        maps = m.arrow_maps
        assert m._arrow_maps is maps and m.arrow_maps is maps, name
        assert len(maps) == len(alg.quiver.arrows)
        for idx, a in enumerate(alg.quiver.arrows):
            assert (maps[idx].rows, maps[idx].cols) == (m.dims[a.target], m.dims[a.source]), name
            assert maps[idx] == block_diag([s.arrow_maps[idx] for s in m.summands]), name
            # nesting is transparent: the leaves give the same matrix
            assert maps[idx] == block_diag([s.arrow_maps[idx] for s in flatten_atoms(m)]), name
        # the assembled maps satisfy the relations, as a checked module would
        Module(alg, m.dims, maps, validate=True)


@pytest.mark.parametrize("make", ALGEBRAS)
def test_path_actions_of_an_unbuilt_sum_are_the_products_of_its_maps(make):
    alg = make()
    views, built = _sums(alg), _sums(alg)
    # every path the nilpotency bound admits, and on cyclic3 the ones at it
    paths = alg.quiver.paths_up_to(alg.nilpotency_bound)
    for name, view in views.items():
        maps = built[name].arrow_maps
        for p in paths:
            action = view.action(p)
            assert (action.rows, action.cols) == (view.dims[p.target], view.dims[p.source]), (name, p)
            if p.arrows:
                assert action == _product(maps, p), (name, p)
            else:
                assert action == Matrix.identity(view.dims[p.source]), (name, p)
        assert view._arrow_maps is None, name
        # once built, the maps give the same actions
        assert all(built[name].action(p) == view.action(p) for p in paths), name


@pytest.mark.parametrize("make", ALGEBRAS)
def test_offsets_are_the_running_sums_of_the_summand_dims(make):
    alg = make()
    n = alg.quiver.vertex_count
    for name, m in _sums(alg).items():
        running, expected = [0] * n, []
        for s in m.summands:
            expected.append(tuple(running))
            running = [r + d for r, d in zip(running, s.dims)]
        assert m._offsets == expected, name
        assert tuple(running) == m.dims, name


def test_a_sum_over_another_algebra_is_refused():
    cyc3 = _cyc3_trunc5()
    with pytest.raises(AlgebraError, match="mixed algebras"):
        direct_sum(cyc3, [proj_module(cyc3, 0), proj_module(_kronecker(), 0)])


def test_ext_dims_of_parsed_sums_build_no_map():
    # a fresh algebra, so that every hom space and resolution is computed
    alg = _cyc3_trunc5()
    x = parse_module_expression(alg, "P(1)+S(2)+P(3)/rad^2+I(1)")
    y = parse_module_expression(alg, "S(1)+P(2)/rad^3+I(3)+P(1)/rad^4")
    answers = [ext_dim(i, x, y) for i in range(4)] + [ext_dim(i, y, x) for i in range(4)]
    assert x._arrow_maps is None and y._arrow_maps is None
    # hom spaces, their basis maps and duals read a sum through its summands too
    assert len(hom_space(x, y).basis) == answers[0] and len(hom_space(y, x).basis) == answers[4]
    assert dualize(x).summands is not None and dualize(x)._arrow_maps is None
    assert x._arrow_maps is None and y._arrow_maps is None
    # the same answers on copies that are not sums
    px, py = Module(alg, x.dims, x.arrow_maps), Module(alg, y.dims, y.arrow_maps)
    assert answers == [ext_dim(i, px, py) for i in range(4)] + [ext_dim(i, py, px) for i in range(4)]
    assert any(answers[1:4]) or any(answers[5:])
