"""End(M) on the block route against the generic construction.

An End(M) of local, pairwise non-isomorphic atoms reads its chain tables,
radical and radical generators off its atom blocks; it has no product
table.  The generic route of ``sc_reference`` reads the same tables off the
product table (assembled from the blocks) and the trace-form radical; on a
copy of the algebra with nothing cached it is the reference here.  Every
gldim verdict rests on these tables, so they must agree field by field on
the benchmark's sweep candidates (cyc2-trunc4 included), both theorem pairs,
the mutated pair and an End(M) over each off-Nakayama test algebra.
"""

import itertools

import pytest

import sc_reference as ref
from conftest import M1_EXPR, M2_EXPR
from relrep.endo import (
    _chain_tables,
    check_maximal_orthogonal,
    end_ring,
    gldim_le,
)
from relrep.path_algebra import InternalError
from relrep.path_algebra import AlgebraPresentation, cyclic_quiver
from relrep.rep import (
    composition_table,
    direct_sum,
    enumerate_indecomposables_nakayama,
    flatten_atoms,
    hom_space,
    inj_module,
    is_isomorphic,
    parse_module_expression,
    proj_module,
    regular_module,
    simple_module,
)
from test_endo import MUTATED_EXPR
from test_sc_resolutions import C1_EXPR, C2_EXPR, MUTATED_M2_EXPR
from test_syzygy_steps import ALGEBRAS

SWEEP = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4))


def _sweep_candidates():
    """Lambda plus every subset of the non-projective indecomposables, over
    the sweep's four truncated cyclic algebras and cyc2-trunc4."""
    out = []
    for vertices, bound in SWEEP:
        alg = AlgebraPresentation.truncated(cyclic_quiver(vertices), bound, name=f"cyc{vertices}-trunc{bound}")
        lam = regular_module(alg)
        nonprojective = [x for x in enumerate_indecomposables_nakayama(alg) if x.total_dim < bound]
        for r in range(len(nonprojective) + 1):
            for combo in itertools.combinations(nonprojective, r):
                out.append(direct_sum(alg, [lam, *combo]))
    return out


def _theorem_modules():
    cyc3 = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")
    cyc2 = AlgebraPresentation.truncated(cyclic_quiver(2), 4, name="cyc2-trunc4")
    exprs = [(cyc3, M1_EXPR), (cyc3, M2_EXPR), (cyc2, C1_EXPR), (cyc2, C2_EXPR)]
    exprs += [(cyc3, MUTATED_EXPR), (cyc3, MUTATED_M2_EXPR)]
    return [parse_module_expression(alg, e) for alg, e in exprs]


def _off_nakayama_modules():
    """Over each off-Nakayama test algebra, the sum of its pairwise
    non-isomorphic projectives, injectives and simples."""
    out = []
    for make in ALGEBRAS[1:]:
        alg = make()
        n = alg.quiver.vertex_count
        atoms = []
        for x in [f(alg, v) for f in (proj_module, inj_module, simple_module) for v in range(n)]:
            if not any(x.dims == a.dims and is_isomorphic(x, a) for a in atoms):
                atoms.append(x)
        out.append(direct_sum(alg, atoms))
    return out


def _fields(tables) -> tuple:
    spans = [[(span.rows, span.pivots) for span in row] for row in tables.rad_spans]
    return (tables.members, tables.vertex, tables.by_vertex, tables.acts, spans, tables.tops, tables.leaving)


def _tensor_from_tables(m) -> tuple:
    """The product table of End(m), e_a * e_b read off one composition table
    of atom-pair hom spaces per pair of blocks, entry by entry."""
    atoms = [a for a in flatten_atoms(m) if a.total_dim > 0]
    spaces = [[hom_space(a, b) for b in atoms] for a in atoms]
    blocks = [(s, t) for s in range(len(atoms)) for t in range(len(atoms))]
    offsets, total = {}, 0
    for s, t in blocks:
        offsets[s, t] = total
        total += spaces[s][t].dim
    mult = [[()] * total for _ in range(total)]
    for (sa, ta), (sb, tb) in itertools.product(blocks, repeat=2):
        outer, inner = spaces[sa][ta], spaces[sb][tb]
        if tb != sa or not outer.dim or not inner.dim:
            continue
        table = composition_table(outer, inner)
        for i in range(outer.dim):
            for j in range(inner.dim):
                mult[offsets[sa, ta] + i][offsets[sb, tb] + j] = tuple(
                    (offsets[sb, ta] + k, row[i]) for k, row in enumerate(table[j]._data) if row[i] != 0
                )
    return tuple(tuple(row) for row in mult)


def _assert_block_route(m) -> None:
    g = end_ring(m)
    assert ref.on_blocks(g)
    tables = _chain_tables(g)
    verdicts = [gldim_le(g, n) for n in range(6)]
    rad = (ref.radical(g), ref.radical_generators(g))
    assert ref.tensor(g) == _tensor_from_tables(m)
    copy = ref.generic(g)
    assert _fields(tables) == _fields(ref.GenericChainTables(copy))
    assert rad == ref.radical_data(copy)
    assert verdicts == [gldim_le(copy, n) for n in range(6)]


@pytest.fixture(scope="module")
def sweep_candidates():
    return _sweep_candidates()


def test_the_block_route_matches_the_generic_one_on_the_sweep(sweep_candidates):
    assert len(sweep_candidates) == 156
    for m in sweep_candidates:
        _assert_block_route(m)


def test_the_corollary_verdict_reads_the_block_route(sweep_candidates):
    for m in sweep_candidates[::5]:
        report = check_maximal_orthogonal(m, 1, mode="corollary")
        clause = report.clauses[-1]
        assert clause.name == "endomorphism-gldim"
        assert clause.passed == gldim_le(ref.generic(end_ring(m)), 3)


@pytest.mark.parametrize("source", [_theorem_modules, _off_nakayama_modules])
def test_the_block_route_matches_the_generic_one_past_the_sweep(source):
    modules = source()
    assert len(modules) in (6, len(ALGEBRAS) - 1)
    for m in modules:
        _assert_block_route(m)


def test_the_product_table_is_built_once_when_read(sweep_candidates):
    m = direct_sum(sweep_candidates[-1].algebra, list(sweep_candidates[-1].summands))
    g = end_ring(m)
    assert ref.tensor(g) is ref.tensor(g)


def test_a_repeated_atom_class_takes_the_generic_route():
    # only on the reference's side: the library resolves such an End(M)
    # over its basic algebra and refuses to read chain tables off its blocks
    alg = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")
    m = parse_module_expression(alg, "P(1)+P(1)+S(1)")
    g = end_ring(m)
    assert not ref.on_blocks(g)
    with pytest.raises(InternalError, match="basic algebra") as err:
        _chain_tables(g)
    assert err.value.layer == "endo"
    assert ref.tensor(g) == _tensor_from_tables(m)
    assert (ref.radical(g), ref.radical_generators(g)) == ref.radical_data(ref.dense_copy(g))
    assert [gldim_le(g, n) for n in range(6)] == [gldim_le(ref.generic(g), n) for n in range(6)]


def test_the_idempotents_read_off_the_atoms_sum_to_the_unit(sweep_candidates):
    for m in sweep_candidates[::11]:
        g = end_ring(m)
        assert ref.check_unit(g)
        assert [sum(col) for col in zip(*g.idempotents)] == list(g.unit)
        for s, e in enumerate(g.idempotents):
            for t, f in enumerate(g.idempotents):
                assert ref.multiply(g, e, f) == (list(e) if s == t else [0] * g.dim)
