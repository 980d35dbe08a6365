"""Minimal right approximations against the composition-table construction.

``minimal_right_approximation`` reads the composites through radical maps in
generator coordinates when every atom of m is cyclic.  The loop it replaced,
one composition table per atom pair and the radical endomorphisms summed over
the table of End(u), is kept below as the reference.  On parse-built m the
two choose the same basis maps, byte for byte; over the relative projectives
of contravariant functors (whose atoms include the transposes trd(M)) they
agree on multiplicities, and the result is checked to approximate and to be
right minimal.  The last test reaches an atom whose endomorphism ring is
not local, read through its local parts: add-membership against the
split-solve route, and approximations that approximate and are minimal.
"""

from collections import Counter

import pytest

from relrep.exact_linalg import Matrix, complement_projection, hstack
from relrep.homology import (
    distinct_atoms,
    factor_through,
    in_add,
    in_add_via_split,
    is_right_minimal,
    minimal_right_approximation,
    projective_resolution,
)
from relrep.relhom import contravariant_functor
from relrep.rep import (
    Module,
    _end_radical_coords,
    assemble_from_components,
    composition_table,
    direct_sum,
    hom_space,
    parse_module_expression,
    presentation,
    proj_module,
    radical_quotient,
    simple_module,
)
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _kronecker, _test_modules
from test_syzygy_steps import ALGEBRAS, _cyc3_trunc5


def _reference_approximation(x: Module, m: Module):
    """The composition-table construction: ``(g, all_local)``.  Equal maps
    out of the same summands mean the same basis indices were chosen."""
    atoms = distinct_atoms(m)
    spaces = [hom_space(u, x) for u in atoms]
    parts, comps = [], []
    all_local = True
    for t, u in enumerate(atoms):
        space_t = spaces[t]
        h_t = space_t.dim
        if h_t == 0:
            continue
        blocks = []
        for s, u_s in enumerate(atoms):
            if s == t:
                end_u = hom_space(u, u)
                rad_u = _end_radical_coords(u)
                if end_u.dim - rad_u.cols != 1:
                    all_local = False
                table = composition_table(space_t, end_u)
                for j in range(rad_u.cols):
                    block = Matrix.zeros(h_t, h_t)
                    for k in range(rad_u.rows):
                        if rad_u[k, j] != 0:
                            block = block + table[k].scale(rad_u[k, j])
                    blocks.append(block)
            else:
                blocks.extend(composition_table(spaces[s], hom_space(u, u_s)))
        rmat = hstack(blocks) if blocks else Matrix.zeros(h_t, 0)
        _, chosen = complement_projection(rmat)
        for idx in chosen:
            parts.append(u)
            comps.append(space_t.basis_map(idx))
    source = direct_sum(x.algebra, parts)
    return assemble_from_components(source, x, comps), all_local


def _xs(alg) -> list[Module]:
    """The test modules with their first two syzygies."""
    mods = _test_modules(alg)
    out = list(mods)
    for x in mods:
        res = projective_resolution(x)
        out.extend(res.syzygy(i) for i in (1, 2))
    return [x for x in out if not x.is_zero()]


def _parsed_ms(alg) -> list[Module]:
    n = alg.quiver.vertex_count
    exprs = [
        # one atom: on cyclic3 rad End P(1) is not reached through other atoms
        "P(1)",
        "+".join(f"P({v})" for v in range(1, n + 1)) + "+S(1)",
        "+".join(f"P({v})/rad^2" for v in range(1, n + 1)) + f"+S({n})",
        f"P(1)+S(1)+P({n})/rad^2+I(1)",
    ]
    return [parse_module_expression(alg, e) for e in exprs]


@pytest.mark.parametrize("make", ALGEBRAS)
def test_parse_built_approximations_are_the_table_construction_byte_for_byte(make):
    alg = make()
    cyclic = 0
    for m in _parsed_ms(alg):
        atoms = distinct_atoms(m)
        for x in _xs(alg):
            ref, all_local = _reference_approximation(x, m)
            assert all_local
            g = minimal_right_approximation(x, m)
            assert g.target is x
            assert len(g.source.summands) == len(ref.source.summands)
            assert all(a is b for a, b in zip(g.source.summands, ref.source.summands))
            assert g.maps == ref.maps
            cyclic += all(len(presentation(u).vertices) == 1 for u in atoms) and bool(ref.source.summands)
    # parsed atoms other than I(i) are cyclic
    assert cyclic


def _assert_approximates(g, x: Module, m: Module) -> None:
    """Every map from an atom of m into x factors through g."""
    for u in distinct_atoms(m):
        for b in hom_space(u, x).basis:
            assert factor_through(g, b) is not None


def _atom_counts(summands, atoms) -> Counter:
    return Counter(next(t for t, u in enumerate(atoms) if u is s) for s in summands)


@pytest.mark.parametrize("make", [_cyc3_trunc5, _commuting_square, _a3_zero_relation, _kronecker, _a4_rad2])
def test_contravariant_approximations_match_the_table_construction(make):
    alg = make()
    n = alg.quiver.vertex_count
    tests = [
        direct_sum(alg, [simple_module(alg, n - 1), radical_quotient(proj_module(alg, 0), 2)[0]]),
        parse_module_expression(alg, f"S(1)+I({n})"),
    ]
    cyclic = minimal = 0
    for test_module in tests:
        m = contravariant_functor(test_module).projectives_module()
        atoms = distinct_atoms(m)
        cyclic += all(len(presentation(u).vertices) == 1 for u in atoms)
        for x in _xs(alg):
            g = minimal_right_approximation(x, m)
            ref, _ = _reference_approximation(x, m)
            assert _atom_counts(g.source.summands, atoms) == _atom_counts(ref.source.summands, atoms)
            _assert_approximates(g, x, m)
            assert is_right_minimal(g)
            minimal += 1
    assert minimal
    if alg.name == "cyc3-trunc5":
        # every transpose over the Nakayama algebra has exactly one generator
        assert cyclic == len(tests)


def test_non_local_branch_agrees_with_the_split_route():
    """A plain copy of P(1)+S(1) on cyclic3 has no layout, so it is one atom
    whose endomorphism ring is not local: add(m) is read through its two
    local parts."""
    alg = _cyc3_trunc5()
    layered = parse_module_expression(alg, "P(1)+S(1)")
    m = Module(alg, layered.dims, layered.arrow_maps)
    assert sorted(u.dims for u in distinct_atoms(m)) == [(1, 0, 0), (2, 2, 1)]
    xs = [parse_module_expression(alg, e) for e in ("P(1)", "S(1)", "P(2)", "S(2)", "P(1)/rad^2", "P(1)+P(1)+S(1)")]
    xs += [layered, m]
    answers = []
    for x in xs:
        answers.append(in_add(x, m))
        assert answers[-1] == in_add_via_split(x, m), x
        g = minimal_right_approximation(x, m)
        _assert_approximates(g, x, m)
        assert is_right_minimal(g)
    assert answers == [True, True, False, False, False, True, True, True]
