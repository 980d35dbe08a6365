"""Tests for the endomorphism-algebra layer.

Covers structure-constant algebras (radical, global-dimension bounds,
basic reduction), endomorphism algebras of quiver representations, the
maximal-orthogonality checker, the four-condition equivalence harness,
the orthogonality-implication checker, exchange-sequence search, and the
three-way global-dimension comparison.  All expected values were computed
with independent machinery (absolute/relative resolutions, enumeration)
before being frozen here.
"""

import pytest

import sc_reference as ref
from conftest import M1_EXPR, M2_EXPR, zero_module
from relrep import cli, endo
from relrep.exact_linalg import QQ, Matrix, hstack
from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver, linear_quiver
from relrep.rep import (
    Module,
    cogenerator_module,
    direct_sum,
    enumerate_indecomposables_nakayama,
    hom_space,
    parse_module_expression,
    regular_module,
)
from relrep.homology import dtr, trd
from relrep.relhom import F_coresolution, contravariant_functor, pd_F_le
from relrep.endo import (
    TheoremReport,
    _reduce_to_basic,
    _relative_tilting_check,
    check_iyama_orthogonality,
    check_maximal_orthogonal,
    check_prop_gldim,
    cotilting_style_condition,
    dual_cotilting_style_condition,
    end_algebra,
    end_ring,
    gldim_le,
    hom_sc_bimodule_sides,
    is_generator_cogenerator,
    sc_ext_dims,
    sc_injective_dim_le,
    sc_pd_le,
    search_exchange_sequence,
    verify_theorem,
)


MUTATED_EXPR = "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2+P(1)/rad^4"


def _upper_triangular_2x2() -> ref.DenseAlgebra:
    """2x2 upper-triangular rational matrices on basis (E11, E22, E12),
    built by hand: the reference routes take it."""
    n = 3
    mult = [[[QQ(0)] * n for _ in range(n)] for _ in range(n)]

    def put(i, j, k):
        mult[i][j][k] = QQ(1)

    put(0, 0, 0)  # E11 * E11 = E11
    put(1, 1, 1)  # E22 * E22 = E22
    put(0, 2, 2)  # E11 * E12 = E12
    put(2, 1, 2)  # E12 * E22 = E12
    unit = [QQ(1), QQ(1), QQ(0)]
    e11 = [QQ(1), QQ(0), QQ(0)]
    e22 = [QQ(0), QQ(1), QQ(0)]
    return ref.DenseAlgebra(mult, unit, idempotents=[e11, e22], name="ut2")


def _linear_end(n: int):
    """End(Λ) for linear A_n (arrows i -> i+1): ut_n as an End(M), the form
    the library takes."""
    return end_ring(regular_module(AlgebraPresentation(linear_quiver(n), [], n, name=f"A{n}")))


class TestStructureConstantCore:
    def test_radical_guard_rejects_a_non_nilpotent_trace_form_kernel(self):
        # e, f with f·f = f, f·e = -e and e·x = 0: left multiplication by f
        # has trace -1 + 1 = 0, so the trace form vanishes and its kernel is
        # the whole space, which holds the idempotent f
        mult = [[[0, 0], [0, 0]], [[-1, 0], [0, 1]]]
        g = ref.DenseAlgebra(mult, [0, 1], name="inconsistent")
        with pytest.raises(AlgebraError, match="not nilpotent"):
            ref.radical(g)

    def test_upper_triangular_algebra_basics(self):
        g = _upper_triangular_2x2()
        assert g.dim == 3
        assert ref.check_unit(g)
        assert ref.check_associativity(g)
        rad = ref.radical(g)
        assert rad.cols == 1
        # the radical is spanned by the strictly upper-triangular basis vector
        col = [rad[i, 0] for i in range(3)]
        assert col[0] == 0 and col[1] == 0 and col[2] != 0
        assert len(g.piece_members) == 2
        # hereditary: global dimension exactly one, on the reference route
        # and for End(Λ) of linear A2 (ut2 again) on the library's
        assert [ref.gldim_le(g, n) for n in range(3)] == [False, True, True]
        assert [gldim_le(_linear_end(2), n) for n in range(3)] == [False, True, True]

    def test_opposite_algebra(self):
        g = _upper_triangular_2x2()
        op = ref.opposite(g)
        assert op.dim == g.dim
        assert ref.check_associativity(op)
        assert ref.radical(op).cols == 1
        # the opposite of a triangular algebra is again hereditary
        assert not ref.gldim_le(op, 0)
        assert ref.gldim_le(op, 1)

    def test_regular_and_quotient_modules(self):
        g = _upper_triangular_2x2()
        reg = ref.regular_sc_module(g)
        assert reg.dim == 3
        assert ref.check_module(reg)
        ssq = ref.semisimple_quotient_module(g)
        assert ssq.dim == 2
        assert ref.check_module(ssq)
        dual = ref.dual_sc_module(reg)
        assert dual.algebra.mult == ref.opposite(g).mult
        assert ref.check_module(dual)

    def test_projective_and_injective_dimension_bounds(self):
        g = _linear_end(2)
        ssq = ref.semisimple_quotient_module(g)
        assert not sc_pd_le(g, ssq, 0)
        assert sc_pd_le(g, ssq, 1)
        assert sc_injective_dim_le(g, ssq, 1)
        # one arrow in the quiver: one extension class, nothing higher
        assert sc_ext_dims(g, ssq, ssq, 3) == [1, 0, 0]

    def test_radical_is_nilpotent_two_sided_ideal(self, m1):
        g, _ = end_algebra(m1)
        rad = ref.radical(g)
        assert (g.dim, rad.cols) == (24, 19)
        span = rad
        basis = [[QQ(1) if i == j else QQ(0) for i in range(g.dim)] for j in range(g.dim)]
        for b in basis:
            for c in range(rad.cols):
                r = [rad[i, c] for i in range(g.dim)]
                left = Matrix.column(ref.multiply(g, b, r))
                right = Matrix.column(ref.multiply(g, r, b))
                assert span.in_column_span(left)
                assert span.in_column_span(right)
        # nilpotency, checked directly by multiplying layers out
        layer = [[rad[i, c] for i in range(g.dim)] for c in range(rad.cols)]
        radical_elements = list(layer)
        for _ in range(g.dim):
            products = [ref.multiply(g, r, x) for r in radical_elements for x in layer]
            nonzero = [p for p in products if any(v != 0 for v in p)]
            if not nonzero:
                break
            layer = Matrix.from_columns(nonzero).column_space_basis()
            layer = [[layer[i, c] for i in range(g.dim)] for c in range(layer.cols)]
        else:
            pytest.fail("radical is not nilpotent")

    def test_trace_form_kernel_is_exactly_the_radical(self, cyc3_5, m1):
        end_m1, _ = end_algebra(m1)
        end_mutated, _ = end_algebra(parse_module_expression(cyc3_5, MUTATED_EXPR))
        both = direct_sum(cyc3_5, [regular_module(cyc3_5), cogenerator_module(cyc3_5)])
        end_both, _ = end_algebra(both)
        basic, _ = _reduce_to_basic(end_both)
        assert basic is not end_both and basic.dim < end_both.dim
        for g in (end_m1, end_mutated, ref.opposite(end_m1), basic):
            rad = ref.radical(g)
            rows = []
            for i in range(g.dim):
                ei = [QQ(1) if k == i else QQ(0) for k in range(g.dim)]
                row = []
                for j in range(g.dim):
                    ej = [QQ(1) if k == j else QQ(0) for k in range(g.dim)]
                    left = ref.left_mult_matrix(g, ref.multiply(g, ei, ej))
                    row.append(sum(left[k, k] for k in range(g.dim)))
                rows.append(row)
            form = Matrix.from_rows(rows)
            # the radical lies in the kernel of the trace form, and the
            # quotient by it carries a nondegenerate one
            assert (form @ rad).is_zero()
            assert form.rank() == g.dim - rad.cols

    def test_sparse_structure_constants_of_an_endomorphism_algebra(self, m1):
        g, _ = end_algebra(m1)
        assert ref.check_unit(g)
        assert ref.check_associativity(g)
        for plane in ref.tensor(g):
            for pairs in plane:
                positions = [m for m, _ in pairs]
                assert positions == sorted(set(positions))
                assert all(c != 0 for _, c in pairs)

    def test_dense_and_sparse_constructors_agree(self):
        g = _upper_triangular_2x2()
        # E12 * E22 = E12 is the only product landing on E12 from the right
        assert g.mult[2][1] == ((2, QQ(1)),)
        assert g.mult[1][2] == ()
        h = ref.from_sparse(
            g.dim, g.mult, g.unit, idempotents=g.idempotents, name="ut2 again"
        )
        assert h.piece_members == g.piece_members
        assert ref.radical(h) == ref.radical(g)
        x = [QQ(1), QQ(2), QQ(3)]
        y = [QQ(-1), QQ(1, 2), QQ(5)]
        assert ref.multiply(h, x, y) == ref.multiply(g, x, y)


class TestEndomorphismAlgebras:
    def test_simple_module_has_scalar_endomorphisms(self, cyc3_5):
        g, basis = end_algebra(parse_module_expression(cyc3_5, "S(1)"))
        assert g.dim == 1
        assert len(basis) == 1
        assert ref.radical(g).cols == 0
        assert gldim_le(g, 0)

    def test_the_zero_module_has_the_zero_algebra(self, cyc3_5):
        # no atom, so no piece: no simple module to resolve, and every bound
        # holds
        g, basis = end_algebra(zero_module(cyc3_5))
        assert (g.dim, basis) == (0, [])
        assert (g.unit, g.idempotents, g.piece_members, g.piece_classes) == ((), (), (), ())
        assert [gldim_le(g, n) for n in range(3)] == [True] * 3

    def test_regular_module_endo_algebra(self, cyc3_5):
        g, _ = end_algebra(regular_module(cyc3_5))
        assert g.dim == 15
        assert ref.radical(g).cols == 12
        assert ref.semisimple_quotient_module(g).dim == 3
        assert g.piece_classes == (0, 1, 2)
        # selfinjective and not semisimple: no finite bound holds
        assert [gldim_le(g, n) for n in range(4)] == [False] * 4

    def test_uniserial_endo_algebra_is_local(self, cyc3_5):
        g, _ = end_algebra(parse_module_expression(cyc3_5, "P(1)"))
        assert g.dim == 2
        assert ref.radical(g).cols == 1
        assert [gldim_le(g, n) for n in range(5)] == [False] * 5

    def test_main_module_endo_algebra(self, m1):
        g, basis = end_algebra(m1)
        assert g.dim == 24
        assert len(basis) == 24
        assert g.piece_classes == (0, 1, 2, 3, 4)
        assert ref.check_unit(g)
        assert ref.check_module(ref.regular_sc_module(g))

    def test_main_module_global_dimension_is_four(self, m1):
        g, _ = end_algebra(m1)
        assert not gldim_le(g, 3)
        assert gldim_le(g, 4)
        assert gldim_le(g, 5)

    def test_basic_reduction_collapses_repeated_summands(self, cyc3_5):
        both = direct_sum(
            cyc3_5, [regular_module(cyc3_5), cogenerator_module(cyc3_5)]
        )
        g, _ = end_algebra(both)
        assert g.dim == 60
        # injectives repeat the projectives up to isomorphism
        assert g.piece_classes == (0, 1, 2, 2, 0, 1)
        assert [gldim_le(g, n) for n in (3, 4, 5, 6)] == [False] * 4
        basic, _ = g._cache["basic"]
        assert basic.dim == 15


class TestNoBasisOnLibraryPaths:
    """The checkers and ``gldim-endo`` read End(M) through ``end_ring``: with
    the basis builder ``end_algebra`` made to raise they give the same
    reports and the same CLI output."""

    CASES = [
        (3, 5, M1_EXPR, M2_EXPR),
        (2, 4, "P(1)+P(2)+S(1)+P(1)/rad^3", "P(1)+P(2)+S(2)+P(2)/rad^3"),
        (2, 4, "P(1)+P(2)+S(2)+P(2)/rad^3", "P(1)+P(2)+S(1)+P(1)/rad^3"),
    ]
    CLI_RUNS = [
        ["gldim-endo", "builtin:cyclic3", M1_EXPR, "--bound", "3"],
        ["gldim-endo", "builtin:cyclic3", M1_EXPR, "--bound", "4"],
        ["gldim-endo", "builtin:cyclic3", "S(1)", "--bound", "0"],
    ]

    def _outputs(self, capsys) -> list:
        # fresh algebras and modules, so that nothing is read off the
        # caches of the other run
        out = []
        for vertices, bound, e1, e2 in self.CASES:
            alg = AlgebraPresentation.truncated(cyclic_quiver(vertices), bound)
            m1, m2 = (parse_module_expression(alg, e) for e in (e1, e2))
            for m in (m1, m2):
                for mode in ("corollary", "enumeration"):
                    report = check_maximal_orthogonal(m, 2, mode=mode)
                    # the clauses are built on first read: read them here,
                    # inside the run that is being compared
                    assert report.clauses
                    out.append(report)
            out.append(verify_theorem(m1, m2, 2))
        for argv in self.CLI_RUNS:
            code = cli.main(argv)
            out.append((code, capsys.readouterr()))
        return out

    def test_same_output_without_the_basis(self, capsys, monkeypatch):
        def boom(m):
            raise AssertionError("End(M) basis built on a library path")

        for module in (endo, cli):
            if hasattr(module, "end_algebra"):
                monkeypatch.setattr(module, "end_algebra", boom)
        spied = self._outputs(capsys)
        monkeypatch.undo()
        assert spied == self._outputs(capsys)
        assert [report.all_true for report in spied if isinstance(report, TheoremReport)] == [True] * 3
        assert [code for code, _ in spied[-3:]] == [1, 0, 0]


def _whole_module_actions(m2, m1):
    """Both actions on Hom(m2, m1) by composing whole-module morphisms."""
    space = hom_space(m2, m1)
    _, basis1 = end_algebra(m1)
    _, basis2 = end_algebra(m2)

    def matrices(basis, compose):
        if not space.dim:
            return [Matrix.zeros(0, 0)] * len(basis)
        return [
            Matrix.from_columns([space.coords(compose(b, t)) for t in space.basis])
            for b in basis
        ]

    return (
        matrices(basis1, lambda b, t: b @ t),
        matrices(basis2, lambda b, t: t @ b),
    )


class TestHomBimodule:
    def _assert_matches_whole_module_route(self, m2, m1):
        side1, side2 = hom_sc_bimodule_sides(m2, m1)
        post, pre = _whole_module_actions(m2, m1)
        assert side1.dim == side2.dim == hom_space(m2, m1).dim
        assert list(side1.action) == post
        # the End(m2) side is the dual: pre-composition transposed
        assert list(side2.action) == [a.transpose() for a in pre]
        return side1, side2

    def test_main_pair(self, m1, m2):
        self._assert_matches_whole_module_route(m2, m1)

    def test_mutated_pair(self, cyc3_5, m1):
        mutated = parse_module_expression(cyc3_5, MUTATED_EXPR)
        self._assert_matches_whole_module_route(mutated, m1)

    def test_nested_sums_with_zero_summands(self, cyc3_5):
        def expr(text):
            return parse_module_expression(cyc3_5, text)

        zero = zero_module(cyc3_5)
        # source atoms outer, target atoms inner, zero atoms contribute nothing
        m2 = direct_sum(
            cyc3_5,
            [expr("P(3)/rad^2"), direct_sum(cyc3_5, [expr("S(1)"), zero, expr("P(2)")])],
        )
        m1 = direct_sum(
            cyc3_5, [direct_sum(cyc3_5, [zero, expr("P(1)/rad^2")]), expr("S(3)"), zero]
        )
        side1, side2 = self._assert_matches_whole_module_route(m2, m1)
        assert side1.dim > 0
        assert side1.algebra is end_algebra(m1)[0]
        assert side2.algebra is end_algebra(m2)[0]
        assert ref.check_module(side1)
        assert ref.check_module(side2)


class TestMaximalOrthogonality:
    def test_positive_examples_in_both_modes(self, m1, m2):
        for mod in (m1, m2):
            for mode in ("corollary", "enumeration"):
                rep = check_maximal_orthogonal(mod, 2, mode=mode)
                assert rep.verdict, (mode, [c for c in rep.clauses if not c.passed])
                assert rep.mode == mode
                assert rep.bound == 2

    def test_negative_example_fails_only_endo_gldim_clause(self, cyc3_5):
        bad = parse_module_expression(
            cyc3_5, "P(1)+P(2)+P(3)+I(1)+I(2)+I(3)+P(1)/rad^2"
        )
        rep = check_maximal_orthogonal(bad, 2, mode="corollary")
        assert not rep.verdict
        status = {c.name: c.passed for c in rep.clauses}
        assert status == {
            "generator": True,
            "cogenerator": True,
            "selforthogonality": True,
            "endomorphism-gldim": False,
        }

    def test_negative_example_enumeration_witnesses(self, cyc3_5):
        bad = parse_module_expression(
            cyc3_5, "P(1)+P(2)+P(3)+I(1)+I(2)+I(3)+P(1)/rad^2"
        )
        rep = check_maximal_orthogonal(bad, 2, mode="enumeration")
        assert not rep.verdict
        names = [c.name for c in rep.clauses if not c.passed]
        assert names == ["right-perp-equals-add", "left-perp-equals-add"]
        # orthogonal modules outside the additive closure, by dimension vector
        for clause in rep.clauses:
            assert "(1, 0, 0)" in clause.detail
            assert "(0, 1, 0)" in clause.detail
            assert "(1, 1, 2)" in clause.detail

    def test_simple_module_fails_generation_clauses(self, cyc3_5):
        rep = check_maximal_orthogonal(
            parse_module_expression(cyc3_5, "S(1)"), 1
        )
        assert not rep.verdict
        failing = [c.name for c in rep.clauses if not c.passed]
        assert failing == ["generator", "cogenerator"]

    def test_an_empty_witness_list_is_refused(self):
        alg = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyclic3")
        simple = parse_module_expression(alg, "S(1)")
        assert not check_maximal_orthogonal(simple, 1, mode="enumeration").verdict
        with pytest.raises(AlgebraError, match="witness list must be nonempty"):
            check_maximal_orthogonal(simple, 1, mode="enumeration", witnesses=[])

    def test_modes_agree_on_small_algebra(self):
        alg = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
        ind = enumerate_indecomposables_nakayama(alg)
        lam = regular_module(alg)
        for extra in ind:
            cand = direct_sum(alg, [lam, extra])
            a = check_maximal_orthogonal(cand, 1, mode="corollary").verdict
            b = check_maximal_orthogonal(cand, 1, mode="enumeration").verdict
            assert a == b


class TestTheoremHarness:
    def test_main_pair_satisfies_all_four_conditions(self, m1, m2):
        rep = verify_theorem(m1, m2, 2)
        assert rep.hypotheses_ok
        assert rep.flags == (True, True, True, True)
        assert rep.conditions_agree
        assert rep.all_true
        assert rep.details["a"] == []
        assert rep.details["d"]["over-End(m1)"]["ext_dims"] == [0, 0, 0, 0]
        assert rep.details["d"]["over-End(m2)-op"]["ext_dims"] == [0, 0, 0, 0]

    def test_self_pair_satisfies_all_four_conditions(self, m1):
        rep = verify_theorem(m1, m1, 2)
        assert rep.hypotheses_ok
        assert rep.all_true

    def test_low_bound_fails_hypotheses_not_conditions(self, m1):
        # the endomorphism algebra has global dimension four, above 1 + 2
        rep = verify_theorem(m1, m1, 1)
        assert not rep.hypotheses_ok
        failing = {c.name for c in rep.hypotheses if not c.passed}
        assert failing == {
            "m1 endomorphism gldim <= 3",
            "m2 endomorphism gldim <= 3",
        }
        assert rep.flags == (None, None, None, None)
        assert not rep.conditions_agree
        assert not rep.all_true

    def test_mutated_pair_fails_all_four_conditions_in_agreement(self, cyc3_5, m1):
        mutated = parse_module_expression(
            cyc3_5, "P(1)+P(2)+P(3)+S(1)+P(3)/rad^2+P(1)/rad^4"
        )
        assert is_generator_cogenerator(mutated)
        rep = verify_theorem(m1, mutated, 2)
        assert rep.hypotheses_ok
        assert rep.flags == (False, False, False, False)
        assert rep.conditions_agree
        assert not rep.all_true
        # every condition pins the same failure: a degree-one class survives
        assert rep.details["a"] == [("contravariant", 1, 1)]
        assert rep.details["b"]["selforthogonality_failures"] == [(1, 1)]
        assert rep.details["c"]["steps_cross_exact"] == [False, True]
        assert rep.details["d"]["over-End(m1)"]["ext_dims"] == [1, 0, 0, 0]

    def test_dropping_a_summand_breaks_a_hypothesis(self, cyc3_5, m1):
        smaller = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+P(1)/rad^2")
        assert is_generator_cogenerator(smaller)
        rep = verify_theorem(m1, smaller, 2)
        assert not rep.hypotheses_ok
        failing = {c.name for c in rep.hypotheses if not c.passed}
        assert failing == {"m2 endomorphism gldim <= 4"}
        assert rep.flags == (None, None, None, None)


class TestOrthogonalityImplication:
    def test_self_pair_hypothesis_and_conclusions_hold(self, m1):
        rep = check_iyama_orthogonality(m1, m1, 2, 2)
        assert rep.hypothesis_holds
        assert rep.conclusions_hold
        assert rep.hypothesis_dims == [0, 0]
        assert rep.conclusion_dims == [(1, 0, 0), (2, 0, 0)]

    def test_main_pair_fails_hypothesis_but_not_conclusions(self, m1, m2):
        rep = check_iyama_orthogonality(m1, m2, 1, 2)
        assert not rep.hypothesis_holds
        assert rep.hypothesis_dims == [1]
        assert rep.conclusions_hold
        assert rep.conclusion_dims == [(1, 0, 0), (2, 0, 0)]

    def test_degree_window_is_validated(self, m1):
        for k, l in ((0, 1), (2, 1), (1, 4)):
            with pytest.raises(AlgebraError, match="1 <= k <= l <= 2k\\+1"):
                check_iyama_orthogonality(m1, m1, k, l)

    def test_inputs_must_be_maximal_orthogonal(self, cyc3_5, m1):
        s1 = parse_module_expression(cyc3_5, "S(1)")
        with pytest.raises(AlgebraError, match="not maximal 1-orthogonal"):
            check_iyama_orthogonality(s1, m1, 1, 1)


class TestExchangeSequences:
    def test_recovers_connecting_sequence(self, cyc3_5):
        n = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+S(1)")
        x1 = parse_module_expression(cyc3_5, "P(3)/rad^2")
        x2 = parse_module_expression(cyc3_5, "P(1)/rad^2")
        res = search_exchange_sequence(n, x1, x2, max_len=1)
        assert res.found and not res.trivial
        assert res.length == 2
        assert [t.dims for t in res.terms] == [
            (1, 1, 0),
            (3, 2, 1),
            (3, 1, 2),
            (1, 0, 1),
        ]
        assert len(res.maps) == len(res.terms) - 1
        assert res.conditions == {
            "exactness": True,
            "left approximations": True,
            "left minimality": True,
            "right approximations": True,
            "right minimality": True,
            "exact for Hom(-, m1)": True,
            "exact for Hom(m2, -)": True,
        }

    def test_trivial_when_endpoints_are_isomorphic(self, cyc3_5):
        n = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+S(1)")
        x = parse_module_expression(cyc3_5, "P(3)/rad^2")
        res = search_exchange_sequence(n, x, x, max_len=1)
        assert res.found and res.trivial
        assert res.length == 0

    def test_not_found_when_base_lacks_summands(self, cyc3_5):
        nproj = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)")
        x1 = parse_module_expression(cyc3_5, "P(3)/rad^2")
        x2 = parse_module_expression(cyc3_5, "P(1)/rad^2")
        res = search_exchange_sequence(nproj, x1, x2, max_len=1)
        assert not res.found
        assert res.reason == "not found within bound"

    def test_preconditions_are_enforced(self, cyc3_5):
        n = parse_module_expression(cyc3_5, "P(1)+P(2)+P(3)+S(1)")
        s1 = parse_module_expression(cyc3_5, "S(1)")
        x1 = parse_module_expression(cyc3_5, "P(3)/rad^2")
        x2 = parse_module_expression(cyc3_5, "P(1)/rad^2")
        with pytest.raises(AlgebraError, match="generator-cogenerator"):
            search_exchange_sequence(s1, x1, x2, 1)
        p1 = parse_module_expression(cyc3_5, "P(1)")
        with pytest.raises(AlgebraError, match="outside add"):
            search_exchange_sequence(n, p1, x2, 1)
        # a sum, doubled or not, and a plain copy of one, are no endpoints
        pair = direct_sum(cyc3_5, [x2, parse_module_expression(cyc3_5, "S(2)")])
        for bad in (pair, direct_sum(cyc3_5, [x2, x2]), Module(cyc3_5, pair.dims, pair.arrow_maps)):
            with pytest.raises(AlgebraError, match="x2 must be indecomposable"):
                search_exchange_sequence(n, x1, bad, 3)
            with pytest.raises(AlgebraError, match="x1 must be indecomposable"):
                search_exchange_sequence(n, bad, x2, 3)


def tilting_style_condition(m1, m2, l):
    """Tilting-style condition set for ``m2`` relative to Hom(-, m1), which
    exercises the tilting/cotilting parity on worked inputs: relative
    selforthogonality, the relative projective dimension bound, and the
    coresolution witness for the relative projectives: the Hom(-, m2)-
    relative injective coresolution of the relative-projectives generator has
    its ``l``-th cosyzygy in add(m2) and steps exact for Hom(-, m1)."""
    f_con1 = contravariant_functor(m1)
    return _relative_tilting_check(
        l, m2, f_con1, pd_F_le, "projective_dimension_ok",
        [F_coresolution(f_con1.projectives_module(), contravariant_functor(m2))],
        m2, "cosyzygy_in_add", f_con1,
    )


class TestGlobalDimensionComparison:
    def test_three_bounds_agree_on_main_module(self, m1):
        low = check_prop_gldim(m1, 1)
        assert low.generator_cogenerator
        assert low.values == (False, False, False)
        assert low.agree
        high = check_prop_gldim(m1, 2)
        assert high.values == (True, True, True)
        assert high.agree

    def test_tilting_and_cotilting_styles_agree_on_main_pair(self, m1, m2):
        cot_ok, cot = cotilting_style_condition(m1, m2, 2)
        til_ok, til = tilting_style_condition(m1, m2, 2)
        assert cot_ok and til_ok
        assert cot == {
            "selforthogonality_failures": [],
            "injective_dimension_ok": True,
            "syzygy_in_add": True,
            "steps_cross_exact": [True, True],
        }
        assert til == {
            "selforthogonality_failures": [],
            "projective_dimension_ok": True,
            "cosyzygy_in_add": True,
            "steps_cross_exact": [True, True],
        }

    def test_condition_c_detail_on_main_pair(self, m1, m2):
        ok, detail = dual_cotilting_style_condition(m1, m2, 2)
        assert ok
        assert list(detail) == [
            "selforthogonality_failures",
            "projective_dimension_ok",
            "cosyzygy_in_add",
            "steps_cross_exact",
        ]
        assert detail == {
            "selforthogonality_failures": [],
            "projective_dimension_ok": True,
            "cosyzygy_in_add": True,
            "steps_cross_exact": [True, True],
        }

    @pytest.mark.parametrize("expr", ["P(3)/rad^2", "S(1)"])
    def test_translate_twists_preserve_endo_bounds(self, cyc3_5, expr):
        lam = regular_module(cyc3_5)
        x = parse_module_expression(cyc3_5, expr)
        variants = [x, dtr(x), trd(x)]
        mods = [direct_sum(cyc3_5, [lam, v]) for v in variants]
        for l in (1, 2, 3):
            flags = {gldim_le(end_algebra(m)[0], l + 2) for m in mods}
            assert flags == {False}


class TestSmallAlgebraEnumeration:
    def test_two_vertex_length_two_maximal_orthogonal_modules(self):
        alg = AlgebraPresentation.truncated(cyclic_quiver(2), 2, name="cyc2-trunc2")
        ind = enumerate_indecomposables_nakayama(alg)
        lam = regular_module(alg)
        nonproj = [x for x in ind if x.total_dim < 2]
        assert sorted(x.dims for x in nonproj) == [(0, 1), (1, 0)]
        winners = []
        for extra in ([], [nonproj[0]], [nonproj[1]], nonproj):
            cand = direct_sum(alg, [lam] + extra)
            rep = check_maximal_orthogonal(cand, 1, mode="enumeration", witnesses=ind)
            assert rep.verdict == check_maximal_orthogonal(cand, 1).verdict
            if rep.verdict:
                winners.append((tuple(sorted(x.dims for x in extra)), cand))
        assert [w[0] for w in winners] == [((1, 0),), ((0, 1),)]
        for _, ma in winners:
            for _, mb in winners:
                rep = check_iyama_orthogonality(ma, mb, 1, 1)
                assert rep.conclusions_hold or not rep.hypothesis_holds

    def test_two_vertex_length_three_has_no_maximal_orthogonal_module(self):
        alg = AlgebraPresentation.truncated(cyclic_quiver(2), 3, name="cyc2-trunc3")
        ind = enumerate_indecomposables_nakayama(alg)
        lam = regular_module(alg)
        nonproj = [x for x in ind if x.total_dim < 3]
        assert len(nonproj) == 4
        import itertools

        for r in range(5):
            for combo in itertools.combinations(nonproj, r):
                cand = direct_sum(alg, [lam] + list(combo))
                rep = check_maximal_orthogonal(cand, 1, mode="enumeration", witnesses=ind)
                assert not rep.verdict
