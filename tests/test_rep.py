import time

import pytest

from relrep.endo import end_ring
from relrep.exact_linalg import Matrix, hstack, subspace_contains
from relrep.path_algebra import AlgebraError, AlgebraPresentation, Arrow, Quiver, cyclic_quiver
from relrep.rep import (
    ExpressionError,
    Module,
    Morphism,
    ShortExactSequence,
    cokernel,
    direct_sum,
    dualize,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_dim,
    hom_space,
    image,
    inj_module,
    is_isomorphic,
    kernel,
    local_parts,
    loewy_length,
    parse_module_expression,
    presentation,
    proj_module,
    radical_quotient,
    radical_spans,
    regular_module,
    simple_module,
)
from conftest import zero_module
from hom_reference import _hom_raw, socle_subspaces, summand_injection, summand_projection


# -- references ----------------------------------------------------------------


def radical_subspaces(module, power: int = 1) -> list[Matrix]:
    """Per-vertex bases of rad^power(M) = span of images of length-power paths."""
    return [s.column_space_basis() for s in radical_spans(module, power)]


def top(module):
    return radical_quotient(module, 1)


# -- projectives, injectives, simples ---------------------------------------


def test_projective_dimension_vectors(cyc3_5):
    # count paths from each start vertex, grouped by end vertex
    assert proj_module(cyc3_5, 0).dims == (2, 2, 1)
    assert proj_module(cyc3_5, 1).dims == (1, 2, 2)
    assert proj_module(cyc3_5, 2).dims == (2, 1, 2)


def test_injective_dimension_vectors(cyc3_5):
    # count paths into each end vertex, grouped by start vertex
    assert inj_module(cyc3_5, 0).dims == (2, 1, 2)
    assert inj_module(cyc3_5, 1).dims == (2, 2, 1)
    assert inj_module(cyc3_5, 2).dims == (1, 2, 2)


def test_simples(cyc3_5):
    assert simple_module(cyc3_5, 0).dims == (1, 0, 0)
    assert simple_module(cyc3_5, 1).dims == (0, 1, 0)
    for m in simple_module(cyc3_5, 2).arrow_maps:
        assert m.is_zero()


def test_projectives_satisfy_relations(cyc3_5):
    # re-validate through the public constructor
    p = proj_module(cyc3_5, 0)
    from relrep.rep import Module

    Module(cyc3_5, p.dims, p.arrow_maps, validate=True)


def test_regular_module(cyc3_5):
    lam = regular_module(cyc3_5)
    assert lam.dims == (5, 5, 5)
    assert lam.total_dim == 15
    assert len(lam.summands) == 3


# -- hom spaces ---------------------------------------------------------------


def test_end_projective_dims(cyc3_5):
    # morphisms P_i -> P_j correspond to paths j -> i
    assert hom_dim(proj_module(cyc3_5, 0), proj_module(cyc3_5, 0)) == 2
    assert hom_dim(proj_module(cyc3_5, 0), proj_module(cyc3_5, 2)) == 2
    assert hom_dim(proj_module(cyc3_5, 2), proj_module(cyc3_5, 0)) == 1


def test_hom_from_simple(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    s1 = simple_module(cyc3_5, 0)
    s2 = simple_module(cyc3_5, 1)
    assert hom_dim(s1, p1) == 0  # socle of P1 sits at vertex 2
    assert hom_dim(s2, p1) == 1
    assert hom_dim(p1, s1) == 1  # top of P1
    assert hom_dim(s1, s1) == 1 and hom_dim(s1, s2) == 0


def test_hom_fast_paths_agree_with_raw(cyc3_5, m1, m2):
    p1 = proj_module(cyc3_5, 0)
    cases = [
        (m1, proj_module(cyc3_5, 1)),
        (p1, m2),
        (radical_quotient(p1, 2)[0], m1),
        (m2, inj_module(cyc3_5, 0)),
        (m1, m2),
    ]
    for x, y in cases:
        space = hom_space(x, y)
        raw_dim = len(_hom_raw(x, y).basis)
        assert space.dim == raw_dim
        # every structured basis element is a genuine morphism,
        # and coordinates round-trip through the basis
        for idx, b in enumerate(space.basis):
            Morphism(x, y, b.maps, validate=True)
            cs = space.coords(b)
            expected = [1 if i == idx else 0 for i in range(space.dim)]
            assert cs == expected


def test_hom_composition_closure(cyc3_5, m1):
    # composing hom bases stays inside the hom space (coords must succeed)
    p2 = proj_module(cyc3_5, 1)
    ab = hom_space(p2, m1)
    bc = hom_space(m1, p2)
    for f in ab.basis:
        for g in bc.basis:
            comp = g @ f
            hom_space(p2, p2).coords(comp)


# -- kernels, cokernels, quotients -------------------------------------------


def test_radical_quotients(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    p3 = proj_module(cyc3_5, 2)
    assert radical_quotient(p1, 2)[0].dims == (1, 1, 0)
    assert radical_quotient(p3, 2)[0].dims == (1, 0, 1)
    assert top(p1)[0].dims == (1, 0, 0)
    # quotient by rad^LL is the module itself
    assert radical_quotient(p1, 5)[0].dims == p1.dims


def test_socle_and_deep_radical(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    soc = socle_subspaces(p1)
    assert tuple(s.cols for s in soc) == (0, 1, 0)
    rad4 = radical_subspaces(p1, 4)
    assert tuple(s.cols for s in rad4) == (0, 1, 0)
    # so P1/soc P1 = P1/rad^4 P1, dims (2,1,1)
    assert radical_quotient(p1, 4)[0].dims == (2, 1, 1)


def test_kernel_cokernel_image(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    s1, proj = top(p1)
    k, incl = kernel(proj)
    assert k.dims == (1, 2, 1)  # rad P1
    assert (proj @ incl).is_zero()
    c, cproj = cokernel(incl)
    assert c.dims == s1.dims
    im, iincl = image(proj)
    assert im.dims == s1.dims
    assert iincl.is_mono()


def test_short_exact_sequence_validation(cyc3_5):
    p1 = proj_module(cyc3_5, 0)
    s1, proj = top(p1)
    k, incl = kernel(proj)
    ses = ShortExactSequence(incl, proj)
    assert ses.sub.dims == (1, 2, 1)
    assert ses.middle is p1 and ses.quotient is s1
    with pytest.raises(AlgebraError):
        ShortExactSequence(proj @ incl if False else incl, Morphism.zero(p1, s1))


def test_short_exact_sequence_names_each_failed_condition(cyc3_5):
    # 0 -> rad P -> P -> top P -> 0, and rad^2 P, which g kills but which is
    # smaller than its kernel
    p1 = proj_module(cyc3_5, 0)
    s1, proj = radical_quotient(p1, 1)
    _, incl = kernel(proj)
    _, deep = kernel(radical_quotient(p1, 2)[1])
    cases = [
        (Morphism.zero(incl.source, p1), proj, "first map is not injective"),
        (incl, Morphism.zero(p1, s1), "second map is not surjective"),
        (Morphism.identity(p1), proj, "composite g o f is nonzero"),
        (deep, proj, "sequence is not exact in the middle"),
    ]
    for f, g, message in cases:
        with pytest.raises(AlgebraError, match=message):
            ShortExactSequence(f, g)


def test_loewy_length(cyc3_5):
    assert loewy_length(proj_module(cyc3_5, 0)) == 5
    assert loewy_length(simple_module(cyc3_5, 1)) == 1
    assert loewy_length(zero_module(cyc3_5)) == 0


# -- direct sums ---------------------------------------------------------------


def test_direct_sum_layout(cyc3_5, m1):
    assert m1.dims == (7, 5, 6)
    assert m1.total_dim == 18
    assert len(m1.summands) == 5
    for s in range(5):
        inj = summand_injection(m1, s)
        prj = summand_projection(m1, s)
        comp = prj @ inj
        assert comp.is_iso()
        for w, mtx in enumerate(comp.maps):
            assert mtx == Matrix.identity(m1.summands[s].dims[w])


def test_m2_dims(m2):
    assert m2.dims == (7, 6, 5)


# -- duality ---------------------------------------------------------------------


def test_dualize_roundtrip(cyc3_5, m1):
    p1 = proj_module(cyc3_5, 0)
    d = dualize(p1)
    assert d.algebra is cyc3_5.opposite()
    assert dualize(d) is p1
    dm1 = dualize(m1)
    assert dm1.dims == m1.dims
    assert len(dm1.summands) == 5


def test_injective_is_dual_of_opposite_projective(cyc3_5):
    i0 = inj_module(cyc3_5, 0)
    assert dualize(i0) is proj_module(cyc3_5.opposite(), 0)
    # over the 3-cycle with bound 5, hom into an injective matches path counts
    assert hom_dim(proj_module(cyc3_5, 0), i0) == 2


def test_dual_reverses_hom_dims(cyc3_5, m1, m2):
    assert hom_dim(m1, m2) == hom_dim(dualize(m2), dualize(m1))


# -- isomorphism ------------------------------------------------------------------


def test_is_isomorphic_basic(cyc3_5):
    from relrep.rep import Module

    p1 = proj_module(cyc3_5, 0)
    clone = Module(cyc3_5, p1.dims, p1.arrow_maps, validate=False)
    assert is_isomorphic(p1, clone)
    assert not is_isomorphic(p1, proj_module(cyc3_5, 1))
    assert not is_isomorphic(simple_module(cyc3_5, 0), simple_module(cyc3_5, 1))
    assert is_isomorphic(zero_module(cyc3_5), zero_module(cyc3_5))


def test_selfinjective_permutation(cyc3_5):
    # over this algebra each injective is a projective again
    assert is_isomorphic(inj_module(cyc3_5, 0), proj_module(cyc3_5, 2))
    assert is_isomorphic(inj_module(cyc3_5, 1), proj_module(cyc3_5, 0))
    assert is_isomorphic(inj_module(cyc3_5, 2), proj_module(cyc3_5, 1))


def test_is_isomorphic_rejects_same_dims_nonisomorphic(cyc3_5):
    # S1 + S2 vs P1/rad^2 share the dim vector (1,1,0)
    s_sum = direct_sum(
        cyc3_5, [simple_module(cyc3_5, 0), simple_module(cyc3_5, 1)]
    )
    u = radical_quotient(proj_module(cyc3_5, 0), 2)[0]
    assert s_sum.dims == u.dims
    assert not is_isomorphic(s_sum, u)


def test_is_isomorphic_direct_sum_order_invariance(cyc3_5):
    a = direct_sum(cyc3_5, [proj_module(cyc3_5, 0), simple_module(cyc3_5, 1)])
    b = direct_sum(cyc3_5, [simple_module(cyc3_5, 1), proj_module(cyc3_5, 0)])
    assert is_isomorphic(a, b)


# -- Nakayama enumeration ----------------------------------------------------------


def test_enumerate_indecomposables(cyc3_5):
    ind = enumerate_indecomposables_nakayama(cyc3_5)
    assert len(ind) == 15
    dim_vectors = [m.dims for m in ind]
    assert (1, 0, 0) in dim_vectors and (2, 2, 1) in dim_vectors
    # pairwise non-isomorphic (the three length-3 uniserials share (1,1,1))
    for i in range(len(ind)):
        for j in range(i + 1, len(ind)):
            assert not is_isomorphic(ind[i], ind[j])


def test_enumerate_requires_nakayama():
    from relrep.path_algebra import Arrow, Quiver

    q = Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)])
    alg = AlgebraPresentation.truncated(q, 2)
    with pytest.raises(AlgebraError):
        enumerate_indecomposables_nakayama(alg)


# -- expressions --------------------------------------------------------------------


def test_parse_expressions(cyc3_5):
    assert parse_module_expression(cyc3_5, "P(1)").dims == (2, 2, 1)
    assert parse_module_expression(cyc3_5, "I(2)").dims == (2, 2, 1)
    assert parse_module_expression(cyc3_5, "S(3)").dims == (0, 0, 1)
    assert parse_module_expression(cyc3_5, "P(3)/rad^2").dims == (1, 0, 1)
    assert parse_module_expression(cyc3_5, " P(1) + S(2) ").dims == (2, 3, 1)


def test_huge_radical_powers_enumerate_no_paths(cyc3_5):
    # rad^k P(1) is zero once k reaches the nilpotency bound, on a cyclic
    # quiver too, where there are paths of every length
    start = time.perf_counter()
    x = parse_module_expression(cyc3_5, "P(1)/rad^100000")
    assert time.perf_counter() - start < 1.0
    p1 = proj_module(cyc3_5, 0)
    assert x.dims == p1.dims and x.arrow_maps == p1.arrow_maps
    bound = cyc3_5.nilpotency_bound
    assert [s.cols for s in radical_spans(p1, bound)] == [0, 0, 0]
    assert [s.rank() for s in radical_spans(p1, bound - 1)] != [0, 0, 0]


def test_parse_expression_errors(cyc3_5):
    for bad in ["", "P(4)", "Q(1)", "P(1)/soc", "P(1)/rad^0", "P(x)", "P(1)+"]:
        with pytest.raises(ExpressionError):
            parse_module_expression(cyc3_5, bad)


def test_cyclic_source_coords_reject_maps_outside_the_span(cyc3_5):
    # Hom(P(1)/rad^2, P(1)) is cut out by relations on the generator's image;
    # a vertex map sending the generator outside that span is no morphism
    p1 = proj_module(cyc3_5, 0)
    x = radical_quotient(p1, 2)[0]
    space = hom_space(x, p1)
    pres = presentation(x)
    (v0,), (gen,) = pres.vertices, pres.generators
    images = [b.maps[v0] @ gen for b in space.basis]
    span = hstack(images) if images else Matrix.zeros(p1.dims[v0], 0)
    rejected = 0
    for k in range(p1.dims[v0]):
        u = [1 if i == k else 0 for i in range(p1.dims[v0])]
        maps = [
            Matrix.from_columns([u]) if v == v0 else Matrix.zeros(p1.dims[v], x.dims[v])
            for v in range(len(x.dims))
        ]
        f = Morphism(x, p1, maps, validate=False)
        try:
            Morphism(x, p1, maps)
        except AlgebraError:
            commutes = False
        else:
            commutes = True
        if subspace_contains(span, Matrix.column(u)):
            # the morphism with that generator image is in the space
            g = space.from_coords(space.generator_coords(Matrix.column(u)).flatten())
            assert g.maps[v0] @ gen == Matrix.column(u)
            assert space.from_coords(space.coords(g)).maps == g.maps
        if commutes and subspace_contains(span, Matrix.column(u)):
            assert space.from_coords(space.coords(f)).maps == f.maps
        else:
            # outside the span, or not a morphism at all
            rejected += 1
            with pytest.raises(AlgebraError, match="not in hom space"):
                space.coords(f)
    assert rejected >= 1


def test_raw_coords_reject_maps_outside_the_hom_space(cyc3_5):
    # K = rad^2 P(1) is a plain kernel module, so its presentation is
    # computed from its cover; End(K) is one-dimensional, and the identity
    # at one vertex alone does not commute with the arrows
    p1 = proj_module(cyc3_5, 0)
    k, _ = kernel(radical_quotient(p1, 2)[1])
    assert k.dims == (1, 1, 1) and k.summands is None and presentation(k).relations is not None
    space = hom_space(k, k)
    assert space.dim == 1
    maps = [Matrix.identity(1) if v == 0 else Matrix.zeros(1, 1) for v in range(3)]
    with pytest.raises(AlgebraError, match="do not commute"):
        Morphism(k, k, maps)
    with pytest.raises(AlgebraError, match="not in hom space"):
        space.coords(Morphism._make(k, k, tuple(maps)))
    assert space.coords(Morphism.identity(k)) == _hom_raw(k, k).coords(Morphism.identity(k))
    assert space.from_coords(space.coords(Morphism.identity(k))).maps == Morphism.identity(k).maps


# -- local parts (Fitting's lemma) ---------------------------------------------


def _companion(coeffs: list) -> Matrix:
    """The companion matrix of the monic x^n + sum coeffs[i] x^i."""
    n = len(coeffs)
    return Matrix(n, n, [[int(r == c + 1) if c < n - 1 else -coeffs[r] for c in range(n)] for r in range(n)])


def _kronecker_at(coeffs: list) -> Module:
    """The Kronecker module (QQ^n, QQ^n; I, companion): End is QQ[x]/(p)."""
    alg = AlgebraPresentation(Quiver(2, [Arrow("a", 0, 1), Arrow("b", 0, 1)]), [], 2, name="kronecker")
    n = len(coeffs)
    return Module(alg, (n, n), [Matrix.identity(n), _companion(coeffs)])


class TestLocalParts:
    def test_a_decomposable_atom_splits_into_local_parts_that_sum_to_it(self):
        a3 = AlgebraPresentation(Quiver(3, [Arrow("a0", 0, 2), Arrow("a1", 1, 2)]), [], 2, name="a3sink")
        layered = parse_module_expression(a3, "P(1)+P(2)+P(3)")
        # I(3)/rad^1 = S(1) + S(2), and a plain copy of P(1) + P(2) + P(3):
        # each one atom, not a registered sum
        cases = [
            (parse_module_expression(a3, "I(3)/rad^1"), [(0, 1, 0), (1, 0, 0)]),
            (Module(a3, layered.dims, layered.arrow_maps), sorted(p.dims for p in layered.summands)),
        ]
        for atom, dims in cases:
            parts = local_parts(atom)
            assert sorted(part.dims for part, _, _ in parts) == dims
            total = Morphism.zero(atom, atom)
            for part, into, onto in parts:
                inc, proj = Morphism(part, atom, into), Morphism(atom, part, onto)
                assert (proj @ inc).maps == Morphism.identity(part).maps
                assert local_parts(part) == ()
                total = total + inc @ proj
            assert total.maps == Morphism.identity(atom).maps

    def test_a_field_of_degree_at_most_three_is_certified_local(self):
        # x^2 - 2 and x^3 - 2: End is QQ(sqrt 2), QQ(cbrt 2)
        for coeffs in ([-2, 0], [-2, 0, 0]):
            assert local_parts(_kronecker_at(coeffs)) == ()
        # x^2 - 1 = (x - 1)(x + 1): split at the rational roots
        assert [p.dims for p, _, _ in local_parts(_kronecker_at([-1, 0]))] == [(1, 1), (1, 1)]

    def test_a_quartic_field_is_refused_not_judged(self):
        # x^4 - 2 is irreducible, but its degree is past the cheap certificate
        r = _kronecker_at([-2, 0, 0, 0])
        with pytest.raises(AlgebraError, match=r"atom decomposition undecided .*\(4, 4\)"):
            local_parts(r)
        with pytest.raises(AlgebraError, match="atom decomposition undecided"):
            end_ring(direct_sum(r.algebra, [r, proj_module(r.algebra, 0)]))

    def test_a_root_search_past_its_bound_is_refused(self):
        # x^2 - 3·10^12: a constant term past the bound of the divisor search
        with pytest.raises(AlgebraError, match="atom decomposition undecided .*too large"):
            local_parts(_kronecker_at([-3 * 10**12, 0]))
