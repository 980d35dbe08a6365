"""Syzygy steps (projective covers, injective hulls, kernels and radical
quotients) against the constructions they replaced.

The references below are the earlier forms, kept here as independent
routes: the cover lifts a basis of top(x) through x -> top(x) and assembles
one morphism per projective summand; the kernel solves for each restricted
arrow map; the radical quotient divides by reduced bases of the radical.
The corpus reaches past the cyclic Nakayama examples: the commuting square,
A3 with one zero relation, the Kronecker quiver and A4/rad^2, with simples,
projectives, injectives, syzygies, transposes, translates, duals and the
middle terms of realized extensions.
"""

from collections import Counter

import pytest

from relrep.exact_linalg import QQ, Matrix, subspace_contains
from relrep.homology import (
    dtr,
    ext1_space,
    factor_through,
    injective_hull,
    injective_resolution,
    projective_cover,
    projective_resolution,
    transpose,
    trd,
)
from relrep.path_algebra import AlgebraError, AlgebraPresentation, cyclic_quiver, linear_quiver
from relrep.rep import (
    Presentation,
    Module,
    Morphism,
    assemble_from_components,
    direct_sum,
    dualize,
    dualize_morphism,
    flatten_atoms,
    hom_space,
    inj_module,
    kernel,
    morphism_from_generator,
    parse_module_expression,
    presentation,
    proj_module,
    quotient_by_subspaces,
    radical_quotient,
    simple_module,
)
from hom_reference import socle_subspaces
from test_exact_linalg import subspace_sum
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _kronecker, factor_through_mono
from test_rep import radical_subspaces, top

# -- the replaced constructions ---------------------------------------------------


def _reference_cover(x: Module) -> Morphism:
    """Lift a basis of top(x) through the top projection, one morphism out of
    each projective summand, assembled."""
    algebra = x.algebra
    t, proj_t = top(x)
    parts, gens = [], []
    for v in range(len(x.dims)):
        m_v = t.dims[v]
        if m_v == 0:
            continue
        lifts = proj_t.maps[v].solve_right(Matrix.identity(m_v))
        pv = proj_module(algebra, v)
        for c in range(m_v):
            parts.append(pv)
            gens.append((pv, lifts.column_vector(c)))
    source = direct_sum(algebra, parts)
    return assemble_from_components(
        source, x, [morphism_from_generator(pv, x, u) for pv, u in gens]
    )


def _reference_hull(x: Module) -> Morphism:
    return dualize_morphism(_reference_cover(dualize(x)))


def _reference_kernel(f: Morphism) -> tuple[Module, Morphism]:
    """One ``solve_right`` per arrow against the kernel bases."""
    module = f.source
    bases = [m.kernel_basis() for m in f.maps]
    maps = []
    for idx, a in enumerate(module.algebra.quiver.arrows):
        sol = bases[a.target].solve_right(module.arrow_maps[idx] @ bases[a.source])
        assert sol is not None
        maps.append(sol)
    sub = Module(module.algebra, [b.cols for b in bases], maps, validate=False)
    return sub, Morphism._make(sub, module, tuple(bases))


def _length_relations(alg, vertex: int, k: int) -> tuple:
    """The basis paths of length k from ``vertex``, one relation each, in
    the order of P(vertex)'s path coordinates."""
    proj = proj_module(alg, vertex)
    return tuple(((0, 1, p),) for paths in proj._proj_paths for p in paths if p.length == k)


def _radical_power(alg, pres: Presentation) -> int | None:
    """k when the relations of ``pres`` are the basis paths of length k from
    its one vertex, as for P/rad^k; None otherwise."""
    rels = pres.relations
    if len(pres.vertices) != 1 or not rels or not all(len(rel) == 1 for rel in rels):
        return None
    k = rels[0][0][2].length
    return k if rels == _length_relations(alg, pres.vertices[0], k) else None


def _reference_radical_quotient(module: Module, power: int):
    """The quotient by reduced bases of rad^power, its projection, and the
    presentation carried over from the module's: the basis paths of length
    ``power`` as relations under a projective, those of length min(k, power)
    under P/rad^k, and None (no reference) under any other presentation."""
    paths = module.algebra.quiver.paths_of_length(power)
    bases = [
        subspace_sum(d, [module.action(p) for p in paths if p.target == w])
        for w, d in enumerate(module.dims)
    ]
    quot, proj, sections = quotient_by_subspaces(module, bases)
    parent = presentation(module)
    if len(parent.vertices) != 1:
        return quot, proj, None
    (vertex,), (generator,) = parent.vertices, parent.generators
    if parent.relations is None:
        k = power
    else:
        k = _radical_power(module.algebra, parent)
        if k is None:
            return quot, proj, None
    ref = Presentation(
        (vertex,),
        _length_relations(module.algebra, vertex, min(k, power)),
        tuple(ps @ qs for ps, qs in zip(parent.sections, sections)),
        (proj.maps[vertex] @ generator,),
    )
    return quot, proj, ref


def _relation_vector(p0: Module, projs, rel) -> Matrix:
    """The element sum c p·e_i of P0 = ``p0``, the sum of ``projs``, for a
    relation, as a vector of its vertex space at the relation's end."""
    alg = p0.algebra
    end = rel[0][2].target
    vec = []
    for i, proj in enumerate(projs):
        paths = proj._proj_paths[end]
        part = [0] * len(paths)
        for j, c, p in rel:
            if j == i:
                coords = alg.reduce_path(p)
                for t, q in enumerate(paths):
                    part[t] += c * coords[alg.basis_index[q]]
        vec.extend(part)
    return Matrix.column(vec)


def assert_relations_present(module: Module) -> None:
    """The presentation of ``module`` presents it: every relation kills the
    generators, and P0 modulo the submodule the relations generate has the
    module's dimension."""
    pres = presentation(module)
    alg = module.algebra
    projs = [proj_module(alg, v) for v in pres.vertices]
    p0 = direct_sum(alg, projs)
    if pres.relations is None:
        assert module.dims == p0.dims
        return
    spans: list[list[Matrix]] = [[] for _ in module.dims]
    for rel in pres.relations:
        end = rel[0][2].target
        assert all(p.source == pres.vertices[i] and p.target == end for i, _, p in rel)
        killed = Matrix.zeros(module.dims[end], 1)
        for i, c, p in rel:
            killed = killed + (module.action(p) @ pres.generators[i]).scale(c)
        assert killed.is_zero()
        vec = _relation_vector(p0, projs, rel)
        for q in alg.quiver.paths_up_to(alg.nilpotency_bound):
            if q.source == end:
                spans[q.target].append(p0.action(q) @ vec)
    sub = sum(subspace_sum(d, ms).cols for d, ms in zip(p0.dims, spans))
    assert p0.total_dim - sub == module.total_dim


# -- the corpus --------------------------------------------------------------------


def _cyc3_trunc5():
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3-trunc5")


ALGEBRAS = [_cyc3_trunc5, _commuting_square, _a3_zero_relation, _kronecker, _a4_rad2]


def _parsed(alg) -> list[Module]:
    n = alg.quiver.vertex_count
    exprs = [f"{kind}({v})" for kind in "SPI" for v in range(1, n + 1)]
    exprs += [f"P({v})/rad^2" for v in range(1, n + 1)]
    exprs += [f"I({v})/rad^1" for v in range(1, n + 1)]
    exprs.append("+".join(f"P({v})/rad^{v}" for v in range(1, n + 1)) + "+S(1)+I(1)")
    return [parse_module_expression(alg, e) for e in exprs]


def _built(alg) -> list[Module]:
    """Syzygies 1-3, transposes, dtr/trd, duals and realized middle terms."""
    n = alg.quiver.vertex_count
    simples = [simple_module(alg, v) for v in range(n)]
    injs = [inj_module(alg, v) for v in range(n)]
    radp = [radical_quotient(proj_module(alg, v), 2)[0] for v in range(n)]
    out = []
    for x in simples + injs:
        res = projective_resolution(x)
        out.extend(res.syzygy(i) for i in (1, 2, 3))
    for x in simples + radp:
        out.extend([transpose(x), dtr(x), trd(x), dualize(x)])
    for c in simples + radp:
        for a in simples:
            space = ext1_space(c, a)
            for k in range(space.dim):
                coords = [QQ(int(j == k) + 1) for j in range(space.dim)]
                out.append(space.realize(coords).middle)
    return [x for x in out if not x.is_zero()]


def _tilted(alg) -> list[Module]:
    """For each arrow a: u -> v (u != v), the module K -> K^2 on a with a
    acting as (1, 1)^T and every other space zero: its radical at v is not a
    coordinate subspace, so its cover picks other generators than the top
    route does."""
    arrows = alg.quiver.arrows
    out = []
    for idx, a in enumerate(arrows):
        if a.source == a.target:
            continue
        dims = [0] * alg.quiver.vertex_count
        dims[a.source], dims[a.target] = 1, 2
        maps = [Matrix.zeros(dims[b.target], dims[b.source]) for b in arrows]
        maps[idx] = Matrix.from_rows([[1], [1]])
        out.append(Module(alg, dims, maps))
    return out + [direct_sum(alg, [simple_module(alg, 0), *out])]


@pytest.fixture(scope="module", params=ALGEBRAS, ids=lambda make: make.__name__.strip("_"))
def corpus(request):
    alg = request.param()
    return _parsed(alg), _built(alg) + _tilted(alg)


def _vertices(summands) -> list[int]:
    return [s._proj_vertex for s in summands]


# -- covers and hulls ---------------------------------------------------------------


def _assert_cover(x: Module) -> None:
    cover = projective_cover(x)
    assert cover.target is x
    assert cover.is_epi()
    t = top(x)[0]
    assert Counter(_vertices(cover.source.summands)) == Counter(
        v for v, d in enumerate(t.dims) for _ in range(d)
    )
    # minimal: the kernel lies in the radical of the source
    _, incl = kernel(cover)
    rad = radical_subspaces(cover.source)
    assert all(subspace_contains(r, m) for r, m in zip(rad, incl.maps))
    # the top-based cover differs by an automorphism of the source at most
    old = _reference_cover(x)
    assert _vertices(old.source.summands) == _vertices(cover.source.summands)
    alpha = factor_through(old, cover)
    assert alpha is not None and alpha.is_iso()
    assert (old @ alpha).maps == cover.maps


def _assert_hull(x: Module) -> None:
    hull = injective_hull(x)
    assert hull.source is x
    assert hull.is_mono()
    # minimal: the image contains the socle of the hull
    soc = socle_subspaces(hull.target)
    assert all(subspace_contains(m, s) for m, s in zip(hull.maps, soc))
    old = _reference_hull(x)
    vertices = [dualize(s)._proj_vertex for s in hull.target.summands]
    assert [dualize(s)._proj_vertex for s in old.target.summands] == vertices
    assert Counter(vertices) == Counter(
        v for v, s in enumerate(socle_subspaces(x)) for _ in range(s.cols)
    )
    alpha = factor_through_mono(old, hull)
    assert alpha is not None and alpha.is_iso()
    assert (alpha @ old).maps == hull.maps


def test_covers_and_hulls_are_minimal_and_match_the_top_route(corpus):
    parsed, built = corpus
    for x in parsed + built:
        _assert_cover(x)
        _assert_hull(x)
    # the comparison up to automorphism is not vacuous
    assert any(projective_cover(x).maps != _reference_cover(x).maps for x in built)


def test_covers_and_hulls_of_parsed_modules_are_the_top_route_byte_for_byte(corpus):
    parsed, _ = corpus
    for x in parsed:
        new, old = projective_cover(x), _reference_cover(x)
        assert new.source.dims == old.source.dims
        assert _vertices(new.source.summands) == _vertices(old.source.summands)
        assert new.maps == old.maps
        assert injective_hull(x).maps == _reference_hull(x).maps


# -- kernels and radical quotients ---------------------------------------------------


def _assert_same_submodule(new, old) -> None:
    (sub, incl), (ref_sub, ref_incl) = new, old
    assert sub.dims == ref_sub.dims
    assert sub.arrow_maps == ref_sub.arrow_maps
    assert incl.maps == ref_incl.maps


def test_kernels_match_the_solve_route(corpus):
    parsed, built = corpus
    for x in parsed + built:
        for f in [projective_cover(x), *hom_space(x, x).basis]:
            _assert_same_submodule(kernel(f), _reference_kernel(f))


def test_radical_quotients_match_the_reduced_basis_route(corpus):
    parsed, built = corpus
    carried = 0
    for x in parsed + built:
        for power in (1, 2, 3):
            quot, proj = radical_quotient(x, power)
            ref, ref_proj, ref_pres = _reference_radical_quotient(x, power)
            assert quot.dims == ref.dims
            assert quot.arrow_maps == ref.arrow_maps
            assert proj.maps == ref_proj.maps
            assert_relations_present(quot)
            if ref_pres is None:
                continue
            carried += 1
            pres = presentation(quot)
            assert pres.vertices == ref_pres.vertices
            assert pres.relations == ref_pres.relations
            assert pres.sections == ref_pres.sections
            assert pres.generators == ref_pres.generators
    assert carried


# -- presentations --------------------------------------------------------------------


def _presented(parsed, built) -> list[Module]:
    """The atoms of the corpus with their radical quotients and first two
    cosyzygies (cokernels), each once."""
    seen, out = set(), []
    for m in parsed + built:
        for x in flatten_atoms(m):
            res = injective_resolution(x)
            for y in [x, *(radical_quotient(x, k)[0] for k in (1, 2, 3)), res.syzygy(1), res.syzygy(2)]:
                if id(y) not in seen:
                    seen.add(id(y))
                    out.append(y)
    return out


def test_presentations_are_minimal(corpus):
    """One generator per dimension of the top, one relation per summand of
    the second term of the minimal projective resolution."""
    parsed, built = corpus
    for x in _presented(parsed, built):
        pres = presentation(x)
        assert len(pres.vertices) == len(pres.generators) == sum(top(x)[0].dims), x
        res = projective_resolution(x)
        res.ensure_terms(2)
        assert len(pres.relations or ()) == len(res.terms[1].summands), x
        assert_relations_present(x)


def test_transposes_over_the_nakayama_algebra_have_one_generator():
    """P1 is indecomposable for every indecomposable non-projective over a
    Nakayama algebra, so Tr of it is cyclic."""
    alg = _cyc3_trunc5()
    n = alg.quiver.vertex_count
    mods = [simple_module(alg, v) for v in range(n)]
    mods += [radical_quotient(proj_module(alg, v), k)[0] for v in range(n) for k in (2, 3, 4)]
    for x in mods:
        for t in (transpose(x), trd(x)):
            assert len(presentation(t).vertices) == 1
            assert_relations_present(t)


def test_kernel_guard_rejects_a_non_commuting_map():
    alg = AlgebraPresentation(linear_quiver(3), [], 3, name="A3")
    p = proj_module(alg, 0)
    assert p.dims == (1, 1, 1)
    # zero at the source of the first arrow, identity at its target: the
    # "kernel" holds the generator but not its image under the arrow
    f = Morphism._make(p, p, (Matrix.zeros(1, 1), Matrix.identity(1), Matrix.identity(1)))
    with pytest.raises(AlgebraError, match="kernel is not closed under the arrow action"):
        kernel(f)
