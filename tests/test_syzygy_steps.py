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
    factor_through_mono,
    injective_hull,
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
    hom_space,
    inj_module,
    kernel,
    morphism_from_generator,
    parse_module_expression,
    proj_module,
    quotient_by_subspaces,
    radical_quotient,
    simple_module,
    socle_subspaces,
)
from test_exact_linalg import subspace_sum
from test_homology import _a3_zero_relation, _a4_rad2, _commuting_square, _kronecker
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


def _length_paths(alg, vertex: int, k: int) -> tuple:
    return tuple(((0, 1, p),) for p in alg.quiver.paths_of_length(k) if p.source == vertex)


def _radical_power(alg, hint: Presentation) -> int | None:
    """k when the relations of ``hint`` are the length-k paths from its
    vertex, as for P/rad^k; None otherwise."""
    rels = hint.relations
    if not rels or not all(len(rel) == 1 for rel in rels):
        return None
    k = rels[0][0][2].length
    return k if rels == _length_paths(alg, hint.vertices[0], k) else None


def _reference_radical_quotient(module: Module, power: int) -> tuple[Module, Morphism]:
    """The quotient by reduced bases of rad^power, with the hint carried over:
    the length-``power`` paths as relations under a projective, the
    length-min(k, power) paths under P/rad^k, and None (no reference) under
    any other relations."""
    paths = module.algebra.quiver.paths_of_length(power)
    bases = [
        subspace_sum(d, [module.action(p) for p in paths if p.target == w])
        for w, d in enumerate(module.dims)
    ]
    quot, proj, sections = quotient_by_subspaces(module, bases)
    parent = module.hint
    if parent is not None:
        (vertex,), (generator,) = parent.vertices, parent.generators
        if parent.relations is None:
            relations = _length_paths(module.algebra, vertex, power)
        else:
            k = _radical_power(module.algebra, parent)
            relations = None if k is None else _length_paths(module.algebra, vertex, min(k, power))
        quot.hint = Presentation(
            (vertex,),
            relations,
            tuple(ps @ qs for ps, qs in zip(parent.sections, sections)),
            (proj.maps[vertex] @ generator,),
        )
    return quot, proj


def _relation_vector(proj: Module, rel) -> Matrix:
    """The element sum c p of the projective ``proj`` for a relation, as a
    vector of its vertex space at the relation's end."""
    alg = proj.algebra
    paths = proj._proj_paths[rel[0][2].target]
    vec = [0] * len(paths)
    for _, c, p in rel:
        coords = alg.reduce_path(p)
        for i, q in enumerate(paths):
            vec[i] += c * coords[alg.basis_index[q]]
    return Matrix.column(vec)


def assert_relations_present(module: Module) -> None:
    """The hint of ``module`` presents it: every relation kills the generator,
    and P(v) modulo the submodule the relations generate has the module's
    dimension."""
    hint = module.hint
    (vertex,), (generator,) = hint.vertices, hint.generators
    alg = module.algebra
    proj = proj_module(alg, vertex)
    if hint.relations is None:
        assert module.dims == proj.dims
        return
    spans: list[list[Matrix]] = [[] for _ in module.dims]
    for rel in hint.relations:
        assert all(i == 0 and p.source == vertex for i, _, p in rel)
        end = rel[0][2].target
        assert all(p.target == end for _, _, p in rel)
        killed = Matrix.zeros(module.dims[end], 1)
        for _, c, p in rel:
            killed = killed + (module.action(p) @ generator).scale(c)
        assert killed.is_zero()
        vec = _relation_vector(proj, rel)
        for q in alg.quiver.paths_up_to(alg.nilpotency_bound):
            if q.source == end:
                spans[q.target].append(proj.action(q) @ vec)
    sub = sum(subspace_sum(d, ms).cols for d, ms in zip(proj.dims, spans))
    assert proj.total_dim - sub == module.total_dim


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
    for x in parsed + built:
        for power in (1, 2, 3):
            quot, proj = radical_quotient(x, power)
            ref, ref_proj = _reference_radical_quotient(x, power)
            assert quot.dims == ref.dims
            assert quot.arrow_maps == ref.arrow_maps
            assert proj.maps == ref_proj.maps
            if ref.hint is None:
                assert quot.hint is None
                continue
            hint, ref_hint = quot.hint, ref.hint
            assert hint.vertices == ref_hint.vertices
            if ref_hint.relations is None:
                assert_relations_present(quot)
            else:
                assert hint.relations == ref_hint.relations
            assert hint.sections == ref_hint.sections
            assert hint.generators == ref_hint.generators


def test_kernel_guard_rejects_a_non_commuting_map():
    alg = AlgebraPresentation(linear_quiver(3), [], 3, name="A3")
    p = proj_module(alg, 0)
    assert p.dims == (1, 1, 1)
    # zero at the source of the first arrow, identity at its target: the
    # "kernel" holds the generator but not its image under the arrow
    f = Morphism._make(p, p, (Matrix.zeros(1, 1), Matrix.identity(1), Matrix.identity(1)))
    with pytest.raises(AlgebraError, match="kernel is not closed under the arrow action"):
        kernel(f)
