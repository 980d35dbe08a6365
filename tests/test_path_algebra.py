import pytest

import path_reference as path_ref

from relrep.exact_linalg import QQ, Matrix
from relrep.path_algebra import (
    AlgebraError,
    AlgebraPresentation,
    Arrow,
    Path,
    Quiver,
    Relation,
    cyclic_quiver,
    linear_quiver,
)
from relrep.rep import proj_module


@pytest.fixture(scope="module")
def cyc3():
    # cyclic quiver on 3 vertices, paths of length 5 truncated
    return AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3")


def test_cyclic_truncation_dimension(cyc3):
    # paths of length 0..4 on a 3-cycle: 3 per length
    assert cyc3.dim == 15
    by_len = {}
    for p in cyc3.basis:
        by_len[p.length] = by_len.get(p.length, 0) + 1
    assert by_len == {0: 3, 1: 3, 2: 3, 3: 3, 4: 3}


def test_basis_by_source_counts(cyc3):
    # from each vertex: exactly one path of each length 0..4
    for v in range(3):
        assert len(cyc3.basis_by_source[v]) == 5
        assert len(cyc3.basis_by_target[v]) == 5


def test_trivial_paths_are_local_units(cyc3):
    for i, p in enumerate(cyc3.basis):
        e_src = cyc3.reduce_path(cyc3.quiver.trivial_path(p.source))
        e_tgt = cyc3.reduce_path(cyc3.quiver.trivial_path(p.target))
        x = [QQ(0)] * cyc3.dim
        x[i] = QQ(1)
        assert path_ref.multiply(cyc3, e_src, x) == x
        assert path_ref.multiply(cyc3, x, e_tgt) == x
    one = path_ref.unit(cyc3)
    for i in range(cyc3.dim):
        x = [QQ(0)] * cyc3.dim
        x[i] = QQ(1)
        assert path_ref.multiply(cyc3, one, x) == x
        assert path_ref.multiply(cyc3, x, one) == x


def test_multiplication_truncates(cyc3):
    # a path of length 3 times a path of length 2 dies (5 hits the bound)
    p3 = next(p for p in cyc3.basis if p.length == 3)
    q2 = next(p for p in cyc3.basis if p.length == 2 and p.source == p3.target)
    x = [QQ(0)] * cyc3.dim
    x[cyc3.basis_index[p3]] = QQ(1)
    y = [QQ(0)] * cyc3.dim
    y[cyc3.basis_index[q2]] = QQ(1)
    assert all(c == 0 for c in path_ref.multiply(cyc3, x, y))


def test_associativity_exhaustive(cyc3):
    dim = cyc3.dim
    units = []
    for i in range(dim):
        x = [QQ(0)] * dim
        x[i] = QQ(1)
        units.append(x)
    for i in range(dim):
        for j in range(dim):
            ij = path_ref.multiply(cyc3, units[i], units[j])
            for k in range(dim):
                left = path_ref.multiply(cyc3, ij, units[k])
                right = path_ref.multiply(cyc3, units[i], path_ref.multiply(cyc3, units[j], units[k]))
                assert left == right


def test_composition_requires_matching_endpoints(cyc3):
    q = cyc3.quiver
    a0 = q.arrow_path(0)  # v0 -> v1
    with pytest.raises(AlgebraError):
        q.concat(a0, a0)
    a1 = q.arrow_path(1)
    p = q.concat(a0, a1)
    assert p.source == 0 and p.target == 2 and p.length == 2


def test_missing_truncation_is_rejected():
    with pytest.raises(AlgebraError, match="nilpotency"):
        AlgebraPresentation(cyclic_quiver(3), [], 5)


def test_short_relation_terms_are_rejected():
    q = cyclic_quiver(2)
    with pytest.raises(AlgebraError, match="length < 2"):
        Relation([(1, q.arrow_path(0))])


def test_nonparallel_relation_rejected():
    q = cyclic_quiver(3)
    p1 = q.path_from_arrows([0, 1])  # v0 -> v2
    p2 = q.path_from_arrows([1, 2])  # v1 -> v0
    with pytest.raises(AlgebraError, match="parallel"):
        Relation([(1, p1), (-1, p2)])


def test_commuting_square_nonmonomial_relation():
    # v0 -> v1 -> v3 and v0 -> v2 -> v3, upper route = lower route
    quiver = Quiver(
        4,
        [
            Arrow("a", 0, 1),
            Arrow("b", 0, 2),
            Arrow("c", 1, 3),
            Arrow("d", 2, 3),
        ],
    )
    upper = quiver.path_from_arrows([0, 2])
    lower = quiver.path_from_arrows([1, 3])
    alg = AlgebraPresentation(quiver, [Relation([(1, upper), (-1, lower)])], 3)
    # 4 trivial + 4 arrows + one diagonal class
    assert alg.dim == 9
    xu = alg.reduce_path(upper)
    xl = alg.reduce_path(lower)
    assert xu == xl and any(c != 0 for c in xu)
    # bound 2 would require both length-2 paths in the ideal, which fails
    with pytest.raises(AlgebraError, match="nilpotency"):
        AlgebraPresentation(quiver, [Relation([(1, upper), (-1, lower)])], 2)


def test_linear_quiver_path_algebra_no_relations_needed():
    # A3: no cycles, so any bound >= 3 yields the full path algebra
    alg = AlgebraPresentation(linear_quiver(3), [], 3)
    assert alg.dim == 3 + 2 + 1


def test_opposite_roundtrip(cyc3):
    op = cyc3.opposite()
    assert op.dim == cyc3.dim
    assert op.opposite() is cyc3
    # reversal sends source-i paths to target-i paths
    for p in cyc3.basis:
        rp = cyc3.reverse_path(p)
        assert rp.source == p.target and rp.target == p.source
        assert rp in op.basis_index


def test_opposite_multiplication_antihomomorphism(cyc3):
    op = cyc3.opposite()
    dim = cyc3.dim
    # map basis coordinates through path reversal
    perm = [op.basis_index[cyc3.reverse_path(p)] for p in cyc3.basis]

    def push(vec):
        out = [QQ(0)] * dim
        for i, c in enumerate(vec):
            out[perm[i]] = c
        return out

    for i in range(dim):
        for j in range(dim):
            x = [QQ(0)] * dim
            x[i] = QQ(1)
            y = [QQ(0)] * dim
            y[j] = QQ(1)
            assert push(path_ref.multiply(cyc3, x, y)) == path_ref.multiply(op, push(y), push(x))


def test_path_identity_and_hash():
    q = cyclic_quiver(3)
    p1 = q.path_from_arrows([0, 1])
    p2 = q.path_from_arrows([0, 1])
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1 != q.path_from_arrows([0])
    assert q.trivial_path(0) != q.trivial_path(1)


def test_paths_are_listed_once_per_quiver_and_length():
    q = cyclic_quiver(3)
    paths = q.paths_up_to(4)
    assert isinstance(paths, tuple) and q.paths_up_to(4) is paths
    assert [p.sort_key() for p in paths] == sorted(p.sort_key() for p in paths)
    assert len(paths) == 3 * 5
    of_length = q.paths_of_length(2)
    assert isinstance(of_length, tuple) and q.paths_of_length(2) is of_length
    assert of_length == tuple(p for p in paths if p.length == 2)
    # an opposite quiver is a new quiver with its own lists
    assert q.opposite().paths_up_to(4) is not paths


def test_module_action_multiplies_arrow_matrices_first_arrow_first():
    algebra = AlgebraPresentation.truncated(cyclic_quiver(3), 5, name="cyc3")
    p = proj_module(algebra, 0)
    q = algebra.quiver
    assert p.action(q.trivial_path(1)) == Matrix.identity(p.dims[1])
    for path in q.paths_up_to(4):
        expected = Matrix.identity(p.dims[path.source])
        for idx in path.arrows:
            expected = p.arrow_maps[idx] @ expected
        assert p.action(path) == expected


def test_is_nakayama():
    assert cyclic_quiver(3).is_nakayama()
    assert linear_quiver(4).is_nakayama()
    quiver = Quiver(3, [Arrow("a", 0, 1), Arrow("b", 0, 2)])
    assert not quiver.is_nakayama()
