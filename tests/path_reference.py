"""Elements of a path algebra by coordinates in its path basis: the unit and
the product, read off ``reduce_path``.  The library never multiplies
elements of an ``AlgebraPresentation``; the tests use these to check its
basis, its reduction table and its opposite."""


def unit(alg) -> list:
    """Coordinates of the unit, the sum of the trivial paths."""
    vec = [0] * alg.dim
    for v in range(alg.quiver.vertex_count):
        vec[alg.basis_index[alg.quiver.trivial_path(v)]] = 1
    return vec


def multiply(alg, x, y) -> list:
    """Product of two elements in basis coordinates (first x, then y)."""
    out = [0] * alg.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        p = alg.basis[i]
        for j, yj in enumerate(y):
            q = alg.basis[j]
            if yj == 0 or p.target != q.source:
                continue
            for k, c in enumerate(alg.reduce_path(alg.quiver.concat(p, q))):
                if c != 0:
                    out[k] += xi * yj * c
    return out
