"""The canonical relative resolutions, the reference route the minimal one
is checked against.

A canonical right add(m)-approximation of x is the evaluation map from one
copy of m per basis element of Hom(m, x); the left one is the coevaluation
map into one copy of m per basis element of Hom(x, m).  Neither is minimal,
so their terms grow by a factor of roughly the size of m per step, and the
resolutions built from them are practical only at shallow depth.  Both are
approximations, so a relative resolution built from them has the same
relative projective (injective) dimension as the minimal one in
``relrep.relhom``: ``canonical_pd_F_le`` must agree with ``relhom.pd_F_le``.
"""

from relrep.homology import Resolution, _ResolutionCore
from relrep.relhom import SubBifunctor, in_F_projectives
from relrep.rep import (
    Module,
    Morphism,
    assemble_from_components,
    assemble_into_components,
    direct_sum,
    hom_basis,
)

from conftest import zero_module


def canonical_right_approximation(x: Module, m: Module) -> Morphism:
    """The evaluation map from one copy of m per hom-basis element."""
    basis = hom_basis(m, x)
    if not basis:
        return Morphism.zero(zero_module(x.algebra), x)
    return assemble_from_components(direct_sum(x.algebra, [m] * len(basis)), x, basis)


def canonical_left_approximation(x: Module, m: Module) -> Morphism:
    """The coevaluation map into one copy of m per hom-basis element."""
    basis = hom_basis(x, m)
    if not basis:
        return Morphism.zero(x, zero_module(x.algebra))
    return assemble_into_components(x, direct_sum(x.algebra, [m] * len(basis)), basis)


def canonical_F_resolution(x: Module, f: SubBifunctor) -> Resolution:
    """The resolution of x by relative projectives built from canonical
    right approximations; uncached, a fresh chain per call."""
    pm = f.projectives_module()

    def step(mod: Module) -> Morphism:
        g = canonical_right_approximation(mod, pm)
        assert g.is_epi(), "relative projective approximation is not onto"
        return g

    return Resolution(x, step, "relative projective", _ResolutionCore())


def canonical_F_coresolution(x: Module, f: SubBifunctor) -> Resolution:
    """The coresolution of x by relative injectives built from canonical
    left approximations; uncached, a fresh chain per call."""
    im = f.injectives_module()

    def step(mod: Module) -> Morphism:
        g = canonical_left_approximation(mod, im)
        assert g.is_mono(), "relative injective approximation is not one-to-one"
        return g

    return Resolution(x, step, "relative injective", _ResolutionCore())


def canonical_pd_F_le(x: Module, f: SubBifunctor, n: int) -> bool:
    """Whether the relative projective dimension of x is at most n, read off
    the canonical resolution."""
    if x.total_dim == 0:
        return True
    if n < 0:
        return False
    return in_F_projectives(canonical_F_resolution(x, f).syzygy(n), f)
