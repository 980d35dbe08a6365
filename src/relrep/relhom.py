"""Sub-bifunctors of the extension bifunctor, and their relative homology.

A test module determines two collections of short exact sequences:

* covariant flavor: the sequences whose epi stays surjective after applying
  maps-from-the-test-module (every map out of the test module lifts);
* contravariant flavor: the sequences whose mono stays "surjective on
  restrictions" after applying maps-to-the-test-module (every map into the
  test module extends).

Each collection is closed under pullback and pushout, so it cuts a subgroup
out of every first extension group and carries its own homological algebra
(Auslander-Solberg): enough relative projectives and injectives, resolutions
built from minimal add-approximations, derived extension groups, and relative
projective and injective dimensions.  Relative exactness and relative Ext
(projective route) count hom dimensions; Hom out of a module built here is
read as dim Hom_op(DY, DX), so no fresh module is presented.

A functor depends on add(test module) alone, and its relative Ext is an
additive bifunctor, so the projective route of ``ext_F_dim`` adds values over
pairs of atoms.  Each value is an int cached on the youngest of the two atoms
and the test module's atoms, under the degree, the variance and the set of
those atoms (the functor's relative theory): a fresh functor over atoms
already seen reads the same entries.  Two kinds of pairs give 0 with no
resolution at all: a first atom that is projective, or (covariant) one of
the test module's atoms, is relatively projective; a second atom that is
(contravariant) one of the test module's atoms is relatively injective.  The
minimal relative resolution of a sum is the sum of its atoms', so relative
projective dimensions and the resolution witnesses of the theorem's
condition (b) read the atoms' resolutions too (``F_resolutions_of_atoms``).
The coresolution route (``F_coresolution``, ``id_F_le`` and
``ext_F_dim(via="injective")``) works on the whole modules and cross-checks
that additivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .cache import Cached, cached_among, cached_pair, memoized, oldest_first, weakly_cached
from .exact_linalg import Matrix
from .path_algebra import AlgebraError, InternalError
from .rep import (
    Module,
    Morphism,
    ShortExactSequence,
    cogenerator_module,
    direct_sum,
    dualize,
    enumerate_indecomposables_nakayama,
    hom_basis,
    hom_dim,
    nonzero_atoms,
    proj_module,
    regular_module,
    top_generators,
)
from .homology import (
    Resolution,
    _ResolutionCore,
    dtr,
    ext1_space,
    ext_dim,
    in_add,
    minimal_left_approximation,
    minimal_right_approximation,
    resolution_cohomology_dim,
    syzygy_lift,
    trd,
)

VARIANCES = ("covariant", "contravariant")


class SubBifunctor(Cached):
    """A sub-bifunctor of the first extension bifunctor, cut out by a module.

    variance "covariant" keeps the sequences that stay exact under maps from
    the test module; "contravariant" keeps those that stay exact under maps
    into it.  The relative projectives are the summands of
    projectives_module() and the relative injectives the summands of
    injectives_module(); both collections contain the absolute ones, so
    approximation covers and hulls always exist.  Obtain one through
    covariant_functor or contravariant_functor, which share it.
    """

    __slots__ = ("variance", "module", "__weakref__")

    def __init__(self, variance: str, module: Module):
        if variance not in VARIANCES:
            raise AlgebraError(f"unknown functor variance {variance!r}")
        self.variance = variance
        self.module = module
        super().__init__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.variance} extension sub-bifunctor, test module dims {self.module.dims}>"

    @property
    def algebra(self):
        return self.module.algebra

    @memoized("projectives")
    def projectives_module(self) -> Module:
        """A module whose summand closure is exactly the relative projectives."""
        if self.variance == "covariant":
            extra = self.module
        else:
            extra = trd(self.module)
        return direct_sum(self.algebra, [regular_module(self.algebra), extra])

    @memoized("injectives")
    def injectives_module(self) -> Module:
        """A module whose summand closure is exactly the relative injectives."""
        if self.variance == "covariant":
            extra = dtr(self.module)
        else:
            extra = self.module
        return direct_sum(self.algebra, [cogenerator_module(self.algebra), extra])

    @memoized("theory")
    def theory_atoms(self) -> tuple[Module, ...]:
        """The distinct nonzero atoms of the test module, oldest first.  The
        functor depends on add(module) alone, so these atoms and the variance
        fix its relative theory, under which ``ext_F_dim`` caches its values."""
        return oldest_first(nonzero_atoms(self.module))


def _functor(variance: str, module: Module) -> SubBifunctor:
    """The functor of (variance, module), held by the module weakly: the same
    object, with its cached relative resolutions, while anyone holds it."""
    return weakly_cached(module, ("functor", variance), SubBifunctor, variance, module)


def covariant_functor(module: Module) -> SubBifunctor:
    """The sub-bifunctor of the sequences that stay exact under Hom(module, -).

    Repeated calls return the same functor while a caller holds it, so the
    relative resolutions cached on it are computed once per holder."""
    return _functor("covariant", module)


def contravariant_functor(module: Module) -> SubBifunctor:
    """The sub-bifunctor of the sequences that stay exact under Hom(-, module);
    shared like covariant_functor."""
    return _functor("contravariant", module)


# -- membership tests for a single short exact sequence ------------------------


def _hom_dim_out_of_built(x: Module, y: Module) -> int:
    """dim Hom(x, y) for x built here, as dim Hom_op(Dy, Dx): Dy is the sum
    of the duals of y's atoms, each presented once, and Dx is only a target."""
    return hom_dim(dualize(y), dualize(x))


def is_F_exact(eta: ShortExactSequence, f: SubBifunctor) -> bool:
    """Whether eta belongs to the functor's class of sequences.

    Covariant: Hom(test, middle) -> Hom(test, quotient) must be onto;
    contravariant: Hom(middle, test) -> Hom(sub, test).  Hom is left exact
    and eta is exact (validated when built), so that map is onto exactly when
    the middle hom dimension is the sum of the outer two.  Hom out of the
    middle term is read on the dual side (``_hom_dim_out_of_built``).
    """
    m = f.module
    if f.variance == "covariant":
        return hom_dim(m, eta.middle) == hom_dim(m, eta.sub) + hom_dim(m, eta.quotient)
    return _hom_dim_out_of_built(eta.middle, m) == hom_dim(eta.sub, m) + hom_dim(eta.quotient, m)


def F_subgroup_dim(c: Module, a: Module, f: SubBifunctor) -> int:
    """Dimension of the functor's subgroup of the extension group of (c, a).

    A class belongs to the subgroup when all its pullbacks to the test module
    (covariant), resp. pushouts into it (contravariant), vanish; the subgroup
    is the kernel of the linear map collecting those classes.
    """
    space = ext1_space(c, a)
    if space.dim == 0:
        return 0
    unit = [0] * space.dim
    reps = []
    for i in range(space.dim):
        unit[i] = 1
        reps.append(space.representative(unit))
        unit[i] = 0
    cols: list[list] = [[] for _ in range(space.dim)]
    m = f.module
    if f.variance == "covariant":
        space_m = ext1_space(m, a)
        if space_m.dim:
            for phi in hom_basis(m, c):
                kappa = syzygy_lift(phi)
                for col, rep in zip(cols, reps):
                    col.extend(space_m.reduce(rep @ kappa))
    else:
        space_push = ext1_space(c, m)
        if space_push.dim:
            for alpha in hom_basis(a, m):
                for col, rep in zip(cols, reps):
                    col.extend(space_push.reduce(alpha @ rep))
    if not cols[0]:
        return space.dim
    return space.dim - Matrix.from_columns(cols).rank()


# -- relative projectives, injectives and approximations ------------------------


def in_F_projectives(x: Module, f: SubBifunctor) -> bool:
    return in_add(x, f.projectives_module())


def in_F_injectives(x: Module, f: SubBifunctor) -> bool:
    return in_add(x, f.injectives_module())


@memoized("projective")
def _is_projective(x: Module) -> bool:
    """Whether x is projective: its projective cover, which is onto, has x's dimension."""
    return sum(proj_module(x.algebra, v).total_dim for v, _ in top_generators(x)) == x.total_dim


def _plainly_F_projective(x: Module, f: SubBifunctor) -> bool:
    """Relatively projective by inspection: x is projective or, for a
    covariant functor, one of the test module's atoms."""
    return (f.variance == "covariant" and x in f.theory_atoms()) or _is_projective(x)


def _plainly_F_injective(x: Module, f: SubBifunctor) -> bool:
    """Relatively injective by inspection: for a contravariant functor, x is
    one of the test module's atoms."""
    return f.variance == "contravariant" and x in f.theory_atoms()


# -- relative resolutions and derived extension groups --------------------------


def F_resolution(x: Module, f: SubBifunctor) -> Resolution:
    """Resolution of x by relative projectives, built (lazily) from minimal
    right approximations.

    Every step is onto because the relative projectives contain the absolute
    ones, and every step sequence is functor-exact by the approximation
    property; a non-surjective step is an internal error.
    """
    pm = f.projectives_module()

    def step(mod: Module) -> Morphism:
        g = minimal_right_approximation(mod, pm)
        if not g.is_epi():
            raise InternalError("relhom", "relative projective approximation is not onto")
        return g

    return Resolution(x, step, "relative projective", cached_pair(x, f, "resolution", _ResolutionCore))


def F_resolutions_of_atoms(x: Module, f: SubBifunctor) -> list[Resolution]:
    """The relative resolutions of x's distinct nonzero atoms, those that are
    relatively projective by inspection left out (theirs stop at once).

    The minimal relative resolution of a sum is the sum of its atoms': so a
    syzygy of x lies in add(m) exactly when each atom's does, a step of x's
    resolution is exact for a functor exactly when each atom's step is, and
    the relative projective dimension of x is the largest of its atoms'.
    """
    return [F_resolution(c, f) for c in dict.fromkeys(nonzero_atoms(x)) if not _plainly_F_projective(c, f)]


def F_coresolution(x: Module, f: SubBifunctor) -> Resolution:
    """Coresolution of x by relative injectives, built from minimal left
    approximations; the dual of F_resolution."""
    im = f.injectives_module()

    def step(mod: Module) -> Morphism:
        g = minimal_left_approximation(mod, im)
        if not g.is_mono():
            raise InternalError(
                "relhom", "relative injective approximation is not one-to-one"
            )
        return g

    return Resolution(x, step, "relative injective", cached_pair(x, f, "coresolution", _ResolutionCore))


def resolution_step_sequence(res: Resolution, i: int) -> ShortExactSequence:
    """The i-th step of a resolution as a short exact sequence (i >= 1).

    Chain flavor: 0 -> syzygy(i) -> terms[i-1] -> syzygy(i-1) -> 0.
    Cochain flavor: 0 -> cosyzygy(i-1) -> terms[i-1] -> cosyzygy(i) -> 0.
    """
    if i < 1:
        raise AlgebraError("resolution steps start at index 1")
    _, edge = res.syzygy_edge(i)
    step = res.step_onto(i - 1)
    if res._cochain:
        return ShortExactSequence(step, edge)
    return ShortExactSequence(edge, step)


def ext_F_dim(
    i: int,
    c: Module,
    a: Module,
    f: SubBifunctor,
    via: str = "projective",
) -> int:
    """Dimension of the functor's i-th derived extension group of (c, a).

    c, a and the test module must live over one algebra; anything else is
    refused before any work.  via="projective" is additive over atoms: for
    i >= 1 it adds the values of the pairs (c_j, a_k) of nonzero atoms of c
    and a (``nonzero_atoms``, repeats included).  Each value is cached on
    the youngest of c_j, a_k and the test module's atoms
    (``relrep.cache.cached_among``), keyed by the degree, the variance and
    the set of those atoms (``SubBifunctor.theory_atoms``): the functor
    depends on add(test module) alone, so a fresh sum of atoms already seen,
    under a fresh functor over atoms already seen, costs lookups alone.  A
    pair is 0 with no resolution when c_j is projective or, covariant, one
    of the test module's atoms (relatively projective), and when a_k is,
    contravariant, one of the test module's atoms (relatively injective).
    Any other pair counts hom dimensions along the i-th step
    0 -> Omega^i -> P_{i-1} -> Omega^{i-1} -> 0 of the minimal relative
    resolution of c_j (Omega^0 = c_j), so at most i relative approximations
    are built: dim Hom(Omega^i, a_k) - dim Hom(P_{i-1}, a_k) +
    dim Hom(Omega^{i-1}, a_k).  The step is exact, so Hom(-, a_k) is exact
    on it up to Hom(Omega^i, a_k), and F-exact with P_{i-1} relatively
    projective, so the cokernel there is Ext_F^1(Omega^{i-1}, a_k) =
    Ext_F^i(c_j, a_k), which is 0 once Omega^{i-1} is.  Hom out of a syzygy
    is read on the dual side (``_hom_dim_out_of_built``).  via="injective"
    coresolves the whole of a by relative injectives and keeps the full hom
    complex against the whole of c (``resolution_cohomology_dim``).  The two
    routes agree (relative balance) and the second is kept as an
    independent cross-check, in its resolution, in its formula and of the
    additivity.  Degree 1 always equals F_subgroup_dim(c, a, f).
    """
    if not c.algebra is a.algebra is f.algebra:
        raise AlgebraError("relative ext between modules over different algebras")
    if i < 0:
        raise AlgebraError("ext degree must be >= 0")
    if i == 0:
        return hom_dim(c, a)
    if via == "projective":
        theory = f.theory_atoms()
        key = ("ext_F", i, f.variance)
        targets = nonzero_atoms(a)
        return sum(
            cached_among((c_j, a_k, *theory), key, _atom_ext_F_dim, i, c_j, a_k, f)
            for c_j in nonzero_atoms(c)
            for a_k in targets
        )
    if via == "injective":
        return resolution_cohomology_dim(F_coresolution(a, f), i, c)
    raise AlgebraError(f"unknown ext route {via!r}")


def _atom_ext_F_dim(i: int, c: Module, a: Module, f: SubBifunctor) -> int:
    if _plainly_F_projective(c, f) or _plainly_F_injective(a, f):
        return 0
    res = F_resolution(c, f)
    if any(res.syzygy(k).is_zero() for k in range(1, i)):
        return 0
    syzygy, incl = res.syzygy_edge(i)
    before = hom_dim(c, a) if i == 1 else _hom_dim_out_of_built(res.syzygy(i - 1), a)
    return _hom_dim_out_of_built(syzygy, a) - hom_dim(incl.target, a) + before


def pd_F_le(x: Module, f: SubBifunctor, n: int) -> bool:
    """Whether the relative projective dimension of x is at most n: whether
    it holds for each of x's atoms (``F_resolutions_of_atoms``)."""
    if x.total_dim == 0:
        return True
    if n < 0:
        return False
    return all(in_F_projectives(res.syzygy(n), f) for res in F_resolutions_of_atoms(x, f))


def id_F_le(x: Module, f: SubBifunctor, n: int) -> bool:
    """Whether the relative injective dimension of x is at most n."""
    if x.total_dim == 0:
        return True
    if n < 0:
        return False
    res = F_coresolution(x, f)
    return in_F_injectives(res.syzygy(n), f)


def gldim_F_le(
    f: SubBifunctor,
    n: int,
    witnesses: Sequence[Module] | None = None,
) -> bool:
    """Whether every witness has relative projective dimension at most n.

    With witnesses=None the complete list of indecomposables is enumerated
    (only available for Nakayama quivers); then the answer is the exact
    relative global dimension bound.  With an explicit witness list the
    result certifies only those modules.
    """
    if witnesses is None:
        witnesses = enumerate_indecomposables_nakayama(f.algebra)
    if not witnesses:
        raise AlgebraError("witness list must be nonempty")
    return all(pd_F_le(x, f, n) for x in witnesses)


# -- agreement of relative and absolute extension groups ------------------------


@dataclass
class AgreementReport:
    """Outcome of check_absolute_relative_agreement.

    orthogonality_failures lists (degree, dimension) pairs where the
    vanishing hypothesis fails; mismatches lists
    (side, sample_index, degree, relative_dim, absolute_dim) tuples.  ok is
    True when the hypotheses hold and no mismatch was found; a failed
    hypothesis is reported here, never raised.
    """

    generator_ok: bool
    cogenerator_ok: bool
    orthogonality_failures: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    comparisons: int = 0

    @property
    def hypothesis_ok(self) -> bool:
        return self.generator_ok and self.cogenerator_ok and not self.orthogonality_failures

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and not self.mismatches


def check_absolute_relative_agreement(
    m2: Module,
    m1: Module,
    k: int,
    sample: Sequence[Module],
) -> AgreementReport:
    """Check that extension-vanishing makes relative and absolute agree.

    Hypotheses: m2 generates (all projectives in add m2), m1 cogenerates
    (all injectives in add m1), and the extension groups of (m2, m1) vanish
    in degrees 1..k.  Conclusions checked on the sample, in degrees 1..k:
    the covariant functor of m2 gives relative extension groups of (c, m1)
    matching the absolute ones, and the contravariant functor of m1 does the
    same for (m2, d).  k=0 is vacuous.  Hypothesis failures are recorded in
    the report, not raised; conclusions are skipped when a hypothesis fails.
    """
    algebra = m2.algebra
    generator_ok = all(in_add(p, m2) for p in regular_module(algebra).summands)
    cogenerator_ok = all(in_add(i, m1) for i in cogenerator_module(algebra).summands)
    report = AgreementReport(generator_ok, cogenerator_ok)
    for i in range(1, k + 1):
        d = ext_dim(i, m2, m1)
        if d:
            report.orthogonality_failures.append((i, d))
    if not report.hypothesis_ok:
        return report
    f_cov = covariant_functor(m2)
    f_con = contravariant_functor(m1)
    for idx, c in enumerate(sample):
        for i in range(1, k + 1):
            rel = ext_F_dim(i, c, m1, f_cov)
            absolute = ext_dim(i, c, m1)
            report.comparisons += 1
            if rel != absolute:
                report.mismatches.append(("covariant", idx, i, rel, absolute))
    for idx, d_mod in enumerate(sample):
        for i in range(1, k + 1):
            rel = ext_F_dim(i, m2, d_mod, f_con)
            absolute = ext_dim(i, m2, d_mod)
            report.comparisons += 1
            if rel != absolute:
                report.mismatches.append(("contravariant", idx, i, rel, absolute))
    return report
