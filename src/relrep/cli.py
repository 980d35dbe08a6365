"""Command-line front end.

Parses algebra files and module expressions, dispatches the library
checkers, and prints a human-readable report followed by stable
machine-readable ``## key = value`` lines.  Exit codes form a fixed
contract: 0 for success or a true verdict, 1 for a false verdict or a
failed search, 2 for parse errors, 3 for an internal equivalence
violation, 4 for a failed hypothesis or precondition, 5 for an internal
error, and 6 when the work ran out of memory or recursion depth, which is
never a verdict.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .cache import release
from .exact_linalg import rational
from .path_algebra import (
    AlgebraError,
    AlgebraPresentation,
    Arrow,
    InternalError,
    Path,
    Quiver,
    Relation,
)
from .rep import ExpressionError, parse_module_expression
from .homology import dtr, ext1_space, ext_dim, trd
from .relhom import (
    F_subgroup_dim,
    SubBifunctor,
    contravariant_functor,
    covariant_functor,
    ext_F_dim,
    is_F_exact,
)
from .endo import (
    check_maximal_orthogonal,
    check_prop_gldim,
    end_ring,
    gldim_le,
    search_exchange_sequence,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_EQUIVALENCE = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5
EXIT_RESOURCE = 6


class FileFormatError(AlgebraError):
    """A malformed algebra file, with the offending location."""

    def __init__(self, message: str, origin: str = "", line: int = 0) -> None:
        where = f"{origin}:{line}: " if origin else ""
        super().__init__(f"{where}{message}")


# ---------------------------------------------------------------------------
# algebra files


@dataclass
class AlgebraFile:
    """Parsed contents of an algebra file.

    Arrows are stored with 0-based endpoints; the text format is 1-based
    to match module expressions like ``P(1)``.  Relations are either a
    monomial truncation bound or explicit lines of (coefficient, arrow
    name list) terms together with a nilpotency bound.
    """

    vertex_count: int
    arrows: list[tuple[str, int, int]] = field(default_factory=list)
    truncate: int | None = None
    relation_lines: list[list[tuple]] = field(default_factory=list)
    bound: int | None = None
    name: str = ""

    def build(self) -> AlgebraPresentation:
        quiver = Quiver(
            self.vertex_count,
            [Arrow(n, s, t) for n, s, t in self.arrows],
        )
        if self.truncate is not None:
            return AlgebraPresentation.truncated(
                quiver, self.truncate, name=self.name
            )
        relations = []
        for terms in self.relation_lines:
            built = []
            for coeff, arrow_names in terms:
                built.append((coeff, _path_from_names(quiver, arrow_names)))
            relations.append(Relation(built))
        return AlgebraPresentation(
            quiver, relations, self.bound, name=self.name
        )

    def emit(self) -> str:
        lines = ["[quiver]", f"vertices = {self.vertex_count}"]
        for name, src, tgt in self.arrows:
            lines.append(f"{name}: {src + 1} -> {tgt + 1}")
        lines.append("")
        lines.append("[relations]")
        if self.truncate is not None:
            lines.append(f"truncate = {self.truncate}")
        else:
            lines.append(f"bound = {self.bound}")
            for terms in self.relation_lines:
                parts = [
                    f"{coeff}*{'.'.join(arrow_names)}"
                    for coeff, arrow_names in terms
                ]
                lines.append(f"rel = {' + '.join(parts)}")
        if self.name:
            lines.append("")
            lines.append("[meta]")
            lines.append(f"name = {self.name}")
        return "\n".join(lines) + "\n"


def _path_from_names(quiver: Quiver, arrow_names: list[str]) -> Path:
    indices = []
    for name in arrow_names:
        idx = quiver.arrow_index.get(name)
        if idx is None:
            raise FileFormatError(f"unknown arrow {name!r} in relation")
        indices.append(idx)
    source = quiver.arrows[indices[0]].source
    at = source
    for idx in indices:
        arrow = quiver.arrows[idx]
        if arrow.source != at:
            raise FileFormatError(
                f"arrows {'.'.join(arrow_names)} do not compose"
            )
        at = arrow.target
    return Path(source, at, tuple(indices))


_ARROW_LINE = re.compile(r"^(\w+)\s*:\s*(\d+)\s*->\s*(\d+)$")
_KEY_VALUE = re.compile(r"^(\w+)\s*=\s*(.*)$")
_SECTION = re.compile(r"^\[(\w+)\]$")


def parse_algebra_file(text: str, origin: str = "<input>") -> AlgebraFile:
    vertex_count: int | None = None
    arrows: list[tuple[str, int, int]] = []
    truncate: int | None = None
    bound: int | None = None
    relation_lines: list[list[tuple]] = []
    relation_origins: list[int] = []
    name = ""
    section = None

    def fail(message: str, line_no: int):
        raise FileFormatError(message, origin, line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            section = m.group(1)
            if section not in ("quiver", "relations", "meta"):
                fail(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            fail("content before the first section header", line_no)
        kv = _KEY_VALUE.match(line)
        if section == "quiver":
            if kv and kv.group(1) == "vertices":
                try:
                    vertex_count = int(kv.group(2))
                except ValueError:
                    fail("vertices must be an integer", line_no)
                continue
            m = _ARROW_LINE.match(line)
            if not m:
                fail(f"expected `vertices = N` or `id: src -> tgt`, got {line!r}", line_no)
            if vertex_count is None:
                fail("arrow listed before the vertices count", line_no)
            src, tgt = int(m.group(2)), int(m.group(3))
            if not (1 <= src <= vertex_count and 1 <= tgt <= vertex_count):
                fail(f"arrow endpoint out of range 1..{vertex_count}", line_no)
            arrows.append((m.group(1), src - 1, tgt - 1))
        elif section == "relations":
            if not kv:
                fail(f"expected `truncate = N`, `bound = N` or `rel = ...`, got {line!r}", line_no)
            key, value = kv.group(1), kv.group(2).strip()
            if key == "truncate":
                try:
                    truncate = int(value)
                except ValueError:
                    fail("truncate must be an integer", line_no)
            elif key == "bound":
                try:
                    bound = int(value)
                except ValueError:
                    fail("bound must be an integer", line_no)
            elif key == "rel":
                terms = []
                for part in value.split("+"):
                    part = part.strip()
                    if not part:
                        fail("empty term in relation", line_no)
                    if "*" in part:
                        coeff_text, path_text = part.split("*", 1)
                        try:
                            coeff = rational(coeff_text.strip())
                        except (ValueError, ZeroDivisionError):
                            fail(f"bad coefficient {coeff_text!r}", line_no)
                    else:
                        coeff, path_text = rational(1), part
                    arrow_names = [p.strip() for p in path_text.strip().split(".")]
                    if not all(arrow_names):
                        fail(f"bad path {path_text!r}", line_no)
                    terms.append((coeff, arrow_names))
                relation_lines.append(terms)
                relation_origins.append(line_no)
            else:
                fail(f"unknown relations key {key!r}", line_no)
        else:  # meta
            if not kv or kv.group(1) != "name":
                fail(f"expected `name = ...`, got {line!r}", line_no)
            name = kv.group(2).strip()

    if vertex_count is None:
        raise FileFormatError("missing [quiver] section with a vertices count", origin)
    if truncate is None and not relation_lines:
        raise FileFormatError("missing relations: give `truncate = N` or `rel = ...` lines", origin)
    if truncate is not None and relation_lines:
        raise FileFormatError("give either `truncate = N` or `rel = ...` lines, not both", origin)
    if relation_lines and bound is None:
        raise FileFormatError("explicit relations need a `bound = N` line", origin)
    if relation_lines:
        quiver = Quiver(vertex_count, [Arrow(n, s, t) for n, s, t in arrows])
        for terms, line_no in zip(relation_lines, relation_origins):
            for _, arrow_names in terms:
                try:
                    _path_from_names(quiver, arrow_names)
                except FileFormatError as exc:
                    raise FileFormatError(str(exc), origin, line_no) from None
    return AlgebraFile(
        vertex_count=vertex_count,
        arrows=arrows,
        truncate=truncate,
        relation_lines=relation_lines,
        bound=bound,
        name=name,
    )


def load_algebra(spec: str) -> tuple[AlgebraFile, AlgebraPresentation]:
    """Load `builtin:<name>` from the bundled data or a file path."""
    if spec.startswith("builtin:"):
        stem = spec.split(":", 1)[1]
        try:
            text = (
                resources.files("relrep.data")
                .joinpath(f"{stem}.alg")
                .read_text(encoding="utf-8")
            )
        except FileNotFoundError:
            raise FileFormatError(f"no bundled algebra named {stem!r}")
        origin = spec
    else:
        try:
            with open(spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FileFormatError(f"cannot read {spec!r}: {exc}")
        origin = spec
    parsed = parse_algebra_file(text, origin=origin)
    return parsed, parsed.build()


# ---------------------------------------------------------------------------
# reports


class Report:
    """Human lines first, then stable machine-readable `##` lines."""

    def __init__(self, command: str) -> None:
        self.human: list[str] = []
        self.machine: list[tuple[str, object]] = [("command", command)]

    def say(self, text: str) -> None:
        self.human.append(text)

    def put(self, key: str, value) -> None:
        self.machine.append((key, value))

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "skipped"
        return str(value)

    def flush(self, stream=None) -> None:
        stream = stream or sys.stdout
        for line in self.human:
            print(line, file=stream)
        for key, value in self.machine:
            print(f"## {key} = {self._format(value)}", file=stream)


def _parse_functor(algebra: AlgebraPresentation, text: str) -> SubBifunctor:
    if text.startswith("FM:"):
        return covariant_functor(parse_module_expression(algebra, text[3:]))
    if text.startswith("F^M:"):
        return contravariant_functor(parse_module_expression(algebra, text[4:]))
    raise FileFormatError(
        "functor must look like FM:<module-expr> (covariant) or F^M:<module-expr> (contravariant)"
    )


# ---------------------------------------------------------------------------
# commands


def cmd_check_maxortho(args) -> int:
    parsed, algebra = args.loaded
    module = parse_module_expression(algebra, args.module)
    report = Report("check-maxortho")
    report.put("algebra", algebra.name or args.algebra)
    report.put("module", args.module)
    report.put("bound", args.l)
    report.put("mode", args.mode)
    result = check_maximal_orthogonal(module, args.l, mode=args.mode)
    verdict = result.verdict
    report.say(
        f"maximal {args.l}-orthogonal [{args.mode}]: {'yes' if verdict else 'no'}"
    )
    if args.mode == "corollary":
        by_name = {c.name: c for c in result.clauses}
        gen = by_name["generator"].passed and by_name["cogenerator"].passed
        clauses = [
            ("generator-cogenerator", gen, ""),
            (
                "selforthogonality",
                by_name["selforthogonality"].passed,
                by_name["selforthogonality"].detail,
            ),
            (
                "endomorphism-gldim",
                by_name["endomorphism-gldim"].passed,
                by_name["endomorphism-gldim"].detail,
            ),
        ]
    else:
        clauses = [(c.name, c.passed, c.detail) for c in result.clauses]
    for cname, passed, detail in clauses:
        report.put(f"clause.{cname}", "pass" if passed else "fail")
        if not passed:
            report.say(f"  failing clause: {cname}" + (f" ({detail})" if detail else ""))
            if detail:
                report.put(f"clause.{cname}.detail", detail)
    report.put("verdict", verdict)
    report.flush()
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_ext(args) -> int:
    parsed, algebra = args.loaded
    x = parse_module_expression(algebra, args.x)
    y = parse_module_expression(algebra, args.y)
    if args.max_degree < 1:
        raise FileFormatError("--max-degree must be at least 1")
    report = Report("ext")
    report.put("algebra", algebra.name or args.algebra)
    report.put("x", args.x)
    report.put("y", args.y)
    if args.functor:
        functor = _parse_functor(algebra, args.functor)
        report.put("functor", args.functor)
        dims = [
            ext_F_dim(i, x, y, functor) for i in range(1, args.max_degree + 1)
        ]
        label = "relative extension dimensions"
    else:
        report.put("functor", "absolute")
        dims = [ext_dim(i, x, y) for i in range(1, args.max_degree + 1)]
        label = "extension dimensions"
    report.say(f"{label} in degrees 1..{args.max_degree}: {dims}")
    for i, d in enumerate(dims, start=1):
        report.put(f"ext[{i}]", d)
    report.flush()
    return EXIT_OK


def cmd_verify_theorem(args) -> int:
    parsed, algebra = args.loaded
    m1 = parse_module_expression(algebra, args.m1)
    m2 = parse_module_expression(algebra, args.m2)
    report = Report("verify-theorem")
    report.put("algebra", algebra.name or args.algebra)
    report.put("m1", args.m1)
    report.put("m2", args.m2)
    report.put("bound", args.l)
    result = verify_theorem(m1, m2, args.l)
    for clause in result.hypotheses:
        report.put(f"hypothesis.{clause.name.replace(' ', '-')}", "pass" if clause.passed else "fail")
    if not result.hypotheses_ok:
        failing = [c.name for c in result.hypotheses if not c.passed]
        report.say(f"hypothesis failure: {', '.join(failing)}")
        report.put("hypotheses", "fail")
        report.put("verdict", False)
        report.flush()
        return EXIT_HYPOTHESIS
    report.put("hypotheses", "ok")
    labels = {
        "a": "relative extension groups vanish through the bound, both functors",
        "b": "second module is cotilting for the contravariant functor of the first",
        "c": "first module satisfies the dual coresolution conditions for the covariant functor of the second",
        "d": "morphism bimodule is cotilting over both endomorphism sides",
    }
    for key, flag in zip("abcd", result.flags):
        report.say(f"condition ({key}) — {labels[key]}: {flag}")
        report.put(f"condition.{key}", flag)
    report.put("agree", result.conditions_agree)
    report.put("verdict", result.all_true)
    if not result.conditions_agree:
        report.say("EQUIVALENCE VIOLATION: the four conditions disagree")
        report.flush()
        return EXIT_EQUIVALENCE
    report.say(f"all four equivalent conditions: {result.all_true}")
    report.flush()
    return EXIT_OK if result.all_true else EXIT_FALSE


def cmd_exchange(args) -> int:
    parsed, algebra = args.loaded
    base = parse_module_expression(algebra, args.base)
    x1 = parse_module_expression(algebra, args.x1)
    x2 = parse_module_expression(algebra, args.x2)
    report = Report("exchange")
    report.put("algebra", algebra.name or args.algebra)
    report.put("base", args.base)
    report.put("x1", args.x1)
    report.put("x2", args.x2)
    report.put("max-len", args.max_len)
    result = search_exchange_sequence(base, x1, x2, args.max_len)
    report.put("found", result.found)
    report.put("trivial", result.trivial)
    if not result.found:
        report.say(f"no exchange sequence: {result.reason}")
        report.put("reason", result.reason)
        report.flush()
        return EXIT_FALSE
    dims = [t.dims for t in result.terms]
    report.say(f"exchange sequence found with {result.length} middle terms")
    report.say(f"term dimension vectors: {dims}")
    report.put("length", result.length)
    for i, d in enumerate(dims):
        report.put(f"term[{i}]", d)
    for cname, ok in result.conditions.items():
        key = cname.replace(", ", ",").replace(" ", "-")
        report.put(f"condition.{key}", ok)
        report.say(f"  verified: {cname} = {ok}")
    report.flush()
    return EXIT_OK


def cmd_dtr(args) -> int:
    parsed, algebra = args.loaded
    x = parse_module_expression(algebra, args.module)
    report = Report("dtr")
    report.put("algebra", algebra.name or args.algebra)
    report.put("module", args.module)
    result = trd(x) if args.inverse else dtr(x)
    direction = "inverse translate" if args.inverse else "translate"
    report.say(f"{direction} dimension vector: {result.dims}")
    report.put("direction", "inverse" if args.inverse else "forward")
    report.put("dims", result.dims)
    report.flush()
    return EXIT_OK


def cmd_gldim_endo(args) -> int:
    parsed, algebra = args.loaded
    module = parse_module_expression(algebra, args.module)
    report = Report("gldim-endo")
    report.put("algebra", algebra.name or args.algebra)
    report.put("module", args.module)
    report.put("bound", args.bound)
    endo = end_ring(module)
    verdict = gldim_le(endo, args.bound)
    report.say(
        f"endomorphism algebra dimension {endo.dim}; "
        f"global dimension <= {args.bound}: {verdict}"
    )
    report.put("end-dim", endo.dim)
    report.put("verdict", verdict)
    report.flush()
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_relexact(args) -> int:
    parsed, algebra = args.loaded
    quotient = parse_module_expression(algebra, args.quotient)
    sub = parse_module_expression(algebra, args.sub)
    functor = _parse_functor(algebra, args.functor)
    report = Report("relexact")
    report.put("algebra", algebra.name or args.algebra)
    report.put("quotient", args.quotient)
    report.put("sub", args.sub)
    report.put("functor", args.functor)
    space = ext1_space(quotient, sub)
    report.put("ext1-dim", space.dim)
    subgroup = F_subgroup_dim(quotient, sub, functor)
    report.put("subgroup-dim", subgroup)
    if args.class_coords is None:
        coords = [rational(0)] * space.dim
    else:
        pieces = [p for p in args.class_coords.split(",") if p.strip()]
        try:
            coords = [rational(p.strip()) for p in pieces]
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"bad class coordinates {args.class_coords!r}")
        if len(coords) != space.dim:
            raise FileFormatError(
                f"expected {space.dim} class coordinates, got {len(coords)}"
            )
    report.put("class", ",".join(str(c) for c in coords) or "-")
    sequence = space.realize(coords)
    verdict = is_F_exact(sequence, functor)
    report.say(
        f"extension group dimension {space.dim}, functor subgroup dimension {subgroup}"
    )
    report.say(f"the chosen extension is exact for the functor: {verdict}")
    report.put("f-exact", verdict)
    report.flush()
    return EXIT_OK if verdict else EXIT_FALSE


def cmd_prop_gldim(args) -> int:
    parsed, algebra = args.loaded
    module = parse_module_expression(algebra, args.module)
    witnesses = None
    if args.witness:
        witnesses = [parse_module_expression(algebra, w) for w in args.witness]
    report = Report("prop-gldim")
    report.put("algebra", algebra.name or args.algebra)
    report.put("module", args.module)
    report.put("bound", args.l)
    result = check_prop_gldim(module, args.l, witnesses=witnesses)
    report.put("generator-cogenerator", result.generator_cogenerator)
    if not result.generator_cogenerator:
        report.say("hypothesis failure: the module is not a generator-cogenerator")
        report.flush()
        return EXIT_HYPOTHESIS
    endo_b, cov_b, con_b = result.values
    report.say(
        f"endomorphism bound <= {args.l + 2}: {endo_b}; "
        f"covariant relative bound <= {args.l}: {cov_b}; "
        f"contravariant relative bound <= {args.l}: {con_b}"
    )
    report.put("endo-bound", endo_b)
    report.put("covariant-bound", cov_b)
    report.put("contravariant-bound", con_b)
    report.put("agree", result.agree)
    if not result.agree:
        report.say("EQUIVALENCE VIOLATION: the three bounds disagree")
        report.flush()
        return EXIT_EQUIVALENCE
    report.say("the three bounds agree")
    report.flush()
    return EXIT_OK


def cmd_show_algebra(args) -> int:
    parsed, algebra = args.loaded
    sys.stdout.write(parsed.emit())
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it as it is)."""
    parser = argparse.ArgumentParser(
        prog="relrep",
        description=(
            "Exact homological checkers for representations of bound quiver "
            "algebras.  ALGEBRA arguments take a file path or builtin:<name> "
            "(bundled: builtin:cyclic3)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("algebra", help="algebra file path or builtin:<name>")
        return p

    p = add("check-maxortho", cmd_check_maxortho, "check maximal orthogonality of a module")
    p.add_argument("module", help="module expression, e.g. 'P(1)+S(2)/rad^2'")
    p.add_argument("--l", type=int, required=True, help="orthogonality bound")
    p.add_argument("--mode", choices=("corollary", "enumeration"), default="corollary")
    p.add_argument("--seed", type=int, default=0, help="ignored: nothing is randomized")

    p = add("ext", cmd_ext, "extension group dimensions, absolute or relative")
    p.add_argument("x", help="first module expression")
    p.add_argument("y", help="second module expression")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument(
        "--functor",
        help="FM:<expr> for the covariant functor, F^M:<expr> for the contravariant one",
    )

    p = add("verify-theorem", cmd_verify_theorem, "run the four-condition equivalence check")
    p.add_argument("m1", help="first module expression")
    p.add_argument("m2", help="second module expression")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="ignored: nothing is randomized")

    p = add("exchange", cmd_exchange, "search for an exchange sequence between two complements")
    p.add_argument("base", help="common summand module expression")
    p.add_argument("x1", help="target complement expression")
    p.add_argument("x2", help="starting complement expression")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="ignored: nothing is randomized")

    p = add("dtr", cmd_dtr, "translate of a module (dual of the transpose)")
    p.add_argument("module", help="module expression")
    p.add_argument("--inverse", action="store_true", help="inverse translate instead")

    p = add("gldim-endo", cmd_gldim_endo, "bounded global-dimension query for an endomorphism algebra")
    p.add_argument("module", help="module expression")
    p.add_argument("--bound", type=int, required=True)

    p = add("relexact", cmd_relexact, "is a chosen extension exact for a functor")
    p.add_argument("quotient", help="quotient module expression")
    p.add_argument("sub", help="submodule expression")
    p.add_argument("--functor", required=True, help="FM:<expr> or F^M:<expr>")
    p.add_argument(
        "--class",
        dest="class_coords",
        help="comma-separated rational coordinates of the extension class (default: the split class)",
    )

    p = add("prop-gldim", cmd_prop_gldim, "three-way global-dimension comparison")
    p.add_argument("module", help="module expression")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--witness", action="append", help="restrict relative bounds to these test modules (repeatable)")
    p.add_argument("--seed", type=int, default=0, help="ignored: nothing is randomized")

    add("show-algebra", cmd_show_algebra, "parse an algebra file and re-emit it canonically")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.loaded = None
    try:
        args.loaded = load_algebra(args.algebra)
        return args.func(args)
    except (FileFormatError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalError as exc:
        # the message already reads "internal error in <layer>: ..."
        print(str(exc), file=sys.stderr)
        return EXIT_INTERNAL
    except AlgebraError as exc:
        # remaining library rejections are violated preconditions
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (MemoryError, RecursionError) as exc:
        # the input was too large to decide here: no verdict, false included
        detail = " ".join(str(exc).split()) or "out of memory"
        print(f"resource limit: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_RESOURCE
    finally:
        # the algebra, its opposite and their memoized modules point at each
        # other: dropping the two memos lets reference counting free them
        if args.loaded is not None:
            release(args.loaded[1], "opposite")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
