"""Command line front end.

Four subcommands share one flat ``key = value`` configuration format:

* ``check``       run a solvability criterion or a hypothesis check
* ``solve``       solve the Dirichlet problem, optionally inside constructed bounds
* ``bounds``      construct lower/upper bounds and verify them pointwise
* ``quadrature``  dump the refinement-family quadrature trail

Tabular results are CSV with ``#`` comment blocks (resolved configuration on
top, summary at the bottom); check and quadrature results are JSON lines.
Output is byte-reproducible: fixed default seed, sorted keys, no timestamps.

Exit codes: 0 success or convergent, 2 failure/divergent/domain error,
3 inconclusive or iteration limit, 4 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from typing import Sequence

from . import __version__
from .criteria import (
    CriterionReport,
    Verdict,
    check_lipschitz_bound,
    check_monotone_in_state,
    check_scaling_exponents,
    construct_bounds,
    construct_lower,
    family_quadrature,
    verify_lower,
    verify_upper,
)
from .criteria import DEFAULT_SEED, _resolve_family
from .errors import BracketViolation, ConfigError, CriterionNotSatisfied, TsdynError
from .model import DirichletProblem, Nonlinearity
from .solver import SolveConfig, Status, Strategy, solve
from .timescale import (QUANTUM_FAMILY_DEPTHS, UNIFORM_FAMILY_SIZES, TimeScale,
                        from_points, quantum, quantum_family, uniform, uniform_family)

_EXIT_OK = 0
_EXIT_FAIL = 2
_EXIT_UNDECIDED = 3
_EXIT_CONFIG = 4

_BOOL = {
    "true": True, "yes": True, "1": True,
    "false": False, "no": False, "0": False,
}


def _typed(convert, expected: str):
    """A reader: ``convert`` of the raw text, which it refuses by raising
    ``KeyError`` or ``ValueError``."""
    def read(raw: str):
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {raw!r}") from None
    return read


def _checked(read, ok, reason: str):
    """``read``, refusing a value ``v`` with ``not ok(v)`` for
    ``reason.format(v)``."""
    def check(raw: str):
        value = read(raw)
        if not ok(value):
            raise ValueError(reason.format(value))
        return value
    return check


def _one_of(*options: str):
    """A reader of one of ``options``, in any letter case."""
    listed = ", ".join(options[:-1]) + ("," if len(options) > 2 else "")
    return _checked(str.lower, options.__contains__,
                    f"expected {listed} or {options[-1]}, got {{!r}}")


_float = _checked(_typed(float, "a number"), math.isfinite, "must be finite, got {!r}")
_int = _typed(int, "an integer")
_floats = _checked(_typed(lambda raw: tuple(map(float, raw.split(","))),
                          "comma-separated numbers"),
                   lambda row: all(map(math.isfinite, row)), "must be finite, got {!r}")
_ints = _typed(lambda raw: tuple(map(int, raw.split(","))), "comma-separated integers")

#: The bound construction of each ``bounds.kind``.
_BOUNDS = {"pair": construct_bounds, "lower": construct_lower}

#: The sampled hypothesis check of each ``check.criterion``.
_SAMPLED_CHECKS = {
    "scaling": check_scaling_exponents,
    "monotone": check_monotone_in_state,
    "lipschitz": check_lipschitz_bound,
}

#: Every configuration entry: its reader and its default, ``...`` where the
#: runs that read the entry need it.  ``f.<i>.*`` is the row of every
#: component ``i``.
_ENTRIES = {
    "scale.kind": (_one_of("uniform", "quantum", "explicit"), ...),
    "scale.start": (_float, 0.0),
    "scale.end": (_float, 1.0),
    "scale.points": (_int, ...),
    "scale.q": (_float, ...),
    "scale.depth": (_int, ...),
    "scale.values": (_floats, ...),
    "f.count": (_checked(_int, lambda n: n >= 1, "need at least one component"), 1),
    "f.<i>.expr": (str, ...),
    "f.<i>.lambda": (_floats, None),
    "f.<i>.mu": (_floats, None),
    "bc.left": (_floats, (0.0,)),
    "bc.right": (_floats, (0.0,)),
    "solve.strategy": (_typed(lambda raw: Strategy(raw.strip().lower()),
                              "one of " + ", ".join(m.value for m in Strategy)),
                       Strategy.PICARD),
    "solve.tol_residual": (_checked(_float, lambda v: v >= 0.0, "must be >= 0, got {!r}"),
                           SolveConfig.tol_residual),
    "solve.max_iters": (_checked(_int, lambda n: n >= 0, "must be an integer >= 0, got {!r}"),
                        SolveConfig.max_iters),
    "solve.use_bounds": (_typed(lambda raw: _BOOL[raw.lower()], "a boolean"), True),
    "bounds.kind": (_one_of(*_BOUNDS), "pair"),
    "check.criterion": (_one_of("sufficient", "necessary", *_SAMPLED_CHECKS), "sufficient"),
    "check.eval_point": (_checked(_float, lambda v: v > 0.0, "must be positive, got {!r}"),
                         None),
    "check.samples": (_checked(_int, lambda n: n >= 0, "must be >= 0, got {!r}"), 0),
    "check.band": (_checked(_floats, lambda b: len(b) == 2 and 0.0 < b[0] < b[1],
                            "expected 'lo,hi' with 0 < lo < hi"), (0.1, 1.0)),
    "check.component": (_int, 1),
    "quadrature.weight": (_one_of("plain", "necessary", "envelope"), "plain"),
}
_F_KEY = re.compile(r"f\.([1-9]\d*)\.(expr|lambda|mu)")


def _row(key: str):
    """The row of the entry ``key`` in ``_ENTRIES``, ``None`` if unknown;
    ``f.<i>.*`` itself names no entry."""
    match = _F_KEY.fullmatch(key)
    if match:
        return _ENTRIES[f"f.<i>.{match[2]}"]
    return None if "<" in key else _ENTRIES.get(key)


def _parse(key: str, raw: str, line: int | None, read):
    """``raw`` as ``read`` parses it; a refusal is a configuration error
    naming ``key`` and ``line``.  A flag is keyed by its name."""
    try:
        return read(raw)
    except ValueError as exc:
        raise ConfigError(str(exc), key=key, line=line) from None


class Config:
    """Flat dotted-key configuration: each entry's raw text, its line, and
    its value as the entry's reader parsed it."""

    def __init__(self, entries: dict[str, tuple[str, int, object]]):
        self.entries = entries

    def __getitem__(self, key: str):
        """The value of the entry ``key``, else its default in the table; an
        absent entry without a default is missing."""
        if key in self.entries:
            return self.entries[key][2]
        default = _row(key)[1]
        if default is ...:
            raise ConfigError("missing required entry", key=key)
        return default

    def error(self, key: str, reason: str) -> ConfigError:
        """A configuration error naming the entry ``key`` and its line."""
        return ConfigError(reason, key=key, line=self.entries[key][1])


def read_config(path: str) -> Config:
    """The configuration in the file ``path``, every entry parsed and checked
    by its reader, whichever entries the command reads."""
    entries: dict[str, tuple[str, int, object]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno)
        if key in entries:
            raise ConfigError("duplicate entry", key=key, line=lineno)
        row = _row(key)
        if row is None:
            raise ConfigError("unknown entry", key=key, line=lineno)
        entries[key] = (value, lineno, _parse(key, value, lineno, row[0]))
    cfg = Config(entries)
    count = cfg["f.count"]
    for key in entries:
        match = _F_KEY.fullmatch(key)
        if match and int(match[1]) > count:
            raise cfg.error(key, f"component {match[1]} beyond f.count = {count}")
        if match and match[2] != "expr" and len(cfg[key]) != count:
            raise cfg.error(key, f"expected {count} degrees, got {len(cfg[key])}")
    component = cfg["check.component"]
    if not 1 <= component <= count:
        raise cfg.error("check.component", f"component {component} outside 1..{count}")
    return cfg


# --- model building ---------------------------------------------------------


def build_scale(cfg: Config) -> TimeScale:
    """The realization of the ``scale.*`` entries.  A refusal of the
    time-scale constructor is a configuration error naming the entry it
    refused; a bad interval names the end the file sets."""
    kind = cfg["scale.kind"]
    if kind == "uniform":
        build, keys = uniform, ("scale.start", "scale.end", "scale.points")
    elif kind == "quantum":
        build, keys = quantum, ("scale.q", "scale.depth")
    else:
        build, keys = from_points, ("scale.values",)
    args = [cfg[key] for key in keys]  # outside the try: a missing entry keeps its key
    try:
        return build(*args)
    except ConfigError as exc:
        if kind == "explicit":
            key = "scale.values"
        elif exc.key == "q":
            key = "scale.q"
        elif kind == "quantum":
            key = "scale.depth"  # too shallow, or deep enough to underflow
        elif exc.key == "n":
            key = "scale.points"
        else:
            key = "scale.start" if "scale.start" in cfg.entries else "scale.end"
        raise cfg.error(key, exc.reason) from None


def build_nonlinearities(cfg: Config) -> tuple[Nonlinearity, ...]:
    count = cfg["f.count"]
    out = []
    for i in range(1, count + 1):
        expr_key = f"f.{i}.expr"
        text = cfg[expr_key]
        try:
            fi = Nonlinearity.from_expression(
                text,
                arity=count,
                component_index=i,
                degree_low=cfg[f"f.{i}.lambda"],
                degree_high=cfg[f"f.{i}.mu"],
            )
        except TsdynError as exc:
            raise cfg.error(expr_key, str(exc))
        out.append(fi)
    return tuple(out)


def build_problem(cfg: Config, scale: TimeScale) -> DirichletProblem:
    f = build_nonlinearities(cfg)
    n = len(f)

    def bc(key: str) -> tuple[float, ...]:
        vec = cfg[key]
        if len(vec) == 1 and n > 1:
            vec = vec * n
        if len(vec) != n:
            raise cfg.error(key, f"expected {n} boundary values, got {len(vec)}")
        return vec

    left, right = bc("bc.left"), bc("bc.right")
    for i, (a, b) in enumerate(zip(left, right), start=1):
        if not math.isfinite(b - a):
            raise cfg.error("bc.right", f"bc.right - bc.left for component {i} "
                            f"must be finite, got {b!r} - {a!r}")
    return DirichletProblem(scale, f, left, right)


def _family(scale: TimeScale, override: str | None) -> list[TimeScale]:
    """The refinement family of ``scale``: quantum realizations of its base
    when it is a quantum scale, else uniform realizations of its span, at
    the ``--family`` ladder or the library's default one.  A ladder whose
    realizations the time-scale constructor refuses, too short for the
    classifier or not refining is a configuration error keyed ``--family``."""
    ladder = None if override is None else _parse("--family", override, None, _ints)
    try:
        if scale.q is not None:
            family = quantum_family(scale.q, ladder or QUANTUM_FAMILY_DEPTHS)
        else:
            family = uniform_family(scale.a, scale.sigma2_b, ladder or UNIFORM_FAMILY_SIZES)
        return _resolve_family(family)
    except ConfigError as exc:
        raise ConfigError(exc.reason, key="--family") from None


# --- output helpers ----------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _config_block(cfg: Config, args) -> list[str]:
    lines = [f"# tsdyn {__version__}", f"# command = {args.command}"]
    for key in sorted(cfg.entries):
        lines.append(f"# cfg.{key} = {cfg.entries[key][0]}")
    # of the CSV commands only solve registers a flag, --strategy
    if getattr(args, "strategy", None) is not None:
        lines.append(f"# override.strategy = {args.strategy}")
    return lines


def _table(ts: TimeScale, grids) -> tuple[list[str], list]:
    """The CSV header and columns: ``t``, then each component ``i`` of every
    ``(name, grid)`` in ``grids``, headed ``<name><i>``."""
    header, columns = ["t"], [ts.points]
    for name, grid in grids:
        for i in range(1, grid.n_components + 1):
            header.append(f"{name}{i}")
            columns.append(grid.component(i))
    return header, columns


def _csv(cfg, args, header: list[str], columns: list,
         summary: list[tuple[str, str]]) -> str:
    """The CSV text: config block, header, one row per point of the float
    arrays in ``columns``, then the summary lines."""
    lines = _config_block(cfg, args)
    lines.append(",".join(header))
    # "%.17g" % x is format(x, ".17g") for every float, nan and inf included
    row = ",".join(["%.17g"] * len(columns))
    lines.extend(row % values for values in zip(*(c.tolist() for c in columns)))
    for key, value in summary:
        lines.append(f"# {key} = {value}")
    return "\n".join(lines) + "\n"


def _json_lines(records: list[dict]) -> str:
    return "".join(
        json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        for rec in records
    )


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.CONVERGENT:
        return _EXIT_OK
    if verdict is Verdict.DIVERGENT:
        return _EXIT_FAIL
    return _EXIT_UNDECIDED


def _criterion_records(report: CriterionReport) -> list[dict]:
    records = []
    for i, verdict in enumerate(report.per_component, start=1):
        records.append({
            "component": i,
            "verdict": verdict.verdict.value,
            "limit": verdict.limit,
            "last": verdict.last_value,
            "stability": verdict.stability,
            "ratios": list(verdict.ratios),
            "positive": verdict.positive,
        })
    records.append({
        "overall": report.verdict.value,
        "points": list(report.scale_sizes),
        "notes": list(report.notes),
    })
    return records


# --- command handlers ----------------------------------------------------------


def _eval_point(cfg: Config, necessary: bool) -> float | None:
    """``check.eval_point``, where the necessary criterion pins the state, or
    ``None`` if unset; a run of any other criterion refuses the entry."""
    point = cfg["check.eval_point"]
    if point is not None and not necessary:
        raise cfg.error("check.eval_point", "applies only to the necessary criterion")
    return point


def _cmd_check(cfg: Config, args) -> int:
    scale = build_scale(cfg)
    criterion = cfg["check.criterion"]
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    f = build_nonlinearities(cfg)
    override = _eval_point(cfg, criterion == "necessary")
    if criterion in ("sufficient", "necessary"):
        # the plain quadrature is the sufficient criterion's
        weight = "necessary" if criterion == "necessary" else "plain"
        report = family_quadrature(f, _family(scale, args.family), weight=weight,
                                   eval_point_override=override)
        _emit(_json_lines(_criterion_records(report)), args.out)
        return _verdict_exit(report.verdict)
    component = cfg["check.component"]
    # absent or 0 leaves each check its own default sample count
    options = {"samples": cfg["check.samples"]} if cfg["check.samples"] else {}
    if criterion == "lipschitz":
        options["band"] = cfg["check.band"]
    report = _SAMPLED_CHECKS[criterion](f[component - 1], scale, seed=seed, **options)
    _emit(_json_lines([dataclasses.asdict(report)]), args.out)
    # a Lipschitz estimate has no verdict to fail
    return _EXIT_OK if getattr(report, "ok", True) else _EXIT_FAIL


def _cmd_solve(cfg: Config, args) -> int:
    problem = build_problem(cfg, build_scale(cfg))
    if args.strategy is not None:
        strategy = _parse("--strategy", args.strategy, None, _ENTRIES["solve.strategy"][0])
    else:
        strategy = cfg["solve.strategy"]
    brackets = refused = None
    if cfg["solve.use_bounds"]:
        try:
            brackets = construct_bounds(problem).pair
        except CriterionNotSatisfied as exc:
            refused = exc
    config = SolveConfig(tol_residual=cfg["solve.tol_residual"],
                         max_iters=cfg["solve.max_iters"])
    try:
        report = solve(problem, strategy=strategy, brackets=brackets, config=config)
    except BracketViolation as exc:  # a monotone run needs the refused bounds
        if refused is None:
            raise
        raise BracketViolation(exc.index, f"{exc}; bounds refused: {refused}") from exc
    notes = () if refused is None else (f"solved without bounds: {refused}",)
    grids = [("u", report.solution)]
    if brackets is not None:
        grids += [("alpha", brackets[0]), ("beta", brackets[1])]
    header, columns = _table(problem.scale, grids)
    summary = [
        ("status", report.status.value),
        ("strategy", report.strategy.value),
        ("iterations", str(report.iterations)),
        ("residual", _fmt(report.final_residual)),
        ("defect", _fmt(report.defect)),
        ("bracket_respected", str(report.bracket_respected).lower()),
    ]
    summary.extend(("note", note) for note in notes + report.notes)
    _emit(_csv(cfg, args, header, columns, summary), args.out)
    if report.status is Status.CONVERGED:
        return _EXIT_OK
    if report.status in (Status.MAX_ITERS, Status.STALLED):
        return _EXIT_UNDECIDED
    return _EXIT_FAIL


def _cmd_bounds(cfg: Config, args) -> int:
    problem = build_problem(cfg, build_scale(cfg))
    pair = _BOUNDS[cfg["bounds.kind"]](problem)
    grids = [("alpha", pair.alpha)]
    if pair.beta is not None:
        grids.append(("beta", pair.beta))
    header, columns = _table(problem.scale, grids)
    summary = []
    for name, value in sorted(pair.constants.items()):
        if isinstance(value, tuple):
            for i, v in enumerate(value, start=1):
                summary.append((f"{name}.{i}", _fmt(v)))
        else:
            summary.append((name, _fmt(value)))
    ok = True
    for name, verify, grid in (("verify_lower", verify_lower, pair.alpha),
                               ("verify_upper", verify_upper, pair.beta)):
        if grid is not None:
            verdict = verify(problem, grid)
            summary.append((f"{name}.ok", str(verdict.ok).lower()))
            summary.append((f"{name}.worst", _fmt(verdict.worst)))
            ok &= verdict.ok
    summary.extend(("note", note) for note in pair.notes)
    _emit(_csv(cfg, args, header, columns, summary), args.out)
    return _EXIT_OK if ok else _EXIT_FAIL


def _cmd_quadrature(cfg: Config, args) -> int:
    scale = build_scale(cfg)
    f = build_nonlinearities(cfg)
    weight = cfg["quadrature.weight"]
    override = _eval_point(cfg, weight == "necessary")
    report = family_quadrature(f, _family(scale, args.family), weight=weight,
                               eval_point_override=override)
    records = [
        {"points": size, "integrals": [trail[m] for trail in report.trails]}
        for m, size in enumerate(report.scale_sizes)
    ]
    records.extend(_criterion_records(report))
    _emit(_json_lines(records), args.out)
    return _verdict_exit(report.verdict)


# --- entry point -----------------------------------------------------------------


#: Each subcommand's handler, help line and the flags it reads besides ``--out``.
_COMMANDS = {
    "check": (_cmd_check, "run a solvability criterion or hypothesis check",
              ("seed", "family")),
    "solve": (_cmd_solve, "solve the Dirichlet problem", ("strategy",)),
    "bounds": (_cmd_bounds, "construct and verify lower/upper bounds", ()),
    "quadrature": (_cmd_quadrature, "dump the refinement-family quadrature trail",
                   ("family",)),
}

_FLAGS = {
    "seed": {"type": int, "help": "seed for sampled checks"},
    "strategy": {"help": "override the solve strategy"},
    "family": {"help": "override the refinement family (sizes or depths)"},
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="tsdyn",
        description="Dirichlet problems on finite time-scale realizations",
    )
    parser.add_argument("--version", action="version", version=f"tsdyn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to a key = value configuration file")
        p.add_argument("--out", default=None, help="write results to this file")
        for flag in flags:
            p.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return _EXIT_OK if exc.code in (0, None) else _EXIT_CONFIG
    try:
        cfg = read_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"tsdyn: configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except TsdynError as exc:
        print(f"tsdyn: {exc}", file=sys.stderr)
        return _EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
