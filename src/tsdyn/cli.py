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
from .criteria import DEFAULT_SEED, _refinement_family
from .errors import (
    BracketViolation,
    ConfigError,
    CriterionNotSatisfied,
    ShapeViolation,
    TsdynError,
)
from .model import DirichletProblem, Nonlinearity
from .solver import SolveConfig, Status, Strategy, solve
from .timescale import TimeScale, from_points, quantum, uniform

_EXIT_OK = 0
_EXIT_FAIL = 2
_EXIT_UNDECIDED = 3
_EXIT_CONFIG = 4

_BOOL = {
    "true": True, "yes": True, "1": True,
    "false": False, "no": False, "0": False,
}

_EXACT_KEYS = {
    "scale.kind", "scale.start", "scale.end", "scale.points",
    "scale.q", "scale.depth", "scale.values",
    "f.count", "bc.left", "bc.right",
    "solve.strategy", "solve.tol_residual", "solve.max_iters", "solve.use_bounds",
    "bounds.kind",
    "check.criterion", "check.eval_point", "check.samples",
    "check.band", "check.component",
    "quadrature.weight",
}
_F_KEY = re.compile(r"f\.[1-9]\d*\.(expr|lambda|mu)$")


class Config:
    """Flat dotted-key configuration with typed, error-reporting access."""

    def __init__(self, entries: dict[str, tuple[str, int | None]]):
        self.entries = entries

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def line(self, key: str) -> int | None:
        return self.entries[key][1] if key in self.entries else None

    def _read(self, key: str, default, convert, expected: str):
        """``convert`` applied to the entry ``key``, or ``default`` when the
        entry is absent; an absent entry without a default is missing."""
        if key not in self.entries:
            if default is None:
                raise ConfigError("missing required entry", key=key)
            return default
        raw = self.entries[key][0]
        try:
            return convert(raw)
        except (KeyError, ValueError):
            raise self.error(key, f"expected {expected}, got {raw!r}")

    def get_str(self, key: str, default: str | None = None) -> str:
        return self._read(key, default, str, "text")

    def get_float(self, key: str, default: float | None = None) -> float:
        return self._read(key, default, float, "a number")

    def get_int(self, key: str, default: int | None = None) -> int:
        return self._read(key, default, int, "an integer")

    def get_bool(self, key: str, default: bool | None = None) -> bool:
        return self._read(key, default, lambda raw: _BOOL[raw.lower()], "a boolean")

    def get_floats(self, key: str, default: Sequence[float] | None = None) -> tuple[float, ...]:
        return self._read(key, default, lambda raw: tuple(map(float, raw.split(","))),
                          "comma-separated numbers")

    def get_ints(self, key: str, default: Sequence[int] | None = None) -> tuple[int, ...]:
        return self._read(key, default, lambda raw: tuple(map(int, raw.split(","))),
                          "comma-separated integers")

    def get_enum(self, key: str, enum_cls, default=None):
        options = ", ".join(m.value for m in enum_cls)
        return self._read(key, default, lambda raw: enum_cls(raw.strip().lower()),
                          f"one of {options}")

    def error(self, key: str, reason: str) -> ConfigError:
        """A configuration error naming the entry ``key`` and its line."""
        return ConfigError(reason, key=key, line=self.line(key))

    def library_error(self, exc: ConfigError, section: str) -> ConfigError:
        """``exc``, raised by the library for its parameter ``exc.key``, as an
        error of the entry ``section.<key>`` and its line."""
        return self.error(f"{section}.{exc.key}", exc.reason)


def _flag(name: str, value: str) -> Config:
    """A command-line flag as a one-entry configuration, so its value goes
    through the same typed reader as the file's entries."""
    return Config({name: (value, None)})


def read_config(path: str) -> Config:
    entries: dict[str, tuple[str, int]] = {}
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
        if key not in _EXACT_KEYS and not _F_KEY.fullmatch(key):
            raise ConfigError("unknown entry", key=key, line=lineno)
        entries[key] = (value, lineno)
    return Config(entries)


# --- model building ---------------------------------------------------------


def build_scale(cfg: Config) -> TimeScale:
    kind = cfg.get_str("scale.kind").strip().lower()
    if kind == "uniform":
        return uniform(
            cfg.get_float("scale.start", 0.0),
            cfg.get_float("scale.end", 1.0),
            cfg.get_int("scale.points"),
        )
    if kind == "quantum":
        return quantum(cfg.get_float("scale.q"), cfg.get_int("scale.depth"))
    if kind == "explicit":
        return from_points(cfg.get_floats("scale.values"))
    raise cfg.error("scale.kind",
                    f"expected uniform, quantum, or explicit, got {kind!r}")


def build_nonlinearities(cfg: Config) -> tuple[Nonlinearity, ...]:
    count = cfg.get_int("f.count", 1)
    if count < 1:
        raise cfg.error("f.count", "need at least one component")
    out = []
    for i in range(1, count + 1):
        expr_key = f"f.{i}.expr"
        text = cfg.get_str(expr_key)
        try:
            fi = Nonlinearity.from_expression(
                text,
                arity=count,
                component_index=i,
                degree_low=cfg.get_floats(f"f.{i}.lambda", (0.0,) * count),
                degree_high=cfg.get_floats(f"f.{i}.mu", (0.0,) * count),
            )
        except TsdynError as exc:
            raise cfg.error(expr_key, str(exc))
        out.append(fi)
    return tuple(out)


def build_problem(cfg: Config, scale: TimeScale) -> DirichletProblem:
    f = build_nonlinearities(cfg)
    n = len(f)

    def bc(key: str) -> tuple[float, ...]:
        vec = cfg.get_floats(key, (0.0,))
        if len(vec) == 1 and n > 1:
            vec = vec * n
        if len(vec) != n:
            raise cfg.error(key, f"expected {n} boundary values, got {len(vec)}")
        return vec

    return DirichletProblem(scale, f, bc("bc.left"), bc("bc.right"))


def _family(scale: TimeScale, override: str | None) -> list[TimeScale]:
    """The refinement family of ``scale``: the ``--family`` ladder, else the
    library default for the scale's kind."""
    if override is None:
        return _refinement_family(scale)
    ladder = _flag("--family", override).get_ints("--family")
    return _refinement_family(scale, ladder, ladder)


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
    for name in ("seed", "strategy", "family"):
        # a subcommand's namespace holds only the flags it registers
        value = getattr(args, name, None)
        if value is not None:
            lines.append(f"# override.{name} = {value}")
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
    if "check.eval_point" not in cfg:
        return None
    if not necessary:
        raise cfg.error("check.eval_point", "applies only to the necessary criterion")
    point = cfg.get_float("check.eval_point")
    if not point > 0.0:
        raise cfg.error("check.eval_point", f"must be positive, got {point!r}")
    return point


#: The sampled hypothesis check of each ``check.criterion``.
_SAMPLED_CHECKS = {
    "scaling": check_scaling_exponents,
    "monotone": check_monotone_in_state,
    "lipschitz": check_lipschitz_bound,
}


def _cmd_check(cfg: Config, args) -> int:
    scale = build_scale(cfg)
    criterion = cfg.get_str("check.criterion", "sufficient").strip().lower()
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
    component = cfg.get_int("check.component", 1)
    if not 1 <= component <= len(f):
        raise cfg.error("check.component", f"component {component} outside 1..{len(f)}")
    samples = cfg.get_int("check.samples", 0)
    # absent or 0 leaves each check its own default sample count
    options = {"samples": samples} if samples else {}
    if criterion not in _SAMPLED_CHECKS:
        raise cfg.error("check.criterion", "expected sufficient, necessary, scaling, "
                        f"monotone, or lipschitz, got {criterion!r}")
    if criterion == "lipschitz":
        band = cfg.get_floats("check.band", (0.1, 1.0))
        if len(band) != 2 or not 0.0 < band[0] < band[1]:
            raise cfg.error("check.band", "expected 'lo,hi' with 0 < lo < hi")
        options["band"] = band
    try:
        report = _SAMPLED_CHECKS[criterion](f[component - 1], scale, seed=seed, **options)
    except ConfigError as exc:
        raise cfg.library_error(exc, "check") from exc
    _emit(_json_lines([dataclasses.asdict(report)]), args.out)
    # a Lipschitz estimate has no verdict to fail
    return _EXIT_OK if getattr(report, "ok", True) else _EXIT_FAIL


def _solve_config(cfg: Config) -> SolveConfig:
    """``SolveConfig`` from the ``solve.*`` entries the file sets; every
    absent entry keeps the library default."""
    getters = {"tol_residual": cfg.get_float, "max_iters": cfg.get_int}
    settings = {
        name: get(f"solve.{name}") for name, get in getters.items()
        if f"solve.{name}" in cfg
    }
    try:
        return SolveConfig(**settings)
    except ConfigError as exc:
        raise cfg.library_error(exc, "solve") from exc


def _cmd_solve(cfg: Config, args) -> int:
    problem = build_problem(cfg, build_scale(cfg))
    if args.strategy is not None:
        strategy = _flag("--strategy", args.strategy).get_enum("--strategy", Strategy)
    else:
        strategy = cfg.get_enum("solve.strategy", Strategy, Strategy.PICARD)
    brackets = refused = None
    if cfg.get_bool("solve.use_bounds", True) and problem.is_positive_system:
        try:
            brackets = construct_bounds(problem).pair
        except (ShapeViolation, CriterionNotSatisfied) as exc:
            refused = exc
    try:
        report = solve(problem, strategy=strategy, brackets=brackets,
                       config=_solve_config(cfg))
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
    kind = cfg.get_str("bounds.kind", "pair").strip().lower()
    if kind == "pair":
        pair = construct_bounds(problem)
    elif kind == "lower":
        pair = construct_lower(problem)
    else:
        raise cfg.error("bounds.kind", f"expected pair or lower, got {kind!r}")
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
    weight = cfg.get_str("quadrature.weight", "plain").strip().lower()
    override = _eval_point(cfg, weight == "necessary")
    family = _family(scale, args.family)
    try:
        report = family_quadrature(f, family, weight=weight,
                                   eval_point_override=override)
    except ConfigError as exc:
        raise cfg.library_error(exc, "quadrature") from exc
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
