"""Command-line front end: configs, outputs, and exit codes."""

import dataclasses
import json
import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest

import tsdyn.cli
from tsdyn import (SolveConfig, check_lipschitz_bound, check_monotone_in_state,
                   check_scaling_exponents, family_quadrature, quantum_family,
                   uniform_family)
from tsdyn.cli import (_criterion_records, _csv, _verdict_exit, build_nonlinearities,
                       build_scale, main, read_config)

SOLVE_CFG = """\
# singular power problem on a uniform grid
scale.kind = uniform
scale.start = 0
scale.end = 1
scale.points = 65
f.count = 1
f.1.expr = x1^(-0.5)
f.1.lambda = -0.5
f.1.mu = 0.5
bc.left = 0
bc.right = 0
solve.strategy = picard
solve.use_bounds = true
"""

CHECK_CFG = """\
scale.kind = uniform
scale.start = 0
scale.end = 1
scale.points = 33
f.count = 1
f.1.expr = x1^(-{gamma})
f.1.lambda = -{gamma}
f.1.mu = {gamma}
check.criterion = sufficient
"""


TWO_COMPONENT_CFG = """\
scale.kind = uniform
scale.points = 65
f.count = 2
f.1.expr = x1^(-0.3) * x2^(-0.2)
f.1.lambda = -0.3,-0.3
f.1.mu = 0.3,-0.1
f.2.expr = x2^(-0.4) * x1^(-0.1)
f.2.lambda = -0.2,-0.4
f.2.mu = -0.05,0.4
check.criterion = sufficient
"""


#: A sampled hypothesis check on an explicit realization.
SAMPLED_CFG = """\
scale.kind = explicit
scale.values = 0,0.1,0.25,0.3,0.5,0.55,0.8,1
f.count = 1
f.1.expr = x1^(-0.5)
f.1.lambda = -0.5
f.1.mu = 0.5
check.criterion = {criterion}
"""


def _single(path):
    return build_nonlinearities(read_config(path))[0]


def _as_record(report):
    """A sampled check's report as its JSON line reads back."""
    return json.loads(json.dumps(dataclasses.asdict(report)))


@pytest.fixture
def solve_cfg(tmp_path):
    path = tmp_path / "solve.cfg"
    path.write_text(SOLVE_CFG)
    return path


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSolveCommand:
    def test_exit_zero_and_csv(self, solve_cfg, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["solve", str(solve_cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# tsdyn ")
        assert "# status = converged" in text
        assert "t,u1,alpha1,beta1" in text

    def test_degree_rows_are_optional(self, tmp_path):
        # without f.1.lambda and f.1.mu the expression's exact degrees build
        # the band, and the bracketed solve converges inside it
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("f.1.lambda = -0.5\n", "")
                        .replace("f.1.mu = 0.5\n", ""))
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        assert "# status = converged" in text
        assert "# bracket_respected = true" in text
        assert "# note = " not in text

    def test_reruns_are_byte_identical(self, solve_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["solve", str(solve_cfg), "--out", str(a)])
        main(["solve", str(solve_cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_header_embeds_resolved_config(self, solve_cfg, tmp_path):
        out = tmp_path / "run.csv"
        main(["solve", str(solve_cfg), "--out", str(out)])
        text = out.read_text()
        for key in ("cfg.scale.points = 65", "cfg.f.1.expr = x1^(-0.5)"):
            assert f"# {key}" in text

    def test_strategy_override_recorded(self, solve_cfg, tmp_path):
        out = tmp_path / "run.csv"
        rc = main(
            ["solve", str(solve_cfg), "--strategy", "newton_oracle", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "# strategy = newton_oracle" in text
        assert "# override.strategy = newton_oracle" in text

    def test_summary_reports_the_deciding_defect(self, tmp_path):
        cfg = write_cfg(
            tmp_path, SOLVE_CFG.replace("scale.points = 65", "scale.points = 1025")
        )
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        summary = re.search(r"^# residual = \S+\n# defect = (\S+)$", text, re.M)
        assert summary is not None
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")]
        assert rows[0][:2] == ["t", "u1"]
        u_max = max(abs(float(row[1])) for row in rows[1:])
        tol = SolveConfig().tol_residual
        assert 0.0 <= float(summary.group(1)) <= tol * max(1.0, u_max)

    def test_csv_rows_match_per_cell_formatting(self, rng):
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1e16, -1e16, 1e-5, 0.1, 1.0 / 3.0,
                   1.7976931348623157e308]
        drawn = rng.standard_normal(280) * 10.0 ** rng.integers(-320, 300, 280)
        columns = [np.resize(special, 280), drawn, drawn[::-1].copy()]
        text = _csv(SimpleNamespace(entries={}), SimpleNamespace(command="solve"),
                    ["a", "b", "c"], columns, [("status", "converged")])
        # the per-cell join the writer replaced
        old_rows = [",".join(format(float(v), ".17g") for v in row)
                    for row in zip(*columns)]
        lines = text.splitlines()
        assert lines[2] == "a,b,c"
        assert lines[3:-1] == old_rows
        assert lines[-1] == "# status = converged"
        assert {"0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324",
                "10000000000000000"} <= set(",".join(old_rows).split(","))

    @pytest.mark.parametrize("strategy", ["picard", "newton_oracle"])
    def test_last_row_is_the_right_boundary_value(self, tmp_path, strategy):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 65\nf.count = 1\n"
            "f.1.expr = 1 + x1^0.5\nbc.left = 0.7\nbc.right = 0.1\n",
        )
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--strategy", strategy, "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines()
                if line and not line.startswith("#")]
        assert rows[1] == "0,0.69999999999999996"
        assert rows[-1] == "1,0.10000000000000001"

    def test_explicit_scale_solves_like_its_uniform_twin(self, solve_cfg, tmp_path):
        values = ",".join(map(repr, np.linspace(0.0, 1.0, 65).tolist()))
        explicit = SOLVE_CFG.replace(
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\nscale.points = 65\n",
            f"scale.kind = explicit\nscale.values = {values}\n",
        )
        assert "scale.kind = explicit" in explicit
        cfg = write_cfg(tmp_path, explicit)
        a, b = tmp_path / "explicit.csv", tmp_path / "uniform.csv"
        assert main(["solve", str(cfg), "--out", str(a)]) == 0
        assert main(["solve", str(solve_cfg), "--out", str(b)]) == 0

        def body(path):
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("# cfg.")]

        assert body(a) == body(b)

    def test_one_boundary_value_serves_every_component(self, tmp_path):
        # bc.left = 0.5 on a two-component system reads as 0.5,0.5
        one = write_cfg(tmp_path, TWO_COMPONENT_CFG + "bc.left = 0.5\n", "one.cfg")
        both = write_cfg(tmp_path, TWO_COMPONENT_CFG + "bc.left = 0.5,0.5\n", "both.cfg")
        a, b = tmp_path / "one.csv", tmp_path / "both.csv"
        assert main(["solve", str(one), "--out", str(a)]) == 0
        assert main(["solve", str(both), "--out", str(b)]) == 0
        rows = [line for line in a.read_text().splitlines() if not line.startswith("#")]
        assert rows[0] == "t,u1,u2"
        assert rows[1] == "0,0.5,0.5"

        def body(path):
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("# cfg.bc.left")]

        assert body(a) == body(b)

    def test_stdout_when_no_out_path(self, solve_cfg, capsys):
        assert main(["solve", str(solve_cfg)]) == 0
        captured = capsys.readouterr().out
        assert "# status = converged" in captured

    def test_monotone_strategy(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            SOLVE_CFG.replace("x1^(-0.5)", "1 + x1^0.5")
            .replace("f.1.lambda = -0.5", "f.1.lambda = -0.1")
            .replace("solve.strategy = picard", "solve.strategy = monotone_up"),
        )
        assert main(["solve", str(cfg)]) == 0


class TestCheckCommand:
    @pytest.mark.parametrize(
        "gamma,code", [("0.5", 0), ("1.0", 3), ("1.5", 2)]
    )
    def test_sufficient_exit_codes(self, tmp_path, gamma, code):
        cfg = write_cfg(tmp_path, CHECK_CFG.format(gamma=gamma))
        assert main(["check", str(cfg)]) == code

    def test_json_lines_records(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CHECK_CFG.format(gamma="0.5"))
        main(["check", str(cfg)])
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        records = [json.loads(l) for l in lines]
        assert records[-1]["overall"] == "convergent"
        assert records[0]["component"] == 1
        assert records[0]["verdict"] == "convergent"

    def test_family_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, CHECK_CFG.format(gamma="0.5"))
        rc = main(["check", str(cfg), "--family", "17,33,65,129,257"])
        assert rc == 0
        records = [
            json.loads(l) for l in capsys.readouterr().out.splitlines() if l
        ]
        assert records[-1]["points"] == [17, 33, 65, 129, 257]

    @pytest.mark.parametrize(
        "scale, family",
        [("quantum\nscale.q = 2\nscale.depth = 10", quantum_family(2.0)),
         ("uniform\nscale.start = 1\nscale.end = 3\nscale.points = 9",
          uniform_family(1.0, 3.0)),
         ("explicit\nscale.values = 0.5,0.7,1.5,2,3", uniform_family(0.5, 3.0))],
        ids=["quantum", "uniform", "explicit"],
    )
    @pytest.mark.parametrize("criterion", ["sufficient", "necessary"])
    def test_default_family_follows_the_scale_kind(self, tmp_path, capsys, scale,
                                                   family, criterion):
        # quantum truncations of the base, else uniform meshes of the span,
        # the families quantum_family and uniform_family give
        cfg = write_cfg(tmp_path, f"scale.kind = {scale}\nf.count = 1\n"
                        "f.1.expr = x1^(-0.5)\nf.1.lambda = -0.5\nf.1.mu = 0.5\n"
                        f"check.criterion = {criterion}\n")
        report = family_quadrature([_single(cfg)], family, weight=(
            "plain" if criterion == "sufficient" else criterion))
        assert main(["check", str(cfg)]) == _verdict_exit(report.verdict)
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert records == json.loads(json.dumps(_criterion_records(report)))
        if scale.startswith("quantum"):
            assert records[-1]["points"] == [7, 12, 22, 42, 82]

    def test_quantum_necessary(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = quantum\nscale.q = 2\nscale.depth = 10\n"
            "f.count = 1\nf.1.expr = t^(-1) * x1^(-0.5)\n"
            "f.1.lambda = -0.5\nf.1.mu = 0.5\ncheck.criterion = necessary\n",
        )
        assert main(["check", str(cfg)]) == 0

    @pytest.mark.parametrize("command", ["check", "quadrature"])
    def test_two_component_system(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, TWO_COMPONENT_CFG)
        assert main([command, str(cfg)]) == 0
        records = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        assert [r["component"] for r in records if "component" in r] == [1, 2]
        assert records[-1]["overall"] == "convergent"

    @pytest.mark.parametrize("criterion", ["scaling", "monotone", "lipschitz"])
    def test_negative_sample_count_rejected(self, tmp_path, capsys, criterion):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 33\nf.count = 1\n"
            f"f.1.expr = x1^2\ncheck.criterion = {criterion}\ncheck.samples = -5\n",
        )
        assert main(["check", str(cfg)]) == 4
        assert "key 'check.samples', line 6" in capsys.readouterr().err

    def test_monotone_criterion_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLED_CFG.format(criterion="monotone"))
        assert main(["check", str(cfg)]) == 0
        record, = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        expected = check_monotone_in_state(_single(cfg), build_scale(read_config(cfg)))
        assert record == _as_record(expected)
        assert record["ok"] is True and record["checked"] > 0

    def test_monotone_criterion_failure_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, SAMPLED_CFG.format(criterion="monotone").replace("x1^(-0.5)", "x1^2")
        )
        assert main(["check", str(cfg)]) == 2
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False and record["witness"]["coordinate"] == 1

    def test_lipschitz_criterion_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SAMPLED_CFG.format(criterion="lipschitz")
                        + "check.band = 0.25,2\n")
        assert main(["check", str(cfg)]) == 0
        record, = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l]
        expected = check_lipschitz_bound(
            _single(cfg), build_scale(read_config(cfg)), (0.25, 2.0)
        )
        assert record == _as_record(expected)
        assert record["bound"] > 0.0

    @pytest.mark.parametrize("band", ["0,1", "2,1"])
    def test_band_outside_the_positive_half_line_is_a_config_error(
        self, tmp_path, capsys, band
    ):
        cfg = write_cfg(tmp_path, SAMPLED_CFG.format(criterion="lipschitz")
                        + f"check.band = {band}\n")
        assert main(["check", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: expected 'lo,hi' with 0 < lo < hi "
            "(key 'check.band', line 8)\n"
        )

    @pytest.mark.parametrize("command", ["check", "quadrature"])
    def test_nonpositive_eval_point_is_a_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 17\nf.count = 1\n"
            "f.1.expr = x1^(-0.5)\ncheck.criterion = necessary\n"
            "quadrature.weight = necessary\ncheck.eval_point = -1\n",
        )
        assert main([command, str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: must be positive, got -1.0 "
            "(key 'check.eval_point', line 7)\n"
        )

    def test_scaling_criterion_failure_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\n"
            "scale.points = 33\nf.count = 1\nf.1.expr = x1^2\n"
            "f.1.lambda = -0.5\nf.1.mu = 0.5\ncheck.criterion = scaling\n",
        )
        assert main(["check", str(cfg)]) == 2
        record = json.loads(capsys.readouterr().out)
        expected = check_scaling_exponents(_single(cfg), build_scale(read_config(cfg)))
        assert record == _as_record(expected)
        assert record["ok"] is False and record["notes"]

    def test_scaling_criterion_on_undeclared_degrees(self, tmp_path, capsys):
        # the derived degrees (-0.5,) are exact: every draw sits on the bracket
        cfg = write_cfg(
            tmp_path,
            "scale.kind = explicit\nscale.values = 0,0.1,0.25,0.3,0.5,0.55,0.8,1\n"
            "f.count = 1\nf.1.expr = x1^(-0.5)\ncheck.criterion = scaling\n",
        )
        assert main(["check", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is True and record["checked"] > 0
        assert record["shape_ok"] is False  # the collapsed bracket is not strict

    @pytest.mark.parametrize(
        "command,entry",
        [("quadrature", "quadrature.weight = plain"),
         ("quadrature", "quadrature.weight = envelope"),
         ("check", "check.criterion = sufficient")],
    )
    def test_eval_point_outside_the_necessary_criterion_is_a_config_error(
        self, tmp_path, capsys, command, entry
    ):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 17\nf.count = 1\n"
            f"f.1.expr = x1^(-0.5)\n{entry}\ncheck.eval_point = 2\n",
        )
        assert main([command, str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: applies only to the necessary criterion "
            "(key 'check.eval_point', line 6)\n"
        )

    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "quadrature"])
    @pytest.mark.parametrize("component", [0, 2])
    def test_component_outside_the_system_is_a_config_error(
        self, tmp_path, capsys, component, command
    ):
        cfg = write_cfg(tmp_path, SAMPLED_CFG.format(criterion="monotone")
                        + f"check.component = {component}\n")
        assert main([command, str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"tsdyn: configuration error: component {component} outside 1..1 "
            "(key 'check.component', line 8)\n"
        )

    def test_component_picks_the_checked_nonlinearity(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWO_COMPONENT_CFG.replace(
            "check.criterion = sufficient", "check.criterion = lipschitz\ncheck.component = 2"))
        assert main(["check", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        config = read_config(cfg)
        f, scale = build_nonlinearities(config), build_scale(config)
        assert record == _as_record(check_lipschitz_bound(f[1], scale, (0.1, 1.0)))
        assert record != _as_record(check_lipschitz_bound(f[0], scale, (0.1, 1.0)))


class TestBoundsCommand:
    def test_pair_constants_in_summary(self, solve_cfg, capsys):
        assert main(["bounds", str(solve_cfg)]) == 0
        out = capsys.readouterr().out
        for tag in ("# C = ", "# I1.1 = ", "# k2.1 = ", "# verify_upper.ok = true"):
            assert tag in out

    def test_lower_only(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\n"
            "scale.points = 65\nf.count = 1\nf.1.expr = x1^(-0.5)\n"
            "f.1.lambda = -0.5\nf.1.mu = 0.5\nbounds.kind = lower\n",
        )
        assert main(["bounds", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# L1.1 = " in out
        assert "beta1" not in out

    def test_lower_bound_with_negative_diagonal_degree_verifies(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 17\nf.count = 1\n"
            "f.1.expr = x1^(-0.5)\nf.1.lambda = -0.5\nf.1.mu = -0.5\n"
            "bounds.kind = lower\n",
        )
        assert main(["bounds", str(cfg)]) == 0
        assert "# verify_lower.ok = true\n" in capsys.readouterr().out

    def test_weight_is_not_an_entry(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 17\nf.count = 1\n"
            "f.1.expr = x1^(-0.5)\nbounds.kind = lower\nbounds.weight = unit\n",
        )
        assert main(["bounds", str(cfg)]) == 4
        assert "unknown entry (key 'bounds.weight', line 6)" in capsys.readouterr().err

    def test_diagonal_degree_of_one_is_refused(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 65\nf.count = 1\n"
            "f.1.expr = 1 + x1\nf.1.mu = 1\nbounds.kind = lower\n",
        )
        assert main(["bounds", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "tsdyn: component 1: diagonal upper degree must stay below one, got 1\n"
        )


class TestQuadratureCommand:
    def test_envelope_weight_records(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\n"
            "scale.points = 17\nf.count = 1\nf.1.expr = x1^(-0.5)\n"
            "f.1.lambda = -0.5\nf.1.mu = 0.5\nquadrature.weight = envelope\n",
        )
        assert main(["quadrature", str(cfg)]) == 0
        records = [
            json.loads(l) for l in capsys.readouterr().out.splitlines() if l
        ]
        per_scale = [r for r in records if "integrals" in r]
        assert len(per_scale) == 6
        assert records[-1]["overall"] == "convergent"

    def test_unknown_weight_names_the_entry(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.points = 17\nf.count = 1\n"
            "f.1.expr = x1^(-0.5)\nquadrature.weight = Bogus\n",
        )
        assert main(["quadrature", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: expected plain, necessary, or envelope, "
            "got 'bogus' (key 'quadrature.weight', line 5)\n"
        )


class TestConfigErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG + "bogus.key = 1\n")
        assert main(["solve", str(cfg)]) == 4
        assert "unknown entry" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["family.sizes = 5,6,7,8,9",
                                       "family.depths = 5,6,7,8,9"])
    def test_family_ladder_is_not_an_entry(self, tmp_path, capsys, entry):
        # --family sets the ladder for every kind of scale
        cfg = write_cfg(tmp_path, CHECK_CFG.format(gamma="0.5") + entry + "\n")
        assert main(["check", str(cfg)]) == 4
        key = entry.split(" = ")[0]
        assert f"unknown entry (key '{key}', line 10)" in capsys.readouterr().err

    @pytest.mark.parametrize("line, reason", [("novalue", "expected 'key = value'"),
                                              (" = 3", "empty key")])
    def test_line_without_a_key_names_its_line(self, tmp_path, capsys, line, reason):
        cfg = write_cfg(tmp_path, SOLVE_CFG + line + "\n")
        assert main(["solve", str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"tsdyn: configuration error: {reason} (line 14)\n"

    @pytest.mark.parametrize("command", ["solve", "bounds"])
    def test_boundary_row_of_the_wrong_length_names_its_entry(self, tmp_path, capsys,
                                                              command):
        cfg = write_cfg(tmp_path, TWO_COMPONENT_CFG + "bc.left = 0,0,0\n")
        assert main([command, str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tsdyn: configuration error: expected 2 boundary values, got 3 "
                       "(key 'bc.left', line 11)\n")

    @pytest.mark.parametrize("command", ["solve", "bounds"])
    @pytest.mark.filterwarnings("error")
    def test_boundary_pair_whose_rise_overflows_names_its_entry(self, tmp_path, capsys,
                                                               command):
        # both values are finite, but B - A is not: refused before the affine
        # interpolant or the bounds refusal can hide the entry
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 9\nf.count = 1\n"
                        "f.1.expr = x1^(-0.5)\nbc.left = -1e308\nbc.right = 1e308\n")
        assert main([command, str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("tsdyn: configuration error: bc.right - bc.left for component 1 "
                       "must be finite, got 1e+308 - -1e+308 (key 'bc.right', line 6)\n")

    def test_duplicate_key(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLVE_CFG + "scale.points = 17\n")
        assert main(["solve", str(cfg)]) == 4

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.cfg")]) == 4

    def test_bad_value_type(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("scale.points = 65", "scale.points = many"))
        assert main(["solve", str(cfg)]) == 4
        assert "scale.points" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "scale.kind = uniform\n")
        assert main(["solve", str(cfg)]) == 4

    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "quadrature"])
    @pytest.mark.parametrize(
        "entries,key,reason",
        [("scale.kind = uniform\nscale.points = 2", "scale.points",
          "uniform realization needs n >= 4, got 2"),
         ("scale.kind = uniform\nscale.points = -3", "scale.points",
          "uniform realization needs n >= 4, got -3"),
         ("scale.kind = uniform\nscale.start = 2\nscale.points = 17", "scale.start",
          "need end > a, got [2.0, 1.0]"),
         ("scale.kind = uniform\nscale.end = -1\nscale.points = 17", "scale.end",
          "need end > a, got [0.0, -1.0]"),
         ("scale.kind = quantum\nscale.q = 0.5\nscale.depth = 10", "scale.q",
          "quantum base must satisfy q > 1, got 0.5"),
         ("scale.kind = quantum\nscale.q = 2\nscale.depth = 2", "scale.depth",
          "quantum realization needs depth >= 3, got 2"),
         ("scale.kind = quantum\nscale.q = 2\nscale.depth = 1100", "scale.depth",
          "points not strictly increasing at index 1"),
         ("scale.kind = explicit\nscale.values = 0,0.5,0.2,1", "scale.values",
          "points not strictly increasing at index 2"),
         ("scale.kind = explicit\nscale.values = 0,1", "scale.values",
          "need at least 4 points for boundary identification, got 2"),
         ("scale.kind = uniform\nscale.end = 1e200\nscale.points = 9\nbounds.kind = lower",
          "scale.end", "span of [0.0, 1e+200] is too wide: its square overflows"),
         ("scale.kind = explicit\nscale.values = 0,1e-170,2e-170,3e-170\nbounds.kind = lower",
          "scale.values", "span of [0.0, 3e-170] is too narrow: its square underflows")],
    )
    @pytest.mark.filterwarnings("error")
    def test_refused_scale_names_its_entry(self, tmp_path, capsys, command,
                                           entries, key, reason):
        cfg = write_cfg(tmp_path, f"{entries}\nf.count = 1\nf.1.expr = x1^(-0.5)\n")
        line = next(n for n, e in enumerate(entries.split("\n"), 1) if e.startswith(key))
        assert main([command, str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"tsdyn: configuration error: {reason} "
                       f"(key '{key}', line {line})\n")

    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "quadrature"])
    @pytest.mark.parametrize("key", ["f.1.lambda", "f.1.mu"])
    def test_degree_row_of_the_wrong_length_names_its_entry(self, tmp_path, capsys,
                                                            command, key):
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 17\n"
                        f"f.count = 1\nf.1.expr = x1^(-0.5)\n{key} = 1,2\n")
        assert main([command, str(cfg)]) == 4
        assert capsys.readouterr().err == (
            f"tsdyn: configuration error: expected 1 degrees, got 2 (key '{key}', line 5)\n"
        )

    def test_letter_outside_the_names_is_reported_with_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("x1^(-0.5)", "π*x1"))
        assert main(["solve", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: unexpected character 'π' (position 1) "
            "(key 'f.1.expr', line 7)\n"
        )

    def test_overflowing_number_is_reported_with_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("x1^(-0.5)", "1e400*x1^(-0.5)"))
        assert main(["solve", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "tsdyn: configuration error: number 1e400 overflows (position 1) "
            "(key 'f.1.expr', line 7)\n"
        )

    def test_bad_expression_reported_with_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("x1^(-0.5)", "x1 +"))
        assert main(["solve", str(cfg)]) == 4
        assert "f.1.expr" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        ["solve.damping = 0", "solve.damping = 0.5", "solve.rhs_mode = raw",
         "solve.max_iters = -1", "solve.tol_residual = -1",
         "solve.tol_residual = x", "solve.tol_step = 1e-12"],
    )
    def test_invalid_solve_setting(self, tmp_path, capsys, entry):
        # the defect test has one tolerance, the damping follows from the run
        # and the right-hand-side mode from the strategy, so these keys are gone
        cfg = write_cfg(tmp_path, SOLVE_CFG + entry + "\n")
        assert main(["solve", str(cfg)]) == 4
        err = capsys.readouterr().err
        key = entry.split(" = ")[0]
        assert f"key '{key}', line 14" in err
        if key in ("solve.damping", "solve.rhs_mode", "solve.tol_step"):
            assert "unknown entry" in err

    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "quadrature"])
    @pytest.mark.parametrize(
        "entry,reason",
        [("check.samples = -5", "must be >= 0, got -5"),
         ("check.band = 0,1", "expected 'lo,hi' with 0 < lo < hi"),
         ("quadrature.weight = bogus",
          "expected plain, necessary, or envelope, got 'bogus'"),
         ("solve.strategy = bogus", "expected one of picard, monotone_up, "
          "monotone_down, newton_oracle, got 'bogus'"),
         ("bounds.kind = bogus", "expected pair or lower, got 'bogus'"),
         ("f.2.expr = x1 +", "component 2 beyond f.count = 1"),
         ("solve.tol_residual = inf", "must be finite, got inf"),
         ("solve.tol_residual = x", "expected a number, got 'x'"),
         ("check.band = 0.1,inf", "must be finite, got (0.1, inf)"),
         ("check.eval_point = inf", "must be finite, got inf"),
         ("bc.left = nan", "must be finite, got (nan,)"),
         ("f.1.mu = inf", "must be finite, got (inf,)"),
         ("scale.end = nan", "must be finite, got nan")],
    )
    def test_every_entry_is_checked_whatever_the_command(
        self, tmp_path, capsys, command, entry, reason
    ):
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 17\n"
                        f"f.count = 1\nf.1.expr = x1^(-0.5)\n{entry}\n")
        assert main([command, str(cfg)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        key = entry.split(" = ")[0]
        assert err == f"tsdyn: configuration error: {reason} (key '{key}', line 5)\n"

    @pytest.mark.parametrize("command", ["check", "solve", "bounds", "quadrature"])
    @pytest.mark.parametrize(
        "flag,value",
        [("--seed", "7"), ("--strategy", "newton_oracle"),
         ("--family", "17,33,65,129,257")],
    )
    def test_subcommand_takes_only_the_flags_it_reads(
        self, solve_cfg, capsys, command, flag, value
    ):
        reads = {"check": ("--seed", "--family"), "solve": ("--strategy",),
                 "bounds": (), "quadrature": ("--family",)}
        code = main([command, str(solve_cfg), flag, value])
        out, err = capsys.readouterr()
        if flag not in reads[command]:
            assert code == 4
            assert f"unrecognized arguments: {flag} {value}" in err
            assert out == ""
        else:
            assert code == 0
            # only the CSV outputs of solve and bounds carry a config block
            if command == "solve":
                assert f"# override.{flag[2:]} = {value}" in out

    @pytest.mark.parametrize("where", ["entry", "flag"])
    def test_nested_truncation_is_a_config_error(self, solve_cfg, tmp_path, capsys,
                                                 where):
        if where == "entry":
            cfg = write_cfg(tmp_path, SOLVE_CFG.replace(
                "solve.strategy = picard", "solve.strategy = truncated_nest"))
            args, key = ["solve", str(cfg)], "key 'solve.strategy', line 12"
        else:
            args = ["solve", str(solve_cfg), "--strategy", "truncated_nest"]
            key = "key '--strategy'"
        assert main(args) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert ("expected one of picard, monotone_up, monotone_down, newton_oracle, "
                "got 'truncated_nest'") in err
        assert key in err

    @pytest.mark.parametrize("command", ["check", "quadrature"])
    @pytest.mark.parametrize(
        "scale,ladder,reason",
        [("uniform\nscale.points = 17", "2,3,4,5,6",
          "uniform realization needs n >= 4, got 2"),
         ("uniform\nscale.points = 17", "17,33", "need at least 5 realizations, got 2"),
         ("quantum\nscale.q = 2\nscale.depth = 10", "5,10,20,40,1100",
          "points not strictly increasing at index 1"),
         ("uniform\nscale.points = 17", "17,17,17,17,17",
          "point counts must strictly increase, got [17, 17, 17, 17, 17]"),
         ("uniform\nscale.points = 17", "65,33,17,9,5",
          "point counts must strictly increase, got [65, 33, 17, 9, 5]"),
         ("quantum\nscale.q = 2\nscale.depth = 10", "5,10,10,20,40",
          "point counts must strictly increase, got [7, 12, 12, 22, 42]")],
        ids=["too-few-points", "too-short", "underflow", "repeated", "coarsening",
             "quantum-repeated"],
    )
    def test_refused_family_is_a_config_error(self, tmp_path, capsys, command, scale,
                                              ladder, reason):
        cfg = write_cfg(tmp_path, f"scale.kind = {scale}\nf.count = 1\nf.1.expr = x1^(-0.5)\n")
        assert main([command, str(cfg), "--family", ladder]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"tsdyn: configuration error: {reason} (key '--family')\n"

    @pytest.mark.parametrize("command", ["check", "quadrature"])
    def test_empty_family_is_a_config_error(self, solve_cfg, capsys, command):
        # an empty ladder is not "no override", just as an empty --strategy
        # is not
        assert main([command, str(solve_cfg), "--family", ""]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "expected comma-separated integers, got ''" in err
        assert "key '--family'" in err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate", "x"]) == 4

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "tsdyn" in capsys.readouterr().out


class TestParserReuse:
    """``main`` builds its parser once; later calls must not see the flags of
    earlier ones."""

    def test_consecutive_calls_behave_as_with_fresh_parsers(self, tmp_path, capsys):
        solve_path = write_cfg(tmp_path, SOLVE_CFG, "solve.cfg")
        check_path = write_cfg(tmp_path, CHECK_CFG.format(gamma=0.5), "check.cfg")
        calls = [
            ["solve", str(solve_path), "--strategy", "newton_oracle"],
            ["check", str(check_path), "--family", "17,33,65,129,257", "--seed", "3"],
            ["solve", str(solve_path)],
            ["--version"],
            ["check", str(check_path)],
            ["solve", str(solve_path), "--strategy", "bogus"],
            ["solve"],
            ["solve", str(solve_path)],
        ]

        def run(fresh):
            seen = []
            for argv in calls:
                if fresh:
                    tsdyn.cli._parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                seen.append((code, captured.out, captured.err))
            return seen

        shared, fresh = run(fresh=False), run(fresh=True)
        assert shared == fresh
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 0, 0, 4, 4, 0]
        assert "# strategy = newton_oracle" in shared[0][1]
        assert "# strategy = picard" in shared[2][1]
        assert "override" not in shared[2][1]
        assert shared[2][1] == shared[7][1]
        assert shared[3][1].startswith("tsdyn ")
        assert '"points":[17,33,65,129,257]' in shared[1][1]
        assert '"points":[17,33,65,129,257]' not in shared[4][1]
        assert tsdyn.cli._parser() is tsdyn.cli._parser()


class TestLogging:
    def test_main_leaves_the_root_logger_alone(self, solve_cfg, tmp_path, capsys,
                                               monkeypatch):
        # a calling program that has configured no logging of its own
        root = logging.getLogger()
        monkeypatch.setattr(root, "handlers", [])
        monkeypatch.setattr(root, "level", logging.WARNING)
        assert main(["solve", str(solve_cfg), "--out", str(tmp_path / "run.csv")]) == 0
        assert (root.handlers, root.level) == ([], logging.WARNING)
        logging.getLogger("caller").warning("still heard")
        assert capsys.readouterr().err == "still heard\n"


class TestRunFailures:
    def test_diverging_solve_exits_two(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\n"
            "scale.points = 65\nf.count = 1\nf.1.expr = 100*(1 + x1^2)\n"
            "f.1.lambda = 0\nf.1.mu = 2\nbc.left = 0\nbc.right = 0\n",
        )
        assert main(["solve", str(cfg)]) == 2

    def test_stalled_solve_exits_three(self, tmp_path):
        # a zero tolerance sits below the defect's roundoff floor
        cfg = write_cfg(
            tmp_path,
            SOLVE_CFG.replace("scale.points = 65", "scale.points = 1025")
            + "solve.tol_residual = 0\n",
        )
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == 3
        text = out.read_text()
        assert "# status = stalled" in text
        iterations = int(re.search(r"^# iterations = (\d+)$", text, re.M).group(1))
        assert iterations < 200
        assert f"# note = iteration {iterations}: defect stalled at" in text

    @pytest.mark.parametrize("strategy", ["picard", "newton_oracle"])
    def test_band_that_is_not_invariant_exits_three(self, tmp_path, strategy):
        # with zero degrees declared the constructed band has alpha == beta,
        # which is not a lower/upper pair; the run stops at once
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("f.1.lambda = -0.5\n", "f.1.lambda = 0\n")
                        .replace("f.1.mu = 0.5\n", "f.1.mu = 0\n"))
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--strategy", strategy, "--out", str(out)]) == 3
        text = out.read_text()
        assert "# status = stalled" in text
        iterations = int(re.search(r"^# iterations = (\d+)$", text, re.M).group(1))
        assert iterations <= 10
        note = ("band not invariant" if strategy == "picard"
                else "the clamp moves 63 entries of the full step")
        assert note in text

    @pytest.mark.parametrize(
        "body,reason,code",
        [
            ("f.1.expr = -1\n",
             "construction integrals must be positive", 0),
            ("f.1.expr = 100*(1 + x1^2)\nf.1.lambda = 0\nf.1.mu = 2\n",
             "component 1: diagonal upper degree must stay below one, got 2", 2),
            ("f.1.expr = x1^2\n",
             "component 1: diagonal upper degree must stay below one, got 2", 0),
            ("f.1.expr = 1 + x1^0.5\nbc.left = 0.7\nbc.right = 0.1\n",
             "bound construction requires zero boundary values", 0),
        ],
        ids=["criterion", "shape", "derived-shape", "boundary"],
    )
    def test_refused_bounds_are_the_first_note(self, tmp_path, body, reason, code):
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 17\n"
                        "f.count = 1\n" + body)
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == code
        text = out.read_text()
        notes = re.findall(r"^# note = (.*)$", text, re.M)
        assert notes[0].startswith(f"solved without bounds: {reason}")
        assert len(notes) == (1 if code == 0 else 2)
        assert "\nt,u1\n" in text

    @pytest.mark.parametrize(
        "body,reason",
        [("f.1.expr = -1\n", "construction integrals must be positive"),
         ("f.1.expr = 1 + x1^0.5\nbc.left = 0.7\nbc.right = 0.1\n",
          "bound construction requires zero boundary values")],
        ids=["criterion", "boundary"],
    )
    @pytest.mark.parametrize("strategy", ["monotone_up", "monotone_down"])
    def test_monotone_run_names_the_refusal(self, tmp_path, capsys, strategy, body,
                                            reason):
        # a monotone run needs the bounds construct_bounds refused: it exits 2,
        # writes no CSV, and stderr says why there are none
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 17\n"
                        "f.count = 1\n" + body)
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--strategy", strategy, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "monotone iteration needs a lower and an upper solution" in err
        assert f"bounds refused: {reason}" in err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["monotone_up", "monotone_down"])
    def test_monotone_run_without_bounds_exits_two(self, tmp_path, capsys, strategy):
        # with solve.use_bounds = false no bounds were refused, so stderr has
        # the solver's refusal alone
        cfg = write_cfg(tmp_path, SOLVE_CFG.replace("= picard", f"= {strategy}")
                        .replace("use_bounds = true", "use_bounds = false"))
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "tsdyn: monotone iteration needs a lower and an upper solution\n")
        assert not out.exists()

    def test_improper_first_cell_is_noted(self, tmp_path):
        cfg = write_cfg(tmp_path, "scale.kind = uniform\nscale.points = 17\n"
                        "f.count = 1\nf.1.expr = t^(-0.5) * x1^(-0.5)\n"
                        "f.1.lambda = -0.5\nf.1.mu = 0.5\n")
        out = tmp_path / "run.csv"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        notes = re.findall(r"^# note = (.*)$", out.read_text(), re.M)
        assert notes == ["dropped improper first cell for component(s) [1]"]

    def test_unresolvable_bounds_exit_two(self, tmp_path):
        # negative boundary data puts the problem outside the positive class
        cfg = write_cfg(
            tmp_path,
            "scale.kind = uniform\nscale.start = 0\nscale.end = 1\n"
            "scale.points = 65\nf.count = 1\nf.1.expr = x1^(-0.5)\n"
            "f.1.lambda = -0.5\nf.1.mu = 0.5\nbc.left = -1\nbc.right = 0\n"
            "bounds.kind = pair\n",
        )
        assert main(["bounds", str(cfg)]) == 2
