import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitswap import cli, scenario, validate
from qubitswap.amplitude import amplitude_ode_oracle
from qubitswap.cli import main
from qubitswap.errors import ParseError, QubitSwapError, RangeError, UnknownFigure
from qubitswap.scenario import (
    FIGURE_IDS,
    OPTIONS,
    TimeSeries,
    config_text,
    emit_csv,
    figure_preset,
    format_csv,
    parse_config,
    run_figure,
    run_scan,
)

FIG2_FLAGS = {
    "R": 0.1,
    "beta": 2e-9,
    "omega-ratio": 1.5e9,
    "observable": "entropy-avg",
    "tau-max": 50.0,
    "tau-steps": 500,
}


class TestParseConfig:
    def test_flag_set(self):
        config = parse_config(FIG2_FLAGS)
        assert config.params.R == 0.1
        assert config.params.beta == 2e-9
        assert config.grid.n_points == 500
        assert config.grid.tau_start == 0.0  # default
        assert config.observable == "entropy-avg"

    def test_concurrence_requires_angles(self):
        with pytest.raises(RangeError):
            parse_config({**FIG2_FLAGS, "observable": "concurrence"})

    def test_density_requires_angles(self):
        with pytest.raises(RangeError):
            parse_config({**FIG2_FLAGS, "observable": "density"})

    def test_regime_cutoff(self):
        with pytest.raises(RangeError):
            parse_config({**FIG2_FLAGS, "beta": 0.01})

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ParseError):
            parse_config({**FIG2_FLAGS, "lambda": 1.0})

    def test_file_values_and_flag_override(self):
        text = "R = 0.5\nomega-ratio = 2e9\nobservable = amplitude\ntau-steps = 10\n"
        config = parse_config({"R": 0.7}, file_text=text)
        assert config.params.R == 0.7
        assert config.params.Omega == 2e9
        assert config.grid.n_points == 10

    def test_file_unknown_key(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config({}, file_text="R = 1\nbogus = 2\n")

    def test_file_bad_value(self):
        with pytest.raises(ParseError):
            parse_config({}, file_text="R = not-a-number\nobservable = amplitude\n")

    def test_missing_required(self):
        with pytest.raises(ParseError):
            parse_config({"observable": "amplitude"})

    def test_round_trip(self):
        config = parse_config(
            {
                **FIG2_FLAGS,
                "observable": "concurrence",
                "theta1": math.pi / 2,
                "phi1": 0.0,
                "theta2": math.pi / 4,
                "phi2": 0.0,
                "seed": 123,
            }
        )
        assert parse_config({}, file_text=config_text(config)) == config


class TestConfigText:
    def test_bytes_with_angles(self):
        assert config_text(figure_preset("fig8a")[2]) == (
            "R = 10\nbeta = 2.0000000000000001e-09\nomega-ratio = 1500000000\n"
            "observable = concurrence\ntheta1 = 1.5707963267948966\n"
            "phi1 = 3.1415926535897931\ntheta2 = 0.78539816339744828\nphi2 = 0\n"
            "tau-min = 0\ntau-max = 50\ntau-steps = 1000\nmethod = analytic\n"
            "power-method = quad\nmc-samples = 100000\nseed = 0\nquad-nodes = 64\n"
            "quad-tol = 1.0000000000000001e-09\nout = fig8a_curve2.csv\n"
        )

    def test_bytes_without_angles(self):
        assert config_text(figure_preset("fig5")[1]) == (
            "R = 10\nbeta = 1e-08\nomega-ratio = 1500000000\nobservable = power\n"
            "tau-min = 0\ntau-max = 50\ntau-steps = 1000\nmethod = analytic\n"
            "power-method = quad\nmc-samples = 100000\nseed = 0\nquad-nodes = 64\n"
            "quad-tol = 1.0000000000000001e-09\nout = fig5_curve1.csv\n"
        )


# The documented input box, per numeric option: (least, greatest) value.
# R and Omega stop well below the bound where their squares overflow.
BOX = {
    "R": (1e-300, 1e150), "beta": (0.0, 9.99e-4), "omega-ratio": (1e-300, 1e150),
    "theta1": (0.0, math.pi), "phi1": (-1e300, 1e300),
    "theta2": (0.0, math.pi), "phi2": (-1e300, 1e300),
    "tau-min": (0.0, 1e300), "tau-max": (0.0, 1e300), "tau-steps": (2, 10**9),
    "mc-samples": (1, 10**9), "seed": (0, 2**64 - 1),
    "quad-nodes": (16, 10**6), "quad-tol": (1e-10, 1e300),
}
ANGLE_KEYS = ("theta1", "phi1", "theta2", "phi2")


@st.composite
def option_values(draw):
    """A valid option dict drawn by each option's table type; optional keys
    are left out at random so that defaults are exercised too."""
    drawn = {}
    for key, opt in OPTIONS.items():
        if opt.choices:
            drawn[key] = draw(st.sampled_from(opt.choices))
        elif opt.type is str:
            drawn[key] = draw(st.text("abcxyz019_-./", min_size=1))
        elif opt.type is int:
            drawn[key] = draw(st.integers(*BOX[key]))
        else:
            drawn[key] = draw(st.floats(*BOX[key]))
    drawn["tau-min"], drawn["tau-max"] = sorted((drawn["tau-min"], drawn["tau-max"]))
    keep = {key for key in OPTIONS if draw(st.booleans())} | {"R", "omega-ratio", "observable"}
    if drawn["observable"] in ("concurrence", "density"):
        keep |= {"theta1", "theta2"}
    if not {"theta1", "theta2"} <= keep:  # a phi needs both thetas
        keep -= set(ANGLE_KEYS)
    if not {"tau-min", "tau-max"} <= keep:  # tau-min may exceed the default tau-max
        keep -= {"tau-min", "tau-max"}
    return {key: value for key, value in drawn.items() if key in keep}


def as_text(key, value):
    return format(value, ".17g") if OPTIONS[key].type is float else str(value)


class TestOptionTableProperties:
    @settings(max_examples=200, deadline=None)
    @given(option_values())
    def test_config_text_round_trip(self, values):
        config = parse_config(values)
        assert parse_config({}, file_text=config_text(config)) == config

    @settings(max_examples=100, deadline=None)
    @given(option_values())
    def test_argv_from_table_parses_to_same_config(self, values):
        seen = []
        argv = ["scan"] + [f"--{key}={as_text(key, value)}" for key, value in values.items()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run_scan", seen.append)
            mp.setattr(cli, "format_csv", lambda series: "")
            mp.setattr(cli, "emit_csv", lambda series, path: None)
            assert main(argv) == 0
        assert seen == [parse_config(values)]


class TestRunScan:
    def test_average_entropy_peak(self):
        # |E|^2 crosses 1/2 near tau = ln(2)/R^2, inside a 200-unit window
        config = parse_config(
            {**FIG2_FLAGS, "beta": 0.0, "tau-max": 200.0, "tau-steps": 4000}
        )
        series = run_scan(config)
        assert series.columns == ("tau", "entropy_avg")
        peak = series.values.max()
        assert peak <= 1 / 6 + 1e-12
        assert peak > 1 / 6 - 1e-6

    def test_symmetric_state_concurrence_constant_one(self):
        config = parse_config(
            {
                **FIG2_FLAGS,
                "observable": "concurrence",
                "theta1": math.pi / 2,
                "phi1": 0.0,
                "theta2": math.pi / 2,
                "phi2": 0.0,
                "tau-steps": 50,
            }
        )
        series = run_scan(config)
        assert np.all(np.abs(series.values - 1.0) < 1e-10)

    def test_movement_raises_power_at_fixed_time(self):
        base = {
            "R": 10.0,
            "omega-ratio": 1.5e9,
            "observable": "power",
            "tau-min": 1.0,
            "tau-max": 1.0,
            "tau-steps": 1,
        }
        static = run_scan(parse_config({**base, "beta": 0.0}))
        moving = run_scan(parse_config({**base, "beta": 15e-9}))
        assert moving.values[0, 0] > static.values[0, 0]

    def test_oracle_method_matches_analytic(self):
        flags = {**FIG2_FLAGS, "observable": "amplitude", "tau-max": 10.0, "tau-steps": 21}
        analytic = run_scan(parse_config({**flags, "method": "analytic"}))
        oracle = run_scan(parse_config({**flags, "method": "oracle"}))
        assert np.max(np.abs(analytic.values - oracle.values)) < 1e-6

    def test_oracle_method_takes_the_ode_route(self):
        # the routes differ by about 1e-9 here, so only the ODE route is equal
        config = parse_config({**FIG2_FLAGS, "observable": "amplitude", "method": "oracle"})
        e = amplitude_ode_oracle(config.params, config.grid)
        expected = np.column_stack([e.real, e.imag, np.abs(e)])
        assert np.array_equal(run_scan(config).values, expected)

    def test_degenerate_model_falls_back_to_oracle(self):
        flags = {
            "R": 1 / math.sqrt(2),
            "omega-ratio": 1.5e9,
            "observable": "amplitude",
            "tau-max": 2.0,
            "tau-steps": 5,
        }
        series = run_scan(parse_config(flags))
        # confluent closed form: exp(-tau/2)(1 + tau/2)
        ref = np.exp(-series.taus / 2) * (1 + series.taus / 2)
        assert np.max(np.abs(series.values[:, 2] - ref)) < 1e-8


class TestEmitCsv:
    def test_two_point_series(self, tmp_path):
        config = parse_config({**FIG2_FLAGS, "tau-max": 1.0, "tau-steps": 2})
        series = run_scan(config)
        path = tmp_path / "out.csv"
        emit_csv(series, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert lines[0] == "tau,entropy_avg"

    def test_density_header(self):
        config = parse_config(
            {
                "R": 10.0,
                "omega-ratio": 1.5e9,
                "observable": "density",
                "theta1": 0.0,
                "theta2": math.pi / 2,
                "tau-max": 1.0,
                "tau-steps": 3,
            }
        )
        series = run_scan(config)
        assert format_csv(series).splitlines()[0] == "tau,pop_ee,pop_eg,pop_ge,pop_gg"

    def test_lf_and_precision(self, tmp_path):
        config = parse_config({**FIG2_FLAGS, "tau-max": 1.0, "tau-steps": 3})
        path = tmp_path / "out.csv"
        emit_csv(run_scan(config), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        # a third of 1.0 printed at 17 significant digits
        assert b"0.5" in raw


def reference_format_csv(series):
    """Per-value formatting, the reference for format_csv's single pass."""
    lines = [",".join(series.columns)]
    for tau, row in zip(series.taus, series.values):
        lines.append(",".join(f"{v:.17g}" for v in (tau, *row)))
    return "\n".join(lines) + "\n"


class TestFormatCsv:
    def test_edge_values(self):
        edges = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324, 0.1, 1 / 3,
                 float(2**53 + 1), -2.5e-308, 1.7976931348623157e308]
        values = np.array(edges).reshape(3, 4)
        series = TimeSeries(("tau", "a", "b", "c", "d"), np.array([0.0, 0.5, 1.0]), values)
        assert format_csv(series) == reference_format_csv(series)
        assert format_csv(series).splitlines()[1] == "0,-0,0,inf,-inf"

    def test_one_row_series(self):
        series = run_scan(figure_preset("fig6")[1])
        assert len(series.taus) == 1
        assert format_csv(series) == reference_format_csv(series)

    def test_random_block_across_magnitudes(self):
        rng = np.random.default_rng(31)
        n = 10_000
        taus = np.sort(10 ** rng.uniform(-300, 300, n))
        signs = rng.choice([-1.0, 1.0], size=(n, 4))
        values = signs * rng.uniform(1, 10, (n, 4)) * 10 ** rng.uniform(-300, 300, (n, 4))
        series = TimeSeries(("tau", "a", "b", "c", "d"), taus, values)
        assert format_csv(series) == reference_format_csv(series)


class TestFigurePresets:
    def test_known_ids(self):
        for fig_id in FIGURE_IDS:
            assert figure_preset(fig_id)

    def test_unknown_id(self):
        with pytest.raises(UnknownFigure):
            figure_preset("fig9")

    @pytest.mark.parametrize(
        "fig_id,observable,R,betas",
        [
            ("fig2a", "entropy", 0.1, (0.0, 2e-9, 4e-9)),
            ("fig2b", "entropy-avg", 0.1, (0.0, 2e-9, 4e-9)),
            ("fig3a", "entropy", 10.0, (0.0, 10e-9, 15e-9)),
            ("fig3b", "entropy-avg", 10.0, (0.0, 10e-9, 15e-9)),
            ("fig5", "power", 10.0, (0.0, 10e-9, 15e-9)),
            ("fig7", "power", 0.1, (0.0, 2e-9, 4e-9)),
        ],
    )
    def test_curve_families(self, fig_id, observable, R, betas):
        configs = figure_preset(fig_id)
        assert tuple(c.params.beta for c in configs) == betas
        for c in configs:
            assert c.observable == observable
            assert c.params.R == R
            assert c.params.Omega == 1.5e9

    def test_fig6_density_snapshot(self):
        configs = figure_preset("fig6")
        assert tuple(c.params.beta for c in configs) == (0.0, 15e-9)
        for c in configs:
            assert c.observable == "density"
            assert list(c.grid.taus()) == [1.0]
            q1, q2 = c.angles
            assert (q1.theta, q2.theta, q2.phi) == (0.0, math.pi / 2, 0.0)

    @pytest.mark.parametrize("fig_id,R", [("fig8a", 10.0), ("fig8b", 0.1)])
    def test_fig8_angle_sets(self, fig_id, R):
        configs = figure_preset(fig_id)
        angle_sets = [
            (c.angles[0].theta, c.angles[0].phi, c.angles[1].theta, c.angles[1].phi)
            for c in configs
        ]
        assert angle_sets == [
            (math.pi / 2, 0.0, math.pi / 4, 0.0),
            (math.pi / 2, 0.0, 0.0, 0.0),
            (math.pi / 2, math.pi, math.pi / 4, 0.0),
        ]
        for c in configs:
            assert c.observable == "concurrence"
            assert c.params.R == R
            assert c.params.beta == 2e-9


class TestCliMain:
    def test_scan_to_file(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "scan", "--R", "0.1", "--beta", "2e-9", "--omega-ratio", "1.5e9",
                "--observable", "entropy-avg", "--tau-max", "50", "--tau-steps", "500",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("tau,entropy_avg\n")

    def test_scan_stdout(self, capsys):
        code = main(
            [
                "scan", "--R", "0.1", "--omega-ratio", "1.5e9",
                "--observable", "amplitude", "--tau-max", "1", "--tau-steps", "2",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("tau,amplitude_re")

    def test_scan_config_file(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "R = 0.1\nomega-ratio = 1.5e9\nobservable = entropy-avg\n"
            "tau-max = 1\ntau-steps = 2\nout = {}\n".format(tmp_path / "o.csv"),
            encoding="utf-8",
        )
        assert main(["scan", "--config", str(cfg)]) == 0
        assert (tmp_path / "o.csv").exists()

    def test_missing_angles_is_usage_error(self, capsys):
        code = main(
            [
                "scan", "--R", "0.1", "--omega-ratio", "1.5e9",
                "--observable", "concurrence",
            ]
        )
        assert code == 1

    def test_beta_cutoff_is_usage_error(self):
        code = main(
            [
                "scan", "--R", "0.1", "--beta", "0.01", "--omega-ratio", "1.5e9",
                "--observable", "amplitude",
            ]
        )
        assert code == 1

    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "fig99"]) == 1

    def test_figure_fig6(self, tmp_path, capsys):
        assert main(["figure", "fig6", "--outdir", str(tmp_path)]) == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert len(paths) == 2
        header = paths[0].read_text(encoding="utf-8").splitlines()[0]
        assert header == "tau,pop_ee,pop_eg,pop_ge,pop_gg"

    def test_io_error(self, tmp_path):
        code = main(
            [
                "scan", "--R", "0.1", "--omega-ratio", "1.5e9",
                "--observable", "amplitude", "--tau-max", "1", "--tau-steps", "2",
                "--out", str(tmp_path / "missing_dir" / "o.csv"),
            ]
        )
        assert code == 3


class TestCliInputErrors:
    """Inputs that used to end in a traceback or a misleading message."""

    BASE = ["scan", "--R", "0.1", "--omega-ratio", "1.5e9", "--observable", "amplitude",
            "--tau-steps", "11"]

    @staticmethod
    def with_flag(argv, flag, value):
        argv = list(argv)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        return argv

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--omega-ratio", "inf", "Omega must be finite"),
            ("--R", "1e200", "R**2/2 overflows"),
            ("--tau-max", "inf", "tau bounds must be finite"),
            ("--tau-max", "nan", "tau bounds must be finite"),
            ("--R", "-1e-05", "R must be positive"),
        ],
    )
    def test_one_line_usage_error(self, capsys, flag, value, message):
        assert main(self.with_flag(self.BASE, flag, value)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert message in err and "Traceback" not in err

    def test_negative_exponent_value_as_separate_word(self, capsys):
        argv = self.with_flag(self.BASE, "--observable", "concurrence")
        argv += ["--theta1", "1", "--theta2", "2", "--phi2", "0"]
        assert main(argv + ["--phi1=-1e-05"]) == 0
        joined = capsys.readouterr().out
        assert main(argv + ["--phi1", "-1e-05"]) == 0
        assert capsys.readouterr().out == joined

    def test_oracle_step_too_large_is_one_line(self, capsys):
        argv = self.with_flag(self.BASE, "--R", "1000") + ["--method", "oracle"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure: step 0.001 too large")

    def test_non_finite_amplitude_is_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(scenario, "amplitude", lambda model, t: np.full(len(t), np.nan + 0j))
        assert main(self.BASE) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure:")

    @pytest.mark.parametrize("R", ["1e50", "1e110", "1e150"])
    def test_overflowing_amplitude_is_one_line(self, capsys, R):
        # the analytic route overflows from about R = 1e50 (solve_cubic's
        # Newton polish, amplitude's exp) and must not warn on the way
        assert main(self.with_flag(self.BASE, "--R", R)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numeric failure: the survival amplitude overflowed")

    @pytest.mark.parametrize("error", QubitSwapError.__subclasses__(), ids=lambda e: e.__name__)
    def test_every_package_error_is_one_line(self, capsys, monkeypatch, error):
        def failing(config):
            raise error("boom")

        monkeypatch.setattr(cli, "run_scan", failing)
        usage = error in (ParseError, RangeError, UnknownFigure)
        assert main(self.BASE) == (1 if usage else 2)
        assert capsys.readouterr().err == ("error: boom\n" if usage else "numeric failure: boom\n")

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(config):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(cli, "run_scan", broken)
        assert main(self.BASE) == 2
        err = capsys.readouterr().err
        assert err == "internal error: LinAlgError: Array must not contain infs or NaNs\n"


class TestValidateCommand:
    def test_prints_one_pass_line_per_check(self, capsys):
        assert main(["validate"]) == 0
        expected = [f"PASS {name}" for name, _ in validate.ALL_CHECKS]
        assert capsys.readouterr().out.splitlines() == expected


class TestDeterminism:
    def test_repeat_figure_runs_are_byte_identical(self, tmp_path):
        for fig_id in ("fig2b", "fig6", "fig8a"):
            a = run_figure(fig_id, tmp_path / "a" / fig_id)
            b = run_figure(fig_id, tmp_path / "b" / fig_id)
            for pa, pb in zip(a, b):
                assert pa.read_bytes() == pb.read_bytes()

    def test_mc_scan_deterministic(self, tmp_path):
        flags = [
            "scan", "--R", "10", "--omega-ratio", "1.5e9", "--observable", "power",
            "--power-method", "mc", "--mc-samples", "20000", "--seed", "5",
            "--tau-max", "0.2", "--tau-steps", "3",
        ]
        outs = []
        for name in ("x.csv", "y.csv"):
            path = tmp_path / name
            assert main(flags + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
