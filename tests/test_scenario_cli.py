import importlib
import itertools
import json
import math
import os
import platform
import stat
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubitswap import cli, format17, scenario, validate
from qubitswap.amplitude import amplitude_ode_oracle, build_amplitude_model, grid_amplitude
from qubitswap.cli import main
from qubitswap.errors import ParseError, QubitSwapError, RangeError, ZeroNorm
from qubitswap.measures import (
    average_linear_entropy,
    concurrence_closed,
    density_populations,
    linear_entropy,
    post_bsm_projection,
    survival_probability,
)
from qubitswap.power import entangling_power_grid, entangling_power_mc_grid
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

    def test_file_grammar(self):
        # a comment is a whole line, "#" inside a value is part of it, and
        # the later of two lines with one key wins
        text = ("# scan\n  # indented\nR = 1\nR = 10\nomega-ratio = 1.5e9\n"
                "observable = amplitude\nout = run#1.csv\n")
        config = parse_config({}, file_text=text)
        assert config.params.R == 10.0 and config.out == "run#1.csv"

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
            "power-method = quad\nmc-samples = 100000\nseed = 0\nout = fig8a_curve2.csv\n"
        )

    @pytest.mark.parametrize("out", [" a.csv", "a.csv ", "a.csv\n", "a\nb.csv", "a\rb.csv",
                                     "a\x1cb.csv", "a\u2028b.csv"])
    def test_refuses_a_value_it_cannot_write_back(self, out):
        # the parser strips a value and splitlines breaks a line at each of these
        config = replace(figure_preset("fig5")[1], out=out)
        with pytest.raises(RangeError, match=r"^out .* cannot be written as one config line$"):
            config_text(config)

    def test_bytes_without_angles(self):
        assert config_text(figure_preset("fig5")[1]) == (
            "R = 10\nbeta = 1e-08\nomega-ratio = 1500000000\nobservable = power\n"
            "tau-min = 0\ntau-max = 50\ntau-steps = 1000\nmethod = analytic\n"
            "power-method = quad\nmc-samples = 100000\nseed = 0\nout = fig5_curve1.csv\n"
        )


# The documented input box, per numeric option: (least, greatest) value.
# R and Omega stop well below the bound where their squares overflow.
BOX = {
    "R": (1e-300, 1e150), "beta": (0.0, 9.99e-4), "omega-ratio": (1e-300, 1e150),
    "theta1": (0.0, math.pi), "phi1": (-1e300, 1e300),
    "theta2": (0.0, math.pi), "phi2": (-1e300, 1e300),
    "tau-min": (0.0, 1e300), "tau-max": (0.0, 1e300), "tau-steps": (2, 10**9),
    "mc-samples": (1, 10**9), "seed": (0, 2**64 - 1),
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
            # "#", "=" and inner spaces: a file name may hold any of them
            drawn[key] = draw(st.text("abcxyz019_-./#= ", min_size=1).filter(
                lambda s: s == s.strip()))
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
    # before Python 3.13 argparse read the "--" of "--out=--" as the end of the
    # options and gave out = [], which became the file name "[]"
    @example({"R": 1.0, "omega-ratio": 1.0, "observable": "amplitude", "out": "--"})
    def test_argv_from_table_parses_to_same_config(self, values):
        seen = []
        argv = ["scan"] + [f"--{key}={as_text(key, value)}" for key, value in values.items()]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "emit_csv", lambda config, path: seen.append((config, path)))
            assert main(argv) == 0
        config = parse_config(values)
        assert seen == [(config, config.out)]


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
        assert np.max(np.abs(analytic.values - oracle.values)) < 1e-12

    def test_oracle_method_takes_the_ode_route(self):
        # the routes differ in their last bits here, so only the propagator is equal
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
        assert np.max(np.abs(series.values[:, 2] - ref)) < 1e-12


class TestEmitCsv:
    def test_two_point_series(self, tmp_path):
        config = parse_config({**FIG2_FLAGS, "tau-max": 1.0, "tau-steps": 2})
        path = tmp_path / "out.csv"
        emit_csv(config, path)
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
        emit_csv(config, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        # a third of 1.0 printed at 17 significant digits
        assert b"0.5" in raw


def write_chunks(series, path):
    """The series written as emit_csv writes a scan's blocks, chunk by chunk."""
    with open(path, "wb") as fh:
        fh.writelines(scenario._csv_chunks(series.columns, [(series.taus, series.values)]))


def reference_format_csv(series):
    """Per-value formatting, the reference for format_csv's vectorised formatter."""
    lines = [",".join(series.columns)]
    for tau, row in zip(series.taus, series.values):
        lines.append(",".join(f"{v:.17g}" for v in (tau, *row)))
    return "\n".join(lines) + "\n"


def assert_formats_like_reference(series):
    """format_csv equals reference_format_csv; a failure names the first
    differing lines instead of diffing megabytes of text."""
    got, want = format_csv(series), reference_format_csv(series)
    if got != want:
        diff = [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w]
        pytest.fail(f"{len(diff)} lines differ from the reference, first: {diff[:3]}")


def series_of(values, width):
    """The values as rows of width columns, after a tau column 0, 1, 2, ..."""
    block = np.reshape(np.asarray(values, dtype=float), (-1, width))
    columns = ("tau", *(f"c{i}" for i in range(width)))
    return TimeSeries(columns, np.arange(float(len(block))), block)


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
        assert_formats_like_reference(series)

    def test_rounding_edges(self):
        # 2**-25 and 43 * 2**-22 are exact ties at 17 digits, to even and
        # up; 99999999999999999.0 rounds up to 1e17; log10 of a neighbour of
        # 10**k can round across it
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.0**-25, 43 * 2.0**-22, 1e16, 1e17,
                 99999999999999999.0]
        for k in range(-300, 301):
            x = 10.0**k
            edges += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
        series = series_of(edges, 1)
        assert_formats_like_reference(series)

    def test_fallback_boundaries(self):
        values = [math.inf, -math.inf, math.nan, -math.nan]
        for x in (1e280, 1e-280):
            values += [x, -x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        series = series_of(values, 3)
        assert_formats_like_reference(series)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(5).integers(0, 2**64, 100_000, dtype=np.uint64)
        series = series_of(bits.view(np.float64), 4)
        assert_formats_like_reference(series)

    def test_powers_of_ten_are_exact_double_doubles(self):
        # each of the 571 scales: hi is 10^s rounded once, hi_hi + hi_lo is
        # hi exactly, and lo is 10^s - hi rounded once
        s_range = range(format17._S_MIN, format17._S_MAX + 1)
        tables = format17._tables()[0]
        assert len(s_range) == 571 and all(len(t) == 571 for t in tables)
        for s, hi, hi_hi, hi_lo, lo in zip(s_range, *(t.tolist() for t in tables)):
            exact = Fraction(10) ** s
            assert hi == float(exact)
            assert Fraction(hi_hi) + Fraction(hi_lo) == Fraction(hi)
            assert lo == float(exact - Fraction(hi))

    @settings(max_examples=300)
    @given(st.lists(st.floats(), max_size=60), st.integers(1, 5))
    def test_matches_per_value_formatting(self, values, width):
        series = series_of(values[:len(values) // width * width], width)
        assert_formats_like_reference(series)


class TestStreamedCsv:
    """emit_csv writes the CSV block by block; the bytes must not depend on
    where the blocks end, and memory must not grow with the text."""

    SLOW = [2.0**-25, 43 * 2.0**-22, math.inf, -math.inf, math.nan, 1e300, 1e-300, -0.0]

    def edge_series(self):
        """More than three scan blocks of density rows, with a partial last
        block and a partial last format piece, and values that take the
        formatter's per-value path on the first and last row of each block,
        each piece and each slice whose NULs are dropped together."""
        width = 4
        block = scenario._CSV_CHUNK // (width + 1)
        piece = scenario._CSV_PIECE // (width + 1)
        n = 3 * block + block // 2 + piece // 3
        rng = np.random.default_rng(11)
        values = rng.standard_normal((n, width)) * 10 ** rng.uniform(-20, 20, (n, width))
        edges = {k * block + d for k in range(1, 4) for d in (-1, 0)}
        for start in range(0, n, piece):  # block is a whole number of pieces
            size = min(piece, n - start) * (width + 1)
            for lo in range(0, size, format17._SLICE):
                hi = min(lo + format17._SLICE, size)
                edges |= {start + lo // (width + 1), start + (hi - 1) // (width + 1)}
        assert n % piece and block % piece == 0 and n - 1 in edges
        slow = iter(self.SLOW * len(edges))
        for i in sorted(edges):
            values[i] = [next(slow) for _ in range(width)]
        return series_of(values.ravel(), width)

    def test_file_and_stdout_bytes_at_chunk_edges(self, tmp_path, capsysbinary, monkeypatch):
        series = self.edge_series()
        want = reference_format_csv(series).encode()
        path = tmp_path / "edges.csv"
        write_chunks(series, path)
        assert path.read_bytes() == want
        # the same rows as a density scan's blocks, through the CLI
        density = TimeSeries(scenario.COLUMNS["density"], series.taus, series.values)
        rows = scenario._CSV_CHUNK // 5

        def blocks(config):
            n = len(density.taus)
            return ((density.taus[i:i + rows], density.values[i:i + rows])
                    for i in range(0, n, rows))

        monkeypatch.setattr(scenario, "scan_blocks", blocks)
        want = reference_format_csv(density).encode()
        argv = ["scan", "--R", "0.1", "--omega-ratio", "1.5e9", "--observable", "density",
                "--theta1", "0", "--theta2", "1"]
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == want
        assert main(argv + ["--out", "-"]) == 0
        assert capsysbinary.readouterr().out == want

    def test_one_row_series(self, tmp_path):
        config = figure_preset("fig6")[1]
        path = tmp_path / "fig6.csv"
        emit_csv(config, path)
        assert path.read_bytes() == reference_format_csv(run_scan(config)).encode()

    def test_peak_memory_is_a_few_chunks(self, tmp_path):
        # About 16 MB of CSV.  Formatting one piece takes about 1.1 MB
        # (2.5 MB with whole blocks and their words copied whole); holding
        # the whole text at once takes 2.4 times its size.
        n = 200_000
        rng = np.random.default_rng(3)
        series = TimeSeries(("tau", "a", "b", "c"), np.linspace(0.0, 50.0, n),
                            rng.uniform(-1.0, 1.0, (n, 3)))
        write_chunks(series_of([1.0], 1), tmp_path / "warm.csv")  # format17's tables
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            write_chunks(series, tmp_path / "big.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 15e6
        assert peak < 1.5e6

    def test_one_block_peak_memory(self, tmp_path):
        # One scan block of _CSV_CHUNK values, written as emit_csv writes it,
        # peaks at 1.12 MB: a piece of _CSV_PIECE values as six words each
        # (0.39 MB) and its text, whose NULs are dropped format17._SLICE
        # values at a time.  Formatted whole, with the words copied whole
        # before translate, the block peaked at 2.50 MB.
        rows = scenario._CSV_CHUNK // 4
        rng = np.random.default_rng(3)
        series = TimeSeries(("tau", "a", "b", "c"), np.linspace(0.0, 50.0, rows),
                            rng.uniform(-1.0, 1.0, (rows, 3)))
        write_chunks(series_of([1.0], 1), tmp_path / "warm.csv")  # format17's tables
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            write_chunks(series, tmp_path / "block.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "block.csv").read_bytes() == reference_format_csv(series).encode()
        assert peak <= 1.2e6


def reference_run_scan(config):
    """The whole-grid scan, the reference for run_scan's blocks: every
    column of the whole grid at once, as one array expression each."""
    taus = config.grid.taus()
    if config.method == "oracle":
        e_vals = amplitude_ode_oracle(config.params, config.grid)
    else:
        e_vals = grid_amplitude(build_amplitude_model(config.params), config.grid)(
            0, config.grid.n_points)
    obs = config.observable
    if obs == "amplitude":
        cols = ("tau", "amplitude_re", "amplitude_im", "amplitude_abs")
        vals = np.column_stack([e_vals.real, e_vals.imag, np.abs(e_vals)])
    elif obs == "entropy":
        theta = config.angles[0].theta if config.angles else 0.0
        cols = ("tau", "entropy")
        vals = linear_entropy(theta, e_vals)[:, None]
    elif obs == "entropy-avg":
        cols = ("tau", "entropy_avg")
        vals = average_linear_entropy(e_vals)[:, None]
    elif obs == "concurrence":
        cols = ("tau", "concurrence")
        vals = concurrence_closed(post_bsm_projection(*config.angles, e_vals))[:, None]
    elif obs == "density":
        cols = ("tau", "pop_ee", "pop_eg", "pop_ge", "pop_gg")
        vals = density_populations(post_bsm_projection(*config.angles, e_vals))
    else:
        cols = ("tau", "power")
        p_vals = survival_probability(e_vals)
        if config.power_method == "mc":
            vals = entangling_power_mc_grid(p_vals, config.mc)[0][:, None]
        else:
            vals = entangling_power_grid(p_vals)[:, None]
    return TimeSeries(columns=cols, taus=taus, values=vals)


SCAN_FLAGS = {"R": 10.0, "beta": 1e-8, "omega-ratio": 1.5e9, "theta1": math.pi / 2,
              "phi1": 0.3, "theta2": math.pi / 4}
DEGENERATE = {"R": 1 / math.sqrt(2), "beta": 0.0}
MC = {"power-method": "mc", "mc-samples": 200, "seed": 3}


def block_edge_cases():
    """(observable, points, flags): the sizes where blocks begin and end,
    16 384 points where numpy would reorder an expression's complex product,
    tau_start > 0, and each amplitude and power route."""
    for obs in scenario.OBSERVABLES:
        rows = scenario._CSV_CHUNK // len(scenario.COLUMNS[obs])
        yield obs, 1, {"tau-min": 1.25, "tau-max": 1.25}
        for n in (2, rows - 1, rows, rows + 1, 2 * rows + 1, 16384, 16385):
            yield obs, n, {}
        yield obs, 2 * rows + 1, {"tau-min": 1.25}
    for n in (2, 4097, 8193):
        yield "amplitude", n, {"method": "oracle", "tau-max": 20.0}
        yield "amplitude", n, DEGENERATE
    yield "power", 8193, {"method": "oracle", "tau-min": 0.5, "tau-max": 20.0}
    yield "density", 3277, DEGENERATE
    for n in (2, 8193, 16385):
        yield "power", n, MC


def scan_argv(flags):
    return ["scan"] + [f"--{key}={as_text(key, value)}" for key, value in flags.items()]


class TestBlockedScan:
    """A scan runs one block of rows at a time; its values and CSV bytes
    must be those of the whole-grid computation."""

    @pytest.mark.parametrize("obs,n,flags", list(block_edge_cases()),
                             ids=lambda v: ",".join(f"{k}={v[k]:.6g}" if isinstance(v[k], float)
                                                    else f"{k}={v[k]}" for k in v)
                             if isinstance(v, dict) else str(v))
    def test_blocks_equal_whole_grid(self, tmp_path, capsysbinary, obs, n, flags):
        flags = {**SCAN_FLAGS, **flags, "observable": obs, "tau-steps": n}
        config = parse_config(flags)
        want = reference_run_scan(config)
        got = run_scan(config)
        assert got.columns == want.columns
        assert got.taus.tobytes() == want.taus.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        text = reference_format_csv(want).encode()
        path = tmp_path / "scan.csv"
        assert main(scan_argv({**flags, "out": str(path)})) == 0
        assert path.read_bytes() == text
        assert main(scan_argv(flags)) == 0
        assert capsysbinary.readouterr().out == text


def traced_peak(argv) -> int:
    """Peak traced memory of one cli.main call, which must succeed."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScanMemoryAndFailures:
    def test_million_point_scan_peaks_at_a_few_blocks(self, tmp_path):
        # Holding the whole grid's columns took over 100 MB; one block of
        # density rows and its text take about 3 MB.
        path = tmp_path / "density.csv"
        flags = {**SCAN_FLAGS, "observable": "density", "out": str(path)}
        assert main(scan_argv({**flags, "tau-steps": 10})) == 0  # format17's tables
        try:
            peak = traced_peak(scan_argv({**flags, "tau-steps": 1_000_000}))
            assert path.stat().st_size > 80e6
        finally:
            path.unlink(missing_ok=True)
        assert peak < 8e6

    def test_fallback_scan_calls_the_propagator_once_a_block(self, monkeypatch):
        # A scan block stays 16 384 values (written out here, not read from
        # _CSV_CHUNK) while the formatter takes it in pieces: each points()
        # call pays about 0.2 ms of fixed cost, and halving the block made a
        # 1e6-point fallback density scan 15-20 % slower.  The fallback is
        # the amplitude module's own propagator, reached through
        # importlib: the package's amplitude function hides that module.
        module, calls = importlib.import_module("qubitswap.amplitude"), []
        real = module.propagator

        def counting(params, grid):
            points = real(params, grid)

            def counted(lo, hi):
                calls.append(hi - lo)
                return points(lo, hi)
            return counted

        monkeypatch.setattr(module, "propagator", counting)
        n, rows = 100_000, (1 << 14) // 5
        flags = {**SCAN_FLAGS, **DEGENERATE, "observable": "density", "tau-steps": n,
                 "out": os.devnull}
        assert main(scan_argv(flags)) == 0
        assert len(calls) == math.ceil(n / rows) == 31 and sum(calls) == n

    def test_monte_carlo_is_reached_by_its_documented_name(self, capsys, monkeypatch):
        # an mc power scan and validate's power-estimators check call
        # entangling_power_mc where each module binds it: the bindings that
        # the benchmark's tracer wraps
        calls = []
        for module in (scenario, validate):
            def counted(*args, real=module.entangling_power_mc, name=module.__name__, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, "entangling_power_mc", counted)
        assert main(scan_argv({**SCAN_FLAGS, **MC, "observable": "power", "tau-steps": 5})) == 0
        worst, bound = validate.check_power_estimators()
        assert worst <= bound
        assert calls == ["qubitswap.scenario", "qubitswap.validate"]

    def test_oracle_scan_peak_does_not_grow(self, tmp_path):
        path = tmp_path / "oracle.csv"
        flags = {**SCAN_FLAGS, "observable": "amplitude", "method": "oracle", "out": str(path)}
        assert main(scan_argv({**flags, "tau-steps": 10})) == 0  # format17's tables
        try:
            peaks = [traced_peak(scan_argv({**flags, "tau-steps": n})) for n in (100_000, 400_000)]
        finally:
            path.unlink(missing_ok=True)
        assert abs(peaks[1] - peaks[0]) < 1e6

    @pytest.fixture
    def third_block_fails(self, monkeypatch):
        """The analytic lattice overflows on its third call: the amplitude
        scan below has five blocks."""
        real, calls = scenario.grid_amplitude, itertools.count()

        def failing(model, grid):
            points = real(model, grid)

            def failing_points(lo, hi):
                out = points(lo, hi)
                return out * np.inf if next(calls) == 2 else out
            return failing_points

        monkeypatch.setattr(scenario, "grid_amplitude", failing)
        rows = scenario._CSV_CHUNK // 4
        yield {**SCAN_FLAGS, "observable": "amplitude", "tau-steps": 5 * rows}, rows
        assert next(calls) == 3  # the scan stopped at the failing block

    @pytest.mark.parametrize("link", [False, True])
    @pytest.mark.parametrize("before", [None, b"tau,amplitude_re\n0,1\n"])
    def test_failed_scan_leaves_out_as_it_was(self, tmp_path, capsys, third_block_fails,
                                              before, link):
        flags, _ = third_block_fails
        path = tmp_path / "scan.csv"
        target = tmp_path / "target.csv" if link else path
        if link:
            path.symlink_to(target)
        if before is not None:
            target.write_bytes(before)
        listing = sorted(os.listdir(tmp_path))
        assert main(scan_argv({**flags, "out": str(path)})) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numeric failure: the survival amplitude overflowed")
        assert sorted(os.listdir(tmp_path)) == listing
        assert path.is_symlink() == link
        assert before is None or target.read_bytes() == before

    def test_failed_scan_on_stdout_keeps_the_blocks_before(self, capsys, third_block_fails):
        flags, rows = third_block_fails
        assert main(scan_argv(flags)) == 2
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 + 2 * rows  # the header and two blocks
        assert err.startswith("numeric failure: the survival amplitude overflowed")

    @pytest.mark.parametrize("omega,method", [
        ("1.001001001001001e103", "analytic"), ("1.001001001001001e103", "oracle"),
        ("1.001001001001001e23", "oracle"), ("1.3e157", "analytic")])
    def test_large_beta_omega_fails_on_one_line(self, capsys, omega, method):
        # inside the documented box, but the lattice's columns overflow: one
        # line on stderr, no RuntimeWarning from forming them
        argv = ["scan", "--R", "10", "--beta", "9.99e-4", "--omega-ratio", omega,
                "--method", method, "--observable", "entropy-avg", "--tau-steps", "11",
                "--out", "-"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numeric failure: the survival amplitude overflowed")

    @pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
    def test_amplitude_above_one_is_a_usage_error(self, capsys, tmp_path, to_file):
        # beta*Omega = 1e17: the propagator's rounding outruns its damping and
        # gives finite |E| up to about 3.6e119, which the amplitude observable
        # refuses as every other observable does: one line, and no data row
        path = tmp_path / "o.csv"
        argv = ["scan", "--R", "10", "--beta", "9.99e-4", "--omega-ratio",
                "1.001001001001001e20", "--method", "oracle", "--observable", "amplitude",
                "--tau-steps", "1000", "--out", str(path) if to_file else "-"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err.count("\n") == 1
        assert err.startswith("error: |E| must be finite and at most 1, got max |E| = ")
        assert out == ("" if to_file else "tau,amplitude_re,amplitude_im,amplitude_abs\n")
        assert os.listdir(tmp_path) == []

    THREE_BLOCKS = {**SCAN_FLAGS, "observable": "amplitude",
                    "tau-steps": 3 * (scenario._CSV_CHUNK // 4)}

    def test_scan_replaces_a_file_or_a_links_target_keeping_its_mode(self, tmp_path, capsysbinary):
        assert main(scan_argv(self.THREE_BLOCKS)) == 0
        want = capsysbinary.readouterr().out
        target, link = tmp_path / "target.csv", tmp_path / "scan.csv"
        link.symlink_to(target)
        for path in (target, link):
            target.write_bytes(b"old\n")
            target.chmod(0o640)
            assert main(scan_argv({**self.THREE_BLOCKS, "out": str(path)})) == 0
            assert target.read_bytes() == want
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
            assert link.is_symlink()
            assert sorted(os.listdir(tmp_path)) == ["scan.csv", "target.csv"]

    def test_read_only_file_fails_as_an_in_place_write_would(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        path.write_bytes(b"old\n")
        path.chmod(0o444)
        writable = os.access(path, os.W_OK)  # root may write it anyway
        assert main(scan_argv({**self.THREE_BLOCKS, "out": str(path)})) == (0 if writable else 3)
        assert writable or path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["scan.csv"]

    def test_file_in_a_read_only_directory_is_written_in_place(self, tmp_path, capsysbinary,
                                                               monkeypatch):
        assert main(scan_argv(self.THREE_BLOCKS)) == 0
        want = capsysbinary.readouterr().out
        path = tmp_path / "scan.csv"
        path.write_bytes(b"old\n")
        inode = path.stat().st_ino
        directory, access = os.path.realpath(tmp_path), os.access
        monkeypatch.setattr(os, "access", lambda p, mode: p != directory and access(p, mode))
        assert main(scan_argv({**self.THREE_BLOCKS, "out": str(path)})) == 0
        assert path.read_bytes() == want
        assert path.stat().st_ino == inode

    def test_pipe_is_written_in_place(self, tmp_path, capsysbinary):
        assert main(scan_argv(self.THREE_BLOCKS)) == 0
        want = capsysbinary.readouterr().out
        fifo = tmp_path / "scan.csv"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(scan_argv({**self.THREE_BLOCKS, "out": str(fifo)})) == 0
        reader.join(10)
        assert got == [want]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestFigurePresets:
    def test_known_ids(self):
        for fig_id in FIGURE_IDS:
            assert figure_preset(fig_id)

    def test_unknown_id(self):
        with pytest.raises(RangeError):
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

    def test_identical_angles_give_concurrence_one_to_tau_1000(self, capsys):
        # the stationary Bell state, long after |E|^2 underflows
        code = main(
            [
                "scan", "--R", "10", "--omega-ratio", "1.5e9", "--observable", "concurrence",
                "--theta1", "1", "--theta2", "1", "--tau-max", "1000",
            ]
        )
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows and all(row.split(",")[1] == "1" for row in rows)

    @pytest.mark.parametrize("beta", [1e-9, 1e-12, 1e-15])
    def test_near_triple_root_takes_the_propagator(self, capsys, beta):
        # R^2 = 16/27 and beta*Omega = 1/sqrt(27): the roots crowd round -2/3.
        # The analytic route gave E(0) = 1.0000003576278687 at beta = 1e-15,
        # and entropy-avg and power exited 1 on that |E| > 1.
        model = ["--R", "0.769800358919501", "--beta", repr(beta),
                 "--omega-ratio", repr(0.19245008972987526 / beta), "--tau-steps", "101",
                 "--theta1", "1.5707963267948966", "--theta2", "0.78539816339744828"]
        for obs in scenario.OBSERVABLES:
            assert main(["scan", *model, "--observable", obs]) == 0
            lines = capsys.readouterr().out.splitlines()[1:]
            values = np.array([line.split(",") for line in lines], dtype=float)
            assert values.shape[0] == 101 and np.all(np.isfinite(values))
            if obs == "amplitude":
                assert lines[0] == "0,1,0,1" and np.all(values[:, 3] <= 1)

    def test_both_qubits_in_the_ground_state_is_numeric_failure(self, capsys):
        pi = repr(math.pi)
        code = main(
            [
                "scan", "--R", "10", "--omega-ratio", "1.5e9", "--observable", "concurrence",
                "--theta1", pi, "--theta2", pi,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure:")

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
        assert capsys.readouterr().err == (
            f"error: unknown figure id 'fig99' (known: {', '.join(FIGURE_IDS)})\n")

    def test_figure_fig6(self, tmp_path, capsys):
        assert main(["figure", "fig6", "--outdir", str(tmp_path)]) == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert len(paths) == 2
        header = paths[0].read_text(encoding="utf-8").splitlines()[0]
        assert header == "tau,pop_ee,pop_eg,pop_ge,pop_gg"

    def test_io_error(self, tmp_path, capsys):
        code = main(
            [
                "scan", "--R", "0.1", "--omega-ratio", "1.5e9",
                "--observable", "amplitude", "--tau-max", "1", "--tau-steps", "2",
                "--out", str(tmp_path / "missing_dir" / "o.csv"),
            ]
        )
        assert code == 3
        # the message names the path asked for, not the temporary file
        err, path = capsys.readouterr().err, tmp_path / "missing_dir" / "o.csv"
        assert err.startswith("io error:") and err.endswith(f"'{path}'\n")


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

    @pytest.mark.parametrize("flags", [("--R", "10", "--beta", "1e-7"), ("--R", "200"),
                                       ("--R", "1000", "--beta", "5e-7")],
                             ids=["beta-1e-7", "R-200", "R-1000"])
    def test_oracle_scan_has_no_step_limit(self, capsys, flags):
        # beta*Omega = 150 and 750, and R = 200: the propagator has no step
        argv = ["scan", "--omega-ratio", "1.5e9", "--observable", "amplitude",
                "--tau-steps", "1000", *flags]
        assert main(argv + ["--method", "oracle"]) == 0
        oracle = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",", skiprows=1)
        assert main(argv) == 0
        analytic = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",", skiprows=1)
        assert np.max(np.abs(oracle - analytic)) < 1e-10

    @pytest.mark.parametrize("tau_max,steps", [("1", "40"), ("1.000000000000001", "100")])
    def test_repeated_taus_fail_before_any_work(self, capsys, monkeypatch, tau_max, steps):
        def no_work(*args):
            raise AssertionError("no amplitude or Monte Carlo work may run")

        for name in ("entangling_power_mc", "build_amplitude_model", "grid_amplitude",
                     "propagator"):
            monkeypatch.setattr(scenario, name, no_work)
        argv = ["scan", "--R", "0.1", "--omega-ratio", "1.5e9", "--observable", "power",
                "--power-method", "mc", "--mc-samples", "3000000",
                "--tau-min", "1", "--tau-max", tau_max, "--tau-steps", steps]
        assert main(argv) == 1  # before the CSV header too: stdout stays empty
        assert capsys.readouterr() == ("", "error: tau values must be strictly increasing\n")

    def test_repeat_across_a_block_boundary_fails_before_any_work(self, capsys, monkeypatch):
        # two power rows a block: each block rises strictly; only the first
        # tau of the second repeats, 1 + 2/3 ulp and 1 + 4/3 ulp both
        # rounding to 1 + 1 ulp
        monkeypatch.setattr(scenario, "_CSV_CHUNK", 4)
        taus = scenario.TimeGrid(1.0, 1.0000000000000004, 4).taus()
        assert taus[0] < taus[1] == taus[2] < taus[3]
        self.test_repeated_taus_fail_before_any_work(capsys, monkeypatch, "1.0000000000000004",
                                                     "4")

    def test_removed_quad_flags_are_one_line_usage_errors(self, capsys, tmp_path):
        # --quad-nodes and --quad-tol tuned the quadrature that the closed
        # form replaced; a flag or config line still holding one is refused
        argv = self.with_flag(self.BASE, "--observable", "power")
        assert main(argv + ["--quad-nodes", "64"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --quad-nodes 64\n"
        config = tmp_path / "old.conf"
        config.write_text("quad-nodes = 64\n", encoding="utf-8")
        assert main(argv + ["--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: line 1: unknown key 'quad-nodes'\n"

    @pytest.mark.parametrize("text,message", [
        ("observable = bogus\n", "unknown observable 'bogus'"),
        ("observable = power\nmethod = rk4\n", "unknown method 'rk4'"),
        ("observable = power\npower-method = gauss\n", "unknown power-method 'gauss'"),
    ], ids=["observable", "method", "power-method"])
    def test_bad_choice_in_config_file_is_one_line_usage_error(self, capsys, tmp_path, text,
                                                               message):
        # argparse checks only the flags' choices; ScenarioConfig checks a
        # config file's value against the same choices in OPTIONS
        config = tmp_path / "bad.conf"
        config.write_text(text, encoding="utf-8")
        argv = ["scan", "--R", "0.1", "--omega-ratio", "1.5e9", "--config", str(config)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    CONFIG = "R = 0.1\nomega-ratio = 1.5e9\nobservable = amplitude\ntau-steps = 11\n"

    def test_config_out_with_hash_writes_that_file(self, capsys, tmp_path, monkeypatch):
        # "#" starts a comment only as a whole line's first character
        monkeypatch.chdir(tmp_path)
        Path("run.conf").write_text(self.CONFIG + "out = run#1.csv\n", encoding="utf-8")
        assert main(["scan", "--config", "run.conf"]) == 0
        assert capsys.readouterr() == ("", "")
        assert main(self.BASE) == 0
        assert Path("run#1.csv").read_text(encoding="utf-8") == capsys.readouterr().out
        assert sorted(os.listdir()) == ["run#1.csv", "run.conf"]

    def test_inline_comment_is_one_line_usage_error(self, capsys, tmp_path):
        config = tmp_path / "note.conf"
        config.write_text(self.CONFIG.replace("R = 0.1", "R = 0.1  # note"), encoding="utf-8")
        assert main(["scan", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", "error: line 1: bad value for 'R': '0.1  # note'\n")

    def test_config_with_byte_order_mark_scans(self, capsys, tmp_path):
        config = tmp_path / "bom.conf"
        config.write_text(self.CONFIG, encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbfR = 0.1\n")
        assert main(["scan", "--config", str(config)]) == 0
        out, err = capsys.readouterr()
        assert main(self.BASE) == 0
        assert (out, err) == (capsys.readouterr().out, "")

    def test_config_not_utf8_is_one_line_usage_error(self, capsys, tmp_path):
        config = tmp_path / "latin.conf"
        config.write_bytes((self.CONFIG + "out = caf\xe9.csv\n").encode("latin-1"))
        out = tmp_path / "o.csv"
        assert main(["scan", "--config", str(config), "--out", str(out)]) == 1
        at = len(self.CONFIG + "out = caf")  # the byte 0xe9
        assert capsys.readouterr() == ("", f"error: {config}: not UTF-8 text at byte {at}\n")
        assert os.listdir(tmp_path) == ["latin.conf"]

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_empty_out_is_one_line_usage_error(self, capsys, tmp_path, monkeypatch, form):
        # "" once named the working directory: exit 3 and "[Errno 21] Is a directory: ''"
        monkeypatch.chdir(tmp_path)
        ran = []
        monkeypatch.setattr(cli, "emit_csv", lambda config, path: ran.append(path))
        Path("run.conf").write_text(self.CONFIG + "out =\n", encoding="utf-8")
        argv = self.BASE + ["--out", ""] if form == "flag" else ["scan", "--config", "run.conf"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: out must be a file path, or '-' for stdout\n")
        assert ran == [] and os.listdir() == ["run.conf"]

    def test_non_finite_amplitude_is_numeric_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(scenario, "grid_amplitude",
                            lambda model, grid: lambda lo, hi: np.full(hi - lo, np.nan + 0j))
        assert main(self.BASE) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numeric failure:")

    @pytest.mark.parametrize("R", ["1e50", "1e110", "1e150"])
    def test_overflowing_amplitude_is_one_line(self, capsys, R):
        # the analytic route overflows from about R = 1e50 (solve_cubic's
        # Newton polish, amplitude's exp) and must not warn on the way.  On
        # [0, 50] the phase bound stops these R first.  On a grid short
        # enough to pass it, R = 1e110 and 1e150 leave the cubic's roots
        # inf or NaN, so the model takes the propagator, and R = 1e50 stays
        # analytic; each gives the large-R limit e^(-tau/2) cos(R tau/sqrt(2))
        argv = self.with_flag(self.BASE, "--R", R)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: R*tau_end/sqrt(2)")
        assert main(self.with_flag(argv, "--tau-max", "1e-150")) == 0
        out, err = capsys.readouterr()
        assert err == ""
        tau, re, im, _ = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1).T
        limit = np.exp(-tau / 2) * np.cos(float(R) * tau / math.sqrt(2))
        assert np.max(np.abs(re + 1j * im - limit)) <= 4 * np.finfo(float).eps

    def test_phase_bound(self, capsys):
        # Beyond R*tau_end/sqrt(2) = 1e-3/eps (4.5e12) the phase of E is
        # uncertain by more than 1e-3: R = 1e100 gave finite, meaningless
        # values.  Inside it E is real within that uncertainty at beta = 0.
        argv = ["scan", "--R", "1e100", "--omega-ratio", "1.5e9", "--observable", "entropy",
                "--tau-steps", "3", "--out", "-"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""  # the check runs before the CSV header is written
        assert err.count("\n") == 1
        assert err.startswith("error: R*tau_end/sqrt(2) = 3.54e+101 exceeds 4.5e+12")
        for R, tau_max, code in (("1e10", "50", 0), ("1e12", "1", 0), ("1e12", "50", 1)):
            argv = self.with_flag(self.with_flag(self.BASE, "--R", R), "--tau-max", tau_max)
            assert main(argv) == code
            out, err = capsys.readouterr()
            if code:
                assert err.count("\n") == 1 and err.startswith("error: R*tau_end/sqrt(2)")
                continue
            assert err == ""
            rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
            assert len(rows) == 11 and np.all(np.isfinite(rows))
            assert np.max(np.abs(rows[:, 2])) < 1e-3  # Im E; 9.6e-8 at R = 1e10, tau = 1

    @pytest.mark.parametrize("error", QubitSwapError.__subclasses__(), ids=lambda e: e.__name__)
    def test_every_package_error_is_one_line(self, capsys, monkeypatch, error):
        def failing(config, path):
            raise error("boom")

        monkeypatch.setattr(cli, "emit_csv", failing)
        usage = error in (ParseError, RangeError)
        assert main(self.BASE) == (1 if usage else 2)
        assert capsys.readouterr().err == ("error: boom\n" if usage else "numeric failure: boom\n")

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(config, path):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")

        monkeypatch.setattr(cli, "emit_csv", broken)
        assert main(self.BASE) == 2
        err = capsys.readouterr().err
        assert err == "internal error: LinAlgError: Array must not contain infs or NaNs\n"


def box_sweep_inputs():
    """(R, beta, Omega, tau_end) over the documented box: 60 seeded
    log-uniform draws, then the structured points where a route once failed
    or went wrong: R = 1/sqrt(2) at beta = 0 (coinciding roots), R = 2e-3
    with beta = 1e-8 and Omega = 0.05 (a close pair), the near-triple root at
    three beta, and beta*Omega = 150 and 750.  Last, the top of R's range at
    beta = 1e-8 and Omega = 1.5e9, up to the box's 1.34e154: R = 1e20, 1e50
    and 1e100 at the phase 4e12, which stay analytic on roots that solve_cubic
    gets only roughly, and R = 1e150 and 1.3e154, whose roots overflow, so
    they take the propagator."""
    rng = np.random.default_rng(2501)

    def log_uniform(lo, hi):
        return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))

    for _ in range(60):
        beta = 0.0 if rng.uniform() < 0.25 else log_uniform(1e-18, 9.99e-4)
        yield log_uniform(1e-8, 1e12), beta, log_uniform(1e-6, 1e18), log_uniform(1e-3, 1e3)
    yield 1 / math.sqrt(2), 0.0, 1.5e9, 50.0
    yield 2e-3, 1e-8, 0.05, 50.0
    for beta in (1e-9, 1e-12, 1e-15):
        yield 0.769800358919501, beta, 0.19245008972987526 / beta, 50.0
    yield 10.0, 1e-7, 1.5e9, 50.0
    yield 1000.0, 5e-7, 1.5e9, 50.0
    for R in (1e20, 1e50, 1e100):
        yield R, 1e-8, 1.5e9, 4e12 * math.sqrt(2) / R
    yield 1e150, 1e-8, 1.5e9, 1e-150
    yield 1.3e154, 1e-8, 1.5e9, 1e-154


class TestBoxSweep:
    """Every observable, through cli.main, at each point of a seeded sweep of
    the documented box: exit 0 with finite values, or, beyond the phase
    bound, exit 1 with one line on stderr and nothing on stdout.  Where it
    exits 0, the default amplitude route is within max(1e-10, 1e-15 phase)
    of the propagator, the phase being R*tau_end/sqrt(2)."""

    @staticmethod
    def rows(out):
        return np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)

    def test_sweep(self, capsys):
        rng = np.random.default_rng(7)
        rejected = 0
        for R, beta, omega, tau_end in box_sweep_inputs():
            t1, t2 = rng.uniform(0, math.pi, 2)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            argv = scan_argv({"R": R, "beta": beta, "omega-ratio": omega, "tau-max": tau_end,
                              "tau-steps": 41, "theta1": t1, "phi1": p1, "theta2": t2,
                              "phi2": p2, "out": "-"})
            phase = R * tau_end / math.sqrt(2)
            beyond = phase > 1e-3 / sys.float_info.epsilon
            rejected += beyond
            got = {}
            for obs in scenario.OBSERVABLES:
                code = main(argv + [f"--observable={obs}"])
                out, err = capsys.readouterr()
                where = f"{obs} at R={R!r} beta={beta!r} Omega={omega!r} tau_end={tau_end!r}"
                if beyond:
                    assert (code, out, err.count("\n")) == (1, "", 1), where
                    assert err.startswith("error: R*tau_end/sqrt(2)"), where
                    continue
                assert (code, err) == (0, ""), f"{where}: {err}"
                got[obs] = self.rows(out)
                assert got[obs].shape == (41, len(scenario.COLUMNS[obs])), where
                assert np.all(np.isfinite(got[obs])), where
            if beyond:
                continue
            assert main(argv + ["--observable=amplitude", "--method=oracle"]) == 0
            oracle = self.rows(capsys.readouterr().out)
            err = np.abs((got["amplitude"][:, 1] - oracle[:, 1])
                         + 1j * (got["amplitude"][:, 2] - oracle[:, 2]))
            assert np.max(err) <= max(1e-10, 1e-15 * phase), where
        assert 0 < rejected < 20  # the bound is met on both sides


CHECK_NAMES = [name for name, _ in validate.ALL_CHECKS]

# (check, the function it checks, which of its calls is spoiled and how, the
# worst and the bound that validate then prints); concurrence-oracle calls
# concurrence_wootters once, on its whole batch, and its fifth value is spoiled;
# a spoiled lattice is the scans' amplitudes off where amplitude() is not
SPOILED = [
    ("ode-oracle-agreement", "amplitude_ode_oracle", 4, lambda out: out + 2e-10, "2e-10", "1e-10"),
    ("ode-oracle-agreement", "amplitude_ode_oracle", 4, lambda out: np.append(out[:-1], np.nan),
     "nan", "1e-10"),
    ("ode-oracle-agreement", "grid_amplitude", 4,
     lambda points: lambda lo, hi: points(lo, hi) + 2e-10, "2e-10", "1e-10"),
    ("concurrence-oracle", "concurrence_wootters", 0, lambda c: np.r_[c[:4], np.nan, c[5:]],
     "nan", "1e-08"),
]

POWER_FLAWS = [
    lambda v: np.r_[5e-324, v[1:]],  # P(0) above 0
    lambda v: np.r_[v[:3], v[2], v[4:]],  # one flat step
    lambda v: np.r_[v[:-1], np.nextafter(1.0, 2.0)],  # P above 1
]


class TestValidateCommand:
    def test_prints_one_pass_line_per_check(self, capsys):
        assert main(["validate"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"PASS {name}" for name in CHECK_NAMES]

    @pytest.mark.parametrize("name, attr, call, spoil, worst, bound", SPOILED)
    def test_one_spoiled_check_fails(self, capsys, monkeypatch, name, attr, call, spoil, worst,
                                     bound):
        real, calls = getattr(validate, attr), itertools.count()

        def spoiled(*args, **kwargs):
            out = real(*args, **kwargs)
            return spoil(out) if next(calls) == call else out

        monkeypatch.setattr(validate, attr, spoiled)
        assert main(["validate"]) == 2
        expected = [f"PASS {n}" for n in CHECK_NAMES]
        expected[CHECK_NAMES.index(name)] = f"FAIL {name}: worst {worst} exceeds bound {bound}"
        assert capsys.readouterr().out.splitlines() == expected

    def test_raising_check_fails_and_the_rest_run(self, capsys, monkeypatch):
        def raising(rho):
            raise ZeroNorm("projection has vanishing success probability")

        monkeypatch.setattr(validate, "concurrence_wootters", raising)
        assert main(["validate"]) == 2
        expected = [f"PASS {n}" for n in CHECK_NAMES]
        expected[CHECK_NAMES.index("concurrence-oracle")] = (
            "FAIL concurrence-oracle: ZeroNorm: projection has vanishing success probability")
        assert capsys.readouterr().out.splitlines() == expected

    def test_tightest_condition(self):
        tightest = validate._tightest
        assert math.isnan(tightest((0.0, 1.0), (math.nan, 1.0))[0])
        assert tightest((0.5, 1.0), (1e-300, 0.0)) == (1e-300, 0.0)  # a failed exact condition
        assert tightest((0.9, 1.0), (-1.0, 0.0)) == (0.9, 1.0)  # a met one has no headroom
        assert tightest((0.5, 1.0), (2e-12, 1e-12), (0.0, 0.0)) == (2e-12, 1e-12)

    @pytest.mark.parametrize("flaw", POWER_FLAWS)
    def test_power_monotone_is_exact(self, monkeypatch, flaw):
        real = validate.entangling_power_grid
        monkeypatch.setattr(validate, "entangling_power_grid", lambda p: flaw(real(p)))
        worst, bound = validate.check_power_monotone()
        assert worst > bound == 0

    def test_check_names_match_benchmark_layers(self):
        spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
        layers = [m["name"] for m in spec["per_layer"] if m["name"].startswith("validate.")]
        assert layers == [f"validate.{name}.s" for name in CHECK_NAMES]


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


def run_fresh(code: str, cwd) -> str:
    """Run code in a fresh interpreter that imports this checkout's package;
    return its stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_leaves_out_numpy_polynomial(tmp_path):
    # src/ has no use for numpy.polynomial, which takes about 6 ms to import
    code = "import sys, qubitswap.cli; print('numpy.polynomial' in sys.modules)"
    assert run_fresh(code, tmp_path) == "False\n"


def test_monte_carlo_and_validate_leave_out_numpy_random(tmp_path):
    # numpy.random brings in secrets, hmac and OpenSSL's _hashlib, about 5 MB
    # of peak memory; the seeded draws are SplitMix64 in numpy arithmetic
    code = """
import sys, numpy
before = set(sys.modules)  # numpy before 2.0 imports numpy.random itself
from qubitswap.cli import main
assert main(["scan", "--R", "10", "--omega-ratio", "1.5e9", "--observable", "power",
             "--power-method", "mc", "--mc-samples", "20000", "--tau-steps", "3",
             "--out", "p.csv"]) == 0
assert main(["validate"]) == 0
print(sorted({"numpy.random", "_hashlib"} & (set(sys.modules) - before)))
"""
    assert run_fresh(code, tmp_path).splitlines()[-1] == "[]"


def test_cli_import_builds_no_formatting_tables(tmp_path):
    # format17's tables take about 2 ms; a command that writes no CSV never builds them
    code = "import qubitswap.cli, qubitswap.format17 as f; print(f._tables.cache_info().misses)"
    assert run_fresh(code, tmp_path) == "0\n"


# One pass over the five grid observables at 1e5 points, in a fresh
# interpreter; prints the minor page faults the pass took.
FAULT_PASS = """
import resource, sys
from qubitswap.cli import main
args = ["scan", "--R", "10", "--beta", "1e-8", "--omega-ratio", "1.5e9",
        "--theta1", "1.5707963267948966", "--theta2", "0.78539816339744828",
        "--tau-max", "50", "--tau-steps", "100001"]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for obs in ("amplitude", "entropy", "entropy-avg", "concurrence", "density"):
    assert main(args + ["--observable", obs, "--out", obs + ".csv"]) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestAllocatorPolicy:
    """cli.main fixes glibc's heap thresholds once per process, so freed CSV
    blocks stay in the process; without mallopt it changes nothing."""

    ARGS = ["scan", "--R", "10", "--beta", "1e-8", "--omega-ratio", "1.5e9",
            "--observable", "density", "--theta1", "1.5707963267948966",
            "--theta2", "0.78539816339744828", "--tau-steps", "1001"]

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        cli._keep_freed_memory.cache_clear()
        yield
        cli._keep_freed_memory.cache_clear()

    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert main(["figure", "fig99"]) == 1
        assert main(["figure", "fig99"]) == 1
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("error", [OSError, TypeError, None])
    def test_no_mallopt_changes_nothing(self, tmp_path, monkeypatch, error):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert main(self.ARGS + ["--out", str(want)]) == 0
        cli._keep_freed_memory.cache_clear()
        names = []

        def patched(name):
            names.append(name)
            if error is not None:
                raise error("no C library")
            return object()  # a C library without mallopt

        monkeypatch.setattr(cli.ctypes, "CDLL", patched)
        assert main(self.ARGS + ["--out", str(got)]) == 0
        assert names == [None]
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="glibc's mallopt and Linux fault counts")
    def test_scan_pass_page_faults(self, tmp_path):
        # About 30 000 minor faults with glibc's dynamic thresholds, which
        # hand each freed block back to the kernel; about 3 000 with them fixed.
        assert int(run_fresh(FAULT_PASS, tmp_path)) < 6_000
