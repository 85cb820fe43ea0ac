"""File formats, report schema, subcommand behavior, and exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    concave_increasing_nonnegative_values,
    convex_values,
    decreasing_nonnegative_values,
    nonincreasing_difference_values,
    perturbed_convex_values,
    random_values,
)
from seqineq import (
    Sequence,
    parse_sequence_csv,
    parse_sequence_json,
    quadratic_piece,
    read_sequence,
    spline_eval,
    spline_samples,
    write_sequence,
)
from seqineq.cli import run_cli, load_report_schema
from seqineq.core import PURE_ROWS_MAX_N

VALIDATOR = jsonschema.Draft202012Validator(load_report_schema())
SRC = Path(__file__).resolve().parent.parent / "src"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _report(capsys):
    out = capsys.readouterr().out
    doc = json.loads(out)
    VALIDATOR.validate(doc)
    return doc


def _python(*args, **kwargs):
    """A fresh interpreter that imports the package from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


# ---------------------------------------------------------------- file formats

def test_csv_defaults_to_base_one():
    u = parse_sequence_csv("1\n3\n2\n")
    assert u.start_index == 1
    assert u.values == (1.0, 3.0, 2.0)


def test_csv_header_sets_base_and_comments_are_skipped():
    text = "# a note\n# start_index=0\n\n0\n-1\n1\n3\n"
    u = parse_sequence_csv(text)
    assert u.start_index == 0
    assert u.values == (0.0, -1.0, 1.0, 3.0)


def test_csv_rejects_garbage():
    with pytest.raises(ValueError, match="line 2"):
        parse_sequence_csv("1\ntwo\n3\n")
    with pytest.raises(ValueError, match="no values"):
        parse_sequence_csv("# start_index=1\n")
    with pytest.raises(ValueError, match="start_index"):
        parse_sequence_csv("# start_index=2\n1\n")


def test_json_sequence_parsing():
    u = parse_sequence_json('{"start_index": 0, "values": [0, -1, 1, 3]}')
    assert u.start_index == 0
    assert u.values == (0.0, -1.0, 1.0, 3.0)
    assert parse_sequence_json('{"values": [1]}').start_index == 1
    for bad in (
        "[1, 2]",
        '{"values": "1"}',
        '{"values": [1, true]}',
        '{"start_index": "0", "values": [1]}',
        '{"start_index": 2, "values": [1]}',
        "not json",
    ):
        with pytest.raises(ValueError):
            parse_sequence_json(bad)


def test_sequence_files_round_trip_bitwise(tmp_path):
    values = (0.1, 1.0 / 3.0, -2.5e-17, 3.0, 123456789.123456789)
    u = Sequence(values, 0)
    for name in ("seq.csv", "seq.json"):
        path = tmp_path / name
        write_sequence(path, u)
        back = read_sequence(path)
        assert back.values == u.values
        assert back.start_index == u.start_index


# ------------------------------------------------------------ stated examples

def test_check_convex_example(tmp_path, capsys):
    path = _write(tmp_path, "convex.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["check-convex", path]) == 0
    doc = _report(capsys)
    assert doc["convexity"]["is_convex"] is True
    assert doc["input"] == {"length": 4, "start_index": 0}


def test_epsilon_example(tmp_path, capsys):
    path = _write(tmp_path, "u.csv", "1\n3\n2\n")
    assert run_cli(["epsilon", path]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


def test_check_subadd_example(tmp_path, capsys):
    path = _write(tmp_path, "u.csv", "1\n3\n2\n")
    assert run_cli(["check-subadd", path, "--eps", "0.5"]) == 1
    doc = _report(capsys)
    assert doc["subadditivity"]["ok"] is False
    assert doc["subadditivity"]["epsilon_star"] == 1.0


# ------------------------------------------------------- reports and schema

def test_every_report_command_validates_against_schema(tmp_path, capsys):
    convex = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    base1 = _write(tmp_path, "s.csv", "1\n3\n2\n")
    invocations = [
        (["check-convex", convex], 0),
        (["support", convex], 0),
        (["spline", convex], 0),
        (["lagrange", convex], 0),
        (["hull", base1], 0),
        (["decompose", base1], 0),
        (["check-subadd", base1], 1),
        (["check-subadd", base1, "--eps", "1.0"], 0),
    ]
    for argv, expected in invocations:
        assert run_cli(argv) == expected, argv
        _report(capsys)  # raises if the document does not match the schema


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(load_report_schema())


def test_support_report_contents(tmp_path, capsys):
    path = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["support", path]) == 0
    doc = _report(capsys)
    assert doc["support"]["values"] == [-1.0, 2.0, 2.0]
    assert doc["support"]["first_index"] == 0
    assert doc["support"]["last_index"] == 2
    assert doc["support"]["witness_pairs"] == [[0, 1], [1, 2], [2, 3]]


def test_spline_report_contents(tmp_path, capsys):
    path = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["spline", path, "--samples", "2"]) == 0
    doc = _report(capsys)
    pieces = doc["spline"]["pieces"]
    assert pieces[0] == {"center": 1, "a": 1.5, "b": -2.5, "c": 0.0}
    assert pieces[1] == {"center": 2, "a": 0.0, "b": 2.0, "c": -3.0}
    samples = doc["spline"]["samples"]
    assert len(samples) == 2 * 3 + 1
    assert samples[0] == [0.0, 0.0]
    assert [0.5, -0.875] in samples
    assert samples[-1] == [3.0, 3.0]


def test_lagrange_report_contents(tmp_path, capsys):
    path = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["lagrange", path]) == 0
    doc = _report(capsys)
    got = doc["lagrange"]["coefficients"]
    for value, want in zip(got, (0.0, -3.5, 3.0, -0.5)):
        assert value == pytest.approx(want, abs=1e-12)
    assert doc["lagrange"]["convexity_class"] == "neither"
    assert doc["lagrange"]["interval"] == [0.0, 3.0]


def test_hull_report_contents(tmp_path, capsys):
    path = _write(tmp_path, "s.csv", "1\n3\n2\n")
    assert run_cli(["hull", path]) == 0
    doc = _report(capsys)
    assert doc["hull"]["v"] == [1.0, 2.0, 2.0]
    assert doc["hull"]["witnesses"] == [[1], [1, 1], [3]]


def test_check_convex_reports_violations(tmp_path, capsys):
    path = _write(tmp_path, "spike.csv", "# start_index=0\n0\n1\n0\n")
    assert run_cli(["check-convex", path]) == 1
    doc = _report(capsys)
    assert doc["convexity"]["is_convex"] is False
    assert doc["convexity"]["defining_violations"] == [[1, 2.0]]
    assert doc["convexity"]["first_violating_triple"] == [0, 1, 2]


def test_decompose_writes_round_trip_files(tmp_path, capsys):
    rng = random.Random(2020)
    values = tuple(float(rng.randint(-10, 10)) for _ in range(30))
    u = Sequence(values, 1)
    src = tmp_path / "u.json"
    write_sequence(src, u)
    out_v = tmp_path / "v.csv"
    out_w = tmp_path / "w.json"
    code = run_cli(
        ["decompose", str(src), "--out-v", str(out_v), "--out-w", str(out_w)]
    )
    assert code == 0
    doc = _report(capsys)
    v = read_sequence(out_v)
    w = read_sequence(out_w)
    assert list(v.values) == doc["decomposition"]["v"]
    assert list(w.values) == doc["decomposition"]["w"]
    assert tuple(a + b for a, b in zip(v.values, w.values)) == u.values


# ------------------------------------------------------------------ exit codes

def test_error_exits_with_one_line_diagnostic(tmp_path, capsys):
    base0 = _write(tmp_path, "zero.csv", "# start_index=0\n1\n2\n")
    garbage = _write(tmp_path, "bad.csv", "1\ntwo\n")
    pair = _write(tmp_path, "pair.csv", "1\n2\n")
    cases = [
        ["hull", str(tmp_path / "missing.csv")],
        ["hull", base0],
        ["epsilon", base0],
        ["decompose", base0],
        ["check-subadd", base0],
        ["check-convex", garbage],
        ["check-convex", base0, "--bogus"],
        ["no-such-command", base0],
        ["spline", pair],
        ["spline", base0, "--samples", "0"],
        ["check-subadd", _write(tmp_path, "ok.csv", "1\n2\n"), "--eps", "-1"],
        ["check-subadd", _write(tmp_path, "ok.csv", "1\n2\n"), "--eps", "nan"],
        ["check-subadd", _write(tmp_path, "ok.csv", "1\n2\n"), "--eps", "inf"],
        ["check-convex", _write(tmp_path, "huge.json", '{"values": [1, 1%s]}' % ("0" * 400))],
        [],
    ]
    for argv in cases:
        assert run_cli(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.strip(), argv
        assert len(captured.err.strip().splitlines()) == 1, argv


HULL_OVERFLOW = "subadditive hull overflows at n=4: v[4] = -inf, w[4] = inf"
SUPPORT_CHECK_OVERFLOW = (
    "support check overflows at (m, n) = (2, 0): u[0] - u[2] = -inf, "
    "v[0] = 1.7e+308, v[0] * (0 - 2) = -inf"
)
PEAK_OVERFLOW = "second difference of u[0..2] overflows"
LAGRANGE_OVERFLOW_10 = "coefficient of x^1 of the interpolant overflows"
LAGRANGE_OVERFLOW_30 = "coefficient of x^3 of the interpolant overflows"
# The input of each case, by its message; the others read ALTERNATING.
OVERFLOW_INPUTS = {
    # Linear, so the defining and slope legs pass; the support pair
    # (2, 0) compares -inf with -inf plus an infinite slack.
    SUPPORT_CHECK_OVERFLOW: "# start_index=0\n-1.7e308\n0\n1.7e308\n",
    # 2 * u[1] overflows; its infinite slack would pass the defining leg.
    PEAK_OVERFLOW: "# start_index=0\n0\n1.7e308\n0\n",
    # The exact interpolants' coefficients of x^1 and x^3 are beyond float
    # range; the degree-29 one fails before its conditioning warning.
    LAGRANGE_OVERFLOW_10: "# start_index=0\n" + "".join(f"{(-1) ** k * 1.7e308}\n" for k in range(10)),
    LAGRANGE_OVERFLOW_30: "# start_index=0\n" + "".join(f"{(-1) ** k * 1e300}\n" for k in range(30)),
}
ALTERNATING = "1.7e308\n-1.7e308\n1.7e308\n-1.7e308\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["hull"], HULL_OVERFLOW),
        (["epsilon"], HULL_OVERFLOW),
        (["decompose"], HULL_OVERFLOW),
        # check-subadd classifies the input first; its second differences
        # overflow before the hull is built.
        (["check-subadd", "--eps", "1"], "second difference of u[1..3] overflows"),
        (["spline"], "quadratic piece at n=2 overflows"),
        (["spline", "--format", "csv"], "quadratic piece at n=2 overflows"),
        (["check-convex"], SUPPORT_CHECK_OVERFLOW),
        (["support"], "support sequence overflows at n=1: u[2] - u[1] = -inf"),
        (["check-convex"], PEAK_OVERFLOW),
        (["lagrange"], LAGRANGE_OVERFLOW_10),
        (["lagrange"], LAGRANGE_OVERFLOW_30),
    ],
)
def test_overflow_is_named_on_finite_input(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "big.csv", OVERFLOW_INPUTS.get(message, ALTERNATING))
    assert run_cli([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_classification_agrees_with_the_defining_leg(tmp_path, capsys):
    # 2 * u[1] exceeds u[0] + u[2] by 1e-4, within the relative slack of
    # 2e6, while the second difference -1e-4 is beyond the absolute one.
    path = _write(tmp_path, "edge.csv", "# start_index=0\n0\n1000000\n1999999.9999\n")
    assert run_cli(["check-convex", path]) == 0
    report = _report(capsys)
    assert report["convexity"]["is_convex"] is True
    assert report["classification"]["convex"] is True


def test_overflowing_chords_leave_support_finite(tmp_path, capsys):
    # Both steps are finite; only the chord from 0 to 2 overflows.
    path = _write(tmp_path, "wide.csv", "# start_index=0\n1.7e308\n0\n-1.7e308\n")
    assert run_cli(["check-convex", path]) == 0
    assert _report(capsys)["convexity"]["support_ok"] is True
    assert run_cli(["support", path]) == 0
    assert _report(capsys)["support"]["values"] == [-1.7e308, -1.7e308]


def test_warning_is_one_line_on_stderr(tmp_path, capsys):
    path = _write(tmp_path, "long.csv", "".join(f"{n * n}\n" for n in range(30)))
    assert run_cli(["lagrange", path]) == 0
    captured = capsys.readouterr()
    VALIDATOR.validate(json.loads(captured.out))
    assert captured.err == (
        "warning: monomial coefficients of a degree-29 interpolant are "
        "ill-conditioned; treat them as qualitative\n"
    )


def test_support_on_singleton_is_an_input_error(tmp_path, capsys):
    path = _write(tmp_path, "one.csv", "5\n")
    assert run_cli(["support", path]) == 2
    assert "too short" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


SHARED_OPTIONS = {"--help", "--abs-tol", "--rel-tol", "--format"}
OWN_OPTIONS = {
    "check-convex": set(),
    "support": set(),
    "spline": {"--samples"},
    "lagrange": set(),
    "hull": set(),
    "epsilon": set(),
    "decompose": {"--out-v", "--out-w"},
    "check-subadd": {"--eps"},
}


@pytest.mark.parametrize("command", [None, *OWN_OPTIONS])
def test_help_lists_exactly_the_options_of_its_command(capsys, command):
    assert run_cli(["--help"] if command is None else [command, "--help"]) == 0
    out = capsys.readouterr().out
    options = set(re.findall(r"--[a-z][a-z-]*", out))
    assert options == SHARED_OPTIONS | OWN_OPTIONS.get(command, set())
    if command is None:
        assert all(name in out for name in OWN_OPTIONS)


@pytest.mark.parametrize(
    "argv",
    [["hull", "--samples", "3"], ["support", "--eps", "1"], ["spline", "--out-v", "x"]],
)
def test_an_option_of_another_command_is_refused(tmp_path, capsys, argv):
    path = _write(tmp_path, "u.csv", "1\n2\n4\n")
    assert run_cli([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unrecognized arguments: {' '.join(argv[1:])}\n"


def test_closed_stdout_exits_141_with_empty_stderr(tmp_path, monkeypatch):
    # The report (one line of about 0.96 MB) and the CSV (one write of about
    # 0.8 MB) are far larger than a pipe buffer, so the writer is still
    # blocked on stdout when the reader goes away after its first byte.  An
    # unbuffered stdout returns from that write without an error.
    path = _write(tmp_path, "long.csv", "".join(f"{n * n}\n" for n in range(2000)))
    for unbuffered in (False, True):
        if unbuffered:
            monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        else:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        for fmt, first in (("json", b"{"), ("csv", b"#")):
            proc = _python("-m", "seqineq.cli", "spline", path, "--format", fmt,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            assert proc.stdout.read(1) == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert (fmt, unbuffered, proc.wait(timeout=60)) == (fmt, unbuffered, 141)
            assert err == b""


STARTUP_PROBE = """
import io, json, sys
from seqineq.cli import run_cli
seq, base0, garbage, pair, at_cutoff, above_cutoff = sys.argv[1:]
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
codes = [
    run_cli(["--help"]),
    run_cli(["spline", seq]),
    run_cli(["spline", seq, "--format", "csv"]),
    run_cli(["hull", base0]),
    run_cli(["check-subadd", base0]),
    run_cli(["support", pair, "--bogus"]),
    run_cli(["check-convex", garbage]),
    run_cli(["spline", pair]),
]
for path in (seq, at_cutoff):
    for command in ("check-convex", "support", "hull", "epsilon", "decompose", "check-subadd"):
        codes.append(run_cli([command, path]))
    codes.append(run_cli(["check-subadd", path, "--eps", "1"]))
for command in ("check-convex", "support", "hull"):
    codes.append(run_cli([command, above_cutoff]))
before = "numpy" in sys.modules
codes.append(run_cli(["check-subadd", above_cutoff]))
sys.__stdout__.write(json.dumps([codes, before, "numpy" in sys.modules]))
"""


def test_startup_help_spline_and_refusals_do_not_load_numpy(tmp_path):
    squares = [f"{n * n}\n" for n in range(1, PURE_ROWS_MAX_N + 2)]
    files = [
        _write(tmp_path, "seq.csv", "1\n3\n2\n5\n"),
        _write(tmp_path, "zero.csv", "# start_index=0\n1\n2\n"),
        _write(tmp_path, "bad.csv", "1\ntwo\n"),
        _write(tmp_path, "pair.csv", "1\n2\n"),
        _write(tmp_path, "at_cutoff.csv", "".join(squares[:-1])),
        _write(tmp_path, "above_cutoff.csv", "".join(squares)),
    ]
    proc = _python("-c", STARTUP_PROBE, *files, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    codes, before, after = json.loads(out)
    # check-convex, support, hull, epsilon, decompose, check-subadd, --eps 1
    kernels_on_seq = [1, 0, 0, 0, 0, 1, 1]
    kernels_on_squares = [0, 0, 0, 0, 0, 1, 1]
    assert codes == [0, 0, 0, 2, 2, 2, 2, 2] + kernels_on_seq + kernels_on_squares + [0, 0, 0, 1]
    # --help, spline, every refusal, every kernel on up to PURE_ROWS_MAX_N
    # entries, and check-convex, support and hull on a convex input above it
    # ran without numpy: the hull's only generator there is 1
    assert not before
    assert after  # the pairwise kernel loads it one entry above the cutoff


NO_NUMPY_PROBE = """
import io, json, sys
from seqineq.cli import run_cli
out_dir, *paths = sys.argv[1:]
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
codes = []
for path in paths:
    codes.append(run_cli(["hull", path]))
    codes.append(run_cli(["decompose", path, "--out-v", out_dir + "/v.csv", "--out-w", out_dir + "/w.csv"]))
    codes.append(run_cli(["epsilon", path]))
    codes.append(run_cli(["check-subadd", path, "--eps", "1"]))
sys.__stdout__.write(json.dumps([codes, "numpy" in sys.modules]))
"""


def test_hull_commands_on_few_generators_do_not_load_numpy(tmp_path):
    # Base-1 inputs of 2000 entries, far above PURE_ROWS_MAX_N.  The hull
    # scans only its generators, the j with last_part[j - 1] == j: one on
    # k^2 - 3k, a few dozen on random integers.
    rng = random.Random("few-generators")
    convex = [k * k - 3 * k for k in range(1, 2001)]
    noise = [rng.randint(0, 1000) for _ in range(2000)]
    files = [_write(tmp_path, f"{name}.csv", "".join(f"{x}\n" for x in values))
             for name, values in (("convex", convex), ("noise", noise))]
    proc = _python("-c", NO_NUMPY_PROBE, str(tmp_path), *files, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=120)
    codes, loaded = json.loads(out)
    # hull, decompose, epsilon, check-subadd --eps 1: neither input is
    # 1-approximately subadditive
    assert codes == [0, 0, 0, 1] * 2
    assert not loaded


LAGRANGE_PROBE = """
import io, json, sys
from seqineq.cli import run_cli
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
codes = [run_cli(["--help"])]
help_loaded = sorted({"fractions", "decimal"} & set(sys.modules))
codes += [run_cli(["lagrange", path]) for path in sys.argv[1:]]
sys.__stdout__.write(json.dumps([codes, help_loaded, "numpy" in sys.modules]))
"""


def test_lagrange_and_help_load_neither_numpy_nor_fractions(tmp_path):
    # Degrees 4, 21 (above the conditioning warning) and 64 (the maximum);
    # 2^k at degree 64 takes the Bernstein subdivision to prove "convex".
    rng = random.Random("lagrange-probe")
    inputs = {
        "squares4": [k * k for k in range(5)],
        "noise21": [rng.randint(0, 1000) for _ in range(22)],
        "noise64": [rng.randint(0, 1000) for _ in range(65)],
        "powers64": [2**k for k in range(65)],
    }
    files = [_write(tmp_path, f"{name}.csv", "".join(f"{x}\n" for x in values))
             for name, values in inputs.items()]
    proc = _python("-c", LAGRANGE_PROBE, *files, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    codes, help_loaded, numpy_loaded = json.loads(out)
    assert codes == [0] * 5
    assert help_loaded == []
    assert not numpy_loaded


# The modules are diffed rather than listed, so that whatever the interpreter
# loads before the import (a site hook, say) does not count.  dataclasses
# brings inspect, ast and dis; the others serve one function each.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import seqineq.cli
unwanted = {"dataclasses", "inspect", "importlib.resources", "typing", "pathlib"}
added = sorted(unwanted & (set(sys.modules) - before))
from seqineq import Sequence
u = Sequence((1, 2))
try:
    u.start_index = 0
    raised = None
except Exception as exc:
    import dataclasses
    raised = type(exc) is dataclasses.FrozenInstanceError
sys.stdout.write(json.dumps([added, raised, u.start_index]))
"""


def test_cli_import_leaves_out_dataclasses_and_single_use_modules():
    proc = _python("-c", IMPORT_PROBE, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    added, raised, start_index = json.loads(out)
    assert added == []
    assert raised is True
    assert start_index == 1


# ------------------------------------------------------------- global options

def test_tolerance_flags_work_in_both_positions(tmp_path, capsys):
    # convex only if the checks run with a loose tolerance
    path = _write(tmp_path, "margin.csv", "# start_index=0\n0\n0.2\n0\n")
    assert run_cli(["check-convex", path]) == 1
    capsys.readouterr()
    assert run_cli(["--abs-tol", "0.5", "check-convex", path]) == 0
    capsys.readouterr()
    assert run_cli(["check-convex", path, "--abs-tol", "0.5"]) == 0
    doc = _report(capsys)
    assert doc["tolerance"]["abs_tol"] == 0.5


def test_csv_format_flattens_report(tmp_path, capsys):
    path = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["check-convex", path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,value"
    assert "convexity.is_convex,true" in lines
    assert "input.start_index,0" in lines


def test_csv_format_spline_emits_plot_data(tmp_path, capsys):
    path = _write(tmp_path, "c.csv", "# start_index=0\n0\n-1\n1\n3\n")
    assert run_cli(["spline", path, "--format", "csv", "--samples", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pieces = [line for line in lines if line.startswith("# piece ")]
    assert len(pieces) == 2
    header_at = lines.index("x,y")
    assert len(lines) - header_at - 1 == 4 * 3 + 1
    assert lines[header_at + 1] == "0.0,0.0"


@pytest.mark.parametrize("patched", [False, True])
def test_spline_csv_rows_are_what_csv_writer_writes(tmp_path, capsys, monkeypatch, patched):
    path = _write(tmp_path, "u.csv", "# start_index=1\n5e-324\n1e-05\n1e+16\n-0.0\n3\n")
    u = read_sequence(path)
    pieces = [quadratic_piece(u, n) for n in range(2, u.last_index)]
    samples = spline_samples(pieces, 3)
    if patched:
        # Floats whose repr has a sign, an exponent or no fraction digits.
        samples = [(1.0, -0.0), (5e-324, 1e-05), (1e+16, 1.7976931348623157e+308), (-0.0, -1e-300)]
        monkeypatch.setattr("seqineq.cli.spline_samples", lambda pieces, per_unit: samples)
    assert run_cli(["spline", path, "--format", "csv", "--samples", "3"]) == 0
    expected = io.StringIO()
    for p in pieces:
        expected.write(f"# piece center={p.center} a={p.a!r} b={p.b!r} c={p.c!r}\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(("x", "y"))
    writer.writerows((repr(x), repr(y)) for x, y in samples)
    assert capsys.readouterr().out == expected.getvalue()


magnitudes = st.floats(1e-300, 1e300) | st.floats(-1e300, -1e-300)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(magnitudes, min_size=3, max_size=40),
    base=st.sampled_from((0, 1)),
    per_unit=st.integers(1, 5),
)
@example(values=[0.0, 1.0, 3.0, 10.0, 30.0, 31.0, 33.0], base=0, per_unit=16)
@example(values=[1e-300, -2.5, 1e300, 7.0], base=1, per_unit=7)
def test_spline_samples_are_spline_eval_bit_for_bit(values, base, per_unit):
    # Even --samples put samples on the half-integer ties of the center rule.
    u = Sequence(tuple(values), base)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.csv")
        write_sequence(path, u)
        outs = {}
        for fmt in ("json", "csv"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run_cli(["spline", path, "--samples", str(per_unit), "--format", fmt]) == 0
            outs[fmt] = buf.getvalue()
    samples = json.loads(outs["json"])["spline"]["samples"]
    assert len(samples) == per_unit * (len(u) - 1) + 1
    for x, y in samples:
        assert repr(y) == repr(spline_eval(u, x))
    lines = outs["csv"].splitlines()
    rows = lines[lines.index("x,y") + 1 :]
    assert [row.split(",")[0] for row in rows] == [repr(x) for x, _ in samples]
    for row in rows:
        x, y = row.split(",")
        assert y == repr(spline_eval(u, float(x)))


def test_output_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "s.csv", "1\n3\n2\n")
    assert run_cli(["decompose", path]) == 0
    first = capsys.readouterr().out
    assert run_cli(["decompose", path]) == 0
    assert capsys.readouterr().out == first


def test_numbers_round_trip_through_report_json(tmp_path, capsys):
    from seqineq import subadditive_hull

    values = (0.1, 1.0 / 3.0, 2.0)
    u = Sequence(values, 1)
    path = tmp_path / "f.csv"
    write_sequence(path, u)
    assert run_cli(["hull", str(path)]) == 0
    doc = _report(capsys)
    # JSON serialization must not lose a single bit of the computed hull
    assert tuple(doc["hull"]["v"]) == subadditive_hull(u).v.values


CORPUS_FAMILIES = (
    convex_values,
    perturbed_convex_values,
    random_values,
    decreasing_nonnegative_values,
    concave_increasing_nonnegative_values,
    nonincreasing_difference_values,
)


def test_reports_have_the_layout_of_json_dumps(tmp_path, capsys):
    rng = random.Random(4040)
    for make in CORPUS_FAMILIES:
        for length in (3, 4, 9, 17):
            values = make(rng, length)
            for base in (0, 1):
                path = tmp_path / f"u{base}.json"
                write_sequence(path, Sequence(values, base))
                invocations = [
                    ["check-convex", str(path)],
                    ["support", str(path)],
                    ["spline", str(path), "--samples", "3"],
                    ["lagrange", str(path)],
                ]
                if base == 1:
                    invocations += [
                        ["hull", str(path)],
                        ["decompose", str(path)],
                        ["check-subadd", str(path)],
                        ["check-subadd", str(path), "--eps", "1"],
                    ]
                for argv in invocations:
                    assert run_cli(argv) in (0, 1), argv
                    out = capsys.readouterr().out
                    assert out == json.dumps(json.loads(out)) + "\n", argv
