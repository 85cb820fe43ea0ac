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
    CONDITIONING_WARN_DEGREE,
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
from seqineq.subadditivity import PURE_ROWS_MAX_N

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


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    # Spreadsheets' "CSV UTF-8" starts the file with one.
    texts = {
        "header.csv": "# start_index=0\n1\n2.5\n",
        "number.csv": "1\n2.5\n-3\n",
        "seq.json": '{"start_index": 0, "values": [1, 2.5]}\n',
    }
    for name, text in texts.items():
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_sequence(marked) == read_sequence(plain), name


def test_a_byte_order_mark_past_the_start_is_refused(tmp_path):
    cases = {
        "later.csv": ("1\n\ufeff2\n", "line 2: not a number"),
        "twice.csv": ("\ufeff\ufeff1\n", "line 1: not a number"),
        "later.json": ('{"values": \ufeff[1, 2]}', "invalid JSON"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=message):
            read_sequence(path)


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


def test_files_are_written_and_read_without_the_locale_encoding(tmp_path):
    # -X warn_default_encoding warns, on stderr, at every text open that
    # leaves the encoding to the locale.
    _write(tmp_path, "u.csv", "1\n3\n2\n5\n4\n")
    runs = [
        ["-m", "seqineq.cli", "decompose", "u.csv", "--out-v", "v.csv", "--out-w", "w.json"],
        ["-c", "from seqineq.cli import load_report_schema; load_report_schema()"],
    ]
    for args in runs:
        proc = _python("-X", "warn_default_encoding", *args, cwd=tmp_path,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
    assert read_sequence(str(tmp_path / "v.csv")).values == (1.0, 2.0, 2.0, 3.0, 4.0)
    assert read_sequence(str(tmp_path / "w.json")).values == (0.0, 1.0, 0.0, 2.0, 0.0)


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
PEAK_OVERFLOW = "second difference of u[0..2] overflows"
LATE_PEAK_OVERFLOW = "second difference of u[1..3] overflows"
LAGRANGE_OVERFLOW_10 = "coefficient of x^1 of the interpolant overflows"
LAGRANGE_OVERFLOW_30 = "coefficient of x^3 of the interpolant overflows"
# The input of each case, by its message; the others read ALTERNATING.
OVERFLOW_INPUTS = {
    # The defect 2 * u[1] - u[0] - u[2] = 3.4e308 is beyond float range.
    PEAK_OVERFLOW: "# start_index=0\n0\n1.7e308\n0\n",
    # The same defect at n = 2; the first interior index is convex.
    LATE_PEAK_OVERFLOW: "# start_index=0\n0\n0\n1.7e308\n0\n",
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
        # check-subadd builds the hull before it classifies the input, whose
        # second differences overflow too.
        (["check-subadd", "--eps", "1"], HULL_OVERFLOW),
        (["spline"], "quadratic piece at n=2 overflows"),
        (["spline", "--format", "csv"], "quadratic piece at n=2 overflows"),
        (["check-convex"], LATE_PEAK_OVERFLOW),
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


@pytest.mark.parametrize(
    "values, argv, code",
    [
        ((1e6, 1e6 + 1, 1e6 + 2 - 1e-4), [], 0),
        ((1e6, 1e6 + 1, 1e6 + 2 - 1e-4), ["--abs-tol", "0", "--rel-tol", "0"], 1),
        ((1.7e308, 1, -1.7e308), [], 1),
        ((-1e308, 8e307, 1e308), [], 1),
        ((1.7e308, -1.7e308, 1.7e308), [], 0),
        ((-1.7e308, 0, 1.7e308), [], 0),
        # Not convex as binary floats: 0.3 - 0.2 < 0.2 - 0.1.
        ((0.1, 0.2, 0.3, 0.4), ["--abs-tol", "0", "--rel-tol", "0"], 1),
    ],
    ids=["large-offset", "large-offset-exact", "rounded-steps", "finite-defect", "wide-sides",
         "wide-steps", "decimals-exact"],
)
def test_check_convex_decides_finite_input_exactly(tmp_path, capsys, values, argv, code):
    # Each of these exited 2 before the legs were decided exactly, except
    # large-offset-exact, with a disagreement or a misnamed overflow.
    path = _write(tmp_path, "u.csv", "# start_index=0\n" + "".join(f"{float(x)!r}\n" for x in values))
    assert run_cli(["check-convex", path, *argv]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    VALIDATOR.validate(report)
    convexity = report["convexity"]
    assert convexity["is_convex"] == convexity["slopes_ok"] == convexity["support_ok"] == (code == 0)
    assert report["classification"]["convex"] == (code == 0)


@pytest.mark.parametrize("argv", [["check-subadd"], ["check-subadd", "--eps", "1"]])
def test_check_subadd_classifies_without_overflow(tmp_path, capsys, argv):
    # 2 * u[2] overflows in floats; the exact classification does not.
    path = _write(tmp_path, "u.csv", "1\n1.7e308\n1\n1\n")
    assert run_cli([argv[0], path, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    flags = json.loads(captured.out)["classification"]
    assert (flags["convex"], flags["concave"]) == (False, False)


@pytest.mark.parametrize(
    "argv",
    [["check-subadd"], ["check-subadd", "--eps", "1"], ["hull"], ["epsilon"], ["decompose"]],
)
def test_subadditivity_names_its_index_base_before_classifying(tmp_path, capsys, argv):
    # 2 * u[1] overflows, so classifying this input first names an overflow.
    path = _write(tmp_path, "base0.csv", "# start_index=0\n1\n1.7e308\n1\n1\n")
    assert run_cli([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subadditivity requires index base 1\n"


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


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "u.csv", "1\n3\n2\n")

    def exhausted(pieces, per_unit):
        raise MemoryError

    monkeypatch.setattr("seqineq.cli.spline_samples", exhausted)
    assert run_cli(["spline", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


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


# Forms of a command line with the exit code, the stderr and the start of
# stdout that argparse gave them.  margin.csv is convex only under
# --abs-tol 0.5 (exit 0 rather than 1), so each case shows whether the
# tolerance was read.
CHOICES = "'check-convex', 'support', 'spline', 'lagrange', 'hull', 'epsilon', 'decompose', 'check-subadd'"
ARGV_FORMS = [
    # a unique prefix, --flag=value, shared options in either position
    (["--abs", "0.5", "check-convex", "margin.csv"], 0, "", "{"),
    (["check-convex", "margin.csv", "--abs-tol=0.5"], 0, "", "{"),
    (["--format=csv", "check-convex", "margin.csv"], 1, "", "key,value"),
    (["decompose", "u.csv", "--out", "x"], 2, "ambiguous option: --out could match --out-v, --out-w", ""),
    # -- ends the options
    (["check-convex", "--", "margin.csv"], 1, "", "{"),
    (["check-convex", "--format", "csv", "--", "margin.csv"], 1, "", "key,value"),
    # and goes with the file next to it; after the file, anywhere else,
    # it is an argument too many
    (["check-convex", "margin.csv", "--", "--format", "csv"], 2, "unrecognized arguments: --format csv", ""),
    (["check-convex", "margin.csv", "--format", "csv", "--"], 2, "unrecognized arguments: --", ""),
    # help anywhere, for the command it follows
    (["check-convex", "margin.csv", "--he"], 0, "", "usage: seqineq check-convex "),
    # negative values
    (["check-subadd", "u.csv", "--eps=-1"], 2, "epsilon must be finite and nonnegative", ""),
    (["spline", "u.csv", "--samples", "-3"], 2, "--samples must be at least 1", ""),
    (["check-convex", "margin.csv", "-x"], 2, "unrecognized arguments: -x", ""),
    (["check-convex"], 2, "the following arguments are required: file", ""),
    ([], 2, "the following arguments are required: command", ""),
    (["check-convex", "margin.csv", "--format"], 2, "argument --format: expected one argument", ""),
    (["--format", "xml", "check-convex", "margin.csv"], 2,
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv')", ""),
    (["--abs-tol", "abc", "check-convex", "margin.csv"], 2, "argument --abs-tol: invalid float value: 'abc'", ""),
    (["spline", "u.csv", "--samples", "2.5"], 2, "argument --samples: invalid int value: '2.5'", ""),
    (["check-conv", "margin.csv"], 2, f"argument command: invalid choice: 'check-conv' (choose from {CHOICES})", ""),
    (["check-convex", "margin.csv", "u.csv"], 2, "unrecognized arguments: u.csv", ""),
    # the last of a repeated option wins
    (["--abs-tol", "0.5", "check-convex", "margin.csv", "--abs-tol", "0"], 1, "", "{"),
    (["check-convex", "margin.csv", "--abs-tol", "0", "--abs-tol", "0.5"], 0, "", "{"),
]


@pytest.mark.parametrize("argv, code, err, out", ARGV_FORMS, ids=[" ".join(form[0]) or "-" for form in ARGV_FORMS])
def test_command_line_forms_keep_their_meaning(tmp_path, capsys, monkeypatch, argv, code, err, out):
    _write(tmp_path, "margin.csv", "# start_index=0\n0\n0.2\n0\n")
    _write(tmp_path, "u.csv", "1\n3\n2\n5\n4\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    assert captured.err == (f"error: {err}\n" if err else "")
    assert captured.out.startswith(out)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["margin.csv", "u.csv"]


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


CONVEX_PROBE = """
import io, json, sys
from seqineq.cli import run_cli
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
conv, lin = sys.argv[1:]
codes = [run_cli(["check-convex", conv, "--rel-tol", "0"]), run_cli(["check-convex", lin])]
sys.__stdout__.write(json.dumps([codes, sys.stderr.getvalue(), "numpy" in sys.modules]))
"""


def test_check_convex_at_scale_does_not_load_numpy(tmp_path):
    # N = 10**4, base 0: k**2 - 3k at zero relative tolerance, and 0.07k +
    # 1.25 to two decimals, whose rounded steps differ by about an ulp.
    # Every support row is decided by the exact tangent walk.
    conv = _write(tmp_path, "conv.csv", "# start_index=0\n" + "".join(f"{k * k - 3 * k}\n" for k in range(10**4)))
    lin = _write(tmp_path, "lin.csv", "# start_index=0\n" + "".join(f"{0.07 * k + 1.25:.2f}\n" for k in range(10**4)))
    proc = _python("-c", CONVEX_PROBE, conv, lin, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=120)
    codes, err, loaded = json.loads(out)
    assert codes == [0, 0]
    assert err == ""
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


# What a process loads of the analysis modules, csv, json and the command
# line parser that seqineq no longer uses (argparse, which brings gettext,
# whose translation lookup brings locale), diffed as above.  The snapshot
# comes before the probe imports json itself.  The command line runs as
# ``python -m seqineq.cli ARG...`` would run it.
FOOTPRINT_PROBE = """
import io, runpy, sys
watched = {"argparse", "csv", "gettext", "json", "locale", "seqineq.convexity",
           "seqineq.interpolation", "seqineq.subadditivity", "seqineq.polysign"}
before = set(sys.modules)
out, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()
sys.argv = ["seqineq", *sys.argv[1:]]
try:
    runpy.run_module("seqineq.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(watched & (set(sys.modules) - before))
import json
out.write(json.dumps([code, loaded]))
"""


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["--help"], 0, []),
        (["check-convex", "bad.csv"], 2, []),
        (["hull", "missing.csv"], 2, []),
        (["check-convex", "u.csv"], 1, ["json", "seqineq.convexity"]),
        (["check-convex", "u.csv", "--format", "csv"], 1, ["csv", "json", "seqineq.convexity"]),
        (["support", "u.csv"], 0, ["json", "seqineq.convexity"]),
        (["spline", "u.csv"], 0, ["json", "seqineq.interpolation"]),
        (["spline", "u.csv", "--format", "csv"], 0, ["seqineq.interpolation"]),
        (["lagrange", "u.csv"], 0, ["json", "seqineq.interpolation", "seqineq.polysign"]),
        (["hull", "u.csv"], 0, ["json", "seqineq.subadditivity"]),
        (["hull", "u.csv", "--format", "csv"], 0, ["csv", "json", "seqineq.subadditivity"]),
        (["epsilon", "u.csv"], 0, ["seqineq.subadditivity"]),
        (["decompose", "u.csv"], 0, ["json", "seqineq.subadditivity"]),
        (["check-subadd", "u.csv"], 1, ["json", "seqineq.subadditivity"]),
        (["check-subadd", "u.csv", "--eps", "1"], 1, ["json", "seqineq.subadditivity"]),
        # json reads a JSON input; a usage refusal loads nothing.
        (["epsilon", "u.json"], 0, ["json", "seqineq.subadditivity"]),
        (["check-convex", "u.csv", "--format", "xml"], 2, []),
    ],
)
def test_a_command_loads_only_its_own_analysis_module(tmp_path, argv, code, loaded):
    _write(tmp_path, "u.csv", "1\n3\n2\n5\n4\n")
    _write(tmp_path, "u.json", '{"values": [1, 3, 2, 5, 4]}')
    _write(tmp_path, "bad.csv", "1\ntwo\n")
    proc = _python("-c", FOOTPRINT_PROBE, *argv, cwd=tmp_path, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    assert json.loads(out) == [code, loaded]


PACKAGE_PROBE = """
import importlib, json, sys
before = set(sys.modules)
import seqineq
loaded = sorted(name for name in set(sys.modules) - before if name.startswith("seqineq."))
listed = sorted(set(seqineq.__all__) - set(dir(seqineq)))
wrong = []
for module, names in seqineq._EXPORTS.items():
    home = importlib.import_module("seqineq." + module)
    for name in names:
        value = getattr(seqineq, name)
        if value is not getattr(home, name) or getattr(value, "__module__", home.__name__) != home.__name__:
            wrong.append(name)
uncached = sorted(set(seqineq.__all__) - set(vars(seqineq)))
try:
    seqineq.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
exported = sorted(name for names in seqineq._EXPORTS.values() for name in names)
sys.stdout.write(json.dumps([loaded, listed, wrong, uncached, unknown, exported, sorted(seqineq.__all__)]))
"""


def test_import_seqineq_resolves_each_name_on_first_use():
    proc = _python("-c", PACKAGE_PROBE, stdout=subprocess.PIPE, text=True)
    out, _ = proc.communicate(timeout=60)
    loaded, listed, wrong, uncached, unknown, exported, public = json.loads(out)
    assert loaded == []  # not even seqineq.core
    assert listed == []  # dir() covers __all__
    assert wrong == []  # each name is its defining module's object
    assert uncached == []  # and is looked up once
    assert unknown == "module 'seqineq' has no attribute 'no_such_name'"
    assert public == sorted(["__version__", *exported])


SHIM = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"


# perfbench/shim.py wraps names of seqineq.cli and of the modules it
# imports, in the order of its table; it lists a name it cannot find under
# "missing".  Two of them are spans that no command reaches any more.
@pytest.mark.parametrize(
    "argv, span",
    [
        (["check-convex", "u.csv"], "convexity.certify"),
        (["support", "u.csv"], "convexity.support_sequence"),
        (["spline", "u.csv"], "interpolation.quadratic_piece"),
        (["spline", "u.csv", "--format", "csv"], "interpolation.quadratic_piece"),
        (["lagrange", "u.csv"], "interpolation.lagrange"),
        (["hull", "u.csv"], "subadditivity.hull"),
        (["epsilon", "u.csv"], "subadditivity.epsilon"),
        (["decompose", "u.csv"], "subadditivity.decompose"),
        (["check-subadd", "u.csv"], "core.classify"),
        (["check-subadd", "u.csv", "--eps", "1"], "subadditivity.epsilon"),
    ],
)
def test_the_tracing_shim_still_times_each_layer(tmp_path, argv, span):
    _write(tmp_path, "u.csv", "1\n3\n2\n5\n4\n")
    runs = {}
    for name, args in (("shim", [str(SHIM), "trace.json"]), ("cli", ["-m", "seqineq.cli"])):
        proc = _python(*args, *argv, cwd=tmp_path, stdout=subprocess.PIPE)
        out, _ = proc.communicate(timeout=60)
        runs[name] = (out, proc.returncode)
    assert runs["shim"] == runs["cli"]
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["missing"] == ["seqineq.cli.is_subadditive_pairwise", "seqineq.cli.spline_eval"]
    spans = {s[0] for s in trace["spans"]}
    required = {span, "sequence_io.read", "run_cli"}
    if argv[0] == "check-convex":
        # certify_convexity calls both public legs by name; inlined legs
        # would read 0 in convexity.defining_s and convexity.slopes_s.
        required |= {"convexity.defining", "convexity.slopes"}
    assert required <= spans


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


# The refusals that a finite input may meet in check-convex, support,
# spline and lagrange; anything else on stderr with exit 2 is a bug.
ALLOWED_REFUSALS = re.compile(
    r"error: (sequence too short"
    r"|degree \d+ above supported maximum \d+"
    r"|second difference of u\[\d+\.\.\d+\] overflows"
    r"|quadratic piece at n=\d+ overflows"
    r"|support sequence overflows at n=\d+: .*"
    r"|coefficient of x\^\d+ of the interpolant overflows)\n"
)
CONDITIONING_WARNING = re.compile(r"warning: monomial coefficients of a degree-\d+ interpolant .*\n")


def _entries(element):
    return st.lists(element, min_size=1, max_size=70)


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(
        _entries(st.tuples(st.booleans(), st.floats(1e-310, 1.7e308)).map(lambda t: -t[1] if t[0] else t[1])),
        _entries(st.integers(-10**5, 10**5).map(lambda k: k / 10)),
        _entries(st.integers(-10**5, 10**5).map(lambda k: k / 100)),
        _entries(st.floats(-1e-3, 1e-3).map(lambda x: 1e6 + x)),
    ),
    base=st.sampled_from((0, 1)),
    suffix=st.sampled_from(("csv", "json")),
    fmt=st.sampled_from(("json", "csv")),
    tol=st.sampled_from(([], ["--abs-tol", "0", "--rel-tol", "0"])),
)
@example(values=[1.0] * 66, base=0, suffix="csv", fmt="json", tol=[])
@example(values=[0.0, 1.7e308, 0.0], base=0, suffix="csv", fmt="json", tol=[])
@example(values=[1.7e308, -1.7e308, 1.7e308], base=1, suffix="json", fmt="csv", tol=[])
def test_convexity_and_interpolation_commands_report_or_refuse(values, base, suffix, fmt, tol):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"u.{suffix}")
        write_sequence(path, Sequence(tuple(values), base))
        for command in ("check-convex", "support", "spline", "lagrange"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli([command, path, "--format", fmt, *tol])
            out, err = out.getvalue(), err.getvalue()
            if code == 2:
                assert out == "", command
                assert ALLOWED_REFUSALS.fullmatch(err), (command, err)
                continue
            assert code in (0, 1), (command, code)
            if command == "lagrange" and len(values) > CONDITIONING_WARN_DEGREE + 1:
                assert CONDITIONING_WARNING.fullmatch(err), err
            else:
                assert err == "", (command, err)
            if fmt == "json":
                VALIDATOR.validate(json.loads(out))
            else:
                rows = list(csv.reader(line for line in out.splitlines() if not line.startswith("# ")))
                assert rows[0] in (["key", "value"], ["x", "y"]), command
                assert all(len(row) == 2 for row in rows), command


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
