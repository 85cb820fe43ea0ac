"""The streamed O(N^2) reports: the bytes of the materialised report, refusals
before any output, and working memory far below the report's size.

``hull`` and ``decompose`` render witnesses, and ``check-subadd`` renders
pairwise violations, one row at a time.  Their output must equal
``json.dumps(report)`` and ``csv.writer`` over the report built in full from
the library, on both row paths, under both JSON encoders, and on the edge
cases of the row renderer: no violations, and a single entry.
"""

from __future__ import annotations

import csv
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import convex_values, decreasing_nonnegative_values, random_values
from seqineq import (
    PartitionWitness,
    Sequence,
    ToleranceConfig,
    classify,
    is_subadditive_pairwise,
    subadditive_hull,
    write_sequence,
)
from seqineq.cli import _base_report, _emit, _int_arrays, run_cli
from seqineq.subadditivity import PURE_ROWS_MAX_N

TOL = ToleranceConfig()
COMMANDS = ("hull", "decompose", "check-subadd")
# The DP's first minimiser on rounded sums makes witness 5 (3, 1, 1).
OUT_OF_ORDER = (-0.018, -0.034, -53959.166, -0.0, 249.059)


def _float_wide(rng: random.Random, length: int) -> tuple[float, ...]:
    return tuple(
        rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)
        for _ in range(length)
    )


FAMILIES = {"convex": convex_values, "random": random_values, "float-wide": _float_wide}
CASES = [
    (family, length)
    for family in FAMILIES
    for length in (1, PURE_ROWS_MAX_N, PURE_ROWS_MAX_N + 1)
]


def _materialised(command: str, u: Sequence) -> tuple[dict, int]:
    """The report built in full from the library, and its exit code."""
    report = _base_report(command, u, TOL)
    if command == "check-subadd":
        check = is_subadditive_pairwise(u, TOL)
        report["classification"] = classify(u, TOL).as_dict()
        report["subadditivity"] = {
            "mode": "pairwise",
            "ok": check.ok,
            "violations": check.violations,
            "epsilon": None,
            "epsilon_star": None,
        }
        return report, 0 if check.ok else 1
    hull = subadditive_hull(u)
    witnesses = [w.parts for w in hull.witnesses]
    if command == "hull":
        report["hull"] = {"v": hull.v.values, "witnesses": witnesses}
    else:
        report["decomposition"] = {
            "v": hull.v.values,
            "w": hull.w.values,
            "epsilon_star": hull.epsilon_star,
            "witnesses": witnesses,
        }
    return report, 0


def _csv_text(report: dict) -> str:
    rows = []

    def flatten(prefix, node):
        if isinstance(node, dict):
            for key, value in node.items():
                flatten(f"{prefix}.{key}" if prefix else key, value)
        else:
            rows.append((prefix, json.dumps(node)))

    flatten("", report)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows(rows)
    return out.getvalue()


def _expected(command: str, u: Sequence, fmt: str) -> tuple[int, str, str]:
    try:
        report, code = _materialised(command, u)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    text = json.dumps(report) + "\n" if fmt == "json" else _csv_text(report)
    return code, text, ""


def _check(tmp_path, capsys, command: str, values: tuple[float, ...], c_encoder=True) -> None:
    u = Sequence(values, 1)
    path = tmp_path / "u.json"
    write_sequence(path, u)
    for fmt in ("json", "csv"):
        expected = _expected(command, u, fmt)
        with pytest.MonkeyPatch.context() as mp:
            if not c_encoder:
                # As on an interpreter built without the _json accelerator.
                mp.setattr(json.encoder, "c_make_encoder", None)
            code = run_cli(["--format", fmt, command, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected, fmt


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("family, length", CASES)
def test_streamed_report_is_the_materialised_report(tmp_path, capsys, command, family, length):
    rng = random.Random(f"streamed-{family}-{length}")
    _check(tmp_path, capsys, command, FAMILIES[family](rng, length))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("family, length", CASES)
def test_streamed_report_under_the_pure_python_encoder(tmp_path, capsys, command, family, length):
    # The streamed array is spliced in where json.dumps's ``default`` hook
    # met it; the pure-Python encoder must call the hook as the C one does.
    rng = random.Random(f"streamed-{family}-{length}")
    _check(tmp_path, capsys, command, FAMILIES[family](rng, length), c_encoder=False)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j, range(3), iter(["[]"])])
def test_json_report_refuses_what_json_dumps_refuses(capsys, value):
    # The report's one streamed array is held back; a value of any other
    # type, or a second streamed array, is refused with json.dumps's error.
    with pytest.raises(TypeError) as expected:
        json.dumps(value)
    report = {"a": _int_arrays(iter([([1], [2])]), 3), "b": {"c": value}}
    with pytest.raises(TypeError) as got:
        _emit(report, "json")
    assert str(got.value) == str(expected.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("length", [2, PURE_ROWS_MAX_N + 1])
def test_streamed_report_of_a_subadditive_input(tmp_path, capsys, command, length):
    values = decreasing_nonnegative_values(random.Random(f"subadditive-{length}"), length)
    assert is_subadditive_pairwise(Sequence(values, 1), TOL).violations == ()
    _check(tmp_path, capsys, command, values)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_out_of_order_witnesses_are_refused_before_any_output(tmp_path, capsys, fmt):
    path = tmp_path / "u.json"
    write_sequence(path, Sequence(OUT_OF_ORDER, 1))
    out_v, out_w = tmp_path / "v.csv", tmp_path / "w.json"
    errors = set()
    for argv in (
        ["hull", str(path)],
        ["decompose", str(path), "--out-v", str(out_v), "--out-w", str(out_w)],
    ):
        assert run_cli(["--format", fmt, *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        errors.add(captured.err)
    assert errors == {"error: parts must be nondecreasing\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]


def _outcome(fn):
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


magnitudes = st.floats(min_value=1e-300, max_value=1e300)
entries = st.integers(-50, 50).map(float) | st.tuples(st.booleans(), magnitudes).map(
    lambda t: -t[1] if t[0] else t[1]
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(entries, min_size=1, max_size=40))
@example(values=list(OUT_OF_ORDER))
def test_order_check_raises_iff_a_witness_is_refused(values):
    hull = subadditive_hull(Sequence(values, 1))
    expanded = _outcome(lambda: [
        PartitionWitness(n, tuple(hull.witness_parts(n))) for n in range(1, len(values) + 1)
    ])
    assert _outcome(hull.check_witness_order) == expanded


class _CountingSink(io.TextIOBase):
    """A stdout that keeps only the number of characters written."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


@pytest.mark.parametrize(
    "fmt, command, code",
    [
        pytest.param(fmt, command, code, id=f"{command}-{code}{suffix}")
        for fmt, suffix in (("json", ""), ("csv", "-csv"))
        for command, code in (("check-subadd", 1), ("hull", 0), ("decompose", 0))
    ],
)
def test_streamed_report_peak_is_below_half_its_size(tmp_path, monkeypatch, fmt, command, code):
    # numpy is loaded before tracing starts: its import is not report memory.
    import numpy  # noqa: F401

    path = tmp_path / "conv.csv"
    write_sequence(path, Sequence(tuple(float(k * k - 3 * k) for k in range(1, 2001)), 1))
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert run_cli(["--format", fmt, command, str(path)]) == code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The reports hold 10^6 pairs or 2 * 10^6 witness parts: 6-12 MB.
    assert sink.size > 5_000_000
    assert peak < sink.size / 2, (peak, sink.size)
