"""Output checks and the results digest, run off the clock after every pass.

Each job's exit code, report and side files are checked against the input
the benchmark generated.  A job *fails* when it exits 2 (the program refused
the input), or when its output is wrong: an exit code that contradicts its
report, a report that fails a check below, or a report that disagrees with
another job on the same input.  Only wrong output makes a run incorrect; a
refusal is counted and listed but the program said it gave no answer.

The digest covers exit codes, verdicts, hull values, full witnesses,
``epsilon_star``, decomposition parts and support values.  It leaves out
violation lists and every other report field, so a change that adds report
fields or bounds the lists keeps the digest when its results are the same.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from workloads import Job

# jsonschema needs about 1 s per MB of report; larger reports get every
# check below except schema validation.
SCHEMA_MAX_BYTES = 256 * 1024
# Recomputing the pairwise violation list is O(N^2) in Python.
PAIRWISE_RECHECK_MAX_N = 1000
# Interpolant-at-the-nodes checks only where monomial evaluation is stable.
LAGRANGE_RECHECK_MAX_N = 8

CLASSIFICATION_FLAGS = ("nonnegative", "monotone_increasing", "monotone_decreasing", "convex", "concave")

csv.field_size_limit(1 << 30)


class CheckError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Outcome:
    """Result of checking one job: ``ok``, ``refused`` (exit 2) or ``wrong``."""

    status: str
    reason: str = ""
    results: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def check_job(job: Job, exit_code: int, stdout: str, stderr: str, out_dir: str, validator) -> Outcome:
    diagnostic = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if exit_code == 2:
        return Outcome("refused", diagnostic or "exit 2 without diagnostic", {"exit": 2})
    if exit_code not in (0, 1):
        return Outcome("wrong", f"exit {exit_code}: {diagnostic}")
    outcome = Outcome("ok")
    try:
        outcome.results = _CHECKERS[job.command](job, exit_code, stdout, out_dir, validator, outcome.notes)
    except CheckError as exc:
        return Outcome("wrong", str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome("wrong", f"unreadable output: {type(exc).__name__}: {exc}")
    outcome.results["exit"] = exit_code
    return outcome


def cross_check(jobs: list[Job], outcomes: list[Outcome]) -> None:
    """Jobs on the same input must agree on hull values, witnesses and epsilon_star."""
    by_input: dict[str, list[tuple[Job, Outcome]]] = {}
    for job, outcome in zip(jobs, outcomes):
        if outcome.status == "ok":
            by_input.setdefault(job.input.name, []).append((job, outcome))
    for pairs in by_input.values():
        seen: dict[str, tuple[str, object]] = {}
        for job, outcome in pairs:
            for key in ("v", "witnesses", "epsilon_star"):
                if key not in outcome.results:
                    continue
                value = outcome.results[key]
                if key not in seen:
                    seen[key] = (job.id, value)
                elif seen[key][1] != value:
                    outcome.status = "wrong"
                    outcome.reason = f"{key} differs from {seen[key][0]}"


def digest(jobs: list[Job], outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for job, outcome in zip(jobs, outcomes):
        h.update(json.dumps([job.id, outcome.results], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------------------ parsing


def _parse_report(job: Job, text: str, validator) -> dict:
    if job.out_format == "json":
        report = json.loads(text)
    else:
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows and rows[0] == ["key", "value"], "CSV report lacks its key,value header")
        report = {}
        for key, value in rows[1:]:
            node = report
            *path, leaf = key.split(".")
            for part in path:
                node = node.setdefault(part, {})
            node[leaf] = json.loads(value)
    if validator is not None and len(text) <= SCHEMA_MAX_BYTES:
        errors = list(validator.iter_errors(report))
        expect(not errors, f"schema: {errors[0].message[:200]}" if errors else "")
    expect(report.get("command") == job.command, f"report command {report.get('command')!r}")
    block = report["input"]
    expect(block["length"] == job.n and block["start_index"] == job.input.start_index, "report input block")
    return report


def _flags(report: dict) -> dict:
    return {key: report["classification"][key] for key in CLASSIFICATION_FLAGS}


def _floats(job: Job) -> list[float]:
    return [float(x) for x in job.input.values]


def _second_differences(job: Job) -> list[int]:
    v = job.input.values
    return [v[k - 1] - 2 * v[k] + v[k + 1] for k in range(1, len(v) - 1)]


def _check_witnesses(u: list[float], v: list[float], witnesses: list[list[int]]) -> None:
    expect(len(v) == len(u) and len(witnesses) == len(u), "hull length")
    for n, parts in enumerate(witnesses, 1):
        expect(sum(parts) == n and min(parts) >= 1, f"witness {n} is not a partition of {n}")
        expect(all(a <= b for a, b in zip(parts, parts[1:])), f"witness {n} not nondecreasing")
        acc = u[parts[-1] - 1]
        for p in reversed(parts[:-1]):
            acc = u[p - 1] + acc
        expect(acc == v[n - 1], f"witness {n} folds to {acc!r}, hull says {v[n - 1]!r}")
        expect(v[n - 1] <= u[n - 1], f"hull above u at {n}")


def _read_sequence_file(path: str) -> list[float]:
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        expect(doc.get("start_index") == 1, f"{path}: start_index")
        return [float(x) for x in doc["values"]]
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    expect(lines[0] == "# start_index=1", f"{path}: header")
    return [float(x) for x in lines[1:]]


# ----------------------------------------------------------------- commands


def _check_convex(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    conv = report["convexity"]
    verdict = conv["is_convex"]
    expect(exit_code == (0 if verdict else 1), f"exit {exit_code} with is_convex={verdict}")
    expect(conv["slopes_ok"] == verdict and conv["support_ok"] == verdict, "criteria disagree in report")
    if job.input.integer:
        seconds = _second_differences(job)
        expect(verdict == all(s >= 0 for s in seconds), "verdict contradicts second differences")
        base = job.input.start_index
        expected = [[base + k, float(-s)] for k, s in enumerate(seconds, 1) if s < 0]
        expect(conv["defining_violations"] == expected, "defining violations differ from second differences")
        expect(report["classification"]["convex"] == verdict, "classification.convex contradicts verdict")
    return {
        "is_convex": verdict,
        "slopes_ok": conv["slopes_ok"],
        "support_ok": conv["support_ok"],
        "classification": _flags(report),
    }


def _check_support(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    expect(exit_code == 0, f"exit {exit_code}")
    s = report["support"]
    base, n = job.input.start_index, job.n
    expect(s["first_index"] == base and s["last_index"] == base + n - 2, "support window")
    values, pairs = s["values"], s["witness_pairs"]
    expect(len(values) == n - 1 and len(pairs) == n - 1, "support length")
    u = _floats(job)
    for value, (i, j) in zip(values, pairs):
        expect(base <= i < j <= base + n - 1, f"witness pair {(i, j)}")
        expect((u[j - base] - u[i - base]) / (j - i) == value, f"witness pair {(i, j)} does not realize {value!r}")
    if job.input.integer:
        # The least slope over pairs in a suffix is the least adjacent step there.
        steps = [b - a for a, b in zip(job.input.values, job.input.values[1:])]
        suffix_min = []
        best = None
        for d in reversed(steps):
            best = d if best is None else min(best, d)
            suffix_min.append(float(best))
        expect(values == suffix_min[::-1], "support values differ from suffix minima of the steps")
    return {"support": values}


def _sample_grid(job: Job) -> list[float]:
    k, base, n = job.samples, job.input.start_index, job.n
    xs = [i + t / k for i in range(base, base + n - 1) for t in range(k)]
    xs.append(float(base + n - 1))
    return xs


def _check_spline(job, exit_code, text, out_dir, validator, notes):
    expect(exit_code == 0, f"exit {exit_code}")
    n, base = job.n, job.input.start_index
    if job.out_format == "csv":
        lines = text.splitlines()
        pieces = [line for line in lines if line.startswith("# piece center=")]
        expect(len(pieces) == n - 2, "piece comment count")
        rows = list(csv.reader(lines[len(pieces):]))
        expect(rows[0] == ["x", "y"], "spline CSV header")
        xs = [float(x) for x, _ in rows[1:]]
        ys = [float(y) for _, y in rows[1:]]
        expect(xs == _sample_grid(job), "sample grid")
        expect(all(math.isfinite(y) for y in ys), "non-finite sample")
        return {}
    report = _parse_report(job, text, validator)
    sp = report["spline"]
    expect(sp["samples_per_unit"] == job.samples, "samples_per_unit")
    pieces = sp["pieces"]
    expect([p["center"] for p in pieces] == list(range(base + 1, base + n - 1)), "piece centers")
    samples = sp["samples"]
    expect([x for x, _ in samples] == _sample_grid(job), "sample grid")
    if job.input.integer:
        u = _floats(job)
        for p in pieces:
            lo, mid, hi = u[p["center"] - base - 1 : p["center"] - base + 2]
            expect(p["a"] == (lo + hi) / 2.0 - mid, f"piece {p['center']} curvature")
        by_center = {p["center"]: p for p in pieces}
        for x, y in samples:
            if x != int(x):
                continue
            p = by_center[min(max(int(x), base + 1), base + n - 2)]
            scale = abs(p["a"]) * x * x + abs(p["b"] * x) + abs(p["c"]) + 1.0
            expect(abs(y - u[int(x) - base]) <= 1e-9 * scale, f"spline misses the node {x}")
    return {}


def _check_lagrange(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    expect(exit_code == 0, f"exit {exit_code}")
    lg = report["lagrange"]
    coeffs = lg["coefficients"]
    n, base = job.n, job.input.start_index
    expect(lg["degree"] == len(coeffs) - 1 <= n - 1, "degree")
    expect(lg["interval"] == [float(base), float(base + n - 1)], "interval")
    expect(lg["convexity_class"] in ("convex", "concave", "both", "neither"), "convexity_class")
    if job.input.integer and n <= LAGRANGE_RECHECK_MAX_N:
        for k, target in enumerate(_floats(job)):
            x = float(base + k)
            y = sum(c * x**i for i, c in enumerate(coeffs))
            expect(abs(y - target) <= 1e-6 * (1.0 + abs(target)), f"interpolant misses node {base + k}")
    return {"convexity_class": lg["convexity_class"]}


def _check_hull(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    expect(exit_code == 0, f"exit {exit_code}")
    hull = report["hull"]
    u = _floats(job)
    _check_witnesses(u, hull["v"], hull["witnesses"])
    if job.input.family == "concave-inc":
        expect(hull["v"] == u, "hull of a subadditive sequence differs from it")
    return {"v": hull["v"], "witnesses": hull["witnesses"]}


def _check_decompose(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    expect(exit_code == 0, f"exit {exit_code}")
    d = report["decomposition"]
    u = _floats(job)
    v, w = d["v"], d["w"]
    expect(len(v) == len(u) and len(w) == len(u), "decomposition length")
    inexact = 0
    for a, b, c in zip(v, w, u):
        expect(b >= 0.0, "negative remainder")
        if a + b != c:
            # Documented as bitwise only on integer input.
            expect(not job.input.integer, "v + w != u on integer input")
            expect(abs(a + b - c) <= math.ulp(b) + math.ulp(c), "v + w differs from u beyond rounding")
            inexact += 1
    if inexact:
        notes.append(f"v + w differs from u in the last place at {inexact} entries")
    expect(d["epsilon_star"] == max(w), "epsilon_star != max(w)")
    _check_witnesses(u, v, d["witnesses"])
    expect(_read_sequence_file(f"{out_dir}/v.csv") == v, "--out-v file differs from report")
    expect(_read_sequence_file(f"{out_dir}/w.json") == w, "--out-w file differs from report")
    return {"v": v, "w": w, "epsilon_star": d["epsilon_star"], "witnesses": d["witnesses"]}


def _check_epsilon(job, exit_code, text, out_dir, validator, notes):
    expect(exit_code == 0, f"exit {exit_code}")
    lines = text.splitlines()
    expect(len(lines) == 1, "epsilon prints one line")
    value = float(lines[0])
    expect(math.isfinite(value) and value >= 0.0, f"epsilon_star {value!r}")
    if job.input.family == "concave-inc":
        expect(value == 0.0, "epsilon_star of a subadditive sequence is not 0")
    return {"epsilon_star": value}


def _pairwise_violations(u: list[float]) -> list[list[int]]:
    last = len(u)
    out = []
    for m in range(1, last + 1):
        for n in range(m, last - m + 1):
            x, y = u[m + n - 1], u[m - 1] + u[n - 1]
            if not x <= y + max(1e-9, 1e-9 * max(abs(x), abs(y))):
                out.append([m, n])
    return out


def _check_subadd(job, exit_code, text, out_dir, validator, notes):
    report = _parse_report(job, text, validator)
    s = report["subadditivity"]
    ok = s["ok"]
    expect(exit_code == (0 if ok else 1), f"exit {exit_code} with ok={ok}")
    if job.input.integer:
        convex = all(x >= 0 for x in _second_differences(job))
        expect(report["classification"]["convex"] == convex, "classification.convex")
    results = {"ok": ok, "classification": _flags(report)}
    if job.eps is None:
        expect(s["mode"] == "pairwise" and s["epsilon"] is None and s["epsilon_star"] is None, "pairwise fields")
        expect(ok == (not s["violations"]), "ok contradicts violation list")
        if job.n <= PAIRWISE_RECHECK_MAX_N:
            expect(s["violations"] == _pairwise_violations(_floats(job)), "violation list differs")
        if job.input.family == "concave-inc":
            expect(ok, "subadditive input reported as not subadditive")
        return results
    expect(s["mode"] == "approx" and s["violations"] is None and s["epsilon"] == job.eps, "approx fields")
    gap = s["epsilon_star"]
    expect(gap >= 0.0 and ok == (gap <= job.eps), "ok contradicts epsilon_star")
    if job.input.family == "concave-inc":
        expect(gap == 0.0, "epsilon_star of a subadditive sequence is not 0")
    results["epsilon_star"] = gap
    return results


_CHECKERS = {
    "check-convex": _check_convex,
    "support": _check_support,
    "spline": _check_spline,
    "lagrange": _check_lagrange,
    "hull": _check_hull,
    "decompose": _check_decompose,
    "epsilon": _check_epsilon,
    "check-subadd": _check_subadd,
}
