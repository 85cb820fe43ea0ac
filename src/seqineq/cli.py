"""Command-line front end: one analysis per invocation, report on stdout.

Usage::

    seqineq [--abs-tol X] [--rel-tol Y] [--format json|csv] <command> <file> [options]

Commands

* ``check-convex FILE``   convexity certificate; exit 0 if convex, 1 if not
* ``support FILE``        support (subgradient) sequence
* ``spline FILE``         local quadratic pieces and sampled plot data
* ``lagrange FILE``       global interpolant coefficients and its convexity class
* ``hull FILE``           subadditive hull with witness partitions
* ``epsilon FILE``        smallest eps for approximate subadditivity, as a bare number
* ``decompose FILE``      split u into subadditive part plus remainder
* ``check-subadd FILE``   pairwise test, or hull test against ``--eps``; exit 0/1

Each command is one entry of the table ``_COMMANDS``: its help text, the
options of its own, and a builder that turns the input into the report
sections that follow the common header (tool, command, tolerance, input)
and says whether the property holds.  ``run_cli`` does the rest for every
command: it parses the command line, reads the input once, calls the
builder, writes the report and turns the verdict into the exit code.
``epsilon`` and ``spline --format csv`` write their own output instead of
a report.

Exit code 2 means the input could not be used (unreadable file, malformed
numbers, wrong index base, unknown flags); a one-line diagnostic goes to
stderr.  Exit code 141 (128 + SIGPIPE, what a shell reports for a process
killed by SIGPIPE) means stdout was closed before the report was written,
as in ``seqineq spline FILE | head``; stderr stays empty.

Reports are JSON documents with a fixed key set (see
``schemas/report.schema.json``); ``--format csv`` flattens the same report
into key,value rows, except for ``spline`` where CSV emits plot data:
one ``# piece center=... a=... b=... c=...`` line per piece, the header
``x,y``, then one ``repr(x),repr(y)`` row per sample.  These rows are plain
``repr`` pairs, the bytes ``csv.writer`` would write for them, since a
float's ``repr`` holds no comma, quote or line break.
Numbers are serialized with shortest round-trip formatting.  A JSON report
is one line, exactly ``json.dumps(report)`` (``python -m json.tool``
indents it), and the CSV is that of ``csv.writer`` over the flattened
report; the tests pin both, against ``json.dumps`` on random trees and on
every command's report.  The O(N^2) arrays (hull witnesses and pairwise
violations) are never built: they are rendered as text one row at a time,
straight to stdout, so the working memory stays O(N) plus one row whatever
the size of the report.  ``hull`` and ``decompose`` check the order of
every witness from the parent pointers before writing anything.

numpy is imported only by the three O(N^2) kernels, each by its own rule;
``--help``, ``spline``, ``lagrange`` and input refusals never load it.
Importing it takes roughly 100 ms.  ``lagrange`` computes the interpolant
and its convexity class exactly, in integers.

* The pairwise check (``check-subadd`` without ``--eps``) runs pure-Python
  rows up to ``PURE_ROWS_MAX_N`` (256) entries and numpy rows above, since
  at N = 256 pure rows cost less than the import.
* The subadditive hull (``hull``, ``decompose``, ``epsilon`` and
  ``check-subadd --eps``) scans candidate splits in pure Python, only the
  generators on integer input whose sums are exact, and switches to numpy
  rows once the work left exceeds ``HULL_PURE_CELLS`` split sums.  Integer
  inputs with few generators, such as convex or random ones, never load
  numpy at N = 2000; a concave increasing one, where every index is a
  generator, loads it above about N = 1100.
* Support verification: the support sequence is linear, so ``support``
  never loads numpy, and ``check-convex`` runs the first support row that
  the lower convex hull does not certify in pure Python and loads numpy
  only for a second such row on inputs above ``PURE_ROWS_MAX_N`` entries.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import warnings
from collections.abc import Iterator

from . import __version__
from .convexity import certify_convexity, support_sequence
from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig, classify
from .interpolation import lagrange_polynomial, polynomial_convexity_on_interval, quadratic_piece, spline_samples
from .sequence_io import read_sequence, write_sequence
from .subadditivity import (
    HullResult,
    check_epsilon,
    decompose,
    epsilon_star,
    pairwise_violation_rows,
    subadditive_hull,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Exit code 2 wants a one-line diagnostic, not argparse's usage dump.
    def error(self, message):
        raise _UsageError(message)


def load_report_schema() -> dict:
    """The JSON schema that every report document conforms to."""
    import importlib.resources

    text = (
        importlib.resources.files("seqineq")
        .joinpath("schemas/report.schema.json")
        .read_text()
    )
    return json.loads(text)


def _base_report(command: str, u: Sequence, tol: ToleranceConfig) -> dict:
    return {
        "tool": {"name": "seqineq", "version": __version__},
        "command": command,
        "tolerance": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol},
        "input": {"length": len(u), "start_index": u.start_index},
    }


class _IntArrays:
    """A report's non-empty array of int arrays, produced row by row, read once.

    A row ``(lead, lasts)`` stands for the arrays ``[*lead, x]`` for each x
    in ``lasts``: a failing row of the pairwise test is ``([m], ns)``, and
    a witness is ``(parts[:-1], parts[-1:])``.  Every int is below ``bound``.
    A plain class, not a ``core.frozen`` value class: nothing compares,
    hashes or prints it, and its rows are an iterator that is read once.
    """

    def __init__(self, rows: Iterator[tuple[list[int], list[int]]], bound: int) -> None:
        self.rows = rows
        self.bound = bound


def _int_array_chunks(node: _IntArrays) -> Iterator[str]:
    """``node`` as ``json.dumps`` lays it out, one chunk per row."""
    dec = [str(i) for i in range(node.bound)]
    dec_sep = [d + ", " for d in dec]
    sep = "["
    for lead, lasts in node.rows:
        head = "[" + "".join(map(dec_sep.__getitem__, lead))
        yield sep + head + ("], " + head).join(map(dec.__getitem__, lasts)) + "]"
        sep = ", "
    yield "]"


def _flatten(prefix: str, node, writer) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else key, value, writer)
    elif isinstance(node, _IntArrays):
        # The text holds no quote or line break, so ``csv.writer`` quotes it
        # iff it holds a comma; after the first two chunks it must, if ever.
        # Keys are plain dotted names, which the writer never quotes.
        chunks = _int_array_chunks(node)
        head = next(chunks) + next(chunks, "")
        quote = '"' if "," in head else ""
        write = sys.stdout.write
        write(f"{prefix},{quote}{head}")
        for chunk in chunks:
            write(chunk)
        write(f"{quote}\n")
    else:
        writer.writerow((prefix, json.dumps(node)))


def _json_chunks(node, write) -> None:
    """Pass ``node`` to ``write`` laid out as ``json.dumps(node)``.

    Objects are walked key by key, so that an ``_IntArrays`` below them is
    rendered row by row; any other value is one ``json.dumps`` call.  Object
    keys must be strings.
    """
    if isinstance(node, dict):
        write("{")
        sep = ""
        for key, value in node.items():
            write(f"{sep}{json.dumps(key)}: ")
            _json_chunks(value, write)
            sep = ", "
        write("}")
    elif isinstance(node, _IntArrays):
        for chunk in _int_array_chunks(node):
            write(chunk)
    else:
        write(json.dumps(node))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _json_chunks(report, sys.stdout.write)
        sys.stdout.write("\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("key", "value"))
    _flatten("", report, writer)


def _witnesses(hull: HullResult) -> _IntArrays:
    # Checked while the report is built, so that a refusal comes before any
    # output and any --out-v/--out-w file; the rows are rendered later.
    hull.check_witness_order()

    def rows():
        for n in range(1, len(hull.last_part) + 1):
            parts = list(hull.witness_parts(n))
            yield parts[:-1], parts[-1:]

    return _IntArrays(rows(), len(hull.last_part) + 1)


def _check_convex(u: Sequence, args, tol: ToleranceConfig):
    cert = certify_convexity(u, tol)
    return cert.is_convex, {
        "classification": classify(u, tol).as_dict(),
        "convexity": {
            "is_convex": cert.is_convex,
            "defining_violations": cert.defining.violations,
            "slopes_ok": cert.slopes_ok,
            "first_violating_triple": list(cert.slope_violation) if cert.slope_violation else None,
            "support_ok": cert.support_ok,
        },
    }


def _support(u: Sequence, args, tol: ToleranceConfig):
    s = support_sequence(u)
    return True, {
        "support": {
            "first_index": s.first_index,
            "last_index": s.last_index,
            "values": s.values,
            "witness_pairs": s.witness_pairs or (),
        },
    }


def _spline(u: Sequence, args, tol: ToleranceConfig):
    per_unit = args.samples
    if per_unit < 1:
        raise ValueError("--samples must be at least 1")
    if len(u) < 3:
        raise ValueError("sequence too short")
    pieces = [quadratic_piece(u, n) for n in range(u.start_index + 1, u.last_index)]
    samples = spline_samples(pieces, per_unit)
    if args.format == "csv":
        # What csv.writer writes for these rows: a float repr holds no
        # comma, quote or line break, so no field is quoted.
        lines = [
            *(f"# piece center={p.center} a={p.a!r} b={p.b!r} c={p.c!r}\n" for p in pieces),
            "x,y\n",
            *(f"{x!r},{y!r}\n" for x, y in samples),
        ]
        # The last line goes on its own.  An unbuffered stdout (python -u)
        # drops the rest of a write that a closing reader cuts short,
        # silently; a short write after it fails whole, so it shows.
        sys.stdout.write("".join(lines[:-1]))
        sys.stdout.write(lines[-1])
        return True, None
    return True, {
        "spline": {
            "pieces": [
                {"center": piece.center, "a": piece.a, "b": piece.b, "c": piece.c}
                for piece in pieces
            ],
            "samples_per_unit": per_unit,
            "samples": samples,
        },
    }


def _lagrange(u: Sequence, args, tol: ToleranceConfig):
    p = lagrange_polynomial(u)
    if len(u) >= 2:
        lo, hi = float(u.start_index), float(u.last_index)
        interval = [lo, hi]
        convexity_class = polynomial_convexity_on_interval(p, lo, hi, tol)
    else:
        interval = None
        convexity_class = None
    return True, {
        "lagrange": {
            "coefficients": p.coefficients,
            "degree": p.degree,
            "interval": interval,
            "convexity_class": convexity_class,
        },
    }


def _hull(u: Sequence, args, tol: ToleranceConfig):
    result = subadditive_hull(u)
    return True, {"hull": {"v": result.v.values, "witnesses": _witnesses(result)}}


def _epsilon(u: Sequence, args, tol: ToleranceConfig):
    print(repr(epsilon_star(u)))
    return True, None


def _decompose(u: Sequence, args, tol: ToleranceConfig):
    split = decompose(u)
    sections = {
        "decomposition": {
            "v": split.v.values,
            "w": split.w.values,
            "epsilon_star": split.epsilon_star,
            "witnesses": _witnesses(split),
        },
    }
    if args.out_v:
        write_sequence(args.out_v, split.v)
    if args.out_w:
        write_sequence(args.out_w, split.w)
    return True, sections


def _check_subadd(u: Sequence, args, tol: ToleranceConfig):
    classification = classify(u, tol).as_dict()
    if args.eps is None:
        # ``ok`` precedes ``violations`` in the report: peek at the first
        # failing row, then stream it and the rest.
        rows = pairwise_violation_rows(u, tol)
        first = next(rows, None)
        ok = first is None
        violations = () if ok else _IntArrays(
            (([m], ns) for m, ns in itertools.chain([first], rows)), len(u) + 1
        )
        mode, eps, gap = "pairwise", None, None
    else:
        eps = check_epsilon(args.eps)
        gap = epsilon_star(u)
        ok = gap <= eps
        mode, violations = "approx", None
    return ok, {
        "classification": classification,
        "subadditivity": {
            "mode": mode,
            "ok": ok,
            "violations": violations,
            "epsilon": eps,
            "epsilon_star": gap,
        },
    }


# name -> (help, builder, options of its own).  A builder takes the input,
# the parsed arguments and the tolerance, and returns ``(ok, sections)``:
# the report sections that follow the base report, or None when it has
# written its own output.  ``run_cli`` does the rest.
_COMMANDS = {
    "check-convex": ("certify or refute convexity", _check_convex, {}),
    "support": ("support (subgradient) sequence", _support, {}),
    "spline": ("local quadratic pieces and samples", _spline, {
        "--samples": {"type": int, "default": 16, "help": "samples per unit interval (default 16)"},
    }),
    "lagrange": ("global interpolant coefficients", _lagrange, {}),
    "hull": ("subadditive hull with witnesses", _hull, {}),
    "epsilon": ("smallest eps for approximate subadditivity", _epsilon, {}),
    "decompose": ("split into subadditive part plus remainder", _decompose, {
        "--out-v": {"help": "write the subadditive part to this sequence file"},
        "--out-w": {"help": "write the remainder to this sequence file"},
    }),
    "check-subadd": ("pairwise or approximate subadditivity test", _check_subadd, {
        "--eps": {"type": float, "help": "test approximate subadditivity at this eps"},
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    # Shared options are declared on the main parser and on every subparser
    # (with SUPPRESS defaults) so they are accepted in either position;
    # ``run_cli`` supplies their defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--abs-tol",
        type=float,
        default=argparse.SUPPRESS,
        help="absolute slack for inequality checks (default 1e-9)",
    )
    common.add_argument(
        "--rel-tol",
        type=float,
        default=argparse.SUPPRESS,
        help="relative slack for inequality checks (default 1e-9)",
    )
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default=argparse.SUPPRESS,
        help="report style (default json)",
    )

    parser = _Parser(
        prog="seqineq",
        parents=[common],
        description="Analyze a finite real sequence for convexity and subadditivity.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file")
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # Diagnostics stay one line on stderr, without a source location.
    print(f"warning: {message}", file=sys.stderr)


def run_cli(argv: list[str]) -> int:
    """Run one command line; returns the exit code instead of raising."""
    parser = _build_parser()
    defaults = argparse.Namespace(
        abs_tol=DEFAULT_TOLERANCE.abs_tol, rel_tol=DEFAULT_TOLERANCE.rel_tol, format="json"
    )
    try:
        args = parser.parse_args(argv, defaults)
        tol = ToleranceConfig(args.abs_tol, args.rel_tol)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            u = read_sequence(args.file)
            ok, sections = _COMMANDS[args.command][1](u, args, tol)
            if sections is not None:
                _emit({**_base_report(args.command, u, tol), **sections}, args.format)
        # A closed stdout must show here, not in the exit-time flush.
        sys.stdout.flush()
        return EXIT_OK if ok else EXIT_PROPERTY_FAILED
    except SystemExit as exc:
        # --help exits through argparse with code 0.
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    except BrokenPipeError:
        # The reader has gone (``| head``).  As the ``signal`` docs advise,
        # point stdout at devnull so that the exit-time flush prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (_UsageError, ValueError, IndexError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
