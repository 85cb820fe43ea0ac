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

Each command is one entry of the table ``_COMMANDS``: its help text, its
analysis module, the options of its own, and a builder that turns the input
into the report sections that follow the common header (tool, command,
tolerance, input) and says whether the property holds.  ``run_cli`` does
the rest for every command: it parses the command line, reads the input
once, imports the analysis module, calls the builder, writes the report and
turns the verdict into the exit code.  ``epsilon`` and ``spline --format
csv`` write their own output instead of a report.

The command line is parsed from the same tables: ``_COMMANDS``' options
and ``_SHARED`` (``--abs-tol``, ``--rel-tol``, ``--format``).  The rules,
the messages and the help layout are those of the standard library's
command-line parser, which is not imported.  Shared options go before or
after the command; a value is ``--flag value`` or ``--flag=value``; a
unique prefix names a flag (``--he`` is ``--help``); ``--`` ends the
options; a negative number is a value; the last of a repeated option wins.
``-h``/``--help`` prints the help of the program or of the command it
follows and exits 0.

A process imports only the analysis module of its command
(``convexity``, ``interpolation`` or ``subadditivity``), after the input
has been read, so ``--help`` and input refusals import none of them;
``csv`` is imported only for a ``--format csv`` report, and ``json`` only
where a JSON document is read or written.  The names the
builders call are bound in this module when the command runs, unless a
name is bound already (by a wrapper or a test's patch); an outside lookup
such as ``cli.certify_convexity`` imports and binds them the same way.

Exit code 2 means the input could not be used (unreadable file, malformed
numbers, wrong index base, unknown flags) or the command ran out of memory
(``error: out of memory``); a one-line diagnostic goes to stderr.  Exit
code 141 (128 + SIGPIPE, what a shell reports for a process killed by
SIGPIPE) means stdout was closed before the report was written, as in
``seqineq spline FILE | head``; stderr stays empty.

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
report; the tests pin both on every command's report.  The O(N^2) arrays
(hull witnesses and pairwise violations) are never built: they are
rendered as text one row at a time, straight to stdout, so the working
memory stays O(N) plus one row whatever the size of the report.  A JSON
report is one ``json.dumps`` call whose ``default`` hook holds such an
array back behind a placeholder; its rows are written where the
placeholder stands.  ``hull`` and ``decompose`` check the order of every
witness from the parent pointers before writing anything.

numpy is imported only by the two O(N^2) kernels of ``subadditivity``,
each by its own rule; ``--help``, ``check-convex``, ``support``,
``spline``, ``lagrange`` and input refusals never load it.  Importing it
takes roughly 100 ms.  ``lagrange`` computes the interpolant and its
convexity class exactly, in integers, and ``check-convex`` decides its
three legs exactly, in integers, under one tolerance rule (see
``seqineq.convexity``); its support leg is one walk along a lower convex
hull, O(N) at any tolerance.

* The pairwise check (``check-subadd`` without ``--eps``) runs pure-Python
  rows up to ``PURE_ROWS_MAX_N`` (256, in ``seqineq.subadditivity``)
  entries and numpy rows above.
* The subadditive hull (``hull``, ``decompose``, ``epsilon`` and
  ``check-subadd --eps``) scans candidate splits in pure Python, only the
  generators on integer input whose sums are exact, and switches to numpy
  rows once the work left exceeds ``HULL_PURE_CELLS`` split sums.  Integer
  inputs with few generators, such as convex or random ones, never load
  numpy at N = 2000; a concave increasing one, where every index is a
  generator, loads it above about N = 1100.
"""

from __future__ import annotations

import importlib
import itertools
import os
import re
import sys
import warnings
from collections.abc import Iterator

from . import __version__
from .core import DEFAULT_TOLERANCE, Sequence, ToleranceConfig, classify
from .sequence_io import read_sequence, write_sequence

# Analysis module -> the names of it that the builders call.  A command
# imports its module when it runs (see ``_COMMANDS``), so that no process
# compiles the analyses it does not use.
_ANALYSES = {
    "convexity": ("certify_convexity", "support_sequence"),
    "interpolation": (
        "lagrange_polynomial",
        "polynomial_convexity_on_interval",
        "quadratic_piece",
        "spline_samples",
    ),
    "subadditivity": (
        "check_epsilon",
        "decompose",
        "epsilon_star",
        "pairwise_violation_rows",
        "subadditive_hull",
    ),
}


def _bind(module: str) -> None:
    """Import an analysis module and bind the builders' names from it.

    A name bound already stays bound, so that a wrapper put in its place
    (a tracer's, a test's patch) is what the builder calls.
    """
    analysis = importlib.import_module(f".{module}", __package__)
    names = globals()
    for name in _ANALYSES[module]:
        if name not in names:
            names[name] = getattr(analysis, name)


def __getattr__(name: str):
    # PEP 562: ``cli.certify_convexity`` from outside imports and binds its
    # module's names as the command would, so that they can be wrapped.
    for module, names in _ANALYSES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


class _UsageError(Exception):
    pass


def load_report_schema() -> dict:
    """The JSON schema that every report document conforms to."""
    import importlib.resources
    import json

    text = (
        importlib.resources.files("seqineq")
        .joinpath("schemas/report.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


def _base_report(command: str, u: Sequence, tol: ToleranceConfig) -> dict:
    return {
        "tool": {"name": "seqineq", "version": __version__},
        "command": command,
        "tolerance": {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol},
        "input": {"length": len(u), "start_index": u.start_index},
    }


def _int_arrays(rows: Iterator[tuple[list[int], list[int]]], bound: int) -> Iterator[str]:
    """A report's non-empty array of int arrays as ``json.dumps`` lays it out.

    A row ``(lead, lasts)`` stands for the arrays ``[*lead, x]`` for each x
    in ``lasts``: a failing row of the pairwise test is ``([m], ns)``, and
    a witness is ``(parts[:-1], parts[-1:])``.  Every int is below ``bound``.
    The text comes one chunk per row, and the rows are read once.
    """
    dec = [str(i) for i in range(bound)]
    dec_sep = [d + ", " for d in dec]
    sep = "["
    for lead, lasts in rows:
        head = "[" + "".join(map(dec_sep.__getitem__, lead))
        yield sep + head + ("], " + head).join(map(dec.__getitem__, lasts)) + "]"
        sep = ", "
    yield "]"


def _flatten(prefix: str, node, writer) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(f"{prefix}.{key}" if prefix else key, value, writer)
    elif isinstance(node, Iterator):
        # An ``_int_arrays`` text, which holds no quote or line break, so
        # ``csv.writer`` quotes it iff it holds a comma; after the first two
        # chunks it must, if ever.  Keys are plain dotted names, which the
        # writer never quotes.
        head = next(node) + next(node, "")
        quote = '"' if "," in head else ""
        sys.stdout.write(f"{prefix},{quote}{head}")
        sys.stdout.writelines(node)
        sys.stdout.write(f"{quote}\n")
    else:
        import json

        writer.writerow((prefix, json.dumps(node)))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        held = []

        def hold(node):
            # The report's one ``_int_arrays`` text stands as "\0", which no
            # other report value is; anything else is refused as json.dumps
            # refuses it.
            if held or not isinstance(node, Iterator):
                raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
            held.append(node)
            return "\0"

        head, _, tail = json.dumps(report, default=hold).partition('"\\u0000"')
        # The line break is a write of its own, so that an unbuffered stdout
        # that a closing reader cuts short fails on it (see ``_spline``).
        sys.stdout.writelines(itertools.chain([head], *held, [tail, "\n"]))
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(("key", "value"))
    _flatten("", report, writer)


def _witnesses(hull) -> Iterator[str]:
    # ``hull`` is a ``HullResult`` or a ``Decomposition``.
    # Checked while the report is built, so that a refusal comes before any
    # output and any --out-v/--out-w file; the rows are rendered later.
    hull.check_witness_order()

    def rows():
        for n in range(1, len(hull.last_part) + 1):
            parts = list(hull.witness_parts(n))
            yield parts[:-1], parts[-1:]

    return _int_arrays(rows(), len(hull.last_part) + 1)


def _check_convex(u: Sequence, opts: dict, tol: ToleranceConfig):
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


def _support(u: Sequence, opts: dict, tol: ToleranceConfig):
    s = support_sequence(u)
    return True, {
        "support": {
            "first_index": s.first_index,
            "last_index": s.last_index,
            "values": s.values,
            "witness_pairs": s.witness_pairs or (),
        },
    }


def _spline(u: Sequence, opts: dict, tol: ToleranceConfig):
    per_unit = opts["samples"]
    if per_unit < 1:
        raise ValueError("--samples must be at least 1")
    if len(u) < 3:
        raise ValueError("sequence too short")
    pieces = [quadratic_piece(u, n) for n in range(u.start_index + 1, u.last_index)]
    samples = spline_samples(pieces, per_unit)
    if opts["format"] == "csv":
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


def _lagrange(u: Sequence, opts: dict, tol: ToleranceConfig):
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


def _hull(u: Sequence, opts: dict, tol: ToleranceConfig):
    result = subadditive_hull(u)
    return True, {"hull": {"v": result.v.values, "witnesses": _witnesses(result)}}


def _epsilon(u: Sequence, opts: dict, tol: ToleranceConfig):
    print(repr(epsilon_star(u)))
    return True, None


def _decompose(u: Sequence, opts: dict, tol: ToleranceConfig):
    split = decompose(u)
    sections = {
        "decomposition": {
            "v": split.v.values,
            "w": split.w.values,
            "epsilon_star": split.epsilon_star,
            "witnesses": _witnesses(split),
        },
    }
    if opts["out_v"]:
        write_sequence(opts["out_v"], split.v)
    if opts["out_w"]:
        write_sequence(opts["out_w"], split.w)
    return True, sections


def _check_subadd(u: Sequence, opts: dict, tol: ToleranceConfig):
    if opts["eps"] is None:
        # ``ok`` precedes ``violations`` in the report: peek at the first
        # failing row, then stream it and the rest.
        rows = pairwise_violation_rows(u, tol)
        first = next(rows, None)
        ok = first is None
        violations = () if ok else _int_arrays(
            (([m], ns) for m, ns in itertools.chain([first], rows)), len(u) + 1
        )
        mode, eps, gap = "pairwise", None, None
    else:
        eps = check_epsilon(opts["eps"])
        gap = epsilon_star(u)
        ok = gap <= eps
        mode, violations = "approx", None
    # Classified after the test, so that the test's own refusals (index
    # base, hull overflow) are the ones named.
    return ok, {
        "classification": classify(u, tol).as_dict(),
        "subadditivity": {
            "mode": mode,
            "ok": ok,
            "violations": violations,
            "epsilon": eps,
            "epsilon_star": gap,
        },
    }


# name -> (help, analysis module, builder, options of its own).  A builder
# takes the input, the option values by name (``opts["samples"]`` for
# ``--samples``) and the tolerance, and returns ``(ok, sections)``: the
# report sections that follow the base report, or None when it has written
# its own output.  An option is a dict with a ``help`` text and optionally a
# ``type`` that converts its value, ``choices`` and a ``default`` (None if
# absent).  ``run_cli`` parses the command line, imports the module and
# does the rest.
_COMMANDS = {
    "check-convex": ("certify or refute convexity", "convexity", _check_convex, {}),
    "support": ("support (subgradient) sequence", "convexity", _support, {}),
    "spline": ("local quadratic pieces and samples", "interpolation", _spline, {
        "--samples": {"type": int, "default": 16, "help": "samples per unit interval (default 16)"},
    }),
    "lagrange": ("global interpolant coefficients", "interpolation", _lagrange, {}),
    "hull": ("subadditive hull with witnesses", "subadditivity", _hull, {}),
    "epsilon": ("smallest eps for approximate subadditivity", "subadditivity", _epsilon, {}),
    "decompose": ("split into subadditive part plus remainder", "subadditivity", _decompose, {
        "--out-v": {"help": "write the subadditive part to this sequence file"},
        "--out-w": {"help": "write the remainder to this sequence file"},
    }),
    "check-subadd": ("pairwise or approximate subadditivity test", "subadditivity", _check_subadd, {
        "--eps": {"type": float, "help": "test approximate subadditivity at this eps"},
    }),
}

# The options of every command, accepted before the command too.
_SHARED = {
    "--abs-tol": {
        "type": float,
        "default": DEFAULT_TOLERANCE.abs_tol,
        "help": "absolute slack for inequality checks (default 1e-9)",
    },
    "--rel-tol": {
        "type": float,
        "default": DEFAULT_TOLERANCE.rel_tol,
        "help": "relative slack for inequality checks (default 1e-9)",
    },
    "--format": {"choices": ("json", "csv"), "default": "json", "help": "report style (default json)"},
}


def _options(command: str | None) -> dict:
    # The options of the program (command None) or of a command.
    return _SHARED if command is None else {**_SHARED, **_COMMANDS[command][3]}


def _name(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _help(command: str | None) -> str:
    """The help of the program (command None) or of a command, laid out as
    the standard library's parser lays it out at 80 columns."""
    prog = "seqineq" if command is None else f"seqineq {command}"
    rows = [("-h, --help", "show this help message and exit")]
    for flag, spec in _options(command).items():
        choices = spec.get("choices")
        metavar = "{" + ",".join(choices) + "}" if choices else _name(flag).upper()
        rows.append((f"{flag} {metavar}", spec["help"]))
    # The usage wraps at 78 characters, under its first option.
    indent = " " * (len(prog) + 8)
    lines = ["usage: " + prog]
    for part in ["[-h]", *(f"[{head}]" for head, _ in rows[1:])]:
        if len(lines[-1]) + 1 + len(part) > 78:
            lines.append(indent + part)
        else:
            lines[-1] += " " + part
    if command is None:
        lines += [indent + "command ...", "", "Analyze a finite real sequence for convexity and subadditivity."]
        positionals = [("  command", None), *((f"    {name}", entry[0]) for name, entry in _COMMANDS.items())]
    else:
        lines.append(indent + "file")
        positionals = [("  file", None)]
    rows = [(f"  {head}", text) for head, text in rows]
    column = max(len(head) for head, text in positionals + rows) + 2
    for title, section in (("positional arguments:", positionals), ("options:", rows)):
        lines += ["", title]
        lines += [head.ljust(column) + text if text else head for head, text in section]
    return "\n".join(lines) + "\n"


def _classify(arg: str, flags) -> tuple[str | None, str | None] | None:
    """What ``arg`` is among ``flags``: None for a positional, else
    ``(flag, value)`` with flag None for an unknown option and value the
    text joined to the flag (``--flag=value``, ``-hVALUE``) or None.

    The rules are the standard library parser's: a unique prefix of a long
    flag names it, and a negative number or a word with a space is a
    positional.
    """
    if arg in flags:
        return arg, None
    if arg[:1] != "-" or len(arg) == 1:
        return None
    flag, eq, value = arg.partition("=")
    if eq and flag in flags:
        return flag, value
    if arg[1] == "-":
        matches = [name for name in flags if name.startswith(flag)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:]
    if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")


class _Help(Exception):
    """-h or --help, met among the options of the command ``args[0]``
    (None: the program's)."""


def _scan(args: list[str], command: str | None, opts: dict, extras: list[str]) -> list[str] | str | None:
    """Read the options of the program (command None) or of a command.

    Option values go into ``opts``, unknown options and surplus positionals
    into ``extras``.  Returns the program's arguments from its command on,
    or the command's file; None if there is none.  Up to ``--`` every
    argument is classified first, so that an ambiguous one is refused
    before any other; after it every argument is a positional.
    """
    options = _options(command)
    flags = ("-h", "--help", *options)
    end = args.index("--") if "--" in args else len(args)
    kinds = [_classify(arg, flags) for arg in args[:end]]
    file = file_at = None
    i = 0
    while i < len(args):
        arg, at = args[i], i
        i += 1
        if at >= end or kinds[at] is None:
            if command is None:
                # The command takes the rest; a "--" with nothing after it
                # is no command.
                if at != end or i < len(args):
                    return args[at:]
            elif at == end:
                # "--" goes with the file right before or after it.
                if file is not None and file_at != end - 1:
                    extras.append(arg)
            elif file is None:
                file, file_at = arg, at
            else:
                extras.append(arg)
            continue
        flag, value = kinds[at]
        if flag is None:
            extras.append(arg)
        elif flag in ("-h", "--help"):
            # A value joined to -h or --help is refused, save more h's:
            # "-hh" is -h twice.
            if value is not None:
                rest = value.lstrip("h") if flag == "-h" else value
                if rest or not value:
                    raise _UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
            raise _Help(command)
        else:
            if value is None:
                if i >= end or kinds[i] is not None:
                    raise _UsageError(f"argument {flag}: expected one argument")
                value = args[i]
                i += 1
            spec = options[flag]
            convert = spec.get("type")
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    raise _UsageError(f"argument {flag}: invalid {convert.__name__} value: {value!r}") from None
            if "choices" in spec:
                _check_choice(flag, value, spec["choices"])
            opts[_name(flag)] = value
    return file


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """The command and its option values, with the input path as ``file``.

    Shared options go before or after the command; the last of a repeated
    option wins.  For -h or --help the values are None, and the command is
    that of the help asked for (None for the program's).
    """
    opts = {_name(flag): spec.get("default") for flag, spec in _SHARED.items()}
    extras: list[str] = []
    try:
        line = _scan(argv, None, opts, extras)
        if line is None:
            raise _UsageError("the following arguments are required: command")
        command = line[0]
        _check_choice("command", command, _COMMANDS)
        opts.update((_name(flag), spec.get("default")) for flag, spec in _COMMANDS[command][3].items())
        opts["file"] = _scan(line[1:], command, opts, extras)
    except _Help as exc:
        return exc.args[0], None
    if opts["file"] is None:
        raise _UsageError("the following arguments are required: file")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return command, opts


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # Diagnostics stay one line on stderr, without a source location.
    print(f"warning: {message}", file=sys.stderr)


def run_cli(argv: list[str]) -> int:
    """Run one command line; returns the exit code instead of raising."""
    try:
        command, opts = _parse(argv)
        ok = True
        if opts is None:
            sys.stdout.write(_help(command))
        else:
            tol = ToleranceConfig(opts["abs_tol"], opts["rel_tol"])
            with warnings.catch_warnings():
                warnings.showwarning = _show_warning
                u = read_sequence(opts["file"])
                _, module, build, _ = _COMMANDS[command]
                _bind(module)
                ok, sections = build(u, opts, tol)
                if sections is not None:
                    _emit({**_base_report(command, u, tol), **sections}, opts["format"])
        # A closed stdout must show here, not in the exit-time flush.
        sys.stdout.flush()
        return EXIT_OK if ok else EXIT_PROPERTY_FAILED
    except BrokenPipeError:
        # The reader has gone (``| head``).  As the ``signal`` docs advise,
        # point stdout at devnull so that the exit-time flush prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (_UsageError, ValueError, IndexError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
