"""Traced entry point: one ``seqineq`` command line with a span around each layer call.

Usage::

    python shim.py TRACE_FILE ARG...

Behaves like ``python -m seqineq.cli ARG...`` and additionally times
``import seqineq.cli``, rebinds the public names that ``seqineq.cli``,
``seqineq.convexity`` and ``seqineq.sequence_io`` look up to timing wrappers,
and runs ``run_cli(ARG...)``.  Each span is ``[name, start, end, parent,
extra]`` with ``time.perf_counter`` stamps and the index of the enclosing
span; ``extra`` holds a count taken at that boundary or the name of the
exception that left it.  Spans stay in memory and are written to TRACE_FILE
as JSON when the command ends.  Names a later version of the program no
longer has are listed under ``"missing"`` instead of failing the run.
"""

import json
import os
import sys
import time


def _witness_parts(args, result):
    return {"witness_parts": sum(len(w.parts) for w in result.witnesses)}


def _pairwise_violations(args, result):
    return {"violations": len(result.violations)}


def _support_pairs(args, result):
    u, s = args[0], args[1]
    return {"pairs": len(u) * len(s.values)}


def _bytes_read(args, result):
    return {"bytes": os.path.getsize(args[0])}


_bytes_written = _bytes_read

# (module, attribute, span name, count taken from the call's arguments and result)
TRACED = (
    ("seqineq.cli", "read_sequence", "sequence_io.read", _bytes_read),
    ("seqineq.cli", "write_sequence", "sequence_io.write", _bytes_written),
    ("seqineq.sequence_io", "Sequence", "core.sequence", None),
    ("seqineq.cli", "classify", "core.classify", None),
    ("seqineq.cli", "certify_convexity", "convexity.certify", None),
    ("seqineq.convexity", "check_defining_inequality", "convexity.defining", None),
    ("seqineq.convexity", "check_three_point_slopes", "convexity.slopes", None),
    ("seqineq.cli", "support_sequence", "convexity.support_sequence", None),
    ("seqineq.convexity", "support_sequence", "convexity.support_sequence", None),
    ("seqineq.convexity", "verify_support", "convexity.verify_support", _support_pairs),
    ("seqineq.cli", "subadditive_hull", "subadditivity.hull", _witness_parts),
    ("seqineq.cli", "epsilon_star", "subadditivity.epsilon", None),
    ("seqineq.cli", "decompose", "subadditivity.decompose", None),
    ("seqineq.cli", "is_subadditive_pairwise", "subadditivity.pairwise", _pairwise_violations),
    ("seqineq.cli", "quadratic_piece", "interpolation.quadratic_piece", None),
    ("seqineq.cli", "spline_eval", "interpolation.spline_eval", None),
    ("seqineq.cli", "lagrange_polynomial", "interpolation.lagrange", None),
    ("seqineq.cli", "polynomial_convexity_on_interval", "interpolation.poly_class", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import seqineq.cli

    tracer.spans.append(["import", start, time.perf_counter(), None, None])
    missing = []
    for module_name, attr, span_name, count in TRACED:
        module = sys.modules[module_name]
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(span_name, getattr(module, attr), count))
        else:
            missing.append(f"{module_name}.{attr}")
    run_cli = tracer.wrap("run_cli", seqineq.cli.run_cli)
    code = 2
    try:
        code = run_cli(argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": missing}, fh)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
