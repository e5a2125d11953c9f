"""Run one pcore request with a span around every public library call.

Usage: python traced_cli.py SPANS_PATH REQUEST_ID -- ARGV...

Imports ``pcores.cli`` (timed as the import), replaces every public
function of the pcores modules with a recording wrapper, runs
``pcores.cli.run_cli(ARGV)`` and exits with its code.  Stdout is exactly
what the untraced command prints.  Spans stay in memory and are written as
one JSON document to SPANS_PATH when the request ends:

    {"request": id, "import_s": s, "names": [...],
     "spans": [[id, parent, name index, start_ns, end_ns, self_ns,
                count, hit], ...]}

``count`` is a work count taken at the call boundary (see COUNTERS) or
null; ``hit`` is, for ``lru_cache`` functions, whether the call was served
from the cache, from the ``cache_info()`` delta across it, else null.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

MODULES = ("arith", "asympt", "cache", "cli", "fourier", "precision",
           "series", "special")


def _snap_headroom(args, kwargs, result):
    # digits between the residual and the tolerance; a residual of exactly
    # zero is taken at the working precision's last digit
    from pcores.precision import DEFAULT_PRECISION
    config = args[1] if len(args) > 1 else kwargs.get("config",
                                                      DEFAULT_PRECISION)
    floor = 10.0 ** -config.working_dps
    return math.log10(config.snap_tolerance / max(result.residual, floor))


def _file_bytes(args, kwargs, result):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


# Work counts recorded at a span's end, from its arguments and result.
COUNTERS = {
    "series.pcore_series": lambda a, k, r: a[1] + 1,
    "series.eta_quotient_value": lambda a, k, r: a[2],
    "fourier.dft": lambda a, k, r: a[0].k ** 2,
    "cache.load": _file_bytes,
    "precision.snap_integer": _snap_headroom,
}


class Tracer:
    """The spans of one request, kept in memory until dump()."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[list] = []   # [span id, child ns] per open span
        self._next_id = 0

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else None
            result = failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                count = counter(args, kwargs, result) \
                    if counter and not failed else None
                hit = cache_info().misses == misses if cache_info else None
                spans.append([span_id, parent, index, start, end,
                              end - start - frame[1], count, hit])

        return traced

    def install(self) -> None:
        """Wrap each module's own public functions and rebind every pcores
        attribute that refers to the same object, since modules import
        functions by name."""
        modules = [importlib.import_module(f"pcores.{m}") for m in MODULES]
        package = importlib.import_module("pcores")
        replaced = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                target = getattr(obj, "__wrapped__", obj)
                if (callable(obj) and inspect.isfunction(target)
                        and target.__module__ == module.__name__):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def dump(self, path: str, request_id: str, import_s: float) -> None:
        with open(path, "w") as handle:
            json.dump({"request": request_id, "import_s": import_s,
                       "names": self.names, "spans": self.spans}, handle,
                      separators=(",", ":"))


def main() -> int:
    spans_path, request_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PATH REQUEST_ID -- ARGV...")
    start = time.perf_counter()
    import pcores.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return pcores.cli.run_cli(argv)
    finally:
        tracer.dump(spans_path, request_id, import_s)


if __name__ == "__main__":
    sys.exit(main())
