"""In-process span tracing of the package's public functions.

The tracer wraps, from outside the package, every public function of
``fileio``, ``gram``, ``ortho``, ``pseudo`` and ``spectral``, and
patches the wrapper into every module namespace that imported the
function by name (``cli``, ``ortho``, ``pseudo``, ``spectral`` ...), so
both qualified and direct calls are recorded.  Spans live in memory and
are written once, at the end of a run.
"""

import functools
import gzip
import importlib
import inspect
import json
import time

LAYER_MODULES = ("fileio", "gram", "ortho", "pseudo", "spectral")
NAMESPACES = LAYER_MODULES + ("cli",)

# Span record fields.
NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    """Collects spans: name, start, end, parent span, operation id, size.

    ``size`` is the leading dimension of the first argument when it is
    an array (n for an n x n eigendecomposition), else None.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self._patches = []

    def wrap(self, name, fn):
        """``fn`` recording one span named ``name`` per call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shape = getattr(args[0], "shape", None) if args else None
            record = [name, 0.0, None, stack[-1] if stack else None, self.op,
                      shape[0] if shape else None]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap the public functions and patch every namespace that holds them."""
        modules = {m: importlib.import_module(f"gradedortho.{m}") for m in NAMESPACES}
        wrappers = {}
        for short in LAYER_MODULES:
            module = modules[short]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def write(self, path):
        """Write every span as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "size"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for record in spans:
        if record[PARENT] is not None:
            child[record[PARENT]] += record[END] - record[START]
    return [record[END] - record[START] - c for record, c in zip(spans, child)]


def has_ancestor(spans, index, prefix):
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False
