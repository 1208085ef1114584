"""Spans around the public entry points of each loopnil layer.

The tracer replaces each entry point below by a timing wrapper, everywhere a
module binds it: as a class attribute for methods, and in every ``loopnil``
module and benchmark workload module that imported a function by name.  It
keeps spans (name, start, end, parent, query id) in memory in flat arrays,
and per entry point the number of calls and the self time: span time minus
the time of the entry-point spans nested directly inside it.  Span times
are process CPU time (``time.process_time``), the clock of the end-to-end
stream times, so self times and the tracing overhead can be compared.
"""

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, class or None, attribute); the span is named module[.class].attr
ENTRY_POINTS = [
    ("nilpotent", "RuleSystem", "__init__"),
    ("nilpotent", "RuleSystem", "block_tail"),
    ("nilpotent", "RuleSystem", "extract"),
    ("nilpotent", "RuleSystem", "collect"),
    ("nilpotent", "TruncatedRing", "mul"),
    ("nilpotent", None, "apply_hom"),
    ("nilpotent", None, "layer_matrix"),
    ("nilq", None, "nilpotent_quotient"),
    ("intmat", None, "smith_normal_form"),
    ("linearize", None, "moore_homology"),
    ("hall", None, "lie_of_map"),
    ("tower", None, "layer_homotopy"),
    ("tower", None, "pi0"),
    ("tower", "LayerObject", "comparison_ok"),
    ("simplicial", None, "require_valid"),
    ("cli", None, "run_command"),
    ("jsonio", None, "canonical_dumps"),
]


def span_name(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


def _matrix_cells(mat, ncols=None):
    rows = len(mat)
    cols = len(mat[0]) if rows else (ncols or 0)
    return rows * cols


class Tracer:
    def __init__(self):
        self.names = [span_name(*ep) for ep in ENTRY_POINTS]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.snf_cells = 0
        self.lie_entries = 0
        self.query = -1
        self.active = False
        # spans in flat arrays: one entry per finished span
        self.s_id = array("q")
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_query = array("q")
        self._stack = []  # [span id, child time] of the open spans
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every entry point in place, for the rest of the process."""
        for idx, (mod_name, cls_name, attr) in enumerate(ENTRY_POINTS):
            module = importlib.import_module(f"loopnil.{mod_name}")
            if cls_name:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(idx, getattr(cls, attr)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(idx, original)
            for name, mod in list(sys.modules.items()):
                if not (name == "loopnil" or name.startswith(("loopnil.", "wl_"))):
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, idx, fn):
        tracer = self
        cells = idx == self.names.index("intmat.smith_normal_form")
        entries = idx == self.names.index("hall.lie_of_map")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if cells:
                tracer.snf_cells += _matrix_cells(args[0], kwargs.get("ncols"))
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.process_time()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                tracer.s_id.append(span)
                tracer.s_name.append(idx)
                tracer.s_start.append(start)
                tracer.s_end.append(end)
                tracer.s_parent.append(parent)
                tracer.s_query.append(tracer.query)
            if entries:
                tracer.lie_entries += _matrix_cells(out)
            return out

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self):
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
        out["intmat.smith_normal_form.cells"] = self.snf_cells
        out["hall.lie_of_map.entries"] = self.lie_entries
        tails = self.calls[self.names.index("nilpotent.RuleSystem.block_tail")]
        derived = self.calls[self.names.index("nilpotent.RuleSystem.extract")]
        out["nilpotent.rule_hit_ratio"] = 1 - derived / tails if tails else 0.0
        return out

    def write_spans(self, path):
        """Spans as gzip-compressed tab-separated lines in the order they
        ended; ``parent`` is the id of the enclosing span, or -1."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\tquery\n")
            for i in range(len(self.s_name)):
                fh.write(
                    f"{self.s_id[i]}\t{self.names[self.s_name[i]]}\t{self.s_start[i]:.9f}\t"
                    f"{self.s_end[i]:.9f}\t{self.s_parent[i]}\t{self.s_query[i]}\n"
                )
