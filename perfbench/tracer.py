"""Outside-in span tracer for the graphsep modules.

The tracer replaces every module-level binding of the traced functions
(``from .linalg import kron`` copies the name into ``separability``,
``generators`` and ``cli``, and the package re-exports it) and the traced
methods on their classes with timing wrappers.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original object back.

Two kinds of wrapper exist:

* span functions record one ``(id, name, start, end, parent, op)`` tuple per
  call, kept in memory and written out when the run ends;
* per-element helpers (``vertex_label``, ``vertex_index``, ``swap_edge``,
  ``format_float``) run up to millions of times per pass, so they record no
  span: their calls are counted into the innermost enclosing span instead,
  which keeps trace memory bounded by the number of span calls.

Both kinds keep a self-time total (duration minus the time of traced calls
nested inside), a call count and, where a work extractor is given, a
computed-work total derived from array sizes or text lengths.
"""

from __future__ import annotations

import itertools
import sys
import time

import numpy as np

PACKAGE = "graphsep"

HELPERS = frozenset(
    {
        "graphs.vertex_label",
        "graphs.vertex_index",
        "transforms.swap_edge",
        "textio.format_float",
    }
)


def _order_cubed(args, result):
    return int(np.shape(args[0])[0]) ** 3


def _nbytes(args, result):
    return int(result.nbytes)


def _read_write_bytes(args, result):
    # The partial transpose reads the input and writes a copy of equal size.
    return 2 * int(result.nbytes)


def _text_in(args, result):
    return len(args[0])


def _text_out(args, result):
    return len(result)


# name -> (computed-work metric suffix, extractor); the suffixes are the
# per-layer metric names listed in BENCHMARK.json.
WORK = {
    "linalg.spectral_decomposition": ("work_n3", _order_cubed),
    "linalg.is_psd": ("work_n3", _order_cubed),
    "linalg.kron": ("out_bytes", _nbytes),
    "linalg.partial_transpose_matrix": ("bytes", _read_write_bytes),
    "graphs.parse_graph": ("bytes", _text_in),
    "separability.format_decomposition": ("bytes", _text_out),
    "separability.parse_decomposition": ("bytes", _text_in),
}

TRACED = (
    "cli.main",
    "graphs.parse_graph",
    "graphs.adjacency_matrix",
    "graphs.density_matrix",
    "graphs.vertex_label",
    "graphs.vertex_index",
    "graphs.MultipartiteGraph.degree_sequence",
    "transforms.swap_edge",
    "transforms.gtpt",
    "transforms.is_partially_symmetric",
    "transforms.is_degree_symmetric",
    "transforms.gtpt_matrix_identity",
    "linalg.spectral_decomposition",
    "linalg.is_psd",
    "linalg.kron",
    "linalg.partial_transpose_matrix",
    "linalg.is_diagonally_dominant",
    "separability.check_theorem_conditions",
    "separability.decompose",
    "separability.verify_decomposition",
    "separability.SeparableDecomposition.assemble",
    "separability.ppt_check",
    "separability.format_decomposition",
    "separability.parse_decomposition",
    "textio.format_float",
    "generators.gen_theorem_graph",
    "generators.gen_partially_symmetric",
    "generators.gen_degree_symmetric_only",
)

LAYERS = ("cli", "graphs", "transforms", "linalg", "separability", "textio", "generators")


class Tracer:
    """Wrap the traced graphsep functions; collect spans and per-function totals."""

    def __init__(self):
        self.op = -1  # id of the benchmark op in progress, set by the caller
        self.spans: list[tuple] = []
        self.helper_counts: dict[int, dict[str, int]] = {}
        self.stats: dict[str, list] = {}
        self._restore: list[tuple[object, str, object]] = []
        # frame: [child time, span id]; the sentinel is "outside any span".
        self._stack: list[list] = [[0.0, -1]]
        self._ids = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Start fresh totals (spans already recorded are kept)."""
        self.stats = {name: [0, 0.0, 0] for name in TRACED}
        self._stack[:] = [[0.0, -1]]

    def snapshot(self) -> dict[str, list]:
        return {name: list(v) for name, v in self.stats.items()}

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for name in TRACED:
            module_name, _, attr = name.partition(".")
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:  # a method, wrapped once on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        frames = self._stack
        next_id = self._ids.__next__
        clock = time.perf_counter
        work = WORK.get(name, (None, None))[1]
        tracer = self

        if name in HELPERS:

            def helper(*args, **kwargs):
                parent = frames[-1]
                frame = [0.0, parent[1]]
                frames.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    frames.pop()
                    parent[0] += dur
                    stat = tracer.stats[name]
                    stat[0] += 1
                    stat[1] += dur - frame[0]
                    counts = tracer.helper_counts.setdefault(parent[1], {})
                    counts[name] = counts.get(name, 0) + 1

            helper.__wrapped__ = fn
            return helper

        def span(*args, **kwargs):
            parent = frames[-1]
            span_id = next_id()
            frame = [0.0, span_id]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                parent[0] += dur
                stat = tracer.stats[name]
                stat[0] += 1
                stat[1] += dur - frame[0]
                tracer.spans.append((span_id, name, start, end, parent[1], tracer.op))
            if work is not None:
                tracer.stats[name][2] += work(args, result)
            return result

        span.__wrapped__ = fn
        return span
