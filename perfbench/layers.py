"""Per-layer metrics from a traced run.

Layers are the ``graphsep`` modules.  Per traced pass the tracer yields, for
each traced function, its call count, self time and computed work; the
metrics below are medians over traced passes, except that ``generators.*``
(which only runs during set-up) comes from one traced set-up.  Computed work
is derived from array shapes and text lengths, not from hardware counters.

Waste ratios compare work done with the least work the output needs:

* ``separability.verify_per_decompose``: ``verify_decomposition`` calls
  inside certified ``decompose`` ops per such op (1 is the floor);
* ``separability.assemble_per_certified_graph``: dense reassemblies over all
  ops on a certified graph, per certified graph;
* ``linalg.eigendecompositions_per_axis``: ``spectral_decomposition`` calls
  inside certified ``decompose`` ops over the sum of their ``n - 1`` (1 is
  the floor);
* ``graphs.adjacency_builds_per_op``: ``adjacency_matrix`` calls per op.

``trace.overhead_s`` is the median traced pass time minus the median
untraced pass time, from passes that alternate in the same process.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter

from tracer import LAYERS, TRACED, WORK

WORK_UNITS = {"work_n3": "count", "out_bytes": "B", "bytes": "B"}

RATIOS = (
    "separability.verify_per_decompose",
    "separability.assemble_per_certified_graph",
    "linalg.eigendecompositions_per_axis",
    "graphs.adjacency_builds_per_op",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name, (suffix, _) in WORK.items():
        units[f"{name}.{suffix}"] = WORK_UNITS[suffix]
    for name in RATIOS:
        units[name] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _waste_ratios(tracer, traced_pass) -> dict[str, float]:
    lo, hi = traced_pass["spans"]
    calls = Counter((span[5], span[1]) for span in tracer.spans[lo:hi])
    outcomes = traced_pass["outcomes"]
    certified = [i for i, o in enumerate(outcomes) if o.op.kind == "decompose" and o.code == 0]
    certified_graphs = {outcomes[i].op.graph.index for i in certified}
    verifies = sum(calls[i, "separability.verify_decomposition"] for i in certified)
    eigs = sum(calls[i, "linalg.spectral_decomposition"] for i in certified)
    axes = sum(outcomes[i].op.graph.axes - 1 for i in certified)
    assembles = sum(
        calls[i, "separability.SeparableDecomposition.assemble"]
        for i, o in enumerate(outcomes)
        if o.op.graph.index in certified_graphs
    )
    stats = traced_pass["stats"]
    # Every workload certifies its control graph, so the bases are nonzero
    # unless decompose itself failed, which the gate already reports.
    return {
        "separability.verify_per_decompose": verifies / max(1, len(certified)),
        "separability.assemble_per_certified_graph": assembles / max(1, len(certified_graphs)),
        "linalg.eigendecompositions_per_axis": eigs / max(1, axes),
        "graphs.adjacency_builds_per_op": stats["graphs.adjacency_matrix"][0] / len(outcomes),
    }


def per_layer_metrics(tracer, setup_stats, plain, traced) -> dict:
    """Metric name -> (value, unit) for a traced run."""
    med = statistics.median
    units = metric_units()
    values = {}

    def per_pass(fn, median=med):
        return median([fn(p) for p in traced])

    for name in TRACED:
        if name.startswith("generators."):
            calls, self_s = setup_stats[name][:2]
        else:
            calls = per_pass(lambda p: p["stats"][name][0], statistics.median_low)
            self_s = per_pass(lambda p: p["stats"][name][1])
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for layer in LAYERS:
        members = [n for n in TRACED if n.split(".")[0] == layer]
        if layer == "generators":
            values[f"{layer}.self_s"] = sum(setup_stats[n][1] for n in members)
        else:
            values[f"{layer}.self_s"] = per_pass(
                lambda p: sum(p["stats"][n][1] for n in members)
            )
    for name, (suffix, _) in WORK.items():
        values[f"{name}.{suffix}"] = per_pass(
            lambda p: p["stats"][name][2], statistics.median_low
        )
    ratios = [_waste_ratios(tracer, p) for p in traced]
    for name in RATIOS:
        values[name] = med([r[name] for r in ratios])
    values["trace.overhead_s"] = (
        med([p["pass_s"] for p in traced]) - med([p["pass_s"] for p in plain])
    )
    return {name: (values[name], unit) for name, unit in units.items()}


def write_spans(tracer, bench, path) -> None:
    """One JSON object per span: the op it belongs to and helper-call counts."""
    labels = [f"{op.kind} {op.graph.slot.label}" for op in bench.ops]
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op in tracer.spans:
            handle.write(json.dumps({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "op": op,
                "op_label": labels[op] if op >= 0 else "setup",
                "helpers": tracer.helper_counts.get(span_id, {}),
            }) + "\n")
