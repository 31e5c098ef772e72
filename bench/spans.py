"""In-memory spans around unitary3's public functions, recorded from outside.

``Tracer.install`` replaces each named function with a wrapper at every
``unitary3`` module name it is bound under, so calls between library
modules are seen as well as calls from the benchmark. No library source is
edited. A span is (layer, start_ns, end_ns, parent span, document, raised).
"""
import functools
import statistics
import sys
import time
from collections import Counter

# Public functions whose spans make the per-layer metrics, as module.function.
LAYERS = (
    "parametrization.recover_params",
    "parametrization.normalize_global_phase",
    "parametrization.recover_first_column",
    "parametrization.extract_core_params",
    "parametrization.compose_unitary",
    "parametrization.sign_of_chi",
    "rotations.extract_rotation_angles",
    "rotations.compose_rotation",
    "jones.completion_v2",
    "jones.completion_v3",
    "linalg.eig_hermitian3",
    "linalg.unitarity_distance",
    "characteristic.characteristic_decomposition",
    "characteristic.regularity_report",
    "documents.parse_matrix",
    "documents.serialize_params",
    "sampling.generate_haar_unitary",
    "sampling.random_psd_hermitian",
)
# Statistic of each layer and its unit.
STATS = {"p50_us": "us", "self_p50_us": "us", "calls_per_doc": "calls/doc", "raised": "1/doc"}


class Tracer:
    """Records spans while ``active``; ``doc`` is None during input generation."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.doc = None
        self.absent = []
        self._stack = []

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "unitary3" or n.startswith("unitary3.")]
        for layer in LAYERS:
            module, name = layer.split(".")
            fn = getattr(sys.modules.get("unitary3." + module), name, None)
            if not callable(fn):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            raised = True
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.doc, raised)

        return traced

    def layer_metrics(self, generated: int, attempted: int, completed: set) -> dict:
        """Per-layer metrics over the recorded spans.

        calls_per_doc counts generation-phase calls per generated input plus
        document-phase calls per document that returned a result, so a
        document cut short by a raise does not dilute the count. raised is
        raised calls per attempted document. A layer never called, or absent
        from the library, reports zeros.
        """
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, doc, raised in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = {layer: [] for layer in LAYERS}
        own = {layer: [] for layer in LAYERS}
        setup_calls, doc_calls, raises = Counter(), Counter(), Counter()
        for i, (layer, start, end, parent, doc, raised) in enumerate(self.spans):
            total[layer].append(end - start)
            own[layer].append(end - start - child_ns[i])
            if doc is None:
                setup_calls[layer] += 1
            else:
                doc_calls[layer] += doc in completed
                raises[layer] += raised
        metrics = {}
        for layer in LAYERS:
            calls = setup_calls[layer] / generated if generated else 0.0
            calls += doc_calls[layer] / len(completed) if completed else 0.0
            values = {
                "p50_us": statistics.median(total[layer]) / 1e3 if total[layer] else 0.0,
                "self_p50_us": statistics.median(own[layer]) / 1e3 if own[layer] else 0.0,
                "calls_per_doc": calls,
                "raised": raises[layer] / attempted if attempted else 0.0,
            }
            for stat, unit in STATS.items():
                metrics[f"{layer}.{stat}"] = {"value": values[stat], "unit": unit}
        return metrics

    def write(self, path):
        """Write the spans as CSV, times relative to the first span."""
        origin = min((s[1] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,layer,start_ns,end_ns,parent,doc,raised\n")
            for i, (layer, start, end, parent, doc, raised) in enumerate(self.spans):
                doc = "" if doc is None else doc
                f.write(f"{i},{layer},{start - origin},{end - origin},{parent},{doc},{int(raised)}\n")
