"""Per-layer tracing by wrapping the program's public entry points.

The tracer replaces each traced function with a wrapper at every place the
program binds it: the attribute of every ``alacarte`` module that holds the
same function object (so ``arith.din`` is wrapped as well as
``indexed.din``), or the class attribute for methods such as
``Signature.node`` and ``Term.__eq__``.  Calls made inside the program go
through the wrappers too, because the program looks these names up at call
time; nested and recursive calls are therefore counted.

Each wrapped call is a span.  The tracer keeps a stack of open spans, so a
span's self time is its duration minus the durations of the wrapped spans
it directly encloses.  Counts and self times are aggregated online for
every span; the spans themselves (id, parent id, layer, start, end) are
kept in memory only up to a cap per phase and written out by
:meth:`Tracer.write_spans`.  Nothing in the program is edited, and
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns

# layer -> (functions as "module:qualname", metric suffixes reported for it)
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "kernel.node": (("alacarte.kernel:Signature.node",), ("calls", "self_s")),
    "kernel.in_": (("alacarte.kernel:in_",), ("calls", "self_s")),
    "kernel.term_eq": (("alacarte.kernel:Term.__eq__",), ("calls", "self_s")),
    "kernel.fold": (
        ("alacarte.kernel:fold_c", "alacarte.kernel:mfold", "alacarte.kernel:step_once"),
        ("calls", "self_s"),
    ),
    "indexed.dnode": (("alacarte.indexed:IndexedSignature.dnode",), ("calls", "self_s")),
    "indexed.din": (("alacarte.indexed:din",), ("calls", "self_s")),
    "indexed.validate": (("alacarte.indexed:validate",), ("calls", "self_s")),
    "indexed.ifold": (
        ("alacarte.indexed:ifold", "alacarte.indexed:istep_once"),
        ("calls", "self_s"),
    ),
    "mutual.node": (("alacarte.mutual:BiSignature.node",), ("calls", "self_s")),
    "mutual.in_bi": (("alacarte.mutual:in_bi",), ("calls", "self_s")),
    "mutual.dnode": (("alacarte.mutual:IndexedBiSignature.dnode",), ("calls", "self_s")),
    "mutual.din_bi": (("alacarte.mutual:din_bi",), ("calls", "self_s")),
    "mutual.validate_bi": (("alacarte.mutual:validate_bi",), ("calls", "self_s")),
    "mutual.hfold": (
        ("alacarte.mutual:hfold_1", "alacarte.mutual:hfold_2", "alacarte.mutual:hstep_once"),
        ("calls", "self_s"),
    ),
    "arith.eval": (("alacarte.arith:eval_", "alacarte.arith:eval_g"), ("self_s",)),
    "arith.derive": (
        (
            "alacarte.arith:build_eval_derivation",
            "alacarte.arith:build_typof_derivation",
            "alacarte.arith:build_istrm",
        ),
        ("self_s",),
    ),
    "arith.preservation": (
        ("alacarte.arith:preservation", "alacarte.arith:preservation_via_istrm"),
        ("self_s",),
    ),
    "lang_l.step": (
        ("alacarte.lang_l.step:step_exp", "alacarte.lang_l.step:step_dec"),
        ("calls", "self_s"),
    ),
    "lang_l.typecheck": (
        (
            "alacarte.lang_l.typing:typecheck_exp",
            "alacarte.lang_l.typing:typecheck_dec",
            "alacarte.lang_l.typing:typecheck_env",
        ),
        ("calls", "self_s"),
    ),
    "lang_l.subject_reduction": (
        ("alacarte.lang_l.preservation:subject_reduction",),
        ("calls", "self_s"),
    ),
    "testkit.enum": (
        (
            "alacarte.testkit:term_layers",
            "alacarte.testkit:enumerate_terms",
            "alacarte.testkit:biterm_layers",
            "alacarte.testkit:enumerate_biterms",
        ),
        ("self_s",),
    ),
    "testkit.gen": (("alacarte.testkit:gen_well_typed_config",), ("self_s",)),
    "testkit.oracle": (("alacarte.testkit:oracle_eval",), ("self_s",)),
    "sexpr.read": (("alacarte.sexpr:read",), ("calls", "self_s")),
    "sexpr.write": (("alacarte.sexpr:write",), ("calls", "self_s")),
    "json.derivation": (
        (
            "alacarte.indexed:derivation_to_json",
            "alacarte.mutual:bi_derivation_to_json",
            "alacarte.kernel:term_to_json",
            "alacarte.mutual:biterm_to_json",
        ),
        ("self_s",),
    ),
    "cli.main": (("alacarte.cli:main",), ("calls", "self_s")),
}

# metrics derived from more than one layer's counts
DERIVED = ("indexed.din.node_calls", "lang_l.step.moved_ratio")
OVERHEAD = ("trace.ops_per_s", "trace.untraced_ops_per_s", "trace.overhead")
SPAN_CAP = 50_000  # spans kept in memory per phase


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{layer}.{suffix}" for layer, (_, suffixes) in LAYERS.items() for suffix in suffixes]
    return names + list(DERIVED) + list(OVERHEAD)


def metric_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


def _resolve(target: str):
    module_name, qualname = target.split(":")
    holder = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, attr


class Tracer:
    """Counts and self times per layer, with a bounded span log per phase."""

    def __init__(self):
        self.layers = list(LAYERS)
        n = len(self.layers)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.nonnull = [0] * n  # calls that returned something other than None
        self.active = [0] * n  # open spans per layer
        self.din_node_calls = 0
        self.enabled = False
        self.phase = None  # name of the phase whose spans are logged, or None
        self.spans: dict[str, list[tuple]] = {}
        self.dropped: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding in loaded ``alacarte`` modules."""
        if self._patches:
            return
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("alacarte") and m]
        for idx, layer in enumerate(self.layers):
            for target in LAYERS[layer][0]:
                holder, attr = _resolve(target)
                original = vars(holder)[attr]
                wrapper = self._wrap(idx, original)
                if isinstance(holder, type):
                    self._patch(holder, attr, original, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)

    def _patch(self, holder, attr, original, wrapper):
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def uninstall(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def _wrap(self, idx: int, fn):
        tracer = self
        stack = self._stack
        node_idx = self.layers.index("kernel.node")
        din_idx = self.layers.index("indexed.din")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if idx == node_idx and tracer.active[din_idx]:
                tracer.din_node_calls += 1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0]  # id, time spent in directly enclosed spans
            stack.append(frame)
            tracer.active[idx] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.active[idx] -= 1
                duration = end - start
                tracer.calls[idx] += 1
                tracer.self_ns[idx] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if tracer.phase is not None:
                    tracer._log(span_id, parent[0] if parent else 0, idx, start, end)
            if result is not None:
                tracer.nonnull[idx] += 1
            return result

        return wrapper

    def _log(self, span_id, parent_id, idx, start, end):
        spans = self.spans.setdefault(self.phase, [])
        if len(spans) < SPAN_CAP:
            spans.append((span_id, parent_id, idx, start, end))
        else:
            self.dropped[self.phase] = self.dropped.get(self.phase, 0) + 1

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "calls": list(self.calls),
            "self_ns": list(self.self_ns),
            "nonnull": list(self.nonnull),
            "din_node_calls": self.din_node_calls,
        }

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        out = {}
        for key, value in after.items():
            if isinstance(value, list):
                out[key] = [a - b for a, b in zip(value, before[key])]
            else:
                out[key] = value - before[key]
        return out

    def metrics(self, setup: dict, passes: list[dict]) -> dict:
        """Per-layer metrics for one set-up plus one pass of the traced ops.

        Counts are the set-up's plus one pass's (every pass repeats the same
        calls); self times add the set-up's to the median pass's.
        """
        median = lambda xs: sorted(xs)[len(xs) // 2]
        out = {}
        for idx, layer in enumerate(self.layers):
            calls = setup["calls"][idx] + passes[0]["calls"][idx]
            self_ns = setup["self_ns"][idx] + median([p["self_ns"][idx] for p in passes])
            for suffix in LAYERS[layer][1]:
                out[f"{layer}.{suffix}"] = calls if suffix == "calls" else self_ns / 1e9
        out["indexed.din.node_calls"] = setup["din_node_calls"] + passes[0]["din_node_calls"]
        step = self.layers.index("lang_l.step")
        step_calls = setup["calls"][step] + passes[0]["calls"][step]
        moved = setup["nonnull"][step] + passes[0]["nonnull"][step]
        out["lang_l.step.moved_ratio"] = moved / step_calls if step_calls else 0.0
        return out

    def write_spans(self, path):
        """Write the logged spans as JSON lines: phase, id, parent, layer, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for phase, spans in self.spans.items():
                for span_id, parent_id, idx, start, end in spans:
                    fh.write(json.dumps([phase, span_id, parent_id, self.layers[idx], start, end]) + "\n")
            fh.write(json.dumps({"dropped": self.dropped, "cap_per_phase": SPAN_CAP}) + "\n")
