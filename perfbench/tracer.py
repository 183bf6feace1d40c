"""Spans around calls into the program's layers, installed from outside.

A target names a function by its defining module and attribute. The
tracer wraps it and rebinds every module-level name in the package that
refers to the original object, including entries of module-level dicts
(``intelm.elm.GENERATORS``), so calls made through ``from x import f``
bindings are traced too. ``install`` and ``uninstall`` only swap the
bindings, so tracing can be switched per operation.

Each span is ``[op, name, start, end, parent, count]``: the operation it
belongs to, the target name, ``perf_counter`` times, the index of the
enclosing span (-1 at the top) and an optional work count computed from
the call's arguments. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter


def _rows(W, X, *args, **kwargs):
    return len(X)


def _gram_flops(block, acc, targets, *args, **kwargs):
    rows, size = block.shape
    return 2 * rows * size * size + 2 * rows * size * targets.shape[1]


# (span name, defining module, attribute, work counter or None)
TARGETS = [
    ("data.load_idx", "intelm.data", "load_idx", None),
    ("data.preprocess", "intelm.data", "preprocess", None),
    ("seeding.make_rng", "intelm.seeding", "make_rng", None),
    ("elm.gen_weights", "intelm.elm", "gen_weights_ternary", None),
    ("elm.train", "intelm.elm", "train", None),
    ("elm.hidden_features", "intelm.elm", "hidden_features", _rows),
    ("elm.training_residual", "intelm.elm", "training_residual", None),
    ("linalg.accumulate_gram", "intelm.linalg", "accumulate_gram", _gram_flops),
    ("linalg.solve_spd", "intelm.linalg", "solve_spd", None),
    ("experiments.make_quantized", "intelm.experiments", "make_quantized", None),
    ("quantize.quantize_beta", "intelm.quantize", "quantize_beta", None),
    ("modelio.save_model", "intelm.modelio", "save_model", None),
    ("modelio.load_model", "intelm.modelio", "load_model", None),
    ("intinfer.classify_int", "intelm.intinfer", "classify_int", None),
    ("intinfer.classify_int_batch", "intelm.intinfer", "classify_int_batch", None),
    ("intinfer.int_scores", "intelm.intinfer", "int_scores", None),
    ("intinfer.ternary_project", "intelm.intinfer", "ternary_project", None),
    ("intinfer.relu_int", "intelm.intinfer", "relu_int", None),
    ("cli.train", "intelm.cli", "cmd_train", None),
    ("cli.classify", "intelm.cli", "cmd_classify", None),
]


class Tracer:
    def __init__(self, package: str = "intelm", targets=TARGETS):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        # (namespace dict, key, original, wrapper) for every binding to rebind
        self._sites = []
        for span_name, module, attr, count in targets:
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(span_name, orig, count)
            for mod in modules:
                for space in [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]:
                    for key, value in list(space.items()):
                        if value is orig:
                            self._sites.append((space, key, orig, wrapper))

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, name, 0.0, 0.0, stack[-1] if stack else -1,
                          count(*args, **kwargs) if count else 0])
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][2:4] = (start, end)

        return wrapper

    def install(self) -> None:
        for space, key, _, wrapper in self._sites:
            space[key] = wrapper

    def uninstall(self) -> None:
        for space, key, orig, _ in self._sites:
            space[key] = orig

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op -> span name -> {"total", "self", "calls", "count"} summed over the op."""
        child_time = [0.0] * len(self.spans)
        for op, name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: dict(total=0.0, self=0.0, calls=0, count=0)))
        for i, (op, name, start, end, parent, count) in enumerate(self.spans):
            agg = out[op][name]
            agg["total"] += end - start
            agg["self"] += end - start - child_time[i]
            agg["calls"] += 1
            agg["count"] += count
        return out

    def write(self, path) -> None:
        fields = ("op", "name", "start", "end", "parent", "count")
        with open(path, "w") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)
