"""Span tracing of the library from outside it.

`Tracer.install` replaces every public function of the traced modules with
a wrapper that, while the tracer is active, records a span (name, start,
end, parent span, step id) and runs a probe that counts the work done from
the shapes of the arguments and results. No tracing code lives in `src/`.

`tensor`'s helpers are not wrapped: ReLU and mask arithmetic stay in the
self time of `nn.model_forward` / `nn.model_backward`, which is the glue
code those two spans measure.

Probe time is taken off the tracer's clock, so it inflates no span.
"""

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import astuple, dataclass

import numpy as np

from nirmalpool import data, harness, nn, optim, pooling

TRACED_MODULES = (harness, data, nn, optim, pooling)

# Every per-layer metric with its unit, per step unless the unit says
# otherwise. The pooling stage facts are read from the last traced step.
PER_LAYER = [
    ("nn.conv2d_backward.ms", "ms"),
    ("nn.conv2d_backward.calls", "count"),
    ("nn.conv2d_backward.gflop", "GFLOP"),
    ("nn.conv2d_backward.gflop_per_s", "GFLOP/s"),
    ("nn.conv2d_backward.useful_frac", "fraction"),
    ("nn.conv2d_forward.ms", "ms"),
    ("nn.conv2d_forward.gflop", "GFLOP"),
    ("nn.conv2d_forward.gflop_per_s", "GFLOP/s"),
    ("pooling.nirmal_forward.ms", "ms"),
    ("pooling.nirmal_forward.windows", "count"),
    ("pooling.nirmal_forward.mb_moved", "MB"),
    ("pooling.max_pool2x2_forward.ms", "ms"),
    ("pooling.max_pool2x2_forward.windows", "count"),
    ("pooling.max_pool2x2_forward.mb_moved", "MB"),
    ("pooling.nirmal_backward.ms", "ms"),
    ("pooling.nirmal_backward.colliding_frac", "fraction"),
    *((f"pool{stage}.{fact}", "px") for stage in (1, 2)
      for fact in ("window", "stride", "target", "achieved")),
    ("pooling.relu_zeroed_frac", "fraction"),
    ("nn.dense_forward.ms", "ms"),
    ("nn.dense_backward.ms", "ms"),
    ("nn.softmax_cross_entropy.ms", "ms"),
    ("nn.model_forward.self_ms", "ms"),
    ("nn.model_backward.self_ms", "ms"),
    ("optim.adam_step.ms", "ms"),
    ("optim.adam_step.mb_moved", "MB"),
    ("data.batches.wait_ms", "ms"),
    ("data.load_mnist.ms", "ms/setup"),
    ("data.load_mnist.mb_per_s", "MB/s"),
    ("data.load_cifar10.ms", "ms/setup"),
    ("data.load_cifar10.mb_per_s", "MB/s"),
    ("trace.overhead_frac", "fraction"),
    ("process.minor_faults", "count"),
    ("process.sys_frac", "fraction"),
]

SETUP = -1  # step id of spans recorded while setting up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    step: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.step = SETUP
        self.counts: dict[str, float] = defaultdict(float)
        self.pool_stages: dict[int, dict[str, int]] = {}
        self.model_input = None
        self._stack: list[int] = []
        self._excluded = 0.0
        self._originals = []
        self._pool_step = None
        self._pool_stage = 0

    def now(self) -> float:
        """perf_counter seconds with the time spent in probes removed."""
        return time.perf_counter() - self._excluded

    def install(self) -> None:
        for module in TRACED_MODULES:
            prefix = module.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._originals.append((module, name, fn))
                setattr(module, name, self._wrap(f"{prefix}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in self._originals:
            setattr(module, name, fn)
        self._originals.clear()
        self.active = False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.now(), 0.0, parent, self.step)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.now()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A span per item fetched: the time the caller waits for a batch.
            @functools.wraps(fn)
            def traced_items(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = self._open(name) if self.active else None
                    try:
                        item = next(items, StopIteration)
                    finally:
                        if span is not None:
                            self._close(span)
                    if item is StopIteration:
                        return
                    yield item
            return traced_items

        probe = PROBES.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                started = time.perf_counter()
                probe(self, span, signature.bind(*args, **kwargs).arguments, result)
                self._excluded += time.perf_counter() - started
            return result
        return traced

    def _steps(self) -> int:
        return max(1, len({s.step for s in self.spans if s.step != SETUP}))

    def per_step(self) -> dict[str, dict[str, float]]:
        """{name: {calls, ms, self_ms}} per traced step (set-up excluded)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, children in zip(self.spans, child_time):
            if span.step == SETUP:
                continue
            row = totals[span.name]
            row["calls"] += 1
            row["ms"] += 1e3 * (span.end - span.start)
            row["self_ms"] += 1e3 * (span.end - span.start - children)
        n = self._steps()
        return {name: {k: v / n for k, v in row.items()} for name, row in totals.items()}

    def layer_metrics(self, measured: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric: from the spans and probes, and from
        `measured` for those the caller takes around whole steps."""
        rows = self.per_step()
        count = defaultdict(float, {k: v / self._steps() for k, v in self.counts.items()})

        def row(name, key="ms"):
            return rows.get(name, {}).get(key, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        m = dict(measured)
        for name in ("nn.conv2d_forward", "nn.conv2d_backward", "pooling.nirmal_forward",
                     "pooling.max_pool2x2_forward", "pooling.nirmal_backward", "nn.dense_forward",
                     "nn.dense_backward", "nn.softmax_cross_entropy", "optim.adam_step"):
            m[f"{name}.ms"] = row(name)
        for conv in ("nn.conv2d_forward", "nn.conv2d_backward"):
            m[f"{conv}.gflop"] = count[f"{conv}.flop"] / 1e9
            m[f"{conv}.gflop_per_s"] = ratio(m[f"{conv}.gflop"], row(conv) / 1e3)
        for pool in ("pooling.nirmal_forward", "pooling.max_pool2x2_forward"):
            m[f"{pool}.windows"] = count[f"{pool}.windows"]
            m[f"{pool}.mb_moved"] = count[f"{pool}.mb_moved"]
        for stage, facts in self.pool_stages.items():
            for fact, value in facts.items():
                m[f"pool{stage}.{fact}"] = float(value)
        for load in ("data.load_mnist", "data.load_cifar10"):
            load_ms = sum((1e3 * (s.end - s.start) for s in self.spans
                           if s.step == SETUP and s.name == load), 0.0)
            m[f"{load}.ms"] = load_ms
            m[f"{load}.mb_per_s"] = ratio(self.counts.get(f"{load}.bytes", 0.0) / 1e6, load_ms / 1e3)
        m.update({
            "nn.conv2d_backward.calls": row("nn.conv2d_backward", "calls"),
            "nn.conv2d_backward.useful_frac": ratio(count["nn.conv2d_backward.useful_flop"],
                                                    count["nn.conv2d_backward.flop"]),
            "pooling.nirmal_backward.colliding_frac": ratio(
                count["pooling.nirmal_backward.colliding"], count["pooling.nirmal_backward.routed"]),
            "pooling.relu_zeroed_frac": ratio(count["pooling.relu_zeroed"],
                                              count["pooling.relu_outputs"]),
            "nn.model_forward.self_ms": row("nn.model_forward", "self_ms"),
            "nn.model_backward.self_ms": row("nn.model_backward", "self_ms"),
            "optim.adam_step.mb_moved": count["optim.adam_step.mb_moved"],
            "data.batches.wait_ms": row("data.batches"),
        })
        return {name: m.get(name, 0.0) for name, _ in PER_LAYER}

    def self_time_table(self, step_ms: float) -> str:
        """Spans per traced step, largest self time first."""
        rows = sorted(self.per_step().items(), key=lambda kv: -kv[1]["self_ms"])
        lines = [f"{'span':<34} {'calls':>6} {'incl ms':>9} {'self ms':>9} {'self %':>7}"]
        for name, row in rows:
            lines.append(f"{name:<34} {row['calls']:>6.1f} {row['ms']:>9.2f} "
                         f"{row['self_ms']:>9.2f} {100 * row['self_ms'] / step_ms:>6.1f}%")
        return "\n".join(lines)

    def write(self, path) -> None:
        fields = list(Span.__dataclass_fields__)
        with open(path, "w") as f:
            json.dump({"fields": fields, "spans": [astuple(s) for s in self.spans]}, f)


# Probes: count the work of one call from its bound arguments and result.

def _model_forward(tracer, span, args, result):
    # conv1's input is the batch itself; the gradient w.r.t. it is unused.
    tracer.model_input = args["batch"]


def _conv_forward(tracer, span, args, out):
    kh, kw, c_in, _ = args["kernels"].shape
    tracer.counts["nn.conv2d_forward.flop"] += 2 * out.size * kh * kw * c_in


def _conv_backward(tracer, span, args, result):
    # FLOPs of a direct method counted from the shapes, per gradient:
    # grad_kernels always, grad_x when it is computed. The zero-padding
    # multiplications an implementation may add are not counted.
    kh, kw, c_in, _ = args["kernels"].shape
    per_gradient = 2 * args["grad_out"].size * kh * kw * c_in
    grad_x_computed = result[0] is not None
    grad_x_used = grad_x_computed and args["x"] is not tracer.model_input
    tracer.counts["nn.conv2d_backward.flop"] += per_gradient * (1 + grad_x_computed)
    tracer.counts["nn.conv2d_backward.useful_flop"] += per_gradient * (1 + grad_x_used)


def _pool_forward(tracer, span, args, result):
    x = args["x"]
    out, cache = result
    cached = [a for a in (cache.argmax, cache.relu_mask) if a is not None]
    tracer.counts[f"{span.name}.windows"] += out.size
    tracer.counts[f"{span.name}.mb_moved"] += (x.nbytes + out.nbytes
                                               + sum(a.nbytes for a in cached)) / 1e6
    if cache.relu_mask is not None:
        pre_relu = x.reshape(-1)[cache.argmax]
        tracer.counts["pooling.relu_zeroed"] += int((pre_relu < 0.0).sum())
        tracer.counts["pooling.relu_outputs"] += out.size
    if tracer._pool_step != span.step:
        tracer._pool_step, tracer._pool_stage = span.step, 0
    tracer._pool_stage += 1
    p = cache.params
    # Every workload pools square maps with square windows; heights stand for both.
    # The fixed 2x2 pool has no target; it aims at halving, as the default targets do.
    tracer.pool_stages[tracer._pool_stage] = {
        "window": p.window_h, "stride": p.stride_h,
        "target": args.get("h_out_target", x.shape[1] // 2), "achieved": p.out_h}


def _pool_backward(tracer, span, args, grad_in):
    routed = args["cache"].argmax.ravel()
    hits = np.bincount(routed, minlength=grad_in.size)
    tracer.counts["pooling.nirmal_backward.routed"] += routed.size
    tracer.counts["pooling.nirmal_backward.colliding"] += int(hits[hits > 1].sum())


def _adam_step(tracer, span, args, result):
    # Reads param, grad, m and v; writes m, v and the new param.
    tracer.counts["optim.adam_step.mb_moved"] += 7 * sum(
        p.nbytes for p in args["params"].values()) / 1e6


def _load(tracer, span, args, result):
    paths = list(args["paths"]) if "paths" in args else [args["images_path"], args["labels_path"]]
    tracer.counts[f"{span.name}.bytes"] += sum(os.path.getsize(p) for p in paths)


PROBES = {
    "nn.model_forward": _model_forward,
    "nn.conv2d_forward": _conv_forward,
    "nn.conv2d_backward": _conv_backward,
    "pooling.nirmal_forward": _pool_forward,
    "pooling.max_pool2x2_forward": _pool_forward,
    "pooling.nirmal_backward": _pool_backward,
    "optim.adam_step": _adam_step,
    "data.load_mnist": _load,
    "data.load_cifar10": _load,
}
