"""Span tracing of the cdl layers from outside the package.

Each traced function is replaced, at the module attribute its caller looks
up, by a wrapper that records a span (name, start, end, parent) in memory.
Optional hooks add computed counts (rows solved, dense-equivalent GFLOP,
items scored) derived from the call's arguments, so counts repeat exactly
between runs of the same code.  ``restore`` puts the original functions
back; a tracer is also a context manager that does both.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from cdl import cli, data, factors, metrics, sampling, sdae, training


def _gradient_flop(args, kwargs):
    """Dense-equivalent FLOP of one ``sdae.gradients`` call: forward GEMM,
    weight-gradient GEMM, and (above layer 1) the back-propagated GEMM."""
    net, x0 = args[0], args[1]
    rows = x0.num_items if hasattr(x0, "num_items") else x0.shape[0]
    widths = net.widths
    flop = 0
    for l in range(1, len(widths)):
        per_row = 2 * widths[l - 1] * widths[l]
        flop += per_row * (3 if l > 1 else 2)
    return {"sdae.gradients.flop": rows * flop}


def _corrupt_counts(args, kwargs):
    return {"data.corrupt.nnz": args[0].nnz}


def _sweep_users_counts(args, kwargs):
    return {"factors.rows_solved": args[1].num_users}


def _sweep_items_counts(args, kwargs):
    return {"factors.rows_solved": args[1].num_items}


def _rank_counts(args, kwargs):
    users, items = args[0].shape[0], args[1].shape[0]
    return {"metrics.rank.users": users, "metrics.rank.items_scored": users * items}


# (module, attribute, span name, count hook); a function imported by name
# into another module is listed once for each module its callers use
SPANNED = [
    (data, "load_ratings", "data.load_ratings", None),
    (data, "save_ratings", "data.save_ratings", None),
    (data, "split", "data.split", None),
    (data, "generate_synthetic", "data.generate_synthetic", None),
    (training, "corrupt", "data.corrupt", _corrupt_counts),
    (sampling, "corrupt", "data.corrupt", _corrupt_counts),
    (sdae, "gradients", "sdae.gradients", _gradient_flop),
    (sdae, "encode", "sdae.encode", None),
    (sdae, "forward", "sdae.forward", None),
    (sdae, "coupling_residuals", "sdae.coupling_residuals", None),
    (sdae, "dropout_mask", "sdae.dropout_mask", None),
    (sdae, "init_network", "sdae.init_network", None),
    (factors, "sweep_users", "factors.sweep_users", _sweep_users_counts),
    (factors, "sweep_items", "factors.sweep_items", _sweep_items_counts),
    (factors, "rating_objective", "factors.rating_objective", None),
    (sampling, "rating_objective", "factors.rating_objective", None),
    (factors, "save_factors", "factors.save_factors", None),
    (factors, "load_factors", "factors.load_factors", None),
    (factors, "export_factors_text", "factors.export_factors_text", None),
    (training, "fit", "training.fit", None),
    (training, "fit_two_step", "training.fit_two_step", None),
    (training, "fit_mf_baseline", "training.fit_mf_baseline", None),
    (training, "objective", "training.objective", None),
    (training, "load_config", "training.load_config", None),
    (metrics, "evaluate_run", "metrics.evaluate_run", None),
    (metrics, "rank", "metrics.rank", _rank_counts),
    (metrics, "recall_curve", "metrics.recall_curve", None),
    (metrics, "map_at_500", "metrics.map_at_500", None),
    (sampling, "run_chain", "sampling.run_chain", None),
    (sampling, "mwg_step", "sampling.mwg_step", None),
    (sampling, "sample_u", "sampling.sample_u", None),
    (sampling, "sample_v", "sampling.sample_v", None),
    (sampling, "log_joint", "sampling.log_joint", None),
    (cli, "main", "cli.main", None),
    (cli, "write_manifest", "cli.write_manifest", None),
]

# called tens of thousands of times per chain: counted, not spanned
COUNTED = [
    (sampling, "logpost_w_col", "sampling.logpost.calls"),
    (sampling, "logpost_x_row", "sampling.logpost.calls"),
    (sampling, "grad_logpost_w_col", "sampling.grad.calls"),
    (sampling, "grad_logpost_x_row", "sampling.grad.calls"),
]


class Tracer:
    """In-memory span recorder; ``install`` patches, ``restore`` unpatches."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.returns = defaultdict(list)   # span name -> return values
        self._stack = []
        self._patched = []

    def span(self, name, fn, hook=None, keep_return=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if hook is not None:
                counts.update(hook(args, kwargs))
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep_return:
                self.returns[name].append(result)
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for module, attr, name, hook in SPANNED:
            orig = getattr(module, attr)
            keep = name.startswith(("training.fit", "sampling.run_chain"))
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.span(name, orig, hook, keep))
        for module, attr, name in COUNTED:
            orig = getattr(module, attr)
            self._patched.append((module, attr, orig))
            setattr(module, attr, self._counted(name, orig))

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def self_times(self):
        """Per-span self time: duration minus the durations of its children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root):
        """Indices of the span ``root`` and its descendants; spans are stored
        in start order, so the subtree is the run of spans after ``root``
        that starts before it ends."""
        spans = self.spans
        inside = [root]
        for idx in range(root + 1, len(spans)):
            if spans[idx][1] >= spans[root][2]:
                break
            inside.append(idx)
        return inside

    def subtree_layer_self(self, root):
        """Layer -> self seconds over the span ``root`` and its descendants."""
        own = self.self_times()
        out = Counter()
        for idx in self.subtree(root):
            out[self.spans[idx][0].split(".")[0]] += own[idx]
        return out

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def total(self, name):
        return sum(self.durations(name))

    def roots(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
