"""Spans recorded from outside the package, and the per-layer metrics built on them.

The tracer replaces module attributes with wrappers for the length of a
traced run.  Package code looks its callees up through module globals, so a
wrapper installed on ``onebitmimo.simulate.mmse_estimate`` sees every call the
sweep makes.  Each span records name, start, end and parent; spans stay in
memory until the run ends.
"""

import functools
import inspect
import time
from contextlib import contextmanager

import numpy as np
from scipy.sparse.csgraph import connected_components


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, start, parent, info):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.info = info

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``with Tracer() as t`` restores every wrapped attribute on exit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def span(self, name, **info):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.clock(), parent, info)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.info["error"] = type(exc).__name__
            raise
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, module, attr, record=None):
        """Replace module.attr by a traced wrapper.

        The span is named after the defining module and function, for example
        ``orthant.orthant_probability``.  record(info, args, kwargs, result) may
        add fields to the span after a successful call.
        """
        original = getattr(module, attr)
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if record is not None:
                record(sp.info, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def to_json(self):
        """Spans as plain records; array-valued info is left out."""
        out = []
        for sp in self.spans:
            info = {k: v for k, v in sp.info.items() if not isinstance(v, np.ndarray)}
            out.append({"name": sp.name, "start": sp.start, "end": sp.end,
                        "parent": sp.parent, "info": info})
        return out


def self_times(spans):
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children[sp.parent].append(i)
    out = []
    for sp, kids in zip(spans, children):
        covered = 0.0
        edge = sp.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, edge), min(end, sp.end)
            if end > start:
                covered += end - start
                edge = end
        out.append(sp.duration - covered)
    return out


def largest_block(psi):
    """Size of the largest coupled block of a covariance, as the package splits it."""
    psi = np.asarray(psi, dtype=float)
    d = np.sqrt(psi.diagonal())
    corr = np.abs(psi / np.outer(d, d))
    pattern = corr > 1e-12 * corr.max()
    np.fill_diagonal(pattern, False)
    _, labels = connected_components(pattern, directed=False)
    return int(np.bincount(labels).max())


# ---------------------------------------------------------------------------
# the traced names and the metrics built from them


def _record_rows(info, args, kwargs, result):
    info["rows"] = int(np.shape(args[3] if len(args) > 3 else kwargs["r_real"])[0])


def _record_samples(info, args, kwargs, result):
    info["rows"] = int(args[3] if len(args) > 3 else kwargs["n_samples"])


def _orthant_recorder(default_rel_tol):
    def record(info, args, kwargs, result):
        info["psi"] = np.asarray(args[0] if args else kwargs["psi"])
        info["rel_tol"] = float(kwargs.get("rel_tol", default_rel_tol))
        info["value"] = float(result)
    return record


def install(tracer):
    """Wrap the sweep's callees, the estimate path and the orthant layer."""
    from onebitmimo import estimators, optimality, orthant, quantizer, simulate
    rel_tol = inspect.signature(orthant.orthant_probability).parameters["rel_tol"].default
    tracer.wrap(simulate, "sample_realizations", _record_samples)
    tracer.wrap(simulate, "simo3_closed_batch", _record_rows)
    tracer.wrap(simulate, "mmse_estimate")
    tracer.wrap(simulate, "blmmse_operator")
    tracer.wrap(simulate, "second_order_stats")
    tracer.wrap(estimators, "positive_orthant_mean")
    tracer.wrap(estimators, "mmse_estimate")
    tracer.wrap(estimators, "blmmse_estimate")
    tracer.wrap(estimators, "blmmse_operator")
    tracer.wrap(quantizer, "quantize")
    tracer.wrap(optimality, "is_blmmse_optimal")
    tracer.wrap(orthant, "orthant_probability", _orthant_recorder(rel_tol))


SWEEP_SPAN = "simulate.run_mse_sweep"
ESTIMATE_SPAN = "cli.estimate"
ORTHANT_DIMS = (4, 5, 6)


def _median_ms(spans):
    return 1e3 * float(np.median([s.duration for s in spans])) if spans else 0.0


def layer_metrics(spans, n_units, lookup=None, gross=None):
    """Per-layer metrics of a traced run of n_units units.

    Returns (metrics, checked, failures): every orthant problem of dimension 4
    or more is checked against lookup; failures lists results beyond ``gross``
    times their rel_tol from the reference, and problems it has no reference for.
    """
    selfs = self_times(spans)
    by = {}
    for sp in spans:
        by.setdefault(sp.name, []).append(sp)

    def total(name):
        return sum(s.duration for s in by.get(name, []))

    def rows(name):
        return sum(s.info.get("rows", 0) for s in by.get(name, []))

    sweeps = [i for i, sp in enumerate(spans) if sp.name == SWEEP_SPAN]
    trial_points = sum(spans[i].info["trial_points"] for i in sweeps)
    wall = sum(sp.duration for sp in spans if sp.name in (SWEEP_SPAN, ESTIMATE_SPAN))
    m = {}

    m["model.sample.us_per_trial"] = 1e6 * total("model.sample_realizations") / max(
        rows("model.sample_realizations"), 1)
    m["model.sample.share"] = total("model.sample_realizations") / wall
    m["simulate.self.us_per_trial"] = 1e6 * sum(selfs[i] for i in sweeps) / max(trial_points, 1)
    m["estimators.simo3_batch.us_per_trial"] = 1e6 * total("estimators.simo3_closed_batch") / max(
        rows("estimators.simo3_closed_batch"), 1)

    solves = by.get("estimators.mmse_estimate", []) if sweeps else []
    m["estimators.general.patterns"] = len(solves) / n_units
    m["estimators.general.cache_hit_ratio"] = (
        1.0 - len(solves) / trial_points if solves else 0.0)
    m["estimators.general.s_per_pattern"] = (
        sum(s.duration for s in solves) / len(solves) if solves else 0.0)

    calls = by.get("orthant.orthant_probability", [])
    buckets = {3: [], 4: [], 5: [], 6: []}
    worst = {d: 0.0 for d in ORTHANT_DIMS}
    failures = []
    checked = 0
    for sp in calls:
        if "error" in sp.info:
            continue
        dim = largest_block(sp.info["psi"])
        buckets.setdefault(max(dim, 3), []).append(sp)
        if dim < 4 or lookup is None:
            continue
        checked += 1
        ref = lookup.find(sp.info["psi"])
        if ref is None:
            failures.append(f"no reference for a dimension-{dim} orthant problem")
            continue
        err = abs(sp.info["value"] - ref) / (sp.info["rel_tol"] * ref)
        if dim in worst:
            worst[dim] = max(worst[dim], err)
        if gross is not None and err > gross:
            failures.append(f"dimension-{dim} orthant probability {sp.info['value']:.8g} "
                            f"vs reference {ref:.8g}: {err:.3g} x rel_tol")
    for d in (3, 4, 5, 6):
        m[f"orthant.prob.calls.d{d}"] = len(buckets[d]) / n_units
    for d in ORTHANT_DIMS:
        m[f"orthant.prob.ms.d{d}"] = _median_ms(buckets[d])
    ok_calls = sum(len(v) for v in buckets.values())
    m["orthant.closed_share"] = len(buckets[3]) / ok_calls if ok_calls else 0.0
    m["orthant.share"] = total("orthant.orthant_probability") / wall
    m["orthant.mean.ms"] = _median_ms(by.get("orthant.positive_orthant_mean", []))
    m["orthant.failures"] = float(sum("error" in sp.info for sp in calls))
    for d in ORTHANT_DIMS:
        m[f"orthant.err_over_tol.max.d{d}"] = worst[d]

    m["quantizer.quantize.us"] = 1e3 * _median_ms(by.get("quantizer.quantize", []))
    m["estimators.mmse_estimate.ms"] = _median_ms(
        [] if sweeps else by.get("estimators.mmse_estimate", []))
    m["estimators.blmmse_estimate.ms"] = _median_ms(by.get("estimators.blmmse_estimate", []))
    m["optimality.check.ms"] = _median_ms(by.get("optimality.is_blmmse_optimal", []))
    return m, checked, failures
