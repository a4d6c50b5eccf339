"""Outside-in layer tracing for the microfreq benchmark.

The tracer replaces public functions with timing wrappers in the module
namespace their caller looks them up from (``run_scenario`` finds
``estimator_step`` in ``microfreq.simulate``, ``control_step`` finds
``solve_qp_info`` in ``microfreq.mpc``, and so on). No file of the program
changes, and ``uninstall`` puts every original object back.

Each wrapped call is one span: span name, start, end, parent span and run id.
The run id numbers the benchmark's top-level calls into the program (one
``cli.main`` call, or one closed-loop run the benchmark starts itself), so
every span of one request shares it. Spans stay in memory until ``save``.
A span's self time is its duration minus the time its wrapped children took.
"""

import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import microfreq.cli
import microfreq.mpc
import microfreq.simulate

# (module, attribute, span name). The span name is <layer>.<function>, the
# layer being the module that defines the function.
WRAPPED = (
    (microfreq.simulate, "estimator_step", "estimator.estimator_step"),
    (microfreq.simulate, "require_detectable", "estimator.require_detectable"),
    (microfreq.simulate, "reserve_limits", "der_models.reserve_limits"),
    (microfreq.simulate, "wind_available_power", "der_models.available_power"),
    (microfreq.simulate, "pv_available_power", "der_models.available_power"),
    (microfreq.simulate, "control_step", "mpc.control_step"),
    (microfreq.simulate, "build_prediction_matrices", "mpc.build_prediction_matrices"),
    (microfreq.simulate, "pi_step", "baselines.pi_step"),
    (microfreq.simulate, "step_plant", "lfc_model.step_plant"),
    (microfreq.simulate, "build_plant", "lfc_model.build_plant"),
    (microfreq.simulate, "generate_profiles", "profiles.generate_profiles"),
    (microfreq.mpc, "build_constraints", "mpc.build_constraints"),
    (microfreq.mpc, "solve_qp_info", "numerics.solve_qp_info"),
    (microfreq.mpc, "kkt_residuals", "numerics.kkt_residuals"),
    (microfreq.cli, "run_scenario", "simulate.run_scenario"),
    (microfreq.cli, "compute_metrics", "simulate.compute_metrics"),
    (microfreq.cli, "write_trace_csv", "simulate.write_trace_csv"),
    (microfreq.cli, "read_profiles_csv", "profiles.read_profiles_csv"),
    (microfreq.cli, "load_run_config", "cli.load_run_config"),
)

# Per-span statistics reported as per-layer metrics. "cli.main" is the
# benchmark's own call into the CLI.
SPAN_STATS = {
    "numerics.solve_qp_info": ("calls", "self_s", "us_p50", "us_p99"),
    "numerics.kkt_residuals": ("self_s",),
    "mpc.control_step": ("calls", "self_s", "us_p50", "us_p99"),
    "mpc.build_constraints": ("calls", "self_s"),
    "mpc.build_prediction_matrices": ("calls", "self_s"),
    "estimator.estimator_step": ("calls", "self_s", "us_p50"),
    "estimator.require_detectable": ("calls", "self_s"),
    "der_models.reserve_limits": ("calls", "self_s"),
    "der_models.available_power": ("calls", "self_s"),
    "lfc_model.step_plant": ("calls", "self_s"),
    "lfc_model.build_plant": ("calls", "self_s"),
    "baselines.pi_step": ("calls", "self_s"),
    "profiles.generate_profiles": ("calls", "self_s"),
    "profiles.read_profiles_csv": ("calls", "self_s"),
    "simulate.run_scenario": ("calls", "self_s"),
    "simulate.compute_metrics": ("self_s",),
    "simulate.write_trace_csv": ("calls", "self_s"),
    "cli.load_run_config": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

STAT_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}

# A percentile is reported only with at least ten calls beyond it; below
# that it reads 0.
MIN_CALLS = {"us_p50": 20, "us_p99": 1000}

# Relative change under which an estimator step counts as leaving P as it was.
COVARIANCE_REPEAT_RTOL = 1e-12


class Tracer:
    """Spans and counters of one traced workload process."""

    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.child = array("q")
        self.parent = array("q")
        self.run = array("l")
        self._stack = []
        self._run_id = 0
        self._t0 = time.perf_counter_ns()
        self._saved = []
        self.failures = Counter()
        self.counts = Counter()
        self.kkt_residual_max = 0.0
        self._last_cu = None
        # (trace, metrics) of every compute_metrics call, for the output check.
        self.recorded = []

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self._run_id += 1
        self.name.append(nid)
        self.parent.append(parent)
        self.run.append(self._run_id)
        self.end.append(0)
        self.child.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        t = time.perf_counter_ns()
        self.end[idx] = t
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark makes itself."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        nid = self._id(name)
        observe = _OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.failures[name] += 1
                raise
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        names = np.array(self.name, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - start
        self_ns = dur - np.array(self.child, dtype=np.int64)
        out = {}
        for span, stats in SPAN_STATS.items():
            nid = self._name_ids.get(span)
            mask = names == (-1 if nid is None else nid)
            calls = int(mask.sum())
            for stat in stats:
                if stat == "calls":
                    value = calls
                elif stat == "self_s":
                    value = float(self_ns[mask].sum()) / 1e9
                elif calls >= MIN_CALLS[stat]:
                    q = 50 if stat == "us_p50" else 99
                    value = float(np.percentile(dur[mask], q)) / 1e3
                else:
                    value = 0.0
                out[f"{span}.{stat}"] = (value, STAT_UNITS[stat])

        c = self.counts
        solves = out["numerics.solve_qp_info.calls"][0]
        constraint_calls = out["mpc.build_constraints.calls"][0]
        steps = out["estimator.estimator_step.calls"][0]
        out["numerics.qp_iterations"] = (c["qp_iterations"], "count")
        out["numerics.qp_active_rows_mean"] = (_ratio(c["qp_active_rows"], solves), "rows")
        out["numerics.qp_zero_iteration_frac"] = (_ratio(c["qp_zero_iteration"], solves), "ratio")
        out["numerics.qp_infeasible"] = (self.failures["numerics.solve_qp_info"], "count")
        out["numerics.kkt_residual_max"] = (self.kkt_residual_max, "1")
        out["mpc.build_constraints.repeat_frac"] = (
            _ratio(c["constraint_repeats"], constraint_calls), "ratio")
        out["estimator.covariance_repeat_frac"] = (_ratio(c["covariance_repeats"], steps), "ratio")
        out["profiles.read_profiles_csv.bytes"] = (c["profile_bytes"], "bytes")
        out["simulate.write_trace_csv.bytes"] = (c["trace_bytes"], "bytes")
        return out

    def save(self, path):
        """Write every span (name, start, end, parent, run id) to an .npz file.
        Times are ns since the tracer was created."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.array(self.name, dtype=np.int32),
            start_ns=np.array(self.start, dtype=np.int64) - self._t0,
            end_ns=np.array(self.end, dtype=np.int64) - self._t0,
            parent=np.array(self.parent, dtype=np.int64),
            run=np.array(self.run, dtype=np.int32),
        )


def _ratio(num, den):
    return num / den if den else 0.0


def _observe_qp(tracer, args, result):
    iterations = result[2]["iterations"]
    tracer.counts["qp_iterations"] += iterations
    tracer.counts["qp_active_rows"] += len(result[2]["active"])
    tracer.counts["qp_zero_iteration"] += iterations == 0


def _observe_kkt(tracer, args, result):
    tracer.kkt_residual_max = max(tracer.kkt_residual_max, *result)


def _observe_constraints(tracer, args, result):
    cu = result[0]
    if tracer._last_cu is not None and np.array_equal(cu, tracer._last_cu):
        tracer.counts["constraint_repeats"] += 1
    tracer._last_cu = cu


def _observe_estimator(tracer, args, result):
    p_in = args[0].P
    if np.abs(result.P - p_in).max() <= COVARIANCE_REPEAT_RTOL * np.abs(p_in).max():
        tracer.counts["covariance_repeats"] += 1


def _observe_read_profiles(tracer, args, result):
    tracer.counts["profile_bytes"] += os.path.getsize(args[0])


def _observe_write_trace(tracer, args, result):
    tracer.counts["trace_bytes"] += os.path.getsize(args[1])


def _observe_metrics(tracer, args, result):
    tracer.recorded.append((args[0], result))


_OBSERVERS = {
    "numerics.solve_qp_info": _observe_qp,
    "numerics.kkt_residuals": _observe_kkt,
    "mpc.build_constraints": _observe_constraints,
    "estimator.estimator_step": _observe_estimator,
    "profiles.read_profiles_csv": _observe_read_profiles,
    "simulate.write_trace_csv": _observe_write_trace,
    "simulate.compute_metrics": _observe_metrics,
}
