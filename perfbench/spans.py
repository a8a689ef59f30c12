"""Span recorder for the traced run.

The recorder wraps epicheck's public functions and methods from the
outside: it replaces them, for the life of the traced phase, with wrappers
that record a span (name, start, end, parent) and a few counts.  Spans are
kept in memory and written out when the run ends.  A span's self time is
its duration minus the durations of its child spans; spans nest strictly
because the workload runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

# (module, attribute, span name) of each module-level function recorded
FUNCTIONS = (
    ("seeding", "rng_from_tokens", "seeding.rng_from_tokens"),
    ("matrices", "random_spd", "matrices.random_spd"),
    ("matrices", "bergstrom_gap_all", "matrices.bergstrom_gap_all"),
    ("matrices", "kyfan_gap_all", "matrices.kyfan_gap_all"),
    ("matrices", "bonnesen_linear_gap", "matrices.bonnesen_linear_gap"),
    ("estimators", "entropy", "estimators.entropy"),
    ("estimators", "conditional_entropy", "estimators.conditional_entropy"),
    ("estimators", "fisher", "estimators.fisher"),
    ("estimators", "projective_fisher", "estimators.projective_fisher"),
    ("estimators", "conditional_fisher_last", "estimators.conditional_fisher_last"),
    ("checks", "classify", "checks.classify"),
    ("runner", "generate_instance", "runner.generate_instance"),
    ("runner", "run_suite", "runner.run_suite"),
    ("runner", "write_report", "runner.write_report"),
    ("runner", "report_to_csv", "runner.report_to_csv"),
    ("cli", "main", "cli.main"),
)

# (module, class, method, span name) of each method recorded
METHODS = (
    ("matrices", "SpdMatrix", "__init__", "matrices.SpdMatrix"),
    ("mixtures", "GaussianMixture", "sample", "mixtures.sample"),
    ("mixtures", "GaussianMixture", "log_density", "mixtures.log_density"),
    ("mixtures", "GaussianMixture", "score", "mixtures.score"),
    ("mixtures", "GaussianComponent", "log_density", "mixtures.component_log_density"),
    ("mixtures", "GaussianMixture", "conditional_slice", "mixtures.conditional_slice"),
    ("mixtures", "GaussianMixture", "convolve", "mixtures.convolve"),
    ("mixtures", "GaussianMixture", "marginal", "mixtures.marginal"),
    ("mixtures", "GaussianMixture", "scale", "mixtures.scale"),
    ("mixtures", "GaussianMixture", "linear_map", "mixtures.linear_map"),
)

ROW_SPANS = ("mixtures.sample", "mixtures.log_density", "mixtures.score")
ESTIMATORS = tuple(name for _, _, name in FUNCTIONS if name.startswith("estimators."))
MODULES = ("seeding", "matrices", "mixtures", "estimators", "checks", "runner", "cli")


# the check functions behind the suite registry
CHECKS = (
    "check_blachman_stam", "check_conditional_epi", "check_conditional_form",
    "check_de_bruijn", "check_entropic_bergstrom", "check_entropic_bonnesen",
    "check_entropic_kyfan", "check_epi", "check_equality_case_bonnesen",
    "check_isoperimetric_dominance", "check_isoperimetric_sharp", "check_lambda_form",
    "check_matrix_bergstrom", "check_matrix_kyfan", "check_projective_fisher",
    "check_sphere_identity", "check_stam_recovery", "check_tm_limit",
)


def _layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []

    def timed(span, calls=True, rows=False):
        if calls:
            specs.append((f"{span}.calls", "count", "lower"))
        if rows:
            specs.append((f"{span}.rows", "rows", "lower"))
        specs.append((f"{span}.self_s", "s", "lower"))

    timed("seeding.rng_from_tokens")
    specs.append(("seeding.unused_generators", "count", "lower"))
    timed("matrices.SpdMatrix")
    timed("matrices.random_spd")
    for name in ("bergstrom_gap_all", "kyfan_gap_all", "bonnesen_linear_gap"):
        timed(f"matrices.{name}", calls=False)
    for name in ("sample", "log_density", "score"):
        timed(f"mixtures.{name}", rows=True)
    for name in ("component_log_density", "conditional_slice", "convolve", "marginal",
                 "scale", "linear_map"):
        timed(f"mixtures.{name}")
    specs.append(("mixtures.density_rows_per_sample_row", "rows/row", "lower"))
    for name in ("entropy", "conditional_entropy", "fisher", "projective_fisher",
                 "conditional_fisher_last"):
        timed(f"estimators.{name}")
    specs.append(("estimators.mc_route_calls", "count", "lower"))
    specs.append(("estimators.closed_form_calls", "count", "higher"))
    specs.append(("estimators.repeat_calls", "count", "lower"))
    for name in CHECKS + ("classify",):
        timed(f"checks.{name}")
    timed("runner.generate_instance")
    for name in ("runner.run_suite", "runner.write_report", "runner.report_to_csv", "cli.main"):
        timed(name, calls=False)
    specs.append(("trace.overhead_ops_per_s", "ops/s", "higher"))
    return specs


LAYER_METRICS = tuple(_layer_metric_specs())


def _rows(name: str, result) -> int:
    """Points passed in or drawn: log_density returns one value per point,
    score one row per point (a single point gives a 1-D result)."""
    if name == "mixtures.log_density":
        return int(np.size(result))
    return int(result.shape[0]) if np.ndim(result) == 2 else 1


def _generator_state(rng) -> tuple:
    state = rng.bit_generator.state
    inner = state.get("state", {})
    parts = [state.get("bit_generator"), state.get("buffer_pos"), state.get("has_uint32"),
             state.get("uinteger")]
    for key in sorted(inner):
        value = inner[key]
        parts.append(tuple(np.asarray(value).ravel().tolist()))
    return tuple(parts)


def _law_key(gm) -> tuple:
    parts = [gm.weights.tobytes()]
    for c in gm.components:
        parts.append(c.mean.tobytes())
        parts.append(c.cov.entries.tobytes())
    return tuple(parts)


def _arg_key(value):
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, (list, tuple, range)):
        return tuple(_arg_key(v) for v in value)
    if isinstance(value, np.random.Generator):
        return ("rng", _generator_state(value))
    if hasattr(value, "components") and hasattr(value, "weights"):
        return ("law", _law_key(value))
    return repr(value)


class Recorder:
    """In-memory spans and counts; install() patches, uninstall() restores."""

    def __init__(self, epicheck) -> None:
        self.ec = epicheck
        self.spans: list[tuple[int, float, float, int]] = []  # (name id, start, end, parent)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list = []
        self._pending_generators: list = []
        self._seen_calls: set = set()

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str, kind: str = ""):
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        rows = name in ROW_SPANS
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "estimator":
                recorder._note_estimator_call(name, args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if rows:
                counts[name + ".rows"] += _rows(name, result)
            if kind == "generator":
                recorder._pending_generators.append((result, _generator_state(result)))
            elif kind == "estimator":
                counts["estimators.closed_form_calls" if result.method == "closed_form"
                       else "estimators.mc_route_calls"] += 1
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    def _note_estimator_call(self, name, args, kwargs) -> None:
        key = (name, _arg_key(args), _arg_key(sorted(kwargs.items())))
        if key in self._seen_calls:
            self.counts["estimators.repeat_calls"] += 1
        else:
            self._seen_calls.add(key)

    def new_scope(self) -> None:
        """Close the current unit of work: count the generators it never drew
        from, and forget the estimator calls it made."""
        for rng, initial in self._pending_generators:
            if _generator_state(rng) == initial:
                self.counts["seeding.unused_generators"] += 1
        self._pending_generators.clear()
        self._seen_calls.clear()

    # -- patching -------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every epicheck module attribute and registry closure that
        holds ``original`` at ``wrapper``."""
        for modname in (None,) + MODULES:
            mod = self.ec if modname is None else getattr(self.ec, modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((setattr, mod, attr, original))
        for entry in self.ec.runner.REGISTRY.values():
            run = getattr(entry.run, "__wrapped_by_perfbench__", entry.run)
            for cell in getattr(run, "__closure__", None) or ():
                if cell.cell_contents is original:
                    cell.cell_contents = wrapper
                    self._restore.append((_set_cell, cell, None, original))

    def install(self) -> None:
        ec = self.ec
        importlib.import_module(ec.__name__ + ".cli")
        for modname, attr, name in FUNCTIONS:
            original = getattr(getattr(ec, modname), attr)
            kind = "generator" if attr == "rng_from_tokens" else (
                "estimator" if name in ESTIMATORS else "")
            self._replace_everywhere(original, self._wrap(original, name, kind))
        for name in CHECKS:
            original = getattr(ec.checks, name)
            self._replace_everywhere(original, self._wrap(original, f"checks.{name}"))
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(getattr(ec, modname), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original, name))
            self._restore.append((setattr, cls, attr, original))

    def uninstall(self) -> None:
        for setter, obj, attr, original in reversed(self._restore):
            setter(obj, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and self time in seconds."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for idx in range(len(self.spans) - 1, -1, -1):
            nid, start, end, parent = self.spans[idx]
            duration = end - start
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += duration - child_time[idx]
            if parent >= 0:
                child_time[parent] += duration
        return calls, self_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "counts": dict(self.counts)}, handle)
            handle.write("\n")
            for nid, start, end, parent in self.spans:
                handle.write(f"{nid} {start!r} {end!r} {parent}\n")


def _set_cell(cell, _attr, value) -> None:
    cell.cell_contents = value


def layer_metrics(recorder: Recorder, rounds: int, overhead_ops_per_s: float) -> dict:
    """Every per-layer metric, as a value per round of the workload."""
    calls, self_s = recorder.totals()
    counts = recorder.counts
    values = {}
    for name, unit, _ in LAYER_METRICS:
        span, _, field = name.rpartition(".")
        if field == "calls":
            value = calls[span] / rounds
        elif field == "self_s":
            value = self_s[span] / rounds
        elif field == "rows":
            value = counts[name] / rounds
        elif name == "mixtures.density_rows_per_sample_row":
            sampled = counts["mixtures.sample.rows"]
            value = counts["mixtures.log_density.rows"] / sampled if sampled else 0.0
        elif name == "trace.overhead_ops_per_s":
            value = overhead_ops_per_s
        else:
            value = counts[name] / rounds
        values[name] = {"value": value, "unit": unit}
    return values
