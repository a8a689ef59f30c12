"""Suite orchestration over the named checks.

Provides the check registry, reproducible instance families, config
parsing with strict key and value validation, and JSON/CSV report writing.

Instance streams are keyed by (seed, "instance", family, dim, index), so
checks that share a family (for example the entropy-power and Fisher
checks both draw from ``mixture_pair``) see the same instances and their
gaps can be compared record by record.

Functions
---------
random_mixture, random_markov_triple, proportional_markov_triple,
shared_prefix_pair, random_unit_vector
    instance generators, all driven by an explicit Generator.
generate_instance
    family-name dispatch used by the runner.
REGISTRY
    check name -> RegistryEntry, each ``run`` built by the factory ``_runner``.
config_from_dict, default_config
    build a SuiteConfig, rejecting unknown keys and bad values.
run_suite
    execute every requested check and return (report dict, exit code).
report_to_csv, write_report
    render a report to disk.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .checks import (
    REPORT_KEYS,
    VERDICT_EQUALITY,
    VERDICT_HOLDS,
    VERDICT_INCONCLUSIVE,
    VERDICT_VIOLATED,
    CheckConfig,
    InequalityReport,
    check_blachman_stam,
    check_conditional_epi,
    check_conditional_form,
    check_de_bruijn,
    check_entropic_bergstrom,
    check_entropic_bonnesen,
    check_entropic_kyfan,
    check_epi,
    check_equality_case_bonnesen,
    check_isoperimetric_dominance,
    check_isoperimetric_sharp,
    check_lambda_form,
    check_matrix_bergstrom,
    check_matrix_kyfan,
    check_projective_fisher,
    check_sphere_identity,
    check_stam_recovery,
    check_tm_limit,
    _direction_count_ok,
    _heat_steps_ok,
    _numbers,
)
from .estimators import _draw_memo
from .exceptions import ConfigError
from .matrices import _is_finite, _is_int, random_spd
from .mixtures import GaussianMixture, MarkovTriple
from .seeding import rng_from_tokens

VERDICT_ORDER = (VERDICT_HOLDS, VERDICT_EQUALITY, VERDICT_VIOLATED, VERDICT_INCONCLUSIVE)
SUMMARY_KEYS = {
    VERDICT_HOLDS: "holds",
    VERDICT_EQUALITY: "equality",
    VERDICT_VIOLATED: "violated",
    VERDICT_INCONCLUSIVE: "inconclusive",
}
LAMBDA_GRID_DEFAULT = (0.0, 0.25, 0.5, 0.75, 1.0)
CSV_COLUMNS = REPORT_KEYS


# --------------------------------------------------------------------------
# instance generators


def random_mixture(
    dim: int, rng: np.random.Generator, max_components: int = 3
) -> GaussianMixture:
    """Random mixture with 1..max_components parts; a third of draws are
    single Gaussians, exercising the closed-form route."""
    k = int(rng.integers(1, max_components + 1))
    raw = rng.uniform(0.5, 1.5, size=k)
    weights = raw / raw.sum()
    components = []
    for c in range(k):
        mean = rng.normal(0.0, 1.0, size=dim)
        cov = random_spd(dim, rng, condition_cap=100.0)
        components.append((mean, cov))
    return GaussianMixture(weights, components)


def random_markov_triple(
    dim: int, rng: np.random.Generator, max_labels: int = 3
) -> MarkovTriple:
    """Latent label Z with per-label Gaussian conditionals for X and Y."""
    labels = int(rng.integers(2, max_labels + 1))
    raw = rng.uniform(0.5, 1.5, size=labels)
    x_given_z = []
    y_given_z = []
    for z in range(labels):
        x_given_z.append(
            GaussianMixture.gaussian(rng.normal(0.0, 1.0, size=dim), random_spd(dim, rng, 100.0))
        )
        y_given_z.append(
            GaussianMixture.gaussian(rng.normal(0.0, 1.0, size=dim), random_spd(dim, rng, 100.0))
        )
    return MarkovTriple(raw / raw.sum(), x_given_z, y_given_z)


def proportional_markov_triple(
    dim: int, rng: np.random.Generator, max_labels: int = 3
) -> MarkovTriple:
    """Equality family for the conditional entropy-power check: every label
    shares one covariance ratio c between the X and Y conditionals."""
    labels = int(rng.integers(2, max_labels + 1))
    raw = rng.uniform(0.5, 1.5, size=labels)
    ratio = float(rng.uniform(0.5, 2.0))
    x_given_z = []
    y_given_z = []
    for z in range(labels):
        cov = random_spd(dim, rng, 100.0)
        x_given_z.append(GaussianMixture.gaussian(rng.normal(0.0, 1.0, size=dim), cov))
        y_given_z.append(
            GaussianMixture.gaussian(rng.normal(0.0, 1.0, size=dim), ratio * cov.entries)
        )
    return MarkovTriple(raw / raw.sum(), x_given_z, y_given_z)


def shared_prefix_pair(
    dim: int, rng: np.random.Generator
) -> tuple[GaussianMixture, GaussianMixture]:
    """Centered Gaussian pair whose leading (n-1)-marginals are equal as
    laws: the second covariance reuses the prefix block, shrinks the cross
    column, and inflates the last diagonal entry, which keeps it positive
    definite."""
    base = random_spd(dim, rng, condition_cap=100.0)
    other = np.array(base.entries)
    other[-1, :-1] *= rng.uniform(0.0, 1.0)
    other[:-1, -1] = other[-1, :-1]
    other[-1, -1] += rng.uniform(0.5, 2.0)
    zero = np.zeros(dim)
    return (
        GaussianMixture.gaussian(zero, base),
        GaussianMixture.gaussian(zero, other),
    )


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _instance_rng(seed: int, family: str, dim: int, idx: int, role: str = ""):
    return rng_from_tokens(seed, "instance", family, dim, idx, role)


def generate_instance(family: str, dim: int, idx: int, seed: int):
    """Deterministic instance for (family, dim, idx) under the given seed."""
    if family == "mixture_pair":
        return (
            random_mixture(dim, _instance_rng(seed, family, dim, idx, "x")),
            random_mixture(dim, _instance_rng(seed, family, dim, idx, "y")),
        )
    if family == "mixture_single":
        return random_mixture(dim, _instance_rng(seed, family, dim, idx))
    if family == "markov_triple":
        return random_markov_triple(dim, _instance_rng(seed, family, dim, idx))
    if family == "prefix_pair":
        return shared_prefix_pair(dim, _instance_rng(seed, family, dim, idx))
    if family == "spd_pair":
        rng = _instance_rng(seed, family, dim, idx)
        return (random_spd(dim, rng), random_spd(dim, rng))
    if family == "vector":
        rng = _instance_rng(seed, family, dim, idx)
        v = rng.normal(0.0, 1.0, size=dim)
        return v if np.any(v) else v + 1.0
    if family == "equality_seed":
        return (dim, _instance_rng(seed, family, dim, idx, "pair"))
    raise ConfigError(f"unknown instance family {family!r}")


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class RegistryEntry:
    family: str
    min_dim: int
    defaults: dict  # the check's params, each with its default
    run: object  # (instance, params, cfg, instance_id) -> list[InequalityReport]


def _runner(check, translate=None):
    """Adapter from a registry entry to ``check``.

    A tuple instance is unpacked into the leading arguments, and ``lambdas``
    gives one call per lambda, placed after them, all in one
    ``estimators._draw_memo`` scope: the records share the draws of the
    groups they have in common (the X and Y terms).  The other params pass
    straight through as the check's keywords of the same name, unless
    ``translate(args, params, cfg, iid)`` is given: it then returns the
    leading arguments and keywords built from the instance and the params.
    """

    def run(inst, params, cfg, iid):
        args = list(inst) if isinstance(inst, tuple) else [inst]
        if translate is None:
            kwargs = {key: value for key, value in params.items() if key != "lambdas"}
        else:
            args, kwargs = translate(args, params, cfg, iid)
        if "lambdas" not in params:
            return [check(*args, cfg=cfg, instance_id=iid, **kwargs)]
        with _draw_memo():
            return [
                check(*args, lam, cfg=cfg, instance_id=iid, **kwargs) for lam in params["lambdas"]
            ]

    return run


def _trailing_subset(args, params, cfg, iid):
    n = args[0].dim
    size = min(2, n - 1) if params["subset_size"] is None else params["subset_size"]
    return args + [range(n - size, n)], {}


def _equality_rng(args, params, cfg, iid):
    dim, rng = args
    return [dim], {"rng": rng}


def _direction(args, params, cfg, iid):
    n = args[0].dim
    if params["direction"] == "random":
        u = random_unit_vector(n, rng_from_tokens(cfg.seed, "instance", "direction", n, iid))
    else:
        u = np.zeros(n)
        u[-1] = 1.0
    return args + [u], {}


def _deleted_index(args, params, cfg, iid):
    i = params["index"]
    return args + [args[0].dim - 1 if i is None else i], {}


def _block_size(args, params, cfg, iid):
    k = params["k"]
    return args + [min(2, args[0].dim - 1) if k is None else k], {}


REGISTRY: dict[str, RegistryEntry] = {
    "epi": RegistryEntry("mixture_pair", 1, {}, _runner(check_epi)),
    "conditional_epi": RegistryEntry("markov_triple", 1, {}, _runner(check_conditional_epi)),
    "entropic_bergstrom": RegistryEntry("mixture_pair", 2, {}, _runner(check_entropic_bergstrom)),
    "conditional_form": RegistryEntry(
        "mixture_pair", 2, {"lambdas": LAMBDA_GRID_DEFAULT}, _runner(check_conditional_form)
    ),
    "lambda_form": RegistryEntry(
        "mixture_pair", 2, {"lambdas": LAMBDA_GRID_DEFAULT}, _runner(check_lambda_form)
    ),
    "entropic_kyfan": RegistryEntry(
        "mixture_pair", 2, {"lambdas": (0.5,), "subset_size": None},
        _runner(check_entropic_kyfan, _trailing_subset),
    ),
    "entropic_bonnesen": RegistryEntry(
        "prefix_pair", 2, {"lambdas": LAMBDA_GRID_DEFAULT}, _runner(check_entropic_bonnesen)
    ),
    "equality_case_bonnesen": RegistryEntry(
        "equality_seed", 2, {}, _runner(check_equality_case_bonnesen, _equality_rng)
    ),
    "isoperimetric_sharp": RegistryEntry(
        "mixture_single", 2, {}, _runner(check_isoperimetric_sharp)
    ),
    "isoperimetric_dominance": RegistryEntry(
        "mixture_single", 2, {}, _runner(check_isoperimetric_dominance)
    ),
    "de_bruijn": RegistryEntry(
        "mixture_single", 1, {"t": 0.1, "dt": 1e-3}, _runner(check_de_bruijn)
    ),
    "blachman_stam": RegistryEntry("mixture_pair", 1, {}, _runner(check_blachman_stam)),
    "projective_fisher": RegistryEntry(
        "mixture_pair", 1, {"direction": "last_axis"},
        _runner(check_projective_fisher, _direction),
    ),
    "tm_limit": RegistryEntry("mixture_single", 2, {}, _runner(check_tm_limit)),
    "sphere_identity": RegistryEntry("vector", 1, {}, _runner(check_sphere_identity)),
    "stam_recovery": RegistryEntry(
        "mixture_pair", 1, {"m_dirs": 256}, _runner(check_stam_recovery)
    ),
    "matrix_bergstrom": RegistryEntry(
        "spd_pair", 2, {"index": None}, _runner(check_matrix_bergstrom, _deleted_index)
    ),
    "matrix_kyfan": RegistryEntry(
        "spd_pair", 2, {"k": None}, _runner(check_matrix_kyfan, _block_size)
    ),
}


# --------------------------------------------------------------------------
# configuration


@dataclass
class CheckRequest:
    name: str
    dims: tuple
    instances: int
    mc_samples: int | None = None
    params: dict = field(default_factory=dict)


@dataclass
class SuiteConfig:
    """A parsed suite: the verdict parameters, the check requests, the report destination."""

    check: CheckConfig = CheckConfig(m=20_000)
    checks: list = field(default_factory=list)
    output_path: str | None = None
    output_format: str = "json"


def _expect_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(data: dict, allowed, where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _as_int(value, key: str, minimum: int = 1) -> int:
    if not _is_int(value) or value < minimum:
        raise ConfigError(f"{key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def _as_dims(value, key: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key!r} must be a nonempty list of dimensions")
    return tuple(_as_int(v, key) for v in value)


def _as_path(value) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError("output 'path' must be a nonempty string")
    return value


def _within(low: int):
    return lambda v, params, dims: v is None or (_is_int(v) and all(low <= v < d for d in dims))


# param -> (what a valid value is, test of (value, the check's params, requested dims));
# a bad value is refused here, before any check runs, not raised by its check mid-run
PARAM_RULES = {
    "lambdas": ("a nonempty list of numbers in [0, 1]",
                lambda v, params, dims: _numbers(v, 1) and all(0 <= x <= 1 for x in v)),
    "t": ("a finite number", lambda v, params, dims: _is_finite(v)),
    "dt": ("a number with 0 < dt < t", lambda v, params, dims: _heat_steps_ok(params["t"], v)),
    "direction": ("'last_axis' or 'random'",
                  lambda v, params, dims: v in ("last_axis", "random")),
    "m_dirs": ("an integer >= 2", lambda v, params, dims: _direction_count_ok(v)),
    "index": ("null or an integer in [0, dim - 1] at every dim of {dims}", _within(0)),
    "k": ("null or an integer in [1, dim - 1] at every dim of {dims}", _within(1)),
    "subset_size": ("null or an integer in [1, dim - 1] at every dim of {dims}", _within(1)),
}


def config_from_dict(data: dict) -> SuiteConfig:
    """Build a suite configuration, rejecting unknown, ill-typed or
    out-of-range values with ``ConfigError``."""
    data = _expect_mapping(data, "config")
    _reject_unknown(
        data,
        ("seed", "dims", "instances_per_check", "mc_samples", "z", "tolerances",
         "output", "checks"),
        "config",
    )
    config = SuiteConfig()
    fields = {"seed": "seed", "mc_samples": "m", "z": "z"}
    verdict = {fields[key]: data[key] for key in fields if key in data}
    if "tolerances" in data:
        tol = _expect_mapping(data["tolerances"], "'tolerances'")
        _reject_unknown(tol, ("abs_tol", "eq_tol", "rel_stderr_cap"), "tolerances")
        verdict.update(tol)
    config.check = replace(config.check, **verdict)
    suite_dims = _as_dims(data.get("dims", (2, 3)), "dims")
    suite_instances = _as_int(data.get("instances_per_check", 1), "instances_per_check")
    if "output" in data:
        out = _expect_mapping(data["output"], "'output'")
        _reject_unknown(out, ("path", "format"), "output")
        if "path" in out:
            config.output_path = _as_path(out["path"])
        if "format" in out:
            if out["format"] not in ("json", "csv"):
                raise ConfigError(f"output 'format' must be 'json' or 'csv', got {out['format']!r}")
            config.output_format = out["format"]

    requested = data.get("checks", list(REGISTRY))
    if not isinstance(requested, list) or not requested:
        raise ConfigError("'checks' must be a nonempty list")
    for item in requested:
        if isinstance(item, str):
            item = {"name": item}
        item = _expect_mapping(item, "check entry")
        _reject_unknown(item, ("name", "dims", "instances", "mc_samples", "params"), "check")
        name = item.get("name")
        if name not in REGISTRY:
            known = ", ".join(sorted(REGISTRY))
            raise ConfigError(f"unknown check {name!r}; known checks: {known}")
        entry = REGISTRY[name]
        dims = _as_dims(item.get("dims", suite_dims), "dims")
        dims = tuple(d for d in dims if d >= entry.min_dim) or (entry.min_dim,)
        instances = _as_int(item.get("instances", suite_instances), "instances")
        mc = _as_int(item["mc_samples"], "mc_samples", minimum=2) if "mc_samples" in item else None
        params = dict(entry.defaults)
        if "params" in item:
            given = _expect_mapping(item["params"], f"params for {name!r}")
            _reject_unknown(given, entry.defaults, f"{name} params")
            params.update(given)
        for key, value in params.items():
            what, valid = PARAM_RULES[key]
            if not valid(value, params, dims):
                what = what.format(dims=list(dims))
                raise ConfigError(f"{name} param {key!r} must be {what}, got {value!r}")
        config.checks.append(CheckRequest(name, dims, instances, mc, params))
    return config


def default_config(seed: int = 0) -> SuiteConfig:
    """Every registered check, in registry order, on dims (2, 3), one
    instance per dim."""
    return config_from_dict({"seed": seed})


# --------------------------------------------------------------------------
# execution and reporting


def run_suite(config: SuiteConfig) -> tuple[dict, int]:
    """Run every requested check; exit code 1 iff any verdict is violated."""
    records: list[InequalityReport] = []
    for req in config.checks:
        entry = REGISTRY[req.name]
        cfg = config.check if req.mc_samples is None else replace(config.check, m=req.mc_samples)
        for dim in req.dims:
            for idx in range(req.instances):
                iid = f"{entry.family}-d{dim}-{idx}"
                instance = generate_instance(entry.family, dim, idx, cfg.seed)
                records.extend(entry.run(instance, req.params, cfg, iid))

    summary: dict[str, dict[str, int]] = {}
    for record in records:
        bucket = summary.setdefault(
            record.check_name, {SUMMARY_KEYS[v]: 0 for v in VERDICT_ORDER}
        )
        bucket[SUMMARY_KEYS[record.verdict]] += 1
    report = {
        "version": 1,
        "seed": config.check.seed,
        "records": [r.to_dict() for r in records],
        "summary": summary,
    }
    exit_code = 1 if any(r.verdict == VERDICT_VIOLATED for r in records) else 0
    return report, exit_code


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in report["records"]:
        row = []
        for col in CSV_COLUMNS:
            value = record[col]
            row.append("" if value is None else value)
        writer.writerow(row)
    return buf.getvalue()


def write_report(report: dict, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:  # a bad output path: exit 2, not the 1 that reads as a violation
        raise ConfigError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
