"""Tests for suite orchestration, config parsing, reporting, and the CLI."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from epicheck import (
    CheckConfig,
    ConfigError,
    DimensionError,
    GaussianMixture,
    MarkovTriple,
    SpdMatrix,
    check_conditional_form,
    check_de_bruijn,
    check_entropic_kyfan,
    check_equality_case_bonnesen,
    check_lambda_form,
    check_matrix_bergstrom,
    check_matrix_kyfan,
    check_projective_fisher,
    check_stam_recovery,
    config_from_dict,
    default_config,
    entropy,
    generate_instance,
    random_markov_triple,
    random_mixture,
    random_unit_vector,
    proportional_markov_triple,
    report_to_csv,
    run_suite,
    shared_prefix_pair,
    write_report,
)
from epicheck import checks, estimators
from epicheck.checks import InequalityReport
from epicheck.cli import main
from epicheck.runner import CSV_COLUMNS, REGISTRY, RegistryEntry
from epicheck.seeding import rng_from_tokens


def small_config(**overrides):
    """Cheap suite: closed-form checks plus one tiny MC check."""
    data = {
        "seed": 0,
        "dims": [2],
        "mc_samples": 2000,
        "checks": ["matrix_bergstrom", "matrix_kyfan", "sphere_identity"],
    }
    data.update(overrides)
    return config_from_dict(data)


class TestGenerators:
    def test_mixture_weights_and_condition_are_pinned(self):
        for idx in range(20):
            gm = random_mixture(3, rng_from_tokens(0, "gen", idx))
            assert gm.weights.min() >= 0.05
            for comp in gm.components:
                eigs = np.linalg.eigvalsh(comp.cov.entries)
                assert eigs[-1] / eigs[0] <= 1e3

    def test_markov_triple_labels(self):
        triple = random_markov_triple(2, rng_from_tokens(0, "gen-triple"))
        assert isinstance(triple, MarkovTriple)
        assert 2 <= triple.n_labels <= 3

    def test_proportional_triple_shares_one_ratio(self):
        triple = proportional_markov_triple(2, rng_from_tokens(0, "gen-prop"))
        ratios = [
            gy.components[0].cov.entries[0, 0] / gx.components[0].cov.entries[0, 0]
            for gx, gy in zip(triple.x_given_z, triple.y_given_z)
        ]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)

    def test_shared_prefix_pair_marginals_match(self):
        x, y = shared_prefix_pair(3, rng_from_tokens(0, "gen-prefix"))
        mx = x.marginal(range(2)).components[0].cov.entries
        my = y.marginal(range(2)).components[0].cov.entries
        assert np.array_equal(mx, my)


class TestGenerateInstance:
    def test_deterministic_per_key(self):
        a1, b1 = generate_instance("mixture_pair", 2, 0, 7)
        a2, b2 = generate_instance("mixture_pair", 2, 0, 7)
        assert np.array_equal(a1.weights, a2.weights)
        assert np.array_equal(
            a1.components[0].cov.entries, a2.components[0].cov.entries
        )
        assert np.array_equal(b1.components[0].mean, b2.components[0].mean)

    def test_distinct_indices_differ(self):
        a, _ = generate_instance("mixture_pair", 2, 0, 7)
        b, _ = generate_instance("mixture_pair", 2, 1, 7)
        assert not np.array_equal(
            a.components[0].cov.entries, b.components[0].cov.entries
        )

    def test_family_coverage(self):
        assert isinstance(generate_instance("mixture_single", 2, 0, 0), GaussianMixture)
        assert isinstance(generate_instance("markov_triple", 2, 0, 0), MarkovTriple)
        a, b = generate_instance("spd_pair", 3, 0, 0)
        assert isinstance(a, SpdMatrix) and b.dim == 3
        v = generate_instance("vector", 4, 0, 0)
        assert v.shape == (4,) and np.any(v)
        dim, rng = generate_instance("equality_seed", 3, 0, 0)
        assert dim == 3 and isinstance(rng, np.random.Generator)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            generate_instance("bogus", 2, 0, 0)


class TestConfigFromDict:
    def test_defaults_include_every_check(self):
        config = config_from_dict({})
        assert [req.name for req in config.checks] == list(REGISTRY)
        assert all(req.dims == (2, 3) for req in config.checks)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_dict({"sedd": 1})

    def test_unknown_check_lists_known_names(self):
        with pytest.raises(ConfigError, match="entropic_bergstrom"):
            config_from_dict({"checks": ["not_a_check"]})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="params"):
            config_from_dict(
                {"checks": [{"name": "de_bruijn", "params": {"step": 0.1}}]}
            )

    def test_bad_scalar_types(self):
        with pytest.raises(ConfigError):
            config_from_dict({"seed": -1})
        with pytest.raises(ConfigError):
            config_from_dict({"seed": True})
        with pytest.raises(ConfigError):
            config_from_dict({"z": 0})
        with pytest.raises(ConfigError):
            config_from_dict({"dims": []})
        with pytest.raises(ConfigError):
            config_from_dict({"mc_samples": 1})

    def test_tolerances_block(self):
        config = config_from_dict({"tolerances": {"abs_tol": 1e-8}})
        assert config.check.abs_tol == 1e-8
        with pytest.raises(ConfigError, match="tolerances"):
            config_from_dict({"tolerances": {"abstol": 1e-8}})
        with pytest.raises(ConfigError):
            config_from_dict({"tolerances": {"eq_tol": -1.0}})

    def test_output_block(self):
        config = config_from_dict({"output": {"path": "r.csv", "format": "csv"}})
        assert config.output_path == "r.csv"
        assert config.output_format == "csv"
        with pytest.raises(ConfigError):
            config_from_dict({"output": {"format": "xml"}})
        with pytest.raises(ConfigError):
            config_from_dict({"output": {"path": ""}})

    def test_min_dim_lifts_small_requests(self):
        config = config_from_dict(
            {"dims": [1], "checks": [{"name": "entropic_bergstrom"}]}
        )
        assert config.checks[0].dims == (2,)

    def test_per_check_overrides(self):
        config = config_from_dict(
            {
                "checks": [
                    {
                        "name": "conditional_form",
                        "dims": [2],
                        "instances": 3,
                        "mc_samples": 5000,
                        "params": {"lambdas": [0.0, 0.5]},
                    }
                ]
            }
        )
        req = config.checks[0]
        assert req.instances == 3
        assert req.mc_samples == 5000
        assert req.params["lambdas"] == [0.0, 0.5]

    def test_string_entries_are_shorthand(self):
        config = config_from_dict({"checks": ["epi"]})
        assert config.checks[0].name == "epi"
        assert config.checks[0].params == {}

    @pytest.mark.parametrize("seed", [0, 42])
    def test_default_config_is_the_seed_only_config(self, seed):
        assert default_config(seed) == config_from_dict({"seed": seed})

    def test_readme_table_lists_every_check_in_order_with_its_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = [line for line in readme.splitlines() if line.startswith("| `")]
        expected = []
        for name, entry in REGISTRY.items():
            params = "; ".join(
                f"`{key}` = `{json.dumps(list(v) if isinstance(v, tuple) else v)}`"
                for key, v in entry.defaults.items()
            )
            expected.append(f"| `{name}` | `{entry.family}` | {entry.min_dim} | {params or '—'} |")
        assert rows == expected

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])
        with pytest.raises(ConfigError):
            config_from_dict({"checks": [3]})


HOLDS, EQUAL = "holds", "equality_consistent"


def _per_dim(name, family, verdict, lam=None):
    return [(name, f"{family}-d{d}-0", lam, verdict) for d in (2, 3)]


def _lambda_grid(name, family):
    verdicts = (EQUAL, HOLDS, HOLDS, HOLDS, EQUAL)
    return [
        (name, f"{family}-d{d}-0", lam, v)
        for d in (2, 3)
        for lam, v in zip((0.0, 0.25, 0.5, 0.75, 1.0), verdicts)
    ]


# (check, instance, lambda, verdict) of every record of `epicheck run --seed 42`
DEFAULT_SUITE_SEED_42 = (
    _per_dim("epi", "mixture_pair", HOLDS)
    + _per_dim("conditional_epi", "markov_triple", HOLDS)
    + _per_dim("entropic_bergstrom", "mixture_pair", HOLDS)
    + _lambda_grid("conditional_form", "mixture_pair")
    + _lambda_grid("lambda_form", "mixture_pair")
    + _per_dim("entropic_kyfan", "mixture_pair", HOLDS, 0.5)
    + _lambda_grid("entropic_bonnesen", "prefix_pair")
    + [
        ("equality_case_bonnesen", "equality_seed-d2-0", 0.05, EQUAL),
        ("equality_case_bonnesen", "equality_seed-d3-0", 0.15000000000000002, EQUAL),
    ]
    + _per_dim("isoperimetric_sharp", "mixture_single", HOLDS)
    + _per_dim("isoperimetric_dominance", "mixture_single", HOLDS)
    + _per_dim("de_bruijn", "mixture_single", EQUAL)
    + _per_dim("blachman_stam", "mixture_pair", HOLDS)
    + _per_dim("projective_fisher", "mixture_pair", HOLDS)
    + _per_dim("tm_limit", "mixture_single", EQUAL)
    + _per_dim("sphere_identity", "vector", EQUAL)
    + _per_dim("stam_recovery", "mixture_pair", HOLDS)
    + _per_dim("matrix_bergstrom", "spd_pair", HOLDS)
    + _per_dim("matrix_kyfan", "spd_pair", HOLDS)
)


class TestRunSuite:
    def test_default_suite_verdicts_pinned(self):
        # a speedup may move a gap in its last digits, never a verdict
        report, code = run_suite(default_config(42))
        assert code == 0
        got = [
            (r["check_name"], r["instance_id"], r["lambda"], r["verdict"])
            for r in report["records"]
        ]
        assert got == DEFAULT_SUITE_SEED_42

    def test_report_shape_and_exit_code(self):
        report, code = run_suite(small_config())
        assert code == 0
        assert report["version"] == 1
        assert report["seed"] == 0
        assert len(report["records"]) == 3
        for counts in report["summary"].values():
            assert set(counts) == {"holds", "equality", "violated", "inconclusive"}
        assert not any(c["violated"] for c in report["summary"].values())

    def test_record_order_and_instance_ids(self):
        config = config_from_dict(
            {
                "dims": [2, 3],
                "mc_samples": 2000,
                "checks": [{"name": "matrix_bergstrom", "instances": 2}],
            }
        )
        report, _ = run_suite(config)
        ids = [r["instance_id"] for r in report["records"]]
        assert ids == ["spd_pair-d2-0", "spd_pair-d2-1", "spd_pair-d3-0", "spd_pair-d3-1"]

    def test_lambda_grid_produces_one_record_each(self):
        config = config_from_dict(
            {
                "dims": [2],
                "mc_samples": 2000,
                "checks": [
                    {"name": "conditional_form", "params": {"lambdas": [0.0, 0.5, 1.0]}}
                ],
            }
        )
        report, _ = run_suite(config)
        assert [r["lambda"] for r in report["records"]] == [0.0, 0.5, 1.0]

    def test_reruns_identical_modulo_wall_ms(self):
        config = small_config(checks=["sphere_identity", "epi"])
        first, _ = run_suite(config)
        second, _ = run_suite(small_config(checks=["sphere_identity", "epi"]))

        def strip(report):
            return [
                {k: v for k, v in r.items() if k != "wall_ms"}
                for r in report["records"]
            ]

        assert strip(first) == strip(second)
        assert first["summary"] == second["summary"]

    def test_violation_drives_exit_code(self, monkeypatch):
        def run(inst, params, cfg, iid):
            return [
                InequalityReport(
                    "always_violated", iid, 2, None, 0.0, 1.0, -1.0, 0.0,
                    "violated", cfg.seed, 0.0,
                )
            ]

        monkeypatch.setitem(
            REGISTRY, "always_violated",
            RegistryEntry("vector", 1, {}, run),
        )
        config = config_from_dict({"dims": [2], "checks": ["always_violated"]})
        report, code = run_suite(config)
        assert code == 1
        assert report["summary"]["always_violated"]["violated"] == 1


def _last_axis(n):
    u = np.zeros(n)
    u[-1] = 1.0
    return u


def _random_direction(x, cfg, iid):
    rng = rng_from_tokens(cfg.seed, "instance", "direction", x.dim, iid)
    return random_unit_vector(x.dim, rng)


# (check, dim, params, direct call of the public check on the generated instance)
REGISTRY_PARAM_CASES = [
    ("entropic_kyfan", 3, {"subset_size": 1},
     lambda inst, cfg, iid: [check_entropic_kyfan(*inst, [2], 0.5, cfg, iid)]),
    ("projective_fisher", 3, {"direction": "random"},
     lambda inst, cfg, iid: [
         check_projective_fisher(*inst, _random_direction(inst[0], cfg, iid), cfg, iid)
     ]),
    ("projective_fisher", 2, {},
     lambda inst, cfg, iid: [check_projective_fisher(*inst, _last_axis(2), cfg, iid)]),
    ("matrix_bergstrom", 3, {"index": 0},
     lambda inst, cfg, iid: [check_matrix_bergstrom(*inst, 0, cfg, iid)]),
    ("matrix_kyfan", 3, {"k": 1},
     lambda inst, cfg, iid: [check_matrix_kyfan(*inst, 1, cfg, iid)]),
    ("de_bruijn", 2, {"t": 0.3, "dt": 0.01},
     lambda inst, cfg, iid: [check_de_bruijn(inst, 0.3, 0.01, cfg, iid)]),
    ("stam_recovery", 2, {"m_dirs": 32},
     lambda inst, cfg, iid: [check_stam_recovery(*inst, 32, cfg, iid)]),
    ("conditional_form", 2, {"lambdas": [0.2, 0.9]},
     lambda inst, cfg, iid: [check_conditional_form(*inst, lam, cfg, iid) for lam in (0.2, 0.9)]),
    ("entropic_kyfan", 3, {"lambdas": [0.0, 0.3]},
     lambda inst, cfg, iid: [
         check_entropic_kyfan(*inst, [1, 2], lam, cfg, iid) for lam in (0.0, 0.3)
     ]),
    ("equality_case_bonnesen", 3, {},
     lambda inst, cfg, iid: [check_equality_case_bonnesen(inst[0], cfg, inst[1], None, iid)]),
]


class TestRegistryParams:
    @pytest.mark.parametrize(
        "name, dim, params, direct",
        REGISTRY_PARAM_CASES,
        ids=[f"{c[0]}-{'-'.join(c[2]) or 'default'}" for c in REGISTRY_PARAM_CASES],
    )
    def test_suite_records_match_direct_calls(self, name, dim, params, direct):
        config = config_from_dict(
            {
                "seed": 5,
                "dims": [dim],
                "mc_samples": 2000,
                "checks": [{"name": name, "params": params}],
            }
        )
        report, _ = run_suite(config)
        family = REGISTRY[name].family
        iid = f"{family}-d{dim}-0"
        cfg = CheckConfig(m=2000, seed=5)
        expected = direct(generate_instance(family, dim, 0, 5), cfg, iid)

        def strip(records):
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]

        assert strip(report["records"]) == strip(r.to_dict() for r in expected)


# arguments that both the suite config and the check itself refuse
SHARED_ARGUMENT_RULES = [
    ("de_bruijn", {"t": math.nan}),
    ("de_bruijn", {"dt": math.nan}),
    ("de_bruijn", {"t": math.inf}),
    ("stam_recovery", {"m_dirs": 2.5}),
    ("stam_recovery", {"m_dirs": 32.0}),
    ("conditional_form", {"lambdas": [True]}),
    ("conditional_form", {"lambdas": ["0.5"]}),
    ("matrix_bergstrom", {"index": True}),
    ("matrix_kyfan", {"k": 1.0}),
]


class TestSharedArgumentRules:
    @pytest.mark.parametrize("name, params", SHARED_ARGUMENT_RULES, ids=str)
    def test_config_and_check_refuse_alike(self, name, params):
        with pytest.raises(ConfigError):
            config_from_dict({"dims": [2], "checks": [{"name": name, "params": params}]})
        entry = REGISTRY[name]
        instance = generate_instance(entry.family, 2, 0, 0)
        with pytest.raises(ValueError):
            entry.run(instance, {**entry.defaults, **params}, CheckConfig(m=200), "iid")


class TestRegistryDimensions:
    @pytest.mark.parametrize(
        "name", [name for name, entry in REGISTRY.items() if entry.min_dim > 1]
    )
    def test_an_instance_below_min_dim_is_refused(self, name):
        # an entry of min_dim 1 has no smaller instance: no law has dimension 0
        entry = REGISTRY[name]
        instance = generate_instance(entry.family, entry.min_dim - 1, 0, 0)
        with pytest.raises(DimensionError):
            entry.run(instance, entry.defaults, CheckConfig(m=200), "iid")


class TestStreamKeys:
    def test_every_draw_is_keyed_by_its_record(self, monkeypatch):
        real = checks.rng_from_tokens
        drawn = []

        def record(*tokens):
            drawn.append(tokens)
            return real(*tokens)

        monkeypatch.setattr(checks, "rng_from_tokens", record)
        cfg = CheckConfig(m=200, seed=3)
        drawn_by = dict.fromkeys(REGISTRY, 0)
        for name, entry in REGISTRY.items():
            for dim in (2, 3):
                for idx in range(2):
                    drawn.clear()
                    iid = f"{entry.family}-d{dim}-{idx}"
                    instance = generate_instance(entry.family, dim, idx, cfg.seed)
                    records = entry.run(instance, entry.defaults, cfg, iid)
                    keys = {(cfg.seed, r.check_name, r.instance_id) for r in records}
                    assert keys == {(cfg.seed, name, iid)}
                    for tokens in drawn:
                        assert len(tokens) == 4 and tokens[:3] in keys, (name, tokens)
                        assert isinstance(tokens[3], str)
                    drawn_by[name] += len(drawn)
        # every Monte-Carlo check drew at least once on these instances
        assert {name for name, count in drawn_by.items() if count} == set(REGISTRY) - {
            "conditional_epi", "entropic_bonnesen", "equality_case_bonnesen",
            "matrix_bergstrom", "matrix_kyfan",
        }


def record_bits(report):
    """A record's fields, floats as their hex digits, without wall_ms."""
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in report.to_dict().items() if key != "wall_ms"}


class TestGridDrawMemo:
    """The records of one registry lambda grid share the draws of their X and Y
    groups (``estimators._draw_memo``) and are bitwise the per-lambda calls."""

    GRID = [0.5, 0.02, 0.98]  # a wide gap first, then two narrow ones that read more looks
    DIRECT = {
        "conditional_form": lambda x, y, lam, **kw: check_conditional_form(x, y, lam, **kw),
        "lambda_form": lambda x, y, lam, **kw: check_lambda_form(x, y, lam, **kw),
        "entropic_kyfan": lambda x, y, lam, **kw: check_entropic_kyfan(
            x, y, range(x.dim - min(2, x.dim - 1), x.dim), lam, **kw),
    }

    def test_grid_records_are_per_lambda_calls(self, monkeypatch):
        real_rng, real_looks = checks.rng_from_tokens, checks._term_looks
        roles, reads = [], []

        def record(*tokens):
            roles.append(tokens[3])
            return real_rng(*tokens)

        def spy(groups, looks, rng_for):
            reads.append(0)
            for terms in real_looks(groups, looks, rng_for):
                reads[-1] += 1
                yield terms

        cfg = CheckConfig(m=40_000, seed=0)
        assert len(checks._looks(cfg.m)) == 3
        resumed = 0
        for dim, idx in ((2, 3), (3, 0)):
            x, y = generate_instance("mixture_pair", dim, idx, cfg.seed)
            assert not (x.is_gaussian or y.is_gaussian)
            for name, direct in self.DIRECT.items():
                entry, iid = REGISTRY[name], f"grid-{dim}-{idx}"
                monkeypatch.setattr(checks, "rng_from_tokens", record)
                monkeypatch.setattr(checks, "_term_looks", spy)
                roles.clear()
                reads.clear()
                grid = entry.run((x, y), {**entry.defaults, "lambdas": self.GRID}, cfg, iid)
                assert estimators._MEMO.get() is None
                # every record samples X and Y, each from one generator for the grid
                assert roles.count("x") == roles.count("y") == 1
                assert roles.count("sum") == len(self.GRID)
                # a later lambda reads a look that no earlier one reached
                resumed += any(reads[j] > max(reads[:j]) for j in range(1, len(reads)))
                monkeypatch.undo()
                for lam, rec in zip(self.GRID, grid):
                    alone = direct(x, y, lam, cfg=cfg, instance_id=iid)
                    assert record_bits(rec) == record_bits(alone), (name, dim, lam)
        assert resumed >= 2

    def test_scope_is_released_on_return_and_on_raise(self, monkeypatch):
        cfg = CheckConfig(m=20_000, seed=0)
        x, y = generate_instance("mixture_pair", 2, 3, cfg.seed)

        def outside():
            rep = check_conditional_form(x, y, 0.5, cfg=cfg, instance_id="direct")
            return record_bits(rep), entropy(x, 20_000, rng_from_tokens(cfg.seed, "public")).value

        before = outside()
        entry = REGISTRY["conditional_form"]
        entry.run((x, y), {"lambdas": [0.25, 0.5]}, cfg, "grid")
        assert estimators._MEMO.get() is None

        memos, real = [], checks._term_looks

        def spy(groups, looks, rng_for):
            memos.append(estimators._MEMO.get())
            return real(groups, looks, rng_for)

        monkeypatch.setattr(checks, "_term_looks", spy)
        with pytest.raises(ValueError, match="lambda"):
            entry.run((x, y), {"lambdas": [0.5, 2.0]}, cfg, "grid")
        monkeypatch.undo()
        assert len(memos) == 1 and memos[0]  # lambda = 0.5 drew before 2.0 raised
        assert estimators._MEMO.get() is None
        assert outside() == before


class TestReportWriting:
    def test_csv_header_and_empty_lambda(self):
        report, _ = run_suite(small_config())
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(report["records"])
        # sphere_identity has no lambda: its field renders empty
        sphere = [l for l in lines[1:] if l.startswith("sphere_identity")]
        assert sphere and sphere[0].split(",")[3] == ""

    def test_json_round_trip(self, tmp_path):
        report, _ = run_suite(small_config())
        path = tmp_path / "report.json"
        write_report(report, str(path), "json")
        assert json.loads(path.read_text()) == report

    def test_csv_file(self, tmp_path):
        report, _ = run_suite(small_config())
        path = tmp_path / "report.csv"
        write_report(report, str(path), "csv")
        assert path.read_text().startswith("check_name,instance_id")

    def test_unknown_format(self, tmp_path):
        report, _ = run_suite(small_config())
        with pytest.raises(ConfigError):
            write_report(report, str(tmp_path / "r.xml"), "xml")


# configs that must exit 2 before any check runs
REFUSED_CONFIGS = [
    {"z": math.nan},
    {"tolerances": {"abs_tol": math.nan}},
    {"z": True},
    {"tolerances": {"eq_tol": math.inf}},
    {"seed": -3},
] + [
    {"dims": dims, "checks": [{"name": name, "params": params}]}
    for name, dims, params in [
        ("conditional_form", [2], {"lambdas": [1.5]}),
        ("conditional_form", [2], {"lambdas": 0.5}),
        ("conditional_form", [2], {"lambdas": []}),
        ("lambda_form", [2], {"lambdas": [math.nan]}),
        ("de_bruijn", [2], {"dt": -1}),
        ("de_bruijn", [2], {"t": 0.1, "dt": 0.1}),
        ("de_bruijn", [2], {"t": math.inf}),
        ("projective_fisher", [2], {"direction": "randon"}),
        ("tm_limit", [2], {"m_values": [2, 4]}),  # the squeeze factor is a constant
        ("stam_recovery", [2], {"m_dirs": 1}),
        ("matrix_bergstrom", [2], {"index": 7}),
        ("matrix_bergstrom", [2, 3], {"index": 2}),
        ("matrix_bergstrom", [2], {"index": 0.0}),
        ("matrix_kyfan", [2], {"k": 2}),
        ("entropic_kyfan", [3], {"subset_size": 0}),
        ("entropic_kyfan", [2, 4], {"subset_size": 3}),
    ]
]


def _config_id(data):
    if "checks" not in data:
        return json.dumps(data, separators=(",", ":"))
    check = data["checks"][0]
    return f"{check['name']}-{json.dumps(check['params'], separators=(',', ':'))}-dims{data['dims']}"


REFUSED_ARGUMENTS = [
    ["run", "--seed", "-3"],
    ["run", "--out", ""],
    ["check", "matrix_bergstrom", "--dim", "0"],
    ["check", "epi", "--instances", "0"],
    ["check", "epi", "--seed", "-3"],
    ["check", "matrix_bergstrom", "--out", ""],
]


class TestCli:
    def write_config(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_run_with_config_and_out(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path,
            {"dims": [2], "mc_samples": 2000,
             "checks": ["matrix_bergstrom", "sphere_identity"]},
        )
        out = tmp_path / "report.json"
        code = main(["run", "--config", config, "--seed", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["seed"] == 1
        captured = capsys.readouterr()
        assert "wrote json report" in captured.out
        assert "matrix_bergstrom" in captured.out

    def test_run_csv_to_stdout(self, tmp_path, capsys):
        config = self.write_config(
            tmp_path, {"dims": [2], "checks": ["matrix_bergstrom"]}
        )
        code = main(["run", "--config", config, "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("check_name,instance_id")

    def test_run_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_rejects_unknown_check(self, tmp_path, capsys):
        config = self.write_config(tmp_path, {"checks": ["bogus"]})
        assert main(["run", "--config", config]) == 2
        assert "known checks" in capsys.readouterr().err

    def test_check_subcommand(self, capsys):
        code = main(["check", "matrix_bergstrom", "--dim", "2", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "matrix_bergstrom" in out
        assert "verdict=" in out

    @pytest.mark.parametrize("data", REFUSED_CONFIGS, ids=_config_id)
    def test_refused_config_exits_2(self, tmp_path, capsys, data):
        assert main(["run", "--config", self.write_config(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", REFUSED_ARGUMENTS, ids=" ".join)
    def test_refused_argument_exits_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_check_prints_the_records_of_the_equivalent_config(self, tmp_path, capsys, name):
        dim = max(3, REGISTRY[name].min_dim)
        out = tmp_path / "check.json"
        code = main(["check", name, "--dim", str(dim), "--samples", "2000", "--out", str(out)])
        printed = capsys.readouterr().out.splitlines()[:-1]
        expected, expected_code = run_suite(
            config_from_dict({"mc_samples": 2000, "checks": [{"name": name, "dims": [dim]}]})
        )

        def strip(records):
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]

        assert code == expected_code
        assert strip(json.loads(out.read_text())["records"]) == strip(expected["records"])
        assert len(printed) == len(expected["records"])
        for line, record in zip(printed, expected["records"]):
            assert line.startswith(f"{name} [{record['instance_id']}]")
            assert f"verdict={record['verdict']} " in line

    def test_config_without_checks_runs_the_default_order(self, tmp_path, capsys, monkeypatch):
        def stub(name):
            def run(inst, params, cfg, iid):
                return [InequalityReport(name, iid, 2, None, 1.0, 0.0, 1.0, 0.0, "holds", 0, 0.0)]

            return run

        for name, entry in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, name, dataclasses.replace(entry, run=stub(name)))
        orders = []
        for argv in (["run"], ["run", "--config", self.write_config(tmp_path, {})]):
            assert main(argv) == 0
            records = json.loads(capsys.readouterr().out)["records"]
            orders.append([(r["check_name"], r["instance_id"]) for r in records])
        assert orders[0] == orders[1]
        assert [name for name, _ in orders[0][::2]] == list(REGISTRY)

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        # a report that cannot be written is a bad --out, not a violation
        # (exit 1): it used to end in a FileNotFoundError traceback
        argv = {
            "run": ["run", "--config",
                    self.write_config(tmp_path, {"dims": [2], "checks": ["matrix_bergstrom"]})],
            "check": ["check", "matrix_bergstrom", "--dim", "2"],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "missing" / "r.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_check_unknown_name(self, capsys):
        assert main(["check", "bogus"]) == 2
        assert "known checks" in capsys.readouterr().err

    def test_one_sample_is_a_config_error(self, capsys):
        assert main(["check", "sphere_identity", "--samples", "1"]) == 2
        assert "samples" in capsys.readouterr().err

    def test_check_writes_report(self, tmp_path, capsys):
        out = tmp_path / "one.json"
        code = main(
            ["check", "matrix_kyfan", "--dim", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["records"][0]["check_name"] == "matrix_kyfan"

    def test_scan_lambda_is_retired(self, capsys):
        # argparse refuses a subcommand it does not know before any check runs
        with pytest.raises(SystemExit) as info:
            main(["scan-lambda"])
        assert info.value.code == 2
        assert "invalid choice: 'scan-lambda'" in capsys.readouterr().err
