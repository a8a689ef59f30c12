"""Command-line entry point.

Subcommands
-----------
run
    execute a suite from a JSON config (or the built-in default suite)
    and emit a JSON/CSV report.  Exit code 0: all verdicts hold, 1: at
    least one violation, 2: bad configuration or an unwritable --out.
check
    run a single named check on freshly generated instances.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exceptions import ConfigError
from .runner import _expect_mapping, config_from_dict, run_suite, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epicheck",
        description="Numerical checks of entropy-power, Fisher-information, "
        "and determinant-ratio inequalities on Gaussian mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured suite of checks")
    run_p.add_argument("--config", help="JSON suite configuration file")
    run_p.add_argument("--seed", type=int, help="override the suite seed")
    run_p.add_argument("--out", help="report destination (default: stdout)")
    run_p.add_argument("--format", choices=("json", "csv"), help="report format")

    check_p = sub.add_parser("check", help="run one named check")
    check_p.add_argument("name", help="registered check name (see 'run --help')")
    check_p.add_argument("--dim", type=int, default=3)
    check_p.add_argument("--instances", type=int, default=1)
    check_p.add_argument("--samples", type=int, default=20_000)
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--out", help="also write a JSON report here")

    return parser


def _print_summary(report: dict, stream) -> None:
    for name, counts in report["summary"].items():
        parts = ", ".join(f"{verdict}: {count}" for verdict, count in counts.items() if count)
        print(f"{name:28s} {parts}", file=stream)


def _cmd_run(args) -> int:
    data = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    data = _expect_mapping(data, "config")
    if args.seed is not None:
        data["seed"] = args.seed
    output = {key: v for key, v in (("path", args.out), ("format", args.format)) if v is not None}
    if output:
        data["output"] = {**_expect_mapping(data.get("output", {}), "'output'"), **output}
    config = config_from_dict(data)

    report, code = run_suite(config)
    if config.output_path:
        write_report(report, config.output_path, config.output_format)
        _print_summary(report, sys.stdout)
        print(f"wrote {config.output_format} report to {config.output_path}")
    elif config.output_format == "csv":
        from .runner import report_to_csv

        sys.stdout.write(report_to_csv(report))
    else:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return code


def _cmd_check(args) -> int:
    data = {
        "seed": args.seed,
        "mc_samples": args.samples,
        "checks": [{"name": args.name, "dims": [args.dim], "instances": args.instances}],
    }
    if args.out is not None:
        data["output"] = {"path": args.out}
    config = config_from_dict(data)
    report, code = run_suite(config)
    for record in report["records"]:
        lam = "" if record["lambda"] is None else f" lambda={record['lambda']:.3g}"
        print(
            f"{record['check_name']} [{record['instance_id']}]{lam} "
            f"verdict={record['verdict']} gap={record['gap']:.6g} "
            f"stderr={record['stderr']:.3g}"
        )
    if config.output_path:
        write_report(report, config.output_path, "json")
        print(f"wrote json report to {config.output_path}")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_check(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
