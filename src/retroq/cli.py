"""Command-line front end: scenario discovery, config loading, execution,
and every file a run writes.

Exit codes are the contract: 0 when every assertion in the requested run
passed, 1 when any assertion failed, 2 for configuration or validation
problems (unknown scenario, malformed config, out-of-range parameters).

Output layout: each scenario run writes `report.json` (deterministic: same
config and seed give byte-identical bytes; timestamps live only in the
manifest), `manifest.json` (tool version, config hash, seed, wall-clock
stamps, pass/fail summary), and the CSV tables its report carries. `run`
and `verify-all` run each scenario and write its report and tables through
one function. The output directory comes from --out, else the RETROQ_OUT
environment variable, else ./runs/<scenario>; verify-all puts each scenario
in a subdirectory of that root and its manifest at the root.
"""

import argparse
import hashlib
import inspect
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .scenarios import SCENARIOS, run_scenario

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _load_config(path: str) -> tuple:
    """(parameters, sha256 of the file) from one read, so the hash describes what ran."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    if "schema_version" not in cfg:
        raise ConfigError(f"config {path} is missing the schema_version field")
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config {path} has schema_version {cfg['schema_version']!r}; this build reads {SCHEMA_VERSION}"
        )
    params = dict(cfg)
    del params["schema_version"]
    return params, _sha256(raw)


def _parameters(name: str) -> set:
    return set(inspect.signature(SCENARIOS[name].func).parameters)


def _check_params(name: str, params: dict) -> None:
    allowed = _parameters(name)
    unknown = sorted(set(params) - allowed)
    if unknown:
        fields = ", ".join(unknown)
        known = ", ".join(sorted(allowed))
        raise ConfigError(f"unknown field(s) for {name}: {fields}; accepted: {known}")
    lists = {k: tuple(v) for k, v in params.items() if isinstance(v, list)}
    params.update(lists)


def _resolve_out(flag, scenario: str) -> str:
    if flag:
        return flag
    env = os.environ.get("RETROQ_OUT")
    if env:
        return os.path.join(env, scenario)
    return os.path.join("runs", scenario)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(rows, dtype=float).tolist():  # Python floats, whose repr round-trips
            fh.write(",".join(map(repr, row)) + "\n")


def _run_and_write(name: str, params: dict, seed, out_dir: str):
    """Run one scenario, --seed over params if it takes a seed, and write its report.json and tables.

    Returns the report, or None once the scenario's rejection of its
    parameters is printed; nothing is written for a rejected run.
    """
    if seed is not None and "seed" in _parameters(name):
        params = {**params, "seed": seed}
    try:
        report = run_scenario(name, **params)
    except (ValueError, TypeError) as exc:
        print(f"configuration rejected by {name}: {exc}", file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "report.json"), report.as_dict())
    for fname, (header, rows) in report.tables.items():
        _write_csv(os.path.join(out_dir, fname), header, rows)
    return report


def _print_failures(report) -> None:
    for a in report.failures():
        print(
            f"FAIL {report.name}/{a.name}: actual {a.actual!r}, "
            f"expected {a.expected!r}, tolerance {a.tolerance!r} [{a.tag}]"
        )


def cmd_list() -> int:
    width = max(len(n) for n in SCENARIOS)
    for name, entry in SCENARIOS.items():
        print(f"{name:<{width}}  {entry.summary}")
    return 0


def cmd_run(name: str, config_path, seed, out_flag) -> int:
    if name not in SCENARIOS:
        print(f"unknown scenario {name!r}; `retroq list` shows the catalog", file=sys.stderr)
        return 2
    started = _utc_now()
    params = {}
    config_hash = _sha256(b"")
    try:
        if config_path:
            params, config_hash = _load_config(config_path)
        _check_params(name, params)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    out_dir = _resolve_out(out_flag, name)
    report = _run_and_write(name, params, seed, out_dir)
    if report is None:
        return 2
    recorded = None  # a scenario without a seed records null
    if "seed" in _parameters(name):
        recorded = seed if seed is not None else params.get("seed", 0)
    manifest = {
        "tool_version": __version__,
        "config_sha256": config_hash,
        "seed": recorded,
        "started": started,
        "finished": _utc_now(),
        "results": {name: report.passed},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    _print_failures(report)
    n = len(report.assertions)
    print(f"{name}: {'PASS' if report.passed else 'FAIL'} ({n} assertions) -> {out_dir}")
    return 0 if report.passed else 1


def cmd_verify_all(seed, out_flag) -> int:
    started = _utc_now()
    reports = []
    for name in SCENARIOS:
        out_dir = _resolve_out(os.path.join(out_flag, name) if out_flag else None, name)
        report = _run_and_write(name, {}, seed, out_dir)
        if report is None:
            return 2
        reports.append(report)
        print(f"{name}: {'PASS' if report.passed else 'FAIL'} ({len(report.assertions)} assertions)")
    print()
    print("coverage (assertion -> derivation)")
    for report in reports:
        for a in report.assertions:
            mark = "pass" if a.passed else "FAIL"
            print(f"  {report.name}/{a.name}: {a.tag} [{mark}]")
    root = out_flag or os.environ.get("RETROQ_OUT") or "runs"
    os.makedirs(root, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "config_sha256": _sha256(b""),
        "seed": seed if seed is not None else 0,
        "started": started,
        "finished": _utc_now(),
        "results": {r.name: r.passed for r in reports},
    }
    _write_json(os.path.join(root, "manifest.json"), manifest)
    ok = all(r.passed for r in reports)
    for report in reports:
        _print_failures(report)
    total = sum(len(r.assertions) for r in reports)
    print(f"\nverify-all: {'PASS' if ok else 'FAIL'} ({total} assertions over {len(reports)} scenarios)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retroq",
        description="forward states, backward effects, and the conditional statistics between them",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the scenario catalog")
    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario")
    run.add_argument("--config", help="JSON parameter file with a schema_version field")
    run.add_argument("--seed", type=int, help="override the seed of a scenario that takes one")
    run.add_argument("--out", help="output directory (else $RETROQ_OUT, else ./runs/<scenario>)")
    ver = sub.add_parser("verify-all", help="run every scenario with default parameters")
    ver.add_argument("--seed", type=int, help="override the seed of every scenario that takes one")
    ver.add_argument("--out", help="root output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.seed is not None and args.seed < 0:
        print(f"seed {args.seed} is negative; seeds are non-negative integers", file=sys.stderr)
        return 2
    if args.command == "run":
        return cmd_run(args.scenario, args.config, args.seed, args.out)
    return cmd_verify_all(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
