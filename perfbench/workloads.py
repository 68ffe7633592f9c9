"""The benchmark's three workloads, built from a seed.

Each builder imports retroq, builds its models and inputs, and returns a
list of items. An item is a (label, fn) pair; fn() runs one unit of the
workload through retroq's public functions and returns (checks,
fingerprint): checks is a list of (name, ok, detail) and fingerprint a
string that must repeat exactly when the item is rerun on the same inputs.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import sys

import numpy as np

from retroq import algebra, cli, scenarios
from retroq import trajectories as tr
from retroq.channels import projective

WORKLOADS = ("qubit-ensembles", "cavity-ensembles", "smoothing-thermo")

GROUND = algebra.projector(algebra.ket(2, 0))
EXCITED = algebra.projector(algebra.ket(2, 1))
NUMBER = projective({"g": GROUND, "e": EXCITED})


def _seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(int(seed)).generate_state(n, dtype=np.uint64) >> 2]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _within(label, got, want, se, k=5.0):
    z = abs(got - want) / se
    return (label, bool(z <= k), f"got {got:.6g}, want {want:.6g}, z = {z:.2f} (limit {k:g})")


def _at_most(label, got, bound):
    return (label, bool(got <= bound), f"{got:.3g} (limit {bound:.0e})")


# -- qubit-ensembles ---------------------------------------------------------
# The two d = 2 ensemble scenarios at a reduced trajectory count. Their own
# assertions are the checks. They run at the catalog's default seed, as
# verify-all does: their Monte Carlo assertions are 3-sigma bounds (one of
# them a maximum over ten sample times), and at a seed taken from --seed
# about one run in ten flagged correct code, so this workload's inputs do
# not depend on --seed.
QUBIT_RUNS = (
    ("homodyne-cavity", {"n_traj": 1000, "dt": 1e-3, "horizon": 0.5}),
    ("counting", {"n_traj": 1000, "horizon": 0.5}),
)


def _scenario_item(name, params):
    def run():
        report = scenarios.run_scenario(name, **params)
        checks = [
            (f"{name}/{a.name}", a.passed, f"actual {a.actual!r}, expected {a.expected!r}, tol {a.tolerance!r}")
            for a in report.assertions
        ]
        return checks, json.dumps(report.as_dict(), sort_keys=True)

    return name, run


def qubit_ensembles(seed, workdir):
    return [_scenario_item(name, params) for name, params in QUBIT_RUNS]


# -- cavity-ensembles --------------------------------------------------------
# A Fock-truncated cavity decaying from |7>: <n>(t) = 7 exp(-kappa t), and a
# perfect counter records 7 (1 - exp(-kappa T)) photons on average. Both
# laws are checked at 5 standard errors: a benchmark evaluation makes some
# 50 runs at different seeds, and at 3 standard errors the two checks would
# flag correct code in about one evaluation in four. A wrong decay law
# misses by tens of standard errors.
CAVITY = {"dim": 8, "n0": 7, "kappa": 1.0, "eta": 0.6, "horizon": 1.0, "dt": 1e-3,
          "n_homodyne": 128, "n_counting": 512}


def cavity_ensembles(seed, workdir):
    c = CAVITY
    d, n0, kappa, horizon, dt = c["dim"], c["n0"], c["kappa"], c["horizon"], c["dt"]
    lower = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    number = np.diag(np.arange(d)).astype(complex)
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[n0, n0] = 1.0
    diffusive = tr.monitoring_model(np.zeros((d, d)), lower, kappa, eta=c["eta"])
    counting = tr.monitoring_model(np.zeros((d, d)), lower, kappa, eta=1.0, mode="counting")
    s_hom, s_cnt = _seeds(seed, 2)

    def homodyne():
        ens = tr.ensemble_homodyne(diffusive, rho0, horizon, dt, c["n_homodyne"], s_hom)
        n_final = np.einsum("ij,nji->n", number, ens.states[:, -1]).real
        traces = np.einsum("nsii->ns", ens.states).real
        min_eig = float(np.linalg.eigvalsh(ens.states).min())
        checks = [
            _within("homodyne-d8/mean_number_at_T", n_final.mean(), n0 * np.exp(-kappa * horizon),
                    n_final.std(ddof=1) / np.sqrt(n_final.size)),
            _at_most("homodyne-d8/trace_defect", float(np.abs(traces - 1.0).max()), 1e-9),
            _at_most("homodyne-d8/negative_eigenvalue", -min_eig, 1e-9),
        ]
        return checks, _digest(ens.states, ens.dys)

    def count():
        ens = tr.ensemble_counting(counting, rho0, horizon, dt, c["n_counting"], s_cnt)
        totals = ens.total_counts()
        cum = np.concatenate([np.zeros((totals.size, 1), dtype=np.int64), ens.counts.cumsum(axis=1)], axis=1)
        idx = np.rint(ens.sample_times / ens.dt).astype(int)
        n_samp = np.einsum("ij,nsji->ns", number, ens.states).real
        checks = [
            _within("counting-d8/mean_total_counts", totals.mean(), n0 * (1.0 - np.exp(-kappa * horizon)),
                    totals.std(ddof=1) / np.sqrt(totals.size)),
            ("counting-d8/at_most_n0_counts", bool(totals.max() <= n0), f"max {totals.max()}"),
            _at_most("counting-d8/number_equals_n0_minus_counts",
                     float(np.abs(n_samp - (n0 - cum[:, idx])).max()), 1e-9),
        ]
        return checks, _digest(ens.states, ens.counts)

    return [("homodyne-d8", homodyne), ("counting-d8", count)]


# -- smoothing-thermo --------------------------------------------------------
# Long single records smoothed end to end, then six scenarios through the
# CLI. The records come from --seed and all their checks are exact; the
# scenarios keep their catalog seeds, for the reason given for
# qubit-ensembles (counting and thermal-qubit carry 3-sigma assertions).
RECORDS = {
    "diffusive": {"omega": 2.0, "kappa": 1.0, "eta": 0.7, "steps": 3000, "dt": 1e-3},
    "counting": {"omega": 2.0, "kappa": 2.0, "eta": 1.0, "steps": 4000, "dt": 1e-3},
}
CLI_RUNS = (
    ("thermal-qubit", {"n_traj": 100, "horizon": 0.75}),
    ("counting", {"n_traj": 100}),
    ("unsharp-qubit", {}),
    ("weak-measurement", {}),
    ("epr", {}),
    ("classical-limit", {}),
)


def _read_summary(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([[float(r["p_g"]), float(r["p_e"])] for r in rows])


def _record_item(mode, seed, workdir):
    p = RECORDS[mode]
    model = tr.monitoring_model(p["omega"] * algebra.SX, algebra.SM, p["kappa"], eta=p["eta"], mode=mode)
    kind = {"diffusive": "homodyne", "counting": "counting"}[mode]
    path = os.path.join(workdir, f"{mode}_summary.csv")
    label = f"{mode}-record"

    def run():
        # Looked up on each call, so that the traced run sees its wrappers.
        states, record = getattr(tr, f"simulate_{kind}")(model, EXCITED, p["steps"] * p["dt"], p["dt"], seed)
        effects = getattr(tr, f"backward_{kind}")(model, record, np.eye(2))
        tr.pqs_summary_csv(tr.PqsPair(states, effects, record), NUMBER, path)
        probs = _read_summary(path)
        filtered_end = float(states.mats[-1][1, 1].real)
        top = np.linalg.eigvalsh(effects.mats)
        checks = [
            (f"{label}/one_row_per_grid_point", probs.shape[0] == record.steps + 1,
             f"{probs.shape[0]} rows for {record.steps} steps"),
            _at_most(f"{label}/probabilities_sum_to_one", float(np.abs(probs.sum(axis=1) - 1.0).max()), 1e-9),
            _at_most(f"{label}/probability_outside_unit_interval",
                     float(max(-probs.min(), probs.max() - 1.0, 0.0)), 1e-12),
            _at_most(f"{label}/smoothed_equals_filtered_at_end", abs(probs[-1, 1] - filtered_end), 1e-12),
            _at_most(f"{label}/effect_norm_defect", float(np.abs(top[:, -1] - 1.0).max()), 1e-9),
            _at_most(f"{label}/negative_effect_eigenvalue", float(max(-top.min(), 0.0)), 1e-9),
        ]
        if mode == "counting":
            jumps = np.flatnonzero(record.increments)
            checks += [
                ("counting-record/no_adjacent_jumps", bool(np.all(np.diff(jumps) > 1)), f"{jumps.size} jumps"),
                _at_most("counting-record/ground_after_each_jump",
                         float(np.abs(probs[jumps + 1, 0] - 1.0).max(initial=0.0)), 1e-12),
            ]
        with open(path, "rb") as fh:
            return checks, hashlib.sha256(fh.read()).hexdigest()

    return label, run


def _cli_item(name, params, workdir):
    cfg = os.path.join(workdir, f"{name}.json")
    with open(cfg, "w") as fh:
        json.dump({"schema_version": cli.SCHEMA_VERSION, **params}, fh)
    out = os.path.join(workdir, name)
    label = f"cli-{name}"

    def run():
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["run", name, "--config", cfg, "--out", out])
        with open(os.path.join(out, "report.json"), "rb") as fh:
            report = fh.read()
        return [(f"{label}/exit_code", code == 0, f"exit code {code}")], hashlib.sha256(report).hexdigest()

    return label, run


def smoothing_thermo(seed, workdir):
    s_dif, s_cnt = _seeds(seed, 2)
    items = [_record_item("diffusive", s_dif, workdir), _record_item("counting", s_cnt, workdir)]
    items += [_cli_item(name, params, workdir) for name, params in CLI_RUNS]
    return items


BUILDERS = {
    "qubit-ensembles": qubit_ensembles,
    "cavity-ensembles": cavity_ensembles,
    "smoothing-thermo": smoothing_thermo,
}


def build(name, seed, workdir):
    """Build a workload's items; raises KeyError for an unknown name."""
    return BUILDERS[name](seed, workdir)
