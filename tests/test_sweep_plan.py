"""The sweep plan against the plain sweep it replaces.

``microfreq sweep`` runs a cell only once per distinct input, the distinct
cells of a kind in one lockstep batch (``run_cells``), every run on the
one config's plant, gains and MPC matrices. The reference here is the
plain loop: one ``run_scenario`` call per kind, seed and controller, with
outputs written by ``_write_outputs``. Stdout and every file the sweep
writes must be byte-identical to it.
"""

import json
from dataclasses import replace

import pytest

from microfreq import cli, mpc, simulate
from microfreq.cli import _write_outputs, load_run_config, main
from microfreq.lfc_model import SAMPLE_TIME
from microfreq.numerics import QpInfeasibleError
from microfreq.simulate import (
    CONTROLLER_KINDS,
    compute_metrics,
    make_scenario,
    metrics_summary,
    run_scenario,
)


def reference_sweep(kinds, seeds, config, out):
    """The plain sweep: its stdout, with every output written under ``out``."""
    lines, summaries, all_ordered = [], [], True
    for kind in kinds:
        for seed in seeds:
            metrics = {}
            for controller in CONTROLLER_KINDS:
                trace = run_scenario(make_scenario(kind, controller, seed), config)
                metrics[controller] = compute_metrics(trace)
                summaries.append(metrics_summary(trace, metrics[controller]))
                _write_outputs(trace, metrics[controller], str(out))
            mpc, pi_all, pi_dubess = (metrics[c] for c in CONTROLLER_KINDS)
            ordered = (mpc.freq_std < pi_all.freq_std < pi_dubess.freq_std
                       and mpc.max_abs_freq_dev < pi_all.max_abs_freq_dev
                       < pi_dubess.max_abs_freq_dev)
            all_ordered &= ordered
            stds = "/".join(f"{metrics[c].freq_std:.3e}" for c in CONTROLLER_KINDS)
            lines.append(f"{kind:9s} seed={seed:<3d} std {stds} "
                         f"ordered={'yes' if ordered else 'NO'}")
    lines.append(f"all runs ordered mpc < pi_all < pi_dubess: {'yes' if all_ordered else 'NO'}")
    path = out / "sweep_summary.json"
    path.write_text(json.dumps(summaries, indent=2, sort_keys=True) + "\n")
    lines.append(f"wrote {path}")
    return "\n".join(lines) + "\n"


def count_runs(monkeypatch):
    """Count the runs the sweep steps, the rows of every ``run_cells``
    batch; returns the live list of them."""
    calls = []
    real = cli.run_cells

    def counted(scenarios, config):
        calls.extend((scenario, controller) for scenario in scenarios
                     for controller in CONTROLLER_KINDS)
        return real(scenarios, config)

    monkeypatch.setattr(cli, "run_cells", counted)
    return calls


def count_samples_per_run(monkeypatch):
    """A dict whose "sample" is set to 0 as each run or batch starts (at its
    ``_Runs``), for a helper that counts the samples of one run or batch;
    forked sweep workers inherit it and count their own."""
    state = {"sample": 0}
    real = simulate._Runs

    def starting(*args):
        state["sample"] = 0
        return real(*args)

    monkeypatch.setattr(simulate, "_Runs", starting)
    return state


def abort_mpc_at(monkeypatch, sample):
    """Make every MPC run's QP infeasible from ``sample`` on, counted from
    the start of its run or batch. A single run calls ``control_step`` once
    per sample, which then raises; a batch calls ``control_rows`` once per
    sample for all its MPC rows, for the whole batch, whose outcome from
    that sample on lists every row infeasible."""
    state = count_samples_per_run(monkeypatch)

    def failing_step(*args):
        at, state["sample"] = state["sample"], state["sample"] + 1
        if at == sample:
            raise QpInfeasibleError(0)
        return mpc.control_step(*args)

    def failing_rows(*args):
        outcome = mpc.control_rows(*args)
        at, state["sample"] = state["sample"], state["sample"] + 1
        if at >= sample:
            return outcome._replace(infeasible=list(range(len(outcome.commands))))
        return outcome

    monkeypatch.setattr(simulate, "control_step", failing_step)
    monkeypatch.setattr(simulate, "control_rows", failing_rows)


@pytest.mark.parametrize("seeds, kinds, sim, abort_at, runs", [
    ("0,3,3", "step,rapid", None, None, 9),
    ("0,1", "step", {"deload": 0.08}, None, 3),
    ("0,1", "step", {"measurement_noise_std": 1e-5}, None, 6),
    ("0,2", "moderate", {"measurement_noise_std": 1e-5}, 40, 6),
], ids=["repeated-seed", "deload", "measurement-noise", "mpc-abort"])
def test_sweep_matches_the_plain_sweep(tmp_path, monkeypatch, capsys, seeds, kinds, sim,
                                       abort_at, runs):
    config_path = None
    if sim is not None:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"sim": sim}))
    config = load_run_config(config_path)
    if abort_at is not None:
        abort_mpc_at(monkeypatch, abort_at)
    expected = reference_sweep(kinds.split(","), [int(s) for s in seeds.split(",")], config,
                               tmp_path / "plain")

    # The runs are counted in this process, so the batches run in it alone.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    calls = count_runs(monkeypatch)
    argv = ["sweep", "--seeds", seeds, "--kinds", kinds, "--out", str(tmp_path / "plan")]
    assert main(argv + (["--config", str(config_path)] if config_path else [])) == 0
    printed = capsys.readouterr().out

    assert printed == expected.replace(str(tmp_path / "plain"), str(tmp_path / "plan"))
    assert len(calls) == runs
    plain = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "plan").iterdir()) == plain
    for name in plain:
        assert (tmp_path / "plan" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
    if abort_at is not None:
        # The MPC trace stops at the failed sample; the PI runs of its cell
        # keep every row (a header line and one per sample and the terminal).
        samples = round(simulate.DEFAULT_DURATIONS[kinds] / SAMPLE_TIME)
        for seed in seeds.split(","):
            for controller, rows in (("mpc", abort_at), ("pi_all", samples + 1),
                                     ("pi_dubess", samples + 1)):
                stem = f"{kinds}_{controller}_seed{seed}"
                trace = (tmp_path / "plan" / f"trace_{stem}.csv").read_text()
                assert trace.count("\n") == 1 + rows, stem
                metrics = json.loads((tmp_path / "plan" / f"metrics_{stem}.json").read_text())
                assert metrics["aborted_at"] == (abort_at if controller == "mpc" else None)


def test_default_sweep_runs_each_distinct_cell_once(monkeypatch):
    # The step kind draws nothing from its seed, so without measurement
    # noise its five cells are one: 11 distinct cells of 3 controllers, in
    # one batch per kind. Only the runs count here, so each run returns a
    # relabelled 1 s trace.
    stub = run_scenario(make_scenario("step", "mpc", 0, duration=1.0))
    calls, batches = [], []

    def run(scenarios, config):
        batches.append([(scenario.kind, scenario.seed) for scenario in scenarios])
        calls.extend((scenario.kind, scenario.seed, controller)
                     for scenario in scenarios for controller in CONTROLLER_KINDS)
        return iter([[replace(stub, kind=scenario.kind, seed=scenario.seed,
                              controller=controller) for controller in CONTROLLER_KINDS]
                     for scenario in scenarios])

    monkeypatch.setattr(cli, "run_cells", run)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)  # counted in this process
    assert main(["sweep"]) == 0
    assert len(calls) == 33 and len(set(calls)) == 33
    assert {(kind, seed) for kind, seed, _ in calls if kind == "step"} == {("step", 0)}
    assert batches == [[("step", 0)]] + [[(kind, seed) for seed in range(5)]
                                         for kind in ("moderate", "rapid")]


@pytest.mark.parametrize("argv, cells", [
    (["sweep", "--seeds", "0,1", "--kinds", "rapid"], 2),
    (["compare", "--scenario", "rapid", "--seed", "3"], 1),
], ids=["sweep", "compare"])
def test_a_cell_builds_its_disturbances_and_bands_once(monkeypatch, capsys, argv, cells):
    # The three controllers of a cell run on one profile set; its
    # availability, true disturbances and reserve bands are built for the
    # first of them only.
    calls = []
    for name in ("wind_available_power", "pv_available_power", "reserve_limits"):
        real = getattr(simulate, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(simulate, name, counted)
    runs = count_runs(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(runs) == 3 * cells
    assert sorted(calls) == sorted(
        ["wind_available_power", "pv_available_power", "reserve_limits"] * cells)
