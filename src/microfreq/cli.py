"""Command-line interface.

Subcommands:
  run      one scenario/controller, writing the trace CSV and metrics JSON
  compare  all three controllers on one scenario, with a comparison table
  sweep    seeds x scenario kinds x controllers, with ordering verdicts
  tune-pi  run the PI gain design and verify both variants' step responses

A JSON config file (--config) can override any default; omitted keys keep
the published values.
"""

import argparse
import contextlib
import dataclasses
import inspect
import json
import os
import pickle
import shutil
import sys

import numpy as np

from .estimator import default_estimator_config
from .lfc_model import MicrogridParams
from .mpc import MpcConfig
from .profiles import PROFILE_KINDS, read_profiles_csv
from .simulate import (
    CONTROLLER_KINDS,
    RunConfig,
    compute_metrics,
    make_scenario,
    metrics_summary,
    run_cells,
    run_scenario,
    step_response_metrics,
    write_trace_csv,
)

# Config file sections, each mapping its keys to the defaults they override:
# "microgrid" and "mpc" keys are the fields of MicrogridParams and MpcConfig,
# "estimator" keys default_estimator_config's arguments, "pi" keys the two
# gains (None: the gain design) and "sim" keys the RunConfig field of the
# same name. A key's default also gives the JSON type its value must have.
_RUN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}
SIM_KEYS = ("deload", "dispatch_du_kw", "dispatch_bess_kw", "measurement_noise_std")
CONFIG_DEFAULTS = {
    "microgrid": {f.name: f.default for f in dataclasses.fields(MicrogridParams)},
    "mpc": {f.name: f.default for f in dataclasses.fields(MpcConfig)},
    "estimator": {name: arg.default for name, arg
                  in inspect.signature(default_estimator_config).parameters.items()},
    "pi": {"kp": _RUN_DEFAULTS["pi_kp"], "ki": _RUN_DEFAULTS["pi_ki"]},
    "sim": {key: _RUN_DEFAULTS[key] for key in SIM_KEYS},
}


def _known(what, given, allowed):
    """``given`` (a dict), rejecting any key not in ``allowed``."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; expected some of {list(allowed)}")
    return given


def _json_object(what, value):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(value)}")
    return value


def _section(raw, name):
    """The keys given in config section ``name``, each value checked against
    the type of its default: true or false for a bool, an integer for an
    int, and otherwise a number (not true or false)."""
    given = _json_object(f"config section {name}", raw.get(name, {}))
    for key, value in _known(f"{name} config keys", given, CONFIG_DEFAULTS[name]).items():
        default = CONFIG_DEFAULTS[name][key]
        if isinstance(default, bool):
            kind, ok = "true or false", isinstance(value, bool)
        elif isinstance(default, int):
            kind, ok = "an integer", isinstance(value, int) and not isinstance(value, bool)
        else:
            kind, ok = "a number", isinstance(value, (int, float)) and not isinstance(value, bool)
        if not ok:
            raise ValueError(f"config {name}.{key} must be {kind}, got {json.dumps(value)}")
    return given


def _finite_number(token):
    """A JSON number token as an int (integer tokens) or a float;
    ValueError naming the token when it is NaN, Infinity, -Infinity or,
    integer or not, too large for a float."""
    if not np.isfinite(float(token)):
        raise ValueError(f"config value {token} is not finite")
    return int(token) if token.lstrip("-").isdigit() else float(token)


def load_run_config(path=None):
    """Parse an optional JSON override file into a RunConfig, which checks
    and derives the rest."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh, parse_float=_finite_number, parse_int=_finite_number,
                            parse_constant=_finite_number)
    _known("config sections", _json_object("config file", raw), CONFIG_DEFAULTS)
    params = MicrogridParams(**_section(raw, "microgrid"))
    mpc = MpcConfig(**_section(raw, "mpc"))
    estimator = default_estimator_config(**_section(raw, "estimator"))
    pi = _section(raw, "pi")
    return RunConfig(
        params=params,
        mpc=mpc,
        estimator=estimator,
        pi_kp=pi.get("kp"),
        pi_ki=pi.get("ki"),
        **_section(raw, "sim"),
    )


def _profiles_from_args(args):
    """The --profiles recording, or None (generated profiles) when no file
    is given or the file is missing; a missing file is warned about."""
    if args.profiles is None:
        return None
    if os.path.exists(args.profiles):
        return read_profiles_csv(args.profiles)
    print(
        f"warning: profile file {args.profiles} not found; "
        f"using generated {args.scenario} profiles for seed {args.seed}",
        file=sys.stderr,
    )
    return None


def _ordered(per_controller):
    """The ordering verdict: mpc < pi_all < pi_dubess on both the standard
    deviation and the largest absolute deviation of frequency."""
    mpc_m, pa_m, pd_m = (per_controller[c] for c in ("mpc", "pi_all", "pi_dubess"))
    return (
        mpc_m.freq_std < pa_m.freq_std < pd_m.freq_std
        and mpc_m.max_abs_freq_dev < pa_m.max_abs_freq_dev < pd_m.max_abs_freq_dev
    )


def _write_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _output_paths(out_dir, summary):
    """The trace CSV and metrics JSON paths, in ``out_dir`` (created if
    missing), of the run a metrics summary labels."""
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{summary['scenario']}_{summary['controller']}_seed{summary['seed']}"
    return (os.path.join(out_dir, f"trace_{stem}.csv"),
            os.path.join(out_dir, f"metrics_{stem}.json"))


def _write_outputs(trace, metrics, out_dir):
    summary = metrics_summary(trace, metrics)
    trace_path, metrics_path = _output_paths(out_dir, summary)
    write_trace_csv(trace, trace_path)
    _write_json(summary, metrics_path)
    return trace_path, metrics_path


def _summary_line(trace, metrics):
    settle = "n/a" if np.isnan(metrics.settle_time) else f"{metrics.settle_time:.1f}s"
    return (
        f"{trace.kind:9s} {trace.controller:10s} seed={trace.seed:<3d} "
        f"max|df|={metrics.max_abs_freq_dev:.6e}  std={metrics.freq_std:.6e}  "
        f"settle={settle}  violations={metrics.constraint_violations}"
    )


def cmd_run(args):
    config = load_run_config(args.config)
    scenario = make_scenario(
        args.scenario, args.controller, args.seed, profiles=_profiles_from_args(args)
    )
    trace = run_scenario(scenario, config)
    metrics = compute_metrics(trace)
    print(_summary_line(trace, metrics))
    if trace.aborted_at is not None:
        print(f"  run aborted at step {trace.aborted_at} (controller failure); partial trace kept")
    if args.out:
        trace_path, metrics_path = _write_outputs(trace, metrics, args.out)
        print(f"  wrote {trace_path}\n  wrote {metrics_path}")
    return 0


def _cell(scenario):
    """Every controller on one scenario, whichever controller it names."""
    return [dataclasses.replace(scenario, controller=controller)
            for controller in CONTROLLER_KINDS]


def _results(traces):
    """A cell's traces as {controller: (trace, metrics)}."""
    return {trace.controller: (trace, compute_metrics(trace)) for trace in traces}


def _sweep_plan(kinds, seeds, config):
    """Yield the sweep's cells in order as (kind, seed, results, first).
    ``results`` is a cell's {controller: (trace, metrics)}, or None when the
    cell's inputs repeat an earlier cell's: then ``first`` is that cell's
    (kind, seed). Inputs repeat when the profiles have the same digest and,
    with measurement noise on, the seed is the same (a run draws nothing
    else from it). The distinct cells of a kind share their number of
    samples, so they run as one batch (``run_cells``).

    The batches run in min(usable CPUs, batches) processes
    (``_run_batches``), and the plan yields the same cells, bit for bit,
    whatever that number is."""
    first_of, plan, batches = {}, [], []
    for kind in kinds:
        cells = []
        for seed in seeds:
            scenario = make_scenario(kind, CONTROLLER_KINDS[0], seed)
            key = (scenario.profiles.digest(), seed if config.measurement_noise_std else None)
            first = first_of.get(key)
            if first is None:
                first_of[key] = (kind, seed)
                cells.append(_cell(scenario))
            plan.append((kind, seed, first))
        if cells:
            batches.append(cells)
    ran = _run_batches(batches, config)
    try:
        for kind, seed, first in plan:
            yield kind, seed, None if first else next(ran), first
    finally:
        ran.close()  # ends the workers of a sweep closed before its last cell


def _usable_cpus():
    """The CPUs this process may run on (its affinity mask, so ``taskset -c
    0`` gives 1), or 1 off Linux: a sweep runs in at most this many
    processes, and forks its workers."""
    if sys.platform != "linux":
        return 1
    return len(os.sched_getaffinity(0))


def _owners(batches, processes):
    """The process of each batch, 0 being the caller's: longest first by
    cells x samples, each batch goes to the process with the least load so
    far (the lowest on ties)."""
    loads, owners = [0] * processes, [0] * len(batches)
    sizes = [len(cells) * cells[0][0].n_steps for cells in batches]
    for at in sorted(range(len(batches)), key=lambda at: -sizes[at]):
        owners[at] = process = loads.index(min(loads))
        loads[process] += sizes[at]
    return owners


def _run_batches(batches, config):
    """Every distinct cell's results, in order, from ``batches`` (lists of
    cells) run in min(usable CPUs, batches) processes.

    With one process, the batches run one at a time, each finishing its
    traces a cell at a time as they are yielded. Otherwise this process and
    forked workers (``_sweep_worker``) each run their share (``_owners``) at
    once: the batches share nothing at run time, since a QP law depends on
    its active set alone. Nothing is yielded until every worker has finished
    and pickled all its cells, so no worker computes while the cells are
    yielded. This process finishes its own cells as they are yielded and
    reads each worker's cells from its pipe, in order, one at a time, so it
    holds its own batches and one received cell. A worker's error is raised
    here, with its type and message, where that worker's cells stop. Every
    worker is ended and reaped when the generator ends, is closed or
    raises."""
    processes = min(_usable_cpus(), len(batches))
    if processes <= 1:
        for cells in batches:
            yield from map(_results, run_cells(cells, config))
        return
    import multiprocessing  # only here: a serial sweep does not pay its import
    owners = _owners(batches, processes)
    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for worker in range(1, processes):
            receiver, sender = context.Pipe(duplex=False)
            share = [cells for cells, owner in zip(batches, owners) if owner == worker]
            process = context.Process(target=_sweep_worker, args=(sender, share, config),
                                      daemon=True)
            process.start()
            workers.append((process, receiver))
            sender.close()
        own = {at: run_cells(cells, config)
               for at, (cells, owner) in enumerate(zip(batches, owners)) if owner == 0}
        for _, receiver in workers:
            receiver.poll(None)  # a worker sends once it has finished computing
        for at, (cells, owner) in enumerate(zip(batches, owners)):
            if owner == 0:
                yield from map(_results, own.pop(at))
                continue
            process, receiver = workers[owner - 1]
            for _ in cells:
                try:
                    message = pickle.loads(receiver.recv_bytes())
                except EOFError:
                    process.join()
                    raise RuntimeError(f"a sweep worker exited with code {process.exitcode} "
                                       "before sending all its cells") from None
                if isinstance(message, tuple):
                    error, where = message
                    raise error from RuntimeError(f"in a sweep worker:\n{where}")
                yield message
    finally:
        for process, receiver in workers:
            receiver.close()
            process.terminate()
            process.join()


def _sweep_worker(sender, batches, config):
    """A forked sweep worker: run ``batches`` and send each cell's results
    through ``sender``, pickled, in order. Every cell is finished and
    pickled before the first is sent. An error ends the cells with a last
    message, (error, traceback text). Ctrl-C is left to the parent, which
    ends its workers."""
    import signal
    import traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    messages = []
    try:
        for cells in batches:
            for traces in run_cells(cells, config):
                messages.append(pickle.dumps(_results(traces), pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # the parent raises it
        messages.append(pickle.dumps((exc, traceback.format_exc())))
    try:
        for message in messages:
            sender.send_bytes(message)
    except BrokenPipeError:
        pass  # the sweep was closed early
    finally:
        sender.close()


def cmd_compare(args):
    config = load_run_config(args.config)
    scenario = make_scenario(
        args.scenario, CONTROLLER_KINDS[0], args.seed, profiles=_profiles_from_args(args))
    results = _results(next(run_cells([_cell(scenario)], config)))
    print(f"scenario={args.scenario} seed={args.seed}")
    print(f"{'controller':12s} {'freq_std':>14s} {'max_abs_dev':>14s} {'settle_s':>9s}")
    for controller in CONTROLLER_KINDS:
        _, m = results[controller]
        print(
            f"{controller:12s} {m.freq_std:14.6e} {m.max_abs_freq_dev:14.6e} "
            f"{m.settle_time:9.1f}"
        )
    ordered = _ordered({controller: m for controller, (_, m) in results.items()})
    print(f"ordering mpc < pi_all < pi_dubess: {'yes' if ordered else 'NO'}")
    if args.out:
        for controller in CONTROLLER_KINDS:
            _write_outputs(*results[controller], args.out)
        print(f"wrote traces and metrics under {args.out}")
    return 0


def cmd_sweep(args):
    config = load_run_config(args.config)
    summaries = []
    all_ordered = True
    ran = {}  # {(kind, seed): {controller: (summary, metrics)}} of the cells that ran
    # Closed here even when this loop raises, so the sweep's workers end with it.
    with contextlib.closing(_sweep_plan(args.kinds, args.seeds, config)) as plan:
        for kind, seed, results, first in plan:
            if first is None:
                ran[(kind, seed)] = {controller: (metrics_summary(trace, metrics), metrics)
                                     for controller, (trace, metrics) in results.items()}
            cell = ran[first or (kind, seed)]
            for controller, (summary, _) in cell.items():
                labelled = dict(summary, scenario=kind, seed=seed)
                summaries.append(labelled)
                if args.out:
                    trace_path, metrics_path = _output_paths(args.out, labelled)
                    if first is None:
                        write_trace_csv(results[controller][0], trace_path)
                    elif (source := _output_paths(args.out, summary)[0]) != trace_path:
                        # Identical inputs gave the first cell's trace; its CSV holds no label.
                        shutil.copyfile(source, trace_path)
                    _write_json(labelled, metrics_path)
            ordered = _ordered({controller: metrics for controller, (_, metrics) in cell.items()})
            all_ordered &= ordered
            stds = "/".join(f"{cell[c][1].freq_std:.3e}" for c in CONTROLLER_KINDS)
            print(f"{kind:9s} seed={seed:<3d} std {stds} ordered={'yes' if ordered else 'NO'}")
            # No trace outlives its cell, but a batch keeps the records of all
            # its cells (each run's frequency, outputs, commands and d_hat,
            # each cell's disturbances and limits) until its last cell is
            # written: about 0.6 MB per distinct cell of 900 samples. In one
            # process the sweep holds one batch at a time. In several, this
            # process holds all of its own batches and one cell received from
            # a worker, and each worker its batches and its pickled cells.
            del results
    print(f"all runs ordered mpc < pi_all < pi_dubess: {'yes' if all_ordered else 'NO'}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "sweep_summary.json")
        _write_json(summaries, path)
        print(f"wrote {path}")
    return 0


def cmd_tune_pi(args):
    config = load_run_config(args.config)
    tuned = dataclasses.replace(config, pi_kp=None, pi_ki=None)  # the design on the ratings
    kp, ki = tuned.pi_kp, tuned.pi_ki
    print(f"designed gains: kp={kp:.6g} ki={ki:.6g}")
    results = {"kp": kp, "ki": ki}
    for name in ("pi_all", "pi_dubess"):
        metrics = step_response_metrics(name, tuned)
        results[name] = metrics
        print(
            f"{name:10s} step verification: peak={metrics['peak']:.6e} "
            f"settle={metrics['settle_time']:.1f}s itae={metrics['itae']:.4f} "
            f"zero_crossings={metrics['zero_crossings']}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "pi_gains.json")
        _write_json(results, path)
        print(f"wrote {path}")
    return 0


def _seed(token):
    """A scenario seed: numpy's generators take only integers >= 0."""
    if not token.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"invalid seed {token!r}: expected an integer >= 0")
    return int(token)


def _kind(token):
    if token.strip() not in PROFILE_KINDS:
        raise argparse.ArgumentTypeError(
            f"invalid scenario kind {token!r}: expected one of {', '.join(PROFILE_KINDS)}")
    return token.strip()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="microfreq",
        description="Microgrid secondary-frequency control simulator and controller comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, controller=False, scenario=True, seed=True):
        if scenario:
            p.add_argument("--scenario", choices=PROFILE_KINDS, default="step")
        if controller:
            p.add_argument("--controller", choices=CONTROLLER_KINDS, default="mpc")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument(
            "--profiles", default=None, help="profile CSV (missing file: warning, then generated)"
        )
        p.add_argument("--out", default=None, help="output directory for traces/metrics")
        p.add_argument("--config", default=None, help="JSON config override file")

    p_run = sub.add_parser("run", help="run one scenario with one controller")
    add_common(p_run, controller=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run all three controllers on one scenario")
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="run seeds x kinds x controllers")
    p_sweep.add_argument("--seeds", default="0,1,2,3,4",
                         type=lambda text: [_seed(token) for token in text.split(",")])
    p_sweep.add_argument("--kinds", default=",".join(PROFILE_KINDS),
                         type=lambda text: [_kind(token) for token in text.split(",")])
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--config", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tune = sub.add_parser("tune-pi", help="run the PI gain design and verification")
    p_tune.add_argument("--out", default=None)
    p_tune.add_argument("--config", default=None)
    p_tune.set_defaults(func=cmd_tune_pi)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
