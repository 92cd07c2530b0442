"""Command-line entry point for benchmark runs.

Usage: ``nmpc-bench scenario.yaml [--scheme rti] [--seed 3] [--out DIR]
[--trials 10] [--dto]``. A pendulum scenario runs one closed loop and
writes ``<name>_log.csv``; a chain scenario runs its seeded trials, one
or more, and writes one log per trial plus a summary. A JSON manifest
echoing the exact config consumed is always written next to the outputs;
it records whether the controller failed and why (per trial on chains).

Exit codes: 0 success, 2 bad configuration, 3 controller failure (in any
trial; a trial that only fails to settle does not count), 4 output I/O
failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import ConfigError, NMPCError
from .harness import (closed_loop_simulate, export_log_csv,
                      export_summary_csv, load_scenario,
                      randomized_chain_trials, stabilizing_time,
                      write_manifest)
from .schemes import _SCHEMES


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nmpc-bench",
        description="Closed-loop benchmark runner for the controller "
                    "schemes in this package.")
    p.add_argument("scenario", help="path to a scenario YAML file")
    p.add_argument("--scheme", choices=_SCHEMES,
                   help="override the scheme selected in the scenario")
    p.add_argument("--seed", type=int, help="override the rng seed")
    p.add_argument("--trials", type=int, help="override the trial count")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--dto", action="store_true",
                   help="run the exact-sensitivity oracle each instant")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.scheme is not None:
            scenario.scheme = dataclasses.replace(scenario.scheme,
                                                  scheme=args.scheme)
        # replace() re-runs the scenario's own checks on the overrides
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        if args.trials is not None:
            scenario = dataclasses.replace(scenario, trials=args.trials)
        if args.dto:
            scenario.scheme = dataclasses.replace(scenario.scheme,
                                                  track_dto=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 4

    stem = f"{scenario.name}_{scenario.scheme.scheme}"
    try:
        if scenario.model_kind == "chain":
            summary = randomized_chain_trials(scenario)
            for i, log in enumerate(summary.logs):
                export_log_csv(log, out / f"{stem}_trial{i}.csv")
            export_summary_csv(summary, out / f"{stem}_summary.csv")
            failures = [{"trial": i, "reason": log.failure_reason}
                        for i, log in enumerate(summary.logs) if log.failed]
            write_manifest(scenario, out / f"{stem}_manifest.json",
                           extra={"n_failures": summary.n_failures,
                                  "mean_t_st": summary.mean_t_st,
                                  "failed": bool(failures),
                                  "failures": failures})
            print(f"{scenario.trials} trials: {summary.n_failures} failures,"
                  f" mean t_st {summary.mean_t_st:.3f} s")
            for f in failures:
                print(f"controller failed in trial {f['trial']}: "
                      f"{f['reason']}", file=sys.stderr)
            return 3 if failures else 0
        log = closed_loop_simulate(scenario)
        export_log_csv(log, out / f"{stem}_log.csv")
        write_manifest(scenario, out / f"{stem}_manifest.json",
                       extra={"failed": log.failed,
                              "failure_reason": log.failure_reason})
        if log.failed:
            print(f"controller failed: {log.failure_reason}",
                  file=sys.stderr)
            return 3
        t_st = stabilizing_time(log, scenario.stabilize_threshold,
                                scenario.duration)
        print(f"{log.n_instants} instants, t_st {t_st:.3f} s")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    except NMPCError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
