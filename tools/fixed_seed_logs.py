"""Write and compare the fixed-seed closed-loop logs of a checkout.

Usage::

    python3 tools/fixed_seed_logs.py write OUT.npz [--duration S]
    python3 tools/fixed_seed_logs.py compare A.npz B.npz

``write`` runs pendulum_n40 from its scenario start and chain_n40 from
its perturbed starts of trials 0-2, each under ``rti``, ``ml`` (interval
2), ``adj``, ``cmon`` and ``cmon`` with the exact-sensitivity oracle
(``track_dto``), and stores every run's plant states, applied controls
and every ``StepDiagnostics`` column, each under the key
``<scenario>.<scheme>.t<trial>.<column>``. ``--duration`` shortens every
run to ``S`` seconds. The script imports nmpckit from the checkout it
sits in, so a copy of it in another checkout of the repository writes
that tree's logs.

``compare`` prints, for each array of either file, ``identical`` or the
largest absolute difference, both as it is and relative to the largest
finite entry of the array in A, and a count of the arrays that differ;
it exits 1 when any does.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nmpckit import harness  # noqa: E402

# (scenario file, trials); trial None runs the scenario's own start
RUNS = (("pendulum_n40", (None,)), ("chain_n40", (0, 1, 2)))
# (label, SchemeConfig changes)
SCHEMES = (("rti", {"scheme": "rti"}),
           ("ml", {"scheme": "ml", "ml_interval": 2}),
           ("adj", {"scheme": "adj"}),
           ("cmon", {"scheme": "cmon"}),
           ("cmon_dto", {"scheme": "cmon", "track_dto": True}))


def fixed_seed_logs(duration=None):
    """Every array of the fixed-seed runs, keyed by run and column."""
    arrays = {}
    for name, trials in RUNS:
        for label, changes in SCHEMES:
            scen = harness.load_scenario(ROOT / "scenarios" / f"{name}.yaml")
            scen.scheme = dataclasses.replace(scen.scheme, **changes)
            if duration is not None:
                scen = dataclasses.replace(scen, duration=duration)
            for trial in trials:
                x0 = None if trial is None \
                    else harness.perturbed_chain_state(scen, trial)
                log = harness.closed_loop_simulate(scen, x0=x0)
                run = f"{name}.{label}.t{0 if trial is None else trial}"
                arrays[f"{run}.states"] = log.states
                arrays[f"{run}.controls"] = log.controls
                for column, values in log.diag.items():
                    arrays[f"{run}.{column}"] = values
    return arrays


def compare(a, b):
    """Lines ``key: identical`` or ``key: max |d| = ..., max |d| / max |a|
    = ...``, one per key of either mapping, and the number of keys that
    differ."""
    lines, differ = [], 0
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            verdict = f"only in {'A' if key in a else 'B'}"
        elif a[key].shape != b[key].shape:
            verdict = f"shape {a[key].shape} != {b[key].shape}"
        elif a[key].tobytes() == b[key].tobytes():
            lines.append(f"{key}: identical")
            continue
        else:
            x, y = a[key], b[key]
            with np.errstate(invalid="ignore"):
                diff = np.abs(x - y)
            # equal infinities and NaN on both sides are no difference;
            # NaN on one side is
            same = (x == y) | (np.isnan(x) & np.isnan(y))
            d = np.where(same, 0.0, diff).max()
            scale = np.abs(x[np.isfinite(x)]).max(initial=0.0)
            rel = d / scale if scale > 0.0 else np.inf
            verdict = f"max |d| = {d:.3e}, max |d| / max |a| = {rel:.3e}"
        lines.append(f"{key}: {verdict}")
        differ += 1
    return lines, differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="run the fixed-seed loops")
    w.add_argument("out", help="the .npz file to write")
    w.add_argument("--duration", type=float,
                   help="seconds per run (default: each scenario's own)")
    c = sub.add_parser("compare", help="compare two written files")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "write":
        np.savez(args.out, **fixed_seed_logs(args.duration))
        return 0
    with np.load(args.a) as fa, np.load(args.b) as fb:
        lines, differ = compare(dict(fa), dict(fb))
    print("\n".join(lines))
    print(f"{differ} of {len(lines)} arrays differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
