"""The fixed-seed log tool: runs repeat bit for bit, and a change shows."""
import dataclasses
import importlib.util
import pathlib

import numpy as np

from nmpckit.schemes import StepDiagnostics

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / \
    "fixed_seed_logs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("fixed_seed_logs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_seed_logs_repeat_and_report_a_change(tmp_path, capsys):
    tool = _tool()
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    for path in (a, b):
        assert tool.main(["write", str(path), "--duration", "0.4"]) == 0
    assert tool.main(["compare", str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"0 of {len(out) - 1} arrays differ"
    assert all(line.endswith(": identical") for line in out[:-1])
    # four runs under five schemes, each with states, controls and every
    # StepDiagnostics field but the instant
    assert len(out) - 1 == 4 * 5 * (1 + len(dataclasses.fields(
        StepDiagnostics)))

    with np.load(b) as f:
        arrays = dict(f)
    key = "chain_n40.cmon.t1.states"
    before = arrays[key].copy()
    arrays[key][-1, 3] += 2.5e-9
    np.savez(b, **arrays)
    assert tool.main(["compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == f"1 of {len(out) - 1} arrays differ"
    # the relative figure divides by the largest entry of the array in A
    rel = (arrays[key][-1, 3] - before[-1, 3]) / np.abs(before).max()
    assert 1e-10 < rel < 1e-8
    assert [line for line in out if not line.endswith(": identical")] \
        == [f"{key}: max |d| = 2.500e-09, max |d| / max |a| = {rel:.3e}",
            out[-1]]
