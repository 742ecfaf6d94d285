"""The benchmark traces graphgenus from outside, by the (module,
attribute) pairs in perfbench/spans.py.  A rename in the package must
fail here, not only when the benchmark runs."""
from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import graphgenus

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_trace_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert len(spans.TARGETS) == 18
    for mod_name, attr in spans.TARGETS:
        home = importlib.import_module(f"graphgenus.{mod_name}")
        if "." in attr:
            # methods are wrapped through the class dict
            cls_name, meth = attr.split(".")
            target = vars(getattr(home, cls_name)).get(meth)
        else:
            target = getattr(home, attr, None)
        assert callable(target), (mod_name, attr)


def test_selfcheck_weight_call_shape():
    # perfbench/selfcheck.py weighs graphs as gg.weight(gg.builtin(alg), graph)
    assert graphgenus.weight(graphgenus.builtin("gl2"), graphgenus.theta()) == 12


def test_benchmark_selfcheck_passes():
    # the benchmark's own checks import graphgenus from src/
    result = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
