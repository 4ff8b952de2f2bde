"""The benchmark's start ledger reads every start of a fit and of a sweep.

bench/tracing.py wraps ecm._run_chain and reads its arguments and 5-tuple,
so a change to how fit drives its chains would turn the ledger to None and
make the benchmark's traced runs print null metrics; this catches it here.
"""

import sys
from pathlib import Path

import pytest

import cmvmix
from cmvmix.ecm import FitConfig, Kind, fit
from cmvmix.selection import sweep
from cmvmix.simulate import generate, reference_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402

_STARTS = 4


def _traced(run):
    tracer = Tracer()
    tracer.install(cmvmix)
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer.ledger()


def _outcomes(cell):
    return sum(n for key, n in cell.items() if key != "final_logliks")


@pytest.mark.parametrize("kind", [Kind.CMVN, Kind.MVN])
def test_ledger_counts_every_start_of_a_fit(kind):
    data = generate(reference_model(), 40, seed=2)
    ledger = _traced(lambda: fit(data, FitConfig(g=2, n_starts=_STARTS, seed=1), kind))
    assert ledger is not None
    assert list(ledger) == [f"{kind.value}:G=2"]
    assert _outcomes(ledger[f"{kind.value}:G=2"]) == _STARTS


@pytest.mark.parametrize("kind", [Kind.CMVN, Kind.MVN])
def test_ledger_counts_every_start_of_a_sweep(kind):
    data = generate(reference_model(), 40, seed=2)
    ledger = _traced(lambda: sweep(data, [kind], [1, 2], FitConfig(n_starts=_STARTS, seed=1)))
    assert ledger is not None
    assert sorted(ledger) == [f"{kind.value}:G=1", f"{kind.value}:G=2"]
    assert [_outcomes(cell) for cell in ledger.values()] == [_STARTS, _STARTS]
