"""Render identity: which simulator runs never changes a report.

The engine runs every LRU simulation on the vectorized kernel.  Forcing
its dispatch predicate to pick the behavioural model for every
simulation must leave each rendered byte of the paper's EPI figures
unchanged.
"""

import pytest

from repro.engine import backends
from repro.engine.session import SimulationSession, use_session
from repro.experiments.registry import run_experiment


def _render(experiment_id: str) -> str:
    # A fresh session per render: no result memo is shared between the
    # two sides.
    with SimulationSession() as session, use_session(session):
        return run_experiment(experiment_id, trace_length=3_000).render()


@pytest.mark.parametrize("experiment_id", ["fig3", "fig4"])
def test_behavioural_model_renders_identically(experiment_id, monkeypatch):
    vectorized = _render(experiment_id)
    reference_calls = []
    real = backends.simulate_reference

    def counting(*args, **kwargs):
        reference_calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(backends, "vectorizable", lambda policy: False)
    monkeypatch.setattr(backends, "simulate_reference", counting)
    assert _render(experiment_id) == vectorized
    assert reference_calls  # the forced side really ran the model
