"""Drive a hand-built system through a bare session (the tests' shorthand).

``drive(system, seconds)`` is ``ExperimentSession(simulator=system.simulator,
system=system).drive(seconds)``: no config, no observers, five-second
samples.  Test modules import it as ``from driving import drive`` (the root
``conftest.py`` puts ``tests/`` on the path).
"""

from repro.experiments.session import ExperimentSession


def drive(system, duration_s: float) -> None:
    """Run ``system`` on its own simulator for ``duration_s`` simulated seconds."""
    ExperimentSession(simulator=system.simulator, system=system).drive(duration_s)
