import pytest

from streamsim.harness import run_scenario
from streamsim.scenario import builtin_scenario_names, load_builtin

try:
    from hypothesis import settings
except ImportError:  # the property tests report the missing module themselves
    pass
else:
    # With CI set, Hypothesis loads its "ci" profile, whose derandomize=True
    # seeds each test from its own code and ignores --hypothesis-seed.  Run
    # with --hypothesis-profile=seeded so that a fixed seed picks the examples.
    settings.register_profile("seeded", derandomize=False, database=None, deadline=None)


@pytest.fixture(scope="session")
def bundled():
    """Run builtin scenarios at most once each; reports are shared."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_scenario(load_builtin(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def grid(bundled):
    """Reports for every builtin scenario."""
    return {name: bundled(name) for name in builtin_scenario_names()}
