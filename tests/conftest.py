from pathlib import Path

import pytest
from hypothesis import settings

from reconfcheck import build_automaton, parse_formula, parse_model, parse_path, \
    parse_recipes

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

# the same examples on every run, and no per-example deadline: a slow or
# shared machine must not turn a passing property into a flaky failure
settings.register_profile("reconfcheck", derandomize=True, deadline=None)
settings.load_profile("reconfcheck")


@pytest.fixture(scope="session")
def samples_dir() -> Path:
    return SAMPLES


@pytest.fixture(scope="session")
def http_model():
    return parse_model((SAMPLES / "http.arch").read_text())


@pytest.fixture(scope="session")
def http_recipes():
    return parse_recipes((SAMPLES / "http.ops").read_text())


@pytest.fixture(scope="session")
def http_ops(http_recipes):
    return http_recipes.operation_table()


@pytest.fixture(scope="session")
def base_path(http_recipes):
    return parse_path((SAMPLES / "server.rp").read_text(),
                      known_ops=http_recipes.names())


@pytest.fixture(scope="session")
def base_automaton(base_path):
    return build_automaton(base_path)


@pytest.fixture(scope="session")
def cache_formula(http_recipes):
    return parse_formula((SAMPLES / "cacheconnected.ftpl").read_text(),
                         known_ops=http_recipes.names())
