import pytest
from hypothesis import settings

# Every run draws the same examples, so the suite's time and what it
# checks repeat from run to run; each test keeps its own example count.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run the opt-in extended-scale checks (hours, large scratch)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="extended-scale; enable with --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)
