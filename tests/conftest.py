import tracemalloc

import pytest

_acceptance = {}


@pytest.fixture
def refused_before_allocation():
    """Check that call(*args) hits the dense limit having allocated < 1 MB."""
    def check(call, *args):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense limit"):
                call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
    return check


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    n = marker.args[0]
    if rep.failed:
        _acceptance[n] = False
    elif rep.when == "call" and rep.passed:
        _acceptance.setdefault(n, True)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_acceptance):
        verdict = "PASS" if _acceptance[n] else "FAIL"
        terminalreporter.write_line("ACCEPTANCE criterion %d: %s" % (n, verdict))
