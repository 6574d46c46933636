"""Shared test state: collects acceptance-criterion outcomes so the
terminal summary can print one pass/fail line per criterion, and loads the
Hypothesis profile of the suite."""

from hypothesis import settings

# the same examples on every run, and no per-example deadline (a first
# example pays for imports and caches)
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

ACCEPTANCE = {}


def start_criterion(number, description):
    ACCEPTANCE[number] = {"description": description, "passed": False}


def pass_criterion(number):
    ACCEPTANCE[number]["passed"] = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(ACCEPTANCE):
        entry = ACCEPTANCE[number]
        status = "PASS" if entry["passed"] else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d}: {status} - {entry['description']}"
        )
