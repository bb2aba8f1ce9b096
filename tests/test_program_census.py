"""The program census's attribution, on a toy package instead of the
repository's programs (``benchmarks/program_census.py``), and its
committed results file against ``src/``."""

import importlib.util
import os
import sys
import textwrap

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "program_census.py")
_spec = importlib.util.spec_from_file_location("program_census", _PATH)
census_module = sys.modules.setdefault("program_census", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(census_module)

_CORE = '''
import threading


def reached():
    return helper_reached()


def helper_reached():
    return 1


def test_only():
    return 2


def checked():
    return 3


def branchy(flag):
    if flag:
        return "check"
    return "program"


def validate(value):
    if value < 0:
        raise ValueError("negative")
    return value


def on_thread():
    return 5


def run_thread():
    thread = threading.Thread(target=on_thread)
    thread.start()
    thread.join()


def never_called():
    def nested():
        return 6

    return nested()
'''

_SPEC = '''
from .. import core


def audit():
    core.checked()
    core.branchy(True)
'''


@pytest.fixture
def toy(tmp_path):
    """``censustoy.core`` and ``censustoy.check.spec``, imported from
    ``tmp_path``; a program calls ``reached``, ``branchy(False)``,
    ``validate(1)``, ``run_thread`` and ``check.spec.audit``, a test
    calls ``test_only``. Yields the census's entries by key."""
    files = {
        "censustoy/__init__.py": "",
        "censustoy/core.py": _CORE,
        "censustoy/check/__init__.py": "",
        "censustoy/check/spec.py": _SPEC,
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    sys.path.insert(0, str(tmp_path))
    try:
        from censustoy import core
        from censustoy.check import spec

        excluded = os.path.join("censustoy", "check")
        census = census_module.Census(str(tmp_path), "censustoy", excluded)
        with census:
            core.reached()
            core.branchy(False)
            core.validate(1)
            core.run_thread()
            spec.audit()
        core.test_only()  # a test, not a program
        found = census_module.functions(str(tmp_path), "censustoy", excluded)
        entries = census_module.unrun(str(tmp_path), found, census.ran)
        yield {entry.key.split(":", 1)[1]: entry for entry in entries}
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.split(".")[0] == "censustoy"]:
            del sys.modules[name]


def test_a_function_only_a_test_calls_is_listed(toy):
    assert toy["test_only"].statement is None


def test_a_function_only_check_calls_is_listed(toy):
    assert toy["checked"].statement is None


def test_reached_functions_are_not_listed(toy):
    assert not {"reached", "helper_reached", "run_thread"} & set(toy)


def test_a_call_on_a_second_thread_counts_as_reached(toy):
    assert "on_thread" not in toy


def test_only_the_outermost_unreached_function_is_listed(toy):
    # nested is defined in never_called: folded in, its line counted there
    assert "never_called.<locals>.nested" not in toy
    assert toy["never_called"].lines == 2 + 1


def test_the_check_package_itself_is_not_listed(toy):
    assert not [key for key in toy if key.startswith("audit")]


def test_a_branch_taken_only_under_check_is_unrun(toy):
    entry = toy['branchy | return "check"']
    assert (entry.lines, entry.validation) == (1, False)


def test_a_run_of_raise_statements_is_validation(toy):
    entry = toy['validate | raise ValueError("negative")']
    assert (entry.lines, entry.validation) == (1, True)


def test_a_function_that_ran_no_line_is_unreached(toy):
    assert set(toy) == {
        "test_only", "checked", "never_called", 'branchy | return "check"',
        'validate | raise ValueError("negative")'}
    assert {key for key, entry in toy.items() if entry.statement is None} == {
        "test_only", "checked", "never_called"}


def test_every_kept_key_names_a_function_and_line_under_src():
    """A kept row of the committed results file, and a ``KEPT`` key,
    names a function that still exists and, for a run, a line of it."""
    root = census_module.ROOT
    functions = {f.name: f for f in census_module.functions(root)}
    texts = {}

    def stale(key):
        name, _, statement = key.partition(" | ")
        function = functions.get(name)
        if function is None:
            return True
        if function.path not in texts:
            with open(os.path.join(root, function.path)) as handle:
                texts[function.path] = handle.read().splitlines()
        return bool(statement) and all(texts[function.path][line - 1].strip() != statement
                                       for line in function.lines)

    with open(census_module.OUTPUT) as handle:
        sections = handle.read().split("\n## ")
    (kept,) = [section for section in sections if section.startswith("Kept (")]
    # a row: "<lines>  <key>  -- <reason>"
    rows = [line.rsplit("  -- ", 1)[0].split(None, 1)[1] for line in kept.splitlines()[1:] if line]
    assert rows
    assert [key for key in rows + sorted(census_module.KEPT) if stale(key)] == []
