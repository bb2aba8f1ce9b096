"""The program census's attribution, on a toy package instead of the
repository's programs (``benchmarks/program_census.py``)."""

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


def outer_dead():
    return inner_dead() + 1


def inner_dead():
    return 4


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
    core.outer_dead()
'''


@pytest.fixture
def toy(tmp_path):
    """``censustoy.core`` and ``censustoy.check.spec``, imported from
    ``tmp_path``; a program calls ``reached``, ``run_thread`` and
    ``check.spec.audit``, a test calls ``test_only``."""
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

        census = census_module.Census(str(tmp_path), "censustoy", os.path.join("censustoy", "check"))
        with census:
            core.reached()
            core.run_thread()
            spec.audit()
        core.test_only()  # a test, not a program
        found = census_module.functions(str(tmp_path), "censustoy", os.path.join("censustoy", "check"))
        groups = census_module.unreached(found, census.reached, census.edges)
        yield {head.qualname: [f.qualname for f in folded] for head, folded in groups}
    finally:
        sys.path.remove(str(tmp_path))
        for name in [name for name in sys.modules if name.split(".")[0] == "censustoy"]:
            del sys.modules[name]


def test_a_function_only_a_test_calls_is_listed(toy):
    assert "test_only" in toy


def test_a_function_only_check_calls_is_listed(toy):
    assert "checked" in toy


def test_reached_functions_are_not_listed(toy):
    assert not {"reached", "helper_reached", "run_thread"} & set(toy)


def test_a_call_on_a_second_thread_counts_as_reached(toy):
    assert "on_thread" not in toy


def test_only_the_outermost_unreached_function_is_listed(toy):
    # inner_dead is reached only through outer_dead; nested is defined in never_called
    assert toy == {
        "test_only": [],
        "checked": [],
        "outer_dead": ["inner_dead"],
        "never_called": [],
    }


def test_the_check_package_itself_is_not_listed(toy):
    assert "audit" not in toy
