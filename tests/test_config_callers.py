"""Every ``*Config`` field and every CLI flag has a caller.

A field that nothing outside the tests sets is a knob nobody turns: its
default is the only value that ever runs, and a branch it switches is
dead code in every deployment. Such a value belongs in a named module
constant. This scan fails on any field of a ``*Config`` dataclass under
``src/repro/`` that no caller sets, unless :data:`ALLOWLIST` names it
with a reason.

A caller is a module under ``src/repro/`` outside ``repro/check/``, a
benchmark or an example; tests and the ``repro check`` harness do not
count. A caller sets a field when it
- names the field as a keyword argument of any call: to its class, or
  to a helper that hands the value on (``run_demo(burst=...)``);
- passes it by position to its class;
- or spreads a dict literal naming it into its class
  (``DetectorConfig(**{**base.__dict__, **overrides})``).

Matching is by name, not by type, so a keyword of the same name on an
unrelated call credits the field too. The scan errs toward passing; it
exists so that a new knob cannot land without a caller.

A CLI flag's caller is a CI job that passes it, or a test that drives
``repro.cli`` or an example that names it in a string literal.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: ``(class, field) -> reason``: fields kept without a caller. At most five.
ALLOWLIST = {
    ("TrainConfig", "clip_norm"): "the protected ledger's traced train loop reads it",
    ("DriftConfig", "psi_alert"): "ROADMAP item 12 replaces the raw thresholds with alpha",
    ("DriftConfig", "ks_alert"): "ROADMAP item 12 replaces the raw thresholds with alpha",
    ("ElasticConfig", "skip_budget"): (
        "the supervised-round-vs-engine scenario schedules up to workers x epochs "
        "corrupt shards and sets the budget to match"
    ),
    ("ServiceConfig", "rate"): (
        "the admission rate limit a deployment sets; the default inf leaves it off"
    ),
}


def _modules(root: Path, package: str):
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[0] == "check":
            continue
        name = ".".join((package,) + tuple(p for p in parts if p != "__init__"))
        yield name, path


def config_fields():
    """``{class name: [field, ...]}`` for every ``*Config`` dataclass."""
    found = {}
    for name, path in _modules(PACKAGE, "repro"):
        tree = ast.parse(path.read_text())
        classes = [
            node.name
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        ]
        if not classes:
            continue
        module = importlib.import_module(name)
        for cls in classes:
            if dataclasses.is_dataclass(getattr(module, cls)):
                found[cls] = [f.name for f in dataclasses.fields(getattr(module, cls))]
    return found


def _caller_files():
    yield from (path for _, path in _modules(PACKAGE, "repro"))
    yield from sorted((ROOT / "benchmarks").rglob("*.py"))
    yield from sorted((ROOT / "examples").rglob("*.py"))


def fields_with_a_caller(fields):
    """``{(class, field)}`` that some caller module sets."""
    named_anywhere = set()
    credited = set()
    for path in _caller_files():
        tree = ast.parse(path.read_text())
        dict_keys = {
            key.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            named_anywhere.update(kw.arg for kw in node.keywords if kw.arg)
            func = node.func
            cls = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if cls not in fields:
                continue
            credited.update((cls, f) for f in fields[cls][: len(node.args)])
            if any(kw.arg is None for kw in node.keywords):
                credited.update((cls, f) for f in fields[cls] if f in dict_keys)
    credited.update((cls, f) for cls, names in fields.items() for f in names if f in named_anywhere)
    return credited


def test_every_config_field_has_a_caller_or_an_allowlisted_reason():
    fields = config_fields()
    credited = fields_with_a_caller(fields)
    orphans = sorted(
        f"{cls}.{name}"
        for cls, names in fields.items()
        for name in names
        if (cls, name) not in credited and (cls, name) not in ALLOWLIST
    )
    assert not orphans, (
        f"config fields no caller sets: {orphans}. Make each a module constant "
        "(and delete the branch it switches), or give it a caller"
    )


def test_the_allowlist_is_short_and_current():
    fields = config_fields()
    credited = fields_with_a_caller(fields)
    assert len(ALLOWLIST) <= 5
    for (cls, name), reason in ALLOWLIST.items():
        assert name in fields.get(cls, ()), f"{cls}.{name} is gone: drop it from the allowlist"
        assert (cls, name) not in credited, f"{cls}.{name} has a caller now: drop it"
        assert reason


CLI = PACKAGE / "cli.py"


def cli_flags():
    """Every ``--flag`` the CLI's parsers declare."""
    return {
        arg.value
        for node in ast.walk(ast.parse(CLI.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }


def _drives_the_cli(tree) -> bool:
    return any(
        isinstance(node, ast.ImportFrom)
        and (node.module == "repro.cli" or any(alias.name == "cli" for alias in node.names))
        for node in ast.walk(tree)
    )


def flags_with_a_caller():
    """Every ``--word`` a CI job runs, and every string (up to an ``=``)
    a test that drives the CLI or an example names."""
    words = set()
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        words.update(re.findall(r"--[a-z][a-z0-9-]*", path.read_text()))
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    for path in [*tests, *sorted((ROOT / "examples").rglob("*.py"))]:
        tree = ast.parse(path.read_text())
        if path in tests and not _drives_the_cli(tree):
            continue
        words.update(
            node.value.split("=")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    return words


def test_every_cli_flag_has_a_caller():
    """A flag nothing passes is a knob nobody turns: give it a caller
    that CI runs, or delete it with the branch it switches."""
    orphans = sorted(cli_flags() - flags_with_a_caller())
    assert not orphans, f"CLI flags no CI job, CLI test or example passes: {orphans}"
