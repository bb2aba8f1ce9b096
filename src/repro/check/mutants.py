"""Planted mutants: each check's proof that it can fail.

A mutant is a small deliberate bug in the code a check guards — one
edit of a function's own source (:func:`edit`), or an attribute swapped
for a replacement built from it — declared beside the scenario
(``@scenario(name, mutants=...)``) or audit (``@invariant(...,
mutants=...)``) that must kill it, so a check and its mutants are one
edit in one file. :meth:`Mutant.planted` plants one for the length of a
``with`` block; :func:`kill` runs its check under it.
``tests/test_check.py`` holds every mutant to its declaration, and
``benchmarks/bench_kill_matrix.py`` runs each against every check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import textwrap
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["CASES_PER_SCENARIO", "MUTANTS", "Mutant", "edit", "first_kill", "kill"]

#: Cases each scenario is dealt against a mutant: ten each for the 13
#: scenarios, the first 130 trials of ``repro check --fuzz 150 --seed 0``.
CASES_PER_SCENARIO = 10


@dataclass(frozen=True)
class Mutant:
    """One planted bug and what its check must report.

    ``target`` is ``"module:Attribute.path"``; ``make`` turns the
    attribute found there into the one planted. ``carries``: substrings
    each text of the failure holds — a scenario's detail as found and as
    shrunk, read as one text, or each audit violation. ``alone``: killed on the
    declared scenario's own cases (another scenario, dealt earlier in a
    full round, sees it too). ``shrinks_to``: the ``(seed, size)`` the
    scenario's failure shrinks to.
    """

    name: str
    target: str
    make: Callable[[object], object]
    carries: Tuple[str, ...] = ()
    alone: bool = False
    shrinks_to: Optional[Tuple[int, int]] = None
    check: str = ""  # set by the decorator it is declared in

    @contextlib.contextmanager
    def planted(self) -> Iterator[None]:
        module, path = self.target.split(":")
        *owners, attribute = path.split(".")
        owner = importlib.import_module(module)
        for name in owners:
            owner = getattr(owner, name)
        real = vars(owner)[attribute]
        setattr(owner, attribute, self.make(real))
        try:
            yield
        finally:
            setattr(owner, attribute, real)


def _edited(real, old: str, new: str):
    """``real`` recompiled from its source with ``old`` replaced by
    ``new`` (a class- or static method stays one). ``old`` must occur
    exactly once, so rewriting the function fails here, loudly, rather
    than leaving a mutant that mutates nothing."""
    if isinstance(real, (classmethod, staticmethod)):
        return type(real)(_edited(real.__func__, old, new))
    function = inspect.unwrap(real)
    source = textwrap.dedent(inspect.getsource(function))
    if source.count(old) != 1:
        raise ValueError(f"{old!r} is not (or no longer) in {function.__qualname__}")
    scope: Dict[str, object] = {}
    exec(compile(source.replace(old, new), "<mutant>", "exec"), function.__globals__, scope)
    return scope[function.__name__]


def edit(name: str, target: str, old: str, new: str, *carries: str, **pins) -> Mutant:
    """A mutant one edit away from the code that runs: ``target``
    recompiled with ``old`` replaced by ``new``."""
    return Mutant(name, target, lambda real: _edited(real, old, new), carries, **pins)


MUTANTS: Dict[str, Mutant] = {}


def register(check: str, mutants: Iterable[Mutant]) -> None:
    """Add ``mutants``, each to be killed by ``check``."""
    for mutant in mutants:
        if mutant.name in MUTANTS:
            raise ValueError(f"duplicate mutant {mutant.name!r}")
        MUTANTS[mutant.name] = dataclasses.replace(mutant, check=check)


def kill(mutant: Mutant) -> Tuple[Optional[str], Optional[Tuple[int, int]], List[str]]:
    """Run ``mutant``'s check with it planted: ``(where, (seed, size),
    texts)``. For a scenario, the scenario the ``--fuzz 150 --seed 0``
    round (with ``alone``, the declared scenario's own ten cases) fails
    first in, the case that shrinks to and its detail as found and as
    shrunk (one text); for an audit, the audit and its violations.
    ``where`` is ``None`` if nothing failed."""
    from .fuzz import SCENARIOS, run_fuzz
    from .invariants import run_audits

    with mutant.planted():
        if mutant.check not in SCENARIOS:
            (result,) = run_audits([mutant.check])
            return (mutant.check if result.violations else None), None, result.violations
        names = [mutant.check] if mutant.alone else list(SCENARIOS)
        report = run_fuzz(CASES_PER_SCENARIO * len(names), seed=0, names=names)
    if report.ok:
        return None, None, []
    failure = report.failures[0]
    shrunk = (failure.shrunk_seed, failure.shrunk_size)
    return failure.scenario, shrunk, [f"{failure.detail}\n{failure.shrunk_detail}"]


def first_kill(mutant: Mutant, check: str) -> Optional[int]:
    """With ``mutant`` planted, the index of the first of scenario
    ``check``'s ten cases in the ``--fuzz 150 --seed 0`` round that
    fails, unshrunk (for an audit: 0 if it reports a violation or
    raises); ``None`` if the mutant lives."""
    from .fuzz import SCENARIOS, _case, run_case
    from .invariants import run_audits

    with mutant.planted():
        if check not in SCENARIOS:
            try:
                return 0 if run_audits([check])[0].violations else None
            except Exception:  # an audit that crashes fails, as a fuzz case does
                return 0
        for index in range(CASES_PER_SCENARIO):
            if run_case(check, *_case(0, check, index)) is not None:
                return index
    return None
