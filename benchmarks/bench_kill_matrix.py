"""Kill matrix: which check kills which planted mutant.

Every mutant in ``repro.check.MUTANTS`` is planted and run against every
fuzz scenario — that scenario's ten cases of the ``repro check --fuzz
150 --seed 0`` round, up to the first failure — and against every audit.
``results/kill_matrix.txt`` gets a row per mutant and a column per
check: ``.`` where the mutant lives; where it dies, the first failing
case (``#k``: the scenario's k-th case; ``x``: the audit) and the seconds
to kill. Its footer names the checks that kill no mutant, and those with
no kill of their own: both must read ``none``, so every check earns its
place with a mutant only it catches (fold a check without one into the
check that kills its mutants, or plant the mutant). The test fails when
the regenerated matrix, seconds masked, differs from the committed one,
or when a footer names a check (~4 min):

    PYTHONPATH=src python -m pytest benchmarks/bench_kill_matrix.py -q -s
"""

import os
import re
import time

from _helpers import RESULTS_DIR, write_result
from repro.check import MUTANTS, REGISTRY, SCENARIOS
from repro.check.mutants import first_kill

PATH = os.path.join(RESULTS_DIR, "kill_matrix.txt")


def _masked(text):
    return re.sub(r"\d+\.\d+s", "-s", text)


def _matrix():
    began = time.perf_counter()
    checks = [*SCENARIOS, *REGISTRY]
    lines = [
        f"Kill matrix: {len(MUTANTS)} planted mutants x {len(checks)} checks "
        f"({len(SCENARIOS)} fuzz scenarios, {len(REGISTRY)} audits).",
        "A cell: '.' the mutant lives; '#k' the scenario's k-th case of the --fuzz 150 "
        "--seed 0 round failed first, 'x' the audit failed; then the seconds to kill. "
        "'*' marks the check the mutant is declared against.",
        *(f"{column:4d} {check}" for column, check in enumerate(checks, 1)),
        "",
        f"{'mutant':48s}" + "".join(f"{column:>11d}" for column in range(1, len(checks) + 1)),
    ]
    killers = {check: set() for check in checks}
    for mutant in MUTANTS.values():
        cells = []
        for check in checks:
            start = time.perf_counter()
            case = first_kill(mutant, check)
            cell = "."
            if case is not None:
                killers[check].add(mutant.name)
                where = "x" if check in REGISTRY else f"#{case}"
                cell = f"{where} {time.perf_counter() - start:.2f}s"
            cells.append(f"{cell}{'*' if check == mutant.check else ' '}")
        lines.append(f"{mutant.name:48s}" + "".join(f"{cell:>11s}" for cell in cells))
    unique = {
        check
        for check, killed in killers.items()
        if killed - set().union(*(other for name, other in killers.items() if name != check))
    }
    lines += [
        "",
        f"checks that kill no mutant: {', '.join(c for c in checks if not killers[c]) or 'none'}",
        "checks with no kill of their own (each mutant they kill, another check kills too): "
        + (", ".join(check for check in checks if check not in unique) or "none"),
        f"wall time: {time.perf_counter() - began:.1f}s",
    ]
    return "\n".join(lines)


def test_kill_matrix_matches_the_committed_one():
    committed = open(PATH).read() if os.path.exists(PATH) else ""
    matrix = _matrix()
    write_result("kill_matrix", matrix)
    print("\n" + matrix)
    assert _masked(matrix + "\n") == _masked(committed), "the kill matrix moved: see git diff"
    footers = [line for line in matrix.splitlines() if line.startswith("checks ")]
    assert len(footers) == 2 and all(line.endswith(": none") for line in footers), footers
