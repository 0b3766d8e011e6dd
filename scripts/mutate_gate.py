"""Apply one-line mutants of the certificate gate and report which the gate tests kill.

Run from anywhere:

    python3 scripts/mutate_gate.py [--checkout DIR]

The gate is ``lp.verify_certificate`` with the helpers it checks through:
``_point_holds``, ``_combination`` and ``_holds``. The script copies the
checkout's ``src/``, ``tests/`` and ``pyproject.toml`` (by default those
of the checkout holding this script) into a temporary directory, runs
``tests/test_gate.py`` and ``tests/test_lp.py`` there once unmutated
(they must pass), and then once per mutant, each applied alone to the
copy's ``lp.py``. A mutant is killed when a test fails, and survives
when all pass. It prints one line per mutant, with the first failing
test of each kill, and exits nonzero if a mutant survives or no longer
applies (its original text is not found exactly once). The checkout
itself is never written to.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_gate.py", "tests/test_lp.py")

_SIGNS = "(rel == GE and mult < 0) or (rel == LE and mult > 0)"
_VERDICT = "not combo[0] and combo[1] > 0"
_POINT_ROW = "if not _holds(lhs * rhs.denominator, rel, rhs.numerator * den):"
_LOOSE = "if not (_holds(lhs * rhs.denominator, rel, rhs.numerator * den) or "
_TOL = "Fraction(1, 1 << 70)"
_DUAL = "combo == (dict(sys.objective.terms), result.value)"

# (name, text in lp.py, its replacement): the eleven one-line mutants of
# the gate that tier-1 was measured against. Each text must occur in
# lp.py exactly once.
MUTANTS = (
    ("sign rule on >= rows dropped", _SIGNS, "(rel == LE and mult > 0)"),
    ("sign rule on <= rows dropped", _SIGNS, "(rel == GE and mult < 0)"),
    ("sum of lam b > 0 weakened to >= 0", _VERDICT, "not combo[0] and combo[1] >= 0"),
    ("sum of lam a = 0 dropped", _VERDICT, "combo[1] > 0"),
    (">= rows loosened by 2^-70", _POINT_ROW,
     _LOOSE + f"rel == GE and Fraction(lhs, den) >= rhs - {_TOL}):"),
    ("== rows loosened by 2^-70", _POINT_ROW,
     _LOOSE + f"rel == EQ and abs(Fraction(lhs, den) - rhs) <= {_TOL}):"),
    ("witness ground set not checked", "result.witness.ground != sys.ground or ", ""),
    ("negative certificate keys accepted", "0 <= i < len(rows)", "i < len(rows)"),
    ("Optimal dual value not checked", _DUAL,
     "combo is not None and combo[0] == dict(sys.objective.terms)"),
    ("Optimal dual objective not checked", _DUAL,
     "combo is not None and combo[1] == result.value"),
    ("Optimal witness not checked",
     "if not isinstance(result, Infeasible):", "if isinstance(result, Feasible):"),
)


def run_tests(copy: Path) -> tuple[bool, str]:
    """Whether the gate tests pass in ``copy``, and the first failure."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy, capture_output=True, text=True,
    )
    failed = [line.split(" ", 1)[1].split(" - ")[0]
              for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode == 0, failed[0] if failed else done.stdout.strip()[-200:]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=HERE,
                    help="checkout whose src/ and tests/ are mutated in a copy")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()

    with tempfile.TemporaryDirectory(prefix="mutate-gate-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(checkout / part, copy / part, ignore=skip)
        shutil.copy(checkout / "pyproject.toml", copy)
        lp = copy / "src" / "entrolab" / "lp.py"
        source = lp.read_text()

        passed, detail = run_tests(copy)
        if not passed:
            print(f"unmutated gate tests fail: {detail}")
            return 2
        bad = 0
        for name, old, new in MUTANTS:
            if source.count(old) != 1:
                print(f"not applied  {name}: original text found {source.count(old)} times")
                bad += 1
                continue
            mutated = source.replace(old, new)
            compile(mutated, str(lp), "exec")  # a mutant that does not parse is no kill
            lp.write_text(mutated)
            passed, detail = run_tests(copy)
            if passed:
                print(f"survived     {name}")
                bad += 1
            else:
                print(f"killed       {name}: {detail}")
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
