"""Comparison, min/max, arithmetic and boolean flip mutation probe for the certificate layer.

Flips one operator at a time (< and <=, > and >=, == and !=, a binary + and -,
a binary * and /, and and or), or swaps one name min and max, in a temporary
copy of the repository, runs the Tier-1 command there with -x, and prints each
mutant that every test survives.  Operators inside an f-string's replacement
fields are not flipped: Python 3.12 tokenizes them and 3.11 does not, so both
see the same sites.  Pytest does not collect this file; run it from the
repository root:

    python tests/mutation_probe.py                        # certify.py and pipeline.py
    python tests/mutation_probe.py src/majorant/envelope.py

Each mutant runs the whole suite until its first failure, so a survivor costs
one full Tier-1 run.  A survivor listed in EQUIVALENT is printed with its
reason and passes.  The exit status is 1 if an unlisted mutant survives, or if
an entry of EQUIVALENT for a module of the run matches no surviving mutant,
else 0.
"""

from __future__ import annotations

import io
import keyword
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_MODULES = ("src/majorant/certify.py", "src/majorant/pipeline.py")
FLIPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "min": "max", "max": "min",
    "+": "-", "-": "+", "*": "/", "/": "*", "and": "or", "or": "and",
}
ARITHMETIC = ("+", "-", "*", "/")  # flipped only where binary: not unary minus, *args or a / in a parameter list
FSTRING_START, FSTRING_END = (getattr(tokenize, name, -1) for name in ("FSTRING_START", "FSTRING_END"))  # Python 3.12 on
# (module, stripped source line, operator, reason): mutants that no input can tell from the source
EQUIVALENT = (
    (
        "src/majorant/spectral.py",
        "if float(t).is_integer() and t <= _MAX_RHO:",
        "<=",
        "at t = 6 the least of the six bounds is still exactly A(6), from rho = 6",
    ),
    (
        "src/majorant/spectral.py",
        "return min(overflow_to_inf(pow, G_MAX, t - rho) * a if t >= rho else a ** (t / rho) for rho, a in enumerate(_MOMENTS, 1))",
        ">=",
        "both branches give A(rho) at t = rho, which only integer t <= 6 reach, and those return early",
    ),
    (
        "src/majorant/spectral.py",
        "for rho in (K, K + 1):",
        "+",
        "both signs' Parseval sums agree at every rho, so the flipped loop also returns True",
    ),
)
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def ends_operand(tok) -> bool:
    """Whether tok ends an operand (a number, a string, a closing bracket, or a name that is no keyword), so that an operator after it is binary."""
    if tok.type == tokenize.NAME:
        return not keyword.iskeyword(tok.string)
    return tok.type in (tokenize.NUMBER, tokenize.STRING, FSTRING_END) or tok.type == tokenize.OP and tok.string in (")", "]", "}")


def flip_sites(source: str):
    """(line, column, token) of each operator of FLIPS and each name min or max in source, in order; the tokenizer passes over comments and string text."""
    depth, previous = 0, None  # f-string nesting depth; the last token that is no comment or line continuation
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        depth += (tok.type == FSTRING_START) - (tok.type == FSTRING_END)
        if depth == 0 and tok.type in (tokenize.OP, tokenize.NAME) and tok.string in FLIPS:
            if tok.string not in ARITHMETIC or previous is not None and ends_operand(previous):
                yield tok.start[0], tok.start[1], tok.string
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            previous = tok


def mutant(source: str, line: int, col: int, op: str) -> str:
    """source with the operator or name at (line, col) flipped."""
    lines = source.splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:col] + FLIPS[op] + text[col + len(op):]
    return "".join(lines)


def survives(copy: Path) -> bool:
    """Whether the Tier-1 suite passes in the copy."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}  # no bytecode: a flip that keeps the size could reuse a stale .pyc
    run = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main(modules) -> int:
    survivors, total = [], 0
    equivalent = {(module, text, op): reason for module, text, op, reason in EQUIVALENT if module in modules}
    unmatched = set(equivalent)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "pyproject.toml"):
            if (ROOT / part).is_dir():
                shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy(ROOT / part, copy / part)
        if not survives(copy):
            print("the unmutated suite fails; no mutant can be judged", file=sys.stderr)
            return 2
        for module in modules:
            path = copy / module
            source = path.read_text()
            for line, col, op in flip_sites(source):
                total += 1
                path.write_text(mutant(source, line, col, op))
                if survives(copy):
                    key = (module, source.splitlines()[line - 1].strip(), op)
                    if key in equivalent:
                        unmatched.discard(key)
                        print(f"EQUIVALENT {module}:{line}:{col + 1} {op} -> {FLIPS[op]}: {equivalent[key]}", flush=True)
                    else:
                        survivors.append(key)
                        print(f"SURVIVED {module}:{line}:{col + 1} {op} -> {FLIPS[op]}: {key[1]}", flush=True)
            path.write_text(source)
    for module, text, op in sorted(unmatched):
        print(f"STALE {module}: no surviving {op} -> {FLIPS[op]} flip on the listed line: {text}")
    listed = len(equivalent) - len(unmatched)
    print(f"{len(survivors) + listed} of {total} flips survive the Tier-1 suite, {listed} of them listed as equivalent")
    return min(len(survivors) + len(unmatched), 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or DEFAULT_MODULES))
