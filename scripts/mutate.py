#!/usr/bin/env python3
"""Seeded bugs that the tier-1 suite must catch.

MUTANTS is a fixed table of literal replacements in src/graphost, each one
plausible bug in an invariant or a switch of the program. For each mutant
the script copies the checkout (without .git and caches) to a temporary
directory, makes that one replacement there, and runs the tier-1 command
with -x. The mutant is killed when pytest reports a failing test (exit 1).
Before any mutant, the unmutated copy must pass, so a broken suite cannot
pass for a killing one.

Prints one line per mutant (the first failing test, or SURVIVED) and
`killed K / N`. Exits 1 if a mutant survives, if a run ends in anything but
a pass or a test failure, or if a replacement no longer matches its file
exactly once: the table must follow the code, not rot silently.

Not part of tier-1: each mutant costs up to one tier-1 run.

Usage: python3 scripts/mutate.py [--json OUT]
       (runs every mutant; OUT gets the results as JSON)
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     ".benchmarks")

# name -> (file under src/graphost, text that occurs there exactly once, its
# replacement)
MUTANTS: dict[str, tuple[str, str, str]] = {
    "filter tie-break order": (
        "transform.py",
        "keep[np.flatnonzero(harm == cut)[:k - removed_above]] = False",
        "keep[np.flatnonzero(harm == cut)[::-1][:k - removed_above]] = False"),
    "heterophilic weight": (
        "transform.py",
        "weights = (s if homophilic else 1.0 - s) if config.enable_weighting else None",
        "weights = s if config.enable_weighting else None"),
    "alpha = 0.5 regime boundary": (
        "transform.py",
        'return "homophilic" if alpha <= 0.5 else "heterophilic"',
        'return "homophilic" if alpha < 0.5 else "heterophilic"'),
    "noise count floor": (
        "graphs.py",
        "k = int(np.floor(noise_ratio / 2.0 * graph.num_edges))",
        "k = int(np.ceil(noise_ratio / 2.0 * graph.num_edges))"),
    "HD delta sign": (
        "metrics.py",
        "else hd_after - hd_before",
        "else hd_before - hd_after"),
    "random drop of every edge": (
        "graphs.py",
        "return graph._derived(edges=graph.edges[keep])",
        "return graph._derived(edges=graph.edges[:0])"),
    "random-drop seed tag": (
        "experiments.py",
        "derive_seed(seed, 7)",
        "derive_seed(seed, 8)"),
    "--no-filter ignored": (
        "cli.py",
        'enable_filtering=not options["no_filter"],',
        "enable_filtering=True,"),
    "study ignores --experiments": (
        "cli.py",
        'options["experiments"], options["metric"],',
        'EXPERIMENTS, options["metric"],'),
    "cosine clip": (
        "models.py",
        "np.clip(cos, -1.0, 1.0, out=cos)",
        "cos"),
    "self-loop weight": (
        "nn.py",
        "np.divide(1.0, totals, out=coef[e:e + n])",
        "np.divide(2.0, totals, out=coef[e:e + n])"),
    "f1_macro read as accuracy": (
        "experiments.py",
        "return f1_macro(predicted, base.labels, base.num_classes)",
        "return accuracy(predicted, base.labels)"),
    "classifier logits unrefused": (
        "models.py",
        'return _refuse_non_finite(logits, "classifier")',
        "return logits"),
    "forward pass warns on overflow": (
        "models.py",
        'with np.errstate(over="ignore", invalid="ignore"):',
        "with np.errstate():"),
}


def stale() -> list[str]:
    """The mutants whose text does not occur exactly once in their file."""
    return [name for name, (filename, old, _) in MUTANTS.items()
            if (ROOT / "src" / "graphost" / filename).read_text().count(old) != 1]


def tier1(mutant: str | None) -> tuple[int, str, float]:
    """Exit code, first failing test and seconds of tier-1 with -x on a
    temporary copy of the checkout, with `mutant` applied if one is given."""
    with tempfile.TemporaryDirectory(prefix="graphost-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        if mutant is not None:
            filename, old, new = MUTANTS[mutant]
            path = copy / "src" / "graphost" / filename
            path.write_text(path.read_text().replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, failed.group(1) if failed else "", seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", type=Path, default=None, metavar="OUT")
    args = parser.parse_args()
    rotten = stale()
    for name in rotten:
        print(f"STALE {name}: {MUTANTS[name][1]!r} does not occur exactly once in "
              f"src/graphost/{MUTANTS[name][0]}", file=sys.stderr)
    if rotten:
        return 1
    code, failed, seconds = tier1(None)
    if code != 0:
        print(f"the unmutated suite does not pass (pytest exit {code}, {failed})",
              file=sys.stderr)
        return 1
    print(f"unmutated: passed in {seconds:.0f} s")
    results, broken = {}, False
    for name in MUTANTS:
        code, failed, seconds = tier1(name)
        broken |= code not in (0, 1)
        verdict = {0: "SURVIVED", 1: f"killed by {failed}"}.get(code, f"pytest exit {code}")
        print(f"{name}: {verdict} ({seconds:.0f} s)", flush=True)
        results[name] = {"killed": code == 1, "by": failed, "seconds": round(seconds, 1)}
    killed = sum(r["killed"] for r in results.values())
    print(f"killed {killed} / {len(results)}")
    if args.json is not None:
        args.json.write_text(json.dumps({"mutants": len(results), "killed": killed,
                                         "results": results}, indent=2) + "\n")
    return 0 if killed == len(results) and not broken else 1


if __name__ == "__main__":
    sys.exit(main())
