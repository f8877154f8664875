"""Compare two bench run directories, ignoring only the solver clock.

    python scripts/same_outputs.py OLD_DIR NEW_DIR

Trace CSVs are compared by ``perfbench/checks.csv_digest``, which drops the
``elapsed_s`` column; every other file is compared byte for byte. Files
present in one directory only are listed. Exits 0 when the outputs match,
1 when they differ and 2 on a usage error.

A change that must keep the outputs is checked against its parent commit
on three runs, each made once on each side with ``OPENBLAS_NUM_THREADS=1``
and its two run directories compared:

    iapd bench l1ls --seed 7
    iapd bench nnls --seed 11
    iapd bench l1ls --seed 7 --t1 2 --alpha 0.05 --beta 0.05
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import csv_digest  # noqa: E402


def differences(old: Path, new: Path) -> list[str]:
    """One line per file that differs or exists on one side only."""
    old_names = {p.name for p in old.iterdir() if p.is_file()}
    new_names = {p.name for p in new.iterdir() if p.is_file()}
    lines = [f"only in {old}: {name}" for name in sorted(old_names - new_names)]
    lines += [f"only in {new}: {name}" for name in sorted(new_names - old_names)]
    for name in sorted(old_names & new_names):
        a, b = old / name, new / name
        if name.endswith(".csv"):
            same = csv_digest(a) == csv_digest(b)
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            lines.append(f"differs: {name}")
    return lines


def main(argv: list[str]) -> int:
    usage = "usage: python scripts/same_outputs.py OLD_DIR NEW_DIR"
    if len(argv) != 2:
        print(usage, file=sys.stderr)
        return 2
    dirs = [Path(arg) for arg in argv]
    for path in dirs:
        if not path.is_dir():
            print(f"{usage}\nerror: {path} is not a directory", file=sys.stderr)
            return 2
    lines = differences(*dirs)
    for line in lines:
        print(line)
    if not lines:
        print("same outputs")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
