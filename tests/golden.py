"""Check `permdom` stdout against the golden manifest, tests/golden_stdout.txt.

Each manifest row pins the SHA-256 of stdout for one argv, in one tier.
Tier-1 runs each `tier1` row as the pytest case in tests/test_cli.py that
the row's case column names.
The `ci` rows are too slow for Tier-1; CI runs them from the source tree:

    PYTHONPATH=src python tests/golden.py ci

The script runs every row of the tier it is given in process. It prints
each row that differs as its argv, the pinned digest and the actual one,
and exits 1 if any row differs. It never writes the manifest. To pin a new
argv, add a row with `-` for its digest and, in tier1, a case under
`test_golden_stdout_digest` with a key no row uses yet; run its tier,
check that the command's output is right, and paste the `row` line
printed for it over the placeholder.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple

from permdom import cli

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden_stdout.txt"
TIERS = ("tier1", "ci")


class Row(NamedTuple):
    digest: str
    tier: str
    case: str  # `<test>[<key>]` in tier1, `-` in ci
    argv: tuple[str, ...]

    def __str__(self) -> str:
        return " ".join((self.digest, self.tier, self.case, *self.argv))


def rows(tier: str) -> list[Row]:
    """The manifest's rows of `tier`, in file order."""
    out = []
    for number, line in enumerate(MANIFEST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 4 or fields[1] not in TIERS:
            raise ValueError(f"{MANIFEST.name}:{number}: not a row: {line!r}")
        if fields[1] == tier:
            out.append(Row(*fields[:3], tuple(fields[3:])))
    return out


def stdout_digest(argv) -> tuple[int, str]:
    """The exit code of `permdom <argv>`, run in process, and the SHA-256 of
    its stdout. Stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tier", choices=TIERS)
    tier = parser.parse_args(argv).tier
    os.chdir(ROOT)  # the manifest's paths are relative to it
    checked = rows(tier)
    differ = 0
    for row in checked:
        code, digest = stdout_digest(row.argv)
        if (code, digest) == (0, row.digest):
            continue
        differ += 1
        print(" ".join(row.argv))
        print(f"  pinned {row.digest}")
        if code:
            print(f"  actual exit {code}")
        else:
            print(f"  actual {digest}")
            print(f"  row    {row._replace(digest=digest)}")
    print(f"{differ} of {len(checked)} {tier} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
