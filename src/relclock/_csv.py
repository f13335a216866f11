"""The one CSV artifact writer: header row first, numbers at full precision.

String cells are written verbatim; every other cell is written as
``f"{float(c):.17g}"``, which round-trips every float64 exactly (``inf`` and
``nan`` print as such), so artifacts are byte-stable for a fixed config and
seed.
"""

import csv


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else f"{float(c):.17g}" for c in row])
