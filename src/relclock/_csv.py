"""The one CSV artifact writer: header row first, numbers at full precision.

String cells are written verbatim; every other cell is written as
``f"{float(c):.17g}"``, which round-trips every float64 exactly (``inf`` and
``nan`` print as such), so artifacts are byte-stable for a fixed config and
seed.  A row with no string cell needs no quoting, so it is formatted in one
``%`` operation over a joined ``%.17g`` format, which prints the same
characters; a row with a string cell goes through ``csv.writer``.  ``rows``
may be any iterable, a generator included, and is read once.
"""

import csv


def write_csv(path, header, rows) -> None:
    formats = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            row = tuple(row)
            fmt = formats.get(len(row))
            if fmt is None:
                fmt = formats[len(row)] = ",".join(["%.17g"] * len(row)) + writer.dialect.lineterminator
            try:
                fh.write(fmt % row)
            except TypeError:  # a string cell
                writer.writerow([c if isinstance(c, str) else f"{float(c):.17g}" for c in row])
