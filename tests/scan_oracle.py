"""A CHSH scan assembled the first way: a dict of per-pair correlations and
one Python loop over every setting, with its CSV written row by row.

Only the correlations come from the engines (``bell.correlation``), so the
array scan in ``bell`` and the CLI's streamed CSV are held to an
independent assembly of the same values.
"""
from __future__ import annotations

import csv
import io
from itertools import product

from qpictures.bell import correlation, scan_grid


def loop_scan(resolution: float):
    """``(rows, best, correlations)``: every ``(a, a', b, b', S)`` in
    lexicographic order, the first row of largest |S| (a strict ``>``
    keeps the earliest of ties), and that row's four correlations
    ``E(a,b), E(a,b'), E(a',b), E(a',b')``."""
    angles = scan_grid(resolution)
    pairs = list(product(angles, repeat=2))
    corr = dict(zip(pairs, correlation([x for x, _ in pairs], [y for _, y in pairs]).tolist()))
    rows, best = [], None
    for a, ap, b, bp in product(angles, repeat=4):
        s = corr[(a, b)] - corr[(a, bp)] + corr[(ap, b)] + corr[(ap, bp)]
        rows.append((a, ap, b, bp, s))
        if best is None or abs(s) > abs(best[4]):
            best = rows[-1]
    a, ap, b, bp, _ = best
    return rows, best, (corr[(a, b)], corr[(a, bp)], corr[(ap, b)], corr[(ap, bp)])


def loop_scan_csv(rows) -> str:
    """The scan CSV: 12 significant digits per float, 0/1 violation flag."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "a_prime", "b", "b_prime", "S", "violation"])
    for *angles, s in rows:
        writer.writerow([f"{x:.12g}" for x in angles] + [f"{s:.12g}", int(abs(s) > 2.0 + 1e-12)])
    return buf.getvalue()
