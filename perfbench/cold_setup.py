"""Time one cold set-up of ``ffrat`` in a fresh interpreter and print it.

    python3 perfbench/cold_setup.py src 9,5,7 ""

The arguments are the source directory, the field orders to build and the base
field orders whose quadratic extension is built too.  The time covers
``import ffrat`` (with every standard-library module it pulls in, since the
interpreter is new) and the field builds.  The script prints two numbers: the
wall time, and that time scaled to the reference core speed by the probe
(``probe.py``), run three times just before the set-up and three times just
after it.  ``run.py`` starts this script several times per run and reports the
median scaled time.  This script and ``probe.py`` import nothing but ``sys``,
``time`` and ``gc``, so that they warm no module ``ffrat`` needs.
"""

import sys
import time

from probe import probe, scale


def build_fields(gf, fields, exts) -> None:
    for q in fields:
        gf.field_of_order(q)
    for q in exts:
        gf.make_ext(gf.field_of_order(q))


def orders(arg: str) -> list:
    return [int(q) for q in arg.split(",") if q]


if __name__ == "__main__":
    probe()   # the first run of the probe warms the interpreter's caches for it
    probes = [probe() for _ in range(3)]
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import ffrat.gf
    build_fields(ffrat.gf, orders(sys.argv[2]), orders(sys.argv[3]))
    elapsed = time.perf_counter() - start
    probes += [probe() for _ in range(3)]
    print(repr(elapsed), repr(scale(elapsed, probes)))
