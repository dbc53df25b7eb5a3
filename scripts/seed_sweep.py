#!/usr/bin/env python3
"""Sweep seeded random instances through the full verification suite.

Prints the worst violation per check across the sweep, the worst
headroom, log10(threshold / violation) over passing rows with a
nonzero violation, the smallest distance in decades from a
positive eigenvalue of I - C* C or I - E* E to the rank band
(TOL_RANK, TOL_EQ] in which strict ``assemble`` refuses a defect rank,
and the smallest distance in decades from a nonzero eigenvalue of
I - A A* to the rank cut TOL_RANK of the star defect.
It exits nonzero if anything fails, so it doubles as a quick soak test:

    python3 scripts/seed_sweep.py --seeds 20 --d 2 --dim-c 2 --dim-a 2

Run as a script, it sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 2 before numpy loads, as the benchmark does:
some rows move by rounding with the BLAS thread count.  The pin is the
one of its sibling ``compare_checks.py``, whose top level loads only the
standard library.
"""

import argparse
import math
import os
import sys
import time

from compare_checks import BLAS_THREADS, THREAD_VARS

if __name__ == "__main__":
    os.environ.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))

import numpy as np

from ncscatter import serialize
from ncscatter.lifting import generate
from ncscatter.linalg import TOL_EQ, TOL_RANK
from ncscatter.verify import CheckResult, all_passed, run_all_checks

BAND = f"({TOL_RANK:.0e}, {TOL_EQ:.0e}]"


def severity(res: CheckResult) -> tuple[bool, float]:
    """Sort key of the worst row: a failing row over a passing one, then
    the larger violation (an error reads inf); a tie keeps the earlier row."""
    return not res.passed, res.max_violation


def band_distance(inst) -> tuple[float, str] | None:
    """Decades from the positive defect eigenvalue of C or E nearest to the
    rank band to that band, with its defect, off the spectra that strict
    ``assemble`` reads; None when no eigenvalue is positive."""
    gaps = []
    for name, data in (("I - C* C", inst.c.defect), ("I - E* E", inst.e.defect)):
        w = data.spectrum[data.spectrum > 0]
        if w.size:
            gap = np.maximum(np.log10(TOL_RANK / w), np.log10(w / TOL_EQ)).clip(0).min()
            gaps.append((float(gap), name))
    return min(gaps, default=None)


def star_cut_distance(inst) -> float | None:
    """Decades from the nonzero eigenvalue w of I - A A* nearest to the star
    defect's rank cut, the smallest ``|log10(|w| / TOL_RANK)|``; None when
    no eigenvalue is nonzero."""
    w = np.abs(inst.a.star_defect.spectrum)
    w = w[w > 0]
    return float(np.abs(np.log10(w / TOL_RANK)).min()) if w.size else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of instances")
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--dim-c", type=int, default=2)
    parser.add_argument("--dim-a", type=int, default=2)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--a-scale", type=float, default=0.9)
    parser.add_argument("-o", "--output", help="write the worst-case report as JSON")
    args = parser.parse_args()

    worst: dict[str, CheckResult] = {}
    headroom = None  # (decades, check, seed) of the tightest passing row
    band = None  # (decades, defect, seed) of the defect eigenvalue nearest the rank band
    cut = None  # (decades, seed) of the star defect eigenvalue nearest its rank cut
    t0 = time.perf_counter()
    for seed in range(args.seeds):
        inst = generate(args.d, args.dim_c, args.dim_a, seed=seed, a_scale=args.a_scale)
        near = band_distance(inst)
        if near is not None and (band is None or near < band[:2]):
            band = (*near, seed)
        gap = star_cut_distance(inst)
        if gap is not None and (cut is None or gap < cut[0]):
            cut = (gap, seed)
        for res in run_all_checks(inst, args.depth, seed=seed):
            seen = worst.get(res.name)
            if seen is None or severity(res) > severity(seen):
                worst[res.name] = res
            if res.passed and res.max_violation > 0:
                row = (math.log10(res.threshold / res.max_violation), res.name, seed)
                if headroom is None or row < headroom:
                    headroom = row
    elapsed = time.perf_counter() - t0

    results = list(worst.values())
    for res in results:
        print(res.line())
    if headroom is None:
        print("worst headroom: none (no passing row has a nonzero violation)")
    else:
        print(f"worst headroom: {headroom[0]:.3f} decades ({headroom[1]}, seed {headroom[2]})")
    near = "none (no eigenvalue is positive)"
    if band is not None:
        near = f"{band[0]:.3f} decades ({band[1]}, seed {band[2]})"
    print(f"closest defect eigenvalue to the rank band {BAND}: {near}")
    near = "none (no eigenvalue is nonzero)"
    if cut is not None:
        near = f"{cut[0]:.3f} decades (seed {cut[1]})"
    print(f"closest star defect eigenvalue to the rank cut {TOL_RANK:.0e}: {near}")
    print(
        f"{args.seeds} instances (d={args.d}, dims ({args.dim_c},{args.dim_a}), "
        f"depth {args.depth}) in {elapsed:.2f} s at {BLAS_THREADS} BLAS threads"
    )
    if args.output:
        serialize.save(args.output, serialize.report_to_json(results))
    return 0 if all_passed(results) else 1


if __name__ == "__main__":
    sys.exit(main())
