#!/usr/bin/env python3
"""Decay of transfer coefficients with word length.

The coefficient at a word of length m routes through m - 1 state-map
factors, so its norm decays geometrically with the size of the corner
tuple.  With a zero corner everything beyond single letters vanishes
and the function is a constant plus one linear layer.  This prints
the largest coefficient norm per word length for a grid of corner
contraction strengths, and checks the truncated Toeplitz compression
stays contractive along the way:

    python3 scripts/coefficient_decay.py --max-depth 4 --seed 0
"""

import argparse
import sys

from ncscatter.lifting import generate
from ncscatter.linalg import stack_norm
from ncscatter.transfer import build_colligation, transfer_norm, transfer_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--d", type=int, default=2)
    parser.add_argument("--dim-c", type=int, default=2)
    parser.add_argument("--dim-a", type=int, default=2)
    parser.add_argument("--max-depth", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scales = [0.0, 0.3, 0.6, 0.9, 0.99]
    lengths = list(range(args.max_depth + 1))
    print("corner scale | " + " | ".join(f"len {m}" for m in lengths) + " | Toeplitz norm")
    for scale in scales:
        inst = generate(args.d, args.dim_c, args.dim_a, seed=args.seed, a_scale=scale)
        series = transfer_series(build_colligation(inst), args.max_depth)
        peak = {m: stack_norm(series.level(m)) for m in lengths}
        norm = transfer_norm(series)
        row = " | ".join(f"{peak[m]:.4f}" for m in lengths)
        print(f"{scale:12.2f} | {row} | {norm:.8f}")
        if norm > 1.0 + 1e-8:
            print("contraction bound violated", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
