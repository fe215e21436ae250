#!/usr/bin/env python3
"""Regret growth of the stateless weighted step on a stochastic quadratic.

Each step sees one randomly drawn center of a 1-D quadratic; the comparator
w* is the mean of all centers. With alpha_t and rho_t decaying as 1/sqrt(t),
cumulative regret should grow like sqrt(T): doubling the horizon should
multiply regret by about sqrt(2), and the T -> 4T ratio stays near 2.

Usage:
    python3 scripts/regret_experiment.py --seeds 5 --horizon 4000
    python3 scripts/regret_experiment.py --gamma 0.88 --out curve.csv
"""
import argparse

import numpy as np

from sharpopt.analysis import regret_curve
from sharpopt.config import ObjectiveSpec, RunConfig
from sharpopt.core import INVERSE_SQRT
from sharpopt.objectives import SEED_STREAM_DATASET, BatchSampler, Quadratic
from sharpopt.runner import run


def one_run(seed: int, horizon: int, gamma: float, alpha: float, rho: float,
            num_centers: int) -> np.ndarray:
    rng = np.random.default_rng([seed, SEED_STREAM_DATASET])
    centers = rng.standard_normal((num_centers, 1))
    obj = Quadratic(a=(1.0,), centers=centers)
    # the spec names the objective's kind and dimension; its centers are drawn here
    cfg = RunConfig(objective=ObjectiveSpec(kind="quadratic", a=(1.0,), centers=()),
                    mode="coupled", base_kind="sgd", alpha=alpha, alpha_schedule=INVERSE_SQRT,
                    rho=rho, rho_schedule=INVERSE_SQRT, gamma=gamma, batch_size=1,
                    steps=horizon, seed=seed, init=(1.0,))
    sampler = BatchSampler(seed=seed, batch_size=1, num_examples=num_centers)
    return regret_curve(run(cfg, obj), obj, centers.mean(axis=0), batch_at=sampler.batch_at)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--horizon", type=int, default=4000)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--rho", type=float, default=0.1)
    ap.add_argument("--centers", type=int, default=1024)
    ap.add_argument("--out", default=None, help="write the per-seed curves as CSV")
    args = ap.parse_args()

    checkpoints = [t for t in (250, 500, 1000, 2000, 4000) if t <= args.horizon]
    curves = []
    for seed in range(args.seeds):
        curve = one_run(seed, args.horizon, args.gamma, args.alpha, args.rho, args.centers)
        curves.append(curve)
        vals = "  ".join(f"R({t})={curve[t - 1]:8.3f}" for t in checkpoints)
        print(f"seed {seed}: {vals}")

    stack = np.vstack(curves)
    mean = stack.mean(axis=0)
    print()
    for a, b in zip(checkpoints, checkpoints[1:]):
        print(f"mean R({b})/R({a}) = {mean[b - 1] / mean[a - 1]:.4f}"
              f"   (sqrt horizon ratio {np.sqrt(b / a):.4f})")
    if len(checkpoints) >= 2 and checkpoints[-1] // 4 in checkpoints:
        quarter = checkpoints[-1] // 4
        print(f"\n4x horizon ratio R({checkpoints[-1]})/R({quarter}) = "
              f"{mean[checkpoints[-1] - 1] / mean[quarter - 1]:.4f}  (prediction 2.0)")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t," + ",".join(f"seed_{s}" for s in range(args.seeds)) + ",mean\n")
            for i in range(args.horizon):
                row = ",".join(format(c[i], ".17g") for c in curves)
                fh.write(f"{i + 1},{row},{format(mean[i], '.17g')}\n")
        print(f"curves written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
