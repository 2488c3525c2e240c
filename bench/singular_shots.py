"""Finds the exp_map shots of the benchmark that end in SingularMetric.

Run from the root of a source checkout:

    python3 bench/singular_shots.py [first_code] [end_code]

A shot of geodesic-pullback and cli-toy starts at one of the 200 toy codes
and points in one of ``SHOT_DIRECTIONS`` equally spaced directions, with
metric length ``SHOT_NORM``. This script shoots every one of them (or those
from codes first_code to end_code - 1) with ``exp_map`` on the exact
pullback metric, as the workloads do, and prints the (code, direction)
pairs that fail, with the error. A geodesic that runs into the region
where the regularized decoder's pullback metric is singular makes exp_map
raise SingularMetric there; ``workloads.SINGULAR_SHOTS`` holds those pairs
so that the rounds draw only shots that exp_map can complete. The 1600
shots took 20 minutes on a 2-core machine as two processes, one for codes
0-99 and one for codes 100-199.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv: list[str]) -> int:
    first, end = (int(a) for a in argv) if argv else (0, wl.TOY_CODES_N)
    sg = run.import_statgeo()
    codes = sg.toy.toy_circle_codes(wl.TOY_CODES_N, wl.TOY_NOISE,
                                    sg.rng.RngStream(wl.TOY_CODES_SEED))
    pb = sg.metric.PullbackMetric(sg.toy.toy_decoder(wl.TOY_FAMILY, seed=wl.TOY_DECODER_SEED))
    failed = []
    for i in range(first, end):
        for k in range(wl.SHOT_DIRECTIONS):
            try:
                sg.geodesic.exp_map(pb, codes[i], wl.shot_velocity(k), steps=wl.EXP_STEPS)
            except Exception as exc:
                failed.append([i, k, type(exc).__name__])
                print(f"shot ({i}, {k}): {type(exc).__name__}", flush=True)
    known = sorted(wl.SINGULAR_SHOTS)
    found = sorted((i, k) for i, k, _ in failed)
    in_range = [s for s in known if first <= s[0] < end]
    print(f"{len(found)} of {(end - first) * wl.SHOT_DIRECTIONS} shots failed; "
          f"{'same as' if found == in_range else 'DIFFERENT FROM'} workloads.SINGULAR_SHOTS")
    print(json.dumps(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
