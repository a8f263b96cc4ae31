"""Expected gamma for every instance of the `gamma` workload.

`python3 perfbench/gamma_table.py` rebuilds gamma_table.json from the
pool in workloads.py with the benchmark's own exact solver
(oracles.exact_gamma), never with domkit.  Keys are "n:s1,s2,..." with the
step set in canonical form under x -> u*x, u a unit mod n, so the table
answers the pool under any seed's relabeling.  A pool change without a
rebuild is caught at load time by the stored pool parameters.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from oracles import exact_gamma  # noqa: E402

PATH = os.path.join(HERE, "gamma_table.json")


def pool_params() -> dict:
    return {
        "ns": list(workloads.GAMMA_NS),
        "per_stratum": {str(k): v for k, v in workloads.GAMMA_POOL.items()},
        "pool_seed": workloads.GAMMA_POOL_SEED,
    }


def key(n: int, steps) -> str:
    return f"{n}:" + ",".join(map(str, workloads.canonical(n, steps)))


def load() -> dict[str, int]:
    with open(PATH) as f:
        table = json.load(f)
    if table["pool"] != pool_params():
        raise SystemExit("gamma_table.json is stale: run python3 perfbench/gamma_table.py")
    return table["gamma"]


def rebuild() -> None:
    gamma = {}
    t0 = time.perf_counter()
    for (n, _), steps_list in workloads.gamma_pool().items():
        for steps in steps_list:
            gamma[key(n, steps)] = exact_gamma(n, steps)
    with open(PATH, "w") as f:
        json.dump({"pool": pool_params(), "gamma": gamma}, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"{len(gamma)} instances in {time.perf_counter() - t0:.1f} s -> {PATH}")


if __name__ == "__main__":
    rebuild()
