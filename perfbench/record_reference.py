"""Regenerate ``reference.json``, the recorded outputs the benchmark
checks every operation against.

Run it only on purpose, when the program's results are meant to change:
``python3 perfbench/record_reference.py`` (about seven minutes on two
cores).  The benchmark itself only reads the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    COLD_CASES, POOL_CIRCUITS, POOL_METHODS, POOL_SEED, POOL_SIZE,
    REFERENCE_PATH, SERVICE_CATALOGUE_CYCLES, SERVICE_CLIENTS, SERVICE_CYCLE,
    SERVICE_FUSED, SERVICE_SMALL, service_key,
)

#: Catalogue sizes: per-operation seeds are 0..N-1 of each case.
COLD_CATALOGUE = 12
POOL_CATALOGUE = 48


def main() -> int:
    from repro.api import EstimatorConfig, build_population, estimate, run_many

    cold = {}
    for key, circuit, mode, size in COLD_CASES:
        runs = {}
        for seed in range(COLD_CATALOGUE):
            # estimate(circuit, seed=s) builds the pool with seed s and
            # runs with s + 1; doing the two steps here exposes the
            # pool's true maximum for the accuracy metrics.
            pop = build_population(circuit, population_size=size,
                                   sim_mode=mode, seed=seed)
            result = estimate(pop, EstimatorConfig(), seed=seed + 1)
            runs[str(seed)] = [result.units_used, result.estimate,
                               pop.actual_max_power]
            print(key, seed, runs[str(seed)], flush=True)
        cold[key] = runs
    pools = {
        c: build_population(c, population_size=POOL_SIZE, seed=POOL_SEED)
        for c in POOL_CIRCUITS
    }
    pool_runs = {}
    for c in POOL_CIRCUITS:
        for method in POOL_METHODS:
            config = EstimatorConfig(method=method)
            runs = {}
            for seed in range(POOL_CATALOGUE):
                result = run_many(pools[c], 1, config, base_seed=seed)[0]
                runs[str(seed)] = [result.units_used, result.estimate]
            pool_runs[f"{c}/{method}"] = runs
            print(c, method, "recorded", flush=True)
    service = {}
    for kind, spec in (("small", SERVICE_SMALL), ("fused", SERVICE_FUSED)):
        circuit, mode, size = spec
        count = SERVICE_CYCLE.count(kind) * SERVICE_CLIENTS * SERVICE_CATALOGUE_CYCLES
        runs = {}
        for seed in range(count):
            # What a served job with this spec must return.
            result = estimate(circuit, EstimatorConfig(), seed=seed,
                              population_size=size, sim_mode=mode)
            runs[str(seed)] = [result.units_used, result.estimate]
        service[service_key(spec)] = runs
        print(service_key(spec), "recorded", flush=True)
    reference = {
        "cold-estimate": cold,
        "pool-runs": {
            "pools": {c: pools[c].actual_max_power for c in POOL_CIRCUITS},
            "runs": pool_runs,
        },
        "service-jobs": service,
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
