"""Record the current code's outputs for the reference seeds.

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 bench/record_reference.py

Writes bench/reference.json, which `workloads.check` compares passes with.
Run it only on a commit whose outputs are the accepted ones.
"""

from __future__ import annotations

import json

import workloads

REFERENCE_SEEDS = (0, 5, 11)


def main() -> None:
    models = workloads.build_models()
    ref = {name: {str(seed): wl.run(models, seed) for seed in REFERENCE_SEEDS}
           for name, wl in workloads.WORKLOADS.items()}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
