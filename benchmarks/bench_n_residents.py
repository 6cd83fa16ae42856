"""Bench: occupancy scaling — 2, 3 and 4 residents (the paper's conjecture).

The paper's experiments cover resident pairs; its conclusion claims the
framework extends to 3-4 occupants.  This bench measures accuracy, decode
throughput and the joint trellis width as occupancy grows, exercising the
N-chain loosely-coupled HDBN and documenting how the pruned joint trellis
scales.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_n_residents.py -q -s``.
"""

from benchmarks.conftest import record
from repro.core.engine import CaceEngine
from repro.datasets.cace import generate_cace_dataset
from repro.datasets.trace import train_test_split
from repro.eval.experiments import pair_results, pool_labels
from repro.util.rng import ensure_rng


#: Accuracy floor for 4 residents: 0.699 measured at seed 7, less 0.05 margin.
QUAD_ACCURACY_FLOOR = 0.65


def run_scaling(seed=7):
    rows = {}
    for residents in (2, 3, 4):
        rng = ensure_rng(seed + residents)
        dataset = generate_cace_dataset(
            n_homes=2,
            sessions_per_home=4,
            duration_s=2700.0,
            residents_per_home=residents,
            seed=rng.integers(0, 2**31),
        )
        train, test = train_test_split(dataset, 0.7, seed=rng.integers(0, 2**31))
        engine = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
        engine.fit(train)
        truth, predicted = pool_labels(pair_results(test, engine.predict_dataset(test)))
        stats = engine.batch_stats_
        rows[residents] = {
            "accuracy": sum(a == b for a, b in zip(truth, predicted)) / len(truth),
            "decode_seconds": engine.decode_seconds,
            "steps_per_s": stats.steps / max(engine.decode_seconds, 1e-12),
            "mean_joint_states": stats.mean_joint_states,
            "max_joint_states_pruned": engine.model_.max_joint_states_pruned,
        }
    return rows


def test_occupancy_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, kwargs={"seed": 7}, rounds=1, iterations=1)
    lines = ["Occupancy scaling (C2 strategy)"]
    lines.append(
        f"{'residents':>10s} {'accuracy':>9s} {'decode':>8s} {'steps/s':>8s} {'joint/step':>11s}"
    )
    for residents, row in rows.items():
        lines.append(
            f"{residents:10d} {row['accuracy'] * 100:8.1f}% "
            f"{row['decode_seconds']:7.2f}s {row['steps_per_s']:8.0f} "
            f"{row['mean_joint_states']:10.0f}"
        )
    text = "\n".join(lines)
    print("\n" + text)
    record("n_residents", text)

    # Both occupancies must stay usable; the trellis must stay bounded.
    assert rows[2]["accuracy"] > 0.75
    assert rows[3]["accuracy"] > 0.6
    assert rows[3]["mean_joint_states"] < 500
    assert rows[4]["mean_joint_states"] <= rows[4]["max_joint_states_pruned"]
    assert rows[4]["accuracy"] > QUAD_ACCURACY_FLOOR
