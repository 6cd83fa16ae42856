"""Three-occupant recognition — the paper's 3-4 occupant conjecture.

The CACE paper evaluates resident pairs and conjectures the framework
"can handle 3-4 occupants as well".  This example generates a home with
three residents, trains the engine (which automatically selects the
N-chain loosely-coupled HDBN), and reports per-resident accuracy plus the
joint-trellis statistics that show why loose coupling keeps N chains
tractable.

Run:  python examples/three_residents.py
"""

from repro.core.engine import CaceEngine
from repro.datasets.cace import generate_cace_dataset
from repro.datasets.trace import train_test_split


def main() -> None:
    print("generating a 3-resident smart home corpus...")
    dataset = generate_cace_dataset(
        n_homes=2,
        sessions_per_home=4,
        duration_s=2700.0,
        residents_per_home=3,
        seed=42,
    )
    train, test = train_test_split(dataset, 0.7, seed=1)
    print(
        f"  {len(train.sequences)} training / {len(test.sequences)} test sessions, "
        f"residents per home: {len(dataset.sequences[0].resident_ids)}"
    )

    engine = CaceEngine(strategy="c2", seed=7)
    engine.fit(train)
    print(f"model: {type(engine.model_).__name__}")
    print(f"mined rules: {engine.rule_set_.n_rules if engine.rule_set_ else 0}")

    results = engine.predict_dataset(test)
    per_resident = {}
    for i, seq in enumerate(test.sequences):
        pred = results[f"{seq.home_id}:{i}"]
        for rid in seq.resident_ids:
            truth = seq.macro_labels(rid)
            hits = sum(a == b for a, b in zip(truth, pred[rid]))
            ok, n = per_resident.get(rid, (0, 0))
            per_resident[rid] = (ok + hits, n + len(truth))

    print("\nper-resident accuracy:")
    total_ok = total_n = 0
    for rid, (ok, n) in sorted(per_resident.items()):
        print(f"  {rid}: {ok / n:.1%}  ({n} steps)")
        total_ok += ok
        total_n += n
    print(f"  overall: {total_ok / total_n:.1%}")

    stats = engine.batch_stats_  # summed over every test session
    raw_space = 11 * 14  # (macro, subloc) combinations per resident
    print("\njoint state space:")
    print(f"  raw product space per step: {raw_space}^3 = {raw_space**3:,}")
    print(f"  decoded joint candidates per step (mean): {stats.mean_joint_states:.0f}")
    print(
        "  loose coupling + correlation pruning keep the trellis ~"
        f"{raw_space**3 / max(stats.mean_joint_states, 1):,.0f}x smaller than the raw product"
    )


if __name__ == "__main__":
    main()
