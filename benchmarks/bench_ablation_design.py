"""Ablation bench: the design choices behind the coupled model.

The coupled model makes three load-bearing choices beyond the paper's
text: (a) the joint explaining-away (coverage) term, (b) the feature-GMM
channel (Augmentation 4), and (c) the pruned joint-trellis cap.  This
bench turns each off on a fixed corpus, so their individual contributions
stay visible as the code evolves.  (a) and (b) are fixed in code, so the
bench removes them with ``monkeypatch``: the coverage penalties become 0
and the GMM rows are never added.
"""

from benchmarks.conftest import record, workload
from repro.core import loosely_coupled
from repro.core.engine import CaceEngine
from repro.core.kernels import SequenceKernel
from repro.datasets.cace import generate_cace_dataset
from repro.datasets.trace import train_test_split
from repro.util.rng import ensure_rng


def _accuracy(model, test) -> float:
    correct = n = 0
    for seq in test.sequences:
        pred = model.decode(seq)
        for rid in seq.resident_ids:
            truth = seq.macro_labels(rid)
            correct += sum(a == b for a, b in zip(truth, pred[rid]))
            n += len(truth)
    return correct / n


def run_ablation(monkeypatch, n_homes, sessions_per_home, duration_s, seed=7):
    rng = ensure_rng(seed)
    dataset = generate_cace_dataset(
        n_homes=n_homes,
        sessions_per_home=sessions_per_home,
        duration_s=duration_s,
        seed=rng.integers(0, 2**31),
    )
    train, test = train_test_split(dataset, 0.7, seed=rng.integers(0, 2**31))
    engine = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
    engine.fit(train)
    model = engine.model_

    rows = {}
    rows["full model"] = _accuracy(model, test)

    with monkeypatch.context() as patch:
        patch.setattr(loosely_coupled, "UNEXPLAINED_SUBLOC_PENALTY", 0.0)
        patch.setattr(loosely_coupled, "UNEXPLAINED_ROOM_PENALTY", 0.0)
        rows["no coverage term"] = _accuracy(model, test)

    with monkeypatch.context() as patch:
        patch.setattr(SequenceKernel, "_add_gmm_rows", lambda self, rows, obs_list: None)
        rows["no feature GMM"] = _accuracy(model, test)

    model.max_joint_states_pruned = 30
    rows["joint cap 30"] = _accuracy(model, test)
    model.max_joint_states_pruned = 100
    return rows


def test_design_ablations(benchmark, monkeypatch):
    params = workload()
    rows = benchmark.pedantic(
        run_ablation,
        kwargs={
            "monkeypatch": monkeypatch,
            "n_homes": params["n_homes"],
            "sessions_per_home": params["sessions_per_home"],
            "duration_s": params["duration_s"],
            "seed": 7,
        },
        rounds=1,
        iterations=1,
    )
    lines = ["Design ablations (C2 on the CACE corpus)"]
    for name, acc in rows.items():
        lines.append(f"  {name:>30s}: {acc * 100:5.1f}%")
    text = "\n".join(lines)
    print("\n" + text)
    record("ablation_design", text)

    # The full model must not lose to its own ablations by a wide margin.
    full = rows["full model"]
    assert full > 0.85
    for name, acc in rows.items():
        assert acc <= full + 0.02, f"{name} unexpectedly beats the full model"
    # The coverage term is load-bearing for cross-room attribution.
    assert rows["no coverage term"] <= full + 1e-9
