"""Bench: model fitting, stage by stage, on the repository benchmark's corpora.

Fits the served c2 model ``--fits`` times on the pair and the trio corpus
that ``perfbench/workloads.py`` declares (same generator arguments, same
70/30 split), and reports the median and interquartile range of each
stage's inclusive seconds per fit:

* ``fit`` -- the whole ``CaceEngine.fit``;
* ``mining.correlation`` -- ``CorrelationMiner.mine``, made of
  ``encode`` (``encode_dataset``), ``apriori`` (``Apriori.mine_itemsets``
  and ``mine_rules``) and ``exclusions`` (``_mine_exclusions``);
* ``mining.constraint`` -- ``ConstraintMiner.fit``;
* ``fit.emissions`` -- ``NChainHdbn.fit``, made of ``annealing``
  (``DeterministicAnnealing.fit_gaussians``, one per macro) and
  ``object_cpt`` (``fit_object_cpt``).

Stages are timed by wrapping those functions from outside; nothing under
``src/`` changes.  Corpus generation and artifact writing are not timed.
Every fit's artifact must hash to the same sha256 (the bench exits 1
otherwise).  Results and provenance go to ``BENCH_fit.json`` at the repo
root.

Run with ``PYTHONPATH=src python benchmarks/bench_fit.py [--fits N]``.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One thread of load, as in perfbench: no BLAS worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT))

from perfbench.workloads import PAIRS, TRAIN_FRACTION, TRIOS  # noqa: E402
from repro import CaceEngine, generate_cace_dataset, train_test_split  # noqa: E402
from repro.core import chdbn  # noqa: E402
from repro.core.loosely_coupled import NChainHdbn  # noqa: E402
from repro.micro.annealing import DeterministicAnnealing  # noqa: E402
from repro.mining import correlation_miner  # noqa: E402
from repro.mining.apriori import Apriori  # noqa: E402
from repro.mining.constraint_miner import ConstraintMiner  # noqa: E402
from repro.mining.correlation_miner import CorrelationMiner  # noqa: E402
from repro.obs import provenance  # noqa: E402

#: ``(stage, owner, attribute)``: each owner's attribute is wrapped.
STAGES = (
    ("mining.correlation", CorrelationMiner, "mine"),
    ("encode", correlation_miner, "encode_dataset"),
    ("apriori", Apriori, "mine_itemsets"),
    ("apriori", Apriori, "mine_rules"),
    ("exclusions", CorrelationMiner, "_mine_exclusions"),
    ("mining.constraint", ConstraintMiner, "fit"),
    ("fit.emissions", NChainHdbn, "fit"),
    ("annealing", DeterministicAnnealing, "fit_gaussians"),
    ("object_cpt", chdbn, "fit_object_cpt"),
)


@contextmanager
def timed_stages(totals):
    """Add each wrapped call's seconds to ``totals[stage]`` while open."""
    saved = []
    for stage, owner, name in STAGES:
        original = vars(owner)[name]

        def wrapper(*args, _f=original, _stage=stage, **kwargs):
            t0 = time.perf_counter()
            try:
                return _f(*args, **kwargs)
            finally:
                totals[_stage] = totals.get(_stage, 0.0) + time.perf_counter() - t0

        saved.append((owner, name, original))
        setattr(owner, name, wrapper)
    try:
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1, "min": min(values), "max": max(values)}


def bench_corpus(spec, fits, tmp):
    """Stage seconds of *fits* fits on one perfbench corpus."""
    dataset = generate_cace_dataset(
        n_homes=spec.homes,
        sessions_per_home=spec.sessions_per_home,
        duration_s=spec.duration_s,
        residents_per_home=spec.residents,
        seed=spec.seed,
    )
    train, _ = train_test_split(dataset, TRAIN_FRACTION, seed=spec.seed)
    per_fit = []
    digests = set()
    for i in range(fits):
        totals = {}
        with timed_stages(totals):
            t0 = time.perf_counter()
            engine = CaceEngine(strategy="c2", seed=spec.seed).fit(train)
            totals["fit"] = time.perf_counter() - t0
        path = Path(tmp) / f"fit-{spec.residents}-{i}.json"
        engine.save(path)
        digests.add(hashlib.sha256(path.read_bytes()).hexdigest())
        per_fit.append(totals)
    stages = ["fit"] + list(dict.fromkeys(stage for stage, _, _ in STAGES))
    return {
        "corpus": {
            "residents": spec.residents,
            "homes": spec.homes,
            "sessions_per_home": spec.sessions_per_home,
            "duration_s": spec.duration_s,
            "seed": spec.seed,
            "train_fraction": TRAIN_FRACTION,
            "train_steps": sum(len(seq) for seq in train.sequences),
        },
        "fits": fits,
        "seconds": {s: _summary([t.get(s, 0.0) for t in per_fit]) for s in stages},
        "artifact_sha256": sorted(digests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fits", type=int, default=7, help="fits per corpus (>= 5)")
    args = parser.parse_args(argv)
    if args.fits < 5:
        parser.error("--fits must be at least 5 for a median and IQR")

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in (("pair", PAIRS), ("trio", TRIOS)):
            results[name] = bench_corpus(spec, args.fits, tmp)
    payload = {"results": results, "provenance": provenance()}
    out = ROOT / "BENCH_fit.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    failures = []
    for name, res in results.items():
        print(f"{name}: {res['fits']} fits, artifact {res['artifact_sha256'][0][:12]}")
        for stage, s in res["seconds"].items():
            print(f"  {stage:>20s}: median {s['median']:.3f}s  IQR {s['iqr']:.3f}s")
        if len(res["artifact_sha256"]) != 1:
            failures.append(f"{name}: fits wrote {len(res['artifact_sha256'])} different artifacts")
    print(f"-> {out}")
    for failure in failures:
        print(f"FIT BENCH FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
