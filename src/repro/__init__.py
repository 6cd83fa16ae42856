"""repro — a reproduction of CACE (Alam, Roy, Misra, Taylor; ICDCS 2016).

CACE recognises the *macro* activities (cooking, dining, watching TV, ...)
of multiple residents in a smart home from postural/oral-gestural wearable
sensing plus ambient context, by (a) modelling the residents jointly with a
loosely-coupled Hierarchical Dynamic Bayesian Network and (b) pruning the
coupled model's joint state space with data-mined behavioural correlations
and constraints.

Typical use::

    from repro import CaceEngine, generate_cace_dataset, train_test_split

    dataset = generate_cace_dataset(n_homes=2, sessions_per_home=3, seed=1)
    train, test = train_test_split(dataset, 0.7, seed=2)
    engine = CaceEngine(strategy="c2").fit(train)
    labels = engine.predict(test.sequences[0])

Packages
--------
``repro.sensors``   wearable + ambient sensing substrate (IMU, PIR, iBeacon)
``repro.home``      smart-home simulator with coupled resident behaviour
``repro.datasets``  CACE / CASAS-style corpus generation and containers
``repro.micro``     micro-activity recognition (features, RF, DA clustering)
``repro.mining``    Apriori, correlation miner, constraint miner
``repro.models``    baselines: per-user HMM, coupled HMM, factorial CRF
``repro.core``      the CACE contribution: (C)HDBN + pruning + engine
``repro.eval``      metrics and per-table/figure experiment drivers
``repro.obs``       observability: metrics, tracing, provenance (off by default)
"""

from repro.core import CaceEngine, SingleUserHdbn
from repro.core.loosely_coupled import NChainHdbn
from repro.core.smoother import OnlineSmoother
from repro.datasets import (
    Dataset,
    LabeledSequence,
    generate_cace_dataset,
    generate_casas_dataset,
    train_test_split,
)
from repro.mining import ConstraintMiner, CorrelationMiner
from repro.models import CoupledHmm, FactorialCrf, MacroHmm
from repro.util.serialization import (
    load_dataset,
    load_rule_set,
    save_dataset,
    save_rule_set,
)

__version__ = "1.0.0"

__all__ = [
    "CaceEngine",
    "SingleUserHdbn",
    "NChainHdbn",
    "OnlineSmoother",
    "Dataset",
    "LabeledSequence",
    "generate_cace_dataset",
    "generate_casas_dataset",
    "train_test_split",
    "ConstraintMiner",
    "CorrelationMiner",
    "CoupledHmm",
    "FactorialCrf",
    "MacroHmm",
    "save_dataset",
    "load_dataset",
    "save_rule_set",
    "load_rule_set",
    "__version__",
]
