"""One driver per table/figure of the paper's evaluation (§VII).

Every function returns a structured result whose ``render()`` prints the
corresponding paper artefact's rows.  Dataset sizes default to scaled-down
workloads so the full suite runs in minutes; pass larger parameters for
paper-scale runs.  The benches under ``benchmarks/`` run these drivers and
write each rendered table to ``benchmarks/out/<name>.txt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.duration import duration_error
from repro.core.engine import CaceEngine
from repro.datasets.cace import generate_cace_dataset
from repro.datasets.casas import SHARED_TASKS, generate_casas_dataset
from repro.datasets.trace import (
    ContextStep,
    Dataset,
    LabeledSequence,
    ResidentObservation,
    train_test_split,
)
from repro.eval.metrics import EvaluationReport, evaluate_predictions
from repro.micro.pipelines import MicroClassificationReport, MicroPipeline
from repro.mining.correlation_miner import CorrelationMiner, CorrelationRuleSet
from repro.mining.initial_rules import initial_rule_set
from repro.models import CoupledHmm, FactorialCrf, MacroHmm
from repro.util.rng import RandomState, ensure_rng

#: Feature dimensions produced by the neck tag (zeroed in the ablation).
_NECK_FEATURE_DIMS = (2, 3, 5)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


#: A decoded session: the sequence and each resident's labels.
_Scored = Tuple[LabeledSequence, Dict[str, List[str]]]


def _split(
    rng: np.random.Generator,
    n_homes: int,
    sessions_per_home: int,
    duration_s: float,
    residents_per_home: int = 2,
) -> Tuple[Dataset, Dataset]:
    """70/30 ``(train, test)`` split of a fresh CACE corpus, drawing the
    corpus seed and then the split seed from *rng*."""
    dataset = generate_cace_dataset(
        n_homes=n_homes,
        sessions_per_home=sessions_per_home,
        duration_s=duration_s,
        residents_per_home=residents_per_home,
        seed=rng.integers(0, 2**31),
    )
    return train_test_split(dataset, 0.7, seed=rng.integers(0, 2**31))


def pair_results(dataset: Dataset, results: Dict[str, Dict[str, List[str]]]) -> List[_Scored]:
    """``(sequence, labels)`` for every sequence of *dataset* that
    :meth:`~repro.core.engine.CaceEngine.predict_dataset`'s *results*
    hold (a session that failed under ``partial=True`` is left out)."""
    keyed = ((f"{seq.home_id}:{i}", seq) for i, seq in enumerate(dataset.sequences))
    return [(seq, results[key]) for key, seq in keyed if key in results]


def pool_labels(scored: Iterable[_Scored]) -> Tuple[List[str], List[str]]:
    """``(truth, predicted)`` labels pooled over every ``(sequence,
    labels)`` pair of *scored* and every resident of the sequence."""
    truth: List[str] = []
    predicted: List[str] = []
    for seq, pred in scored:
        for rid in seq.resident_ids:
            truth.extend(seq.macro_labels(rid))
            predicted.extend(pred[rid])
    return truth, predicted


def _accuracy(scored: List[_Scored]) -> float:
    """Share of pooled labels equal to the truth."""
    truth, predicted = pool_labels(scored)
    return float(np.mean(np.array(truth, dtype=object) == np.array(predicted, dtype=object)))


def _per_home_accuracy(scored: List[_Scored]) -> Dict[str, float]:
    """Each home's accuracy, pooled over all its scored sessions and
    residents."""
    homes: Dict[str, List[_Scored]] = {}
    for seq, pred in scored:
        homes.setdefault(seq.home_id, []).append((seq, pred))
    return {home: _accuracy(pairs) for home, pairs in homes.items()}


def evaluate_engine(engine: CaceEngine, test: Dataset) -> EvaluationReport:
    """Pooled evaluation of an engine over a test dataset."""
    truth, predicted = pool_labels(pair_results(test, engine.predict_dataset(test)))
    return evaluate_predictions(truth, predicted, list(test.macro_vocab))


def strip_gestural(dataset: Dataset) -> Dataset:
    """Ablation: remove the oral-gestural channel (Fig 8a, "w/o gestural")."""
    sequences = []
    for seq in dataset.sequences:
        steps = []
        for step in seq.steps:
            observations = {}
            for rid, obs in step.observations.items():
                features = list(obs.features)
                for d in _NECK_FEATURE_DIMS:
                    features[d] = 0.0
                observations[rid] = ResidentObservation(
                    posture=obs.posture,
                    gesture=None,
                    features=tuple(features),
                    subloc_candidates=obs.subloc_candidates,
                    position_estimate=obs.position_estimate,
                )
            steps.append(
                ContextStep(
                    step.t,
                    observations,
                    step.rooms_fired,
                    step.objects_fired,
                    step.sublocs_fired,
                )
            )
        sequences.append(
            LabeledSequence(seq.home_id, seq.resident_ids, seq.step_s, steps, seq.truths)
        )
    out = dataset.subset(sequences, "no-gestural")
    out.has_gestural = False
    out.gestural_vocab = ()
    return out


def strip_location(dataset: Dataset) -> Dataset:
    """Ablation: remove sub-location context (Fig 8a, "w/o sub-location")."""
    all_sublocs = tuple(dataset.subloc_vocab)
    sequences = []
    for seq in dataset.sequences:
        steps = []
        for step in seq.steps:
            observations = {
                rid: ResidentObservation(
                    posture=obs.posture,
                    gesture=obs.gesture,
                    features=obs.features,
                    subloc_candidates=all_sublocs,
                    position_estimate=None,
                )
                for rid, obs in step.observations.items()
            }
            steps.append(ContextStep(step.t, observations, frozenset(), frozenset()))
        sequences.append(
            LabeledSequence(seq.home_id, seq.resident_ids, seq.step_s, steps, seq.truths)
        )
    return dataset.subset(sequences, "no-subloc")


# ---------------------------------------------------------------------------
# §VII-E micro-level classification (text numbers)
# ---------------------------------------------------------------------------


@dataclass
class MicroLevelResult:
    """Measured vs paper micro-classification quality."""

    reports: Dict[str, MicroClassificationReport]
    paper: Dict[str, Tuple[float, float]] = field(
        default_factory=lambda: {"postural": (0.986, 0.006), "gestural": (0.953, 0.018)}
    )

    def render(self) -> str:
        lines = ["Micro-level activity classification (paper §VII-E)"]
        for kind, report in self.reports.items():
            p_acc, p_fp = self.paper[kind]
            lines.append(
                f"  {kind:>9s}: measured acc {report.accuracy:.1%} / FP "
                f"{report.false_positive_rate:.1%}   (paper {p_acc:.1%} / {p_fp:.1%})"
            )
        return "\n".join(lines)


def micro_level_results(
    seconds_per_class: float = 36.0, seed: RandomState = 7
) -> MicroLevelResult:
    """Train/evaluate both micro pipelines on rendered IMU data."""
    rng = ensure_rng(seed)
    reports = {}
    for kind in ("postural", "gestural"):
        pipeline = MicroPipeline(kind=kind, seed=rng.integers(0, 2**31), n_trees=15)
        reports[kind] = pipeline.train_and_evaluate(seconds_per_class=seconds_per_class)
    return MicroLevelResult(reports=reports)


# ---------------------------------------------------------------------------
# Table IV — mined rules
# ---------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Mined rule set with the paper's exemplar rules checked."""

    rule_set: CorrelationRuleSet
    n_rules: int
    exemplars: Dict[str, bool]

    def render(self) -> str:
        lines = [f"Table IV — mined rules (total {self.n_rules}; paper: 58 unified rules)"]
        for name, found in self.exemplars.items():
            lines.append(f"  [{'x' if found else ' '}] {name}")
        lines.append("  top mined rules:")
        for text in self.rule_set.describe().splitlines()[:10]:
            lines.append(f"    {text}")
        return "\n".join(lines)


def table4_rules(
    n_homes: int = 5,
    sessions_per_home: int = 6,
    duration_s: float = 2700.0,
    seed: RandomState = 7,
) -> Table4Result:
    """Mine rules on a CACE-style corpus and check Table IV's exemplars."""
    dataset = generate_cace_dataset(
        n_homes=n_homes, sessions_per_home=sessions_per_home, duration_s=duration_s, seed=seed
    )
    rule_set = CorrelationMiner().mine(dataset.sequences)

    def _has_forcing(macro: str, antecedent_values: Sequence[str]) -> bool:
        for rule in rule_set.forcing_rules:
            if rule.consequent.attr != "macro" or rule.consequent.value != macro:
                continue
            values = {item.value for item in rule.antecedent}
            if set(antecedent_values) <= values:
                return True
        return False

    def _has_exclusion(value: str) -> bool:
        return any(
            excl.a.value == value and excl.b.value == value for excl in rule_set.exclusions
        )

    exemplars = {
        # A mined rule may be *stronger* than the paper's exemplar (e.g.
        # cycling alone forces exercising, no SR1 needed) — any of these
        # antecedent variants rediscovers the same behavioural fact.
        "(cycling|sitting) & SR1 => exercising": (
            _has_forcing("exercising", ["cycling", "SR1"])
            or _has_forcing("exercising", ["SR1"])
            or _has_forcing("exercising", ["cycling"])
        ),
        "(sitting|lying) & SR5 => sleeping": (
            _has_forcing("sleeping", ["lying", "SR5"]) or _has_forcing("sleeping", ["SR5"])
        ),
        "U1:SR9 => not U2:SR9 (bathroom exclusion)": _has_exclusion("SR9"),
        "U1:SR4 & U2:SR4 => dining together": any(
            r.consequent.attr == "macro"
            and r.consequent.value == "dining"
            and {i.value for i in r.antecedent} == {"SR4"}
            and len({i.slot for i in r.antecedent}) == 2
            for r in rule_set.forcing_rules
        ),
    }
    return Table4Result(rule_set=rule_set, n_rules=rule_set.n_rules, exemplars=exemplars)


# ---------------------------------------------------------------------------
# Table V + Fig 11 — pruning strategies: duration error, accuracy, overhead
# ---------------------------------------------------------------------------


@dataclass
class StrategyResult:
    """One strategy's row across Table V and Fig 11."""

    strategy: str
    accuracy: float
    duration_error: float
    build_seconds: float
    decode_seconds: float
    #: Trellis candidates per step, summed over every trellis session (nh
    #: and ncr count each resident's own chain); NaN when nothing decoded.
    mean_joint_states: float = float("nan")
    #: Total joint transition-matrix entries evaluated while decoding —
    #: the state-space-size metric behind the paper's 16x claim.
    transition_entries: float = float("nan")

    @property
    def overhead_seconds(self) -> float:
        """Build + decode: the time to produce the model's labelling."""
        return self.build_seconds + self.decode_seconds


@dataclass
class PruningComparison:
    """Results for all four strategies (Table V + Fig 11a/11b)."""

    results: Dict[str, StrategyResult]
    paper_accuracy: Dict[str, float] = field(
        default_factory=lambda: {"nh": 0.762, "ncr": 0.73, "ncs": 0.98, "c2": 0.95}
    )
    paper_duration_error: Dict[str, float] = field(
        default_factory=lambda: {"nh": 0.169, "ncr": 0.206, "ncs": 0.0772, "c2": 0.081}
    )
    paper_overhead: Dict[str, float] = field(
        default_factory=lambda: {"nh": 4.95, "ncr": 1.5, "ncs": 15.96, "c2": 0.96}
    )

    @property
    def speedup_ncs_over_c2(self) -> float:
        """The headline ratio (paper: ~16x); NaN unless both strategies ran."""
        if "ncs" not in self.results or "c2" not in self.results:
            return float("nan")
        c2 = self.results["c2"].overhead_seconds
        return self.results["ncs"].overhead_seconds / max(c2, 1e-9)

    @property
    def state_space_ratio_ncs_over_c2(self) -> float:
        """Joint transition-entry ratio — the mechanism behind the 16x."""
        if "ncs" not in self.results or "c2" not in self.results:
            return float("nan")
        c2 = self.results["c2"].transition_entries
        ncs = self.results["ncs"].transition_entries
        if not (np.isfinite(c2) and np.isfinite(ncs)):
            return float("nan")
        return ncs / max(c2, 1e-9)

    def render(self) -> str:
        lines = [
            "Table V + Fig 11 — pruning strategies",
            f"{'strategy':>8s} {'acc':>7s} {'paper':>7s} {'dur.err':>8s} "
            f"{'paper':>7s} {'overhead':>9s} {'paper':>7s}",
        ]
        for name in ("nh", "ncr", "ncs", "c2"):
            if name not in self.results:
                continue
            r = self.results[name]
            lines.append(
                f"{name.upper():>8s} {r.accuracy * 100:6.1f}% {self.paper_accuracy[name] * 100:6.1f}% "
                f"{r.duration_error * 100:7.2f}% {self.paper_duration_error[name] * 100:6.2f}% "
                f"{r.overhead_seconds:8.2f}s {self.paper_overhead[name]:6.2f}s"
            )
        if np.isfinite(self.speedup_ncs_over_c2):
            lines.append(
                f"NCS/C2 overhead ratio: {self.speedup_ncs_over_c2:.1f}x (paper: ~16x)"
            )
        if np.isfinite(self.state_space_ratio_ncs_over_c2):
            lines.append(
                "NCS/C2 joint-trellis size ratio: "
                f"{self.state_space_ratio_ncs_over_c2:.1f}x (the paper's 16x is a "
                "state-space reduction; wall-clock ratios depend on how much of "
                "the runtime the trellis dominates on the host)"
            )
        return "\n".join(lines)


def fig11_pruning_strategies(
    n_homes: int = 4,
    sessions_per_home: int = 5,
    duration_s: float = 2700.0,
    seed: RandomState = 7,
    strategies: Sequence[str] = ("nh", "ncr", "ncs", "c2"),
) -> PruningComparison:
    """Run every pruning strategy; also provides Table V's duration errors."""
    rng = ensure_rng(seed)
    train, test = _split(rng, n_homes, sessions_per_home, duration_s)

    results: Dict[str, StrategyResult] = {}
    for strategy in strategies:
        engine = CaceEngine(strategy=strategy, seed=rng.integers(0, 2**31))
        engine.fit(train)
        scored = pair_results(test, engine.predict_dataset(test))
        report = evaluate_predictions(*pool_labels(scored), list(test.macro_vocab))
        errors = [
            duration_error(seq.macro_labels(rid), pred[rid], seq.step_s)
            for seq, pred in scored
            for rid in seq.resident_ids
        ]
        stats = engine.batch_stats_
        results[strategy] = StrategyResult(
            strategy=strategy,
            accuracy=report.accuracy,
            duration_error=float(np.mean(errors)) if errors else 0.0,
            build_seconds=engine.build_seconds,
            decode_seconds=engine.decode_seconds,
            mean_joint_states=stats.mean_joint_states if stats.steps else float("nan"),
            transition_entries=float(stats.transition_entries) if stats.steps else float("nan"),
        )
    return PruningComparison(results=results)


def table5_duration_error(**kwargs) -> PruningComparison:
    """Table V is the duration-error column of the strategy comparison."""
    return fig11_pruning_strategies(**kwargs)


# ---------------------------------------------------------------------------
# Fig 8(a) — context ablation per home
# ---------------------------------------------------------------------------


@dataclass
class ContextAblationResult:
    """Per-home accuracies for the three context configurations."""

    per_home: Dict[str, Dict[str, float]]  # home -> config -> accuracy
    overall: Dict[str, float]
    paper: Dict[str, float] = field(
        default_factory=lambda: {
            "overall": 0.951,
            "without_gestural": 0.897,
            "without_sublocation": 0.805,
        }
    )

    def render(self) -> str:
        lines = [
            "Fig 8(a) — context ablation",
            f"{'home':>8s} {'overall':>9s} {'w/o gest':>9s} {'w/o subloc':>11s}",
        ]
        for home in sorted(self.per_home):
            row = self.per_home[home]
            lines.append(
                f"{home:>8s} {row['overall'] * 100:8.1f}% "
                f"{row['without_gestural'] * 100:8.1f}% "
                f"{row['without_sublocation'] * 100:10.1f}%"
            )
        lines.append(
            f"{'ALL':>8s} {self.overall['overall'] * 100:8.1f}% "
            f"{self.overall['without_gestural'] * 100:8.1f}% "
            f"{self.overall['without_sublocation'] * 100:10.1f}%"
        )
        lines.append(
            f"paper:   overall {self.paper['overall']:.1%}, w/o gestural "
            f"{self.paper['without_gestural']:.1%}, w/o sub-location "
            f"{self.paper['without_sublocation']:.1%}"
        )
        return "\n".join(lines)


def fig8a_context_ablation(
    n_homes: int = 5,
    sessions_per_home: int = 4,
    duration_s: float = 2400.0,
    seed: RandomState = 7,
) -> ContextAblationResult:
    """Accuracy with full context, without gestural, without sub-location;
    a home's accuracy pools all its test sessions."""
    rng = ensure_rng(seed)
    train, test = _split(rng, n_homes, sessions_per_home, duration_s)

    configs = {
        "overall": (train, test),
        "without_gestural": (strip_gestural(train), strip_gestural(test)),
        "without_sublocation": (strip_location(train), strip_location(test)),
    }
    per_home: Dict[str, Dict[str, float]] = {}
    overall: Dict[str, float] = {}
    for config, (cfg_train, cfg_test) in configs.items():
        engine = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
        engine.fit(cfg_train)
        scored = pair_results(cfg_test, engine.predict_dataset(cfg_test))
        for home, acc in _per_home_accuracy(scored).items():
            per_home.setdefault(home, {})[config] = acc
        overall[config] = _accuracy(scored)
    return ContextAblationResult(per_home=per_home, overall=overall)


# ---------------------------------------------------------------------------
# Fig 8(b) — precision & recall versus FP rate
# ---------------------------------------------------------------------------


@dataclass
class CostCurveResult:
    """Operating points as the decision cost (threshold) sweeps."""

    points: List[Tuple[float, float, float]]  # (fp_rate, precision, recall)

    def render(self) -> str:
        lines = ["Fig 8(b) — precision & recall vs FP rate", "   FP%   Prec%  Recall%"]
        for fp, prec, rec in self.points:
            lines.append(f"{fp * 100:6.2f} {prec * 100:7.1f} {rec * 100:7.1f}")
        return "\n".join(lines)


def fig8b_cost_curves(
    n_homes: int = 3,
    sessions_per_home: int = 4,
    duration_s: float = 2400.0,
    seed: RandomState = 7,
    thresholds: Sequence[float] = (0.0, 0.3, 0.5, 0.7, 0.85, 0.95),
) -> CostCurveResult:
    """Sweep the posterior decision threshold (the paper adjusts the
    classifier's cost function); abstentions count against recall."""
    rng = ensure_rng(seed)
    train, test = _split(rng, n_homes, sessions_per_home, duration_s)
    engine = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
    engine.fit(train)

    labels = list(test.macro_vocab)
    truth: List[str] = []
    scores: List[np.ndarray] = []
    for seq in test.sequences:
        marginals = engine.posterior_marginals(seq)
        for rid in seq.resident_ids:
            truth.extend(seq.macro_labels(rid))
            scores.append(marginals[rid])
    score_mat = np.vstack(scores)
    truth_arr = np.array(truth, dtype=object)

    points: List[Tuple[float, float, float]] = []
    for tau in thresholds:
        arg = np.argmax(score_mat, axis=1)
        conf = score_mat[np.arange(len(arg)), arg]
        predicted = np.array([labels[a] for a in arg], dtype=object)
        decided = conf >= tau
        tp = float(np.sum(decided & (predicted == truth_arr)))
        fp = float(np.sum(decided & (predicted != truth_arr)))
        precision = tp / max(tp + fp, 1e-9)
        recall = tp / max(len(truth_arr), 1e-9)
        # Macro-averaged one-vs-rest FP rate over decided instances.
        fp_rates = []
        for label in labels:
            negatives = truth_arr != label
            claimed = decided & (predicted == label)
            if negatives.any():
                fp_rates.append(float(np.sum(claimed & negatives)) / float(np.sum(negatives)))
        points.append((float(np.mean(fp_rates)), precision, recall))
    return CostCurveResult(points=points)


# ---------------------------------------------------------------------------
# Fig 9 — CASAS per-class results
# ---------------------------------------------------------------------------


@dataclass
class CasasResult:
    """Per-class CASAS evaluation (the paper's 15-row table)."""

    report: EvaluationReport
    shared_accuracy: float
    n_rules: int
    paper_overall: Dict[str, float] = field(
        default_factory=lambda: {
            "fp_rate": 0.014,
            "precision": 0.965,
            "recall": 0.945,
            "accuracy": 0.945,
            "shared_accuracy": 0.993,
            "n_rules": 47,
        }
    )

    def render(self) -> str:
        lines = ["Fig 9 — CASAS-style dataset, per-class metrics"]
        lines.append(self.report.render())
        lines.append(
            f"shared-activity accuracy: {self.shared_accuracy:.1%} "
            f"(paper {self.paper_overall['shared_accuracy']:.1%}); "
            f"rules after merge: {self.n_rules} (paper {self.paper_overall['n_rules']})"
        )
        return "\n".join(lines)


def fig9_casas_per_class(
    n_pairs: int = 8,
    sessions_per_pair: int = 2,
    duration_scale: float = 0.35,
    seed: RandomState = 7,
) -> CasasResult:
    """Coupled HDBN on the CASAS-style corpus (no gestural channel)."""
    rng = ensure_rng(seed)
    dataset = generate_casas_dataset(
        n_pairs=n_pairs,
        sessions_per_pair=sessions_per_pair,
        duration_scale=duration_scale,
        seed=rng.integers(0, 2**31),
    )
    train, test = train_test_split(dataset, 0.5, seed=rng.integers(0, 2**31))
    engine = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
    engine.fit(train)

    truth, predicted = pool_labels(pair_results(test, engine.predict_dataset(test)))
    report = evaluate_predictions(truth, predicted, list(test.macro_vocab))

    truth_arr = np.array(truth, dtype=object)
    pred_arr = np.array(predicted, dtype=object)
    shared_mask = np.isin(truth_arr, list(SHARED_TASKS))
    shared_accuracy = (
        float(np.mean(pred_arr[shared_mask] == truth_arr[shared_mask]))
        if shared_mask.any()
        else float("nan")
    )
    n_rules = engine.rule_set_.n_rules if engine.rule_set_ is not None else 0
    return CasasResult(report=report, shared_accuracy=shared_accuracy, n_rules=n_rules)


# ---------------------------------------------------------------------------
# Fig 10 — model comparison on the CACE dataset
# ---------------------------------------------------------------------------


@dataclass
class ModelComparisonResult:
    """Per-activity accuracy of the four models + CHDBN per-class metrics."""

    per_activity: Dict[str, Dict[str, float]]  # model -> activity -> accuracy
    overall: Dict[str, float]
    chdbn_report: EvaluationReport
    paper_overall: Dict[str, float] = field(
        default_factory=lambda: {"hmm": 0.75, "fcrf": 0.87, "chmm": 0.90, "chdbn": 0.951}
    )

    def render(self) -> str:
        models = ["hmm", "fcrf", "chmm", "chdbn"]
        activities = sorted(next(iter(self.per_activity.values())).keys())
        lines = ["Fig 10(a) — per-activity accuracy", "activity".rjust(18) + "".join(m.upper().rjust(8) for m in models)]
        for activity in activities:
            row = activity.rjust(18)
            for model in models:
                row += f"{self.per_activity[model].get(activity, float('nan')) * 100:7.1f}%"
            lines.append(row)
        overall_row = "OVERALL".rjust(18)
        for model in models:
            overall_row += f"{self.overall[model] * 100:7.1f}%"
        lines.append(overall_row)
        paper_row = "paper".rjust(18)
        for model in models:
            paper_row += f"{self.paper_overall[model] * 100:7.1f}%"
        lines.append(paper_row)
        lines.append("")
        lines.append("Fig 10(b) — CHDBN per-class metrics")
        lines.append(self.chdbn_report.render())
        return "\n".join(lines)


def fig10_model_comparison(
    n_homes: int = 4,
    sessions_per_home: int = 5,
    duration_s: float = 2700.0,
    seed: RandomState = 7,
) -> ModelComparisonResult:
    """HMM [9] vs FCRF [5] vs CHMM [4] vs CHDBN (CACE)."""
    rng = ensure_rng(seed)
    train, test = _split(rng, n_homes, sessions_per_home, duration_s)

    engines = {
        "hmm": MacroHmm(),
        "fcrf": FactorialCrf(seed=rng.integers(0, 2**31)),
        "chmm": CoupledHmm(),
    }
    predict_fns = {}
    for name, model in engines.items():
        model.fit(train)
        predict_fns[name] = model.predict
    cace = CaceEngine(strategy="c2", seed=rng.integers(0, 2**31))
    cace.fit(train)
    predict_fns["chdbn"] = cace.predict

    per_activity: Dict[str, Dict[str, float]] = {}
    overall: Dict[str, float] = {}
    chdbn_report: Optional[EvaluationReport] = None
    for name, fn in predict_fns.items():
        truth, predicted = pool_labels((seq, fn(seq)) for seq in test.sequences)
        report = evaluate_predictions(truth, predicted, list(test.macro_vocab))
        per_activity[name] = {
            label: m.recall for label, m in report.per_class.items()
        }
        overall[name] = report.accuracy
        if name == "chdbn":
            chdbn_report = report
    return ModelComparisonResult(
        per_activity=per_activity, overall=overall, chdbn_report=chdbn_report
    )


# ---------------------------------------------------------------------------
# Fig 12 — incremental learning with/without initial rules
# ---------------------------------------------------------------------------


@dataclass
class IncrementalResult:
    """Accuracy/overhead/trellis-size versus training-sample fraction."""

    #: (fraction, config, accuracy, overhead_s, mean_joint_states)
    rows: List[Tuple[float, str, float, float, float]]

    def render(self) -> str:
        lines = [
            "Fig 12 — incremental performance vs sample size",
            f"{'frac':>6s} {'config':>19s} {'acc':>7s} {'overhead':>9s} {'joint/step':>11s}",
        ]
        for frac, config, acc, overhead, joint in self.rows:
            lines.append(
                f"{frac * 100:5.0f}% {config:>19s} {acc * 100:6.1f}% "
                f"{overhead:8.2f}s {joint:10.0f}"
            )
        return "\n".join(lines)


def fig12_incremental(
    n_homes: int = 3,
    sessions_per_home: int = 5,
    duration_s: float = 2400.0,
    fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
    seed: RandomState = 7,
) -> IncrementalResult:
    """Sweep the training fraction, with and without seeded initial rules."""
    rng = ensure_rng(seed)
    train, test = _split(rng, n_homes, sessions_per_home, duration_s)

    rows: List[Tuple[float, str, float, float, float]] = []
    for fraction in fractions:
        n_seqs = max(2, int(round(fraction * len(train.sequences))))
        sub_train = train.subset(train.sequences[:n_seqs], f"frac{fraction}")
        for config, seed_rules in (
            ("no_initial_rules", None),
            ("with_initial_rules", initial_rule_set()),
        ):
            engine = CaceEngine(
                strategy="c2",
                initial_rules=seed_rules,
                seed=rng.integers(0, 2**31),
            )
            engine.fit(sub_train)
            acc = _accuracy(pair_results(test, engine.predict_dataset(test)))
            stats = engine.batch_stats_
            rows.append(
                (
                    fraction,
                    config,
                    acc,
                    engine.build_seconds + engine.decode_seconds,
                    stats.mean_joint_states if stats.steps else float("nan"),
                )
            )
    return IncrementalResult(rows=rows)
