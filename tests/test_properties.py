"""Cross-cutting property-based tests on evaluation and model invariants."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.duration import duration_error
from repro.core.kernels import backward_step, fold_block, forward_step, normalised
from repro.core.loosely_coupled import best_first
from repro.eval.metrics import evaluate_predictions
from repro.mining.apriori import Apriori
from repro.mining.context_rules import Item
from repro.mining.correlation_miner import CorrelationMiner
from repro.models.distributions import normalize, shrink_coupled_transitions

from decode_spec import reference_backward_step, reference_forward_step
from dense_spec import forward_backward, viterbi_decode
from fit_spec import time_t_slice

#: A divide-by-zero or invalid value in the sum-product recursion fails the
#: module instead of committing a NaN label.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

_LABELS = ["a", "b", "c"]


@st.composite
def label_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    truth = draw(st.lists(st.sampled_from(_LABELS), min_size=n, max_size=n))
    predicted = draw(st.lists(st.sampled_from(_LABELS), min_size=n, max_size=n))
    return truth, predicted


class TestMetricsProperties:
    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_accuracy_bounds_and_identity(self, pair):
        truth, predicted = pair
        report = evaluate_predictions(truth, predicted, _LABELS)
        assert 0.0 <= report.accuracy <= 1.0
        perfect = evaluate_predictions(truth, truth, _LABELS)
        assert perfect.accuracy == 1.0
        assert perfect.fp_rate == pytest.approx(0.0)

    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_recall_weighted_equals_accuracy(self, pair):
        # Pooled recall weighted by class support is exactly accuracy.
        truth, predicted = pair
        report = evaluate_predictions(truth, predicted, _LABELS)
        assert report.recall == pytest.approx(report.accuracy)

    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_per_class_metrics_bounded(self, pair):
        truth, predicted = pair
        report = evaluate_predictions(truth, predicted, _LABELS)
        for metrics in report.per_class.values():
            assert 0.0 <= metrics.precision <= 1.0
            assert 0.0 <= metrics.recall <= 1.0
            assert 0.0 <= metrics.fp_rate <= 1.0


class TestDurationProperties:
    @given(st.lists(st.sampled_from(_LABELS), min_size=2, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_perfect_prediction_zero_error(self, labels):
        assert duration_error(labels, labels, step_s=15.0) == pytest.approx(0.0)

    @given(label_pairs())
    @settings(max_examples=60, deadline=None)
    def test_error_non_negative(self, pair):
        truth, predicted = pair
        assert duration_error(truth, predicted, step_s=15.0) >= 0.0


class TestDistributionProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_normalize_sums_to_one(self, weights):
        out = normalize(np.array(weights))
        assert out.sum() == pytest.approx(1.0)
        assert (out >= 0).all()

    def test_shrinkage_interpolates_toward_marginal(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 3, size=(4, 4, 4)).astype(float)
        heavy = counts.copy()
        heavy[0, 0, :] = [100.0, 0.0, 0.0, 0.0]
        shrunk = shrink_coupled_transitions(heavy, kappa=20.0)
        # Well-observed context rows stay close to their empirical row...
        assert shrunk[0, 0, 0] > 0.8
        # ...and every row is a distribution.
        assert np.allclose(shrunk.sum(axis=2), 1.0)


class TestViterbiProperties:
    @st.composite
    @staticmethod
    def hmm_instances(draw):
        n = draw(st.integers(min_value=2, max_value=4))
        t = draw(st.integers(min_value=2, max_value=6))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        prior = rng.dirichlet(np.ones(n))
        trans = rng.dirichlet(np.ones(n), size=n)
        log_e = rng.normal(0, 1, size=(t, n))
        return np.log(prior), np.log(trans), log_e

    @given(hmm_instances())
    @settings(max_examples=40, deadline=None)
    def test_viterbi_matches_brute_force(self, instance):
        log_prior, log_trans, log_e = instance
        path, score = viterbi_decode(log_prior, log_trans, log_e)
        t, n = log_e.shape

        def path_score(states):
            s = log_prior[states[0]] + log_e[0, states[0]]
            for i in range(1, t):
                s += log_trans[states[i - 1], states[i]] + log_e[i, states[i]]
            return s

        from itertools import product

        best = max(product(range(n), repeat=t), key=path_score)
        assert path_score(list(path)) == pytest.approx(path_score(best))

    @given(hmm_instances())
    @settings(max_examples=40, deadline=None)
    def test_forward_backward_marginals_normalised(self, instance):
        log_prior, log_trans, log_e = instance
        gamma, _ = forward_backward(log_prior, log_trans, log_e)
        assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-8)

    @given(hmm_instances())
    @settings(max_examples=40, deadline=None)
    def test_viterbi_path_has_positive_marginals(self, instance):
        log_prior, log_trans, log_e = instance
        path, _ = viterbi_decode(log_prior, log_trans, log_e)
        gamma, _ = forward_backward(log_prior, log_trans, log_e)
        for t, state in enumerate(path):
            assert gamma[t, state] > 0.0


class TestLinearSumProductProperties:
    """The normalised linear sum-product steps equal the log-domain spec."""

    @st.composite
    @staticmethod
    def ragged_steps(draw):
        """A random (P, C) log block spanning up to 200 nats, with -inf
        entries, optional all -inf rows and columns, and vectors over both
        ends that may hold -inf entries (or be all -inf)."""
        p = draw(st.integers(min_value=1, max_value=9))
        c = draw(st.integers(min_value=1, max_value=9))
        span = draw(st.floats(min_value=0.0, max_value=200.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        log_t = rng.uniform(-span, 0.0, size=(p, c)) + rng.normal(0.0, 5.0)
        log_t[rng.random((p, c)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = -np.inf
        if draw(st.booleans()):
            log_t[rng.integers(p)] = -np.inf
        if draw(st.booleans()):
            log_t[:, rng.integers(c)] = -np.inf

        def vector(n):
            v = rng.uniform(-draw(st.floats(0.0, 200.0)), 0.0, size=n) + rng.normal(0.0, 50.0)
            v[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = -np.inf
            return v

        return log_t, vector(p), vector(c), vector(c)

    @staticmethod
    def assert_close(got, want_log):
        """*got* is the normalised ``exp`` of the log-domain *want_log*:
        exact zeros where it is -inf, 1e-10 relative on every entry of at
        least 1e-300, and no NaN."""
        want = normalised(want_log)
        assert got.shape == want.shape
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(got[np.isneginf(want_log)], 0.0)
        big = want >= 1e-300
        err = np.abs(got[big] - want[big])
        assert (err <= 1e-10 * want[big]).all(), err.max()

    @given(ragged_steps())
    @settings(max_examples=200, deadline=None)
    def test_forward_step_matches_log_domain(self, case):
        log_t, alpha_prev, scores, _ = case
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_forward_step(alpha_prev, log_t, scores)
        got = forward_step(normalised(alpha_prev), fold_block(log_t, scores), scores)
        self.assert_close(got, want)

    @given(ragged_steps())
    @settings(max_examples=200, deadline=None)
    def test_backward_step_matches_log_domain(self, case):
        log_t, _, scores_next, beta_next = case
        n_cur = log_t.shape[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = reference_backward_step(beta_next, log_t, scores_next, n_cur)
        got = backward_step(normalised(beta_next), fold_block(log_t, scores_next), n_cur)
        self.assert_close(got, want)


class TestJointCapProperties:
    """The joint cap's partition formulation equals its stable-sort spec."""

    @st.composite
    @staticmethod
    def tied_scores(draw):
        """Scores drawn from a few distinct values (so ties sit at and
        inside the cut), with optional -inf entries, and a cap that binds."""
        n = draw(st.integers(min_value=2, max_value=400))
        cap = draw(st.integers(min_value=1, max_value=n - 1))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.normal(0.0, 10.0, size=draw(st.integers(1, 8)))
        if draw(st.booleans()):
            values[0] = -np.inf
        scores = values[rng.integers(values.size, size=n)]
        if draw(st.booleans()):
            # Force a tie across the cut: the cap-th best value repeats.
            order = np.argsort(-scores, kind="stable")
            scores[order[max(cap - 2, 0):cap + 2]] = scores[order[cap - 1]]
        return scores, cap

    @given(tied_scores())
    @settings(max_examples=300, deadline=None)
    def test_best_first_is_stable_descending(self, case):
        scores, cap = case
        want = np.argsort(-scores, kind="stable")[:cap]
        np.testing.assert_array_equal(best_first(scores, cap), want)


class TestAprioriProperties:
    """The fixed-depth Apriori equals a brute-force count of every itemset
    of one, two and three items, in the same order."""

    _UNIVERSE = (
        [Item(slot, "t", "macro", v) for slot in ("u1", "u2") for v in ("a", "b", "c")]
        + [Item("u1", time, "subloc", v) for time in ("t", "t-1") for v in ("x", "y")]
        + [Item("amb", "t", "room", v) for v in ("r", "s")]
    )

    @st.composite
    @staticmethod
    def transaction_lists(draw):
        universe = draw(
            st.lists(
                st.sampled_from(TestAprioriProperties._UNIVERSE),
                min_size=8, max_size=12, unique=True,
            )
        )
        n = draw(st.integers(min_value=8, max_value=60))
        member = st.lists(st.sampled_from(universe), max_size=6, unique=True)
        return [frozenset(draw(member)) for _ in range(n)]

    @staticmethod
    def brute_force(transactions, min_support):
        n = len(transactions)
        universe = sorted({item for t in transactions for item in t})
        supports = {}
        for size in (1, 2, 3):
            for combo in combinations(universe, size):
                count = sum(1 for t in transactions if t.issuperset(combo))
                if count >= max(min_support * n, 1):
                    supports[frozenset(combo)] = count / n
        return supports

    @given(transaction_lists(), st.sampled_from([0.0, 0.05, 0.1, 0.25]))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_count(self, transactions, min_support):
        got = Apriori(min_support=min_support).mine_itemsets(transactions).supports
        want = self.brute_force(transactions, min_support)
        assert list(got.items()) == list(want.items())
        assert all(type(v) is np.float64 for v in got.values())

    @given(transaction_lists(), st.sampled_from([0.0, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_pair_counts_are_co_occurrences(self, transactions, min_support):
        mined = Apriori(min_support=min_support).mine_itemsets(transactions)
        singles = sorted(next(iter(s)) for s in mined.supports if len(s) == 1)
        assert sorted(mined.frequent_index) == singles
        for a in singles:
            for b in singles:
                want = sum(a in t and b in t for t in transactions)
                assert mined.co_occurrences(a, b) == want

    @given(transaction_lists(), st.sampled_from([0.0, 0.05, 0.1, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_support_antimonotone(self, transactions, min_support):
        supports = Apriori(min_support=min_support).mine_itemsets(transactions).supports
        for itemset, support in supports.items():
            for item in itemset:
                smaller = itemset - {item}
                if smaller:
                    assert supports[smaller] >= support

    @given(transaction_lists(), st.sampled_from([0.0, 0.05, 0.1, 0.25]))
    @settings(max_examples=40, deadline=None)
    def test_supports_match_direct_count(self, transactions, min_support):
        supports = Apriori(min_support=min_support).mine_itemsets(transactions).supports
        n = len(transactions)
        for itemset, support in supports.items():
            count = sum(1 for t in transactions if itemset <= t)
            assert count >= max(min_support * n, 1)
            assert support == count / n


class TestTimeSliceMiningProperties:
    """Mining two-slice transactions gives the rules of their time-t
    slices, because the miner keeps only same-time rules."""

    @st.composite
    @staticmethod
    def two_slice_transactions(draw):
        """Sub-locations, macros that follow them with probability
        ``follow``, t-1 values that repeat t's with probability ``stick``,
        and ``u2`` kept out of ``u1``'s sub-location with probability
        ``apart`` (the shape of a mined exclusion)."""
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        n = draw(st.integers(20, 200))
        follow, stick = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        apart = draw(st.sampled_from([0.0, 0.5, 1.0]))
        out = []
        for _ in range(n):
            now = rng.integers(0, 3, size=2)
            if now[1] == now[0] and rng.random() < apart:
                now[1] = (now[0] + 1) % 3
            before = np.where(rng.random(2) < stick, now, rng.integers(0, 3, size=2))
            items = set()
            for u, slot in enumerate(("u1", "u2")):
                for time, v in (("t", now[u]), ("t-1", before[u])):
                    macro = v if rng.random() < follow else rng.integers(0, 3)
                    items.add(Item(slot, time, "subloc", "xyz"[v]))
                    items.add(Item(slot, time, "macro", "abc"[macro]))
            if rng.random() < 0.5:
                items.add(Item("amb", "t", "room", "pq"[now[0] % 2]))
            out.append(frozenset(items))
        return out

    @given(two_slice_transactions(), st.sampled_from([0.04, 0.1, 0.25]))
    @settings(max_examples=60, deadline=None)
    def test_time_t_slice_mines_the_same_rules(self, transactions, min_support):
        miner = CorrelationMiner(min_support=min_support)
        got = miner.mine_transactions(time_t_slice(transactions))
        want = miner.mine_transactions(transactions)
        # Rules compare field by field: antecedent, consequent, support and
        # confidence, in order.
        assert got.forcing_rules == want.forcing_rules
        assert got.exclusions == want.exclusions
