"""Sequence-kernel equivalence: batched decode == the seed's scalar path.

The sequence-level kernels (``repro.core.kernels``) must be a pure
speedup: every batched row, rule mask and candidate list reproduces the seed's
straight-line per-step ("scalar") implementation in ``decode_spec``
(``tests/decode_spec.py``), the optimised decoders reproduce the seed
reference decoders' labels and DecodeStats at fixed seeds, and offline
decoding equals the fixed-lag smoother at lag >= T for every family.
"""

import dataclasses
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import DecodeStats
from repro.core.chdbn import GmmBank, _MacroGmm, build_candidate_set
from repro.core.hdbn import SingleUserHdbn
from repro.core import kernels, loosely_coupled
from repro.core.kernels import SequenceKernel, linear_block, macro_argmax, viterbi_path
from repro.core.loosely_coupled import PAIR_CAPS, NChainHdbn, joint_codes
from repro.core.rule_kernel import CrossRulePruner, StepItems
from repro.core.smoother import OnlineSmoother
from repro.core.state_space import CandidateSet
from repro.datasets import generate_cace_dataset, train_test_split
from repro.datasets.trace import ContextStep, ResidentObservation
from repro.mining import ConstraintMiner, CorrelationMiner
from repro.models import CoupledHmm, FactorialCrf, GaussianEmission, MacroHmm
from repro.models.chmm import PHONE_FEATURE_DIMS
from repro.models.inputs import step_features
from repro.serve import SessionRouter

import decode_spec
from dense_spec import forward_backward, viterbi_decode

#: The object channel sums its Bernoulli logs in another order than the
#: seed (see decode_spec), so scores may differ in the last ulp.
EMISSION_ATOL = 1e-9

#: Length of the 4-resident test session (the seed reference decodes it).
QUAD_STEPS = 16


@pytest.fixture(scope="module")
def pair_models(cace_split, constraint_model, rule_set):
    """One fitted model per two-resident strategy."""
    train, _ = cace_split

    def build(cls, **kw):
        return cls(constraint_model=constraint_model, seed=5, **kw).fit(train)

    return {
        "ncr": build(SingleUserHdbn, rule_set=rule_set),
        "ncs": build(NChainHdbn, rule_set=None, **PAIR_CAPS),
        "c2": build(NChainHdbn, rule_set=rule_set, **PAIR_CAPS),
    }


def _fit_nchain(dataset, train_fraction, min_support):
    """(fast model, seed reference, test) at class-default caps."""
    train, test = train_test_split(dataset, train_fraction, seed=9)
    rules = CorrelationMiner(min_support=min_support).mine(train.sequences)
    cm = ConstraintMiner().fit(
        train.sequences,
        train.macro_vocab,
        train.postural_vocab,
        train.gestural_vocab,
        train.subloc_vocab,
    )
    fast = NChainHdbn(constraint_model=cm, rule_set=rules, seed=5).fit(train)
    return fast, decode_spec.reference_model(fast), test


@pytest.fixture(scope="module")
def nchain_setup():
    """(fast model, seed reference, test) for 3 residents."""
    dataset = generate_cace_dataset(
        n_homes=1,
        sessions_per_home=3,
        duration_s=1200.0,
        residents_per_home=3,
        seed=77,
    )
    return _fit_nchain(dataset, 0.67, min_support=0.03)


@pytest.fixture(scope="module")
def quad_setup():
    """(fast model, seed reference, test) for 4 residents: one home, one
    short test session.  Mining at a higher support keeps set-up small
    (symmetrised slots make 4-resident itemsets numerous); the rules
    still prune."""
    dataset = generate_cace_dataset(
        n_homes=1,
        sessions_per_home=2,
        duration_s=600.0,
        residents_per_home=4,
        seed=3,
    )
    fast, reference, test = _fit_nchain(dataset, 0.5, min_support=0.12)
    return fast, reference, test.subset([test.sequences[0].slice(0, QUAD_STEPS)])


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def test_gaussian_log_pdf_rows_matches_scalar():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(40, 6))
    states = rng.integers(0, 4, size=40)
    em = GaussianEmission(dim=6).fit(features, states)
    rows = em.log_pdf_rows(range(4), features)
    for t in range(features.shape[0]):
        want = [decode_spec.gaussian_log_pdf(em, s, features[t]) for s in range(4)]
        assert np.array_equal(rows[t], want)


def test_viterbi_path_matches_dense_decode():
    rng = np.random.default_rng(1)
    t_len, n_states = 25, 7
    log_prior = np.log(rng.dirichlet(np.ones(n_states)))
    log_trans = np.log(rng.dirichlet(np.ones(n_states), size=n_states))
    log_e = rng.normal(size=(t_len, n_states))
    path, _ = viterbi_decode(log_prior, log_trans, log_e)
    kernel_path = viterbi_path(
        log_prior + log_e[0], list(log_e), lambda t: log_trans
    )
    assert list(path) == kernel_path


def test_linear_block_is_c_contiguous_for_any_layout():
    """An F-ordered log block converts to a C-contiguous ``E``, bit-equal
    to the one from its C-ordered copy: the sum-product mat-vecs take
    their accumulation order from the layout of ``E``."""
    rng = np.random.default_rng(2)
    log_t = np.asfortranarray(rng.normal(scale=5.0, size=(37, 23)))
    log_t[3, 4] = -np.inf
    got = linear_block(log_t)
    want = linear_block(np.ascontiguousarray(log_t))
    assert got.E.flags.c_contiguous
    assert got.shift == want.shift
    assert np.array_equal(got.E, want.E)


def test_viterbi_path_is_layout_independent():
    """Viterbi over F-ordered blocks returns the path it returns over
    their C-ordered copies, ties included (integer-valued scores)."""
    rng = np.random.default_rng(3)
    sizes = [5, 9, 7, 12, 3, 8, 8, 1, 6]
    scores = [rng.integers(-3, 1, size=n).astype(float) for n in sizes]
    blocks = [
        np.asfortranarray(rng.integers(-4, 1, size=(a, b)).astype(float))
        for a, b in zip(sizes, sizes[1:])
    ]
    f_path = viterbi_path(scores[0], scores, lambda t: blocks[t - 1])
    c_path = viterbi_path(
        scores[0], scores, lambda t: np.ascontiguousarray(blocks[t - 1])
    )
    assert f_path == c_path


def test_gmm_bank_rows_match_per_step(pair_models, cace_split):
    """Every entry of the stacked bank's one-reduction rows equals that
    macro's own scalar density exactly -- on the fitted bank, on a
    ragged bank (one 2-component mixture padded among 4-component ones)
    and on a single-row batch.  Macros without a mixture read 0.0."""
    _, test = cace_split
    fast = pair_models["c2"]
    seq = test.sequences[0]
    rid = seq.resident_ids[0]
    x_rows = np.stack(
        [
            np.asarray(step.observations[rid].features, dtype=float)
            for step in seq.steps[:30]
        ]
    )
    n_macro = fast.constraint_model.n_macro
    first, *rest = sorted(fast.gmms_)
    g = fast.gmms_[first]
    ragged = {
        first: _MacroGmm(
            weights=g.weights[:2] / g.weights[:2].sum(),
            means=g.means[:2],
            inv_covs=g.inv_covs[:2],
            logdets=g.logdets[:2],
        ),
        **{m: fast.gmms_[m] for m in rest[1:]},  # rest[0] left without a mixture
    }
    assert {gm.weights.shape[0] for gm in ragged.values()} == {2, 4}
    for gmms, bank in ((fast.gmms_, fast._gmm_bank), (ragged, GmmBank(ragged))):
        rows = bank.log_pdf_rows(x_rows, n_macro)
        single = bank.log_pdf_rows(x_rows[:1], n_macro)
        assert single.shape == (1, n_macro)
        assert np.array_equal(single[0], rows[0])
        for t in range(x_rows.shape[0]):
            for m in range(n_macro):
                want = decode_spec.macro_gmm_log_pdf(gmms[m], x_rows[t]) if m in gmms else 0.0
                assert rows[t, m] == want


def _degrade(seq, seed=0):
    """*seq* with every observation channel the kernel branches on knocked
    out on some steps: NaN and empty feature vectors, missing and unknown
    posture/gesture labels, and no position estimate."""
    rng = np.random.default_rng(seed)
    steps = []
    for step in seq.steps:
        observations = {}
        for rid, obs in step.observations.items():
            kw = {}
            roll = rng.random()
            if roll < 0.15:
                kw["features"] = tuple(float("nan") for _ in obs.features)
            elif roll < 0.3:
                kw["features"] = ()
            if rng.random() < 0.2:
                kw["posture"] = None if rng.random() < 0.5 else "unknown-posture"
            if rng.random() < 0.2:
                kw["gesture"] = None if rng.random() < 0.5 else "unknown-gesture"
            if rng.random() < 0.3:
                kw["position_estimate"] = None
            observations[rid] = dataclasses.replace(obs, **kw)
        steps.append(dataclasses.replace(step, observations=observations))
    return dataclasses.replace(seq, steps=steps)


def test_sequence_kernel_emissions_match_scalar(pair_models, cace_split):
    """Kernel emission rows equal the seed's per-state scalar loop, also
    on steps with missing or unusable observation channels."""
    _, test = cace_split
    fast = pair_models["c2"]
    cm = fast.constraint_model
    rng = np.random.default_rng(3)
    for seq in (test.sequences[0], _degrade(test.sequences[0])):
        kern = SequenceKernel(fast, seq, seq.resident_ids)
        kern.ensure(0, len(seq))
        for t in range(0, len(seq), 7):
            for rid in seq.resident_ids:
                m = rng.integers(0, cm.n_macro, size=12)
                l_idx = rng.integers(0, len(cm.subloc_index), size=12)
                got = kern.emissions(rid, t, m, l_idx)
                want = decode_spec.reference_user_state_emissions(
                    fast, seq, rid, t, decode_spec.label_states(cm, m, l_idx)
                )
                np.testing.assert_allclose(got, want, rtol=0, atol=EMISSION_ATOL)


def test_sequence_kernel_batch_size_invariant(pair_models, cace_split, nchain_setup):
    """Every resident's macro row and location row is independent of how
    the tables are grown: stacking all residents and 1, 4 or T steps per
    ``ensure`` (1 is the streaming regime) gives exactly the rows of a
    one-resident full-sequence build, on pairs, on the 3-resident model
    and with degraded observations."""
    _, test = cace_split
    trio_model, _, trio_test = nchain_setup
    seq = test.sequences[0]
    cases = [
        (pair_models["c2"], seq),
        (pair_models["c2"], _degrade(seq)),
        (trio_model, trio_test.sequences[0]),
    ]
    for model, seq in cases:
        n_steps = len(seq)
        full = {}
        for rid in seq.resident_ids:
            kern = SequenceKernel(model, seq, (rid,))
            kern.ensure(0, n_steps)
            full[rid] = kern
        for chunk in (1, 4, n_steps):
            kern = SequenceKernel(model, seq, seq.resident_ids)
            for t0 in range(0, n_steps, chunk):
                kern.ensure(t0, t0 + chunk)
            for rid, want in full.items():
                for t in range(n_steps):
                    assert np.array_equal(kern._macro_rows[rid][t], want._macro_rows[rid][t])
                    assert np.array_equal(kern._loc_rows[rid][t], want._loc_rows[rid][t])


# ---------------------------------------------------------------------------
# strategy equivalence: kernels == seed reference
# ---------------------------------------------------------------------------


def _assert_candidates_match_reference(model, sequences):
    """Per-resident candidates from the kernel tables equal the seed's
    scalar builder: same encodings, emissions to 1e-9."""
    for seq in sequences:
        kern = SequenceKernel(model, seq, seq.resident_ids)
        kern.ensure(0, len(seq))
        for t in range(len(seq)):
            for rid in seq.resident_ids:
                fast = build_candidate_set(model, seq, rid, t, kern)
                ref = decode_spec.reference_user_candidates(model, seq, rid, t)
                np.testing.assert_array_equal(fast.m, ref.m)
                np.testing.assert_array_equal(fast.l, ref.l)
                np.testing.assert_allclose(
                    fast.emissions, ref.emissions, rtol=0, atol=EMISSION_ATOL
                )


def _decode_all(model, sequences):
    out = []
    for seq in sequences:
        stats = DecodeStats()
        out.append((model.decode(seq, stats), stats))
    return out


@pytest.mark.parametrize("name", ["ncr", "ncs", "c2"])
def test_kernels_match_scalar_path(name, pair_models, cace_split):
    _, test = cace_split
    _assert_candidates_match_reference(pair_models[name], test.sequences)


def test_nchain_kernels_match_scalar_path(nchain_setup):
    fast, _, test = nchain_setup
    _assert_candidates_match_reference(fast, test.sequences)


def test_coupled_matches_seed_reference(pair_models, cace_split):
    """c2 on pairs: the 2-chain model with the pair caps decodes exactly
    like the seed reference decoder."""
    _, test = cace_split
    fast = pair_models["c2"]
    assert _decode_all(fast, test.sequences) == _decode_all(
        decode_spec.reference_model(fast), test.sequences
    )


@pytest.mark.parametrize("setup", ["nchain_setup", "quad_setup"])
def test_nchain_matches_seed_reference(setup, request):
    fast, reference, test = request.getfixturevalue(setup)
    assert _decode_all(fast, test.sequences) == _decode_all(
        reference, test.sequences
    )


def _area_motion(seq, every=3):
    """*seq* with area-motion evidence on every *every*-th step: the first
    resident's true sub-location fires, and so does one the model does not
    know.  The other steps keep their room-only PIR evidence."""
    first = seq.resident_ids[0]
    steps = [
        dataclasses.replace(
            step, sublocs_fired=frozenset({truth[first].subloc, "no-such-area"})
        )
        if t % every == 0
        else step
        for t, (step, truth) in enumerate(zip(seq.steps, seq.truths))
    ]
    return dataclasses.replace(seq, steps=steps)


def _assert_joint_matches_reference(model, seq, seen, steps=None):
    """Feed the same per-user candidates to the broadcast joint layer and
    the seed's gathered one on every step: equal index rows, scores and
    pruned/capped counts.  Records the edge cases the steps hit."""
    rids = tuple(seq.resident_ids)
    kern = SequenceKernel(model, seq, rids)
    kern.ensure(0, len(seq))
    for t in range(len(seq) if steps is None else steps):
        per_user = [build_candidate_set(model, seq, rid, t, kern) for rid in rids]
        stats, ref_stats = DecodeStats(), DecodeStats()
        grids, scores = model._joint_candidates(seq, t, per_user, kern, stats)
        want_grids, want_scores = decode_spec.ReferenceNChainHdbn._joint_candidates(
            model, seq, t, per_user, None, ref_stats
        )
        assert np.array_equal(grids, want_grids), (len(rids), t)
        assert np.array_equal(scores, want_scores), (len(rids), t)
        assert stats == ref_stats, (len(rids), t)
        step = seq.steps[t]
        seen.update(
            name
            for name, hit in [
                ("pruned", stats.pruned_joint_states > 0),
                ("capped", stats.capped_joint_states > 0),
                ("single_candidate", min(len(c) for c in per_user) == 1),
                ("room_only", bool(step.rooms_fired) and not step.sublocs_fired),
                (
                    "unknown_area",
                    any(f not in model.constraint_model.subloc_index for f in step.sublocs_fired),
                ),
            ]
            if hit
        )


def test_joint_candidates_match_reference(
    pair_models, cace_split, nchain_setup, quad_setup, monkeypatch
):
    """The joint layer equals the seed spec step by step on pairs (pair
    caps), trios and four residents; with the cap binding, single-candidate
    chains, room-only and sub-location coverage (an unknown area too), and
    with every joint state failing the rules."""
    _, test = cace_split
    cases = [
        (pair_models["c2"], _area_motion(test.sequences[0])),
        (nchain_setup[0], _area_motion(nchain_setup[2].sequences[0])),
        (quad_setup[0], _area_motion(quad_setup[2].sequences[0])),
    ]
    seen = set()
    for model, seq in cases:
        _assert_joint_matches_reference(model, seq, seen)
    assert seen >= {"pruned", "capped", "single_candidate", "room_only", "unknown_area"}

    # Every joint state fails the rules: both keep the whole grid and
    # count nothing as pruned.
    monkeypatch.setattr(
        CrossRulePruner,
        "keep",
        lambda self, amb, c1, c2: np.zeros((len(c1), len(c2)), dtype=bool),
    )
    monkeypatch.setattr(
        decode_spec,
        "reference_cross_prune_mask",
        lambda model, step, s1, obs1, s2, obs2: np.zeros((len(s1), len(s2)), dtype=bool),
    )
    seen.clear()
    for model, seq in cases:
        _assert_joint_matches_reference(model, seq, seen, steps=6)
    assert "pruned" not in seen and "capped" in seen


# ---------------------------------------------------------------------------
# a range's pieces built in stacked passes == one step at a time
# ---------------------------------------------------------------------------


def _tie_emissions(mp):
    """Floor every candidate emission to whole nats, one step or a range
    at a time, so scores tie at the per-user and at the joint cap."""
    one, rows = SequenceKernel.emissions, SequenceKernel.emission_rows
    mp.setattr(SequenceKernel, "emissions", lambda self, *a: np.floor(one(self, *a)))
    mp.setattr(SequenceKernel, "emission_rows", lambda self, *a: np.floor(rows(self, *a)))


def _rules_reject_even_rooms(mp, seen=None):
    """Every joint state fails the cross rules on steps with an even number
    of fired rooms (steps are told apart by content, one step or a range
    at a time); *seen* counts the one-step masks emptied."""
    one, rows = CrossRulePruner.keep, CrossRulePruner.keep_rows

    def keep(self, amb, c1, c2):
        out = one(self, amb, c1, c2)
        if len(amb.rooms) % 2 == 0:
            out[...] = False
            if seen is not None:
                seen["all_fail"] = seen.get("all_fail", 0) + 1
        return out

    def keep_rows(self, ambs, c1, c2):
        out = rows(self, ambs, c1, c2)
        out[[len(amb.rooms) % 2 == 0 for amb in ambs]] = False
        return out

    mp.setattr(CrossRulePruner, "keep", keep)
    mp.setattr(CrossRulePruner, "keep_rows", keep_rows)


def _pieces(model, seq, t0, t1, chunk_cells=None):
    """Pieces of steps ``[t0, t1)`` and the stats they counted: one step at
    a time, or (given *chunk_cells*) from one stacked ``build_range``."""
    stats = DecodeStats()
    sess = model.trellis_sessions(seq, stats)[0]
    if chunk_cells is not None:
        sess.build_range(t0, t1, chunk_cells)
        assert sorted(sess._ready) == list(range(t0, t1))
    pieces = [sess.piece(t) for t in range(t0, t1)]
    assert not sess._ready
    return pieces, stats


def _assert_same_pieces(got, want):
    for p, q in zip(got, want, strict=True):
        assert p.scores.dtype == q.scores.dtype and np.array_equal(p.scores, q.scores)
        assert np.array_equal(p.enc[0], q.enc[0])
        for mine, theirs in zip(p.enc[1:], q.enc[1:]):
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs, strict=True))


def _assert_same_candidates(model, seq, t0, t1):
    """Each resident's stacked candidates hold every step's one-step
    candidate set, in order."""
    kern = SequenceKernel(model, seq, seq.resident_ids)
    kern.ensure(0, t1)
    for rid in seq.resident_ids:
        stacked = build_candidate_set(model, seq, rid, t0, kern, t1)
        singles = [build_candidate_set(model, seq, rid, t, kern) for t in range(t0, t1)]
        assert len(stacked) == sum(map(len, singles))
        for s, c in enumerate(singles):
            n = stacked.n[s]
            assert n == len(c) and stacked.obs[s] is c.obs
            assert np.array_equal(stacked.m[s, :n], c.m)
            assert np.array_equal(stacked.l[s, :n], c.l)
            assert np.array_equal(stacked.emissions[s, :n], c.emissions)


@pytest.fixture(scope="module")
def stacked_cases(pair_models, cace_split, nchain_setup, quad_setup):
    """A rule-pruned model and a session with area-motion evidence per
    resident count; trios and quads reach the stacked build only when it
    is called directly."""
    class Cases(dict):
        def __repr__(self) -> str:
            return "stacked_cases"

    return Cases({
        "pair": (pair_models["c2"], _area_motion(cace_split[1].sequences[0])),
        "trio": (nchain_setup[0], _area_motion(nchain_setup[2].sequences[0])),
        "quad": (quad_setup[0], _area_motion(quad_setup[2].sequences[0])),
    })


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_stacked_build_equals_per_step(stacked_cases, data):
    """Random ranges and chunk splits on pair, trio and quad sessions: the
    stacked build gives every step the one-step build's joint index rows,
    per-user codes and scores, and counts the same DecodeStats; also with
    tied emissions and with steps whose joint states all fail the rules."""
    model, seq = stacked_cases[data.draw(st.sampled_from(sorted(stacked_cases)))]
    t0 = data.draw(st.integers(0, len(seq) - 1))
    t1 = data.draw(st.integers(t0 + 1, min(len(seq), t0 + 24)))
    cells = model.max_states_per_user ** len(seq.resident_ids)
    chunk_cells = data.draw(st.integers(1, 4 * cells))
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            _tie_emissions(mp)
        if data.draw(st.booleans()):
            _rules_reject_even_rooms(mp)
        _assert_same_candidates(model, seq, t0, t1)
        got, got_stats = _pieces(model, seq, t0, t1, chunk_cells)
        want, want_stats = _pieces(model, seq, t0, t1)
    _assert_same_pieces(got, want)
    assert got_stats == want_stats


@pytest.mark.parametrize("case", ["pair", "trio", "quad"])
def test_stacked_build_meets_its_edge_cases(case, stacked_cases, monkeypatch):
    """A whole session in stacked chunks of a few steps equals the one-step
    build with tied emissions and some steps rejected by every rule; the
    session has ties across the joint cap and steps whose joint states all
    fail the rules."""
    model, seq = stacked_cases[case]
    seen = {}
    _tie_emissions(monkeypatch)
    _rules_reject_even_rooms(monkeypatch, seen)
    one = loosely_coupled.best_first

    def recording(scores, cap):
        kept = one(scores, cap)
        if np.count_nonzero(scores >= scores[kept[-1]]) > cap:
            seen["tie_at_cap"] = seen.get("tie_at_cap", 0) + 1
        return kept

    monkeypatch.setattr(loosely_coupled, "best_first", recording)
    cells = model.max_states_per_user ** len(seq.resident_ids)
    got, got_stats = _pieces(model, seq, 0, len(seq), 3 * cells)
    want, want_stats = _pieces(model, seq, 0, len(seq))
    _assert_same_pieces(got, want)
    assert got_stats == want_stats
    assert seen.get("tie_at_cap") and seen.get("all_fail")


def test_release_drops_prebuilt_pieces_below_it(stacked_cases):
    """Prebuilt pieces are handed out once, and ``release(t)`` drops the
    ones below step t that were never asked for."""
    model, seq = stacked_cases["pair"]
    sess = model.trellis_sessions(seq)[0]
    sess.build_range(0, 20)
    for t in range(5):
        sess.piece(t)
    assert sorted(sess._ready) == list(range(5, 20))
    sess.release(10)
    assert sorted(sess._ready) == list(range(10, 20))


def test_only_long_pair_ranges_are_stacked(stacked_cases, monkeypatch):
    """``prepare`` stacks a pair range of ``STACKED_MIN_STEPS`` steps or
    more; shorter ranges and every trio or quad range are built one step
    at a time."""
    built = []
    monkeypatch.setattr(
        loosely_coupled._NChainTrellis, "build_range",
        lambda self, t0, t1, *a: built.append((len(self.rids), t0, t1)),
    )
    short = loosely_coupled.STACKED_MIN_STEPS - 1
    for case in ("pair", "trio", "quad"):
        model, seq = stacked_cases[case]
        sess = model.trellis_sessions(seq)[0]
        sess.prepare(0, 1)
        sess.prepare(1, 1 + short)
        sess.prepare(1 + short, len(seq) + 10)
    assert built == [(2, 1 + short, len(stacked_cases["pair"][1]))]


def _rule_vocab(model, attr, *extra):
    """Every value of *attr* the model's rules mention, plus *extra*."""
    rules = model.rule_set
    items = [i for r in rules.forcing_rules for i in (*r.antecedent, r.consequent)]
    items += [i for e in rules.exclusions for i in (e.a, e.b)]
    return sorted({i.value for i in items if i.attr == attr} | set(extra))


@pytest.mark.parametrize("setup", ["pair", "trio"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rule_pruners_match_item_set_spec(setup, pair_models, nchain_setup, data):
    """Both rule pruners equal the seed's item-set checks on random
    candidate codes from the whole (macro, subloc) grid (duplicates and
    states the builder never proposes included), random postures and
    gestures (None included) and random fired rooms and objects."""
    model = pair_models["c2"] if setup == "pair" else nchain_setup[0]
    cm, builder = model.constraint_model, model.builder
    gestures = cm.gesture_index.labels if cm.gesture_index is not None else ()
    code = st.tuples(
        st.integers(0, cm.n_macro - 1), st.integers(0, len(cm.subloc_index) - 1)
    )
    posture = st.sampled_from([None] + _rule_vocab(model, "posture", *cm.posture_index.labels))
    gesture = st.sampled_from([None] + _rule_vocab(model, "gesture", *gestures))

    def candidates():
        codes = data.draw(st.lists(code, min_size=1, max_size=30))
        obs = ResidentObservation(data.draw(posture), data.draw(gesture), (), ())
        return CandidateSet(
            m=np.array([a for a, _ in codes]),
            l=np.array([b for _, b in codes]),
            emissions=np.zeros(len(codes)),
            obs=obs,
        )

    c1, c2 = candidates(), candidates()
    step = ContextStep(
        t=0.0,
        observations={},
        rooms_fired=data.draw(
            st.frozensets(st.sampled_from(_rule_vocab(model, "room", *builder.room_of_l)))
        ),
        objects_fired=data.draw(
            st.frozensets(st.sampled_from(_rule_vocab(model, "object", *model._object_index)))
        ),
    )
    amb = StepItems(step)
    amb_items = decode_spec.ambient_item_set(step)
    s1, s2 = (decode_spec.label_states(cm, c.m, c.l) for c in (c1, c2))
    want = [
        decode_spec.is_consistent(
            model._single_rules, decode_spec.state_item_set("u1", s, c1.obs) | amb_items
        )
        for s in s1
    ]
    assert model._single_pruner.keep(c1.m, c1.l, c1.obs, amb).tolist() == want
    assert np.array_equal(
        model._cross_pruner.keep(amb, c1, c2),
        decode_spec.reference_cross_prune_mask(model, step, s1, c1.obs, s2, c2.obs),
    )


def _nh_log_e(model, seq, rid):
    """nh's ``(T, M)`` emission rows, one state and one step at a time."""
    n_m = len(model.macro_index)
    return np.array(
        [[decode_spec.gaussian_log_pdf(model.emission_, s, x) for s in range(n_m)]
         for x in step_features(seq, rid)]
    )


def _dense_chains(model, seq):
    """``(residents, log_prior, log_trans, log_e)`` per jointly decoded
    chain: the dense pieces a baseline's labels must equal the spec on."""
    n_m = len(model.macro_index)
    if isinstance(model, MacroHmm):
        for rid in seq.resident_ids:
            yield (rid,), np.log(model.prior_), np.log(model.trans_), _nh_log_e(model, seq, rid)
    elif isinstance(model, CoupledHmm):
        rids = seq.resident_ids[:2]
        yield (rids, *model._joint_pieces(seq, rids))
    else:
        rids = seq.resident_ids[:2]
        log_e, log_trans = model._joint_pieces(*(model._phi(seq, r) for r in rids))
        yield rids, np.zeros(n_m * n_m), log_trans, log_e


@pytest.mark.parametrize("name", ["nh", "chmm", "fcrf", "fcrf_zero"])
def test_macro_hmm_matches_seed_viterbi(name, baselines, cace_split):
    """Each Fig 10 baseline's labels equal the dense spec's Viterbi
    (``dense_spec.viterbi_decode``) over the same dense pieces, with the
    emissions scored one state and one step at a time for nh."""
    model = baselines[name]
    if name == "fcrf_zero":
        assert not model.node_w.any() and not model.trans_w.any() and not model.pair_w.any()
    n_m = len(model.macro_index)
    for seq in cace_split[1].sequences:
        pred = model.predict(seq)
        for rids, log_prior, log_trans, log_e in _dense_chains(model, seq):
            path, _ = viterbi_decode(log_prior, log_trans, log_e)
            states = np.unravel_index(path, (n_m,) * len(rids))
            for rid, chain in zip(rids, states):
                assert pred[rid] == [model.macro_index.label(i) for i in chain]


def test_nh_steps_without_features_add_no_evidence(baselines, cace_split):
    """A step whose feature vector holds a NaN or is empty scores a zero
    emission row under nh, as in the HDBN family's kernel: the decode
    equals the dense spec's Viterbi over the clean rows with those rows
    set to 0, for every resident."""
    model = baselines["nh"]
    seq = cace_split[1].sequences[0]
    degraded = _degrade(seq)
    pred = model.decode(degraded)
    for rid in seq.resident_ids:
        feats = [np.asarray(step.observations[rid].features) for step in degraded.steps]
        empty = np.array([x.size == 0 for x in feats])
        nan = np.array([np.isnan(x).any() for x in feats])
        assert empty.any() and nan.any()
        log_e = _nh_log_e(model, seq, rid)
        log_e[empty | nan] = 0.0
        path, _ = viterbi_decode(np.log(model.prior_), np.log(model.trans_), log_e)
        assert pred[rid] == [model.macro_index.label(i) for i in path]


def test_chmm_steps_without_features_add_no_evidence():
    """CHMM gives a step whose features hold a NaN or are empty a zero
    Gaussian row, as nh does: every other row is unchanged, the step keeps
    its posture and location terms, and the labels are the dense spec's
    Viterbi over those rows (a NaN once rewrote most of a session's labels,
    and empty features raised)."""
    dataset = generate_cace_dataset(n_homes=1, sessions_per_home=3, duration_s=900, seed=5)
    train, test = train_test_split(dataset, 0.67, seed=1)
    model = CoupledHmm().fit(train)
    seq = test.sequences[0]
    rids = seq.resident_ids[:2]
    n_m = len(model.macro_index)

    def at_step_10(features):
        step = seq.steps[10]
        obs = {rid: dataclasses.replace(o, features=features(o))
               for rid, o in step.observations.items()}
        steps = list(seq.steps)
        steps[10] = dataclasses.replace(step, observations=obs)
        return dataclasses.replace(seq, steps=steps)

    others = np.arange(len(seq)) != 10
    for bad in (
        at_step_10(lambda o: tuple(float("nan") for _ in o.features)),
        at_step_10(lambda o: ()),
    ):
        for rid in rids:
            clean = model._user_log_emissions(seq, rid)
            rows = model._user_log_emissions(bad, rid)
            assert np.array_equal(rows[others], clean[others])
            gauss = model.emission_.log_pdf_rows(
                range(n_m), step_features(seq, rid)[10:11, PHONE_FEATURE_DIMS]
            )[0]
            assert np.allclose(rows[10], clean[10] - gauss, rtol=0, atol=1e-9)
        path, _ = viterbi_decode(*model._joint_pieces(bad, rids))
        states = np.unravel_index(path, (n_m, n_m))
        assert model.predict(bad) == {
            rid: [model.macro_index.label(i) for i in chain] for rid, chain in zip(rids, states)
        }


def test_fcrf_training_matches_dense_spec(cace_split, monkeypatch):
    """The perceptron's training decodes run through ``viterbi_path``;
    swapping in the dense spec reproduces every weight bit for bit."""
    train, _ = cace_split
    fitted = FactorialCrf(epochs=2, seed=3).fit(train)
    calls = []

    def dense_path(initial, per_scores, transition):
        calls.append(len(per_scores))
        # viterbi_decode adds a zero prior to row 0, so row 0 becomes initial.
        log_e = np.vstack([initial, per_scores[1:]])
        path, _ = viterbi_decode(np.zeros(len(initial)), transition(1), log_e)
        return list(path)

    monkeypatch.setattr(kernels, "viterbi_path", dense_path)
    spec = FactorialCrf(epochs=2, seed=3).fit(train)
    assert calls
    for field in ("node_w", "trans_w", "pair_w"):
        assert np.array_equal(getattr(fitted, field), getattr(spec, field))


# ---------------------------------------------------------------------------
# offline decoding == the fixed-lag smoother at lag >= T, for every family
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def family_models(pair_models, nchain_setup, quad_setup, cace_split):
    train, test = cace_split
    trio_model, _, trio_test = nchain_setup
    quad_model, _, quad_test = quad_setup
    return {
        "nh": (MacroHmm().fit(train), test.sequences[0]),
        "ncr": (pair_models["ncr"], test.sequences[0]),
        "c2_pair": (pair_models["c2"], test.sequences[0]),
        "c2_trio": (trio_model, trio_test.sequences[0]),
        "c2_quad": (quad_model, quad_test.sequences[0]),
    }


@pytest.mark.parametrize("family", ["nh", "ncr", "c2_pair", "c2_trio", "c2_quad"])
def test_offline_equals_full_lag_smoother(family, family_models):
    """At lag >= T the smoother commits exactly the argmax of the offline
    posterior marginals, and counts exactly the work offline decode does."""
    model, seq = family_models[family]
    posterior_stats, offline_stats = DecodeStats(), DecodeStats()
    marginals = model.posterior_marginals(seq, posterior_stats)
    model.decode(seq, offline_stats)
    smoother = OnlineSmoother(model, lag=len(seq))
    online = smoother.run(seq)
    index = model.trellis_sessions(seq)[0].macro_index
    assert set(online) == set(marginals)
    for rid, gamma in marginals.items():
        assert online[rid] == [index.label(macro_argmax(row)) for row in gamma]
    assert smoother.stats == offline_stats
    assert posterior_stats == offline_stats


@pytest.mark.parametrize("family", ["nh", "ncr", "c2_pair", "c2_trio"])
def test_decode_is_reentrant(family, family_models):
    """Two threads decoding different sessions on one fitted model each get
    the labels and the DecodeStats of a serial decode: a model keeps no
    per-call state."""
    model, seq = family_models[family]
    half = len(seq) // 2
    sessions = [seq.slice(0, half), seq.slice(half, len(seq))]
    start = threading.Barrier(len(sessions))

    def decode(session, wait=False):
        stats = DecodeStats()
        if wait:
            start.wait()
        return model.decode(session, stats), stats

    with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
        threaded = list(pool.map(lambda s: decode(s, wait=True), sessions))
    assert threaded == [decode(session) for session in sessions]


@pytest.mark.parametrize("family", ["nh", "ncr", "c2_pair", "c2_trio", "c2_quad"])
def test_smoother_matches_log_domain_reference(family, family_models):
    """The linear-domain smoother commits the log-domain spec's labels and
    counts the same work."""
    model, seq = family_models[family]
    fast = OnlineSmoother(model, lag=4)
    spec = decode_spec.ReferenceOnlineSmoother(model, lag=4)
    assert fast.run(seq) == spec.run(seq)
    assert fast.stats == spec.stats


@pytest.mark.parametrize("family", ["nh", "ncr", "c2_pair", "c2_trio", "c2_quad"])
def test_router_commits_what_the_smoother_commits(family, family_models):
    """A router session opened with the sequence's residents commits and
    counts what the smoother run on the whole sequence does, through one
    ``push`` per step and through ``push_many`` under random chunking
    (both reach each trellis session through ``prepare``)."""
    model, seq = family_models[family]
    smoother = OnlineSmoother(model, lag=4)
    expected = smoother.run(seq)
    rng = np.random.default_rng(3)
    for chunked in (False, True, True):
        router = SessionRouter(model, lag=4)
        router.open_session("s", resident_ids=seq.resident_ids)
        t = 0
        while t < len(seq):
            if chunked:
                n = int(rng.integers(1, 9))
                router.push_many("s", list(seq.steps[t : t + n]))
            else:
                n = 1
                router.push("s", seq.steps[t])
            t += n
        assert router.session("s").stats == smoother.stats
        assert router.close_session("s") == expected


def test_negative_lag_rejected_at_construction():
    with pytest.raises(ValueError, match="lag"):
        OnlineSmoother(MacroHmm(), lag=-1)


def test_nh_posterior_matches_dense_forward_backward(family_models):
    """The linear-domain recursion over nh's trellis equals an independent
    dense log-domain forward-backward to 1e-10."""
    model, seq = family_models["nh"]
    marginals = model.posterior_marginals(seq)
    for rid in seq.resident_ids:
        log_e = _nh_log_e(model, seq, rid)
        gamma, _ = forward_backward(np.log(model.prior_), np.log(model.trans_), log_e)
        np.testing.assert_allclose(marginals[rid], gamma, rtol=0, atol=1e-10)


@pytest.mark.parametrize("family", ["nh", "c2_pair", "c2_trio"])
def test_transition_blocks_meet_linear_span_precondition(family, family_models):
    """Every block the sum-product steps convert spans fewer than 700
    finite nats, so ``exp(log_t - max)`` cannot underflow to 0."""
    model, seq = family_models[family]
    sess = model.trellis_sessions(seq, DecodeStats())[0]
    sess.prepare(0, len(seq))
    prev = sess.piece(0)
    for t in range(1, len(seq)):
        piece = sess.piece(t)
        log_t = sess.transition(prev, piece)
        finite = log_t[np.isfinite(log_t)]
        assert finite.size and finite.max() - finite.min() < 700.0, t
        prev = piece


def test_shared_transition_block_is_converted_once(family_models, monkeypatch):
    """nh returns one transition matrix object at every step: the smoother
    converts it once per session, and its lag window holds ``lag + 1``
    pieces and alphas and at most ``lag`` blocks, every one of them that
    shared linear block."""
    model, seq = family_models["nh"]
    steps, lag = 50, 4
    assert len(seq) >= steps
    converted = []
    monkeypatch.setattr(
        kernels, "linear_block", lambda log_t: converted.append(log_t) or linear_block(log_t)
    )
    smoother = OnlineSmoother(model, lag=lag)
    smoother.start(seq)
    for t in range(steps):
        smoother.push(t)
    sessions = smoother._sessions
    assert sessions[0].transition(None, None) is sessions[0].transition(None, None)
    assert len(converted) == len(sessions)
    for pieces, alphas, blocks in zip(smoother._pieces, smoother._alphas, smoother._trans):
        assert len(pieces) == len(alphas) == lag + 1
        held = [b for b in blocks if b is not None]
        assert 0 < len(held) <= lag
        assert all(b is held[0] for b in held)


# ---------------------------------------------------------------------------
# a push that raises leaves the smoother as it was
# ---------------------------------------------------------------------------


class _Fault(RuntimeError):
    pass


def _fail_once(fn, on_call: int):
    """*fn*, raising :class:`_Fault` on its *on_call*-th call (0-based) only."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        if next(calls) == on_call:
            raise _Fault("injected")
        return fn(*args, **kwargs)

    return wrapped


def _stream(model, seq, inject=None, burst=None):
    """Committed labels and stats of streaming *seq* at lag 4, retrying
    once any push the injected fault made raise; given *burst*, each run
    of that many steps is bulk-prepared before its pushes."""
    smoother = OnlineSmoother(model, lag=4)
    smoother.start(seq)
    faults = 0
    if inject is not None:
        inject(smoother._sessions)
    committed = []
    for t in range(len(seq)):
        if burst is not None and t % burst == 0:
            smoother.prepare_range(t, t + burst)
        try:
            out = smoother.push(t)
        except _Fault:
            faults += 1
            out = smoother.push(t)
        if out is not None:
            committed.append(out)
    committed.extend(smoother.flush())
    return committed, smoother.stats, faults


@pytest.mark.parametrize(
    "family, inject",
    [
        # c2: the transition of step 10 fails after its piece counted its
        # pruned and capped joint states.
        pytest.param(
            "c2_pair",
            lambda ss: setattr(ss[0], "transition", _fail_once(ss[0].transition, 9)),
            id="c2_pair-transition",
        ),
        # ncr: the second resident's piece fails after the first's was built.
        pytest.param(
            "ncr",
            lambda ss: setattr(ss[1], "piece", _fail_once(ss[1].piece, 10)),
            id="ncr-second_piece",
        ),
    ],
)
def test_failed_push_can_be_retried(family, inject, family_models):
    model, seq = family_models[family]
    seq = seq.slice(0, 30)
    clean_labels, clean_stats, _ = _stream(model, seq)
    labels, stats, faults = _stream(model, seq, inject)
    assert faults == 1
    assert labels == clean_labels
    assert stats == clean_stats


@pytest.mark.parametrize("burst", [16, 30])
def test_failed_push_after_a_stacked_burst_is_retried(burst, family_models, monkeypatch):
    """A push whose transition raises after its prebuilt piece counted its
    pruned and capped joint states is retried to the labels and stats of
    a clean one-push-per-step stream: the piece is counted once."""
    model, seq = family_models["c2_pair"]
    seq = seq.slice(0, 30)
    clean_labels, clean_stats, _ = _stream(model, seq)
    built = []
    build_range = loosely_coupled._NChainTrellis.build_range
    monkeypatch.setattr(
        loosely_coupled._NChainTrellis, "build_range",
        lambda self, *a: built.append(a) or build_range(self, *a),
    )
    labels, stats, faults = _stream(
        model, seq,
        lambda ss: setattr(ss[0], "transition", _fail_once(ss[0].transition, 9)),
        burst=burst,
    )
    assert built and faults == 1
    assert labels == clean_labels
    assert stats == clean_stats


def test_push_many_pair_bursts_commit_what_push_does(family_models, monkeypatch):
    """A pair session served through ``push_many`` bursts, whose pieces are
    built in stacked passes, commits and counts what one ``push`` per step
    does; its lag window stays at ``lag + 1`` steps or fewer, and no
    prebuilt piece outlives its burst."""
    model, seq = family_models["c2_pair"]
    lag = 4
    expected = {}
    built = []
    build_range = loosely_coupled._NChainTrellis.build_range
    monkeypatch.setattr(
        loosely_coupled._NChainTrellis, "build_range",
        lambda self, *a: built.append(a) or build_range(self, *a),
    )
    for burst in (1, 20):
        router = SessionRouter(model, lag=lag)
        router.open_session("s", resident_ids=seq.resident_ids)
        state = router.session("s")
        for t in range(0, len(seq), burst):
            router.push_many("s", list(seq.steps[t : t + burst]))
            assert state.smoother.window <= lag + 1
            assert not state.smoother._sessions[0]._ready
        expected.setdefault("stats", state.stats)
        assert state.stats == expected["stats"]
        labels = router.close_session("s")
        assert labels == expected.setdefault("labels", labels)
    assert built


# ---------------------------------------------------------------------------
# factored transition block == the seed's full-grid chain blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, edge_cases",
    [
        ("c2_pair", {"capped"}),
        ("c2_trio", {"capped", "single_candidate"}),
        ("c2_quad", {"capped"}),
    ],
)
def test_factored_transition_block_is_bit_exact(family, edge_cases, family_models):
    """Each chain's term built on its own candidate list and gathered onto
    the joint axis equals, on every step, the seed's full (P, C) chain
    blocks summed chain by chain -- including steps where the joint cap
    binds and steps where a chain has a single candidate -- and its linear
    block is C-contiguous whatever the block's own layout."""
    model, seq = family_models[family]
    stats = DecodeStats()
    sess = model.trellis_sessions(seq, stats)[0]
    sess.prepare(0, len(seq))
    seen = set()
    prev = None
    for t in range(len(seq)):
        capped_before = stats.capped_joint_states
        piece = sess.piece(t)
        if stats.capped_joint_states > capped_before:
            seen.add("capped")
        if min(len(m) for m in piece.enc[1]) == 1:
            seen.add("single_candidate")
        if prev is not None:
            m_prev, l_prev = joint_codes(prev.enc)
            m_cur, l_cur = joint_codes(piece.enc)
            n = m_prev.shape[0]
            want = decode_spec.reference_chain_block(
                model, m_prev[0], l_prev[0], m_prev[1 % n], m_cur[0], l_cur[0]
            )
            for u in range(1, n):
                want = want + decode_spec.reference_chain_block(
                    model, m_prev[u], l_prev[u], m_prev[(u + 1) % n], m_cur[u], l_cur[u]
                )
            log_t = sess.transition(prev, piece)
            assert np.array_equal(log_t, want), t
            assert linear_block(log_t).E.flags.c_contiguous, t
        prev = piece
    assert edge_cases <= seen
