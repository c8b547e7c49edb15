import math
from types import SimpleNamespace

import numpy as np
import pytest

from pcvstream.nn import NumericsError
from pcvstream import scheduler
from pcvstream.scheduler import (
    DEFAULT_WINDOW, ETA, F_TARGET, NEUTRAL_FILL, ActorCritic, StateWindow,
    a3c_gradients, discounted_returns, entropy, normalized_accuracy, reward,
    sample_index, select_action, state_slot, train_scheduler,
)

# three latent sizes times two bit widths
SIX_ACTIONS = ("4x4-q8", "4x4-q16", "8x8-q8", "8x8-q16", "16x16-q8",
               "16x16-q16")


def state_of(n=0.5, c=0.5, b=0.5, k=4):
    """(3k,) state with constant n, c and b windows."""
    return np.repeat([n, c, b], k)


def record(input_points=10, roi_points=5, decode_s=0.01,
           bandwidth_mbps=20.0):
    """A frame record with the fields `state_slot` reads."""
    return SimpleNamespace(input_points=input_points, roi_points=roi_points,
                           decode_s=decode_s, bandwidth_mbps=bandwidth_mbps)


def build_state(records, k):
    """The state of a StateWindow(k) after each record's slot is pushed,
    the way a session pushes its frames."""
    window = StateWindow(k)
    for rec in records:
        window.push(state_slot(**vars(rec)))
    return window.state()


# ---------------------------------------------------------------------------
# reference bandit environment

BANDIT_FIXED_REWARDS = {  # context -> per-action reward
    "low": (1.0, 0.5, 0.2),
    "high": (0.2, 0.5, 1.0),
}
BANDIT_FPS = {  # normalized frame-rate term per context/action
    "low": (0.95, 0.8, 0.75),
    "high": (0.9, 0.95, 1.0),
}
BANDIT_ACCURACY = (0.2, 0.45, 0.7)  # per-action reconstruction term


class TwoContextBanditEnv:
    """Bandit over bandwidth contexts: b_hist > 0.5 wants the big model,
    b_hist < 0.5 the small one.

    With eta=None rewards come from the fixed strong-separation table;
    with a float eta they blend the frame-rate and accuracy terms the way
    the streaming reward does, which keeps oracle rewards non-decreasing
    in eta. Episodes draw `steps` independent contexts.
    """

    actions = ("a", "b", "c")

    def __init__(self, eta: float | None = None, steps: int = 32,
                 k: int = DEFAULT_WINDOW, noise: float = 0.05):
        self.eta = eta
        self.steps = steps
        self.k = k
        self.noise = noise
        self._rng = None
        self._left = 0
        self._context = None

    def _state(self):
        b = 0.75 if self._context == "high" else 0.25
        jitter = self._rng.uniform(-self.noise, self.noise, size=self.k)
        return np.concatenate([np.full(2 * self.k, NEUTRAL_FILL),
                               np.clip(b + jitter, 0.0, 1.0)])

    def _draw(self):
        self._context = "high" if self._rng.random() < 0.5 else "low"

    def reset(self, rng) -> np.ndarray:
        self._rng = rng
        self._left = self.steps
        self._draw()
        return self._state()

    def action_reward(self, context: str, action: int,
                      eta: float | None = None) -> float:
        eta = self.eta if eta is None else eta
        if eta is None:
            return BANDIT_FIXED_REWARDS[context][action]
        return (eta * BANDIT_FPS[context][action]
                + (1.0 - eta) * BANDIT_ACCURACY[action])

    def oracle_mean_reward(self) -> float:
        return 0.5 * (max(self.action_reward("low", a) for a in range(3))
                      + max(self.action_reward("high", a) for a in range(3)))

    def step(self, action: int):
        rew = self.action_reward(self._context, action)
        self._left -= 1
        done = self._left <= 0
        self._draw()
        return self._state(), rew, done


# ---------------------------------------------------------------------------
# state construction

def test_build_state_warmup_all_neutral():
    state = build_state([], k=8)
    np.testing.assert_array_equal(state, np.full(24, 0.5))


def test_build_state_is_a_read_only_float_vector():
    window = StateWindow(4)
    for _ in range(3):
        window.push(state_slot(**vars(record())))
    state = window.state()
    assert state.shape == (12,) and state.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        state[0] = 0.0
    window.push((0.0, 0.0, 0.0))  # a returned state is a copy
    assert state.reshape(3, 4)[:, -1].tolist() == [0.5, 1.0, 0.2]


def test_build_state_constant_session():
    rec = record(1000, 400, 1 / 60, 50.0)
    state = build_state([rec] * 12, k=8)
    n_hist, c_hist, b_hist = state.reshape(3, 8)
    np.testing.assert_allclose(n_hist, np.full(8, 0.4))
    np.testing.assert_allclose(c_hist, np.full(8, 1.0))  # fast decode
    np.testing.assert_allclose(b_hist, np.full(8, 0.5))


def test_build_state_hand_log():
    records = [record(1000, 100 * (i + 1), 0.1 / (i + 1), 20.0 * (i + 1))
               for i in range(8)]
    n_hist, c_hist, b_hist = build_state(records, k=8).reshape(3, 8)
    # spreadsheet recomputation of the same normalizations
    expect_n = [(i + 1) * 0.1 for i in range(8)]
    expect_c = [min(1.0, (1 / 30) / (0.1 / (i + 1))) for i in range(8)]
    expect_b = [min(1.0, 20.0 * (i + 1) / 100.0) for i in range(8)]
    np.testing.assert_allclose(n_hist, expect_n)
    np.testing.assert_allclose(c_hist, expect_c)
    np.testing.assert_allclose(b_hist, expect_b)


def test_build_state_rejects_nonpositive_window():
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            StateWindow(k)


# the inputs that make a slot value (n, c or b) NaN or infinite; an
# infinite decode time or bandwidth saturates c or b instead (see
# test_state_slot_saturates_infinite_decode_time_and_bandwidth)
NON_FINITE_FIELDS = {
    "nan": ("roi_points", "decode_s", "bandwidth_mbps"),
    "inf": ("roi_points",),
    "-inf": ("roi_points", "bandwidth_mbps"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_state_rejects_non_finite_history(bad):
    for field in NON_FINITE_FIELDS[bad]:
        rec = vars(record()) | {field: float(bad)}
        with pytest.raises(ValueError, match="history values must be finite"):
            state_slot(**rec)


@pytest.mark.parametrize("field", ["roi_points", "decode_s", "bandwidth_mbps"])
def test_build_state_rejects_nan_records(field):
    rec = vars(record()) | {field: np.nan}
    with pytest.raises(ValueError, match="finite"):
        build_state([record(), SimpleNamespace(**rec)], k=4)


def test_state_slot_saturates_infinite_decode_time_and_bandwidth():
    assert state_slot(10, 5, np.inf, 20.0) == (0.5, 0.0, 0.2)
    assert state_slot(10, 5, -np.inf, 20.0) == (0.5, 1.0, 0.2)
    assert state_slot(10, 5, 0.01, np.inf) == (0.5, 1.0, 1.0)


def test_state_clamps_to_unit_interval():
    assert state_slot(10, 20, 0.01, 20.0)[0] == 1.0    # n = 2
    assert state_slot(10, -10, 0.01, 20.0)[0] == 0.0   # n = -1
    assert state_slot(10, 5, 0.01, -50.0)[2] == 0.0    # b = -0.5
    state = build_state([record(10, 20), record(10, -10),
                         record(bandwidth_mbps=-50.0)], k=4)
    assert state.max() <= 1.0
    assert state.min() >= 0.0


# ---------------------------------------------------------------------------
# reward

def test_reward_frame_term_capped_at_target():
    assert reward(F_TARGET, 1.0) == 1.0
    assert reward(3.0 * F_TARGET, 1.0) == 1.0  # capped
    assert reward(3.0 * F_TARGET, 0.8) == reward(F_TARGET, 0.8)


def test_reward_hand_value():
    assert ETA == 0.5
    assert reward(15.0, 0.8) == pytest.approx(0.65)
    assert reward(0.0, 0.8) == pytest.approx(0.4)


def test_normalized_accuracy_best_is_one():
    table = normalized_accuracy({"a": 0.004, "b": 0.002, "c": 0.008})
    assert table["b"] == pytest.approx(1.0)
    assert table["a"] == pytest.approx(0.5)
    assert table["c"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# action selection

def test_greedy_uniform_logits_picks_first():
    net = ActorCritic.create(("a", "b", "c"), k=4, hidden=8, seed=0)
    net.actor.weights[:] = 0.0
    net.actor.bias[:] = 0.0
    assert select_action(net, state_of()) == 0


def test_greedy_raises_on_non_finite_probabilities():
    net = ActorCritic.create(SIX_ACTIONS, seed=0)
    net.actor.weights[0, 0] = np.nan
    state = state_of(k=net.k)
    assert np.isnan(net.policy(state)[0]).all()
    with pytest.raises(NumericsError):
        select_action(net, state)


def test_training_raises_on_non_finite_probabilities(monkeypatch):
    """Training reports a net that outputs NaN as serving does, not as
    sample_index's "probabilities must be non-negative and sum to 1"."""
    create = ActorCritic.create.__func__

    def nan_trunk(cls, *args, **kwargs):
        net = create(cls, *args, **kwargs)
        net.trunk.weights[0, 0] = np.nan
        return net

    monkeypatch.setattr(ActorCritic, "create", classmethod(nan_trunk))
    with pytest.raises(NumericsError, match="non-finite action probabilities"):
        train_scheduler(lambda w: TwoContextBanditEnv(), epochs=1, hidden=4)


def test_training_passes_on_other_sampling_errors(monkeypatch):
    def refuse(probs, rng):
        raise ValueError("refused")

    monkeypatch.setattr(scheduler, "sample_index", refuse)
    with pytest.raises(ValueError, match="^refused$"):
        train_scheduler(lambda w: TwoContextBanditEnv(), epochs=1, hidden=4)


def test_dominant_logits_sampled_almost_always():
    net = ActorCritic.create(("a", "b", "c"), k=4, hidden=8, seed=0)
    net.actor.weights[:] = 0.0
    net.actor.bias[:] = np.array([0.0, 8.0, 0.0])
    rng = np.random.default_rng(5)
    probs, _ = net.policy(state_of())
    hits = sum(sample_index(probs, rng) == 1 for _ in range(1000))
    assert hits >= 990


def test_sample_index_matches_generator_choice():
    rng = np.random.default_rng(12)
    cases = [np.full(6, 1 / 6), np.array([1.0, 0.0, 0.0]),
             np.array([0.0, 0.0, 1.0]),
             np.array([1 - 5e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12]),
             np.array([1e-9, 1 - 2e-9, 1e-9])]
    for _ in range(6):  # softmax outputs, as the policy gives
        e = np.exp(rng.normal(scale=3.0, size=6))
        cases.append(e / e.sum())
    for i, probs in enumerate(cases):  # 11 000 draws in all
        ours, theirs = (np.random.default_rng(100 + i) for _ in range(2))
        got = [sample_index(probs, ours) for _ in range(1000)]
        want = [int(theirs.choice(len(probs), p=probs)) for _ in range(1000)]
        assert got == want, probs
        # one draw each: both generators are left in the same state
        assert ours.random() == theirs.random()


def test_sample_index_rejects_what_choice_rejects():
    rng = np.random.default_rng(0)
    off = np.sqrt(np.finfo(np.float64).eps) * 4
    for bad in ([0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.5 - off],
                [0.5, 0.5 + off], [np.inf, 0.0], []):
        with pytest.raises(ValueError):
            rng.choice(max(1, len(bad)), p=bad)
        with pytest.raises(ValueError):
            sample_index(bad, rng)
    with pytest.raises(ValueError):
        sample_index(np.full((2, 2), 0.25), rng)


def test_greedy_invariant_under_logit_shift():
    net = ActorCritic.create(("a", "b", "c"), k=4, hidden=8, seed=3)
    state = state_of(0.3, 0.6, 0.9)
    before = select_action(net, state)
    net.actor.bias += 13.7  # constant shift of every logit
    assert select_action(net, state) == before


def matvec_forward(net, vec):
    """Oracle: one state through the nets as matrix-vector products."""
    h = np.tanh(net.trunk.weights @ vec + net.trunk.bias)
    logits = net.actor.weights @ h + net.actor.bias
    e = np.exp(logits - logits.max())
    value = float((net.critic.weights @ h + net.critic.bias)[0])
    return e / e.sum(), value, h


def test_forward_one_state_equals_matvec_form():
    rng = np.random.default_rng(13)
    for seed in range(20):  # the default sizes, which training uses
        net = ActorCritic.create(SIX_ACTIONS, seed=seed)
        vec = rng.random(3 * net.k)
        got, want = net.forward(vec), matvec_forward(net, vec)
        for g, w in zip(got, want):
            assert np.asarray(g).tolist() == np.asarray(w).tolist()


def test_policy_equals_forward_probs():
    rng = np.random.default_rng(15)
    for seed in range(200):
        k, hidden = int(rng.integers(1, 10)), int(rng.integers(1, 100))
        net = ActorCritic.create(SIX_ACTIONS, k=k, hidden=hidden,
                                 seed=seed)
        vec = rng.random(3 * k) * rng.choice([1.0, 10.0, 1e3])
        probs, h = net.policy(vec)
        want_probs, _, want_h = net.forward(vec)
        np.testing.assert_array_equal(probs, want_probs)
        np.testing.assert_array_equal(h, want_h)


def test_forward_stack_matches_row_by_row():
    rng = np.random.default_rng(14)
    net = ActorCritic.create(SIX_ACTIONS, k=8, hidden=24, seed=2)
    stack = rng.random((33, 24))
    probs, values, h = net.forward(stack)
    assert probs.shape == (33, len(net.actions))
    assert values.shape == (33,) and h.shape == (33, 24)
    for i, row in enumerate(stack):
        p_row, v_row, h_row = net.forward(row)
        np.testing.assert_allclose(probs[i], p_row, rtol=1e-12, atol=1e-12)
        assert values[i] == pytest.approx(v_row, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(h[i], h_row, rtol=1e-12, atol=1e-12)


def test_policy_is_probability_simplex():
    rng = np.random.default_rng(7)
    net = ActorCritic.create(SIX_ACTIONS, k=8, hidden=16, seed=11)
    for _ in range(20):
        probs, _ = net.policy(rng.random(24))
        assert probs.min() >= 0.0
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= entropy(probs) <= math.log(len(probs)) + 1e-12


# ---------------------------------------------------------------------------
# returns and gradients

def test_discounted_returns_hand_case():
    np.testing.assert_allclose(discounted_returns([1.0, 1.0, 1.0], 0.88),
                               [2.6544, 1.88, 1.0])


def test_discounted_returns_matches_bruteforce():
    rng = np.random.default_rng(8)
    rewards = rng.random(12)
    gamma = 0.88
    returns = discounted_returns(rewards, gamma)
    for t in range(12):
        brute = sum(gamma ** j * rewards[t + j] for j in range(12 - t))
        assert returns[t] == pytest.approx(brute, abs=1e-12)


def per_step_a3c_gradients(net, trajectory, gamma, entropy_weight=0.0):
    """Oracle: a3c_gradients as one matrix-vector forward pass and outer
    products per step."""
    states, actions, rewards = zip(*trajectory)
    returns = discounted_returns(np.asarray(rewards, dtype=np.float64), gamma)

    zeros = lambda l: (np.zeros_like(l.weights), np.zeros_like(l.bias))
    d_trunk_a, db_trunk_a = zeros(net.trunk)
    d_actor, db_actor = zeros(net.actor)
    d_trunk_c, db_trunk_c = zeros(net.trunk)
    d_critic, db_critic = zeros(net.critic)

    for state, action, ret in zip(states, actions, returns):
        probs, value, h = matvec_forward(net, state)
        adv = ret - value

        d_logits = -probs * adv
        d_logits[action] += adv
        if entropy_weight:
            ent = entropy(probs)
            safe = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), 0.0)
            d_logits += entropy_weight * (-probs * (safe + ent))
        d_actor += np.outer(d_logits, h)
        db_actor += d_logits
        dh = net.actor.weights.T @ d_logits
        dpre = dh * (1.0 - h ** 2)
        d_trunk_a += np.outer(dpre, state)
        db_trunk_a += dpre

        dv = -2.0 * adv
        d_critic += dv * h[None, :]
        db_critic += np.array([dv])
        dh_c = net.critic.weights[0] * dv
        dpre_c = dh_c * (1.0 - h ** 2)
        d_trunk_c += np.outer(dpre_c, state)
        db_trunk_c += dpre_c

    return ({"trunk": (d_trunk_a, db_trunk_a), "actor": (d_actor, db_actor)},
            {"trunk": (d_trunk_c, db_trunk_c),
             "critic": (d_critic, db_critic)})


@pytest.mark.parametrize("steps", [1, 2, 64])
@pytest.mark.parametrize("entropy_weight", [0.0, 0.01])
def test_batched_gradients_match_per_step_oracle(steps, entropy_weight):
    rng = np.random.default_rng(steps)
    net = ActorCritic.create(SIX_ACTIONS, k=8, hidden=24, seed=steps)
    trajectory = [(rng.random(24), int(rng.integers(len(net.actions))),
                   float(rng.random()))
                  for _ in range(steps)]
    got = a3c_gradients(net, trajectory, 0.88, entropy_weight)
    want = per_step_a3c_gradients(net, trajectory, 0.88, entropy_weight)
    for got_part, want_part in zip(got, want):
        assert got_part.keys() == want_part.keys()
        for key in want_part:
            for g, w in zip(got_part[key], want_part[key]):
                assert g.shape == w.shape
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


def test_zero_advantage_kills_actor_gradient():
    net = ActorCritic.create(("a", "b"), k=2, hidden=4, seed=1)
    state = state_of(k=2)
    ret = net.forward(state)[1]  # advantage exactly zero
    actor_grads, _ = a3c_gradients(net, [(state, 1, ret)], gamma=0.88,
                                   entropy_weight=0.0)
    # single-step trajectory: the return equals the reward
    for dw, db in actor_grads.values():
        np.testing.assert_allclose(dw, 0.0, atol=1e-12)
        np.testing.assert_allclose(db, 0.0, atol=1e-12)


def _flat_params(net):
    return [net.trunk.weights, net.trunk.bias, net.actor.weights,
            net.actor.bias, net.critic.weights, net.critic.bias]


def test_a3c_gradients_match_finite_differences():
    h = 1e-6
    rng = np.random.default_rng(9)
    for trial in range(5):
        net = ActorCritic.create(("a", "b"), k=1, hidden=2,
                                 seed=20 + trial)
        state = rng.random(3)
        action = int(rng.integers(2))
        rew = float(rng.random())
        traj = [(state, action, rew)]
        gamma, ew = 0.88, 0.01

        # freeze the advantage the way the update rule does
        ret = discounted_returns([rew], gamma)[0]
        adv = ret - net.forward(state)[1]

        def actor_objective():
            probs, _ = net.policy(state)
            return math.log(probs[action]) * adv + ew * entropy(probs)

        def critic_loss():
            return (ret - net.forward(state)[1]) ** 2

        actor_grads, critic_grads = a3c_gradients(net, traj, gamma, ew)
        analytic = {
            "actor": {"trunk": actor_grads["trunk"],
                      "head": actor_grads["actor"]},
            "critic": {"trunk": critic_grads["trunk"],
                       "head": critic_grads["critic"]},
        }
        for which, objective, sign in (("actor", actor_objective, 1.0),
                                       ("critic", critic_loss, 1.0)):
            for part, layer in (("trunk", net.trunk),
                                ("head", net.actor if which == "actor"
                                 else net.critic)):
                for arr, got in zip((layer.weights, layer.bias),
                                    analytic[which][part]):
                    fd = np.zeros_like(arr)
                    flat, fd_flat = arr.ravel(), fd.ravel()
                    for j in range(flat.size):
                        orig = flat[j]
                        flat[j] = orig + h
                        hi = objective()
                        flat[j] = orig - h
                        lo = objective()
                        flat[j] = orig
                        fd_flat[j] = (hi - lo) / (2 * h)
                    scale = max(np.abs(fd).max(), np.abs(got).max(), 1e-8)
                    assert np.abs(fd - got).max() / scale <= 1e-4, \
                        (which, part)


def test_a3c_gradients_rejects_empty_trajectory():
    net = ActorCritic.create(("a", "b"), k=2, hidden=4, seed=0)
    with pytest.raises(ValueError, match="empty trajectory"):
        a3c_gradients(net, [], gamma=0.88)


# ---------------------------------------------------------------------------
# training loop

def test_train_scheduler_zero_epochs_returns_fresh_policy():
    result = train_scheduler(lambda w: TwoContextBanditEnv(), epochs=0,
                             seed=3, actions=("a", "b", "c"))
    fresh = ActorCritic.create(("a", "b", "c"), TwoContextBanditEnv().k, 96,
                               seed=3)
    np.testing.assert_array_equal(result.net.trunk.weights,
                                  fresh.trunk.weights)
    assert result.mean_reward.size == 0


def test_train_scheduler_single_worker_bit_reproducible():
    runs = []
    for _ in range(2):
        result = train_scheduler(lambda w: TwoContextBanditEnv(), workers=1,
                                 epochs=40, seed=11, actions=("a", "b", "c"))
        runs.append(result)
    np.testing.assert_array_equal(runs[0].mean_reward, runs[1].mean_reward)
    np.testing.assert_array_equal(runs[0].net.actor.weights,
                                  runs[1].net.actor.weights)


def test_train_scheduler_learns_bandit_contexts():
    env = TwoContextBanditEnv()
    result = train_scheduler(lambda w: TwoContextBanditEnv(), workers=1,
                             epochs=300, seed=4, actions=("a", "b", "c"))
    high = state_of(b=0.75, k=8)
    low = state_of(b=0.25, k=8)
    assert select_action(result.net, high) == 2
    assert select_action(result.net, low) == 0


def test_multi_worker_matches_single_worker_mean():
    # distributional reproducibility at the converged plateau: mean final
    # reward across seeds stays within 10% of the single-worker mean
    def final_mean(workers, seeds, epochs):
        finals = []
        for seed in seeds:
            r = train_scheduler(lambda w: TwoContextBanditEnv(), workers,
                                epochs=epochs, seed=seed,
                                actions=("a", "b", "c"))
            finals.append(r.mean_reward[-50:].mean())
        return np.mean(finals)

    single = final_mean(1, range(3), epochs=400)
    multi = final_mean(3, range(3), epochs=200)
    assert abs(multi - single) <= 0.1 * single


def test_workers_run_in_turn_on_the_live_net():
    """train_scheduler(workers=3) equals, bit for bit, a loop that rolls
    worker w's episode on the one net and applies its update before
    worker w + 1 starts: no worker acts on stale parameters."""
    seed, workers, epochs, hidden = 6, 3, 12, 16
    actions = TwoContextBanditEnv.actions
    result = train_scheduler(lambda w: TwoContextBanditEnv(), workers,
                             epochs=epochs, hidden=hidden, seed=seed)

    envs = [TwoContextBanditEnv() for _ in range(workers)]
    probe = envs[0].reset(np.random.default_rng(seed))
    net = ActorCritic.create(actions, len(probe) // 3, hidden, seed)
    rngs = [np.random.default_rng(seed + 17 * w) for w in range(workers)]
    means = []
    for epoch in range(epochs):
        weight = scheduler.ENTROPY_WEIGHT * (1.0 - epoch / epochs)
        rewards = []
        for env, rng in zip(envs, rngs):
            state, done, trajectory = env.reset(rng), False, []
            while not done:
                action = sample_index(net.policy(state)[0], rng)
                nxt, rew, done = env.step(action)
                trajectory.append((state, action, rew))
                state = nxt
            scheduler.apply_gradients(
                net, *a3c_gradients(net, trajectory, scheduler.DEFAULT_GAMMA,
                                    weight), scheduler.DEFAULT_LR)
            rewards.extend(r for _, _, r in trajectory)
        means.append(float(np.mean(rewards)))

    assert result.mean_reward.tolist() == means
    assert result.net.actions == actions
    for got, want in zip((result.net.trunk, result.net.actor,
                          result.net.critic),
                         (net.trunk, net.actor, net.critic)):
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


def test_train_scheduler_takes_the_first_env_actions():
    class TwoActionEnv(TwoContextBanditEnv):
        actions = ("a", "b")

    result = train_scheduler(lambda w: TwoContextBanditEnv(), epochs=1,
                             hidden=4)
    assert result.net.actions == TwoContextBanditEnv.actions
    mixed = lambda w: TwoActionEnv() if w else TwoContextBanditEnv()
    with pytest.raises(ValueError, match="environment actions"):
        train_scheduler(mixed, workers=2, epochs=1, hidden=4)


def test_train_scheduler_rejects_no_workers():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        train_scheduler(lambda w: TwoContextBanditEnv(), workers=0)


def test_train_scheduler_rejects_negative_epochs():
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        train_scheduler(lambda w: TwoContextBanditEnv(), epochs=-1)


def test_train_scheduler_rejects_an_empty_hidden_layer():
    with pytest.raises(ValueError, match="hidden must be >= 1"):
        train_scheduler(lambda w: TwoContextBanditEnv(), epochs=1, hidden=0)


def test_create_rejects_an_empty_state_window():
    with pytest.raises(ValueError, match="k must be >= 1"):
        ActorCritic.create(("a", "b"), k=0)


def test_create_rejects_an_empty_action_set():
    """A 0-action net would fail only in select_action's max reduction."""
    with pytest.raises(ValueError, match="needs at least one action"):
        ActorCritic.create(())


def test_bandit_env_oracle_structure():
    env = TwoContextBanditEnv()
    # stated context structure: high bandwidth wants action 2, low wants 0
    assert max(range(3), key=lambda a: env.action_reward("high", a)) == 2
    assert max(range(3), key=lambda a: env.action_reward("low", a)) == 0
    blended = TwoContextBanditEnv(eta=0.8)
    assert max(range(3), key=lambda a: blended.action_reward("high", a)) == 2
    assert max(range(3), key=lambda a: blended.action_reward("low", a)) == 0
    # oracle plateaus are non-decreasing in eta by table construction
    oracles = [TwoContextBanditEnv(eta=e).oracle_mean_reward()
               for e in (0.2, 0.5, 0.8)]
    assert oracles[0] <= oracles[1] <= oracles[2]
