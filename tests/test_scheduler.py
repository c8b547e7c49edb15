import math

import numpy as np
import pytest

from pcvstream.scheduler import (
    ActorCritic, RewardSpec, SchedulerState, TwoContextBanditEnv,
    a3c_gradients, a3c_update, build_state, discounted_returns, entropy,
    normalized_accuracy, reward, select_action, train_scheduler,
)


def state_of(n=0.5, c=0.5, b=0.5, k=4):
    return SchedulerState(np.full(k, n), np.full(k, c), np.full(k, b))


# ---------------------------------------------------------------------------
# state construction

def test_build_state_warmup_all_neutral():
    state = build_state([], k=8)
    np.testing.assert_array_equal(state.vector(), np.full(24, 0.5))


def test_build_state_constant_session():
    rec = {"input_points": 1000, "roi_points": 400, "decode_s": 1 / 60,
           "bandwidth_mbps": 50.0}
    state = build_state([rec] * 12, k=8)
    np.testing.assert_allclose(state.n_hist, np.full(8, 0.4))
    np.testing.assert_allclose(state.c_hist, np.full(8, 1.0))  # fast decode
    np.testing.assert_allclose(state.b_hist, np.full(8, 0.5))


def test_build_state_hand_log():
    records = [
        {"input_points": 1000, "roi_points": 100 * (i + 1),
         "decode_s": 0.1 / (i + 1), "bandwidth_mbps": 20.0 * (i + 1)}
        for i in range(8)
    ]
    state = build_state(records, k=8, b_ref=100.0, t_ref=1 / 30)
    # spreadsheet recomputation of the same normalizations
    expect_n = [(i + 1) * 0.1 for i in range(8)]
    expect_c = [min(1.0, (1 / 30) / (0.1 / (i + 1))) for i in range(8)]
    expect_b = [min(1.0, 20.0 * (i + 1) / 100.0) for i in range(8)]
    np.testing.assert_allclose(state.n_hist, expect_n)
    np.testing.assert_allclose(state.c_hist, expect_c)
    np.testing.assert_allclose(state.b_hist, expect_b)


def test_state_clamps_to_unit_interval():
    state = SchedulerState(np.array([2.0, -1.0]), np.array([0.5, 0.5]),
                           np.array([0.25, 0.75]))
    assert state.n_hist.max() <= 1.0
    assert state.n_hist.min() >= 0.0


# ---------------------------------------------------------------------------
# reward

def accuracy_spec(eta=0.5):
    return RewardSpec(eta=eta, accuracy_table={"small": 0.8, "large": 1.0})


def test_reward_eta_one_at_target():
    spec = RewardSpec(eta=1.0, accuracy_table={"m": 1.0})
    assert reward(30.0, "m", spec) == pytest.approx(1.0)
    assert reward(90.0, "m", spec) == pytest.approx(1.0)  # capped


def test_reward_eta_zero_is_accuracy():
    spec = accuracy_spec(eta=0.0)
    assert reward(1.0, "small", spec) == pytest.approx(0.8)
    assert reward(100.0, "small", spec) == pytest.approx(0.8)


def test_reward_hand_value():
    spec = accuracy_spec(eta=0.5)
    assert reward(15.0, "small", spec) == pytest.approx(0.65)


def test_reward_unknown_model():
    with pytest.raises(KeyError):
        reward(30.0, "nope", accuracy_spec())


def test_reward_spec_validation():
    with pytest.raises(ValueError):
        RewardSpec(eta=1.5)
    with pytest.raises(ValueError):
        RewardSpec(accuracy_table={"a": 0.5, "b": 0.9})  # best must be 1


def test_normalized_accuracy_best_is_one():
    table = normalized_accuracy({"a": 0.004, "b": 0.002, "c": 0.008})
    assert table["b"] == pytest.approx(1.0)
    assert table["a"] == pytest.approx(0.5)
    assert table["c"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# action selection

def test_greedy_uniform_logits_picks_first():
    net = ActorCritic.create(k=4, hidden=8, actions=("a", "b", "c"), seed=0)
    net.actor.weights[:] = 0.0
    net.actor.bias[:] = 0.0
    assert select_action(net, state_of(), "greedy") == 0


def test_dominant_logits_sampled_almost_always():
    net = ActorCritic.create(k=4, hidden=8, actions=("a", "b", "c"), seed=0)
    net.actor.weights[:] = 0.0
    net.actor.bias[:] = np.array([0.0, 8.0, 0.0])
    rng = np.random.default_rng(5)
    hits = sum(select_action(net, state_of(), "sample", rng) == 1
               for _ in range(1000))
    assert hits >= 990


def test_greedy_invariant_under_logit_shift():
    net = ActorCritic.create(k=4, hidden=8, actions=("a", "b", "c"), seed=3)
    state = state_of(0.3, 0.6, 0.9)
    before = select_action(net, state, "greedy")
    net.actor.bias += 13.7  # constant shift of every logit
    assert select_action(net, state, "greedy") == before


def test_policy_is_probability_simplex():
    rng = np.random.default_rng(7)
    net = ActorCritic.create(k=8, hidden=16, seed=11)
    for _ in range(20):
        s = SchedulerState(rng.random(8), rng.random(8), rng.random(8))
        probs, _ = net.policy(s.vector())
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


def test_zero_advantage_kills_actor_gradient():
    net = ActorCritic.create(k=2, hidden=4, actions=("a", "b"), seed=1)
    state = state_of(k=2)
    ret = net.value(state.vector())  # advantage exactly zero
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
        net = ActorCritic.create(k=1, hidden=2, actions=("a", "b"),
                                 seed=20 + trial)
        state = SchedulerState(rng.random(1), rng.random(1), rng.random(1))
        action = int(rng.integers(2))
        rew = float(rng.random())
        traj = [(state, action, rew)]
        gamma, ew = 0.88, 0.01

        # freeze the advantage the way the update rule does
        ret = discounted_returns([rew], gamma)[0]
        adv = ret - net.value(state.vector())

        def actor_objective():
            probs, _ = net.policy(state.vector())
            return math.log(probs[action]) * adv + ew * entropy(probs)

        def critic_loss():
            return (ret - net.value(state.vector())) ** 2

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


def test_a3c_update_rejects_empty_trajectory():
    net = ActorCritic.create(k=2, hidden=4, actions=("a", "b"), seed=0)
    with pytest.raises(ValueError):
        a3c_update(net, [], lr=0.01)


# ---------------------------------------------------------------------------
# training loop

def test_train_scheduler_zero_epochs_returns_fresh_policy():
    result = train_scheduler(lambda w: TwoContextBanditEnv(), epochs=0,
                             seed=3, actions=("a", "b", "c"))
    fresh = ActorCritic.create(TwoContextBanditEnv().k, 96,
                               ("a", "b", "c"), seed=3)
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
    high = SchedulerState(np.full(8, 0.5), np.full(8, 0.5), np.full(8, 0.75))
    low = SchedulerState(np.full(8, 0.5), np.full(8, 0.5), np.full(8, 0.25))
    assert select_action(result.net, high, "greedy") == 2
    assert select_action(result.net, low, "greedy") == 0


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


def test_curve_csv_round_trip(tmp_path):
    result = train_scheduler(lambda w: TwoContextBanditEnv(), epochs=5,
                             seed=0, actions=("a", "b", "c"))
    path = tmp_path / "curve.csv"
    result.save_curve_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_reward,entropy"
    assert len(lines) == 6


def test_checkpoint_round_trip(tmp_path):
    result = train_scheduler(lambda w: TwoContextBanditEnv(), epochs=10,
                             seed=6, actions=("a", "b", "c"))
    path = tmp_path / "policy.iscm"
    result.net.save(path)
    back = ActorCritic.load(path, actions=("a", "b", "c"))
    state = state_of(k=8)
    np.testing.assert_allclose(back.policy(state.vector())[0],
                               result.net.policy(state.vector())[0],
                               atol=1e-6)
    assert select_action(back, state, "greedy") == \
        select_action(result.net, state, "greedy")


def test_checkpoint_load_rejects_action_count_mismatch(tmp_path):
    path = tmp_path / "policy.iscm"
    ActorCritic.create(actions=("a", "b", "c"), seed=1).save(path)
    with pytest.raises(ValueError, match="3 actions"):
        ActorCritic.load(path)  # DEFAULT_ACTIONS has six entries


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
