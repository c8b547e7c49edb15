"""Actor-critic scheduler that picks a codec model per frame from recent
ROI significance, device compute, and bandwidth observations.

The policy/value nets share a tanh trunk; the actor head emits a softmax
over the model set and the critic head a scalar state value. The three
are dense `nn.Layer`s; the tanh and the softmax are applied here, not by
`nn.forward`. A policy is trained offline and held in memory only: the
one model file format is the codec's. Training is advantage actor-critic
with entropy regularization. The workers' episodes run one after
another on the one net, and each episode's gradient batch is applied
before the next episode starts, so no worker acts on stale parameters.

A state is a read-only (3k,) float64 vector: the k-frame windows of ROI
share n, compute c and bandwidth b back to back, each value in [0, 1]
(`StateWindow`, `state_slot`).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .nn import Layer, NumericsError, clip_scale, dense

DEFAULT_WINDOW = 8
DEFAULT_HIDDEN = 96
DEFAULT_EPOCHS = 500
DEFAULT_LR = 0.005
DEFAULT_GAMMA = 0.88
ENTROPY_WEIGHT = 0.01  # entropy bonus at the first epoch, decayed to 0
CLIP_NORM = 5.0        # global norm cap of each gradient batch
NEUTRAL_FILL = 0.5
B_REF = 100.0          # Mbps that reads as full bandwidth
T_REF = 1.0 / 30.0     # decode seconds that read as full compute
F_TARGET = 30.0        # frames/s that earn the full frame-rate reward
# the largest |sum(p) - 1| that `sample_index` accepts, as Generator.choice
PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class RewardSpec:
    """Frame-rate / accuracy blend: r = eta*min(1, f/F_TARGET) + (1-eta)*L."""

    eta: float = 0.5
    accuracy_table: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.accuracy_table:
            vals = list(self.accuracy_table.values())
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ValueError("accuracy values must lie in [0, 1]")
            if abs(max(vals) - 1.0) > 1e-9:
                raise ValueError("best model accuracy must equal 1")


def reward(f_t: float, model_id, spec: RewardSpec) -> float:
    if model_id not in spec.accuracy_table:
        raise KeyError(f"unknown model '{model_id}'")
    return (spec.eta * min(1.0, f_t / F_TARGET)
            + (1.0 - spec.eta) * spec.accuracy_table[model_id])


def normalized_accuracy(test_cds: dict) -> dict:
    """Per-model accuracy 1/CD, scaled so the best model scores 1."""
    inv = {k: 1.0 / v for k, v in test_cds.items()}
    top = max(inv.values())
    return {k: v / top for k, v in inv.items()}


def state_slot(input_points: int, roi_points: int, decode_s: float,
               bandwidth_mbps: float) -> tuple[float, float, float]:
    """(n, c, b) state values of one frame: the ROI share of the input
    points, decode speed against T_REF, and bandwidth against B_REF, each
    clipped to [0, 1]. Raises ValueError when a value is not finite; a NaN
    input stays NaN up to that check (`min` returns its first argument when
    the comparison fails)."""
    slot = (roi_points / max(1, input_points),
            1.0 if decode_s <= 0 else min(T_REF / decode_s, 1.0),
            min(bandwidth_mbps / B_REF, 1.0))
    if not all(map(math.isfinite, slot)):
        raise ValueError("history values must be finite")
    return tuple(min(max(v, 0.0), 1.0) for v in slot)


class StateWindow:
    """The state window of the last k frames: a (3, k) array of their
    `state_slot` values, oldest frame first, padded with NEUTRAL_FILL
    before warm-up."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self._hist = np.full((3, k), NEUTRAL_FILL)

    def push(self, slot) -> None:
        """Append one frame's (n, c, b) slot, dropping the oldest frame."""
        self._hist[:, :-1] = self._hist[:, 1:]
        self._hist[:, -1] = slot

    def state(self) -> np.ndarray:
        """A read-only (3k,) copy: the n, c and b windows back to back, so
        a returned state keeps its values while the window shifts."""
        state = self._hist.reshape(-1).copy()
        state.flags.writeable = False
        return state


# ---------------------------------------------------------------------------
# actor-critic network

@dataclass
class ActorCritic:
    trunk: Layer        # dense (3k -> H), tanh applied
    actor: Layer        # dense (|A| -> H), softmax applied
    critic: Layer       # dense (1 -> H)
    actions: tuple[str, ...]

    @classmethod
    def create(cls, actions, k: int = DEFAULT_WINDOW,
               hidden: int = DEFAULT_HIDDEN, seed: int = 0) -> "ActorCritic":
        if k < 1:
            raise ValueError("k must be positive")
        if hidden < 1:
            raise ValueError("hidden must be positive")
        rng = np.random.default_rng(seed)
        return cls(dense(hidden, 3 * k, rng), dense(len(actions), hidden, rng),
                   dense(1, hidden, rng), tuple(actions))

    @property
    def k(self) -> int:
        """State window in frames: the trunk reads 3 values per frame."""
        return self.trunk.weights.shape[1] // 3

    def _actor(self, x):
        """(probs, h): the actor path of `forward`, without the critic."""
        h = np.tanh(x @ self.trunk.weights.T + self.trunk.bias)
        logits = h @ self.actor.weights.T + self.actor.bias
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True), h

    def forward(self, x):
        """(probs, values, h) of one (3k,) state vector or a (T, 3k) stack:
        the softmax action probabilities, the critic's state values and
        the trunk activations, with the state axis kept."""
        probs, h = self._actor(x)
        return probs, h @ self.critic.weights[0] + self.critic.bias[0], h

    def policy(self, state_vec):
        """(probs, h) of one state vector."""
        return self._actor(state_vec)


def sample_index(probs, rng: np.random.Generator) -> int:
    """Index drawn with probabilities `probs`: the same draw, from the same
    one `rng.random()` call, as `rng.choice(len(probs), p=probs)`, and the
    same checks on `probs`.

    Like `choice`, it searches the cumulative sum, normalised by its last
    value, for the uniform draw (right side). The sums and the search run
    on a Python list: for a handful of actions that is cheaper than numpy
    calls, and the float operations are the same.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or not len(p):
        raise ValueError("probabilities must be a non-empty 1-d array")
    values = p.tolist()
    cdf = list(accumulate(values))
    total = cdf[-1]
    # a NaN makes the total NaN and fails the sum check
    if not abs(total - 1.0) <= PROB_SUM_ATOL or min(values) < 0.0:
        raise ValueError("probabilities must be non-negative and sum to 1")
    return bisect_right([c / total for c in cdf], rng.random())


def select_action(policy: ActorCritic, state: np.ndarray) -> int:
    """The greedy action: the argmax of the policy, lowest index on ties.
    Raises NumericsError on non-finite probabilities instead of falling
    back to action 0. Training samples with `sample_index` instead."""
    probs, _ = policy.policy(state)
    if not np.isfinite(probs).all():
        raise NumericsError("non-finite action probabilities")
    return int(np.argmax(probs))


def _safe_log(probs):
    """log p where p > 0, else 0, so that 0 log 0 counts as 0."""
    return np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), 0.0)


def entropy(probs):
    """Entropy in nats of each distribution along the last axis: a float
    for one distribution, an array for a (T, |A|) stack."""
    p = np.asarray(probs, dtype=np.float64)
    return -(p * _safe_log(p)).sum(axis=-1)


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    out = np.empty(len(rewards))
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        out[i] = acc
    return out


# ---------------------------------------------------------------------------
# A3C update

def a3c_gradients(net: ActorCritic, trajectory, gamma: float,
                  entropy_weight: float = 0.0):
    """Accumulated actor/critic gradients for one (state, action, reward)
    trajectory, evaluated on `net`, the net that acted in it.

    Actor gradients point along the objective ascent direction
    (log-probability times advantage plus the entropy bonus); critic
    gradients descend the squared advantage. Advantages are treated as
    constants in the actor term. The T steps go through the nets as one
    (T, 3k) batch, and each weight gradient is one matrix product summing
    the per-step outer products.
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    states, actions, rewards = zip(*trajectory)
    returns = discounted_returns(np.asarray(rewards, dtype=np.float64), gamma)
    x = np.stack(states)                                     # (T, 3k)
    probs, values, h = net.forward(x)       # (T, |A|), (T,), (T, H)
    adv = returns - values
    slope = 1.0 - h ** 2                                     # tanh'

    # actor: d logits = (onehot - probs) * adv + entropy term
    d_logits = -probs * adv[:, None]
    d_logits[np.arange(len(adv)), actions] += adv
    if entropy_weight:
        d_logits += entropy_weight * (
            -probs * (_safe_log(probs) + entropy(probs)[:, None]))
    dpre = (d_logits @ net.actor.weights) * slope
    actor_grads = {"trunk": (dpre.T @ x, dpre.sum(axis=0)),
                   "actor": (d_logits.T @ h, d_logits.sum(axis=0))}

    # critic: d (ret - V)^2 / d theta_v = -2 adv dV/dtheta_v
    dv = -2.0 * adv
    dpre_c = np.outer(dv, net.critic.weights[0]) * slope
    critic_grads = {"trunk": (dpre_c.T @ x, dpre_c.sum(axis=0)),
                    "critic": ((dv @ h)[None, :], np.array([dv.sum()]))}
    return actor_grads, critic_grads


def apply_gradients(net: ActorCritic, actor_grads, critic_grads,
                    lr: float) -> None:
    """One SGD step: ascend the actor batch and descend the critic batch,
    each first scaled to global norm CLIP_NORM at most."""
    for grads, step in ((actor_grads, lr), (critic_grads, -lr)):
        scale = clip_scale([g for pair in grads.values() for g in pair],
                           CLIP_NORM)
        for name, (dw, db) in grads.items():
            layer = getattr(net, name)
            layer.weights += step * (dw * scale)
            layer.bias += step * (db * scale)


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    net: ActorCritic
    epochs: np.ndarray
    mean_reward: np.ndarray


def train_scheduler(env_factory, workers: int = 1,
                    epochs: int = DEFAULT_EPOCHS, hidden: int = DEFAULT_HIDDEN,
                    actions=None, seed: int = 0) -> TrainResult:
    """Train the scheduler on environments from env_factory(worker_index).

    Environments implement reset(rng) -> state and step(action) ->
    (state, reward, done), each state a (3k,) vector. Each names its
    actions in an `actions` tuple. Every environment must name the first
    one's tuple, and so must `actions` when given, because action i of the
    net is action i of every environment. One epoch rolls one episode per
    worker, one after another on the one net, and applies each episode's
    gradient batch before the next episode starts. Worker w samples from
    `default_rng(seed + 17 * w)`, so a run is bit-reproducible for a fixed
    seed. The entropy bonus decays linearly to zero over the epochs;
    gradient batches are clipped to global norm CLIP_NORM, which keeps
    plain-SGD steps of DEFAULT_LR stable.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    envs = [env_factory(w) for w in range(workers)]
    actions = tuple(envs[0].actions if actions is None else actions)
    for env in envs:
        if tuple(env.actions) != actions:
            raise ValueError(f"environment actions {env.actions} differ "
                             f"from the policy actions {actions}")
    rngs = [np.random.default_rng(seed + 17 * w) for w in range(workers)]
    probe = envs[0].reset(np.random.default_rng(seed))
    net = ActorCritic.create(actions, len(probe) // 3, hidden, seed)
    means = np.empty(epochs)
    for epoch in range(epochs):
        weight = ENTROPY_WEIGHT * (1.0 - epoch / max(1, epochs))
        epoch_rewards = []
        for env, rng in zip(envs, rngs):
            state = env.reset(rng)
            trajectory = []
            done = False
            while not done:
                probs, _ = net.policy(state)
                action = sample_index(probs, rng)
                nxt, rew, done = env.step(action)
                if not math.isfinite(rew):
                    raise FloatingPointError("environment produced a "
                                             "non-finite reward")
                trajectory.append((state, action, rew))
                state = nxt
            actor_grads, critic_grads = a3c_gradients(
                net, trajectory, DEFAULT_GAMMA, weight)
            apply_gradients(net, actor_grads, critic_grads, DEFAULT_LR)
            epoch_rewards.extend(r for _, _, r in trajectory)
        means[epoch] = float(np.mean(epoch_rewards))
    return TrainResult(net, np.arange(epochs), means)
