"""Actor-critic scheduler that picks a codec model per frame from recent
ROI significance, device compute, and bandwidth observations.

The policy/value nets share a tanh trunk; the actor head emits a softmax
over the model set and the critic head a scalar state value. Training is
advantage actor-critic with entropy regularization; workers roll out
private episodes and apply gradient batches to the global parameters one
at a time (staleness at most one application).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import read_layer_stream, write_layer_stream
from .nn import Layer, dense

DEFAULT_WINDOW = 8
DEFAULT_HIDDEN = 96
DEFAULT_EPOCHS = 500
DEFAULT_LR = 0.005
DEFAULT_GAMMA = 0.88
NEUTRAL_FILL = 0.5

# default action space: three latent sizes times two bit widths
DEFAULT_ACTIONS = ("4x4-q8", "4x4-q16", "8x8-q8", "8x8-q16",
                   "16x16-q8", "16x16-q16")


@dataclass(frozen=True)
class SchedulerState:
    """Normalized k-frame windows: ROI significance, compute, bandwidth."""

    n_hist: np.ndarray
    c_hist: np.ndarray
    b_hist: np.ndarray

    def __post_init__(self):
        for name in ("n_hist", "c_hist", "b_hist"):
            v = np.clip(np.asarray(getattr(self, name), dtype=np.float64),
                        0.0, 1.0)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        k = len(self.n_hist)
        if len(self.c_hist) != k or len(self.b_hist) != k:
            raise ValueError("history windows must share one length")

    @property
    def k(self):
        return len(self.n_hist)

    def vector(self):
        return np.concatenate([self.n_hist, self.c_hist, self.b_hist])


@dataclass(frozen=True)
class RewardSpec:
    """Frame-rate / accuracy blend: r = eta*min(1, f/f_target) + (1-eta)*L."""

    eta: float = 0.5
    f_target: float = 30.0
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
    return (spec.eta * min(1.0, f_t / spec.f_target)
            + (1.0 - spec.eta) * spec.accuracy_table[model_id])


def normalized_accuracy(test_cds: dict) -> dict:
    """Per-model accuracy 1/CD, scaled so the best model scores 1."""
    inv = {k: 1.0 / v for k, v in test_cds.items()}
    top = max(inv.values())
    return {k: v / top for k, v in inv.items()}


def build_state(records, k: int = DEFAULT_WINDOW, b_ref: float = 100.0,
                t_ref: float = 1.0 / 30.0) -> SchedulerState:
    """State from the tail of per-frame records.

    Records need attributes/keys input_points, roi_points, decode_s, and
    bandwidth_mbps; frames before warm-up are padded with 0.5.
    """
    def get(rec, name):
        return rec[name] if isinstance(rec, dict) else getattr(rec, name)

    tail = list(records)[-k:]
    n = np.full(k, NEUTRAL_FILL)
    c = np.full(k, NEUTRAL_FILL)
    b = np.full(k, NEUTRAL_FILL)
    for i, rec in enumerate(tail):
        slot = k - len(tail) + i
        total = max(1, get(rec, "input_points"))
        n[slot] = get(rec, "roi_points") / total
        decode_s = get(rec, "decode_s")
        c[slot] = 1.0 if decode_s <= 0 else min(1.0, t_ref / decode_s)
        b[slot] = min(1.0, get(rec, "bandwidth_mbps") / b_ref)
    return SchedulerState(n, c, b)


# ---------------------------------------------------------------------------
# actor-critic network

@dataclass
class ActorCritic:
    trunk: Layer        # dense (3k -> H), tanh applied
    actor: Layer        # dense (|A| -> H), softmax applied
    critic: Layer       # dense (1 -> H)
    actions: tuple[str, ...] = DEFAULT_ACTIONS

    @classmethod
    def create(cls, k: int = DEFAULT_WINDOW, hidden: int = DEFAULT_HIDDEN,
               actions=DEFAULT_ACTIONS, seed: int = 0) -> "ActorCritic":
        rng = np.random.default_rng(seed)
        return cls(dense(hidden, 3 * k, rng), dense(len(actions), hidden, rng),
                   dense(1, hidden, rng), tuple(actions))

    def hidden(self, state_vec):
        return np.tanh(self.trunk.weights @ state_vec + self.trunk.bias)

    def policy(self, state_vec):
        h = self.hidden(state_vec)
        logits = self.actor.weights @ h + self.actor.bias
        shifted = logits - logits.max()
        e = np.exp(shifted)
        return e / e.sum(), h

    def value(self, state_vec, h=None):
        if h is None:
            h = self.hidden(state_vec)
        return float((self.critic.weights @ h + self.critic.bias)[0])

    def save(self, path):
        write_layer_stream(path, [
            ("dense", self.trunk, "f32", None),
            ("tanh", Layer("tanh"), "f32", None),
            ("actor_head", self.actor, "f32", None),
            ("critic_head", self.critic, "f32", None),
        ])

    @classmethod
    def load(cls, path, actions=DEFAULT_ACTIONS) -> "ActorCritic":
        entries = read_layer_stream(path)
        by_kind = {kind: layer for kind, layer, _, _ in entries}
        if "actor_head" not in by_kind or "critic_head" not in by_kind:
            raise ValueError("not a scheduler checkpoint")
        trunk = next(layer for kind, layer, _, _ in entries
                     if kind == "dense" and layer.weights is not None)
        actor = by_kind["actor_head"]
        if len(actor.weights) != len(actions):
            raise ValueError(f"checkpoint has {len(actor.weights)} actions, "
                             f"expected {len(actions)}")
        return cls(trunk, actor, by_kind["critic_head"], tuple(actions))

    def snapshot(self) -> "ActorCritic":
        return ActorCritic(
            Layer("dense", self.trunk.weights.copy(), self.trunk.bias.copy()),
            Layer("dense", self.actor.weights.copy(), self.actor.bias.copy()),
            Layer("dense", self.critic.weights.copy(), self.critic.bias.copy()),
            self.actions)


def select_action(policy: ActorCritic, state: SchedulerState,
                  mode: str = "greedy", seed=None) -> int:
    """Pick an action index: softmax sample ('sample') or argmax ('greedy',
    lowest index on ties)."""
    probs, _ = policy.policy(state.vector())
    if mode == "greedy":
        return int(np.argmax(probs))
    if mode == "sample":
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        return int(rng.choice(len(probs), p=probs))
    raise ValueError("mode must be 'sample' or 'greedy'")


def entropy(probs) -> float:
    p = np.asarray(probs)
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum())


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
    trajectory, evaluated on `net` (typically a worker snapshot).

    Actor gradients point along the objective ascent direction
    (log-probability times advantage plus the entropy bonus); critic
    gradients descend the squared advantage. Advantages are treated as
    constants in the actor term.
    """
    if not trajectory:
        raise ValueError("empty trajectory")
    states, actions, rewards = zip(*trajectory)
    returns = discounted_returns(np.asarray(rewards, dtype=np.float64), gamma)

    zeros = lambda l: (np.zeros_like(l.weights), np.zeros_like(l.bias))
    d_trunk_a, db_trunk_a = zeros(net.trunk)
    d_actor, db_actor = zeros(net.actor)
    d_trunk_c, db_trunk_c = zeros(net.trunk)
    d_critic, db_critic = zeros(net.critic)

    for state, action, ret in zip(states, actions, returns):
        vec = state.vector()
        probs, h = net.policy(vec)
        value = net.value(vec, h)
        adv = ret - value

        # actor: d logits = (onehot - probs) * adv + entropy term
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
        d_trunk_a += np.outer(dpre, vec)
        db_trunk_a += dpre

        # critic: d (ret - V)^2 / d theta_v = -2 adv dV/dtheta_v
        dv = -2.0 * adv
        d_critic += dv * h[None, :]
        db_critic += np.array([dv])
        dh_c = net.critic.weights[0] * dv
        dpre_c = dh_c * (1.0 - h ** 2)
        d_trunk_c += np.outer(dpre_c, vec)
        db_trunk_c += dpre_c

    actor_grads = {"trunk": (d_trunk_a, db_trunk_a),
                   "actor": (d_actor, db_actor)}
    critic_grads = {"trunk": (d_trunk_c, db_trunk_c),
                    "critic": (d_critic, db_critic)}
    return actor_grads, critic_grads


def clip_gradients(grads: dict, max_norm: float) -> dict:
    """Scale a gradient batch so its global norm is at most max_norm."""
    total = math.sqrt(sum(float((g ** 2).sum()) for pair in grads.values()
                          for g in pair))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: (dw * scale, db * scale) for k, (dw, db) in grads.items()}


def a3c_update(global_net: ActorCritic, trajectory, lr: float,
               gamma: float = DEFAULT_GAMMA, entropy_weight: float = 0.0,
               worker_net: ActorCritic | None = None,
               clip_norm: float | None = None) -> None:
    """Compute gradients on the worker snapshot (or the global net itself)
    and apply both accumulators to the global parameters atomically."""
    source = worker_net if worker_net is not None else global_net
    actor_grads, critic_grads = a3c_gradients(source, trajectory, gamma,
                                              entropy_weight)
    if clip_norm is not None:
        actor_grads = clip_gradients(actor_grads, clip_norm)
        critic_grads = clip_gradients(critic_grads, clip_norm)
    apply_gradients(global_net, actor_grads, critic_grads, lr)


def apply_gradients(net: ActorCritic, actor_grads, critic_grads,
                    lr: float) -> None:
    dw, db = actor_grads["trunk"]
    net.trunk.weights += lr * dw
    net.trunk.bias += lr * db
    dw, db = actor_grads["actor"]
    net.actor.weights += lr * dw
    net.actor.bias += lr * db
    dw, db = critic_grads["trunk"]
    net.trunk.weights -= lr * dw
    net.trunk.bias -= lr * db
    dw, db = critic_grads["critic"]
    net.critic.weights -= lr * dw
    net.critic.bias -= lr * db


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    net: ActorCritic
    epochs: np.ndarray
    mean_reward: np.ndarray
    entropy: np.ndarray

    def save_curve_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_reward", "entropy"])
            for e, r, h in zip(self.epochs, self.mean_reward, self.entropy):
                writer.writerow([int(e), f"{r:.6f}", f"{h:.6f}"])


def train_scheduler(env_factory, workers: int = 1,
                    epochs: int = DEFAULT_EPOCHS, lr: float = DEFAULT_LR,
                    gamma: float = DEFAULT_GAMMA,
                    entropy_weight: float = 0.01, hidden: int = DEFAULT_HIDDEN,
                    actions=DEFAULT_ACTIONS, seed: int = 0,
                    net: ActorCritic | None = None,
                    clip_norm: float | None = 5.0) -> TrainResult:
    """Train the scheduler on environments from env_factory(worker_index).

    Environments implement reset(rng) -> state and step(action) ->
    (state, reward, done). One epoch rolls one episode per worker; each
    worker acts on a parameter snapshot and its gradient batch is applied
    to the global net serially, so a single-worker run is exactly
    sequential and bit-reproducible for a fixed seed. The entropy bonus
    decays linearly to zero over the epochs; gradient batches are clipped
    by global norm, which keeps plain-SGD updates stable at the default
    learning rate.
    """
    envs = [env_factory(w) for w in range(workers)]
    rngs = [np.random.default_rng(seed + 17 * w) for w in range(workers)]
    if net is None:
        probe = envs[0].reset(np.random.default_rng(seed))
        net = ActorCritic.create(probe.k, hidden, actions, seed)
    means = np.empty(epochs)
    ents = np.empty(epochs)
    for epoch in range(epochs):
        decay = 1.0 - epoch / max(1, epochs)
        weight = entropy_weight * decay
        epoch_rewards = []
        epoch_entropy = []
        for w, env in enumerate(envs):
            snapshot = net.snapshot() if workers > 1 else net
            state = env.reset(rngs[w])
            trajectory = []
            done = False
            while not done:
                probs, _ = snapshot.policy(state.vector())
                epoch_entropy.append(entropy(probs))
                action = int(rngs[w].choice(len(probs), p=probs))
                nxt, rew, done = env.step(action)
                if not math.isfinite(rew):
                    raise FloatingPointError("environment produced a "
                                             "non-finite reward")
                trajectory.append((state, action, rew))
                state = nxt
            a3c_update(net, trajectory, lr, gamma, weight,
                       worker_net=snapshot if workers > 1 else None,
                       clip_norm=clip_norm)
            epoch_rewards.extend(r for _, _, r in trajectory)
        means[epoch] = float(np.mean(epoch_rewards))
        ents[epoch] = float(np.mean(epoch_entropy))
    return TrainResult(net, np.arange(epochs), means, ents)


# ---------------------------------------------------------------------------
# reference bandit environments

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

    n_actions = 3

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
        return SchedulerState(np.full(self.k, NEUTRAL_FILL),
                              np.full(self.k, NEUTRAL_FILL),
                              np.clip(b + jitter, 0.0, 1.0))

    def _draw(self):
        self._context = "high" if self._rng.random() < 0.5 else "low"

    def reset(self, rng) -> SchedulerState:
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
