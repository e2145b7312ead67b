"""Prediction models mapping feature matrices to parameter vectors.

The main model is a small fully-connected ReLU network with explicit
backpropagation and an Adam optimizer, applied row-wise: feature row j
predicts parameter j through one shared network.  Ridge regression and
k-nearest-neighbors over the same (row, target) pairs serve as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyTrainSet, SingularSystem, StaleTape

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
KNN_BLOCK = 1 << 20


@dataclass
class Mlp:
    """Fully connected network: ReLU hidden layers, identity output."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]


def init_mlp(layer_sizes, seed: int = 0) -> Mlp:
    """Glorot-uniform weights; final layer size must be 1."""
    sizes = tuple(int(n) for n in layer_sizes)
    if len(sizes) < 2 or sizes[-1] != 1:
        raise ValueError("layer_sizes must end in a single output unit")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return Mlp(sizes, weights, biases)


@dataclass
class GradientTape:
    """Activations cached by one forward pass; consumed by one backward."""

    inputs: np.ndarray
    pre_acts: list[np.ndarray]
    acts: list[np.ndarray]
    used: bool = False


def forward(mlp: Mlp, features: np.ndarray) -> tuple[np.ndarray, GradientTape]:
    """Apply the network to each feature row; returns (theta_hat, tape)."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != mlp.n_inputs:
        raise DimensionMismatch(f"feature rows have {X.shape[1]} columns, network expects {mlp.n_inputs}")
    a = X
    pre_acts, acts = [], [a]
    last = len(mlp.weights) - 1
    for i, (W, bias) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ W.T + bias
        pre_acts.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    theta_hat = a[:, 0]
    return theta_hat, GradientTape(inputs=X, pre_acts=pre_acts, acts=acts)


def backward(mlp: Mlp, tape: GradientTape, upstream: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Backpropagate d(loss)/d(theta_hat) to per-layer (dW, db) gradients."""
    if tape.used:
        raise StaleTape("gradient tape already consumed")
    tape.used = True
    u = np.asarray(upstream, dtype=float).reshape(-1)
    if u.shape[0] != tape.inputs.shape[0]:
        raise DimensionMismatch("upstream length does not match the number of predicted parameters")
    delta = u[:, None]
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.weights)
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (delta.T @ tape.acts[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ mlp.weights[i]) * (tape.pre_acts[i - 1] > 0)
    return grads


@dataclass
class AdamState:
    lr: float = 1e-3
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(mlp: Mlp, lr: float = 1e-3) -> AdamState:
    shapes = [(W, bias) for W, bias in zip(mlp.weights, mlp.biases)]
    return AdamState(
        lr=lr,
        m=[(np.zeros_like(W), np.zeros_like(b)) for W, b in shapes],
        v=[(np.zeros_like(W), np.zeros_like(b)) for W, b in shapes],
    )


def adam_step(mlp: Mlp, state: AdamState, grads) -> None:
    """One Adam update with bias correction; mutates mlp and state in place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for i, (gw, gb) in enumerate(grads):
        mw, mb = state.m[i]
        vw, vb = state.v[i]
        mw[:] = ADAM_BETA1 * mw + (1 - ADAM_BETA1) * gw
        mb[:] = ADAM_BETA1 * mb + (1 - ADAM_BETA1) * gb
        vw[:] = ADAM_BETA2 * vw + (1 - ADAM_BETA2) * gw**2
        vb[:] = ADAM_BETA2 * vb + (1 - ADAM_BETA2) * gb**2
        mlp.weights[i] -= state.lr * (mw / c1) / (np.sqrt(vw / c2) + ADAM_EPS)
        mlp.biases[i] -= state.lr * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS)


def train_mse(mlp: Mlp, instances, epochs: int, lr: float, seed: int = 0) -> Mlp:
    """Classic supervised training on squared parameter error (the NN baseline)."""
    state = init_adam(mlp, lr=lr)
    rng = np.random.default_rng(seed)
    order = np.arange(len(instances))
    for _ in range(epochs):
        rng.shuffle(order)
        for i in order:
            features, theta = instances[i]
            theta_hat, tape = forward(mlp, features)
            upstream = 2.0 * (theta_hat - theta) / theta.shape[0]
            adam_step(mlp, state, backward(mlp, tape, upstream))
    return mlp


def ridge_fit(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Normal-equation ridge weights: argmin |Xw - y|^2 + lam |w|^2."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X and y row counts differ")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    gram = X.T @ X + lam * np.eye(X.shape[1])
    try:
        return np.linalg.solve(gram, X.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal equations singular (lam={lam}): {exc}") from exc


def knn_predict(feats: np.ndarray, targets: np.ndarray, k: int, queries: np.ndarray) -> np.ndarray:
    """Mean target of the k nearest training rows, for every query row at once.

    ``feats`` (n, m) and ``targets`` (n,) are the training rows.  Distance
    ties keep the lower row index.  Each prediction is bit-identical to
    ranking one query at a time, since every distance, sort and mean reduces
    the same numbers in the same order.
    """
    if not len(targets):
        raise EmptyTrainSet("no training rows")
    k = min(int(k), len(targets))
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    # Query blocks bound the (block, n, m) difference array to KNN_BLOCK floats.
    block = max(1, KNN_BLOCK // max(feats.size, 1))
    out = np.empty(Q.shape[0])
    for lo in range(0, Q.shape[0], block):
        dist = np.linalg.norm(feats[None, :, :] - Q[lo : lo + block, None, :], axis=2)
        idx = np.argsort(dist, axis=1, kind="stable")[:, :k]
        out[lo : lo + block] = targets[idx].mean(axis=1)
    return out


class MlpModel:
    """Adapter giving a trained network the common predict interface."""

    def __init__(self, mlp: Mlp):
        self.mlp = mlp

    def predict(self, features: np.ndarray) -> np.ndarray:
        theta_hat, _ = forward(self.mlp, features)
        return theta_hat


class RidgeModel:
    def __init__(self, lam: float = 1.0):
        self.lam = lam
        self.weights: np.ndarray | None = None

    def fit(self, instances) -> "RidgeModel":
        X = np.vstack([feat for feat, _ in instances])
        y = np.concatenate([theta for _, theta in instances])
        self.weights = ridge_fit(X, y, self.lam)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.atleast_2d(features) @ self.weights


class KnnModel:
    def __init__(self, k: int = 5):
        self.k = k
        self.feats = np.zeros((0, 0))
        self.targets = np.zeros(0)

    def fit(self, instances) -> "KnnModel":
        if len(instances):
            self.feats = np.vstack([np.asarray(feat, dtype=float) for feat, _ in instances])
            self.targets = np.concatenate([np.asarray(theta, dtype=float) for _, theta in instances])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return knn_predict(self.feats, self.targets, self.k, features)
