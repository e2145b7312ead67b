import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspo import predictor
from tspo.errors import DimensionMismatch, EmptyTrainSet, SingularSystem, StaleTape
from tspo.predictor import (
    ADAM_EPS,
    KnnModel,
    Mlp,
    MlpModel,
    RidgeModel,
    adam_step,
    backward,
    forward,
    init_adam,
    init_mlp,
    knn_predict,
    ridge_fit,
    train_mse,
)


def manual_forward(mlp, X):
    """Independent re-implementation of the same arithmetic (loop form)."""
    outs = []
    for row in np.atleast_2d(X):
        a = row
        for i, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
            z = W @ a + b
            a = z if i == len(mlp.weights) - 1 else np.where(z > 0, z, 0.0)
        outs.append(a[0])
    return np.array(outs)


class TestForward:
    def test_zero_weights_give_bias(self):
        net = init_mlp((3, 4, 1), seed=0)
        for W in net.weights:
            W[:] = 0.0
        net.biases[-1][:] = 2.5
        theta, _ = forward(net, np.zeros((5, 3)))
        assert np.allclose(theta, 2.5)

    def test_identity_single_layer(self):
        net = Mlp((1, 1), [np.array([[1.0]])], [np.array([0.0])])
        theta, _ = forward(net, np.array([[3.0], [7.0]]))
        assert np.allclose(theta, [3.0, 7.0])

    def test_matches_independent_implementation(self):
        net = init_mlp((4, 8, 8, 1), seed=3)
        X = np.random.default_rng(0).normal(size=(6, 4))
        theta, _ = forward(net, X)
        assert np.allclose(theta, manual_forward(net, X), atol=1e-12)

    def test_dimension_mismatch(self):
        net = init_mlp((4, 4, 1), seed=0)
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros((2, 3)))

    def test_deterministic(self):
        net = init_mlp((4, 8, 1), seed=1)
        X = np.random.default_rng(1).normal(size=(3, 4))
        a, _ = forward(net, X)
        b, _ = forward(net, X)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_upstream(self):
        net = init_mlp((3, 5, 1), seed=0)
        _, tape = forward(net, np.ones((2, 3)))
        grads = backward(net, tape, np.zeros(2))
        assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads)

    def test_single_linear_layer_closed_form(self):
        net = Mlp((3, 1), [np.zeros((1, 3))], [np.array([0.0])])
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        u = np.array([2.0, -1.0])
        _, tape = forward(net, X)
        (gw, gb), = backward(net, tape, u)
        assert np.allclose(gw, (u[:, None] * X).sum(axis=0))
        assert gb[0] == pytest.approx(u.sum())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for hidden in (4, 16):
            net = init_mlp((3, hidden, hidden, 1), seed=7)
            X = rng.normal(size=(4, 3))
            u = rng.normal(size=4)
            _, tape = forward(net, X)
            grads = backward(net, tape, u)
            worst = 0.0
            step = 1e-6
            for li in range(len(net.weights)):
                for arr, g in ((net.weights[li], grads[li][0]), (net.biases[li], grads[li][1])):
                    it = np.nditer(arr, flags=["multi_index"])
                    while not it.finished:
                        ix = it.multi_index
                        old = arr[ix]
                        arr[ix] = old + step
                        lp = float(u @ forward(net, X)[0])
                        arr[ix] = old - step
                        lm = float(u @ forward(net, X)[0])
                        arr[ix] = old
                        fd = (lp - lm) / (2 * step)
                        worst = max(worst, abs(fd - g[ix]) / (1e-4 + abs(fd)))
                        it.iternext()
            assert worst <= 1e-4

    def test_stale_tape(self):
        net = init_mlp((2, 3, 1), seed=0)
        _, tape = forward(net, np.ones((1, 2)))
        backward(net, tape, np.ones(1))
        with pytest.raises(StaleTape):
            backward(net, tape, np.ones(1))


class TestAdam:
    def test_zero_gradient_no_move(self):
        net = init_mlp((2, 3, 1), seed=0)
        before = [W.copy() for W in net.weights]
        state = init_adam(net, lr=0.1)
        adam_step(net, state, [(np.zeros_like(W), np.zeros_like(b)) for W, b in zip(net.weights, net.biases)])
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_first_step_normalized(self):
        net = Mlp((1, 1), [np.array([[0.0]])], [np.array([0.0])])
        state = init_adam(net, lr=0.01)
        g = np.array([[0.37]])
        adam_step(net, state, [(g, np.array([0.0]))])
        assert net.weights[0][0, 0] == pytest.approx(-0.01 * 0.37 / (0.37 + ADAM_EPS), rel=1e-9)

    def test_constant_gradient_step_magnitude(self):
        net = Mlp((1, 1), [np.array([[0.0]])], [np.array([0.0])])
        state = init_adam(net, lr=0.05)
        g = [(np.array([[1.7]]), np.array([0.0]))]
        prev = 0.0
        for _ in range(1000):
            prev = net.weights[0][0, 0]
            adam_step(net, state, g)
        delta = abs(net.weights[0][0, 0] - prev)
        assert delta == pytest.approx(0.05, rel=0.01)


class TestRidge:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        X = rng.normal(size=(20, 4))
        fit = ridge_fit(X, X @ w, lam=0.0)
        assert np.max(np.abs(fit - w)) <= 1e-8

    def test_large_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        assert np.max(np.abs(ridge_fit(X, y, lam=1e12))) < 1e-6

    def test_matches_direct_normal_equations(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        direct = np.linalg.inv(X.T @ X + np.eye(4)) @ (X.T @ y)
        assert np.allclose(ridge_fit(X, y, lam=1.0), direct, atol=1e-10)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 5))
        y = rng.normal(size=12)
        for lam in (0.0, 0.5, 10.0):
            w = ridge_fit(X, y, lam)
            r = (X.T @ X + lam * np.eye(5)) @ w - X.T @ y
            assert np.max(np.abs(r)) <= 1e-8 * (1 + np.max(np.abs(X.T @ y)))

    def test_singular_unregularized(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularSystem):
            ridge_fit(X, np.array([1.0, 2.0]), lam=0.0)


def knn_loop(rows, k, query):
    """The per-row k-NN prediction: the oracle for the vectorised one."""
    k = min(int(k), len(rows))
    feats = np.array([np.asarray(r[0], dtype=float) for r in rows])
    targets = np.array([float(r[1]) for r in rows])
    idx = np.argsort(np.linalg.norm(feats - np.asarray(query, dtype=float), axis=1), kind="stable")[:k]
    return float(np.mean(targets[idx]))


class TestKnn:
    def test_exact_training_point(self):
        feats, targets = np.array([[0.0, 0.0], [5.0, 5.0]]), np.array([1.0, 9.0])
        assert knn_predict(feats, targets, 1, np.array([0.0, 0.0]))[0] == 1.0

    def test_k_equals_n_global_mean(self):
        feats, targets = np.arange(5.0)[:, None], np.arange(5.0)
        assert knn_predict(feats, targets, 5, np.array([100.0]))[0] == pytest.approx(2.0)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(4)
        feats, targets = rng.normal(size=(30, 3)), rng.normal(size=30)
        q = rng.normal(size=3)
        d = np.array([np.linalg.norm(f - q) for f in feats])
        expect = np.mean(targets[np.argsort(d, kind="stable")[:3]])
        assert knn_predict(feats, targets, 3, q)[0] == pytest.approx(expect)

    def test_empty(self):
        with pytest.raises(EmptyTrainSet):
            knn_predict(np.zeros((0, 2)), np.zeros(0), 1, np.zeros(2))

    @pytest.mark.parametrize("block", [1, 7, 1 << 20])
    def test_bit_identical_to_per_row_loop_with_ties(self, monkeypatch, block):
        # Integer features on a small grid make many distances tie exactly, so
        # the stable tie order decides which targets are averaged.
        monkeypatch.setattr(predictor, "KNN_BLOCK", block)
        rng = np.random.default_rng(12)
        for trial in range(20):
            n, m, k = int(rng.integers(1, 40)), int(rng.integers(1, 5)), int(rng.integers(1, 9))
            feats = rng.integers(-2, 3, size=(n, m)).astype(float)
            targets = rng.normal(size=n)
            queries = rng.integers(-2, 3, size=(int(rng.integers(1, 12)), m)).astype(float)
            if trial % 2:
                queries += rng.normal(scale=1e-3, size=queries.shape)
            rows = list(zip(feats, targets))
            got = knn_predict(feats, targets, k, queries)
            want = np.array([knn_loop(rows, k, qr) for qr in queries])
            assert got.tobytes() == want.tobytes()

    def test_model_matches_per_row_loop(self):
        rng = np.random.default_rng(3)
        insts = [(rng.integers(0, 3, size=(4, 2)).astype(float), rng.normal(size=4)) for _ in range(9)]
        rows = [(feat[j], theta[j]) for feat, theta in insts for j in range(len(theta))]
        model = KnnModel(4).fit(insts)
        F = rng.integers(0, 3, size=(6, 2)).astype(float)
        want = np.array([knn_loop(rows, 4, F[j]) for j in range(6)])
        assert model.predict(F).tobytes() == want.tobytes()


class TestModels:
    def test_train_mse_reduces_error(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=3)
        insts = []
        for _ in range(30):
            F = rng.normal(size=(4, 3))
            insts.append((F, F @ w))
        net = init_mlp((3, 16, 1), seed=0)
        def mse(n):
            return float(np.mean([np.mean((forward(n, F)[0] - th) ** 2) for F, th in insts]))
        before = mse(net)
        train_mse(net, insts, epochs=60, lr=1e-2, seed=0)
        assert mse(net) < 0.05 * before

    def test_model_adapters(self):
        rng = np.random.default_rng(1)
        insts = [(rng.normal(size=(3, 2)), rng.normal(size=3)) for _ in range(5)]
        for model in (RidgeModel(1.0).fit(insts), KnnModel(3).fit(insts), MlpModel(init_mlp((2, 4, 1)))):
            out = model.predict(insts[0][0])
            assert out.shape == (3,)
