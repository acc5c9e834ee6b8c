import numpy as np
import pytest

from jobfraud import bilstm, ndgrad
from jobfraud.errors import NumericError, ShapeError
from jobfraud.ndgrad import Graph, Tensor, backward, param
from tape_reference import (
    activation,
    gather,
    grad_check,
    multiply,
    reshape,
    slice_columns,
    sum_all,
    tanh,
    transpose,
)


def finite_diff(f, x: Tensor, eps=1e-6):
    """Independent central-difference gradient of a scalar function."""
    grad = np.zeros_like(x.values)
    flat = x.values.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f().values)
        flat[i] = orig - eps
        lo = float(f().values)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------

def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[1.0], [1.0]])
    assert ndgrad.matmul(a, b).values.tolist() == [[3.0], [7.0]]


def test_matmul_identity():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    out = ndgrad.matmul(a, Tensor(np.eye(3)))
    assert np.array_equal(out.values, a.values)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 1\)"):
        ndgrad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 1))))


def test_matmul_backward_rule():
    a = param(np.array([[1.0, -2.0], [0.5, 3.0]]))
    b = param(np.array([[2.0, 0.0], [1.0, -1.0]]))
    with Graph() as g:
        loss = sum_all(ndgrad.matmul(a, b))
    backward(g, loss)
    ones = np.ones((2, 2))
    assert np.allclose(a.grad, ones @ b.values.T)
    assert np.allclose(b.grad, a.values.T @ ones)


# --------------------------------------------------------------------------
# activations
# --------------------------------------------------------------------------

def test_activation_values():
    x = Tensor([0.0, -2.0])
    assert activation("sigmoid", x).values[0] == 0.5
    assert activation("tanh", x).values[0] == 0.0
    assert activation("relu", x).values.tolist() == [0.0, 0.0]


def test_sigmoid_complement_identity():
    xs = np.linspace(-8, 8, 23)
    s = ndgrad.sigmoid(Tensor(xs)).values
    s_neg = ndgrad.sigmoid(Tensor(-xs)).values
    assert np.allclose(s + s_neg, 1.0)


def test_sigmoid_extreme_inputs_stay_finite():
    out = ndgrad.sigmoid(Tensor([-1e4, 1e4])).values
    assert out[0] == 0.0 and out[1] == 1.0


def test_unknown_activation():
    with pytest.raises(ValueError):
        activation("gelu", Tensor([0.0]))


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "relu"])
def test_activation_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(17)
    x = param(rng.normal(size=(4, 3)) + 0.05)  # nudged off the relu kink

    def f():
        return sum_all(activation(kind, x))

    assert grad_check(f, [x]) < 1e-6


# --------------------------------------------------------------------------
# concat / gather / slice / transpose / reshape
# --------------------------------------------------------------------------

def test_concat_vectors():
    out = ndgrad.concat(Tensor([1.0, 2.0]), Tensor([3.0]))
    assert out.values.tolist() == [1.0, 2.0, 3.0]


def test_concat_with_empty_is_identity():
    a = Tensor(np.ones((2, 3)))
    out = ndgrad.concat(a, Tensor(np.zeros((2, 0))))
    assert np.array_equal(out.values, a.values)


def test_concat_row_mismatch():
    with pytest.raises(ShapeError):
        ndgrad.concat(Tensor(np.ones((2, 1))), Tensor(np.ones((3, 1))))


def test_concat_backward_splits_gradient():
    rng = np.random.default_rng(3)
    a = param(rng.normal(size=(2, 2)))
    b = param(rng.normal(size=(2, 3)))
    weights = rng.normal(size=(2, 5))

    def f():
        joined = ndgrad.concat(a, b)
        return sum_all(multiply(joined, Tensor(weights)))

    assert grad_check(f, [a, b]) < 1e-8
    assert np.allclose(a.grad, weights[:, :2])
    assert np.allclose(b.grad, weights[:, 2:])


def test_gather_rows():
    table = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = gather(table, [1, 1, 0])
    assert out.values.tolist() == [[3.0, 4.0], [3.0, 4.0], [1.0, 2.0]]


def test_gather_out_of_range():
    with pytest.raises(IndexError):
        gather(Tensor(np.zeros((2, 2))), [2])


def test_gather_empty_ids():
    out = gather(Tensor(np.zeros((3, 4))), [])
    assert out.values.shape == (0, 4)


def test_gather_repeated_id_accumulates_gradient():
    table = param(np.random.default_rng(0).normal(size=(4, 3)))
    ids = [2, 2, 2, 1]

    def f():
        return sum_all(gather(table, ids))

    assert grad_check(f, [table]) < 1e-8
    assert np.allclose(table.grad[2], 3.0)  # picked three times
    assert np.allclose(table.grad[1], 1.0)
    assert np.allclose(table.grad[0], 0.0)


def test_slice_columns_and_transpose_gradients():
    rng = np.random.default_rng(8)
    x = param(rng.normal(size=(3, 6)))

    def f():
        part = slice_columns(transpose(transpose(x)), 1, 4)
        return sum_all(multiply(part, part))

    assert grad_check(f, [x]) < 1e-7


def test_reshape_gradient():
    x = param(np.arange(6.0))

    def f():
        m = reshape(x, (2, 3))
        return sum_all(multiply(m, m))

    assert grad_check(f, [x]) < 1e-8


# --------------------------------------------------------------------------
# bce
# --------------------------------------------------------------------------

def test_bce_hand_values():
    assert ndgrad.bce_loss(Tensor([0.5]), [1.0]).item() == pytest.approx(np.log(2))
    assert ndgrad.bce_loss(Tensor([0.5]), [0.0]).item() == pytest.approx(np.log(2))


def test_bce_limit_toward_correct_label():
    losses = [ndgrad.bce_loss(Tensor([p]), [1.0]).item() for p in (0.9, 0.99, 0.999999)]
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 1e-5


def test_bce_nonnegative_and_clamped():
    assert ndgrad.bce_loss(Tensor([0.0, 1.0]), [0.0, 1.0]).item() >= 0.0
    for p in (0.01, 0.37, 0.93):
        for y in (0.0, 1.0):
            assert ndgrad.bce_loss(Tensor([p]), [y]).item() >= 0.0


def test_bce_batch_mean_and_gradient():
    rng = np.random.default_rng(5)
    p = param(rng.uniform(0.05, 0.95, size=(6, 1)))
    y = rng.integers(0, 2, size=(6, 1)).astype(float)

    def f():
        return ndgrad.bce_loss(p, y)

    per_example = -(y * np.log(p.values) + (1 - y) * np.log(1 - p.values))
    assert f().item() == pytest.approx(per_example.mean())
    assert grad_check(f, [p]) < 1e-7


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    w = param(np.zeros((2, 3)))
    with Graph() as g:
        loss = sum_all(w)
    backward(g, loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_square_hand_derivative():
    x = param(np.array([3.0]))
    with Graph() as g:
        loss = sum_all(multiply(x, x))
    backward(g, loss)
    assert x.grad[0] == pytest.approx(6.0)


def test_unused_parameter_gets_zero_gradient():
    used = param(np.array([2.0]))
    unused = param(np.array([5.0]))
    with Graph() as g:
        loss = sum_all(used)
    backward(g, loss)
    assert np.array_equal(unused.grad, np.zeros(1))


def test_backward_requires_scalar_recorded_loss():
    w = param(np.ones(3))
    with Graph() as g:
        vec = multiply(w, 2.0)
    with pytest.raises(ShapeError):
        backward(g, vec)
    with Graph() as g2:
        pass
    loss = Tensor(np.array(1.0))
    with pytest.raises(ValueError):
        backward(g2, loss)


def test_backward_is_linear():
    rng = np.random.default_rng(11)
    x = param(rng.normal(size=(3,)))

    def run(a, b):
        x.zero_grad()
        with Graph() as g:
            f_val = sum_all(multiply(x, x))
            g_val = sum_all(ndgrad.sigmoid(x))
            loss = ndgrad.add(multiply(f_val, a), multiply(g_val, b))
        backward(g, loss)
        return x.grad.copy()

    gf = run(1.0, 0.0)
    gg = run(0.0, 1.0)
    combined = run(2.0, -3.0)
    assert np.allclose(combined, 2.0 * gf - 3.0 * gg)


def test_repeated_backward_is_bitwise_identical():
    rng = np.random.default_rng(2)
    w = param(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=(2, 4)))

    def run():
        w.zero_grad()
        with Graph() as g:
            out = ndgrad.sigmoid(ndgrad.matmul(x, w))
            loss = sum_all(out)
        backward(g, loss)
        return w.grad.copy()

    first = run()
    second = run()
    assert np.array_equal(first, second)


def test_gradient_accumulates_without_zeroing():
    w = param(np.array([1.0]))
    for _ in range(2):
        with Graph() as g:
            loss = sum_all(multiply(w, 3.0))
        backward(g, loss)
    assert w.grad[0] == pytest.approx(6.0)  # two backwards, no zero_grad


def test_graph_records_one_node_per_op_with_a_gradient_input(monkeypatch):
    cfg = bilstm.ModelConfig(vocab_size=12, embedding_dim=3, hidden_units=4, dense_units=5,
                             sequence_length=4, numeric_width=3, seed=9)
    params = bilstm.init_params(cfg)
    ids = np.array([[1, 2, 0, 0], [3, 4, 5, 6]])
    numeric = np.ones((2, 3))
    concatenated, concat = [], ndgrad.concat

    def spy_concat(a, b):
        concatenated.append(b)
        return concat(a, b)

    monkeypatch.setattr(ndgrad, "concat", spy_concat)
    with Graph() as g:
        probs = bilstm.model_forward(ids, numeric, params)
        loss = ndgrad.bce_loss(probs, np.array([[0.0], [1.0]]))
    monkeypatch.undo()
    # the encoder, concat, two matmul + add pairs, relu, sigmoid and the loss
    assert len(g) == 9
    backward(g, loss)
    (numeric_tensor,) = concatenated
    assert numeric_tensor.grad is None

    plain = Tensor(np.ones((2, 2)))
    with Graph() as g:
        ndgrad.matmul(plain, Tensor(np.ones((2, 3))))
    assert len(g) == 0

    w = param(np.zeros((2, 3)))
    with Graph() as g:
        loss = sum_all(ndgrad.concat(w, plain))
    assert len(g) == 2
    backward(g, loss)
    assert np.array_equal(w.grad, np.ones((2, 3)))
    assert plain.grad is None


# --------------------------------------------------------------------------
# grad_check
# --------------------------------------------------------------------------

def test_grad_check_quadratic_form():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    x = param(rng.normal(size=(4, 1)))

    def f():
        return sum_all(ndgrad.matmul(transpose(x), ndgrad.matmul(Tensor(A), x)))

    assert grad_check(f, [x]) < 1e-8


@pytest.mark.filterwarnings("ignore:overflow")
def test_grad_check_rejects_non_finite():
    x = param(np.array([1e308]))

    def f():
        return sum_all(multiply(x, x))

    with pytest.raises(NumericError):
        grad_check(f, [x])


def test_grad_check_agrees_with_independent_finite_diff():
    rng = np.random.default_rng(13)
    x = param(rng.normal(size=(3, 2)))

    def f():
        return sum_all(tanh(x))

    grad_check(f, [x])
    analytic = x.grad.copy()
    numeric = finite_diff(f, x)
    assert np.allclose(analytic, numeric, atol=1e-7)
