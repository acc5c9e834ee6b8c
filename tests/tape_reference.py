"""Tape ops that only the tests record, and a tape-op reference for the
fused BiLSTM kernel.

`multiply`, `gather`, `tanh`, `activation` and `sum_all` are ops on
`ndgrad`'s recording rule (`ndgrad._op`, or `ndgrad.record` for the
scatter-add of `gather`), and `grad_check` compares `ndgrad.backward` with
central differences. The LSTM recurrence is built step by step from
those and `ndgrad`'s own ops, plus the three shape ops it needs
(`slice_columns`, `reshape`, `transpose`), defined here on the public
`ndgrad.record` and `ndgrad.accumulate`. The package itself never calls
them: `bilstm.bilstm_encode` is tested against `tape_encode`.

`strided_cell` and `strided_cell_backward` are the kernel's earlier step
functions, which ran the gate math block by block on strided column
views of row-major (rows, 4H) gate blocks; the kernel's gate-major
versions must give their exact bits.
"""

import numpy as np

from jobfraud import ndgrad
from jobfraud.bilstm import LstmParams, ModelParams
from jobfraud.errors import NumericError, ShapeError
from jobfraud.ndgrad import Tensor


def multiply(a: Tensor, b) -> Tensor:
    """Elementwise product with an equal-shape tensor or a python scalar."""
    av = a.values
    if isinstance(b, Tensor):
        bv = b.values
        if av.shape != bv.shape:
            raise ShapeError(f"multiply shapes differ: {av.shape} vs {bv.shape}")
        return ndgrad._op(av * bv, (a, lambda grad: grad * bv), (b, lambda grad: grad * av))
    c = float(b)
    return ndgrad._op(av * c, (a, lambda grad: grad * c))


def gather(table: Tensor, ids) -> Tensor:
    """Row lookup; backward scatter-adds into the table in place."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather ids must be 1-D, got shape {ids.shape}")
    n_rows = table.values.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        raise IndexError(f"gather id out of range for table with {n_rows} rows")
    out = Tensor(table.values[ids])

    def backward_fn(grad):
        if table.grad is None:
            table.grad = np.zeros_like(table.values)
        np.add.at(table.grad, ids, grad)

    ndgrad.record(out, (table,), backward_fn)
    return out


def tanh(x: Tensor) -> Tensor:
    ov = np.tanh(x.values)
    return ndgrad._op(ov, (x, lambda grad: grad * (1.0 - ov * ov)))


_ACTIVATIONS = {"sigmoid": ndgrad.sigmoid, "tanh": tanh, "relu": ndgrad.relu}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None
    return fn(x)


def sum_all(x: Tensor) -> Tensor:
    return ndgrad._op(x.values.sum(), (x, lambda grad: np.full_like(x.values, float(grad))))


def grad_check(f, params, eps: float = 1e-4) -> float:
    """Max relative error between backward() and central differences.

    `f` rebuilds the forward computation from the current parameter values
    and returns a scalar Tensor. Relative error per coordinate is
    |a - n| / max(1, |a|, |n|). Inputs near a relu kink (within eps of 0)
    are the caller's responsibility.
    """
    params = list(params)
    with ndgrad.gc_paused():
        for p in params:
            p.zero_grad()
        with ndgrad.Graph() as g:
            loss = f()
        ndgrad.backward(g, loss)
        analytic = [np.array(p.grad) for p in params]

        max_err = 0.0
        for p, a in zip(params, analytic):
            flat = p.values.reshape(-1)
            a_flat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = float(f().values)
                flat[i] = orig - eps
                lo = float(f().values)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                if not (np.isfinite(numeric) and np.isfinite(a_flat[i])):
                    raise NumericError("non-finite value encountered in gradient check")
                err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
                if err > max_err:
                    max_err = err
    return max_err


def slice_columns(a: Tensor, start: int, stop: int) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"slice_columns needs 2-D input, got shape {a.values.shape}")
    out = Tensor(a.values[:, start:stop])

    def backward_fn(grad):
        full = np.zeros_like(a.values)
        full[:, start:stop] = grad
        ndgrad.accumulate(a, full)

    ndgrad.record(out, (a,), backward_fn)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.values.reshape(shape))

    def backward_fn(grad):
        ndgrad.accumulate(a, grad.reshape(a.values.shape))

    ndgrad.record(out, (a,), backward_fn)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"transpose needs 2-D input, got shape {a.values.shape}")
    out = Tensor(a.values.T.copy())

    def backward_fn(grad):
        ndgrad.accumulate(a, grad.T)

    ndgrad.record(out, (a,), backward_fn)
    return out


def _step(x_t, h_prev, c_prev, wx_t, wh_t, bias, hidden):
    z = ndgrad.add(ndgrad.add(ndgrad.matmul(x_t, wx_t), ndgrad.matmul(h_prev, wh_t)), bias)
    gate_in = ndgrad.sigmoid(slice_columns(z, 0, hidden))
    gate_forget = ndgrad.sigmoid(slice_columns(z, hidden, 2 * hidden))
    candidate = tanh(slice_columns(z, 2 * hidden, 3 * hidden))
    gate_out = ndgrad.sigmoid(slice_columns(z, 3 * hidden, 4 * hidden))
    c_t = ndgrad.add(
        multiply(gate_forget, c_prev), multiply(gate_in, candidate)
    )
    h_t = multiply(gate_out, tanh(c_t))
    return h_t, c_t


def lstm_cell(x_t: Tensor, h_prev: Tensor, c_prev: Tensor, params: LstmParams):
    """One recurrence step built from tape ops; accepts single vectors or
    row batches. Gate blocks are (input, forget, candidate, output)."""
    hidden = params.wh.shape[1]
    single = x_t.values.ndim == 1
    if single:
        x_t = reshape(x_t, (1, -1))
        h_prev = reshape(h_prev, (1, -1))
        c_prev = reshape(c_prev, (1, -1))
    h_t, c_t = _step(
        x_t, h_prev, c_prev,
        transpose(params.wx), transpose(params.wh), params.bias, hidden,
    )
    if single:
        h_t = reshape(h_t, (-1,))
        c_t = reshape(c_t, (-1,))
    return h_t, c_t


def tape_encode(ids, params: ModelParams) -> Tensor:
    """Reference encoder: gather plus lstm_cell on the tape, step by step,
    over every position of both directions."""
    ids = np.atleast_2d(ids)
    batch, length = ids.shape
    hidden = params.forward_lstm.wh.shape[1]
    steps = [gather(params.embedding, ids[:, t]) for t in range(length)]
    finals = []
    for lstm, order in ((params.forward_lstm, steps), (params.backward_lstm, steps[::-1])):
        h = c = Tensor(np.zeros((batch, hidden)))
        for x_t in order:
            h, c = lstm_cell(x_t, h, c, lstm)
        finals.append(h)
    return ndgrad.concat(*finals)


def strided_cell(z, c_prev, c, tanh_c, h_out):
    """One kernel step on a row-major (rows, 4H) block, as `bilstm._cell`
    on a gate-major one, with the sigmoid affine on the strided first 3H
    columns."""
    h = c.shape[-1]
    np.tanh(z, out=z)
    sigmoids = z[..., : 3 * h]
    sigmoids *= 0.5
    sigmoids += 0.5
    np.multiply(z[..., h : 2 * h], c_prev, out=c)
    c += z[..., :h] * z[..., 3 * h :]
    np.tanh(c, out=tanh_c)
    np.multiply(z[..., 2 * h : 3 * h], tanh_c, out=h_out)


def strided_cell_backward(z, c_prev, tanh_c, dh, dc):
    """One kernel step's backprop on a row-major (rows, 4H) block, as
    `bilstm._cell_backward` on a gate-major one, with the activation
    derivative written block by block."""
    h = dc.shape[-1]
    i, f, o, g = z[..., :h], z[..., h : 2 * h], z[..., 2 * h : 3 * h], z[..., 3 * h :]
    through_tanh = tanh_c * tanh_c
    np.subtract(1.0, through_tanh, out=through_tanh)
    through_tanh *= o
    through_tanh *= dh
    dc += through_tanh
    upstream = np.empty_like(z)  # gradient of each gate value
    np.multiply(dc, g, out=upstream[..., :h])
    np.multiply(dc, c_prev, out=upstream[..., h : 2 * h])
    np.multiply(dh, tanh_c, out=upstream[..., 2 * h : 3 * h])
    np.multiply(dc, i, out=upstream[..., 3 * h :])
    dc *= f
    local = z * z  # s (1 - s) for the sigmoid gates, 1 - g^2 for the candidate
    np.subtract(z[..., : 3 * h], local[..., : 3 * h], out=local[..., : 3 * h])
    np.subtract(1.0, local[..., 3 * h :], out=local[..., 3 * h :])
    np.multiply(upstream, local, out=z)
