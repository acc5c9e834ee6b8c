"""Tape-op reference for the fused BiLSTM kernel.

The LSTM recurrence built step by step from `ndgrad` ops, plus the three
shape ops it needs (`slice_columns`, `reshape`, `transpose`), defined
here on the public `ndgrad.record` and `ndgrad.accumulate`. The package
itself never calls them: `bilstm.bilstm_encode` is tested against
`tape_encode`.

`strided_cell` and `strided_cell_backward` are the kernel's earlier step
functions, which ran the gate math block by block on strided column
views; the kernel's contiguous versions must give their exact bits.
"""

import numpy as np

from jobfraud import ndgrad
from jobfraud.bilstm import LstmParams, ModelParams
from jobfraud.errors import ShapeError
from jobfraud.ndgrad import Tensor


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
    candidate = ndgrad.tanh(slice_columns(z, 2 * hidden, 3 * hidden))
    gate_out = ndgrad.sigmoid(slice_columns(z, 3 * hidden, 4 * hidden))
    c_t = ndgrad.add(
        ndgrad.multiply(gate_forget, c_prev), ndgrad.multiply(gate_in, candidate)
    )
    h_t = ndgrad.multiply(gate_out, ndgrad.tanh(c_t))
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
    steps = [ndgrad.gather(params.embedding, ids[:, t]) for t in range(length)]
    finals = []
    for lstm, order in ((params.forward_lstm, steps), (params.backward_lstm, steps[::-1])):
        h = c = Tensor(np.zeros((batch, hidden)))
        for x_t in order:
            h, c = lstm_cell(x_t, h, c, lstm)
        finals.append(h)
    return ndgrad.concat(*finals)


def strided_cell(z, c_prev, c, tanh_c, h_out):
    """One kernel step, as `bilstm._cell` but with the sigmoid affine on
    the strided first 3H columns only."""
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
    """One kernel step's backprop, as `bilstm._cell_backward` but with the
    activation derivative written block by block."""
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
