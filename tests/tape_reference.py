"""Tape-op reference for the fused BiLSTM kernel.

The LSTM recurrence built step by step from `ndgrad` ops, plus the three
shape ops it needs (`slice_columns`, `reshape`, `transpose`), defined
here on the public `ndgrad.record` and `ndgrad.accumulate`. The package
itself never calls them: `bilstm.bilstm_encode` is tested against
`tape_encode`.
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
