"""Dual-input bidirectional LSTM classifier.

Token ids pass through a trainable embedding and two independent LSTM
passes (left-to-right and right-to-left); the two final hidden states are
concatenated, merged with the numeric feature vector, and fed through one
ReLU dense layer into a single sigmoid output. PAD positions are processed
like ordinary tokens; there is no masking and no dropout.

The encoder (`bilstm_encode`) is one fused autodiff op with a hand-written
backprop through time, in the manner of cuDNN's RNN kernels (Appleyard et
al. 2016): the input projection is a per-token table gathered outside the
recurrence, one take per step, and the weight gradients are a few large
GEMMs after the backward loop, where the PAD (id 0) rows' input-side terms
collapse to one column sum. Each step's gates are gate-major, a (4, rows,
H) block in which every gate is one contiguous slab, so the pointwise gate
math runs on whole slabs with scalar operands; the backward writes each
step's pre-activation gradients back over its block row-major, (rows, 4H),
the layout the GEMMs read. Training and scoring run the same step loop;
scoring keeps no per-step state. Rows are right-padded, so every row's
reverse pass begins with the same PAD trajectory from the zero state: it
runs once, shared. The forward pass reads a row's PADs after its text,
from that row's own state, so it runs every position.

A training batch records each step's gates, c and tanh(c), 6H values per
flat row, in a Workspace; h lives in one step slot, as in scoring. The
backward rebuilds each step's h input, o * tanh(c), over the c record,
whose values it no longer needs, and gathers the weight-gradient chunks
into the tanh(c) record once the loop is done with it. A fit passes one
Workspace to every batch and validation pass, so they reuse memory that
is already paged in, and drops it when it returns. Scoring, and each
validation pass, lays the weights out for the kernel once for all its
eval chunks: kernel_weights is the one function that builds every layout
the kernel reads (KernelWeights), from stacking and gate order to the
gate-major copies and the input table.

A trained model is one BiLstmClassifier record of its ModelConfig and its
weights; BiLstmClassifier.fit trains and builds it whole, and a bundle
load builds it from the stored tensors. Both derive the ModelConfig in
one way, ModelConfig.of_run, from the run config, the vocabulary's size
and the encoder's width, so a bundle stores no copy of it. weight_table
declares every trainable tensor's name and shape once, in the one order
of the initial draws, of named_tensors and of a bundle's tensor
directory; a load checks each stored tensor against it, shape and finite
values, before it wraps the stored arrays.
"""

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import ndgrad, trainer
from .base import check_labels
from .config import RunConfig
from .errors import DataError, ModelStoreError, NumericError, ShapeError
from .ndgrad import Tensor
from .rng import SplitMix64


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embedding_dim: int = 32
    hidden_units: int = 64
    dense_units: int = 64
    sequence_length: int = 256
    numeric_width: int = 4
    seed: int = 42

    @classmethod
    def of_run(cls, cfg: RunConfig, vocab_size: int, numeric_width: int) -> "ModelConfig":
        """The shape a run config gives a model of vocab_size tokens and
        numeric_width numeric features: fit's, and a bundle load's."""
        return cls(vocab_size, **vars(cfg.bilstm), sequence_length=cfg.features.sequence_length,
                   numeric_width=numeric_width, seed=cfg.seed)


@dataclass
class LstmParams:
    """One direction's weights; gate blocks along the first axis are
    (input, forget, candidate, output), each `hidden` rows."""

    wx: Tensor  # (4H, E)
    wh: Tensor  # (4H, H)
    bias: Tensor  # (4H,)


@dataclass
class ModelParams:
    embedding: Tensor  # (V, E)
    forward_lstm: LstmParams
    backward_lstm: LstmParams
    dense_w: Tensor  # (2H + D, U)
    dense_b: Tensor  # (U,)
    out_w: Tensor  # (U, 1)
    out_b: Tensor  # (1,)

    def named_tensors(self) -> list:
        """(name, tensor) in weight_table order."""
        return [(name, operator.attrgetter(name)(self)) for name in _NAMES]

    def tensors(self) -> list:
        return [t for _, t in self.named_tensors()]


# the trainable tensors in canonical order; weight_table pairs each with its shape
_NAMES = ("embedding", *(f"{way}.{name}" for way in ("forward_lstm", "backward_lstm")
                         for name in ("wx", "wh", "bias")),
          "dense_w", "dense_b", "out_w", "out_b")


def weight_table(cfg: ModelConfig) -> list:
    """(name, shape) of every trainable tensor, in the one canonical order:
    that of named_tensors, of a bundle's tensor directory and of the
    initial draws."""
    v, e, h = cfg.vocab_size, cfg.embedding_dim, cfg.hidden_units
    u, d = cfg.dense_units, cfg.numeric_width
    lstm = [(4 * h, e), (4 * h, h), (4 * h,)]
    return list(zip(_NAMES, [(v, e), *lstm, *lstm, (2 * h + d, u), (u,), (u, 1), (1,)]))


def _params(arrays: dict) -> ModelParams:
    """ModelParams whose trainable tensors wrap the arrays, by table name."""
    t = {name: ndgrad.param(values) for name, values in arrays.items()}
    forward, backward = (LstmParams(t[f"{way}.wx"], t[f"{way}.wh"], t[f"{way}.bias"])
                         for way in ("forward_lstm", "backward_lstm"))
    return ModelParams(t["embedding"], forward, backward,
                       t["dense_w"], t["dense_b"], t["out_w"], t["out_b"])


def init_params(cfg: ModelConfig) -> ModelParams:
    """Initial weights from one seeded stream, walking weight_table: the
    embedding is drawn U(+-0.05) and every other matrix Glorot-uniform,
    row-major, in table order, so a seed pins every initial weight; 1-D
    tensors are zero except the LSTM biases' +1 forget-gate block."""
    rng = SplitMix64(cfg.seed)
    h = cfg.hidden_units
    arrays = {}
    for name, shape in weight_table(cfg):
        if len(shape) == 2:
            bound = 0.05 if name == "embedding" else np.sqrt(6.0 / sum(shape))
            values = rng.uniform_array(-bound, bound, shape[0] * shape[1]).reshape(shape)
        else:
            values = np.zeros(shape)
            if name.endswith(".bias"):
                values[h : 2 * h] = 1.0  # forget gate starts open
        arrays[name] = values
    return _params(arrays)


def params_from_arrays(cfg: ModelConfig, lookup) -> ModelParams:
    """ModelParams around stored arrays: `lookup` maps each weight_table
    name to an ndarray, which must have its table shape and finite values.
    Every array is checked before any tensor is built."""
    arrays = {}
    for name, shape in weight_table(cfg):
        values = np.asarray(lookup(name), dtype=np.float64)
        if values.shape != shape:
            raise ShapeError(f"tensor {name!r} has shape {values.shape}, expected {shape}")
        if not np.isfinite(values).all():
            raise ModelStoreError(f"tensor {name!r} holds a value that is not finite")
        arrays[name] = values
    return _params(arrays)


# --------------------------------------------------------------------------
# Forward computation
# --------------------------------------------------------------------------

# flat rows per weight-gradient chunk: bounds the buffers that rows are
# gathered into from the strided direction blocks (2048 rows of 4H = 256
# gate values is 4 MB)
_GRADIENT_CHUNK = 2048


class KernelWeights(NamedTuple):
    """One ModelParams' weights in the layouts the kernel reads.

    wx (2, 4H, E) and wh (2, 4H, H) are both directions' weights in kernel
    gate order and `order` that row order, for the backward; wh_g (2, 4,
    H, H) are the gate-major recurrent weights and table (4, 2V, H) each
    token's input term per gate, row V + v being v's reverse term.
    """

    wx: np.ndarray
    wh: np.ndarray
    order: np.ndarray
    wh_g: np.ndarray
    table: np.ndarray


def kernel_weights(params: ModelParams) -> KernelWeights:
    """params' current weights in the kernel's layouts, as new arrays that
    do not follow later changes to params: scoring builds them once and
    passes them to every chunk, while each training batch builds its own,
    since every Adam step changes params.

    Both directions' weights are stacked on a leading axis with the gate
    blocks in the kernel's order (i, f, o, g). The stored order is (i, f,
    g, o); swapping the last two blocks is its own inverse, so indexing
    kernel-order gradients by the same order maps them back. The
    gate-major copies halve the sigmoid gates, so one tanh covers every
    gate: sigma(x) = 0.5 + 0.5 tanh(x / 2). Scaling by a power of two is
    exact. h @ wh_g[d] is direction d's (4, rows, H) gate block. An input
    table that is not finite (finite weights too large to score) raises
    NumericError.
    """
    h = params.forward_lstm.wh.shape[1]
    order = np.r_[0 : 2 * h, 3 * h : 4 * h, 2 * h : 3 * h]
    lstms = (params.forward_lstm, params.backward_lstm)
    wx, wh, bias = (
        np.stack([getattr(lstm, name).values[order] for lstm in lstms])
        for name in ("wx", "wh", "bias")
    )
    embedding = params.embedding.values
    vocab, e = embedding.shape
    scale = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]
    wx_g = np.ascontiguousarray((wx.reshape(2, 4, h, e) * scale).transpose(1, 0, 3, 2))
    wh_g = np.ascontiguousarray((wh.reshape(2, 4, h, h) * scale).transpose(0, 1, 3, 2))
    table = np.matmul(embedding, wx_g)
    table += (bias.reshape(2, 4, 1, h) * scale).transpose(1, 0, 2, 3)
    if not np.isfinite(table).all():
        raise NumericError("the BiLSTM input table (embedding @ Wx + b) is not finite")
    return KernelWeights(wx, wh, order, wh_g, table.reshape(4, 2 * vocab, h))


def _plan(ids, vocab: int):
    """Row order and flat step layout of the length-aware kernel.

    A row's text length is the index of its last non-PAD id plus one.
    Sorted stably by descending length, the rows whose text has begun at
    reverse step t are a prefix of size real[t]. Step t owns flat rows
    offsets[t]:offsets[t + 1], laid out [forward B | shared PAD | reverse
    real[t]]; index holds each flat row's input-table row, and fwd_rows
    and rev_rows each direction's flat rows (rev_rows with the shared row).
    """
    batch, length = ids.shape
    text = ids != 0
    lengths = np.where(text.any(axis=1), length - text[:, ::-1].argmax(axis=1), 0)
    order = np.argsort(-lengths, kind="stable")
    real = np.cumsum(np.bincount(lengths, minlength=length + 1)[::-1])[:length]
    offsets = np.zeros(length + 1, dtype=np.int64)
    np.cumsum(batch + 1 + real, out=offsets[1:])
    fwd_rows = (offsets[:-1, None] + np.arange(batch)).reshape(-1)
    # reverse column 0 is the shared PAD row, column k the k-th sorted row
    steps, cols = np.nonzero(np.arange(batch + 1) <= real[:, None])
    rev_rows = offsets[steps] + batch + cols
    padded = np.vstack([np.zeros(length, dtype=np.int64), ids[order]])
    index = np.empty(offsets[-1], dtype=np.int64)
    index[fwd_rows] = padded[1:].T.reshape(-1)
    index[rev_rows] = vocab + padded[cols, length - 1 - steps]
    return order, real, offsets, index, fwd_rows, rev_rows


def _allocate(shape) -> np.ndarray:
    """An uninitialized float64 buffer. Every buffer of the kernel comes
    from here, and the kernel writes each value before it reads it."""
    return np.empty(shape)


class Workspace:
    """The kernel's buffers, reused across calls: a record and a step slot.

    The record holds a training call's gates and c and tanh(c) states, 6H
    values per recorded row; the step slot holds one step's gates and
    states, which a forward-only call runs in, and the h of a recorded
    call. A fit passes one Workspace to every batch and validation pass, so
    each writes into memory earlier calls already paged in. Each part grows
    only when a call needs more of it, so a validation pass with wider
    steps keeps the training record; the old buffers are dropped before
    the larger ones are allocated. Contents between calls are unspecified.
    """

    def __init__(self):
        self._parts = {}

    def _part(self, name: str, *shapes):
        """Part `name`'s buffers, kept while each has at least its shape's
        leading size and the rest of its shape, else replaced at `shapes`."""
        held = self._parts.pop(name, None)
        if held is None or any(buffer.shape[0] < shape[0] or buffer.shape[1:] != shape[1:]
                               for buffer, shape in zip(held, shapes)):
            held = None  # never two copies of a part alive at once
            held = tuple(map(_allocate, shapes))
        self._parts[name] = held
        return held

    def record(self, gate_rows: int, state_rows: int, hidden: int):
        """(gates, cs, tanh_cs): a flat buffer of at least
        4 * gate_rows * hidden gate values and two state buffers of at
        least `state_rows` rows of `hidden` values."""
        state = (state_rows, hidden)
        return self._part("record", (4 * gate_rows * hidden,), state, state)

    def step(self, rows: int, hidden: int):
        """(gates, cs, tanh_cs, hs): one step slot, 4 * rows * hidden gate
        values and three state buffers of at least `rows` rows of
        `hidden` values."""
        state = (rows, hidden)
        return self._part("step", (4 * rows * hidden,), state, state, state)


def _cell(z, c_prev, c, tanh_c, h_out):
    """One step of both directions, written into c, tanh_c and h_out.

    On entry z (4, rows, H) holds the halved pre-activations, gate-major
    in kernel order; on exit it holds the gate values.
    """
    np.tanh(z, out=z)
    sigmoids = z[:3]
    sigmoids *= 0.5
    sigmoids += 0.5
    i, f, o, g = z
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.tanh(c, out=tanh_c)
    np.multiply(o, tanh_c, out=h_out)


def _cell_backward(z, c_prev, tanh_c, dh, dc, upstream, local):
    """Backprop one step of both directions.

    On entry z (4, rows, H) holds the step's gate values, gate-major, and
    dh and dc the gradients of its h and c; upstream and local are scratch
    of z's shape. Returns the gradients of the (unhalved) pre-activations,
    row-major (rows, 4H), written over z's memory; dc then holds the
    gradient of c_prev.
    """
    i, f, o, g = z
    through_tanh = tanh_c * tanh_c
    np.subtract(1.0, through_tanh, out=through_tanh)
    through_tanh *= o
    through_tanh *= dh
    dc += through_tanh
    # gradient of each gate value
    np.multiply(dc, g, out=upstream[0])
    np.multiply(dc, c_prev, out=upstream[1])
    np.multiply(dh, tanh_c, out=upstream[2])
    np.multiply(dc, i, out=upstream[3])
    dc *= f
    np.multiply(z, z, out=local)
    np.subtract(z[:3], local[:3], out=local[:3])  # s (1 - s) for the sigmoid gates
    np.subtract(1.0, local[3], out=local[3])  # 1 - g^2 for the candidate
    rows, hidden = dc.shape
    dz = z.reshape(rows, 4 * hidden)
    np.multiply(upstream, local, out=dz.reshape(rows, 4, hidden).transpose(1, 0, 2))
    return dz


def _encode(ids, params: ModelParams, keep_states: bool, workspace: Workspace,
            kernel: KernelWeights):
    """The encoding (B, 2H) and, when keep_states, the backward_fn that
    backprops through time from its gradient; otherwise the steps share
    one slot of the buffers and no per-step state is kept. h always lives
    in one step slot: the backward rebuilds the h it needs."""
    batch, length = ids.shape
    wx, wh, gate_order, wh_g, table = kernel
    embedding = params.embedding.values
    vocab, hidden = embedding.shape[0], wh.shape[2]
    order, real, offsets, index, fwd_rows, rev_rows = _plan(ids, vocab)
    real, offsets = real.tolist(), offsets.tolist()  # the step loops read Python ints
    # step t reads its c at slots[t] and writes it at slots[t + 1]; its gates
    # are the (4, size, H) block at row 4 * slots[t] of the flat gates, and
    # tanh(c) the rows at slots[t]
    widest = offsets[-1] - offsets[-2]  # steps only grow
    gates, cs, tanh_cs, hs = workspace.step(widest, hidden)
    slots = offsets if keep_states else [0] * len(offsets)
    if keep_states:
        # the weight-gradient chunks are gathered into tanh(c) once the
        # backward loop is done with it
        gates, cs, tanh_cs = workspace.record(
            offsets[-1], max(offsets[-1] + widest, 5 * _GRADIENT_CHUNK), hidden)
    hs[: offsets[1]] = 0.0
    cs[: offsets[1]] = 0.0
    # one step's recurrent products; the backward's gate-value gradients
    # and activation derivatives
    scratch = _allocate((2 if keep_states else 1, 4 * widest * hidden))
    gate_rows = 4 * hidden  # floats in one flat row of the gates

    for t in range(length):
        here, there, size = slots[t], slots[t + 1], offsets[t + 1] - offsets[t]
        z = gates[gate_rows * here : gate_rows * (here + size)].reshape(4, size, hidden)
        table.take(index[offsets[t] : offsets[t + 1]], axis=1, out=z, mode="clip")
        recurrent = scratch[0][: gate_rows * size].reshape(4, size, hidden)
        np.matmul(hs[:batch], wh_g[0], out=recurrent[:, :batch])
        np.matmul(hs[batch:size], wh_g[1], out=recurrent[:, batch:])
        z += recurrent
        _cell(z, cs[here : here + size], cs[there : there + size],
              tanh_cs[here : here + size], hs[:size])
        if t + 1 < length and real[t + 1] > real[t]:  # these rows' text begins at t + 1
            grown = batch + 1 + real[t + 1]
            hs[size:grown] = hs[batch]
            cs[there + size : there + grown] = cs[there + batch]
    final_cols = np.full(batch, batch)  # rows with no text end on the shared row
    final_cols[: real[-1]] += 1 + np.arange(real[-1])
    encoded = np.empty((batch, 2 * hidden))
    encoded[order] = np.hstack([hs[:batch], hs[final_cols]])
    if not keep_states:
        return encoded, None

    def backward_fn(grad):
        grad = grad[order]
        dh = np.zeros((2 * batch + 1, hidden))
        dc = np.zeros_like(dh)
        dh[:batch] = grad[:, :hidden]
        np.add.at(dh, final_cols, grad[:, hidden:])
        for t in reversed(range(length)):
            start, stop = offsets[t], offsets[t + 1]
            size = stop - start
            z = gates[gate_rows * start : gate_rows * stop].reshape(4, size, hidden)
            if t + 1 < length:
                # step t + 1's h input, o * tanh(c) as the forward made it, goes
                # over c_t, which step t + 1 has read as c_prev and step t never reads
                h_next = cs[stop : offsets[t + 2]]
                np.multiply(z[2], tanh_cs[start:stop], out=h_next[:size])
                h_next[size:] = h_next[batch]  # rows entering at t + 1
            dz = _cell_backward(z, cs[start:stop], tanh_cs[start:stop],
                                dh[:size], dc[:size],
                                scratch[0][: gate_rows * size].reshape(4, size, hidden),
                                scratch[1][: gate_rows * size].reshape(4, size, hidden))
            np.matmul(dz[:batch], wh[0], out=dh[:batch])
            np.matmul(dz[batch:], wh[1], out=dh[batch:size])
            if t and real[t] > real[t - 1]:  # rows entering at t began from the shared state
                entered = batch + 1 + real[t - 1]
                dh[batch] += dh[entered:size].sum(axis=0)
                dc[batch] += dc[entered:size].sum(axis=0)
        # the gates now hold, row-major, the pre-activation gradients of every
        # flat row, and the c record every flat row's h input. Every row that
        # reads id 0 (PAD, or a mid-text 0) has input embedding[0], so their
        # input-side gradients need only the sum of their dz.
        pre_grads = gates[: 4 * hidden * offsets[-1]].reshape(-1, 4 * hidden)
        tokens = index % vocab
        d_wx, d_wh, d_bias = np.zeros_like(wx), np.zeros_like(wh), np.zeros((2, 4 * hidden))
        d_embedding = np.zeros_like(embedding)
        spare = tanh_cs.reshape(-1)
        dz_rows = spare[: 4 * hidden * _GRADIENT_CHUNK].reshape(_GRADIENT_CHUNK, 4 * hidden)
        h_rows = spare[4 * hidden * _GRADIENT_CHUNK : 5 * hidden * _GRADIENT_CHUNK]
        h_rows = h_rows.reshape(_GRADIENT_CHUNK, hidden)

        def chunks(flat):
            """(flat rows, their dz, their h inputs) per chunk of at most
            _GRADIENT_CHUNK rows, gathered into the same two buffers."""
            for lo in range(0, flat.size, _GRADIENT_CHUNK):
                part = flat[lo : lo + _GRADIENT_CHUNK]
                dz = np.take(pre_grads, part, axis=0, out=dz_rows[: part.size], mode="clip")
                yield part, dz, np.take(cs, part, axis=0, out=h_rows[: part.size], mode="clip")

        for d, flat in enumerate((fwd_rows, rev_rows)):
            pad = tokens[flat] == 0
            pad_sum = np.zeros(4 * hidden)
            for _, dz, h_in in chunks(flat[pad]):
                d_wh[d] += dz.T @ h_in
                pad_sum += dz.sum(axis=0)
            for part, dz, h_in in chunks(flat[~pad]):
                d_wh[d] += dz.T @ h_in
                d_wx[d] += dz.T @ embedding[tokens[part]]
                d_bias[d] += dz.sum(axis=0)
                np.add.at(d_embedding, tokens[part], dz @ wx[d])
            d_wx[d] += np.outer(pad_sum, embedding[0])
            d_bias[d] += pad_sum
            d_embedding[0] += pad_sum @ wx[d]
        ndgrad.accumulate(params.embedding, d_embedding)
        for d, lstm in enumerate((params.forward_lstm, params.backward_lstm)):
            ndgrad.accumulate(lstm.wx, d_wx[d][gate_order])
            ndgrad.accumulate(lstm.wh, d_wh[d][gate_order])
            ndgrad.accumulate(lstm.bias, d_bias[d][gate_order])

    return encoded, backward_fn


def bilstm_encode(ids, params: ModelParams, workspace: Workspace = None,
                  kernel: KernelWeights = None) -> Tensor:
    """Concatenated final hidden states of both directions, (batch, 2H).

    One fused op over both directions and every time step, recorded as a
    single tape node. Input terms are gathered from a per-gate,
    per-direction table of embedding @ Wx^T + b, and one _cell call per
    step covers both directions. While a Graph records the op, every
    step's gates, c and tanh(c) are kept for a hand-written backprop
    through time, which rebuilds h from them. They live in `workspace`'s
    buffers, or in fresh ones when it is None; the tape node reads them
    until its backward has run. `kernel` holds params' weights in the
    kernel's layouts (kernel_weights), built here when it is None.

    The reverse pass reads a right-padded row's PAD run first, from the
    zero state, so that stretch is the same for every row: it runs once,
    as one shared PAD row, and each row joins from that row's state where
    its text begins (rows are sorted by text length inside the op). The
    backward sums the joining rows' gradients into the shared row, exact
    because their local Jacobians are equal. The forward pass reads the
    PADs last, each from its row's own state, so it shares nothing.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ShapeError(f"ids must be 2-D, got shape {ids.shape}")
    vocab = params.embedding.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"token id out of range for an embedding with {vocab} rows")
    inputs = [params.embedding]
    for lstm in (params.forward_lstm, params.backward_lstm):
        inputs += [lstm.wx, lstm.wh, lstm.bias]
    recording = ndgrad.recording(inputs)
    if workspace is None:
        workspace = Workspace()
    if kernel is None:
        kernel = kernel_weights(params)
    encoded, backward_fn = _encode(ids, params, recording, workspace, kernel)
    out = Tensor(encoded)
    ndgrad.record(out, inputs, backward_fn)
    return out


def model_forward(ids, numeric, params: ModelParams, workspace: Workspace = None,
                  kernel: KernelWeights = None) -> Tensor:
    """Per-example fraud probability, shape (batch, 1), each value in (0, 1).
    The encoder runs in `workspace`'s buffers, or in fresh ones, on
    `kernel`, or on weights laid out from params. A pre-sigmoid logit that
    is not finite raises NumericError."""
    encoded = bilstm_encode(ids, params, workspace, kernel)
    merged = ndgrad.concat(encoded, Tensor(numeric))
    hidden = ndgrad.relu(ndgrad.add(ndgrad.matmul(merged, params.dense_w), params.dense_b))
    logit = ndgrad.add(ndgrad.matmul(hidden, params.out_w), params.out_b)
    if not np.isfinite(logit.values).all():
        raise NumericError("a BiLSTM pre-sigmoid logit is not finite")
    return ndgrad.sigmoid(logit)


def predict_scores(ids, numeric, params: ModelParams, workspace: Workspace = None) -> np.ndarray:
    """Fraud probabilities without recording gradients, in eval chunks
    that share one KernelWeights and `workspace`, or a fresh Workspace.
    Float errors stay quiet: one that can change a score ends in an input
    table or a logit that is not finite, which raises NumericError."""
    if workspace is None:
        workspace = Workspace()
    with np.errstate(all="ignore"):
        kernel = kernel_weights(params)
        return trainer._evaluate(
            lambda b_ids, b_num: model_forward(b_ids, b_num, params, workspace, kernel),
            np.asarray(ids, dtype=np.int64),
            np.asarray(numeric, dtype=np.float64),
        )


# --------------------------------------------------------------------------
# The trained model
# --------------------------------------------------------------------------

def _inputs(X, length: int):
    """The (ids, numeric) pair as arrays, after checking their shapes."""
    ids, numeric = map(np.asarray, X)
    if ids.ndim != 2 or numeric.ndim != 2 or ids.shape != (numeric.shape[0], length):
        raise ShapeError(
            f"X must be ids (rows, {length}) and numeric (rows, width), "
            f"got shapes {ids.shape} and {numeric.shape}"
        )
    if ids.shape[0] == 0:
        raise DataError("X has no rows")
    return ids, numeric


@dataclass(eq=False)
class BiLstmClassifier:
    """A trained BiLSTM: its ModelConfig, its weights and, when it was
    trained in this process, the training history.

    ``X`` is the pair ``(ids, numeric)``: an int64 matrix of
    ``sequence_length`` token ids per row and a float64 matrix of the
    numeric feature block, row for row. ``decision_scores`` gives the fraud
    probability of each row.
    """

    config: ModelConfig
    params: ModelParams
    history: trainer.History | None = None

    @classmethod
    def fit(cls, cfg: RunConfig, vocab_size: int, X, y, validation_data) -> "BiLstmClassifier":
        """Train a model on X, y, of shape ``ModelConfig.of_run``, where
        ``vocab_size`` is the fitted vocabulary's size. Training
        (``trainer.train``, reading ``cfg.train``) minimizes binary
        cross-entropy with Adam and early-stops on ``validation_data``'s
        loss, restoring the best epoch's weights; the validation accuracy
        labels a score at or above ``cfg.threshold`` as 1."""
        length = cfg.features.sequence_length
        ids, numeric = _inputs(X, length)
        y = check_labels(y, ids.shape[0])
        X_val, y_val = validation_data
        ids_val, numeric_val = _inputs(X_val, length)
        y_val = check_labels(y_val, ids_val.shape[0])

        config = ModelConfig.of_run(cfg, vocab_size, numeric.shape[1])
        params = init_params(config)
        workspace = Workspace()  # every batch's and validation pass's; dropped on return
        history = trainer.train(
            params.named_tensors(),
            lambda b_ids, b_num: model_forward(b_ids, b_num, params, workspace),
            lambda v_ids, v_num: predict_scores(v_ids, v_num, params, workspace),
            (ids, numeric, y),
            (ids_val, numeric_val, y_val),
            cfg,
        )
        return cls(config, params, history)

    def decision_scores(self, X) -> np.ndarray:
        return predict_scores(*_inputs(X, self.config.sequence_length), self.params)
