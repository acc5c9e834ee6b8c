"""Dual-input bidirectional LSTM classifier.

Token ids pass through a trainable embedding and two independent LSTM
passes (left-to-right and right-to-left); the two final hidden states are
concatenated, merged with the numeric feature vector, and fed through one
ReLU dense layer into a single sigmoid output. PAD positions are processed
like ordinary tokens; there is no masking and no dropout.

The encoder (`bilstm_encode`) is one fused autodiff op with a hand-written
backprop through time, in the manner of cuDNN's RNN kernels (Appleyard et
al. 2016): the input projection is a per-token table gathered outside the
recurrence (in one take per training batch), and the weight gradients are
a few large GEMMs after the backward loop, where the PAD (id 0) rows'
input-side terms collapse to one column sum. Each step's gates are
gate-major, a (4, rows, H) block in which every gate is one contiguous
slab, so the pointwise gate math runs on whole slabs with scalar
operands; the backward writes each step's pre-activation gradients back
over its block row-major, (rows, 4H), the layout the GEMMs read. Rows are
right-padded, so every row's reverse pass begins with the same PAD
trajectory from the zero state: it runs once, shared. The forward pass
reads a row's PADs after its text, from that row's own state, so it runs
every position.

The recorded gates and states of a training batch fill a Workspace: a fit
passes one to every batch, so the batches reuse memory that is already
paged in, and drops it when it returns.

A trained model is one BiLstmClassifier record of its ModelConfig and its
weights; BiLstmClassifier.fit trains and builds it whole, and a bundle
load builds it from the stored config and tensors.
"""

from dataclasses import dataclass

import numpy as np

from . import ndgrad, trainer
from .base import check_labels
from .config import RunConfig
from .errors import DataError, ShapeError
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

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if name != "seed" and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")


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
        """Canonical (name, tensor) order; also the serialization order."""
        return [
            ("embedding", self.embedding),
            ("forward_lstm.wx", self.forward_lstm.wx),
            ("forward_lstm.wh", self.forward_lstm.wh),
            ("forward_lstm.bias", self.forward_lstm.bias),
            ("backward_lstm.wx", self.backward_lstm.wx),
            ("backward_lstm.wh", self.backward_lstm.wh),
            ("backward_lstm.bias", self.backward_lstm.bias),
            ("dense_w", self.dense_w),
            ("dense_b", self.dense_b),
            ("out_w", self.out_w),
            ("out_b", self.out_b),
        ]

    def tensors(self) -> list:
        return [t for _, t in self.named_tensors()]


def parameter_count(cfg: ModelConfig) -> int:
    v, e, h = cfg.vocab_size, cfg.embedding_dim, cfg.hidden_units
    u, d = cfg.dense_units, cfg.numeric_width
    return v * e + 2 * (4 * h * e + 4 * h * h + 4 * h) + (2 * h + d) * u + u + u + 1


def _draw_uniform(rng: SplitMix64, shape, bound: float) -> np.ndarray:
    return rng.uniform_array(-bound, bound, int(np.prod(shape))).reshape(shape)


def _glorot(rng: SplitMix64, rows: int, cols: int) -> Tensor:
    bound = np.sqrt(6.0 / (rows + cols))
    return ndgrad.param(_draw_uniform(rng, (rows, cols), bound))


def _lstm_bias(hidden: int) -> Tensor:
    bias = np.zeros(4 * hidden)
    bias[hidden : 2 * hidden] = 1.0  # forget gate starts open
    return ndgrad.param(bias)


def init_params(cfg: ModelConfig) -> ModelParams:
    """Glorot-uniform weights from one seeded stream, zero biases except a
    +1 forget-gate block.

    Matrices are drawn row-major in a fixed order (embedding, forward wx,
    forward wh, backward wx, backward wh, dense, output) so a seed pins
    every initial weight.
    """
    rng = SplitMix64(cfg.seed)
    e, h = cfg.embedding_dim, cfg.hidden_units
    embedding = ndgrad.param(_draw_uniform(rng, (cfg.vocab_size, e), 0.05))
    directions = []
    for _ in range(2):
        wx = _glorot(rng, 4 * h, e)
        wh = _glorot(rng, 4 * h, h)
        directions.append(LstmParams(wx=wx, wh=wh, bias=_lstm_bias(h)))
    dense_w = _glorot(rng, 2 * h + cfg.numeric_width, cfg.dense_units)
    dense_b = ndgrad.param(np.zeros(cfg.dense_units))
    out_w = _glorot(rng, cfg.dense_units, 1)
    out_b = ndgrad.param(np.zeros(1))
    return ModelParams(
        embedding=embedding,
        forward_lstm=directions[0],
        backward_lstm=directions[1],
        dense_w=dense_w,
        dense_b=dense_b,
        out_w=out_w,
        out_b=out_b,
    )


def empty_params(cfg: ModelConfig) -> ModelParams:
    """Zero-valued trainable tensors with the model's shapes."""
    e, h = cfg.embedding_dim, cfg.hidden_units
    u, d = cfg.dense_units, cfg.numeric_width

    def zeros(*shape):
        return ndgrad.param(np.zeros(shape))

    return ModelParams(
        embedding=zeros(cfg.vocab_size, e),
        forward_lstm=LstmParams(wx=zeros(4 * h, e), wh=zeros(4 * h, h), bias=zeros(4 * h)),
        backward_lstm=LstmParams(wx=zeros(4 * h, e), wh=zeros(4 * h, h), bias=zeros(4 * h)),
        dense_w=zeros(2 * h + d, u),
        dense_b=zeros(u),
        out_w=zeros(u, 1),
        out_b=zeros(1),
    )


def params_from_arrays(cfg: ModelConfig, lookup) -> ModelParams:
    """Rebuild ModelParams from stored arrays, validating every shape.

    `lookup` maps the canonical tensor names to ndarrays.
    """
    params = empty_params(cfg)
    for name, tensor in params.named_tensors():
        stored = np.asarray(lookup(name), dtype=np.float64)
        if stored.shape != tensor.values.shape:
            raise ShapeError(
                f"tensor {name!r} has shape {stored.shape}, expected {tensor.values.shape}"
            )
        tensor.values[...] = stored
    return params


# --------------------------------------------------------------------------
# Forward computation
# --------------------------------------------------------------------------

# flat rows per weight-gradient chunk: bounds the buffers that rows are
# gathered into from the strided direction blocks (2048 rows of 4H = 256
# gate values is 4 MB)
_GRADIENT_CHUNK = 2048


def _kernel_weights(params: ModelParams):
    """Both directions' (wx, wh, bias) stacked on a leading axis, with the
    gate blocks in the kernel's order (i, f, o, g), and that row order.

    The stored order is (i, f, g, o). Swapping the last two blocks is its
    own inverse, so indexing kernel-order gradients by the same order maps
    them back to the stored layout.
    """
    h = params.forward_lstm.wh.shape[1]
    order = np.r_[0 : 2 * h, 3 * h : 4 * h, 2 * h : 3 * h]
    lstms = (params.forward_lstm, params.backward_lstm)
    wx, wh, bias = (
        np.stack([getattr(lstm, name).values[order] for lstm in lstms])
        for name in ("wx", "wh", "bias")
    )
    return wx, wh, bias, order


def _gate_major(wx, wh, bias):
    """The kernel-order weights split by gate and transposed, with the
    sigmoid gates halved so one tanh covers every gate: sigma(x) = 0.5 +
    0.5 tanh(x / 2). Scaling by a power of two is exact.

    Returns wx (4, 2, E, H), wh (2, 4, H, H) and bias (4, 2, 1, H):
    h @ wh[d] is direction d's (4, rows, H) gate block.
    """
    h, e = wh.shape[2], wx.shape[2]
    scale = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]
    wx_g = np.ascontiguousarray((wx.reshape(2, 4, h, e) * scale).transpose(1, 0, 3, 2))
    wh_g = np.ascontiguousarray((wh.reshape(2, 4, h, h) * scale).transpose(0, 1, 3, 2))
    bias_g = (bias.reshape(2, 4, 1, h) * scale).transpose(1, 0, 2, 3)
    return wx_g, wh_g, bias_g


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


def _gate_rows(offsets, index, vocab: int):
    """The input-table row of each row of the recorded gates' (4N, H)
    view, for one take in that order from the (4 * 2V, H) table.

    Step t's gates are the (4, size_t, H) block that starts at row
    4 * offsets[t], so gate k of flat row f in step t is row
    3 * offsets[t] + f + k * size_t.
    """
    sizes = np.diff(offsets)
    gate = np.arange(4)[:, None]
    dest = 3 * np.repeat(offsets[:-1], sizes) + np.arange(offsets[-1]) \
        + gate * np.repeat(sizes, sizes)
    rows = np.empty(4 * offsets[-1], dtype=np.int64)
    rows[dest] = gate * (2 * vocab) + index
    return rows


def _allocate(shape) -> np.ndarray:
    """An uninitialized float64 buffer. Every buffer of the kernel comes
    from here, and the kernel writes each value before it reads it."""
    return np.empty(shape)


class Workspace:
    """The gate and state buffers of the kernel, reused across calls.

    A fit passes one Workspace to every forward, so each batch writes into
    memory the earlier batches already paged in. The buffers grow only
    when a call needs more rows; the old ones are dropped before the
    larger ones are allocated. Their contents between calls are
    unspecified.
    """

    def __init__(self):
        self._buffers = None

    def states(self, rows: int, hidden: int):
        """(gates, hs, cs, tanh_cs): a flat buffer of at least
        4 * rows * hidden gate values and three state buffers of at least
        `rows` rows of `hidden` values."""
        held = self._buffers
        if held is None or held[1].shape[0] < rows or held[1].shape[1] != hidden:
            held = self._buffers = None  # never two sets alive at once
            held = self._buffers = (
                _allocate(4 * rows * hidden),
                *(_allocate((rows, hidden)) for _ in range(3)),
            )
        return held


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


def _encode(ids, params: ModelParams, keep_states: bool, workspace: Workspace):
    """The encoding (B, 2H) and, when keep_states, the backward_fn that
    backprops through time from its gradient; otherwise the steps share
    one slot of the buffers and no per-step state is kept."""
    batch, length = ids.shape
    wx, wh, bias, gate_order = _kernel_weights(params)
    wx_g, wh_g, bias_g = _gate_major(wx, wh, bias)
    embedding = params.embedding.values
    vocab, hidden = embedding.shape[0], wh.shape[2]
    # each token's input term per gate, (4, 2V, H): row V + v is v's reverse term
    table = np.matmul(embedding, wx_g)
    table += bias_g
    table = table.reshape(4, 2 * vocab, hidden)
    order, real, offsets, index, fwd_rows, rev_rows = _plan(ids, vocab)
    # step t reads its states at slots[t] and writes them at slots[t + 1];
    # its gates are the (4, size, H) block at row 4 * slots[t] of the flat gates
    slots = offsets if keep_states else np.zeros_like(offsets)
    widest = offsets[-1] - offsets[-2]  # steps only grow
    gates, hs, cs, tanh_cs = workspace.states(slots[-1] + widest, hidden)
    hs[: offsets[1]] = 0.0
    cs[: offsets[1]] = 0.0
    # one step's recurrent products; the backward's gate-value gradients
    # and activation derivatives
    scratch = _allocate((2 if keep_states else 1, 4 * widest * hidden))

    def block(flat, start, size):
        """The (4, size, H) gate-major block at row 4 * start of flat."""
        return flat[4 * hidden * start : 4 * hidden * (start + size)].reshape(4, size, hidden)

    if keep_states:  # every step's input terms in one gather
        np.take(table.reshape(-1, hidden), _gate_rows(offsets, index, vocab), axis=0,
                out=gates[: 4 * hidden * offsets[-1]].reshape(-1, hidden), mode="clip")
    for t in range(length):
        here, there, size = slots[t], slots[t + 1], offsets[t + 1] - offsets[t]
        z = block(gates, here, size)
        if not keep_states:
            np.take(table, index[offsets[t] : offsets[t + 1]], axis=1, out=z, mode="clip")
        recurrent = block(scratch[0], 0, size)
        np.matmul(hs[here : here + batch], wh_g[0], out=recurrent[:, :batch])
        np.matmul(hs[here + batch : here + size], wh_g[1], out=recurrent[:, batch:])
        z += recurrent
        _cell(z, cs[here : here + size], cs[there : there + size],
              tanh_cs[here : here + size], hs[there : there + size])
        if t + 1 < length and real[t + 1] > real[t]:  # these rows' text begins at t + 1
            entering = np.s_[there + size : there + batch + 1 + real[t + 1]]
            hs[entering] = hs[there + batch]
            cs[entering] = cs[there + batch]
    final_cols = np.full(batch, batch)  # rows with no text end on the shared row
    final_cols[: real[-1]] += 1 + np.arange(real[-1])
    h_last = hs[slots[-1] :]
    encoded = np.empty((batch, 2 * hidden))
    encoded[order] = np.hstack([h_last[:batch], h_last[final_cols]])
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
            dz = _cell_backward(block(gates, start, size), cs[start:stop], tanh_cs[start:stop],
                                dh[:size], dc[:size],
                                block(scratch[0], 0, size), block(scratch[1], 0, size))
            np.matmul(dz[:batch], wh[0], out=dh[:batch])
            np.matmul(dz[batch:], wh[1], out=dh[batch:size])
            if t and real[t] > real[t - 1]:  # rows entering at t began from the shared state
                entered = batch + 1 + real[t - 1]
                dh[batch] += dh[entered:size].sum(axis=0)
                dc[batch] += dc[entered:size].sum(axis=0)
        # the gates now hold, row-major, the pre-activation gradients of every
        # flat row. Every row that reads id 0 (PAD, or a mid-text 0) has input
        # embedding[0], so their input-side gradients need only the sum of their dz.
        pre_grads = gates[: 4 * hidden * offsets[-1]].reshape(-1, 4 * hidden)
        tokens = index % vocab
        d_wx, d_wh, d_bias = np.zeros_like(wx), np.zeros_like(wh), np.zeros_like(bias)
        d_embedding = np.zeros_like(embedding)
        dz_rows = np.empty((_GRADIENT_CHUNK, 4 * hidden))
        h_rows = np.empty((_GRADIENT_CHUNK, hidden))

        def chunks(flat):
            """(flat rows, their dz, their h inputs) per chunk of at most
            _GRADIENT_CHUNK rows, gathered into the same two buffers."""
            for lo in range(0, flat.size, _GRADIENT_CHUNK):
                part = flat[lo : lo + _GRADIENT_CHUNK]
                dz = np.take(pre_grads, part, axis=0, out=dz_rows[: part.size], mode="clip")
                yield part, dz, np.take(hs, part, axis=0, out=h_rows[: part.size], mode="clip")

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


def bilstm_encode(ids, params: ModelParams, workspace: Workspace = None) -> Tensor:
    """Concatenated final hidden states of both directions, (batch, 2H).

    One fused op over both directions and every time step, recorded as a
    single tape node. Input terms are gathered from a per-gate,
    per-direction table of embedding @ Wx^T + b, and one _cell call per
    step covers both directions. While a Graph records the op, every
    step's gates and states are kept for a hand-written backprop through
    time. They live in `workspace`'s buffers, or in fresh ones when it is
    None; the tape node reads them until its backward has run.

    The reverse pass reads a right-padded row's PAD run first, from the
    zero state, so that stretch is the same for every row: it runs once,
    as one shared PAD row, and each row joins from that row's state where
    its text begins (rows are sorted by text length inside the op). The
    backward sums the joining rows' gradients into the shared row, exact
    because their local Jacobians are equal. The forward pass reads the
    PADs last, each from its row's own state, so it shares nothing.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[np.newaxis, :]
    if ids.ndim != 2:
        raise ShapeError(f"ids must be 1-D or 2-D, got shape {ids.shape}")
    vocab = params.embedding.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"token id out of range for an embedding with {vocab} rows")
    inputs = [params.embedding]
    for lstm in (params.forward_lstm, params.backward_lstm):
        inputs += [lstm.wx, lstm.wh, lstm.bias]
    recording = ndgrad.recording(inputs)
    if workspace is None:
        workspace = Workspace()
    encoded, backward_fn = _encode(ids, params, recording, workspace)
    out = Tensor(encoded)
    if recording:
        ndgrad.record(out, inputs, backward_fn)
    return out


def model_forward(ids, numeric, params: ModelParams, workspace: Workspace = None) -> Tensor:
    """Per-example fraud probability, shape (batch, 1), each value in (0, 1).
    The encoder runs in `workspace`'s buffers, or in fresh ones."""
    numeric = np.asarray(numeric, dtype=np.float64)
    if numeric.ndim == 1:
        numeric = numeric[np.newaxis, :]
    encoded = bilstm_encode(ids, params, workspace)
    merged = ndgrad.concat(encoded, Tensor(numeric))
    hidden = ndgrad.relu(ndgrad.add(ndgrad.matmul(merged, params.dense_w), params.dense_b))
    return ndgrad.sigmoid(ndgrad.add(ndgrad.matmul(hidden, params.out_w), params.out_b))


def predict_scores(ids, numeric, params: ModelParams, chunk: int = 256) -> np.ndarray:
    """Fraud probabilities without recording gradients, in eval chunks."""
    return trainer._evaluate(
        lambda b_ids, b_num: model_forward(b_ids, b_num, params),
        np.asarray(ids, dtype=np.int64),
        np.asarray(numeric, dtype=np.float64),
        chunk,
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


class BiLstmClassifier:
    """A trained BiLSTM: its ModelConfig, its weights and, when it was
    trained in this process, the training history.

    ``X`` is the pair ``(ids, numeric)``: an int64 matrix of
    ``sequence_length`` token ids per row and a float64 matrix of the
    numeric feature block, row for row. ``decision_scores`` gives the fraud
    probability of each row.
    """

    def __init__(self, config: ModelConfig, params: ModelParams, history=None):
        self.config = config
        self.params = params
        self.history = history

    @classmethod
    def fit(cls, cfg: RunConfig, vocab_size: int, X, y, validation_data) -> "BiLstmClassifier":
        """Train a model on X, y. Its shape comes from ``cfg.bilstm``,
        ``cfg.features.sequence_length`` and ``cfg.seed``; ``vocab_size`` is
        the fitted vocabulary's size. Training (``trainer.train``, reading
        ``cfg.train``) minimizes binary cross-entropy with Adam and
        early-stops on ``validation_data``'s loss, restoring the best
        epoch's weights; the validation accuracy labels a score at or above
        ``cfg.threshold`` as 1."""
        length = cfg.features.sequence_length
        ids, numeric = _inputs(X, length)
        y = check_labels(y, ids.shape[0])
        X_val, y_val = validation_data
        ids_val, numeric_val = _inputs(X_val, length)
        y_val = check_labels(y_val, ids_val.shape[0])

        config = ModelConfig(
            vocab_size=vocab_size,
            **vars(cfg.bilstm),
            sequence_length=length,
            numeric_width=numeric.shape[1],
            seed=cfg.seed,
        )
        params = init_params(config)
        workspace = Workspace()  # every batch's recorded states; dropped on return
        history = trainer.train(
            params.named_tensors(),
            lambda b_ids, b_num: model_forward(b_ids, b_num, params, workspace),
            (ids, numeric, y),
            (ids_val, numeric_val, y_val),
            cfg,
        )
        return cls(config, params, history)

    def decision_scores(self, X) -> np.ndarray:
        return predict_scores(*_inputs(X, self.config.sequence_length), self.params)
