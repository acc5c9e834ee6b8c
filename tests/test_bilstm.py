import contextlib
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobfraud import bilstm, ndgrad, trainer
from jobfraud.bilstm import (
    BiLstmClassifier,
    ModelConfig,
    ModelParams,
    bilstm_encode,
    init_params,
    model_forward,
)
from jobfraud.config import BilstmSection, FeatureSection, RunConfig, TrainSection
from jobfraud.errors import ShapeError
from jobfraud.ndgrad import Tensor
from tape_reference import lstm_cell, strided_cell, strided_cell_backward, tape_encode


TINY = ModelConfig(
    vocab_size=12, embedding_dim=3, hidden_units=4, dense_units=5,
    sequence_length=4, numeric_width=3, seed=9,
)


def zero_params(cfg: ModelConfig, forget_bias=0.0) -> ModelParams:
    params = init_params(cfg)
    for _, t in params.named_tensors():
        t.values[...] = 0.0
    if forget_bias:
        for lstm in (params.forward_lstm, params.backward_lstm):
            lstm.bias.values[cfg.hidden_units : 2 * cfg.hidden_units] = forget_bias
    return params


# --------------------------------------------------------------------------
# Initialization
# --------------------------------------------------------------------------

def test_init_same_seed_identical():
    a, b = init_params(TINY), init_params(TINY)
    for (name, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        assert np.array_equal(ta.values, tb.values), name


def test_init_different_seed_differs():
    other = ModelConfig(**{**TINY.__dict__, "seed": 10})
    a, b = init_params(TINY), init_params(other)
    assert not np.array_equal(a.embedding.values, b.embedding.values)


def test_init_glorot_bounds():
    cfg = ModelConfig(vocab_size=50, embedding_dim=8, hidden_units=6,
                      dense_units=7, sequence_length=5, numeric_width=4, seed=1)
    params = init_params(cfg)
    two_h_d = 2 * cfg.hidden_units + cfg.numeric_width
    checks = [
        (params.forward_lstm.wx, 4 * cfg.hidden_units + cfg.embedding_dim),
        (params.forward_lstm.wh, 4 * cfg.hidden_units + cfg.hidden_units),
        (params.dense_w, two_h_d + cfg.dense_units),
        (params.out_w, cfg.dense_units + 1),
    ]
    for tensor, fan_sum in checks:
        bound = np.sqrt(6.0 / fan_sum)
        assert np.abs(tensor.values).max() < bound  # strictly inside
    assert np.abs(params.embedding.values).max() < 0.05


def test_init_bias_layout():
    params = init_params(TINY)
    h = TINY.hidden_units
    bias = params.forward_lstm.bias.values
    assert np.array_equal(bias[h : 2 * h], np.ones(h))  # forget block
    assert np.array_equal(np.delete(bias, np.s_[h : 2 * h]), np.zeros(3 * h))
    assert np.array_equal(params.dense_b.values, np.zeros(TINY.dense_units))


def test_all_trainable_tensors_require_grad():
    assert all(t.requires_grad for _, t in init_params(TINY).named_tensors())


# --------------------------------------------------------------------------
# Cell
# --------------------------------------------------------------------------

def test_cell_zero_weights_collapse():
    params = zero_params(TINY)
    x = Tensor(np.ones(TINY.embedding_dim))
    h = Tensor(np.zeros(TINY.hidden_units))
    c = Tensor(np.zeros(TINY.hidden_units))
    h_t, c_t = lstm_cell(x, h, c, params.forward_lstm)
    assert np.array_equal(h_t.values, np.zeros(TINY.hidden_units))
    assert np.array_equal(c_t.values, np.zeros(TINY.hidden_units))


def test_cell_forget_limit_preserves_memory():
    params = zero_params(TINY, forget_bias=30.0)  # forget gate ~1, input gate ~0.5*tanh(0)=0
    c_prev = np.array([0.3, -0.7, 1.1, 0.0])
    _, c_t = lstm_cell(
        Tensor(np.ones(TINY.embedding_dim)),
        Tensor(np.zeros(TINY.hidden_units)),
        Tensor(c_prev),
        params.forward_lstm,
    )
    assert np.allclose(c_t.values, c_prev, atol=1e-9)


def test_cell_gradient_check():
    rng = np.random.default_rng(21)
    params = init_params(TINY)
    cell = params.forward_lstm
    x = Tensor(rng.normal(size=TINY.embedding_dim))
    h = Tensor(rng.normal(size=TINY.hidden_units))
    c = Tensor(rng.normal(size=TINY.hidden_units))

    def f():
        h_t, c_t = lstm_cell(x, h, c, cell)
        return ndgrad.sum_all(ndgrad.multiply(h_t, h_t))

    assert ndgrad.grad_check(f, [cell.wx, cell.wh, cell.bias]) < 1e-6


def test_cell_shape_error():
    params = init_params(TINY)
    with pytest.raises(Exception):
        lstm_cell(
            Tensor(np.zeros(TINY.embedding_dim + 1)),
            Tensor(np.zeros(TINY.hidden_units)),
            Tensor(np.zeros(TINY.hidden_units)),
            params.forward_lstm,
        )


# --------------------------------------------------------------------------
# Encoder
# --------------------------------------------------------------------------

def test_encode_all_pad_zero_weights_is_zero():
    params = zero_params(TINY)
    out = bilstm_encode(np.zeros((2, TINY.sequence_length), dtype=int), params)
    assert np.array_equal(out.values, np.zeros((2, 2 * TINY.hidden_units)))


def test_encode_output_width():
    params = init_params(TINY)
    for length in (1, 3, 7):
        ids = np.ones((2, length), dtype=int)
        assert bilstm_encode(ids, params).values.shape == (2, 2 * TINY.hidden_units)


def test_encode_reversal_swaps_halves_with_tied_directions():
    params = init_params(TINY)
    # tie the two directions
    for name in ("wx", "wh", "bias"):
        getattr(params.backward_lstm, name).values[...] = getattr(
            params.forward_lstm, name
        ).values
    ids = np.array([[3, 1, 7, 2]])
    h = TINY.hidden_units
    fwd = bilstm_encode(ids, params).values[0]
    rev = bilstm_encode(ids[:, ::-1], params).values[0]
    assert np.allclose(fwd[:h], rev[h:])
    assert np.allclose(fwd[h:], rev[:h])


def test_encode_id_out_of_range():
    params = init_params(TINY)
    for bad in (TINY.vocab_size, -1):
        with pytest.raises(IndexError):
            bilstm_encode(np.array([[2, bad]]), params)
        with pytest.raises(IndexError), ndgrad.Graph():
            bilstm_encode(np.array([[2, bad]]), params)


def encode_with_grads(encode, ids, params: ModelParams, weights):
    """(forward-only encoding, recorded encoding, tape length, encoder
    gradients) for the loss sum(encoding * weights)."""
    tensors = [params.embedding]
    for lstm in (params.forward_lstm, params.backward_lstm):
        tensors += [lstm.wx, lstm.wh, lstm.bias]
    for t in tensors:
        t.zero_grad()
    forward_only = encode(ids, params).values
    with ndgrad.Graph() as g:
        recorded = encode(ids, params)
        loss = ndgrad.sum_all(ndgrad.multiply(recorded, Tensor(weights)))
    ndgrad.backward(g, loss)
    return forward_only, recorded.values, len(g), [t.grad.copy() for t in tensors]


def random_params(cfg: ModelConfig, rng, tied=False) -> ModelParams:
    params = init_params(cfg)
    for _, t in params.named_tensors():
        t.values[...] = rng.normal(scale=0.6, size=t.shape)
    if tied:  # one set of weights read by both directions
        params.backward_lstm = params.forward_lstm
    return params


def right_padded(rng, lengths, length, vocab):
    """Rows of non-PAD ids cut to `lengths`, each followed by its PAD run."""
    ids = rng.integers(1, vocab, size=(len(lengths), length))
    ids[np.arange(length) >= np.asarray(lengths)[:, None]] = 0
    return ids


def assert_matches_tape(ids, params: ModelParams, weights):
    fused = encode_with_grads(bilstm_encode, ids, params, weights)
    tape = encode_with_grads(tape_encode, ids, params, weights)
    assert fused[2] == 3  # the encoder is one tape node
    assert np.abs(fused[0] - tape[1]).max() <= 1e-12
    assert np.abs(fused[1] - tape[1]).max() <= 1e-12
    for got, want in zip(fused[3], tape[3]):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def reference_cases(batch, length, tied):
    """(params, ids, loss weights) for random ids, right-padded rows and
    all-PAD rows of one batch shape."""
    cfg = ModelConfig(vocab_size=7, embedding_dim=5, hidden_units=3, seed=batch * 100 + length)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng, tied)
    ids = rng.integers(0, cfg.vocab_size, size=(batch, length))
    ids[:, 0] = 3  # a repeated id across rows
    if batch > 1:
        ids[-1] = 0  # an all-PAD row
    # right-padded rows of mixed PAD-run lengths
    lengths = rng.integers(0, length + 1, size=batch)
    if batch == 1:
        lengths[0] = (length + 1) // 2
    else:
        lengths[0], lengths[-1] = length, 0  # a row with no PAD, an all-PAD row
    if batch > 2:
        lengths[1] = lengths[2]  # two rows of equal length
    padded = right_padded(rng, lengths, length, cfg.vocab_size)
    if length > 2:
        padded[0, length // 2] = 0  # a mid-text id 0 is text, not PAD
    for case in (ids, padded, np.zeros_like(ids)):  # the last: every row all-PAD
        yield params, case, rng.normal(size=(batch, 2 * cfg.hidden_units))


reference_shapes = pytest.mark.parametrize(
    "batch, length, tied", list(itertools.product([1, 3, 32], [1, 2, 17], [False, True])))


@reference_shapes
def test_fused_encoder_matches_tape_reference(batch, length, tied):
    for params, ids, weights in reference_cases(batch, length, tied):
        assert_matches_tape(ids, params, weights)


@reference_shapes
def test_forward_only_encoding_matches_recorded_bits(batch, length, tied):
    """Scoring and training run one step loop: the same bits either way."""
    for params, ids, weights in reference_cases(batch, length, tied):
        forward_only, recorded, _, _ = encode_with_grads(bilstm_encode, ids, params, weights)
        assert _same_bits(forward_only, recorded)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 24).flatmap(
        lambda length: st.tuples(
            st.just(length), st.lists(st.integers(0, length), min_size=1, max_size=9)
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_fused_encoder_matches_tape_on_random_pad_runs(shape, seed):
    length, pad_runs = shape
    cfg = ModelConfig(vocab_size=6, embedding_dim=4, hidden_units=3, seed=1)
    rng = np.random.default_rng(seed)
    params = random_params(cfg, rng)
    ids = right_padded(rng, [length - run for run in pad_runs], length, cfg.vocab_size)
    assert_matches_tape(ids, params, rng.normal(size=(len(pad_runs), 2 * cfg.hidden_units)))


def test_fused_gradients_match_tape_across_gradient_chunks(monkeypatch):
    """With 5-row weight-gradient chunks, chunk boundaries fall inside both
    the rows that read id 0 and the text rows of both directions."""
    monkeypatch.setattr(bilstm, "_GRADIENT_CHUNK", 5)
    cfg = ModelConfig(vocab_size=9, embedding_dim=4, hidden_units=3, seed=5)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng)
    ids = right_padded(rng, [6, 3, 1, 0, 9], 12, cfg.vocab_size)
    ids[0, 2] = 0  # a mid-text id 0 is text, not PAD, but reads embedding[0]
    _, _, _, index, fwd_rows, rev_rows = bilstm._plan(ids, cfg.vocab_size)
    tokens = index % cfg.vocab_size
    assert np.count_nonzero(tokens == 0) > np.count_nonzero(tokens)
    for flat in (fwd_rows, rev_rows):
        pad = np.count_nonzero(tokens[flat] == 0)
        assert pad > 5 and flat.size - pad > 5
    assert_matches_tape(ids, params, rng.normal(size=(ids.shape[0], 2 * cfg.hidden_units)))


def _gate_block(rng, rows, width):
    """Normal values with exact +0.0 and -0.0 entries and some large
    enough that tanh saturates to exactly +-1."""
    block = rng.normal(scale=3.0, size=(rows, width))
    draw = rng.random(block.shape)
    block[draw < 0.15] = 0.0
    block[(draw >= 0.15) & (draw < 0.25)] = -0.0
    block[draw > 0.95] *= 40.0
    return block


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("rows", [1, 33, 65])
def test_contiguous_gate_math_matches_strided_reference(rows):
    """The kernel's gate-major step gives the strided row-major
    reference's exact bits, transposed, signed zeros and saturation
    included; its backward writes the pre-activation gradients row-major."""
    hidden = 7
    rng = np.random.default_rng(rows)
    pre, c_prev, dh, dc = (_gate_block(rng, rows, w) for w in (4 * hidden, hidden, hidden, hidden))
    # a sigmoid gate of exactly 0, a candidate of exactly -1 and one of -0.0
    pre[0, [0, 3 * hidden, 3 * hidden + 1]] = -50.0, -50.0, -0.0

    def gate_major(block):
        return np.ascontiguousarray(block.reshape(rows, 4, hidden).transpose(1, 0, 2))

    def fused(z, c, tanh_c, h_out, d_c):
        z = gate_major(z)
        bilstm._cell(z, c_prev, c, tanh_c, h_out)
        gates = z.transpose(1, 0, 2).reshape(rows, 4 * hidden).copy()
        scratch = [np.full_like(z, np.nan) for _ in range(2)]
        dz = bilstm._cell_backward(z, c_prev, tanh_c, dh, d_c, *scratch)
        assert np.shares_memory(dz, z) and dz.flags.c_contiguous
        return gates, dz

    def strided(z, c, tanh_c, h_out, d_c):
        strided_cell(z, c_prev, c, tanh_c, h_out)
        gates = z.copy()
        strided_cell_backward(z, c_prev, tanh_c, dh, d_c)
        return gates, z

    outputs = []
    for kernel in (fused, strided):
        c, tanh_c, h_out = (np.empty((rows, hidden)) for _ in range(3))
        d_c = dc.copy()
        gates, dz = kernel(pre.copy(), c, tanh_c, h_out, d_c)
        outputs.append((gates, c, tanh_c, h_out, dz, d_c))
    fused_out, strided_out = outputs
    assert strided_out[0][0, 0] == 0.0 and strided_out[0][0, 3 * hidden] == -1.0
    assert np.signbit(strided_out[0][0, 3 * hidden + 1])
    for got, want in zip(fused_out, strided_out):
        assert _same_bits(got, want)


def test_workspace_grows_only_when_a_call_needs_more_rows():
    """The record and the step slot each grow only when a call needs more
    of it: a wider step keeps the record, and more recorded rows keep the
    step slot. A replaced part is released, not kept beside the new one."""
    workspace = bilstm.Workspace()
    record = workspace.record(10, 12, 3)
    assert record[0].size >= 4 * 10 * 3 and all(s.shape == (12, 3) for s in record[1:])
    step = workspace.step(5, 3)
    assert step[0].size >= 4 * 5 * 3 and all(s.shape == (5, 3) for s in step[1:])
    assert all(a is b for a, b in zip(workspace.record(7, 12, 3), record))
    assert all(a is b for a, b in zip(workspace.step(4, 3), step))
    old_step = [weakref.ref(buffer) for buffer in step]
    del step
    wider = workspace.step(9, 3)  # a validation chunk's wider steps
    assert wider[0].size >= 4 * 9 * 3 and all(s.shape[0] >= 9 for s in wider[1:])
    assert all(ref() is None for ref in old_step)
    assert all(a is b for a, b in zip(workspace.record(10, 12, 3), record))
    for needs in ((11, 12), (10, 13)):  # more gate rows, more state rows
        old = [weakref.ref(buffer) for buffer in record]
        del record
        record = workspace.record(*needs, 3)
        assert record[0].size >= 4 * needs[0] * 3
        assert all(s.shape[0] >= needs[1] for s in record[1:])
        assert all(ref() is None for ref in old)
    assert all(a is b for a, b in zip(workspace.step(9, 3), wider))


def test_recorded_call_keeps_six_values_per_row_and_gathers_in_place():
    """Once a first call has sized the Workspace, a recorded forward and
    backward at B=32, T=256 allocates no (_GRADIENT_CHUNK, 4H) gather
    buffer (its traced peak stays below one): the backward rebuilds h over
    the c record and gathers the weight-gradient chunks into the spent
    tanh(c) record. The Workspace holds 6H values per recorded row (gates,
    c, tanh(c)) plus one step slot, and a forward-only call with wider
    steps keeps the record."""
    cfg = ModelConfig(vocab_size=50, embedding_dim=4, hidden_units=32, seed=20)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng)
    ids = right_padded(rng, rng.integers(60, 257, size=32), 256, cfg.vocab_size)
    weights = rng.normal(size=(32, 2 * cfg.hidden_units))
    workspace = bilstm.Workspace()
    encode = lambda i, p: bilstm_encode(i, p, workspace)
    first = encode_with_grads(encode, ids, params, weights)
    chunk_bytes = bilstm._GRADIENT_CHUNK * 4 * cfg.hidden_units * 8  # one dz chunk
    tracemalloc.start()
    try:
        again = encode_with_grads(encode, ids, params, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < chunk_bytes
    assert all(map(_same_bits, first[:2] + tuple(first[3]), again[:2] + tuple(again[3])))

    _, _, offsets, _, _, _ = bilstm._plan(ids, cfg.vocab_size)
    rows, widest, hidden = offsets[-1], offsets[-1] - offsets[-2], cfg.hidden_units
    assert rows + widest >= 5 * bilstm._GRADIENT_CHUNK
    record, step = workspace.record(1, 1, hidden), workspace.step(1, hidden)
    assert record[0].size == 4 * hidden * rows
    assert all(s.shape == (rows + widest, hidden) for s in record[1:])
    assert step[0].size == 4 * hidden * widest
    assert all(s.shape == (widest, hidden) for s in step[1:])
    bilstm_encode(np.ones((100, 256), dtype=np.int64), params, workspace)
    assert all(a is b for a, b in zip(workspace.record(1, 1, hidden), record))
    assert workspace.step(1, hidden)[1].shape == (201, hidden)


def test_encoding_ignores_workspace_reuse():
    """Encodings and gradients are bit-identical in fresh buffers and in
    one workspace that calls of other shapes filled before."""
    cfg = ModelConfig(vocab_size=30, embedding_dim=5, hidden_units=4, sequence_length=9, seed=8)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng)
    workspace = bilstm.Workspace()
    for rows in (6, 2, 9, 1):
        ids = right_padded(rng, rng.integers(0, cfg.sequence_length + 1, size=rows),
                           cfg.sequence_length, cfg.vocab_size)
        weights = rng.normal(size=(rows, 2 * cfg.hidden_units))
        fresh = encode_with_grads(bilstm_encode, ids, params, weights)
        reused = encode_with_grads(
            lambda i, p: bilstm_encode(i, p, workspace), ids, params, weights)
        assert all(map(_same_bits, fresh[:2] + tuple(fresh[3]), reused[:2] + tuple(reused[3])))


def test_predict_scores_lays_out_the_weights_once(monkeypatch):
    """predict_scores builds the kernel's weights once per call, however
    many eval chunks it runs, and scores the rows as model_forward does."""
    cfg = ModelConfig(vocab_size=30, embedding_dim=5, hidden_units=4, sequence_length=9,
                      numeric_width=2, seed=8)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng)
    ids = right_padded(rng, rng.integers(0, cfg.sequence_length + 1, size=20),
                       cfg.sequence_length, cfg.vocab_size)
    numeric = rng.normal(size=(20, cfg.numeric_width))
    expected = model_forward(ids, numeric, params).values[:, 0]
    built = []
    lay_out = bilstm.kernel_weights
    monkeypatch.setattr(bilstm, "kernel_weights", lambda p: built.append(p) or lay_out(p))
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 3)
    scores = bilstm.predict_scores(ids, numeric, params)
    assert built == [params]
    assert np.abs(scores - expected).max() <= 1e-12


def test_fit_lays_out_the_weights_once_per_batch_and_validation_pass(monkeypatch):
    """Each training batch lays out its own weights; each epoch's
    validation lays them out once, however many eval chunks it runs."""
    cfg = RunConfig(
        seed=4,
        features=FeatureSection(sequence_length=6),
        bilstm=BilstmSection(embedding_dim=3, hidden_units=4, dense_units=4),
        train=TrainSection(batch_size=4, max_epochs=3, patience=2),
    )
    rng = np.random.default_rng(4)
    ids, numeric = rng.integers(0, 9, size=(15, 6)), rng.normal(size=(15, 2))
    y = np.arange(15) % 2
    built = []
    lay_out = bilstm.kernel_weights
    monkeypatch.setattr(bilstm, "kernel_weights", lambda p: built.append(p) or lay_out(p))
    monkeypatch.setattr(trainer, "EVAL_CHUNK", 2)  # 5 validation rows: 3 chunks
    model = BiLstmClassifier.fit(cfg, 9, (ids[:10], numeric[:10]), y[:10],
                                 validation_data=((ids[10:], numeric[10:]), y[10:]))
    # per epoch: 3 batches of the 10 training rows, 1 validation pass
    assert len(built) == model.history.stopped_epoch * (3 + 1)


def test_encoding_ignores_row_order_at_full_length():
    """The kernel sorts rows by text length inside the op; at T=256 with
    benchmark-like PAD runs a permuted batch encodes to the permuted
    encodings, and a batch to its rows encoded one at a time."""
    cfg = ModelConfig(vocab_size=40, embedding_dim=6, hidden_units=5, seed=256)
    rng = np.random.default_rng(cfg.seed)
    params = random_params(cfg, rng)
    lengths = [22, 129, 94, 94, 60, 256, 0, 31, 117, 75]
    ids = right_padded(rng, lengths, 256, cfg.vocab_size)
    perm = rng.permutation(len(lengths))
    for recording in (False, True):
        with ndgrad.Graph() if recording else contextlib.nullcontext():
            batch = bilstm_encode(ids, params).values
            permuted = bilstm_encode(ids[perm], params).values
            singles = np.vstack([bilstm_encode(row[None], params).values for row in ids])
        assert np.abs(permuted - batch[perm]).max() <= 1e-12
        assert np.abs(singles - batch).max() <= 1e-12


# --------------------------------------------------------------------------
# Full forward
# --------------------------------------------------------------------------

def test_forward_zero_params_gives_half():
    params = zero_params(TINY)
    probs = model_forward(
        np.zeros((3, TINY.sequence_length), dtype=int),
        np.zeros((3, TINY.numeric_width)),
        params,
    )
    assert np.array_equal(probs.values, np.full((3, 1), 0.5))


def test_forward_probabilities_in_open_interval():
    params = init_params(TINY)
    rng = np.random.default_rng(4)
    probs = model_forward(
        rng.integers(0, TINY.vocab_size, size=(5, TINY.sequence_length)),
        rng.normal(size=(5, TINY.numeric_width)),
        params,
    ).values
    assert ((probs > 0.0) & (probs < 1.0)).all()


def test_forward_batch_order_invariance():
    params = init_params(TINY)
    rng = np.random.default_rng(6)
    ids = rng.integers(0, TINY.vocab_size, size=(4, TINY.sequence_length))
    numeric = rng.normal(size=(4, TINY.numeric_width))
    probs = model_forward(ids, numeric, params).values[:, 0]
    perm = np.array([2, 0, 3, 1])
    permuted = model_forward(ids[perm], numeric[perm], params).values[:, 0]
    assert np.allclose(probs[perm], permuted, atol=1e-12)


def test_forward_batch_equals_singletons():
    params = init_params(TINY)
    rng = np.random.default_rng(14)
    ids = rng.integers(0, TINY.vocab_size, size=(3, TINY.sequence_length))
    numeric = rng.normal(size=(3, TINY.numeric_width))
    batch = model_forward(ids, numeric, params).values[:, 0]
    singles = [
        model_forward(ids[i : i + 1], numeric[i : i + 1], params).values[0, 0]
        for i in range(3)
    ]
    assert np.allclose(batch, singles, atol=1e-12)


def test_full_model_gradient_check_two_examples():
    rng = np.random.default_rng(33)
    params = init_params(TINY)
    ids = rng.integers(0, TINY.vocab_size, size=(2, TINY.sequence_length))
    numeric = rng.normal(size=(2, TINY.numeric_width))
    y = np.array([[1.0], [0.0]])

    def f():
        return ndgrad.bce_loss(model_forward(ids, numeric, params), y)

    assert ndgrad.grad_check(f, params.tensors()) < 1e-5


# --------------------------------------------------------------------------
# The trained model
# --------------------------------------------------------------------------

def test_classifier_fit_predict_roundtrip(toy_separable):
    X, y, length = toy_separable
    cfg = RunConfig(
        seed=3,
        features=FeatureSection(sequence_length=length),
        bilstm=BilstmSection(embedding_dim=4, hidden_units=6, dense_units=6),
        train=TrainSection(learning_rate=1e-2, batch_size=8, max_epochs=40, patience=39),
    )
    clf = BiLstmClassifier.fit(cfg, 6, X, y, validation_data=(X, y))
    scores = clf.decision_scores(X)
    assert scores.shape == (len(y),)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    assert ((scores >= cfg.threshold) == y).all()


@pytest.mark.parametrize("ids, numeric", [
    (np.zeros(4, dtype=np.int64), np.zeros((1, 2))),
    (np.zeros((2, 4), dtype=np.int64), np.zeros((3, 2))),
    (np.zeros((2, 5), dtype=np.int64), np.zeros((2, 2))),
    (np.zeros((2, 4), dtype=np.int64), np.zeros(2)),
], ids=["ids-1d", "row-counts-differ", "ids-too-wide", "numeric-1d"])
def test_classifier_rejects_mismatched_inputs(ids, numeric):
    cfg = RunConfig(features=FeatureSection(sequence_length=4))
    good = (np.zeros((2, 4), dtype=np.int64), np.zeros((2, 2)))
    y = np.array([0, 1])
    with pytest.raises(ShapeError, match=r"X must be ids \(rows, 4\)"):
        BiLstmClassifier.fit(cfg, 10, (ids, numeric), y, validation_data=(good, y))
    with pytest.raises(ShapeError):
        BiLstmClassifier.fit(cfg, 10, good, y, validation_data=((ids, numeric), y))
