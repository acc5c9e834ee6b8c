import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobfraud import bilstm, ingest, ndgrad, pipeline, trainer
from jobfraud.config import BilstmSection, FeatureSection, RunConfig, TrainSection
from jobfraud.errors import DataError, NumericError
from jobfraud.trainer import (
    Adam,
    early_stop_check,
    split_dataset,
    train,
)


# --------------------------------------------------------------------------
# split_dataset
# --------------------------------------------------------------------------

def test_split_sizes_small():
    s = split_dataset(10, seed=1)
    assert len(s.test) == 2 and len(s.validation) == 1 and len(s.train) == 7


def test_split_sizes_full_scale():
    s = split_dataset(17880, seed=42)
    assert len(s.test) == 3576
    assert len(s.validation) == 2860
    assert len(s.train) == 11444


def test_split_deterministic():
    assert split_dataset(100, seed=5) == split_dataset(100, seed=5)
    assert split_dataset(100, seed=5) != split_dataset(100, seed=6)


def test_split_matches_generator_contract():
    # shuffle of range(10) under seed 42 is [0,9,5,8,6,4,7,2,1,3]
    s = split_dataset(10, seed=42)
    assert list(s.test) == [0, 9]
    assert list(s.validation) == [5]
    assert list(s.train) == [8, 6, 4, 7, 2, 1, 3]


def test_split_too_small():
    with pytest.raises(DataError):
        split_dataset(4, seed=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=500), st.integers(min_value=0, max_value=2**32))
def test_split_partition_property(n, seed):
    s = split_dataset(n, seed)
    combined = sorted(s.train + s.validation + s.test)
    assert combined == list(range(n))
    assert len(s.test) == int(0.2 * n)
    assert len(s.validation) == int(0.2 * (n - len(s.test)))


# --------------------------------------------------------------------------
# Adam
# --------------------------------------------------------------------------

def _single_param(value):
    t = ndgrad.param(np.array([value]))
    return t


def test_adam_zero_gradient_is_identity():
    p = _single_param(1.5)
    opt = Adam([("p", p)], TrainSection())
    p.zero_grad()
    for _ in range(3):
        opt.step()
    assert p.values[0] == 1.5


def test_adam_first_step_magnitude():
    # bias-corrected first step with g=1: update = lr * 1 / (1 + eps)
    p = _single_param(0.0)
    opt = Adam([("p", p)], TrainSection(learning_rate=0.001))
    p.grad[...] = 1.0
    opt.step()
    assert p.values[0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_constant_gradient_monotone():
    p = _single_param(0.0)
    opt = Adam([("p", p)], TrainSection(learning_rate=0.01))
    values = []
    for _ in range(10):
        p.grad[...] = 2.0
        opt.step()
        values.append(p.values[0])
    assert all(b < a for a, b in zip(values, values[1:]))


def test_adam_nonfinite_gradient_names_tensor():
    p = _single_param(0.0)
    opt = Adam([("dense_w", p)], TrainSection())
    p.grad[...] = np.nan
    with pytest.raises(NumericError, match="dense_w"):
        opt.step()


def test_adam_matches_reference_formulas():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    p = _single_param(0.7)
    opt = Adam([("p", p)], TrainSection(learning_rate=lr, beta1=b1, beta2=b2, eps=eps))
    grads = [0.3, -1.2, 0.05]
    theta, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad[...] = g
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert p.values[0] == pytest.approx(theta, rel=1e-12)


# --------------------------------------------------------------------------
# early_stop_check
# --------------------------------------------------------------------------

def test_early_stop_examples():
    assert early_stop_check([0.5, 0.4, 0.45, 0.46], patience=2) == (True, 1)
    assert early_stop_check([0.5, 0.4, 0.3, 0.2], patience=2) == (False, 3)
    assert early_stop_check([0.3, 0.3], patience=2) == (True, 0)


def test_early_stop_single_entry_continues():
    assert early_stop_check([0.9], patience=2) == (False, 0)


def test_early_stop_best_index_first_occurrence():
    stop, best = early_stop_check([0.4, 0.2, 0.2, 0.2], patience=2)
    assert stop and best == 1


def test_early_stop_empty_error():
    with pytest.raises(DataError):
        early_stop_check([], patience=2)


# --------------------------------------------------------------------------
# _evaluate (eval chunking)
# --------------------------------------------------------------------------

def _recording_forward(calls):
    """A forward_fn that records each call's row count and scores a row by
    its first id."""
    def forward(ids, numeric):
        assert numeric.shape[0] == ids.shape[0]
        calls.append(ids.shape[0])
        return ndgrad.Tensor(ids[:, :1].astype(np.float64))
    return forward


@pytest.mark.parametrize("n, sizes", [
    (1, [1]), (128, [128]), (129, [64, 65]), (257, [85, 86, 86]), (300, [100, 100, 100]),
])
def test_evaluate_scores_in_fewest_balanced_calls(n, sizes):
    """At the default EVAL_CHUNK, n rows go in the fewest calls of at most
    EVAL_CHUNK rows, whose sizes differ by at most one, and the scores come
    back in row order."""
    calls = []
    ids = np.arange(n)[:, None]
    scores = trainer._evaluate(_recording_forward(calls), ids, np.zeros((n, 2)))
    assert calls == sizes
    assert np.array_equal(scores, np.arange(n))


@pytest.mark.parametrize("chunk", [1, 7, 128])
def test_evaluate_chunks_balance_for_every_row_count(chunk, monkeypatch):
    monkeypatch.setattr(trainer, "EVAL_CHUNK", chunk)
    for n in range(1, 400):
        calls = []
        scores = trainer._evaluate(_recording_forward(calls), np.arange(n)[:, None],
                                   np.zeros((n, 1)))
        assert len(calls) == -(-n // chunk) and sum(calls) == n
        assert max(calls) <= chunk and max(calls) - min(calls) <= 1
        assert np.array_equal(scores, np.arange(n))


# --------------------------------------------------------------------------
# train()
# --------------------------------------------------------------------------

def _toy_model_and_data(seed=3):
    rng = np.random.default_rng(5)
    n, length = 20, 6
    y = np.array([1, 0] * (n // 2))
    ids = np.zeros((n, length), dtype=np.int64)
    for i in range(n):
        ids[i, :3] = 2 if y[i] else 3
    numeric = rng.normal(size=(n, 2)) * 0.1
    cfg = bilstm.ModelConfig(
        vocab_size=6, embedding_dim=4, hidden_units=6, dense_units=6,
        sequence_length=length, numeric_width=2, seed=seed,
    )
    params = bilstm.init_params(cfg)
    forward = lambda b_ids, b_num: bilstm.model_forward(b_ids, b_num, params)
    score = lambda b_ids, b_num: bilstm.predict_scores(b_ids, b_num, params)
    return params, forward, score, ids, numeric, y


def _run_config(seed, **train):
    return RunConfig(seed=seed, train=TrainSection(**train))


def test_train_reaches_full_accuracy_on_separable_toy():
    params, forward, score, ids, numeric, y = _toy_model_and_data()
    # patience effectively disabled
    cfg = _run_config(3, max_epochs=200, batch_size=8, learning_rate=1e-2, patience=199)
    history = train(
        params.named_tensors(), forward, score,
        (ids, numeric, y), (ids, numeric, y), cfg,
    )
    scores = bilstm.predict_scores(ids, numeric, params)
    assert (((scores >= 0.5).astype(int)) == y).all()
    assert history.stopped_epoch <= 200


def test_train_first_epoch_loss_below_ln2():
    params, forward, score, ids, numeric, y = _toy_model_and_data()
    cfg = _run_config(3, max_epochs=2, batch_size=4, learning_rate=1e-3, patience=1)
    history = train(
        params.named_tensors(), forward, score,
        (ids, numeric, y), (ids, numeric, y), cfg,
    )
    assert history.train_loss[0] < np.log(2)


def test_train_frozen_batch_loss_decreases_over_first_steps():
    params, forward, _, ids, numeric, y = _toy_model_and_data()
    adam = Adam(params.named_tensors(), TrainSection(learning_rate=1e-3))
    losses = []
    for _ in range(6):
        adam.zero_grad()
        with ndgrad.Graph() as g:
            probs = forward(ids, numeric)
            loss = ndgrad.bce_loss(probs, y.reshape(-1, 1))
        ndgrad.backward(g, loss)
        adam.step()
        losses.append(loss.item())
    assert all(b < a for a, b in zip(losses[:5], losses[1:6]))


def test_train_restores_best_epoch_weights():
    params, forward, score, ids, numeric, y = _toy_model_and_data()
    cfg = _run_config(3, max_epochs=30, batch_size=8, learning_rate=5e-2, patience=4)
    history = train(
        params.named_tensors(), forward, score,
        (ids, numeric, y), (ids, numeric, y), cfg,
    )
    scores = bilstm.predict_scores(ids, numeric, params)
    restored_loss = ndgrad.bce_loss(ndgrad.Tensor(scores[:, None]), y[:, None]).item()
    assert restored_loss == pytest.approx(min(history.val_loss), abs=1e-12)
    assert history.best_epoch == int(np.argmin(history.val_loss)) + 1
    assert history.best_epoch <= history.stopped_epoch


def test_train_empty_split_is_error():
    params, forward, score, ids, numeric, y = _toy_model_and_data()
    cfg = _run_config(0, max_epochs=2, patience=1)
    with pytest.raises(DataError):
        train(params.named_tensors(), forward, score, (ids[:0], numeric[:0], y[:0]),
              (ids, numeric, y), cfg)


def test_train_histories_aligned():
    params, forward, score, ids, numeric, y = _toy_model_and_data()
    cfg = _run_config(3, max_epochs=5, batch_size=8, learning_rate=1e-2, patience=4)
    history = train(
        params.named_tensors(), forward, score,
        (ids, numeric, y), (ids, numeric, y), cfg,
    )
    n = history.stopped_epoch
    assert len(history.train_loss) == len(history.val_loss) == len(history.val_accuracy) == n


def test_train_passes_configured_adam_settings(small_csv, monkeypatch):
    """train.beta1/beta2/eps reach Adam and change the trained weights."""
    seen = []

    class SpyAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append((self.opts.beta1, self.opts.beta2, self.opts.eps))

    monkeypatch.setattr(trainer, "Adam", SpyAdam)
    dataset = ingest.load_dataset(small_csv)
    base = RunConfig(
        seed=5,
        features=FeatureSection(max_tokens=300, sequence_length=12, tabular_terms=10),
        bilstm=BilstmSection(embedding_dim=3, hidden_units=4, dense_units=4),
        train=TrainSection(max_epochs=2, patience=1),
    )
    custom = base.replace(train=TrainSection(max_epochs=2, patience=1, beta1=0.5, eps=0.1))
    weights = []
    for cfg in (base, custom):
        model = pipeline.train_pipeline(dataset, cfg, "bilstm").model
        weights.append([t.values for _, t in model.params.named_tensors()])
    assert seen == [(0.9, 0.999, 1e-8), (0.5, 0.999, 0.1)]
    assert not all(np.array_equal(a, b) for a, b in zip(*weights))
