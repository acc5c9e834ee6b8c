"""Deterministic splits, Adam, and the early-stopping training loop.

All randomness (the three-way split, per-epoch batch order) comes from the
splitmix64 stream, so a (data, seed) pair fixes the split indices and the
visit order exactly. Training-loss trajectories are still floating-point
artifacts of this implementation; splits and initial weights are the
reproducible contract.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from . import ndgrad
from .config import RunConfig, TrainSection
from .errors import DataError, NumericError
from .rng import SplitMix64

logger = logging.getLogger(__name__)

# the most rows per forward-only call when scoring, validation and predict
# alike. A forward step's buffers take about 5.5 KB per flat row at
# hidden_units 64 (a 256-row chunk has about 335 flat rows a step), so past
# about 224 rows they no longer fit a 2 MB L2 beside the recurrent weights.
# Measured at hidden_units 64 only, on a 2-core Xeon VM (2 MB L2 per core,
# one BLAS thread): a step costs about 27 us plus 1.2-1.4 us per flat row
# for chunks of 64-224 rows, but 1.6 us from 256 rows on.
EVAL_CHUNK = 128


@dataclass(frozen=True)
class SplitResult:
    """Disjoint row indices; test is carved first, then validation."""

    train: tuple
    validation: tuple
    test: tuple


def split_dataset(n: int, seed: int) -> SplitResult:
    """Shuffle 0..n-1 (Fisher-Yates over the seeded stream); the first
    floor(0.2 n) indices become the test set and the next
    floor(0.2 (n - |test|)) the validation set."""
    if n < 5:
        raise DataError(f"need at least 5 rows to split, got {n}")
    indices = list(range(n))
    SplitMix64(seed).shuffle(indices)
    n_test = int(0.2 * n)
    n_val = int(0.2 * (n - n_test))
    return SplitResult(
        train=tuple(indices[n_test + n_val :]),
        validation=tuple(indices[n_test : n_test + n_val]),
        test=tuple(indices[:n_test]),
    )


@dataclass
class History:
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    val_accuracy: list = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


class Adam:
    """Adam with bias correction, at the learning_rate, beta1, beta2 and
    eps of a TrainSection; one step consumes the current grads."""

    def __init__(self, named_params, opts: TrainSection):
        self._named = list(named_params)
        self.opts = opts
        self.t = 0
        self._m = [np.zeros_like(t.values) for _, t in self._named]
        self._v = [np.zeros_like(t.values) for _, t in self._named]

    def step(self):
        opts = self.opts
        self.t += 1
        correct1 = 1.0 - opts.beta1**self.t
        correct2 = 1.0 - opts.beta2**self.t
        for (name, p), m, v in zip(self._named, self._m, self._v):
            grad = p.grad
            if not np.isfinite(grad).all():
                raise NumericError(f"non-finite gradient in tensor {name!r}")
            m *= opts.beta1
            m += (1.0 - opts.beta1) * grad
            v *= opts.beta2
            v += (1.0 - opts.beta2) * grad * grad
            m_hat = m / correct1
            v_hat = v / correct2
            p.values -= opts.learning_rate * m_hat / (np.sqrt(v_hat) + opts.eps)

    def zero_grad(self):
        for _, p in self._named:
            p.zero_grad()


def early_stop_check(val_losses, patience: int):
    """(stop, best_index): best_index is the argmin, first occurrence on
    ties. Stop once `patience` epochs have passed since the best one; the
    first epoch counts as no improvement (there is nothing to improve on),
    so a best first epoch stops as soon as `patience` losses exist."""
    if not val_losses:
        raise DataError("early_stop_check needs at least one loss value")
    best_index = min(range(len(val_losses)), key=val_losses.__getitem__)
    waited = len(val_losses) - 1 - best_index
    stop = len(val_losses) >= patience and (best_index == 0 or waited >= patience)
    return stop, best_index


def _evaluate(forward_fn, ids, numeric) -> np.ndarray:
    """forward_fn's scores of every row, in row order, from the fewest calls
    of at most EVAL_CHUNK rows, their sizes differing by at most one."""
    n = ids.shape[0]
    calls = -(-n // EVAL_CHUNK)
    bounds = [n * k // calls for k in range(calls + 1)]
    parts = [
        forward_fn(ids[start:stop], numeric[start:stop]).values[:, 0]
        for start, stop in zip(bounds, bounds[1:])
    ]
    return np.concatenate(parts)


def train(named_params, forward_fn, score_fn, train_data, val_data, cfg: RunConfig) -> History:
    """Mini-batch Adam with early stopping on validation loss.

    Reads `cfg.train`, shuffles the training indices each epoch with fresh
    draws from the `cfg.seed` stream, minimizes mean binary cross-entropy,
    scores validation accuracy at `cfg.threshold`, and restores the
    parameters of the best-validation-loss epoch before returning.
    forward_fn(ids, numeric) gives a batch's probabilities as a (rows, 1)
    Tensor for the tape; score_fn(ids, numeric) gives each epoch's
    validation scores as an array. A non-finite gradient or validation
    loss, or a NumericError of a batch or of the validation scores, raises
    NumericError naming the epoch.
    """
    ids, numeric, labels = train_data
    ids_val, numeric_val, labels_val = val_data
    if ids.shape[0] == 0 or ids_val.shape[0] == 0:
        raise DataError("training and validation splits must be nonempty")

    opts = cfg.train
    rng = SplitMix64(cfg.seed)
    adam = Adam(named_params, opts)
    history = History()
    order = list(range(ids.shape[0]))

    for epoch in range(1, opts.max_epochs + 1):
        rng.shuffle(order)
        batch_losses = []
        # float errors stay quiet where a check follows: Adam refuses a
        # non-finite gradient, and the validation loss is checked below
        with ndgrad.gc_paused(), np.errstate(all="ignore"):
            for start in range(0, len(order), opts.batch_size):
                batch = order[start : start + opts.batch_size]
                adam.zero_grad()
                try:
                    with ndgrad.Graph() as g:
                        probs = forward_fn(ids[batch], numeric[batch])
                        loss = ndgrad.bce_loss(probs, labels[batch].reshape(-1, 1))
                    ndgrad.backward(g, loss)
                    adam.step()
                except NumericError as exc:
                    raise NumericError(
                        f"epoch {epoch}, batch at offset {start}: {exc}"
                    ) from exc
                batch_losses.append(loss.item())

        history.train_loss.append(float(np.mean(batch_losses)))
        try:  # score_fn keeps its own float errors quiet where it checks them
            val_scores = score_fn(ids_val, numeric_val)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} validation: {exc}") from exc
        val_loss = ndgrad.bce_loss(ndgrad.Tensor(val_scores[:, None]), labels_val[:, None]).item()
        if not np.isfinite(val_loss):
            raise NumericError(f"epoch {epoch}: validation loss is {val_loss}")
        history.val_loss.append(val_loss)
        history.val_accuracy.append(float(((val_scores >= cfg.threshold) == labels_val).mean()))
        logger.info(
            "epoch %d: train_loss=%.4f val_loss=%.4f val_acc=%.4f",
            epoch, history.train_loss[-1], val_loss, history.val_accuracy[-1],
        )

        stop, best_index = early_stop_check(history.val_loss, opts.patience)
        if best_index == epoch - 1:
            best_snapshot = {name: t.values.copy() for name, t in named_params}
        history.stopped_epoch = epoch
        history.best_epoch = best_index + 1
        if stop:
            logger.info("early stop at epoch %d (best epoch %d)", epoch, best_index + 1)
            break

    # the first epoch is the best when it ends, so a snapshot always exists
    for name, t in named_params:
        t.values[...] = best_snapshot[name]
    return history
