"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Graph`` is a tape: while one is active (``with Graph() as g:``), every
operation touching a gradient-relevant tensor appends a node in execution
order, which is already a topological order. ``backward`` walks the tape in
reverse and accumulates (+=) into ``grad`` buffers, so parameters shared
across many steps (the recurrent weights) sum their contributions; callers
zero grads between optimizer steps.

Each op states its forward value and one pullback per input: the output's
gradient carried back to that input. One rule (``_op``) records the node,
for the inputs that need a gradient only, and adds their pullbacks in input
order. ``gather`` scatter-adds in place instead, and an op outside this
module records through ``record`` and ``accumulate``.

Broadcasting is deliberately limited to row-vector bias addition; any other
shape mismatch raises ShapeError.
"""

import contextlib
import gc
import itertools
import threading

import numpy as np

from .errors import NumericError, ShapeError

BCE_EPS = 1e-12

_tls = threading.local()
_graph_ids = itertools.count(1)


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic collector across a hot record/backward section.

    Tapes hold no reference cycles (tensors point at graphs by id only),
    so everything still frees promptly by refcount; pausing just stops the
    collector from rescanning a large live tape every few hundred
    allocations.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _graph_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def _active():
    stack = _graph_stack()
    return stack[-1] if stack else None


class Tensor:
    """Dense n-d float64 value; ``grad`` is allocated when requires_grad."""

    __slots__ = ("values", "grad", "requires_grad", "graph_id")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.values) if requires_grad else None
        self.graph_id = 0  # id of the Graph that recorded this tensor

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        else:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def param(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


class Graph:
    """Tape of recorded operations, in execution order."""

    def __init__(self):
        self._nodes = []
        self._id = next(_graph_ids)

    def __enter__(self):
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _graph_stack().pop()
        return False

    def __len__(self):
        return len(self._nodes)


def _wants_grad(t: Tensor, g: Graph) -> bool:
    return t.requires_grad or t.graph_id == g._id


def recording(inputs) -> bool:
    """Whether the active Graph records an op that reads `inputs`; an op
    with a costly forward-only form checks this before it runs."""
    g = _active()
    return g is not None and any(_wants_grad(t, g) for t in inputs)


def record(out: Tensor, inputs, backward_fn):
    """Append `out` and its backward_fn(grad) to the active Graph when any
    input needs a gradient there; ops outside this module use it too."""
    g = _active()
    if g is not None and any(_wants_grad(t, g) for t in inputs):
        out.graph_id = g._id
        g._nodes.append((out, backward_fn))


def accumulate(t: Tensor, grad):
    """Add `grad` into t.grad, allocating it on first use."""
    if t.grad is None:
        t.grad = np.array(grad, dtype=np.float64)
    else:
        t.grad += grad


def _op(values, *rules) -> Tensor:
    """The output Tensor of an op, from its value and one (input, pullback)
    rule per input. While a Graph records, the inputs that need a gradient
    there share one node, whose backward adds each one's pullback(grad) in
    rule order; an op with no such input records nothing."""
    out = Tensor(values)
    g = _active()
    if g is not None:
        kept = [(t, pullback) for t, pullback in rules if _wants_grad(t, g)]

        def backward_fn(grad):
            for t, pullback in kept:
                accumulate(t, pullback(grad))

        record(out, [t for t, _ in kept], backward_fn)
    return out


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul needs (m,k)x(k,n), got {av.shape} and {bv.shape}")
    return _op(av @ bv, (a, lambda grad: grad @ bv.T), (b, lambda grad: av.T @ grad))


def add(a: Tensor, b: Tensor) -> Tensor:
    bias = False
    if a.values.shape != b.values.shape:
        if (
            a.values.ndim == 2
            and b.values.ndim in (1, 2)
            and b.values.shape[-1] == a.values.shape[1]
            and (b.values.ndim == 1 or b.values.shape[0] == 1)
        ):
            bias = True  # row-vector bias broadcast over rows
        else:
            raise ShapeError(f"add shapes differ: {a.values.shape} vs {b.values.shape}")
    return _op(
        a.values + b.values,
        (a, lambda grad: grad),
        (b, lambda grad: grad.sum(axis=0).reshape(b.values.shape) if bias else grad),
    )


def multiply(a: Tensor, b) -> Tensor:
    """Elementwise product with an equal-shape tensor or a python scalar."""
    av = a.values
    if isinstance(b, Tensor):
        bv = b.values
        if av.shape != bv.shape:
            raise ShapeError(f"multiply shapes differ: {av.shape} vs {bv.shape}")
        return _op(av * bv, (a, lambda grad: grad * bv), (b, lambda grad: grad * av))
    c = float(b)
    return _op(av * c, (a, lambda grad: grad * c))


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; 2-D inputs need equal row counts."""
    if a.values.ndim != b.values.ndim or a.values.ndim not in (1, 2):
        raise ShapeError(f"concat needs matching 1-D or 2-D, got {a.values.shape} and {b.values.shape}")
    if a.values.ndim == 2 and a.values.shape[0] != b.values.shape[0]:
        raise ShapeError(f"concat row counts differ: {a.values.shape} vs {b.values.shape}")
    width = a.values.shape[-1]
    return _op(
        np.concatenate((a.values, b.values), axis=-1),
        (a, lambda grad: grad[..., :width]),
        (b, lambda grad: grad[..., width:]),
    )


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

    record(out, (table,), backward_fn)
    return out


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    ov = _sigmoid_values(x.values)
    return _op(ov, (x, lambda grad: grad * ov * (1.0 - ov)))


def tanh(x: Tensor) -> Tensor:
    ov = np.tanh(x.values)
    return _op(ov, (x, lambda grad: grad * (1.0 - ov * ov)))


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0  # derivative 0 at exactly 0
    return _op(np.maximum(x.values, 0.0), (x, lambda grad: grad * mask))


_ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation {kind!r}") from None
    return fn(x)


def sum_all(x: Tensor) -> Tensor:
    return _op(x.values.sum(), (x, lambda grad: np.full_like(x.values, float(grad))))


def bce_loss(p: Tensor, y) -> Tensor:
    """Mean binary cross-entropy of probabilities against 0/1 targets.

    Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs;
    the gradient is zero where the clamp is active.
    """
    y = np.broadcast_to(np.asarray(y, dtype=np.float64), p.values.shape)
    clamped = np.clip(p.values, BCE_EPS, 1.0 - BCE_EPS)
    losses = -(y * np.log(clamped) + (1.0 - y) * np.log1p(-clamped))
    size = p.values.size
    inside = (p.values > BCE_EPS) & (p.values < 1.0 - BCE_EPS)

    def pullback(grad):
        dp = np.where(inside, (clamped - y) / (clamped * (1.0 - clamped)), 0.0)
        return dp * (float(grad) / size)

    return _op(losses.mean(), (p, pullback))


# --------------------------------------------------------------------------
# Backward pass and gradient checking
# --------------------------------------------------------------------------

def backward(graph: Graph, loss: Tensor) -> None:
    """Populate gradients of everything `loss` depends on in `graph`."""
    if loss.values.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.values.shape}")
    if loss.graph_id != graph._id:
        raise ValueError("loss tensor was not recorded in this graph")
    loss.grad = np.ones_like(loss.values)
    for out, backward_fn in reversed(graph._nodes):
        if out.grad is not None:
            backward_fn(out.grad)


def grad_check(f, params, eps: float = 1e-4) -> float:
    """Max relative error between backward() and central differences.

    `f` rebuilds the forward computation from the current parameter values
    and returns a scalar Tensor. Relative error per coordinate is
    |a - n| / max(1, |a|, |n|). Inputs near a relu kink (within eps of 0)
    are the caller's responsibility.
    """
    params = list(params)
    with gc_paused():
        for p in params:
            p.zero_grad()
        with Graph() as g:
            loss = f()
        backward(g, loss)
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
