"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: exactly the primitives the graph blocks,
controller and router need. Tensors are immutable values; a computation
builds an implicit tape (parent links + closures) and ``backward`` walks it
once in reverse topological order.
"""

from __future__ import annotations

import json
import os

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for a primitive."""


class CheckpointError(ValueError):
    """Raised when a checkpoint does not match the parameters registered to load it."""


def _shape_err(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def detach(self):
        """A new leaf with the same values and no tape history."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    # -- backward ----------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every grad-requiring leaf.

        ``self`` must be a scalar (size 1). Each tape node is visited exactly
        once, in reverse topological order.
        """
        if self.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Reduce an upstream gradient back to the broadcast operand's shape."""
    if g.shape == shape:
        return g
    if shape == () or all(s == 1 for s in shape):
        return g.sum().reshape(shape)
    # row vector (1, d) or column vector (n, 1)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def _check_ew(op, a, b):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb or a.size == 1 or b.size == 1:
        return
    if len(sa) == 2 and len(sb) == 2:
        rows_ok = sa[0] == sb[0] or sa[0] == 1 or sb[0] == 1
        cols_ok = sa[1] == sb[1] or sa[1] == 1 or sb[1] == 1
        if rows_ok and cols_ok and (sa[0] == sb[0] or sa[1] == sb[1]):
            return
    raise _shape_err(op, sa, sb)


# -- elementwise arithmetic --------------------------------------------------

def add(a, b):
    _check_ew("add", a, b)
    out = Tensor(a.data + b.data, _parents=(a, b))

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    out._backward = bw
    return out


def sub(a, b):
    _check_ew("sub", a, b)
    out = Tensor(a.data - b.data, _parents=(a, b))

    def bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    out._backward = bw
    return out


def mul(a, b):
    _check_ew("mul", a, b)
    out = Tensor(a.data * b.data, _parents=(a, b))

    def bw(g):
        # skip the product for a constant operand, as matmul does
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    out._backward = bw
    return out


def div(a, b):
    _check_ew("div", a, b)
    out = Tensor(a.data / b.data, _parents=(a, b))

    def bw(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    out._backward = bw
    return out


def scale(a, c):
    """Multiply by a python scalar constant."""
    c = float(c)
    out = Tensor(a.data * c, _parents=(a,))
    out._backward = lambda g: _accum(a, g * c)
    return out


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_err("matmul", a.data.shape, b.data.shape)
    out = Tensor(a.data @ b.data, _parents=(a, b))

    def bw(g):
        # skip the product for a constant operand (features, 0/1 head maps)
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ g)

    out._backward = bw
    return out


def transpose(a):
    """Matrix transpose; weights are stored (out, in) and rows of x multiply W^T."""
    if a.data.ndim != 2:
        raise _shape_err("transpose", a.data.shape)
    out = Tensor(a.data.T, _parents=(a,))
    out._backward = lambda g: _accum(a, g.T)
    return out


def block_diag(a):
    """Map an (H, p, q) stack to the (H*p, H*q) matrix with block h on the diagonal.

    ``x @ block_diag(W)`` applies head h's map W[h] to x's h-th column block,
    for every head in one matmul.
    """
    if a.data.ndim != 3:
        raise _shape_err("block_diag", a.data.shape)
    h, p, q = a.data.shape
    heads = np.arange(h)
    y = np.zeros((h, p, h, q))
    y[heads, :, heads, :] = a.data
    out = Tensor(y.reshape(h * p, h * q), _parents=(a,))
    out._backward = lambda g: _accum(a, g.reshape(h, p, h, q)[heads, :, heads, :])
    return out


def concat(tensors, axis=-1):
    """Concatenate along the last axis."""
    if not tensors:
        raise ValueError("concat: empty list")
    nd = tensors[0].data.ndim
    if axis not in (-1, nd - 1):
        raise ValueError("concat: only last-axis concatenation is supported")
    for t in tensors[1:]:
        if t.data.shape[:-1] != tensors[0].data.shape[:-1]:
            raise _shape_err("concat", tensors[0].data.shape, t.data.shape)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=-1), _parents=tuple(tensors))
    splits = np.cumsum([t.data.shape[-1] for t in tensors])[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=-1)):
            _accum(t, piece)

    out._backward = bw
    return out


def broadcast_rows(a, n):
    """Repeat a (1, d) row vector into an (n, d) matrix."""
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise _shape_err("broadcast_rows", a.data.shape)
    out = Tensor(np.broadcast_to(a.data, (n, a.data.shape[1])).copy(), _parents=(a,))
    out._backward = lambda g: _accum(a, g.sum(axis=0, keepdims=True))
    return out


# -- nonlinearities ----------------------------------------------------------

def _unary(a, value, dvalue):
    out = Tensor(value, _parents=(a,))
    out._backward = lambda g: _accum(a, g * dvalue)
    return out


def log(a):
    return _unary(a, np.log(a.data), 1.0 / a.data)


def exp(a):
    y = np.exp(a.data)
    return _unary(a, y, y)


def tanh(a):
    y = np.tanh(a.data)
    return _unary(a, y, 1.0 - y * y)


def _sigmoid_np(x):
    # split form avoids overflow in exp for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(a):
    y = _sigmoid_np(a.data)
    return _unary(a, y, y * (1.0 - y))


def relu(a):
    return _unary(a, np.maximum(a.data, 0.0), (a.data > 0).astype(np.float64))


def leaky_relu(a, slope=0.2):
    y = np.where(a.data > 0, a.data, slope * a.data)
    return _unary(a, y, np.where(a.data > 0, 1.0, slope))


def relu6(a):
    y = np.clip(a.data, 0.0, 6.0)
    return _unary(a, y, ((a.data > 0) & (a.data < 6)).astype(np.float64))


def elu(a):
    y = np.where(a.data > 0, a.data, np.expm1(a.data))
    return _unary(a, y, np.where(a.data > 0, 1.0, np.exp(np.minimum(a.data, 0.0))))


def softplus(a):
    y = np.logaddexp(0.0, a.data)
    return _unary(a, y, _sigmoid_np(a.data))


def softmax_rows(a):
    """Softmax along the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, _parents=(a,))

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - dot))

    out._backward = bw
    return out


# -- gather / segment ops ----------------------------------------------------

def _scatter_add(values, idx, num_rows):
    """Sum rows of ``values`` into ``num_rows`` rows keyed by ``idx``, in any index order.

    ``bincount`` adds each weight into its bin in input order, exactly as
    ``np.add.at`` does, so the sums are bit-identical to an ordered loop.
    """
    d = values.shape[1]
    keys = (idx[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(keys, weights=values.ravel(), minlength=num_rows * d)
    # an empty input makes bincount return integers
    return sums.astype(np.float64, copy=False).reshape(num_rows, d)


def gather_rows(a, idx):
    """Select rows of ``a`` by an integer index vector.

    The index may be unsorted and repeat rows; backward sums the gradients of
    repeated rows in index order.
    """
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows: index must be a vector")
    if a.data.ndim != 2:
        raise _shape_err("gather_rows", a.data.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise IndexError(f"gather_rows: index out of range for {a.data.shape[0]} rows")
    out = Tensor(a.data[idx], _parents=(a,))
    out._backward = lambda g: _accum(a, _scatter_add(g, idx, a.data.shape[0]))
    return out


def _check_segments(op, values, segments, num_segments):
    segments = np.asarray(segments, dtype=np.int64)
    if values.data.ndim != 2 or segments.shape != (values.data.shape[0],):
        raise _shape_err(op, values.data.shape, segments.shape)
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise IndexError(f"{op}: segment id out of range for {num_segments} segments")
    return segments


def _segment_starts(op, segments):
    """Ids of the non-empty segments and the row each one starts at.

    ``segments`` must be sorted (CSR order); anything else raises ValueError.
    """
    step = np.diff(segments, prepend=-1)
    if (step < 0).any():
        raise ValueError(f"{op}: segment ids must be sorted")
    starts = np.flatnonzero(step)
    return segments[starts], starts


def segment_sum(values, segments, num_segments):
    """Sum rows of ``values`` into ``num_segments`` buckets keyed by ``segments``.

    Ids may come in any order; each bucket accumulates its rows in input order.
    """
    segments = _check_segments("segment_sum", values, segments, num_segments)
    out = Tensor(_scatter_add(values.data, segments, num_segments), _parents=(values,))
    out._backward = lambda g: _accum(values, g[segments])
    return out


def _transposed(a):
    """C-contiguous copy of the transpose of a 2-D array.

    It copies blocks of 512 rows. numpy's own strided copy of a tall array's
    transpose is several times slower: 14 ms against 4 ms for a 20,000 x 64
    array on a 2-vCPU Xeon VM.
    """
    out = np.empty(a.shape[::-1])
    for i in range(0, a.shape[0], 512):
        out[:, i:i + 512] = a[i:i + 512].T
    return out


def propagate(x, coeff, src, dst, num_nodes, agg):
    """Message passing as one tape node.

    ``out[i, k]`` is the ``agg`` ("sum", "mean" or "max") over the arcs e with
    ``dst[e] == i`` of ``coeff[e, head(k)] * x[src[e], k]``. ``coeff`` is an
    E x H Tensor whose column h weights the h-th of H equal column blocks of
    ``x``, an E x 1 Tensor shared by every column, or None for all ones. A
    node with no in-arcs gets a zero row.

    ``dst`` must be sorted, as ``Graph.edge_dst`` is; unsorted ids raise
    ValueError. Sums add each node's arcs in arc order. Max routes a column's
    gradient to the first arc reaching the node's max, and its value is that
    arc's, so ties and signed zeros follow ``np.maximum.at``.

    The kernels run one column at a time on a transposed copy of ``x``, so no
    E x D array is built or kept: an E-vector per column is gathered by
    ``src``, scaled by its head's coefficients and reduced by ``bincount`` or
    ``reduceat``. Backward skips the products for an operand that needs no
    gradient.
    """
    if agg not in ("sum", "mean", "max"):
        raise ValueError(f"propagate: unknown aggregation {agg!r}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    xd = x.data
    if xd.ndim != 2 or src.ndim != 1 or dst.shape != src.shape:
        raise _shape_err("propagate", xd.shape, src.shape, dst.shape)
    n_x, d = xd.shape
    e = len(src)
    if coeff is not None and (coeff.data.ndim != 2 or coeff.data.shape[0] != e
                              or d % coeff.data.shape[1]):
        raise _shape_err("propagate", xd.shape, coeff.data.shape)
    if e and (src.min() < 0 or src.max() >= n_x):
        raise IndexError(f"propagate: source id out of range for {n_x} rows")
    if e and (dst.min() < 0 or dst.max() >= num_nodes):
        raise IndexError(f"propagate: destination id out of range for {num_nodes} nodes")
    ids, starts = _segment_starts("propagate", dst)

    xt = _transposed(xd)                             # column k of x is row k
    if coeff is None:
        ct = head = None
    else:
        ct = np.ascontiguousarray(coeff.data.T)      # H x E
        head = np.arange(d) // (d // ct.shape[0])    # coefficient row of each column
    yt = np.zeros((d, num_nodes))
    if agg == "max":
        rank = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, e)))
        winners = []                                 # per column: (first arcs, their nodes)
    for k in range(d):
        m = xt[k].take(src)
        if ct is not None:
            m *= ct[head[k]]
        if agg == "max":
            top = np.maximum.reduceat(m, starts)
            yt[k, ids] = top
            # arcs reaching their node's max (none for a NaN max), grouped by node
            hit = np.flatnonzero(m == top[rank])
            node = dst[hit]
            first = np.ones(len(hit), dtype=bool)
            first[1:] = node[1:] != node[:-1]
            last = np.ones(len(hit), dtype=bool)
            last[:-1] = first[1:]
            # np.maximum keeps the later of equal values, so the last tied arc sets
            # the sign of a zero max; the gradient goes to the first
            yt[k, node[last]] = m[hit[last]]
            winners.append((hit[first], node[first]))
        else:
            yt[k] = np.bincount(dst, weights=m, minlength=num_nodes)
    if agg == "mean":
        safe = np.maximum(np.bincount(dst, minlength=num_nodes), 1).astype(np.float64)
        yt /= safe
    out = Tensor(_transposed(yt), _parents=(x,) if coeff is None else (x, coeff))

    def bw(g):
        gt = _transposed(g)
        if agg == "mean":
            gt /= safe
        gx = np.zeros((d, n_x)) if x.requires_grad else None
        gc = np.zeros(ct.shape) if coeff is not None and coeff.requires_grad else None
        for k in range(d):
            if agg == "max":
                rows, node = winners[k]
                gd = gt[k][node]
            else:
                rows, gd = slice(None), gt[k].take(dst)
            if gx is not None:
                w = gd if ct is None else gd * ct[head[k]][rows]
                gx[k] = np.bincount(src[rows], weights=w, minlength=n_x)
            if gc is not None:
                # max winners are distinct arcs within a column, so += adds each once
                gc[head[k], rows] += gd * xt[k].take(src[rows])
        if gx is not None:
            _accum(x, _transposed(gx))
        if gc is not None:
            _accum(coeff, gc.T)

    out._backward = bw
    return out


# -- reductions and selection -------------------------------------------------

def tsum(a):
    out = Tensor(a.data.sum(), _parents=(a,))
    out._backward = lambda g: _accum(a, np.full_like(a.data, float(g)))
    return out


def tmean(a):
    n = a.data.size
    out = Tensor(a.data.mean(), _parents=(a,))
    out._backward = lambda g: _accum(a, np.full_like(a.data, float(g) / n))
    return out


def pick(a, index):
    """Select one scalar entry from a tensor (flat index), keeping gradients."""
    flat = a.data.reshape(-1)
    if not 0 <= index < flat.size:
        raise IndexError(f"pick: index {index} out of range for size {flat.size}")
    out = Tensor(flat[index], _parents=(a,))

    def bw(g):
        acc = np.zeros_like(a.data)
        acc.reshape(-1)[index] = float(g)
        _accum(a, acc)

    out._backward = bw
    return out


# -- losses (fused for numerical stability) -----------------------------------

def softmax_cross_entropy(logits, labels, mask):
    """Mean softmax cross-entropy of integer ``labels`` over masked rows."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("softmax_cross_entropy: empty mask")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = Tensor(-logp[rows, labels[rows]].mean(), _parents=(logits,))
    p = np.exp(logp)

    def bw(g):
        acc = np.zeros_like(logits.data)
        acc[rows] = p[rows]
        acc[rows, labels[rows]] -= 1.0
        _accum(logits, acc * (float(g) / rows.size))

    out._backward = bw
    return out


def sigmoid_bce(logits, targets, mask):
    """Mean elementwise sigmoid binary cross-entropy over masked rows."""
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("sigmoid_bce: empty mask")
    if targets.shape != logits.data.shape:
        raise _shape_err("sigmoid_bce", logits.data.shape, targets.shape)
    x, t = logits.data[rows], targets[rows]
    # softplus(x) - t*x is the stable form of -t*log(s) - (1-t)*log(1-s)
    loss = (np.logaddexp(0.0, x) - t * x).mean()
    out = Tensor(loss, _parents=(logits,))
    n = x.size

    def bw(g):
        acc = np.zeros_like(logits.data)
        acc[rows] = _sigmoid_np(x) - t
        _accum(logits, acc * (float(g) / n))

    out._backward = bw
    return out


ACTIVATIONS = {
    "none": lambda t: t,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softplus": softplus,
    "relu": relu,
    "leaky_relu": lambda t: leaky_relu(t, 0.01),
    "relu6": relu6,
    "elu": elu,
}


def activation_apply(kind, t):
    """Apply one of the candidate activation functions by name."""
    try:
        fn = ACTIVATIONS[kind]
    except KeyError:
        raise ValueError(f"unknown activation kind {kind!r}") from None
    return fn(t)


# -- parameter registry and checkpoints ----------------------------------------

class ParameterStore:
    """Named trainable leaf tensors, grouped (w / a_micro / a_macro)."""

    def __init__(self):
        self._params = {}
        self._groups = {}

    def add(self, name, value, group="w"):
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def names(self, group=None):
        if group is None:
            return list(self._params)
        return [n for n, g in self._groups.items() if g == group]

    def group_of(self, name):
        return self._groups[name]

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def grads(self, group=None):
        """Collect accumulated gradients keyed by parameter name."""
        out = {}
        for n in self.names(group):
            g = self._params[n].grad
            if g is not None:
                out[n] = g
        return out

    # checkpoint container: meta.json + one raw little-endian f64 file per param
    def save(self, directory, extra_meta=None):
        os.makedirs(directory, exist_ok=True)
        meta = {"params": [], "extra": extra_meta or {}}
        for name, t in sorted(self._params.items()):
            fname = name.replace("/", "__") + ".bin"
            t.data.astype("<f8").tofile(os.path.join(directory, fname))
            meta["params"].append(
                {"name": name, "shape": list(t.shape), "group": self._groups[name], "file": fname}
            )
        with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=2, sort_keys=True)

    def load(self, directory):
        """Overwrite every registered parameter from a checkpoint written by ``save``.

        The checkpoint must hold exactly the registered names, each with its
        registered shape and a file of that many values; anything else raises
        CheckpointError and leaves the store unchanged.
        """
        with open(os.path.join(directory, "meta.json"), encoding="utf-8") as f:
            meta = json.load(f)
        recs = {rec["name"]: rec for rec in meta["params"]}
        missing = sorted(set(self._params) - set(recs))
        unknown = sorted(set(recs) - set(self._params))
        if missing or unknown:
            raise CheckpointError(f"checkpoint {directory}: parameter names differ; "
                                  f"missing {missing[:5]}, unknown {unknown[:5]}")
        values = {}
        for name, rec in recs.items():
            shape = tuple(self._params[name].shape)
            if tuple(rec["shape"]) != shape:
                raise CheckpointError(f"checkpoint {directory}: {name} has shape "
                                      f"{tuple(rec['shape'])}, expected {shape}")
            data = np.fromfile(os.path.join(directory, rec["file"]), dtype="<f8")
            if data.size != int(np.prod(shape)):
                raise CheckpointError(f"checkpoint {directory}: {rec['file']} holds "
                                      f"{data.size} values, expected {int(np.prod(shape))}")
            values[name] = data.reshape(shape)
        for name, data in values.items():
            self._params[name].data = data
        return meta.get("extra", {})


def glorot(rng, fan_out, fan_in):
    """Uniform Glorot init for an (fan_out, fan_in) weight matrix."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))
