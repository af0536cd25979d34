"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: exactly the primitives the graph blocks,
controller and router need. Tensors are immutable values; a computation
builds an implicit tape of nodes, one per result a gradient goes through.
A node holds the gradient, the parent nodes and a closure, but not the
value: each closure keeps only the arrays its backward reads, so a value
that no backward reads is freed as soon as the forward drops its Tensor.
``backward`` walks the tape once in reverse topological order, releasing
each node as it goes: a tape serves one backward, and a second walk through
it raises. A result that no gradient-requiring leaf reaches has no node, and
its op computes nothing that only a backward reads; ``ParameterStore.frozen``
turns leaves off for a block of code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from typing import NamedTuple

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for a primitive."""


class CheckpointError(ValueError):
    """Raised when a checkpoint does not match the parameters registered to load it."""


def _shape_err(op, *shapes):
    return ShapeError(f"{op}: incompatible shapes {' vs '.join(str(tuple(s)) for s in shapes)}")


class _Node:
    """The tape entry of one value: its gradient, flag, parent nodes and closure, not the value.

    A closure keeps its parent nodes and the arrays its backward reads, so a
    forward value that no closure saved is freed when the forward drops its
    Tensor. ``shape`` and ``strides`` describe the value for ``_accum``.
    """

    __slots__ = ("grad", "requires_grad", "_parents", "_backward", "shape", "strides",
                 "__weakref__")

    def __init__(self, data, parents=(), backward=None):
        self.grad, self.requires_grad = None, True
        self._parents, self._backward = parents, backward
        self.shape, self.strides = data.shape, data.strides


def _node_field(name, default):
    """A Tensor property for its node's field ``name``, which reads ``default`` without a node."""
    def set_field(t, value):
        if t._node is None:
            raise RuntimeError(f"cannot set {name}: no gradient passes through this tensor")
        setattr(t._node, name, value)

    return property(lambda t: default if t._node is None else getattr(t._node, name), set_field)


class Tensor:
    """A float64 ndarray and, when a gradient goes through it, its tape node."""

    __slots__ = ("data", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        parents = tuple(p._node for p in _parents if p.requires_grad)
        # a result no gradient goes through keeps no tape
        self._node = _Node(self.data, parents, _backward) if parents or requires_grad else None

    # a leaf's gradient and flag, and an op result's parents and closure, live on its node
    grad = _node_field("grad", None)
    requires_grad = _node_field("requires_grad", False)
    _parents = _node_field("_parents", ())
    _backward = _node_field("_backward", None)

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    # -- backward ----------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every grad-requiring leaf.

        ``self`` must be a scalar (size 1) that a grad-requiring leaf reaches;
        a loss that needs no gradient raises ValueError. Each tape node is
        visited exactly once, in reverse topological order. Once its closure
        has run, an inner node drops its gradient, closure and parent links,
        so the values the closure saved and the gradient it consumed are
        freed as soon as nothing else holds them; leaves keep ``.grad``. The
        node's closure is then one that raises RuntimeError: a second backward
        through it, of the same loss or of another that shares the subgraph,
        fails.
        """
        if self.size != 1:
            raise ValueError(f"backward: loss must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise ValueError("backward: no leaf that requires a gradient reaches this loss")
        root = self._node
        topo = []
        seen = set()
        stack = [(root, False)]
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
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            closure, g = node._backward, node.grad
            if closure is None:
                continue
            node._backward, node._parents, node.grad = _spent, (), None
            if g is not None:
                closure(g)


def _spent(g):
    raise RuntimeError("backward: this tape node was released by an earlier backward; "
                       "rebuild the forward to take another gradient")


def _node_of(t):
    """The tape node of ``t`` when a gradient goes to it, else None."""
    return t._node if t.requires_grad else None


def _accum(node, g, owned=False):
    """Add the gradient ``g`` into ``node.grad``, unless the node needs none.

    A first gradient gets + 0.0, which maps -0.0 to +0.0 as zeros + g does.
    ``owned`` says that no one else holds ``g`` (or the array it views): the
    caller allocated it for this call, or it is the closure's upstream
    gradient, which ``backward`` releases when the closure returns. When it
    is an array with the value's strides, the node keeps it and the + 0.0
    runs in place. Anything else is copied into a fresh C-ordered array, the
    layout ``ParameterStore`` gives every parameter and the ops give their
    results: an upstream array already handed to one operand, and numpy's
    0-d operation results, which are scalars.
    """
    if not node.requires_grad:
        return
    if node.grad is not None:
        node.grad += g
    elif owned and isinstance(g, np.ndarray) and g.strides == node.strides:
        node.grad = np.add(g, 0.0, out=g)
    else:
        node.grad = np.add(g, 0.0, out=np.empty(node.shape))


def _unbroadcast(g, shape):
    """The upstream gradient of an operand of ``shape``: ``g`` itself, or a size-1 operand's sum."""
    return g if g.shape == shape else g.sum().reshape(shape)


def _check_ew(op, a, b):
    """Equal shapes, or one size-1 operand with no more axes than the other; no row or column."""
    sa, sb = a.data.shape, b.data.shape
    if not (sa == sb or a.size == 1 and len(sa) <= len(sb) or b.size == 1 and len(sb) <= len(sa)):
        raise _shape_err(op, sa, sb)


# -- elementwise arithmetic --------------------------------------------------

def add(a, b):
    _check_ew("add", a, b)
    nodes = (_node_of(a), _node_of(b))

    def bw(g):
        # one operand keeps the upstream array; the other gets a copy, or adds
        # into it when both are one tensor (x + x gives 2g)
        kept = False
        for t in nodes:
            if t:
                gt = _unbroadcast(g, t.shape)               # a reduction is a fresh array
                _accum(t, gt, owned=gt is not g or not kept)
                kept = kept or t.grad is g

    return Tensor(a.data + b.data, _parents=(a, b), _backward=bw)


def mul(a, b):
    _check_ew("mul", a, b)
    na, nb = _node_of(a), _node_of(b)
    ad, bd = a.data if nb else None, b.data if na else None    # each gradient reads the other

    def bw(g):
        # skip the product for a constant operand, as matmul does
        if na:
            _accum(na, _unbroadcast(g * bd, na.shape), owned=True)
        if nb:
            _accum(nb, _unbroadcast(g * ad, nb.shape), owned=True)

    return Tensor(a.data * b.data, _parents=(a, b), _backward=bw)


def div(a, b):
    _check_ew("div", a, b)
    na, nb, ad, bd = _node_of(a), _node_of(b), a.data, b.data

    def bw(g):
        if na:
            _accum(na, _unbroadcast(g / bd, na.shape), owned=True)
        if nb:
            _accum(nb, _unbroadcast(-g * ad / (bd * bd), nb.shape), owned=True)

    return Tensor(a.data / b.data, _parents=(a, b), _backward=bw)


# -- linear algebra ----------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise _shape_err("matmul", a.data.shape, b.data.shape)

    na, nb = _node_of(a), _node_of(b)
    ad, bd = a.data if nb else None, b.data if na else None    # each gradient reads the other

    def bw(g):
        # skip the product for a constant operand (input features, frozen weights)
        if na:
            _accum(na, g @ bd.T, owned=True)
        if nb:
            _accum(nb, ad.T @ g, owned=True)

    return Tensor(a.data @ b.data, _parents=(a, b), _backward=bw)


def block_diag(a):
    """Map an (H, p, q) stack to the (H*p, H*q) matrix with block h on the diagonal.

    ``x @ block_diag(W)`` applies head h's map W[h] to x's h-th column block,
    for every head in one matmul.
    """
    if a.data.ndim != 3:
        raise _shape_err("block_diag", a.data.shape)
    h, p, q = a.data.shape
    heads, na = np.arange(h), a._node
    y = np.zeros((h, p, h, q))
    y[heads, :, heads, :] = a.data
    return Tensor(y.reshape(h * p, h * q), _parents=(a,),
                  _backward=lambda g: _accum(na, g.reshape(h, p, h, q)[heads, :, heads, :],
                                             owned=True))


# -- nonlinearities ----------------------------------------------------------

def _unary(a, value, derivative):
    """``value`` as a tape node over ``a``, whose gradient is g times ``derivative()``.

    The derivative is computed in the backward: no node's value changes after
    it is built, so it reads the values the forward saw. It reads ``value``
    where it can, so that ``a``'s value is not kept for it. A closure owns its
    upstream array g (``backward`` takes it off the node, and ``add`` gives
    one operand the array and the other a copy), so the derivative is
    multiplied into g.
    """
    na = a._node
    return Tensor(value, _parents=(a,),
                  _backward=lambda g: _accum(na, np.multiply(g, derivative(), out=g), owned=True))


def tanh(a):
    y = np.tanh(a.data)
    return _unary(a, y, lambda: 1.0 - y * y)


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
    return _unary(a, y, lambda: y * (1.0 - y))


# relu, leaky_relu and relu6 read their masks off the output: y > 0 exactly when
# x > 0 (NaN included), and y < 6 exactly when x < 6

def relu(a):
    y = np.maximum(a.data, 0.0)
    return _unary(a, y, lambda: y > 0)                # g * True is g, g * False is g * 0.0


def leaky_relu(a, slope=0.2):
    if not 0 < slope <= 1:
        raise ValueError(f"leaky_relu: slope must be in (0, 1], got {slope}")
    x = a.data
    # for 0 < slope <= 1, max(slope x, x) is x where x > 0 and slope x elsewhere,
    # infinities, signed zeros and NaN included
    y = np.multiply(x, slope, out=np.empty_like(x))     # an array also for a 0-d x
    return _unary(a, np.maximum(y, x, out=y), lambda: np.where(y > 0, 1.0, slope))


def relu6(a):
    y = np.clip(a.data, 0.0, 6.0)
    return _unary(a, y, lambda: (y > 0) & (y < 6))


def elu(a):
    x = a.data
    y = np.expm1(x, out=np.empty_like(x))
    np.putmask(y, x > 0, x)

    def derivative():
        # one transcendental pass: the derivative exp(x) is y + 1 where x <= 0
        # (and y <= 0), and min(y, 0) + 1 = 1 where x > 0
        dy = np.minimum(y, 0.0)
        dy += 1.0
        return dy

    return _unary(a, y, derivative)


def softplus(a):
    x = a.data
    return _unary(a, np.logaddexp(0.0, x), lambda: _sigmoid_np(x))


def softmax_rows(a):
    """Softmax along the last axis."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    na = a._node

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        _accum(na, y * (g - dot), owned=True)

    return Tensor(y, _parents=(a,), _backward=bw)


# -- array helpers -------------------------------------------------------------

def _bincount(keys, weights, shape):
    """``weights`` summed into a zero array of ``shape`` at flat ``keys``, in input order."""
    sums = np.bincount(keys, weights=weights, minlength=shape[0] * shape[1])
    # an empty input makes bincount return integers
    return sums.astype(np.float64, copy=False).reshape(shape)


# -- message passing ---------------------------------------------------------

class _Diagonals(NamedTuple):
    """The arcs grouped by a key in jagged diagonals (Saad's JDS sparse format).

    ``keys`` lists every key by its arc count, largest first (ties by key id),
    and ``degrees`` holds those counts. Diagonal r holds the r-th arc, in arc
    order, of each key with more than r arcs. Those keys are a prefix of
    ``keys``, so diagonal r is the slice ``offsets[r]:offsets[r + 1]`` of
    ``arcs`` and of ``rows``, the input row each of those arcs gathers.
    """
    keys: np.ndarray
    degrees: np.ndarray
    arcs: np.ndarray
    rows: np.ndarray
    offsets: list


def _diagonals(key, gather, num_keys):
    """The layout of the arcs keyed by ``key`` that gather rows ``gather``."""
    grouped = np.argsort(key, kind="stable")            # by key, each key's arcs in arc order
    deg = np.bincount(key, minlength=num_keys)
    keys = np.argsort(-deg, kind="stable")
    slot = np.empty(num_keys, dtype=np.int64)
    slot[keys] = np.arange(num_keys)
    reach = num_keys - np.cumsum(np.bincount(deg))[:-1]    # keys with more than r arcs
    offsets = np.zeros(len(reach) + 1, dtype=np.int64)
    np.cumsum(reach, out=offsets[1:])
    kg = key[grouped]
    rank = np.arange(len(grouped)) - (np.cumsum(deg) - deg)[kg]   # r for the r-th arc
    arcs = np.empty(len(grouped), dtype=np.int64)
    arcs[offsets[rank] + slot[kg]] = grouped
    return _Diagonals(keys, deg[keys], arcs, gather[arcs], offsets.tolist())


class Arcs:
    """The arcs of a message pass, checked once and laid out for ``propagate``.

    Arc e carries row ``src[e]`` of an input with ``num_rows`` rows (by default
    ``num_nodes``) to node ``dst[e]``. ``dst`` must be sorted, so that each
    node's in-arcs are one run: unsorted ids raise ValueError, and ids out of
    range raise IndexError. The jagged-diagonal layouts are built on first use:
    ``incoming`` groups the arcs by ``dst``, ``outgoing`` by ``src``. Every
    per-node reduction over arcs runs on them: ``propagate``'s forward and
    gradients, ``edge_dot``, ``edge_softmax`` and ``gather_rows``' gradient.
    """

    def __init__(self, src, dst, num_nodes, num_rows=None):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        num_rows = num_nodes if num_rows is None else num_rows
        if src.ndim != 1 or dst.shape != src.shape:
            raise _shape_err("Arcs", src.shape, dst.shape)
        if src.size and (src.min() < 0 or src.max() >= num_rows):
            raise IndexError(f"Arcs: source id out of range for {num_rows} rows")
        if dst.size and (dst.min() < 0 or dst.max() >= num_nodes):
            raise IndexError(f"Arcs: destination id out of range for {num_nodes} nodes")
        if (np.diff(dst) < 0).any():
            raise ValueError("Arcs: destination ids must be sorted")
        self.src, self.dst = src, dst
        self.num_nodes, self.num_rows = num_nodes, num_rows

    @functools.cached_property
    def counts(self):
        """In-arcs per node, at least 1, as an n x 1 column: the divisor of mean."""
        counts = np.bincount(self.dst, minlength=self.num_nodes)
        return np.maximum(counts, 1).astype(np.float64)[:, None]

    @functools.cached_property
    def incoming(self):
        return _diagonals(self.dst, self.src, self.num_nodes)

    @functools.cached_property
    def outgoing(self):
        return _diagonals(self.src, self.dst, self.num_rows)


# entries of v gathered per block of keys: 256 KB of float64, which stays in cache
_BLOCK_ENTRIES = 1 << 15


def _diagonal_reduce(v, coef, layout, agg, winners=False):
    """Per key, the max (agg "max") or else the sum of ``v[row(a)] * coef[a]`` over its arcs a.

    With ``_by_arc(layout)``, row(a) is a itself: the reduction of an E-row
    array of per-arc values. ``coef`` is None or holds one row per arc in
    the layout's ``arcs`` order, whose H columns scale H equal column blocks
    of ``v``. Keys are taken in blocks, and a block reduces one diagonal at
    a time. A sum starts at +0.0, so each entry is the sequence of additions
    that ``np.bincount`` makes over the arcs in arc order, signed zeros
    included. A max starts from diagonal 0 and takes ``np.maximum`` with each
    later one, which returns the later operand on ties, as ``np.maximum.at``
    does. A key with no arcs gets zeros.

    Returns the reduced rows and, for a max with ``winners``, per (key,
    column) the first arc reaching the max: the arc its gradient goes to, or
    -1 where there is none (no arcs, or a NaN max). Otherwise the second
    value is None.
    """
    d = v.shape[1]
    keys, offsets = layout.keys, layout.offsets
    out = np.empty((len(keys), d))
    win = np.full((len(keys), d), -1) if agg == "max" and winners else None  # by slot, until the end
    b = max(1, _BLOCK_ENTRIES // d)
    buf, acc = np.empty((2, min(b, len(keys)), d))      # every block's gather buffer and sums
    wr = np.empty(acc.shape if win is not None else (0, d), dtype=np.uint32)   # winners' diagonals
    for k0 in range(0, len(keys), b):
        width = min(b, len(keys) - k0)
        acc[:width] = 0.0
        wr[:width] = 0
        for r in range(layout.degrees[k0]):
            lo = offsets[r] + k0
            c = min(offsets[r + 1] - lo, width)             # this block's keys on diagonal r
            # Arcs checked the ids, and "clip" lets take write into buf unbuffered
            m = v.take(layout.rows[lo:lo + c], axis=0, out=buf[:c], mode="clip")
            if coef is not None:
                mh = m.reshape(c, coef.shape[1], -1)
                mh *= coef[lo:lo + c, :, None]
            if agg != "max":
                acc[:c] += m
            elif r == 0:
                acc[:c] = m
            else:
                if win is not None:                         # the last diagonal to raise the max
                    np.maximum(wr[:c], (m > acc[:c]) * np.uint32(r), out=wr[:c])
                np.maximum(acc[:c], m, out=acc[:c])
        out[keys[k0:k0 + width]] = acc[:width]
        if win is not None and layout.degrees[k0]:
            c = min(offsets[1] - k0, width)                 # this block's keys with arcs
            first = np.asarray(offsets)[wr[:c]]             # where each winner's diagonal starts
            win[k0:k0 + c] = layout.arcs[first + np.arange(k0, k0 + c)[:, None]]
    if win is not None:
        win = win[np.argsort(keys)]                 # by key, as ``out`` is
        win[np.isnan(out)] = -1
    return out, win


def _diagonal_dot(a, b, layout, heads):
    """Per arc, in arc order, the per-head sums of ``a[key] * b[row]``: E x H (the SDDMM).

    Keys run in ``_diagonal_reduce``'s blocks. A block gathers its keys' rows
    of ``a`` once, each diagonal its rows of ``b`` into one reused buffer,
    which it multiplies in place, and a D x H 0/1 matmul sums each head's
    columns.
    """
    d, keys, offsets = a.shape[1], layout.keys, layout.offsets
    head_sum = np.repeat(np.eye(heads), d // heads, axis=0)
    out = np.empty((len(layout.arcs), heads))
    blk = max(1, _BLOCK_ENTRIES // d)
    a_buf, b_buf = np.empty((2, min(blk, len(keys)), d))      # reused by every block
    for k0 in range(0, len(keys), blk):
        width = min(blk, len(keys) - k0)
        ak = a.take(keys[k0:k0 + width], axis=0, out=a_buf[:width], mode="clip")
        for r in range(layout.degrees[k0]):
            lo = offsets[r] + k0
            c = min(offsets[r + 1] - lo, width)
            m = b.take(layout.rows[lo:lo + c], axis=0, out=b_buf[:c], mode="clip")
            m *= ak[:c]
            out[layout.arcs[lo:lo + c]] = m @ head_sum
    return out


def _by_arc(layout):
    """``layout`` with each arc reading its own row: for reducing per-arc values per key."""
    return layout._replace(rows=layout.arcs)


def gather_rows(a, arcs, end):
    """Row ``src[e]`` or ``dst[e]`` of ``a`` for every arc e, by ``end`` ("src" or "dst").

    ``a`` has ``arcs.num_rows`` rows to gather by source and ``arcs.num_nodes``
    by destination; ``Arcs`` checked the ids. The gradient of each row sums
    its arcs' gradients in arc order from +0.0, as ``np.add.at`` does, along
    ``arcs.outgoing`` or ``arcs.incoming``.
    """
    if end not in ("src", "dst"):
        raise ValueError(f"gather_rows: unknown arc end {end!r}")
    rows = arcs.num_rows if end == "src" else arcs.num_nodes
    if a.data.ndim != 2 or a.data.shape[0] != rows:
        raise _shape_err("gather_rows", a.data.shape, (rows, len(arcs.src)))
    na = a._node

    def bw(g):
        layout = arcs.outgoing if end == "src" else arcs.incoming
        _accum(na, _diagonal_reduce(g, None, _by_arc(layout), "sum")[0], owned=True)

    return Tensor(a.data[getattr(arcs, end)], _parents=(a,), _backward=bw)


def propagate(x, coeff, arcs, agg):
    """Message passing as one tape node.

    ``out[i, k]`` is the ``agg`` ("sum", "mean" or "max") over the ``Arcs`` e
    with ``dst[e] == i`` of ``coeff[e, head(k)] * x[src[e], k]``. ``coeff`` is
    an E x H Tensor whose column h weights the h-th of H equal column blocks
    of ``x``, an E x 1 Tensor shared by every column, or None for all ones. A
    node with no in-arcs gets a zero row.

    Every aggregator gathers whole rows of ``x`` along the jagged diagonals
    of ``arcs.incoming``. Each node's sum adds its arcs in arc order from
    +0.0, as ``np.bincount`` does, and the gradient of ``x`` gathers rows of
    the upstream gradient along ``arcs.outgoing``. Max takes the last tied
    arc's value, so ties and signed zeros follow ``np.maximum.at``; its
    gradient goes to the first arc reaching the max, by one row-major
    ``bincount`` per operand. A NaN max routes no gradient.

    No E x D array is built or kept. Backward skips the products for an
    operand that needs no gradient, and a result that needs none records no
    max winners. The node keeps ``x``'s value only for a learned
    coefficient's gradient, and the coefficients only for ``x``'s.
    """
    if agg not in ("sum", "mean", "max"):
        raise ValueError(f"propagate: unknown aggregation {agg!r}")
    xd = x.data
    src = arcs.src
    if xd.ndim != 2 or xd.shape[0] != arcs.num_rows:
        raise _shape_err("propagate", xd.shape, (arcs.num_rows, len(src)))
    n_x, d = xd.shape
    if coeff is not None and (coeff.data.ndim != 2 or coeff.data.shape[0] != len(src)
                              or d % coeff.data.shape[1]):
        raise _shape_err("propagate", xd.shape, coeff.data.shape)
    nx, nc = _node_of(x), coeff and _node_of(coeff)
    heads = 1 if coeff is None else coeff.data.shape[1]
    inc = arcs.incoming
    y, win = _diagonal_reduce(xd, None if coeff is None else coeff.data[inc.arcs], inc, agg,
                              winners=bool(nx or nc))
    if agg == "mean":
        y /= arcs.counts
    xs = xd if nc else None
    cd = coeff.data if coeff is not None and nx else None

    def bw(g):
        if agg == "max":
            # Arc -1, where no arc wins, reads a padding entry (source row n_x,
            # coefficient 0, x read clipped into range) whose bins are dropped, so
            # no mask is built. An x bin adds its terms in arc order, as a scatter-add
            # does; a coefficient's bin holds one node's terms, in column order.
            cols, hd = np.arange(d), d // heads
            at = np.append(src, n_x)[win] * d + cols        # each winner's entry of x
            if nx:
                w = g
                if cd is not None:
                    w = g * np.append(cd, np.zeros((1, heads)), axis=0)[win, cols // hd]
                _accum(nx, _bincount(at.ravel(), w.ravel(), (n_x + 1, d))[:n_x], owned=True)
            if nc:
                xw = g * xs.take(at, mode="clip")
                _accum(nc, _bincount(((win + 1) * heads + cols // hd).ravel(), xw.ravel(),
                                        (len(src) + 1, heads))[1:], owned=True)
            return
        if agg == "mean":
            g /= arcs.counts
        if nx:
            outg = arcs.outgoing
            _accum(nx, _diagonal_reduce(g, None if cd is None else cd[outg.arcs],
                                        outg, "sum")[0], owned=True)
        if nc:
            _accum(nc, _diagonal_dot(g, xs, inc, heads), owned=True)

    return Tensor(y, _parents=(x,) if coeff is None else (x, coeff), _backward=bw)


def edge_dot(a, b, arcs, heads):
    """Per arc e and head h, ``sum_{k in h} a[dst[e], k] * b[src[e], k]``, as one E x H tape node.

    ``a`` has ``arcs.num_nodes`` rows, ``b`` ``arcs.num_rows``, and ``heads``
    equal column blocks split their D columns. Each operand's gradient sums its
    arcs' terms in arc order from +0.0, as ``np.add.at`` does.
    """
    ad, bd = a.data, b.data
    if (ad.ndim != 2 or ad.shape[0] != arcs.num_nodes or bd.shape != (arcs.num_rows, ad.shape[1])
            or not 0 < heads <= ad.shape[1] or ad.shape[1] % heads):
        raise _shape_err("edge_dot", ad.shape, bd.shape, (len(arcs.src), heads))
    nodes = ((_node_of(a), bd, "incoming"), (_node_of(b), ad, "outgoing"))

    def bw(g):
        for t, other, end in nodes:
            if t:
                layout = getattr(arcs, end)
                _accum(t, _diagonal_reduce(other, g[layout.arcs], layout, "sum")[0], owned=True)

    return Tensor(_diagonal_dot(ad, bd, arcs.incoming, heads), _parents=(a, b), _backward=bw)


def edge_softmax(scores, arcs):
    """Softmax of E x H per-arc ``scores`` over each node's in-arcs, per column, as one tape node.

    Every per-node reduction runs on the jagged diagonals of
    ``arcs.incoming``. Each node's scores are shifted by their max (a
    constant, as softmax is shift-invariant; a non-finite max shifts by 0),
    and the sums of their exponentials add in arc order from +0.0. The
    gradient is y * (g - s[dst]), where s sums g * y over each node's in-arcs.
    """
    s, dst = scores.data, arcs.dst
    if s.ndim != 2 or s.shape[0] != len(dst):
        raise _shape_err("edge_softmax", s.shape, dst.shape)
    inc = _by_arc(arcs.incoming)
    m = _diagonal_reduce(s, None, inc, "max")[0]
    m[~np.isfinite(m)] = 0.0
    e = np.exp(s - m[dst])
    y = e / _diagonal_reduce(e, None, inc, "sum")[0][dst]
    ns = scores._node

    def bw(g):
        g -= _diagonal_reduce(g * y, None, inc, "sum")[0][dst]
        _accum(ns, np.multiply(g, y, out=g), owned=True)     # (g - s[dst]) y = y (g - s[dst])

    return Tensor(y, _parents=(scores,), _backward=bw)


# -- reductions and selection -------------------------------------------------

def tsum(a):
    na = a._node
    return Tensor(a.data.sum(), _parents=(a,),
                  _backward=lambda g: _accum(na, np.full(na.shape, float(g)), owned=True))


def pick(a, index):
    """Select one scalar entry from a tensor (flat index), keeping gradients."""
    flat = a.data.reshape(-1)
    if not 0 <= index < flat.size:
        raise IndexError(f"pick: index {index} out of range for size {flat.size}")
    na = a._node

    def bw(g):
        acc = np.zeros(na.shape)
        acc.reshape(-1)[index] = float(g)
        _accum(na, acc, owned=True)

    return Tensor(flat[index], _parents=(a,), _backward=bw)


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
    nl = logits._node

    def bw(g):
        acc = np.zeros(nl.shape)
        acc[rows] = np.exp(logp[rows])
        acc[rows, labels[rows]] -= 1.0
        acc *= float(g) / rows.size
        _accum(nl, acc, owned=True)

    return Tensor(-logp[rows, labels[rows]].mean(), _parents=(logits,), _backward=bw)


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
    n, nl = x.size, logits._node

    def bw(g):
        acc = np.zeros(nl.shape)
        acc[rows] = _sigmoid_np(x) - t
        acc *= float(g) / n
        _accum(nl, acc, owned=True)

    return Tensor(loss, _parents=(logits,), _backward=bw)


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
        # C order, as matmul's products are: _accum keeps a first gradient of equal strides
        t = Tensor(np.array(value, dtype=np.float64, order="C"), requires_grad=True)
        self._params[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name):
        return self._params[name]

    def names(self, group=None):
        if group is None:
            return list(self._params)
        return [n for n, g in self._groups.items() if g == group]

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    @contextlib.contextmanager
    def frozen(self, names):
        """Within the block, the named leaves need no gradient.

        A result built only from frozen leaves and constants keeps no tape,
        and a backward run inside the block gives them no ``.grad``. The
        flags are restored on exit, also when the block raises.
        """
        leaves = [self._params[n] for n in names]
        flags = [t.requires_grad for t in leaves]
        for t in leaves:
            t.requires_grad = False
        try:
            yield
        finally:
            for t, flag in zip(leaves, flags):
                t.requires_grad = flag

    def grads(self, group=None):
        """The accumulated gradients of ``group``'s parameters (default all), keyed by name."""
        grads = {n: self._params[n].grad for n in self.names(group)}
        return {n: g for n, g in grads.items() if g is not None}

    # checkpoint container: meta.json + one raw little-endian f64 file per param
    def save(self, directory, extra_meta=None):
        os.makedirs(directory, exist_ok=True)
        meta = {"layout": "in_out", "params": [], "extra": extra_meta or {}}   # maps are (in, out)
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

        The checkpoint must name the in_out layout and hold exactly the registered names,
        each with its registered shape and a file of that many values; anything else
        raises CheckpointError and leaves the store unchanged.
        """
        with open(os.path.join(directory, "meta.json"), encoding="utf-8") as f:
            meta = json.load(f)
        if meta.get("layout") != "in_out":   # a square map's shape cannot tell the layouts apart
            raise CheckpointError(f"checkpoint {directory}: weight layout {meta.get('layout')!r}, "
                                  "expected 'in_out'; one that names none stores maps (out, in)")
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


def glorot(rng, rows, cols):
    """Uniform Glorot draw of a (rows, cols) matrix; a map drawn (out, in) stores its transpose."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))
