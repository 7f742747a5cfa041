"""Spatial scalar and tensor fields over a box domain.

Every field is a jet function ``(pts, order) -> jets``, giving the truncated
Taylor expansions (Taylor-mode automatic differentiation) of the fields that
share it, such as a vector's or tensor's components, and an index into that
list.  ``eval``, ``grad``, ``hess`` and ``derivative_stack`` each read one
call of it, so ``hess`` is the order-2 derivative stack written to both
triangles and is symmetric for every field.  The jet functions are:

* ``_constant_jets`` -- a value everywhere; its jet is that float,
* ``_text_jets`` -- a pass over the tape of ``parse_expression``, which
  reads text with ``ast`` (nothing in it is run) and refuses, with
  ConfigError, any node outside the grammar (README, "Expression grammar"),
* ``_grid_jets`` -- values sampled on a regular lattice over
  [0,Lx]x[0,Ly]x[0,Lz], up to order 2.  Each node holds the derivative
  stacks of degree 0, 1 and 2: second-order finite differences (one-sided
  at the faces), and the Hessian's upper triangle only.  The degree 1 and 2
  rows are built on the first call of order >= 1, so a field evaluated
  only at order 0 (as ``solve`` evaluates B) keeps its values alone.  A
  call locates each point, clipped to the box, once and interpolates every
  component's stacks trilinearly together.

Grid file format (plain text): a header line ``nx ny nz Lx Ly Lz`` with the
node counts per axis, then ``nx*ny*nz`` whitespace-separated records in
C order over (ix, iy, iz) -- z index fastest.  One number per record for a
scalar field, six (``a11 a22 a33 a12 a13 a23``) for a symmetric tensor.
A file that does not parse, has fewer than 2 nodes on an axis or no
records, or whose box is not finite and positive, raises ConfigError.

Fields are read-only after construction; concurrent evaluation is safe.
"""

from __future__ import annotations

import ast
import collections
import functools
import itertools
import math

import numpy as np

from .errors import ConfigError, NonDifferentiableField
from .tensors import SymTensor3

__all__ = [
    "ScalarField",
    "TensorField",
    "VectorField",
    "parse_expression",
    "COMPONENT_ORDER",
]

# Storage/file order of the six independent components of a symmetric tensor.
COMPONENT_ORDER = ("a11", "a22", "a33", "a12", "a13", "a23")
_COMP_INDEX = {
    "a11": (0, 0), "a22": (1, 1), "a33": (2, 2),
    "a12": (0, 1), "a13": (0, 2), "a23": (1, 2),
}
# Column of d_i d_j in an order-2 derivative stack (xx, xy, xz, yy, yz, zz).
_HESS_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# Index into a derivative stack of order 0, 1, 2 giving eval, grad, hess.
_UNPACK = (0, slice(None), _HESS_INDEX)


# -- the expression grammar ------------------------------------------------------
# A tape lists nodes children first: ("num", value), ("var", axis), and
# (op, *argument positions) for op in add, mul, pow, sin, cos, exp.

_NAMES = {"x": ("var", 0), "y": ("var", 1), "z": ("var", 2),
          "pi": np.float64(np.pi), "E": np.float64(np.e), "nan": np.float64(np.nan)}
_FUNCS = ("sin", "cos", "exp")
_BINOPS = {ast.Add: "add", ast.Sub: "add", ast.Mult: "mul", ast.Div: "mul",
           ast.Pow: "pow"}  # a - b = a + (-1) b, a / b = a b**(-1)
_MINUS_ONE = np.float64(-1.0)
_SYNTAX = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.UAdd, ast.USub, ast.Load,
           *_BINOPS)


def _tape(texts) -> tuple:
    """One tape for all ``texts``, and the position of each text's root."""
    tape, index, roots = [], {}, []

    def emit(tag, *args):
        """The tape position of (tag, *args), whose operands are positions or
        floats; a float if every operand is one."""
        if tag not in ("num", "var"):
            if all(isinstance(a, float) for a in args):
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    return _node_jet((tag,), args, None, 0, ())
            args = [emit("num", a) if isinstance(a, float) else a for a in args]
        if (tag, *args) not in index:
            index[tag, *args] = len(tape)
            tape.append((tag, *args))
        return index[tag, *args]

    for text in map(str, texts):
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except (SyntaxError, RecursionError) as exc:
            raise ConfigError(f"cannot parse expression {text!r}: {exc}") from None
        nodes, funcs = list(ast.walk(tree)), set()
        for node in nodes:  # breadth first, so the outermost refused node is named
            if isinstance(node, ast.Constant):
                ok = type(node.value) in (int, float)
            elif isinstance(node, ast.Call):  # sin, cos or exp of one argument
                ok = getattr(node.func, "id", "") in _FUNCS and len(node.args) == 1
                funcs.add(node.func)
            elif isinstance(node, ast.Name):
                ok = node.id in _NAMES or node in funcs
            else:
                ok = isinstance(node, _SYNTAX)
            if not ok:
                what = f"{type(node).__name__} {ast.unparse(node)}".strip()
                raise ConfigError(f"expression {text!r} uses {what}, which is "
                                  f"outside the expression grammar")
        built = {}  # ast node -> tape position or float, children first
        for node in reversed(nodes):
            try:
                if isinstance(node, ast.Constant):
                    built[node] = np.float64(node.value)
                elif isinstance(node, ast.Name) and node not in funcs:
                    name = _NAMES[node.id]
                    built[node] = name if isinstance(name, float) else emit(*name)
                elif isinstance(node, ast.Call):
                    built[node] = emit(node.func.id, built[node.args[0]])
                elif isinstance(node, ast.UnaryOp):
                    a = built[node.operand]
                    built[node] = (a if isinstance(node.op, ast.UAdd)
                                   else emit("mul", _MINUS_ONE, a))
                elif isinstance(node, ast.BinOp):
                    b = built[node.right]
                    if isinstance(node.op, ast.Sub):
                        b = emit("mul", _MINUS_ONE, b)
                    elif isinstance(node.op, ast.Div):
                        b = emit("pow", b, _MINUS_ONE)
                    built[node] = emit(_BINOPS[type(node.op)], built[node.left], b)
            except (FloatingPointError, OverflowError) as exc:
                raise ConfigError(f"expression {text!r} uses {ast.unparse(node)}, "
                                  f"which has no finite real value ({exc})") from None
        root = built[tree.body]
        roots.append(emit("num", root) if isinstance(root, float) else root)
    return tape, roots


def parse_expression(text: str) -> list:
    """The tape of one expression text, its root last."""
    tape, _ = _tape([text])
    return tape


# -- truncated Taylor arithmetic ----------------------------------------------
# A jet holds c_alpha = d^alpha f / alpha! for every |alpha| <= order, one row
# per multi-index (graded, combinations_with_replacement order within a
# degree), one column per sample point.  Constants stay np.float64 scalars.


@functools.lru_cache(maxsize=None)
def _multi_indices(degree: int) -> tuple:
    """(combo, alpha, alpha!) for each multi-index of ``degree``, in
    derivative-stack order (combinations_with_replacement of the axes)."""
    return tuple((combo, alpha, math.prod(map(math.factorial, alpha)))
                 for combo in itertools.combinations_with_replacement(range(3), degree)
                 for alpha in [tuple(combo.count(k) for k in range(3))])


@functools.lru_cache(maxsize=None)
def _taylor_tables(order: int):
    """({alpha: row}, and per output row the (i, j) rows of its factor pairs)."""
    monos = [alpha for deg in range(order + 1) for _, alpha, _ in _multi_indices(deg)]
    row = {a: i for i, a in enumerate(monos)}
    pairs = [[] for _ in monos]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            s = tuple(p + q for p, q in zip(a, b))
            if s in row:
                pairs[row[s]].append((i, j))
    return row, tuple(map(tuple, pairs))


def _jet_derivative(a, k: int, order: int):
    """d_k of the ``order`` jet ``a``: an ``order - 1`` jet whose row alpha is
    (alpha_k + 1) times row alpha + e_k of ``a``."""
    if isinstance(a, float):
        return np.float64(0.0)
    row, _ = _taylor_tables(order)
    shifted = [tuple(n + (i == k) for i, n in enumerate(alpha))
               for alpha in _taylor_tables(order - 1)[0]]
    return np.stack([beta[k] * a[row[beta]] for beta in shifted])


def _jet_sum(*terms):
    """Sum of jets; constants add to row 0 only, starting from -0.0, the
    identity of IEEE addition, which keeps the sign of a zero."""
    const = sum((t for t in terms if isinstance(t, float)), np.float64(-0.0))
    arrays = [t for t in terms if not isinstance(t, float)]
    if not arrays:
        return const
    out = arrays[0].copy()
    for a in arrays[1:]:
        out += a
    out[0] += const
    return out


def _jet_mul(a, b, pairs):
    if isinstance(a, float) or isinstance(b, float):
        return a * b
    out = np.empty_like(a)
    for g, pl in enumerate(pairs):
        i, j = pl[0]
        np.multiply(a[i], b[j], out=out[g])
        for i, j in pl[1:]:
            out[g] += a[i] * b[j]
    return out


def _jet_series(a, coeffs, pairs):
    """sum_k coeffs[k] h^k with h = a - a(0); coeffs[k] = g^(k)(a0) / k!."""
    h = a.copy()
    h[0] = 0.0
    out = np.zeros_like(a)
    out[0] = coeffs[0]
    hk = h
    for k in range(1, len(coeffs)):
        out += coeffs[k] * hk
        if k + 1 < len(coeffs):
            hk = _jet_mul(hk, h, pairs)
    return out


def _jet_pow(a, p, order, pairs):
    if isinstance(a, float):
        return a ** p
    if float(p).is_integer():
        n = int(p)
        if n < 0:  # reciprocal series, then repeated products
            a = _jet_series(a, [(-1.0) ** k * a[0] ** (-k - 1)
                                for k in range(order + 1)], pairs)
            n = -n
        out = 1.0
        for _ in range(n):
            out = _jet_mul(out, a, pairs)
        return out
    coeffs, binom = [], 1.0  # binomial series about the base's value
    for k in range(order + 1):
        coeffs.append(binom * a[0] ** (p - k))
        binom *= (p - k) / (k + 1)
    return _jet_series(a, coeffs, pairs)


def _jet_func(func: str, a, order, pairs):
    """exp, log, sin or cos of a jet through its series about a's value."""
    a0 = a if isinstance(a, float) else a[0]
    if func == "exp":
        e = np.exp(a0)
        coeffs = [e / math.factorial(k) for k in range(order + 1)]
    elif func == "log":  # reached only through a**b = exp(b log a)
        coeffs = [np.log(a0)] + [(-1.0) ** (k + 1) / (k * a0 ** k)
                                 for k in range(1, order + 1)]
    else:  # sin^(k)(t) = sin(t + k pi/2), cos^(k)(t) = sin(t + (k+1) pi/2)
        shifts = [(k + (func == "cos")) % 4 for k in range(order + 1)]
        # sin(a0) and cos(a0), each only if a coefficient reads it
        sc = {j: (np.sin, np.cos)[j](a0) for j in {m % 2 for m in shifts}}
        coeffs = [(sc[m % 2] if m < 2 else -sc[m % 2]) / math.factorial(k)
                  for k, m in enumerate(shifts)]
    return coeffs[0] if isinstance(a, float) else _jet_series(a, coeffs, pairs)


def _node_jet(node, args, pts, order, pairs):
    """The jet of a tape node at ``pts`` from its arguments' jets."""
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        val = np.zeros((len(pairs), pts.shape[0]))
        val[0] = pts[:, node[1]]
        if order:
            val[1 + node[1]] = 1.0
        return val
    if tag == "add":
        return _jet_sum(*args)
    if tag == "mul":
        return _jet_mul(*args, pairs)
    if tag == "pow" and isinstance(args[1], float):
        return _jet_pow(*args, order, pairs)
    if tag == "pow":  # a**b = exp(b log a)
        return _jet_func("exp", _jet_mul(
            args[1], _jet_func("log", args[0], order, pairs), pairs), order, pairs)
    return _jet_func(tag, args[0], order, pairs)


def _operands(node) -> tuple:
    """The tape positions a node reads."""
    return () if node[0] in ("num", "var") else node[1:]


def _text_jets(texts):
    """The jet function of ``texts``: one pass over their shared tape gives
    one jet per text.  A node's jet is kept only while a later node still
    reads it."""
    tape, roots = _tape(texts)
    uses = collections.Counter(a for node in tape for a in _operands(node))
    uses.update(roots)

    def jets(pts, order):
        _, pairs = _taylor_tables(order)
        vals, left = {}, uses.copy()
        for k, node in enumerate(tape):
            vals[k] = _node_jet(node, [vals[a] for a in _operands(node)],
                                pts, order, pairs)
            for a in _operands(node):
                left[a] -= 1
                if not left[a]:
                    del vals[a]
        return [vals[r] for r in roots]

    return jets


def _constant_jets(values):
    """The jet function of constant fields, one per value: at every order a
    constant's jet is its value, a float."""
    values = [np.float64(v) for v in values]
    return lambda pts, order: values


def _grid_jets(values, box):
    """The jet function, up to order 2, of the fields sampled at the nodes of
    a regular lattice over ``box`` = (Lx, Ly, Lz); ``values`` is (nx, ny, nz,
    n_fields).

    Each node holds each field's derivative stacks of degree 0, 1 and 2:
    the value, its second-order finite differences (one-sided at the faces),
    and the upper triangle d_l (d_k f), k <= l, of the differences of those.
    Only the values are kept at first; the first call of order >= 1 builds
    the other rows, which later calls share.  A call locates each point,
    clipped to the box, in its cell once and interpolates every field's rows
    together; the cell search, weights and summation order are
    ``scipy.interpolate.RegularGridInterpolator``'s linear method, so the
    results are its results bit for bit."""
    if values.ndim != 4 or min(values.shape[:3]) < 2:
        raise ConfigError("grid fields need a 3-d array with >= 2 nodes per axis")
    if len(box) != 3 or not all(math.isfinite(b) and b > 0 for b in box):
        raise ConfigError(f"grid box edges must be finite and positive, got {box}")
    shape, n_fields = values.shape[:3], values.shape[3]
    axes = [np.linspace(0.0, b, n) for b, n in zip(box, shape)]

    def diff(data, k):  # two-node axes can only support first-order edges
        return np.gradient(data, axes[k], axis=k, edge_order=2 if shape[k] >= 3 else 1)

    # value_rows[field, 0, node]: a C-ordered copy, so np.take copies
    # nothing more; all that a field keeps until a derivative is asked
    value_rows = np.array(values.reshape(-1, n_fields).T, order="C")[:, None]
    value_rows.flags.writeable = False

    @functools.cache
    def all_rows():
        """table[field, row, node], the ten rows in a jet's order.  Two
        concurrent first calls may each build it, bit for bit alike.  A
        non-finite node value gives non-finite differences, which the
        positivity checks refuse, so numpy need not warn about them first."""
        vals = value_rows[:, 0].T.reshape(shape + (n_fields,))
        table = np.empty((n_fields, 10, math.prod(shape)))
        with np.errstate(invalid="ignore", over="ignore"):
            grads = [diff(vals, k) for k in range(3)]
            hess = [diff(grads[k], l) for (k, l), _, _ in _multi_indices(2)]
            for row, stack in enumerate([vals, *grads, *hess]):
                table[:, row] = stack.reshape(-1, n_fields).T
        table.flags.writeable = False
        return table

    # row alpha of a jet is d^alpha f / alpha!, which is 1 below degree 2
    scale = np.array([s for d in range(3) for _, _, s in _multi_indices(d)], float)
    ny, nz = shape[1:]

    def jets(pts, order):
        if order > 2:
            raise NonDifferentiableField(
                f"grid fields provide derivatives up to order 2, not {order}")
        base, fracs = 0, []
        for k, axis in enumerate(axes):
            p = np.clip(pts[:, k], 0.0, box[k])
            i = np.clip(np.searchsorted(axis, p, side="right") - 1, 0, shape[k] - 2)
            fracs.append((p - axis[i]) / (axis[i + 1] - axis[i]))
            base = base * shape[k] + i
        rows = len(_taylor_tables(order)[0])
        table = all_rows()[:, :rows] if order else value_rows
        out = np.zeros((n_fields, rows, len(base)))
        for corner in itertools.product((0, 1), repeat=3):
            wx, wy, wz = (f if c else 1 - f for c, f in zip(corner, fracs))
            term = np.take(table, base + (corner[0] * ny + corner[1]) * nz + corner[2],
                           axis=-1)
            term *= wx * wy * wz
            out += term
        if order == 2:
            out /= scale[:, None]
        return list(out)

    return jets


def _field_jets(fields, pts, order) -> list:
    """The ``order`` jet at the (N, 3) ``pts`` of each field; fields that
    share a jet function run it once."""
    runs = {fn: fn(pts, order) for fn in dict.fromkeys(fld.jets for fld in fields)}
    return [runs[fld.jets][fld.index] for fld in fields]


def _jet_stack(jet, n: int, degree: int, order: int) -> np.ndarray:
    """The derivative stack (n, n_multi) of degree ``degree`` of an
    ``order`` jet at n points: column alpha is alpha! times its c_alpha."""
    multi = _multi_indices(degree)
    if isinstance(jet, float):
        return np.full((n, len(multi)), jet if degree == 0 else 0.0)
    row, _ = _taylor_tables(order)
    return np.stack([scale * jet[row[alpha]] for _, alpha, scale in multi], axis=-1)


def _jet_array(jet, n: int, degree: int, order: int) -> np.ndarray:
    """The values (n,), gradients (n, 3) or Hessians (n, 3, 3), for degree
    0, 1 or 2, of an ``order`` jet at n points; a Hessian is symmetric."""
    return _jet_stack(jet, n, degree, order)[:, _UNPACK[degree]]


def _symmetric_stack(t: dict, n: int, degree: int, order: int) -> np.ndarray:
    """(n, *(3,) * degree, 3, 3) stack of the ``_jet_array`` of each entry of
    a symmetric tensor with ``order`` jets ``t`` = {(i, j): jet}, read from
    the upper triangle and written to both triangles."""
    out = np.empty((n,) + (3,) * degree + (3, 3))
    for i, j in _COMP_INDEX.values():
        out[..., i, j] = out[..., j, i] = _jet_array(t[i, j], n, degree, order)
    return out


def _derivative_stacks(fields, pts, order: int) -> list:
    """Each field's ``derivative_stack(pts, order)``, from one ``_field_jets``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return [_jet_stack(jet, pts.shape[0], order, order)
            for jet in _field_jets(fields, pts, order)]


def _field_arrays(fields, pts, degree: int) -> list:
    """Each field's values, gradients or Hessians (``_jet_array``) at ``pts``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return [_jet_array(jet, pts.shape[0], degree, degree)
            for jet in _field_jets(fields, pts, degree)]


class ScalarField:
    """Scalar field: jet ``index`` of the jet function ``jets``; ``box`` is a
    grid field's (Lx, Ly, Lz)."""

    def __init__(self, jets, index: int = 0, box=None):
        self.jets = jets
        self.index = index
        self.box = box

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        return cls(_constant_jets([value]))

    @classmethod
    def expression(cls, text) -> "ScalarField":
        return cls(_text_jets([text]))

    @classmethod
    def grid(cls, values: np.ndarray, box) -> "ScalarField":
        box = tuple(float(b) for b in box)
        return cls(_grid_jets(np.asarray(values, dtype=float)[..., None], box), box=box)

    @classmethod
    def from_file(cls, path) -> "ScalarField":
        jets, box = _read_grid_file(path, ncomp=1)
        return cls(jets, box=box)

    # -- evaluation ---------------------------------------------------------
    def eval(self, pts) -> np.ndarray:
        return _field_arrays([self], pts, 0)[0]

    def grad(self, pts) -> np.ndarray:
        """First derivatives, shape (N, 3)."""
        return _field_arrays([self], pts, 1)[0]

    def hess(self, pts) -> np.ndarray:
        """Second derivatives, shape (N, 3, 3)."""
        return _field_arrays([self], pts, 2)[0]

    def derivative_stack(self, pts, order: int) -> np.ndarray:
        """All distinct derivatives of the given order, shape (N, n_multi).

        Multi-indices are enumerated once each (no repetition), matching the
        derivative-tensor convention used by the dimensional norms.  Grid
        fields support order <= 2; expressions any order, by truncated
        Taylor arithmetic (column alpha is alpha! times the jet's c_alpha).
        """
        return _derivative_stacks([self], pts, order)[0]


class TensorField:
    """Symmetric 3x3 tensor field over the box.

    Evaluation returns full (N, 3, 3) symmetric stacks; derivative layouts
    are ``grad -> (N, 3, 3, 3)`` indexed [n, k, i, j] = d_k B_ij and
    ``hess -> (N, 3, 3, 3, 3)`` indexed [n, k, l, i, j].  ``kind`` labels
    the field "constant", "expression" or "grid".
    """

    def __init__(self, kind, jets, box=None):
        self.kind = kind
        # the six components' jets, in COMPONENT_ORDER, are those of ``jets``
        self.components = {name: ScalarField(jets, i, box)
                           for i, name in enumerate(COMPONENT_ORDER)}
        self.box = box

    @classmethod
    def constant(cls, value) -> "TensorField":
        if not isinstance(value, SymTensor3):
            value = SymTensor3.from_matrix(np.asarray(value, dtype=float))
        return cls("constant", _constant_jets([getattr(value, name)
                                               for name in COMPONENT_ORDER]))

    @classmethod
    def identity(cls) -> "TensorField":
        return cls.constant(SymTensor3.identity())

    @classmethod
    def expression(cls, comps) -> "TensorField":
        """Build from a mapping of component names to expression strings.

        Missing components default to zero; a name outside COMPONENT_ORDER
        is refused.
        """
        for name in comps:
            if name not in COMPONENT_ORDER:
                raise ConfigError(f"tensor component {name!r} is not one of "
                                  f"{', '.join(COMPONENT_ORDER)}")
        return cls.from_jets(_text_jets([comps.get(name, "0")
                                         for name in COMPONENT_ORDER]))

    @classmethod
    def from_jets(cls, jets) -> "TensorField":
        """The field whose ``jets(pts, order)`` are its six components' jets,
        in COMPONENT_ORDER."""
        return cls("expression", jets)

    @classmethod
    def from_file(cls, path) -> "TensorField":
        return cls("grid", *_read_grid_file(path, ncomp=6))

    def jets(self, pts, order) -> dict:
        """{(i, j): jet} of all nine entries at the (N, 3) ``pts``."""
        upper = dict(zip(_COMP_INDEX.values(),
                         _field_jets(self.components.values(), pts, order)))
        return {(i, j): upper[min(i, j), max(i, j)] for i in range(3) for j in range(3)}

    def _symmetric(self, pts, degree: int) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return _symmetric_stack(self.jets(pts, degree), pts.shape[0], degree, degree)

    def eval(self, pts) -> np.ndarray:
        return self._symmetric(pts, 0)

    def grad(self, pts) -> np.ndarray:
        return self._symmetric(pts, 1)

    def hess(self, pts) -> np.ndarray:
        return self._symmetric(pts, 2)


class VectorField:
    """Three-component vector field built from scalar fields."""

    def __init__(self, components):
        self.components = tuple(components)
        if len(self.components) != 3:
            raise ConfigError("vector fields need exactly three components")

    @classmethod
    def constant(cls, vx: float, vy: float, vz: float) -> "VectorField":
        return cls([ScalarField.constant(v) for v in (vx, vy, vz)])

    @classmethod
    def zero(cls) -> "VectorField":
        return cls.constant(0.0, 0.0, 0.0)

    @classmethod
    def expression(cls, texts) -> "VectorField":
        texts = list(texts)
        jets = _text_jets(texts)
        return cls([ScalarField(jets, i) for i in range(len(texts))])

    @classmethod
    def from_jets(cls, jets) -> "VectorField":
        """The field whose ``jets(pts, order)`` are its three components' jets."""
        return cls([ScalarField(jets, i) for i in range(3)])

    def eval(self, pts) -> np.ndarray:
        return np.stack(_field_arrays(self.components, pts, 0), axis=-1)

    def grad(self, pts) -> np.ndarray:
        """Velocity-gradient layout (N, i, c) = d_c v_i."""
        return np.stack(_field_arrays(self.components, pts, 1), axis=-2)


def _read_grid_file(path, ncomp: int):
    """The ``_grid_jets`` of the ``ncomp`` component fields of a grid file,
    and its box."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 6:
                raise ConfigError("header must be 'nx ny nz Lx Ly Lz'")
            shape = tuple(int(v) for v in header[:3])
            box = tuple(float(v) for v in header[3:])
            if min(shape) < 2:
                raise ConfigError(f"header {' '.join(header)!r}: node counts "
                                  f"must be at least 2")
            # the first line that holds more than a comment
            first = next((line for line in fh if line.split("#", 1)[0].strip()), None)
            if first is None:
                raise ConfigError(f"header {' '.join(header)!r} has no records after it")
            data = np.loadtxt(itertools.chain([first], fh), dtype=float, ndmin=2)
        if ncomp == 1 and data.shape[1] != 1:
            data = data.reshape(-1, 1)
        if data.shape != (math.prod(shape), ncomp):
            raise ConfigError(
                f"expected {math.prod(shape)} records of {ncomp} values, "
                f"got shape {data.shape}"
            )
        return _grid_jets(data.reshape(shape + (ncomp,)), box), box
    except ConfigError as exc:  # a malformed header or record count, or a refused box
        raise ConfigError(f"{path}: {exc}") from None
    except (OSError, ValueError) as exc:  # unreadable text, numbers or node counts
        raise ConfigError(f"{path}: cannot read grid file: {exc}") from exc


def write_grid_file(path, values: np.ndarray, box) -> None:
    """Write a grid field file; ``values`` is (nx, ny, nz) or (nx, ny, nz, 6)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 3:
        values = values[..., None]
    nx, ny, nz, ncomp = values.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{nx} {ny} {nz} {box[0]:.17g} {box[1]:.17g} {box[2]:.17g}\n")
        flat = values.reshape(-1, ncomp)
        for row in flat:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
