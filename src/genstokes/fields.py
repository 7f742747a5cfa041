"""Spatial scalar and tensor fields over a box domain.

Three representations share one evaluation interface:

* ``constant`` -- a single value everywhere,
* ``expression`` -- a closed-form expression in x, y, z (sympy-backed).
  ``eval``, ``grad``, ``hess`` and ``derivative_stack`` all run one pass of
  truncated Taylor arithmetic (Taylor-mode automatic differentiation) over
  the expression DAG, exact up to rounding; values are the pass's order-0
  row, and nothing is differentiated symbolically.  The pass has a rule for
  x, y, z, numbers and numeric constants such as pi, sums, products, powers
  (integral exponents as repeated products, others as a binomial series,
  symbolic exponents as exp(b log a)) and sin/cos/exp.  Those nodes are the
  grammar of ``parse_expression``, which refuses any other node with
  ConfigError, checking the text's Python syntax before sympy evaluates it;
  an expression built in sympy that holds another node raises
  NonDifferentiableField when evaluated,
* ``grid`` -- values sampled on a regular lattice over [0,Lx]x[0,Ly]x[0,Lz],
  with second-order finite-difference derivatives (one-sided at the faces)
  tabulated per node at construction; values and derivatives are
  interpolated trilinearly at points clipped to the box.

Grid file format (plain text): a header line ``nx ny nz Lx Ly Lz`` with the
node counts per axis, then ``nx*ny*nz`` whitespace-separated records in
C order over (ix, iy, iz) -- z index fastest.  One number per record for a
scalar field, six (``a11 a22 a33 a12 a13 a23``) for a symmetric tensor.
A file that does not parse, or whose box is not finite and positive,
raises ConfigError.

Fields are read-only after construction; concurrent evaluation is safe.
"""

from __future__ import annotations

import ast
import collections
import functools
import itertools
import math

import numpy as np
import sympy as sp

from .errors import ConfigError, NonDifferentiableField
from .tensors import SymTensor3

__all__ = [
    "ScalarField",
    "TensorField",
    "VectorField",
    "parse_expression",
    "COMPONENT_ORDER",
]

_X, _Y, _Z = sp.symbols("x y z")
_VARS = (_X, _Y, _Z)
_TAYLOR_FUNCS = (sp.sin, sp.cos, sp.exp)

# Storage/file order of the six independent components of a symmetric tensor.
COMPONENT_ORDER = ("a11", "a22", "a33", "a12", "a13", "a23")
_COMP_INDEX = {
    "a11": (0, 0), "a22": (1, 1), "a33": (2, 2),
    "a12": (0, 1), "a13": (0, 2), "a23": (1, 2),
}
# Column of d_i d_j in an order-2 derivative stack (xx, xy, xz, yy, yz, zz).
_HESS_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


# Python syntax of the grammar; what names mean is checked on sympy's result
_SYNTAX = (ast.Expression, ast.Name, ast.Load, ast.BinOp, ast.Add, ast.Sub,
           ast.Mult, ast.Div, ast.Pow, ast.UnaryOp, ast.UAdd, ast.USub,
           ast.Compare, ast.cmpop, ast.Tuple)


def parse_expression(text: str) -> sp.Expr:
    """Parse an expression made only of nodes that ``_taylor_jet`` evaluates.

    The text's Python syntax is checked first, since sympy runs the text
    through Python's ``eval``; sympy's result is then checked node by node.
    """
    text = str(text)
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float)
        elif isinstance(node, ast.Call):  # sin, cos or exp of one argument
            ok = (getattr(node.func, "id", "") in [f.__name__ for f in _TAYLOR_FUNCS]
                  and len(node.args) == 1)
        else:
            ok = (isinstance(node, _SYNTAX)
                  and not getattr(node, "id", "").startswith("_"))
        if not ok:
            what = f"{type(node).__name__} {ast.unparse(node)}".strip()
            raise ConfigError(f"expression {text!r} uses {what}, which is "
                              f"outside the expression grammar")
    local = {"x": _X, "y": _Y, "z": _Z, "pi": sp.pi}
    local.update((f.__name__, f) for f in _TAYLOR_FUNCS)
    try:
        expr = sp.parse_expr(text, local_dict=local)
    except Exception as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
    for node in sp.preorder_traversal(expr):
        if not isinstance(node, sp.Basic) or _taylor_rule(node) is None:
            raise ConfigError(f"expression {text!r} uses {type(node).__name__} "
                              f"{node}, which is outside the expression grammar")
    return expr


# -- truncated Taylor arithmetic ----------------------------------------------
# A jet holds c_alpha = d^alpha f / alpha! for every |alpha| <= order, one row
# per multi-index (graded, combinations_with_replacement order within a
# degree), one column per sample point.  Constants stay np.float64 scalars.


@functools.lru_cache(maxsize=None)
def _taylor_tables(order: int):
    """({alpha: row}, and per output row the (i, j) rows of its factor pairs)."""
    monos = [
        tuple(combo.count(k) for k in range(3))
        for deg in range(order + 1)
        for combo in itertools.combinations_with_replacement(range(3), deg)
    ]
    row = {a: i for i, a in enumerate(monos)}
    pairs = [[] for _ in monos]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            s = tuple(p + q for p, q in zip(a, b))
            if s in row:
                pairs[row[s]].append((i, j))
    return row, tuple(map(tuple, pairs))


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


def _jet_func(func, a, order, pairs):
    """exp, log, sin or cos of a jet through its series about a's value."""
    a0 = a if isinstance(a, float) else a[0]
    if func is sp.exp:
        e = np.exp(a0)
        coeffs = [e / math.factorial(k) for k in range(order + 1)]
    elif func is sp.log:  # reached only through a**b = exp(b log a)
        coeffs = [np.log(a0)] + [(-1.0) ** (k + 1) / (k * a0 ** k)
                                 for k in range(1, order + 1)]
    else:  # sin^(k)(t) = sin(t + k pi/2), cos^(k)(t) = sin(t + (k+1) pi/2)
        shifts = [(k + (func is sp.cos)) % 4 for k in range(order + 1)]
        # sin(a0) and cos(a0), each only if a coefficient reads it
        sc = {j: (np.sin, np.cos)[j](a0) for j in {m % 2 for m in shifts}}
        coeffs = [(sc[m % 2] if m < 2 else -sc[m % 2]) / math.factorial(k)
                  for k, m in enumerate(shifts)]
    return coeffs[0] if isinstance(a, float) else _jet_series(a, coeffs, pairs)


def _taylor_rule(node):
    """The rule ``_taylor_jet`` evaluates ``node`` by, or None if it has none."""
    if node.is_Symbol:
        return "variable" if node in _VARS else None
    if node.is_Number or isinstance(node, sp.NumberSymbol):
        return "number"
    if node.is_Add:
        return "add"
    if node.is_Mul:
        return "mul"
    if node.is_Pow:
        return "pow"
    return "function" if node.func in _TAYLOR_FUNCS else None


def _taylor_jet(expr: sp.Expr, pts: np.ndarray, order: int):
    """Jet of ``expr`` at ``pts`` by one pass over its expression DAG.

    A node's jet is kept only while some parent still has to read it.
    """
    row, pairs = _taylor_tables(order)
    post, seen, todo = [], set(), [(expr, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            post.append(node)
        elif node not in seen:
            seen.add(node)
            todo.append((node, True))
            todo.extend((a, False) for a in node.args if a not in seen)
    uses = collections.Counter(a for node in post for a in node.args)
    jets = {}
    for node in post:
        args = [jets[a] for a in node.args]
        rule = _taylor_rule(node)
        if rule == "variable":
            val = np.zeros((len(row), pts.shape[0]))
            k = _VARS.index(node)
            val[0] = pts[:, k]
            if order:
                val[1 + k] = 1.0
        elif rule == "number":
            val = np.float64(node)  # numpy semantics: inf/nan, not exceptions
        elif rule == "add":
            consts = sum((a for a in args if isinstance(a, float)), 0.0)
            arrays = [a for a in args if not isinstance(a, float)]
            if not arrays:
                val = consts
            else:
                val = arrays[0].copy()
                for a in arrays[1:]:
                    val += a
                val[0] += consts
        elif rule == "mul":
            val = 1.0
            for a in sorted(args, key=lambda a: not isinstance(a, float)):
                val = _jet_mul(val, a, pairs)
        elif rule == "pow" and isinstance(args[1], float):
            val = _jet_pow(args[0], args[1], order, pairs)
        elif rule == "pow":  # a**b = exp(b log a)
            val = _jet_func(sp.exp, _jet_mul(
                args[1], _jet_func(sp.log, args[0], order, pairs), pairs),
                order, pairs)
        elif rule == "function":
            val = _jet_func(node.func, args[0], order, pairs)
        else:
            raise NonDifferentiableField(
                f"no Taylor rule for {type(node).__name__} node {node}"
            )
        jets[node] = val
        for a in node.args:
            uses[a] -= 1
            if not uses[a]:
                del jets[a]
    return jets[expr], row


class ScalarField:
    """Scalar field with constant, expression or grid representation."""

    def __init__(self, kind, payload, box=None):
        self.kind = kind
        self._payload = payload
        self.box = box  # (Lx, Ly, Lz) for grid fields
        if kind == "grid":
            self._build_grid_tables()

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value: float) -> "ScalarField":
        return cls("constant", float(value))

    @classmethod
    def expression(cls, text) -> "ScalarField":
        expr = text if isinstance(text, sp.Expr) else parse_expression(text)
        return cls("expression", expr)

    @classmethod
    def grid(cls, values: np.ndarray, box) -> "ScalarField":
        values = np.array(values, dtype=float)
        if values.ndim != 3 or min(values.shape) < 2:
            raise ConfigError("grid fields need a 3-d array with >= 2 nodes per axis")
        box = tuple(float(b) for b in box)
        if len(box) != 3 or not all(math.isfinite(b) and b > 0 for b in box):
            raise ConfigError(f"grid box edges must be finite and positive, got {box}")
        return cls("grid", values, box=box)

    @classmethod
    def from_file(cls, path) -> "ScalarField":
        return _read_grid_file(path, ncomp=1)[0][0]

    # -- helpers ------------------------------------------------------------
    @property
    def expr(self) -> sp.Expr:
        if self.kind == "expression":
            return self._payload
        if self.kind == "constant":
            return sp.Float(self._payload)
        raise NonDifferentiableField("grid fields have no closed form")

    def _build_grid_tables(self):
        axes = [np.linspace(0.0, b, n) for b, n in zip(self.box, self._payload.shape)]

        def grad_arrays(data):
            # second-order central differences, one-sided at the faces;
            # two-node axes can only support first-order edges.
            return np.stack([np.gradient(data, axes[k], axis=k,
                                         edge_order=2 if data.shape[k] >= 3 else 1)
                             for k in range(3)], axis=-1)

        # a non-finite node value gives non-finite differences, which the
        # positivity checks refuse; numpy need not warn about them first
        with np.errstate(invalid="ignore", over="ignore"):
            grads = grad_arrays(self._payload)
            hess = np.stack([grad_arrays(grads[..., k]) for k in range(3)], axis=-2)
        # one row per node: values, d_k f, and [k, l] = d_l (d_k f)
        self._tables = tuple(t.reshape(self._payload.size, *t.shape[3:])
                             for t in (self._payload, grads, hess))
        for table in self._tables:
            table.flags.writeable = False
        self._grid_axes = axes

    def _locate(self, pts: np.ndarray):
        """The cell of each of the (N, 3) ``pts`` clipped to the box: the flat
        index of its lowest node, and the point's fractions along the axes."""
        shape = self._payload.shape
        base, fracs = 0, []
        for k, axis in enumerate(self._grid_axes):
            p = np.clip(pts[:, k], 0.0, self.box[k])
            i = np.clip(np.searchsorted(axis, p, side="right") - 1, 0, shape[k] - 2)
            fracs.append((p - axis[i]) / (axis[i + 1] - axis[i]))
            base = base * shape[k] + i
        return base, fracs

    def _trilinear(self, order: int, cells) -> np.ndarray:
        """Table ``order`` (values, gradients, Hessians) interpolated in the
        ``cells = self._locate(pts)``.  The cell search, weights and
        summation order are ``scipy.interpolate.RegularGridInterpolator``'s
        linear method, so the results are its results bit for bit."""
        (base, fracs), table = cells, self._tables[order]
        ny, nz = self._payload.shape[1:]
        out = np.zeros((base.shape[0],) + table.shape[1:])
        for corner in itertools.product((0, 1), repeat=3):
            wx, wy, wz = (f if c else 1 - f for c, f in zip(corner, fracs))
            rows = table[base + (corner[0] * ny + corner[1]) * nz + corner[2]]
            rows *= (wx * wy * wz).reshape((-1,) + (1,) * (table.ndim - 1))
            out += rows
        return out

    # -- evaluation ---------------------------------------------------------
    def eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "constant":
            return np.full(pts.shape[0], self._payload)
        if self.kind == "expression":
            jet, _ = _taylor_jet(self._payload, pts, 0)
            return np.full(pts.shape[0], jet) if isinstance(jet, float) else jet[0]
        return self._trilinear(0, self._locate(pts))

    def grad(self, pts) -> np.ndarray:
        """First derivatives, shape (N, 3)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "constant":
            return np.zeros((pts.shape[0], 3))
        if self.kind == "expression":
            return self.derivative_stack(pts, 1)
        return self._trilinear(1, self._locate(pts))

    def hess(self, pts) -> np.ndarray:
        """Second derivatives, shape (N, 3, 3)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "constant":
            return np.zeros((pts.shape[0], 3, 3))
        if self.kind == "expression":
            return self.derivative_stack(pts, 2)[:, _HESS_INDEX]
        return self._trilinear(2, self._locate(pts))

    def derivative_stack(self, pts, order: int) -> np.ndarray:
        """All distinct derivatives of the given order, shape (N, n_multi).

        Multi-indices are enumerated once each (no repetition), matching the
        derivative-tensor convention used by the dimensional norms.  Grid
        fields support order <= 2; expressions any order, by truncated
        Taylor arithmetic (column alpha is alpha! times the jet's c_alpha).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        combos = list(itertools.combinations_with_replacement(range(3), order))
        if order == 0:
            return self.eval(pts)[:, None]
        if self.kind == "constant":
            return np.zeros((pts.shape[0], len(combos)))
        if self.kind == "grid":
            if order > 2:
                raise NonDifferentiableField(
                    f"grid fields provide derivatives up to order 2, not {order}"
                )
            table = self._trilinear(order, self._locate(pts))
            return np.stack([table[(slice(None),) + c] for c in combos], axis=-1)
        jet, row = _taylor_jet(self._payload, pts, order)
        if isinstance(jet, float):
            return np.zeros((pts.shape[0], len(combos)))
        cols = []
        for combo in combos:
            alpha = tuple(combo.count(k) for k in range(3))
            scale = math.prod(math.factorial(a) for a in alpha)
            cols.append(scale * jet[row[alpha]])
        return np.stack(cols, axis=-1)


class TensorField:
    """Symmetric 3x3 tensor field over the box.

    Evaluation returns full (N, 3, 3) symmetric stacks; derivative layouts
    are ``grad -> (N, 3, 3, 3)`` indexed [n, k, i, j] = d_k B_ij and
    ``hess -> (N, 3, 3, 3, 3)`` indexed [n, k, l, i, j].
    """

    def __init__(self, kind, components, box=None):
        self.kind = kind
        self.components = components  # dict name -> ScalarField
        self.box = box

    @classmethod
    def constant(cls, value) -> "TensorField":
        if not isinstance(value, SymTensor3):
            value = SymTensor3.from_matrix(np.asarray(value, dtype=float))
        return cls("constant", {name: ScalarField.constant(getattr(value, name))
                                for name in COMPONENT_ORDER})

    @classmethod
    def identity(cls) -> "TensorField":
        return cls.constant(SymTensor3.identity())

    @classmethod
    def expression(cls, comps) -> "TensorField":
        """Build from a mapping of component names to expression strings.

        Missing components default to zero; names follow COMPONENT_ORDER.
        """
        fields = {}
        for name in COMPONENT_ORDER:
            text = comps.get(name, "0")
            fields[name] = ScalarField.expression(text)
        return cls("expression", fields)

    @classmethod
    def from_sympy(cls, matrix: sp.Matrix) -> "TensorField":
        """Build from a symmetric 3x3 sympy Matrix of expressions."""
        return cls.expression({name: matrix[ij]
                               for name, ij in _COMP_INDEX.items()})

    @classmethod
    def from_file(cls, path) -> "TensorField":
        fields, box = _read_grid_file(path, ncomp=6)
        return cls("grid", dict(zip(COMPONENT_ORDER, fields)), box=box)

    def _symmetric(self, pts, derivative: str, shape: tuple) -> np.ndarray:
        """(N, *shape, 3, 3) stack of each component's ``derivative``
        (eval, grad or hess), written to both triangles.  A grid field's
        components share one lattice: cells are located once."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros((pts.shape[0],) + shape + (3, 3))
        cells = self.components["a11"]._locate(pts) if self.kind == "grid" else None
        for name, fld in self.components.items():
            i, j = _COMP_INDEX[name]
            out[..., i, j] = out[..., j, i] = (
                getattr(fld, derivative)(pts) if cells is None
                else fld._trilinear(len(shape), cells))
        return out

    def eval(self, pts) -> np.ndarray:
        return self._symmetric(pts, "eval", ())

    def grad(self, pts) -> np.ndarray:
        return self._symmetric(pts, "grad", (3,))

    def hess(self, pts) -> np.ndarray:
        return self._symmetric(pts, "hess", (3, 3))


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
        return cls([ScalarField.expression(t) for t in texts])

    def eval(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([c.eval(pts) for c in self.components], axis=-1)

    def grad(self, pts) -> np.ndarray:
        """Velocity-gradient layout (N, i, c) = d_c v_i."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([c.grad(pts) for c in self.components], axis=-2)


def _read_grid_file(path, ncomp: int):
    """The ``ncomp`` component grid fields of a grid file, and its box."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 6:
                raise ConfigError("header must be 'nx ny nz Lx Ly Lz'")
            shape = tuple(int(v) for v in header[:3])
            box = tuple(float(v) for v in header[3:])
            data = np.loadtxt(fh, dtype=float, ndmin=2)
        if ncomp == 1 and data.shape[1] != 1:
            data = data.reshape(-1, 1)
        if data.shape != (math.prod(shape), ncomp):
            raise ConfigError(
                f"expected {math.prod(shape)} records of {ncomp} values, "
                f"got shape {data.shape}"
            )
        values = data.reshape(shape + (ncomp,))
        return [ScalarField.grid(values[..., i], box) for i in range(ncomp)], box
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
