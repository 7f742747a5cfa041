"""Field representations: expression parsing, grid interpolation, files."""

import itertools

import numpy as np
import pytest
import sympy as sp
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from genstokes.errors import ConfigError, NonDifferentiableField
from genstokes.fields import (
    COMPONENT_ORDER,
    ScalarField,
    TensorField,
    VectorField,
    parse_expression,
    write_grid_file,
)
from genstokes.tensors import unimodular_batch


def test_expression_eval_and_derivatives():
    f = ScalarField.expression("sin(pi*x)*cos(pi*y) + exp(z)")
    pts = np.array([[0.3, 0.2, 0.1], [0.7, 0.9, 0.5]])
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    want = np.sin(np.pi * x) * np.cos(np.pi * y) + np.exp(z)
    assert np.allclose(f.eval(pts), want)
    g = f.grad(pts)
    assert np.allclose(g[:, 0], np.pi * np.cos(np.pi * x) * np.cos(np.pi * y))
    assert np.allclose(g[:, 2], np.exp(z))
    h = f.hess(pts)
    assert np.allclose(h[:, 0, 1], -np.pi**2 * np.cos(np.pi * x) * np.sin(np.pi * y))
    assert np.allclose(h[:, 1, 0], h[:, 0, 1])


def test_expression_rejects_unknown_names():
    with pytest.raises(ConfigError):
        parse_expression("q + x")
    with pytest.raises(ConfigError):
        parse_expression("tan(x)")
    with pytest.raises(ConfigError):
        parse_expression("import os")
    with pytest.raises(ConfigError, match="Tuple"):
        parse_expression("x, y")


def test_expression_code_is_refused_by_its_syntax_node_and_never_run(monkeypatch):
    # the text is parsed by ``ast`` and never run: code in it is refused by
    # its syntax node before anything could evaluate it
    import os

    calls = []
    monkeypatch.setattr(os, "getpid", lambda: calls.append(1) or 0)
    for text, node in [("__import__('os').getpid()*0 + x", "Call"),
                       ("open('F', 'w').close() or x", "BoolOp"),
                       ("x.real", "Attribute"), ("x % 2", "Mod"),
                       ("sqrt(x)", "Call"), ("sin(x, y)", "Call"),
                       ("True", "Constant"), ("_x", "Name")]:
        with pytest.raises(ConfigError, match=f"uses {node}"):
            parse_expression(text)
    assert calls == []
    x, y = _STACK_PTS[:, 0], _STACK_PTS[:, 1]
    np.testing.assert_allclose(
        ScalarField.expression(" -x**2 / (1 + sin(y))").eval(_STACK_PTS),
        -x**2 / (1 + np.sin(y)), rtol=1e-15, atol=0)


def test_expression_grammar_is_the_taylor_node_set():
    # every node parse_expression admits has a Taylor rule, so values and
    # derivatives come from the same pass; a literal nan is a number
    text = "sin(pi*x)*cos(E*y)/(2 + z**2) - exp(x)**0.5 + 2**y + nan"
    values = ScalarField.expression(text).eval(_STACK_PTS)
    assert values.shape == (len(_STACK_PTS),) and np.isnan(values).all()
    assert np.array_equal(ScalarField.expression("pi").eval(_STACK_PTS),
                          np.full(len(_STACK_PTS), np.pi))
    # a refused node is named (the CLI tests cover I, oo, x>0.5, Max, x/0)
    for text, node in [("log(x)", "Call log"), ("q + x", "Name q")]:
        with pytest.raises(ConfigError, match=node):
            parse_expression(text)


def test_expression_constants_fold_and_subtrees_are_shared():
    # numbers fold to one float as the tape is built, and a repeated
    # subtree is one node
    assert parse_expression("2*3 - 1/4 + pi") == [("num", 5.75 + np.pi)]
    tape = parse_expression("sin(x*y) + sin(x*y)**2")
    assert sum(node[0] == "sin" for node in tape) == 1
    for text in ["x/0", "x/(1-1)", "0**-1", "(-1)**0.5"]:
        with pytest.raises(ConfigError, match="no finite real value"):
            parse_expression(text)


def test_constant_field():
    f = ScalarField.constant(2.5)
    pts = np.zeros((4, 3))
    assert np.allclose(f.eval(pts), 2.5)
    assert np.allclose(f.grad(pts), 0.0)
    assert np.allclose(f.hess(pts), 0.0)


def test_grid_trilinear_exact_on_trilinear_data():
    # c0 + c1 x + c2 y + c3 z + c4 xy + c5 xz + c6 yz + c7 xyz is reproduced
    n = (4, 5, 3)
    box = (2.0, 1.0, 1.5)
    axes = [np.linspace(0, b, k) for k, b in zip(n, box)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    c = [0.7, 1.1, -0.4, 0.9, 0.3, -1.2, 0.5, 0.25]
    data = (c[0] + c[1] * gx + c[2] * gy + c[3] * gz + c[4] * gx * gy
            + c[5] * gx * gz + c[6] * gy * gz + c[7] * gx * gy * gz)
    f = ScalarField.grid(data, box)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, size=(50, 3)) * np.array(box)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    want = (c[0] + c[1] * x + c[2] * y + c[3] * z + c[4] * x * y
            + c[5] * x * z + c[6] * y * z + c[7] * x * y * z)
    assert np.allclose(f.eval(pts), want, rtol=1e-12, atol=1e-12)


def test_grid_derivatives_second_order():
    box = (1.0, 1.0, 1.0)
    ns = [9, 17]
    errs = []
    for n in ns:
        axes = [np.linspace(0, 1, n)] * 3
        gx, gy, gz = np.meshgrid(*axes, indexing="ij")
        data = np.sin(np.pi * gx) * np.sin(np.pi * gy) * np.sin(np.pi * gz)
        f = ScalarField.grid(data, box)
        pts = np.array([[0.25, 0.5, 0.375]])
        want = np.pi * np.cos(np.pi * 0.25) * np.sin(np.pi * 0.5) * np.sin(np.pi * 0.375)
        errs.append(abs(f.grad(pts)[0, 0] - want))
    # halving h should reduce the error by about 4
    assert errs[1] < errs[0] / 2.5


def test_grid_requires_two_nodes_per_axis():
    with pytest.raises(ConfigError):
        ScalarField.grid(np.zeros((1, 4, 4)), (1, 1, 1))


@pytest.mark.parametrize("box", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                 (1.0, 1.0, np.nan), (np.inf, 1.0, 1.0)])
def test_grid_rejects_bad_box(box):
    with pytest.raises(ConfigError, match="box edges"):
        ScalarField.grid(np.zeros((3, 3, 3)), box)


def _rgi_oracle(values, box, pts):
    """eval, grad and hess through scipy's RegularGridInterpolator: one per
    FD array, built from the same np.gradient calls, at clipped points."""
    from scipy.interpolate import RegularGridInterpolator

    axes = [np.linspace(0.0, b, n) for b, n in zip(box, values.shape)]

    def fd(data):
        return [np.gradient(data, axes[k], axis=k,
                            edge_order=2 if data.shape[k] >= 3 else 1)
                for k in range(3)]

    def interp(data):
        return RegularGridInterpolator(axes, data, method="linear")(
            np.clip(pts, 0.0, box))

    grads = fd(values)
    return (interp(values),
            np.stack([interp(g) for g in grads], axis=-1),
            np.stack([np.stack([interp(h) for h in fd(g)], axis=-1)
                      for g in grads], axis=-2))


@pytest.mark.parametrize("shape, box, nan_node", [
    ((2, 2, 2), (1.0, 1.0, 1.0), False),
    ((2, 5, 3), (0.3, 2.0, 1.7), False),
    ((6, 4, 2), (2.5, 0.4, 1.0), True),
    ((9, 9, 9), (1.0, 1.0, 1.0), True),
    ((17, 17, 17), (1.0, 1.0, 1.0), False),
])
def test_grid_evaluator_bitwise_equals_regular_grid_interpolator(shape, box,
                                                                   nan_node):
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(shape)
    if nan_node:
        values[1, shape[1] // 2, -1] = np.nan
    axes = [np.linspace(0.0, b, n) for b, n in zip(box, shape)]
    inside = rng.uniform(0.0, 1.0, size=(400, 3)) * box
    nodes = np.stack([rng.choice(a, 100) for a in axes], axis=-1)
    faces = inside[:150].copy()
    for k in range(3):
        faces[50 * k:50 * (k + 1), k] = rng.choice([0.0, box[k]], 50)
    outside = rng.uniform(-0.5, 1.5, size=(200, 3)) * box
    pts = np.concatenate([inside, nodes, faces, outside,
                          [[np.inf, -np.inf, 0.5 * box[2]]]])
    fld = ScalarField.grid(values, box)
    want_val, want_grad, want_hess = _rgi_oracle(values, box, pts)
    # hess is symmetric: the oracle's upper triangle d_l (d_k f), k <= l,
    # mirrored, which holds every independent entry
    want_hess = np.where(np.tri(3, dtype=bool), np.swapaxes(want_hess, 1, 2),
                         want_hess)
    for got, want in zip((fld.eval(pts), fld.grad(pts), fld.hess(pts)),
                         (want_val, want_grad, want_hess)):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(fld.eval(pts)).any() == nan_node


def test_tensor_grid_locates_once_and_matches_components_bitwise(tmp_path):
    # the tensor field locates each point's cell once for its six components;
    # every entry must equal that component's own eval/grad/hess bit for bit
    rng = np.random.default_rng(11)
    box = (1.0, 2.0, 0.5)
    path = tmp_path / "field.txt"
    write_grid_file(path, rng.uniform(0.5, 1.5, size=(4, 3, 5, 6)), box)
    fld = TensorField.from_file(path)
    pts = np.concatenate([rng.uniform(-0.2, 1.2, size=(300, 3)) * box,
                          [[0.0, 0.0, 0.0], box]])
    slots = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    for derivative in ("eval", "grad", "hess"):
        got = getattr(fld, derivative)(pts)
        for name, (i, j) in zip(COMPONENT_ORDER, slots):
            want = getattr(fld.components[name], derivative)(pts)
            assert np.array_equal(got[..., i, j], want)
            assert np.array_equal(got[..., j, i], want)


def test_grid_file_keeps_values_until_a_derivative_is_asked(tmp_path):
    # a 17^3 tensor grid, the size of the benchmark's shear grid: loading it
    # and evaluating it at order 0 peaked at 4.9 MB when every derivative
    # row was built at load, and at 0.5 MB with the values alone.  Asked
    # for order 1 after order 0, then order 2, its jets are the oracle's
    # interpolated rows (hess's upper triangle over alpha!) bit for bit.
    rng = np.random.default_rng(17)
    box = (1.0, 1.0, 1.0)
    values = rng.uniform(0.5, 1.5, size=(17, 17, 17, 6))
    path = tmp_path / "shear.txt"
    write_grid_file(path, values, box)
    pts = rng.uniform(-0.1, 1.1, size=(500, 3))
    loaded = []

    def load_and_eval():
        loaded.append(TensorField.from_file(path))
        loaded[0].eval(pts)

    peak = traced_peak(load_and_eval)
    assert peak <= 2**20, f"grid load peak {peak / 2**20:.2f} MB > 1 MB"
    jets = loaded[0].components["a11"].jets
    upper = list(itertools.combinations_with_replacement(range(3), 2))
    for order in (1, 2):
        got = jets(pts, order)
        for k in range(6):
            val, grad, hess = _rgi_oracle(values[..., k], box, pts)
            want = [val, *grad.T, *(hess[:, i, j] / (2.0 if i == j else 1.0)
                                    for i, j in upper)]
            assert got[k].tobytes() == np.stack(want[:len(got[k])]).tobytes()


def test_tensor_grid_file_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 1.5, size=(3, 4, 5, 6))
    path = tmp_path / "field.txt"
    write_grid_file(path, values, (1.0, 2.0, 3.0))
    fld = TensorField.from_file(path)
    assert fld.box == (1.0, 2.0, 3.0)
    # node values are reproduced exactly
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [0.5, 2.0 / 3, 1.5]])
    out = fld.eval(pts)
    assert np.allclose(out[0, 0, 0], values[0, 0, 0, 0])
    assert np.allclose(out[1, 0, 0], values[-1, -1, -1, 0])
    assert np.allclose(out[0, 0, 1], values[0, 0, 0, 3])  # a12 symmetric slot
    assert np.allclose(out[0], out[0].T)


def test_scalar_grid_file(tmp_path):
    path = tmp_path / "scalar.txt"
    values = np.arange(2 * 2 * 2, dtype=float).reshape(2, 2, 2)
    write_grid_file(path, values, (1.0, 1.0, 1.0))
    fld = ScalarField.from_file(path)
    assert fld.eval(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx(7.0)


def test_grid_file_header_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 2\n")
    with pytest.raises(ConfigError):
        ScalarField.from_file(bad)
    short = tmp_path / "short.txt"
    short.write_text("2 2 2 1 1 1\n0\n")
    with pytest.raises(ConfigError):
        ScalarField.from_file(short)


def test_tensor_expression_field_symmetry_and_grad():
    s = "0.4*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    fld = TensorField.expression({"a11": f"1 + ({s})**2", "a22": "1",
                                  "a33": "1", "a12": s})
    pts = np.array([[0.3, 0.4, 0.5], [0.25, 0.75, 0.1]])
    vals = fld.eval(pts)
    assert np.allclose(vals, np.swapaxes(vals, -1, -2))
    assert np.allclose(np.linalg.det(vals), 1.0, atol=1e-13)
    g = fld.grad(pts)  # (n, k, i, j)
    eps = 1e-6
    shifted = pts.copy()
    shifted[:, 0] += eps
    fd = (fld.eval(shifted) - fld.eval(pts)) / eps
    assert np.allclose(g[:, 0], fd, atol=1e-5)


def test_derivative_stack_orders():
    f = ScalarField.expression("x**3*y + z**2")
    pts = np.array([[1.0, 2.0, 3.0]])
    d3 = f.derivative_stack(pts, 3)
    # multi-indices (xxx, xxy, xxz, xyy, xyz, xzz, yyy, yyz, yzz, zzz)
    assert d3.shape == (1, 10)
    assert d3[0, 0] == pytest.approx(6.0 * 2.0)  # d^3/dx^3 = 6y
    assert d3[0, 1] == pytest.approx(6.0)        # d^3/dx^2 dy = 6x -> 6
    assert np.allclose(d3[0, 2:], 0.0)


_SYMS = sp.symbols("x y z")
# includes a point with x = y = 0, where x**2.0 must still differentiate
_STACK_PTS = np.array([[0.0, 0.0, 0.4], [0.3, 0.7, 0.1], [0.9, 0.25, 0.6],
                       [0.55, 0.45, 1.0], [1.0, 0.05, 0.8]])


def sympy_stack(expr, pts, order):
    """Oracle: one sp.diff + lambdify per multi-index."""
    cols = []
    for combo in itertools.combinations_with_replacement(range(3), order):
        d = sp.diff(expr, *(_SYMS[i] for i in combo)) if combo else expr
        fn = sp.lambdify(_SYMS, d, modules="numpy")
        cols.append(np.broadcast_to(
            np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float),
            pts.shape[:1]))
    return np.stack(cols, axis=-1)


def _sympy(text):
    """Oracle: the text as a sympy expression."""
    return sp.sympify(text, locals={"E": sp.E, "pi": sp.pi, "nan": sp.nan})


def assert_stack_matches(text, rel=1e-12):
    fld = ScalarField.expression(text)
    for order in range(4):
        want = sympy_stack(_sympy(text), _STACK_PTS, order)
        got = fld.derivative_stack(_STACK_PTS, order)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale,
                                   err_msg=f"{text} at order {order}")


_LEAVES = st.sampled_from(["x", "y", "z", "pi", "3", "2/7", "0.3", "-1.5"])
# a base in [1, 3], for negative and non-integral exponents
_POSITIVE = "(2 + sin({}))"


def _grammar(sub):
    return st.one_of(
        st.tuples(sub, sub).map(lambda ab: f"({ab[0]}) + ({ab[1]})"),
        st.tuples(sub, sub).map(lambda ab: f"({ab[0]}) - ({ab[1]})"),
        st.tuples(sub, sub).map(lambda ab: f"({ab[0]})*({ab[1]})"),
        st.tuples(sub, st.sampled_from(["sin", "cos", "exp"])).map(
            lambda af: f"{af[1]}({af[0]})"),
        st.tuples(sub, st.sampled_from(["2", "3", "2.0", "0"])).map(
            lambda an: f"({an[0]})**{an[1]}"),
        st.tuples(sub, st.sampled_from(["-1", "-2", "-2.0", "1/2", "-1/3",
                                        "0.75"])).map(
            lambda an: f"{_POSITIVE.format(an[0])}**({an[1]})"),
        st.tuples(sub, sub).map(lambda ab: f"({ab[0]})/{_POSITIVE.format(ab[1])}"),
    )


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.recursive(_LEAVES, _grammar, max_leaves=8))
def test_derivative_stack_matches_symbolic_oracle(text):
    assert_stack_matches(text)


@pytest.mark.parametrize("text", [
    "x**2.0 + y**2",            # integral Float exponent at x = 0
    "2**x + (2 + sin(y))**z",   # symbolic exponents: exp(b log a)
    "exp(sin(pi*x)*cos(y))*(1 + z**3)/(3 + x*y)",
])
def test_derivative_stack_special_powers(text):
    assert_stack_matches(text)


@pytest.mark.parametrize("expr", [("tan(x)", "Call tan"), ("Abs(y) + 1", "Call Abs"),
                                  ("log(1 + z)", "Call log")])
def test_derivative_stack_unsupported_node(expr):
    # a node without a Taylor rule never reaches the pass: the text is refused
    text, node = expr
    with pytest.raises(ConfigError, match=node):
        ScalarField.expression(text)


@pytest.mark.parametrize("shape, nan_node", [((2, 3, 4), False), ((5, 4, 6), True)])
def test_grid_derivative_stack_is_the_upper_triangle_bitwise(shape, nan_node):
    # a grid field's derivative stacks come from the jets that eval, grad
    # and hess read, so hess is the order-2 stack mirrored: exactly symmetric
    rng = np.random.default_rng(sum(shape))
    box = (1.0, 0.7, 1.3)
    values = rng.standard_normal(shape)
    if nan_node:
        values[1, 2, 3] = np.nan
    fld = ScalarField.grid(values, box)
    pts = np.concatenate([rng.uniform(0.0, 1.0, size=(300, 3)) * box,
                          rng.uniform(-0.5, 1.5, size=(100, 3)) * box])
    for order, table in enumerate((fld.eval(pts), fld.grad(pts), fld.hess(pts))):
        combos = itertools.combinations_with_replacement(range(3), order)
        want = np.stack([table[(slice(None),) + c] for c in combos], axis=-1)
        assert fld.derivative_stack(pts, order).tobytes() == want.tobytes()
    hess = fld.hess(pts)
    assert hess.tobytes() == np.swapaxes(hess, 1, 2).tobytes()
    assert np.isnan(fld.eval(pts)).any() == nan_node


def test_derivative_stack_grid_order_limit():
    f = ScalarField.grid(np.zeros((3, 3, 3)), (1, 1, 1))
    with pytest.raises(NonDifferentiableField):
        f.derivative_stack(np.zeros((1, 3)), 3)


def test_vector_field():
    v = VectorField.expression(["x*y", "z", "0"])
    pts = np.array([[2.0, 3.0, 4.0]])
    assert np.allclose(v.eval(pts), [[6.0, 4.0, 0.0]])
    g = v.grad(pts)  # (n, i, c)
    assert g[0, 0, 0] == pytest.approx(3.0)
    assert g[0, 0, 1] == pytest.approx(2.0)
    assert g[0, 1, 2] == pytest.approx(1.0)


def test_tensor_unimodular_check():
    pts = np.array([[0.5, 0.5, 0.5], [0.1, 0.2, 0.3]])
    fld = TensorField.expression({"a11": "2", "a22": "1", "a33": "1"})
    assert not unimodular_batch(fld.eval(pts)).any()
    shear = TensorField.expression({"a11": "1 + x*x", "a12": "x", "a22": "1", "a33": "1"})
    assert unimodular_batch(shear.eval(pts)).all()


def _lambdified(expr, pts):
    fn = sp.lambdify(_SYMS, expr, modules="numpy")
    return np.broadcast_to(
        np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float),
        pts.shape[:1])


def _assert_close(got, want, rel=1e-12):
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale)


@pytest.mark.parametrize("text", [
    "sin(pi*x)*cos(pi*y) + exp(z)",
    "1 + (0.4*sin(pi*x)*sin(pi*y)*sin(pi*z))**2",
    "exp(-(0.2*sin(pi*x)*sin(pi*z))-(0.2*cos(pi*y)*sin(pi*x)))",
    "x*y**2*z**3/(2 + cos(x*z))",
    "7",
])
def test_expression_grad_hess_match_symbolic_oracle(text):
    fld = ScalarField.expression(text)
    g = fld.grad(_STACK_PTS)
    h = fld.hess(_STACK_PTS)
    assert g.shape == (len(_STACK_PTS), 3)
    assert h.shape == (len(_STACK_PTS), 3, 3)
    expr = _sympy(text)
    for k in range(3):
        _assert_close(g[:, k], _lambdified(sp.diff(expr, _SYMS[k]), _STACK_PTS))
        for m in range(3):
            want = _lambdified(sp.diff(expr, _SYMS[k], _SYMS[m]), _STACK_PTS)
            _assert_close(h[:, k, m], want)


def test_tensor_field_hess_layout_matches_symbolic_oracle():
    # hess -> [n, k, l, i, j] = d_k d_l B_ij, symmetric in (k, l) and (i, j)
    u = "0.3*sin(pi*x)*sin(pi*y)*sin(pi*z)"
    w = "0.2*sin(2*pi*x)*sin(pi*y)*sin(pi*z)"
    comps = {"a11": f"1 + ({u})**2", "a12": u, "a13": "x*z",
             "a22": f"1 + ({w})**2", "a23": w, "a33": "exp(y)"}
    fld = TensorField.expression(comps)
    got = fld.hess(_STACK_PTS)
    names = {(0, 0): "a11", (1, 1): "a22", (2, 2): "a33",
             (0, 1): "a12", (0, 2): "a13", (1, 2): "a23"}
    for i in range(3):
        for j in range(3):
            expr = _sympy(comps[names[min(i, j), max(i, j)]])
            for k in range(3):
                for m in range(3):
                    want = _lambdified(sp.diff(expr, _SYMS[k], _SYMS[m]),
                                       _STACK_PTS)
                    _assert_close(got[:, k, m, i, j], want)
