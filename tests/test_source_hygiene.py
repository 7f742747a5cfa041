"""Static checks on the package source, read with ``ast``, and its imports.

No linter is part of the toolchain, so two of its checks live here: every
import is used, and every private constant, function or class at module
level, and every private method or property in a class body, is referenced
somewhere in the package.  Deleting a duplicate tends to leave one of these
behind.  A third check
keeps sympy and scipy off the import path of the CLI, and a fourth checks
that only a solve loads scipy, and only the scipy it uses; a fifth keeps
expression fields on one evaluator, a sixth keeps sympy out of the package
and text from being evaluated anywhere, a seventh keeps the layout of
a jet as arrays inside ``fields``, an eighth keeps B^{-1} and det B on
one cofactor expansion, a ninth keeps the numbering of the P2 nodes
inside ``fem``, and a tenth keeps the building of scipy sparse matrices
there too.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "genstokes"


def _modules() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def _referenced(tree) -> set:
    """Names read in a module, attribute names included, plus ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = _referenced(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def _defined_names(node) -> list:
    """Names a statement defines: a function's or class's, or the plain
    names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_no_unreferenced_private_definitions():
    # module-level constants, functions and classes, and the methods and
    # properties in class bodies
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        referenced |= _referenced(tree)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    orphans = [
        f"{name}:{node.lineno} {defined}"
        for name, tree in modules.items()
        for top in tree.body
        for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
        if node is top or isinstance(node, defs)
        for defined in _defined_names(node)
        if defined.startswith("_") and not defined.startswith("__")
        and defined not in referenced
    ]
    assert orphans == []


def _loaded_after(statements: str, *argv: str) -> list:
    """The sympy and scipy modules a fresh interpreter holds after running
    ``statements`` with ``argv`` as ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = (f"import sys\n{statements}\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'sympy')))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def test_cli_import_leaves_out_interpolate_and_optimize():
    # scipy.interpolate (and the scipy.optimize it pulls in) and sympy each
    # cost every command a third of a second of start-up; grid fields do
    # without the first two, and expressions are parsed without sympy.
    # scipy.sparse costs 0.24 s and 22 MB, and only a solve needs it: it is
    # imported where the first scipy matrix is formed
    assert _loaded_after("import genstokes.cli") == []


_MAIN = "from genstokes.cli import main\nassert main(sys.argv[1:]) == 0"
# a zero-load system: no forcing
_ASSEMBLE = ("from genstokes.assembly import assemble\n"
             "from genstokes.constitutive import MuTriple\n"
             "from genstokes.fem import TaylorHoodSpace, build_mesh\n"
             "from genstokes.fields import TensorField\n"
             "mesh = build_mesh(2, 2, 2, 1.0, 1.0, 1.0)\n"
             "system = assemble(mesh, TaylorHoodSpace(mesh), MuTriple(1, 1, 1), "
             "TensorField.identity())\n")


@pytest.mark.parametrize("statements, argv, wanted", [
    # the audits solve nothing, so they run on numpy alone
    ("from genstokes.verifysuite import run_suite\nrun_suite(0, trials=2)",
     (), "none"),
    (_MAIN, ("ellipticity", "--mu", "1,1,1", "--b-grid", "{grid}",
             "--samples", "4"), "none"),
    (_ASSEMBLE, (), "none"),
    # a zero load has the zero solution: MINRES forms no matrix for it,
    # and the reference LU returns it before it imports bmat and splu
    (_MAIN, ("--out", "{out}", "solve", "--mu", "1,1,1", "--mesh", "2,2,2"), "none"),
    (_ASSEMBLE + "from genstokes.solver import solve\nsolve(system)", (), "none"),
    # MINRES applies K and G as scipy matrices; only the reference LU
    # needs scipy.sparse.linalg
    (_MAIN, ("--out", "{out}", "solve", "--mu", "1,1,1", "--mesh", "2,2,2",
             "--f-expr", "sin(pi*x); 0; 0"), "sparse"),
], ids=["verify-suite", "ellipticity", "assemble", "zero-load-solve",
        "zero-load-reference-solve", "solve"])
def test_only_a_solve_loads_scipy(tmp_path, statements, argv, wanted):
    from genstokes.fields import write_grid_file

    grid = tmp_path / "b.txt"
    # B = I on a 2x2x2 grid, components in COMPONENT_ORDER
    write_grid_file(grid, np.tile([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], (2, 2, 2, 1)),
                    (1.0, 1.0, 1.0))
    argv = [a.format(grid=grid, out=tmp_path) for a in argv]
    loaded = _loaded_after(statements, *argv)
    if wanted == "none":
        assert loaded == []
    else:
        assert "scipy.sparse" in loaded
        assert "scipy.sparse.linalg" not in loaded
        assert not any(m.startswith("sympy") for m in loaded)


def test_no_lambdify_in_package():
    # expression values come from the Taylor pass that gives their
    # derivatives; sympy.lambdify stays only as the tests' oracle
    users = [f"{path.name}:{n}"
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "lambdify" in line]
    assert users == []


def test_text_reaches_python_eval_only_through_parse_expression():
    # parse_expression reads text through ``ast`` and evaluates none of it;
    # the package imports no sympy, whose parser runs text through Python's
    # eval, and nothing else in it evaluates text
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(SRC.glob("*.py"))}
    importers = [name for name, text in texts.items()
                 if re.search(r"^\s*(?:import|from)\s+sympy\b", text, re.M)]
    assert importers == []
    evaluators = [f"{name}:{n}"
                  for name, text in texts.items()
                  for n, line in enumerate(text.splitlines(), 1)
                  if re.search(r"sympify\(|(?<![\w.])(?<!def )(?:eval|exec)\(", line)]
    assert evaluators == []


def _users_outside(owner: str, names: set) -> list:
    """``"module name"`` for each use of one of ``names`` (a name, an
    attribute or an import) in a module other than ``owner``, sorted."""
    return sorted(
        f"{name} {node_name}"
        for name, tree in _modules().items() if name != owner
        for node in ast.walk(tree)
        for node_name in [node.id if isinstance(node, ast.Name)
                          else node.attr if isinstance(node, ast.Attribute)
                          else node.name if isinstance(node, ast.alias) else None]
        if node_name in names
    )


def test_jet_layout_is_named_only_in_fields():
    # how a jet's rows become values, gradients and Hessians is decided in
    # fields.py alone; other modules go through _jet_array and _symmetric_stack
    assert _users_outside("fields.py", {"_UNPACK", "_HESS_INDEX", "_jet_stack"}) == []


def test_node_numbering_is_decided_only_in_fem():
    # the P2 nodes are numbered as the lattice of the doubled Kuhn mesh in
    # fem.py alone; other modules index by tet_nodes and interior_number,
    # recover no lattice position from a coordinate, and only the VTK writer
    # reads the nodes' coordinates
    names = {"scalar_nodes", "ravel_multi_index", "rint"}
    assert _users_outside("fem.py", names) == ["vtkio.py scalar_nodes"]


def _owners(tree) -> dict:
    """Each node of ``tree`` inside a function, mapped to the name of the
    innermost function that holds it."""
    owner = {}
    for func in ast.walk(tree):  # outer functions first: inner ones win
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return owner


def test_lapack_det_and_inv_only_for_jacobians_and_random_spd():
    # B^{-1} and det B come from one cofactor expansion, tensors._adjugate;
    # LAPACK's det and inv are left for the element Jacobians and for
    # scaling verify's random samples to det 1
    calls = []
    for name, tree in _modules().items():
        owner = _owners(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("det", "inv")
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"):
                calls.append(f"{name} {owner.get(node, '<module>')} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                calls += [f"{name} import {a.name}" for a in node.names
                          if a.name in ("det", "inv")]
    assert sorted(calls) == ["fem.py __init__ det", "fem.py __init__ inv",
                             "verifysuite.py random_spd det"]


def test_scipy_sparse_matrices_are_built_only_in_fem():
    # BlockPattern.matrix forms the package's scipy matrices over the
    # assembled entries; elsewhere only the reference LU takes anything from
    # scipy.sparse: bmat to stack the blocks and splu to factorize them
    uses = []
    for name, tree in _modules().items():
        if name == "fem.py":
            continue
        owner = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [f"import {a.name}" for a in node.names
                         if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                names = [a.name for a in node.names if a.name == "sparse"]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names
                         if (node.module or "").startswith("scipy.sparse")]
            else:
                continue
            uses += [f"{name} {owner.get(node, '<module>')} {n}" for n in names]
    assert sorted(uses) == ["solver.py solve bmat", "solver.py solve splu"]
