"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import scipy.linalg

import nmesolve

SRC = Path(nmesolve.__file__).parent


def module_level_names(tree: ast.Module):
    """Names bound at module level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_referenced():
    # a def, class or constant whose name occurs only at its definition is dead
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    counts = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    unreferenced = [f"{module}:{name}" for module, text in texts.items()
                    for name in module_level_names(ast.parse(text))
                    if not name.startswith("__") and counts[name] < 2]
    assert unreferenced == []


def test_public_names_are_exported():
    # a name in a module's __all__ that the package does not re-export is
    # public in one list only, and can outlive its deletion from the other
    missing = [f"{module}:{name}"
               for module in ("problem", "shifting", "solvers", "harness")
               for name in getattr(nmesolve, module).__all__
               if not hasattr(nmesolve, name)]
    assert missing == []


def test_package_republishes_each_modules_all():
    # one list per module: __init__ imports * from each, never a name list
    tree = ast.parse((SRC / "__init__.py").read_text())
    listed = [f"{node.module}: {alias.name}" for node in tree.body
              if isinstance(node, ast.ImportFrom)
              and node.module in ("harness", "problem", "shifting", "solvers")
              for alias in node.names if alias.name != "*"]
    assert listed == []


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.3 s of import time
    code = "import sys, nmesolve; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_no_lapack_or_blas_routine_is_bound_at_import():
    # the solvers look LAPACK and BLAS routines up on their scipy module at
    # call time, so that wrapping the module attribute (as a tracer does)
    # reaches every call
    routines = {id(v): f"{mod.__name__}.{k}"
                for mod in (scipy.linalg.lapack, scipy.linalg.blas)
                for k, v in vars(mod).items() if callable(v) and not isinstance(v, type)}
    bound = [f"{path.stem}:{name} is {routines[id(value)]}"
             for path in sorted(SRC.glob("*.py"))
             for name, value in vars(import_module(f"nmesolve.{path.stem}")).items()
             if id(value) in routines]
    assert bound == []


def test_one_power_of_two_scale_and_one_safe_norm():
    # the magnitude decision lives in problem._pow2_scale and problem.fro_norm;
    # a second frexp or a raw norm in the shifting checks would fork it again
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sum(text.count("math.frexp") for text in texts.values()) == 1
    assert "np.linalg.norm" not in texts["shifting.py"]
    assert "np.linalg.norm(" not in texts["problem.py"]


def test_each_input_type_checks_itself_once():
    # the pencil refuses an odd order when built, with no init-only flag that
    # skips its checks; Algorithm reads its own names, so no caller needs a reader
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [f"{module}:{scope}" for module in texts for scope, node in _scoped_nodes(module)
            if isinstance(node, ast.Raise) and "OddDimension(" in ast.unparse(node)] \
        == ["problem.py:SymplecticPencil.__post_init__"]
    assert [word for word in ("InitVar", "_checked") if word in texts["problem.py"]] == []
    assert "Algorithm(" in texts["cli.py"]
    assert [node.name for node in ast.walk(ast.parse(texts["cli.py"]))
            if isinstance(node, ast.FunctionDef) and "algorithm" in node.name] == []


def test_one_reader_for_caller_arrays():
    # caller arrays are read by problem._matrix alone (the CLI checks its own
    # scalar options); a second finiteness test would fork the rule again.
    # psi's other raise is no read: it is the range test of lambda A and A^T / lambda
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert sum(text.count("raise NonFiniteInput(") for name, text in texts.items()
               if name != "cli.py") == 2
    assert [name for name, text in texts.items() if "_as_complex_matrix" in text] == []


def test_one_spectrum_of_psi_on_the_circle():
    # psi's eigenvalues on the unit circle come from problem._eigs_on_circle
    # alone; a second stacked eigvalsh in shifting would fork the arcs again
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert "eigvalsh" not in texts["shifting.py"]
    assert texts["problem.py"].count("np.linalg.eigvalsh(") == 1


def test_min_on_circle_by_level_sets():
    # psi's minimum on the circle comes from the level-set iteration on the
    # QZ of problem._crossings alone; a grid and a local search beside it
    # fork the minimum again, and can miss a dip narrower than a grid step
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert texts["problem.py"].count("scipy.linalg.eigvals(") == 1
    assert "scipy.linalg.eigvals(" in ast.unparse(_function("problem.py", "_crossings"))
    assert [name for name in ("_brent_min", "_min_on_circle", "SOLVABILITY_SAMPLES")
            if any(name in text for text in texts.values())] == []


def test_qz_is_the_fallback_of_the_critical_angles():
    # the analysis _critical_angles remembers solves first and runs _crossings' QZ
    # only where the solve does not certify the angles; problem.py keeps its one QZ
    # call in _crossings
    fn = _function("problem.py", "_psi_analysis")
    crossings = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "_crossings"]
    fallback = [node for node in ast.walk(fn)
                if isinstance(node, ast.If) and ast.unparse(node.test) == "not regular"]
    assert len(crossings) == 1 and len(fallback) == 1
    assert any(node is crossings[0] for node in ast.walk(fallback[0]))
    solve = next(node for node in ast.walk(fn)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "solve_sda")
    assert solve.lineno < fallback[0].lineno
    assert (SRC / "problem.py").read_text().count("scipy.linalg.eigvals(") == 1


def test_one_memo_and_no_module_state():
    # the one remembered result, the psi analysis of a pair, is kept by one
    # lru_cache; no function rebinds a module global to keep one by hand
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in texts.items() for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Global, ast.Nonlocal))] == []
    assert [f"{name}:{ast.unparse(node)}" for name, text in texts.items()
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call)
            and "cache" in ast.unparse(node.func)] == ["problem.py:functools.lru_cache(maxsize=1)"]
    assert "@functools.lru_cache(maxsize=1)" in ast.unparse(_function("problem.py", "_psi_analysis"))
    # the doubling run that certified a verdict is kept in one private slot of the
    # problem: solvability_check alone writes it, and solve_sda alone reads it
    assert [(name, scope) for name in texts for scope, node in _scoped_nodes(name)
            if isinstance(node, ast.Constant) and node.value == "_certified_run"] == [
        ("problem.py", "solvability_check"), ("solvers.py", "solve_sda")]
    stores = {name: [ast.unparse(node) for node in ast.walk(_function(name, fn))
                     if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                     and ast.unparse(node.value) == "vars(problem)"]
              for name, fn in (("problem.py", "solvability_check"), ("solvers.py", "solve_sda"))}
    assert stores == {"problem.py": ["vars(problem)['_certified_run']"], "solvers.py": []}
    assert "vars(problem).get('_certified_run')" in ast.unparse(_function("solvers.py", "solve_sda"))


def test_one_float_format():
    # every file and text line writes floats as repr, through json.dumps in
    # serialize or an !r / %r format; a .17g beside them would fork the format
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name, text in texts.items() if ".17g" in text] == []
    assert [name for name, text in texts.items() if "json.dumps" in text] == ["serialize.py"]


def test_one_spectral_ratio_route():
    # X^{-1} A of a candidate X comes from problem._candidate_w, whose Cholesky
    # factor is also the SPD test; an LU solve beside it gives a second rho in
    # the last bits, and the invariant-subspace defect needs no 2n-by-2n pencil
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [name for name in ("problem.py", "solvers.py")
            if "np.linalg.solve" in texts[name]] == []
    assert texts["problem.py"].count("build_pencil(") == 1
    assert "def build_pencil(" in texts["problem.py"]


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_stein_doubling_loop_calls_dgemm_not_matmul():
    # each doubling step is three dgemm into per-call buffers, with X
    # accumulated in place, and one ddot; an @ in the loop brings back numpy's
    # dispatch and a fresh X every step, an np. call or _sum_sq builds an
    # array every step, and a keyword argument costs f2py's keyword parsing
    loops = [node for node in ast.walk(_function("solvers.py", "solve_stein"))
             if isinstance(node, ast.For)]
    assert len(loops) == 1
    assert [node for node in ast.walk(loops[0])
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)] == []
    calls = [node for statement in loops[0].body for node in ast.walk(statement)
             if isinstance(node, ast.Call)]
    assert [ast.unparse(node) for node in calls if node.keywords] == []
    assert sorted(ast.unparse(node.func) for node in calls) == [
        "ddot", "gemm", "gemm", "gemm", "math.isfinite"]


def test_newton_passes_the_kernels_residual_to_stein():
    # Newton in correction form: the Stein right side is the residual kernel's
    # R(X_k), not a Q - 2G formed beside it, and X_{k+1} = X_k + E_k, where
    # E_k = solve_stein(...) is kept for the size of the step
    newton = _function("solvers.py", "solve_newton")
    assert "np.multiply(G, 2.0" not in ast.unparse(newton)
    unpack = next(node for node in ast.walk(newton) if isinstance(node, ast.Assign)
                  and "factored_residual" in ast.unparse(node.value))
    R = unpack.targets[0].elts[0].id
    stein = [node for node in ast.walk(newton)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "solve_stein"]
    assert [ast.unparse(node.args[1]) for node in stein] == [R]
    assert [node.arg for node in stein[0].keywords] == ["rtol"]
    E = next(node.targets[0].id for node in ast.walk(newton)
             if isinstance(node, ast.Assign) and node.value is stein[0])
    assert f"X + {E}" in ast.unparse(newton)


def test_drive_keeps_no_previous_iterate():
    # each update yields the size of its own step, so _Run.drive keeps the
    # floats but no X_{k-1} and takes no norm of X_k - X_{k-1} itself
    drive = _function("solvers.py", "drive")
    assert "fro_norm(" not in ast.unparse(drive)
    assert not [node for node in ast.walk(drive)
                if isinstance(node, ast.Assign) and ast.unparse(node.value) == "X"]


def test_cli_forces_history_only_for_scalar_critical():
    # the rate needs no history, so only scalar-critical, which reads the
    # iterates, sets record_history=True
    tree = ast.parse((SRC / "cli.py").read_text())
    forced = [function.name for function in tree.body if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function) if isinstance(node, ast.keyword)
              and node.arg == "record_history" and ast.unparse(node.value) == "True"]
    assert forced == ["_cmd_scalar_critical"]


def test_one_preparation_for_both_stein_paths():
    # solve_stein reads L and C, scales C by one power of two s and symmetrizes
    # C / s once for the doubling and the Schur solve, and tests the X / s of
    # either path against the float range once, just before it returns; a
    # second read, scale, symmetrization or range test forks them again
    tree = ast.parse((SRC / "solvers.py").read_text())
    stein = [node for node in tree.body
             if isinstance(node, ast.FunctionDef) and "stein" in node.name]
    text = "\n".join(map(ast.unparse, stein))
    assert text.count("_square_real(") == 2  # one site, L and C
    assert text.count("_pow2_scale(") == 2  # s of C, and t of the Schur solve's eigenvalue gaps
    assert "symmetric_part(" not in text and "_unit_scaled(" not in text
    checks = [node for function in stein for node in ast.walk(function)
              if isinstance(node, ast.If) and "Diverged" in ast.unparse(node.body[0])
              and "scale" not in ast.unparse(node.test)]  # not the pre-check of dtgsyl's scale
    body = next(node for node in stein if node.name == "solve_stein").body
    assert checks == [body[-2]] and isinstance(body[-1], ast.Return)


def test_stein_schur_form_from_scipy_schur():
    # the Schur solve takes scipy.linalg.schur's form, with its workspace
    # query, and reads the eigenvalues of L off its own 2x2 blocks; a private
    # dgees call beside it brings back a cached workspace query and a select
    # callback that never runs
    text = (SRC / "solvers.py").read_text()
    assert [name for name in ("_no_sort", "_dgees_lwork", "lapack.dgees") if name in text] == []
    assert text.count("scipy.linalg.schur(") == 1
    assert "scipy.linalg.schur(" in ast.unparse(_function("solvers.py", "solve_stein"))


def test_doubling_step_has_no_matmul_and_no_symmetrization():
    # the step's products are one dgemm and two dsyrk whose lower triangles
    # are copied up; an @ or a symmetric_part brings back the 3n^3 step
    tree = _function("solvers.py", "solve_sda")
    assert [node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)] == []
    assert "symmetric_part(" not in ast.unparse(tree)


def test_doubling_step_inverts_by_the_blocked_kernel():
    # the step's inverse factor comes from problem._cholesky_inverse, which
    # calls dtrtri only on its leaves of order <= 64 and factors them by
    # _cholesky; a dtrtri in the step brings back the unblocked inverse above
    # n = 64, and an @ in the kernel numpy's dispatch
    def called(function):
        return [ast.unparse(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)]

    sda, kernel = _function("solvers.py", "solve_sda"), _function("problem.py", "_cholesky_inverse")
    assert [name for name in called(sda) if "dtrtri" in name] == []
    assert "_cholesky_inverse" in ast.unparse(sda)
    assert [node for node in ast.walk(kernel)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)] == []
    assert "_cholesky" in called(kernel)
    assert [name for name in called(kernel) if "dpotrf" in name] == []


def test_one_spd_factorization():
    # every SPD test and factor, doubling's included, is the dpotrf of
    # problem._cholesky; a Bunch-Kaufman dsytrf beside it forks the test
    texts = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert [f"{name}:{routine}" for name, text in texts.items()
            for routine in ("dsytrf", "dsyconv", "dlaswp") if routine in text] == []
    assert sum(text.count("dpotrf(") for text in texts.values()) == 1
    assert "dpotrf(" in ast.unparse(_function("problem.py", "_cholesky"))


def test_fro_norm_enters_no_errstate():
    # np.vdot does not warn on overflow, so the norm needs no error context
    assert "errstate" not in ast.unparse(_function("problem.py", "fro_norm"))


def _scoped_nodes(module: str):
    """(qualified name of the enclosing def or class, node) for each node of ``module``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
            else:
                yield ".".join(scope), child
                yield from visit(child, scope)

    return visit(ast.parse((SRC / module).read_text()), ())


def _errstate_sites(module: str) -> set:
    """Qualified names of the functions in ``module`` that name np.errstate."""
    return {scope for scope, node in _scoped_nodes(module)
            if isinstance(node, ast.Attribute) and node.attr == "errstate"}


def test_errstate_only_at_the_outer_contexts():
    # entering np.errstate costs about as much as a small BLAS call, so the
    # solvers enter one per solve (drive); the residual kernel and the
    # doubling steps run inside it, and the Stein check needs none, as it
    # first tests that ||X||_F^2 is finite
    assert _errstate_sites("solvers.py") <= {"_Run.drive"}
    assert _errstate_sites("problem.py") <= {"symmetric_part", "residual"}


def test_input_validation_sites():
    # caller arrays are read once, where they enter: new_problem (A, Q, and the
    # a and q of solve_sda_scalar), _candidate (X), psi (lambda),
    # SymplecticPencil (M, L), solve_stein (L and C, at one site), ShiftSpec
    # (V, lam, lam_hat, and R1 and R2 at one site), shift_single (v, r, lambda0
    # and lambda1) and solve_scalar_shifted (a and q), and only _matrix raises
    # NonFiniteInput on a read (psi also raises it where an entry of psi
    # overflows); a second read of the same data (say, of a spec in shift_multi)
    # forks the rule and pays for its scan again
    sites = Counter()
    for module in ("problem.py", "solvers.py", "shifting.py"):
        for scope, node in _scoped_nodes(module):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("_square_real", "_matrix")):
                sites[f"{module}:{scope}:{node.func.id}"] += 1
            elif isinstance(node, ast.Raise) and "NonFiniteInput(" in ast.unparse(node):
                sites[f"{module}:{scope}:raise NonFiniteInput"] += 1
    assert sites == {
        "problem.py:SymplecticPencil.__post_init__:_matrix": 2,
        "problem.py:_matrix:raise NonFiniteInput": 1,
        "problem.py:_square_real:_matrix": 1,
        "problem.py:new_problem:_square_real": 2,
        "problem.py:_candidate:_square_real": 1,
        "problem.py:psi:_matrix": 1,
        "problem.py:psi:raise NonFiniteInput": 1,
        "solvers.py:solve_stein:_square_real": 2,
        "shifting.py:ShiftSpec.__post_init__:_matrix": 4,
        "shifting.py:shift_single:_matrix": 3,
        "shifting.py:solve_scalar_shifted:_matrix": 1,
    }


def test_problems_are_built_only_by_new_problem():
    # an NmeProblem built anywhere else skips the checks of new_problem
    sites = [f"{path.name}:{scope}" for path in sorted(SRC.glob("*.py"))
             for scope, node in _scoped_nodes(path.name)
             if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("NmeProblem")]
    assert sites == ["problem.py:new_problem"]


def test_matrix_reader_has_no_finiteness_switch():
    # NaN/Inf in caller data raise NonFiniteInput at every read
    assert [arg.arg for arg in _function("problem.py", "_matrix").args.args] == [
        "M", "name", "dtype"]


def test_real_shift_refused_by_the_realness_of_the_shifted_pencil():
    # SymplecticPencil decides whether a factor is real (REAL_RTOL), and
    # shift_multi refuses a real pencil's complex shift on the pencil it
    # built; a matcher of (lam, lam_hat) pairs beside it decides twice, blind
    # to R1, and CLOSURE_RTOL is left to the reciprocal-pairing warning
    text = (SRC / "shifting.py").read_text()
    assert "_conjugate_closed" not in text
    assert text.count("raise ConjugateClosureViolated(") == 1
    body = [ast.unparse(node) for node in _function("shifting.py", "shift_multi").body]
    built = [i for i, line in enumerate(body) if line.startswith("out = SymplecticPencil(")]
    raised = [i for i, line in enumerate(body) if "raise ConjugateClosureViolated(" in line]
    assert len(built) == 1 and len(raised) == 1 and built[0] < raised[0]
    assert {scope for scope, node in _scoped_nodes("shifting.py")
            if isinstance(node, ast.Name) and node.id == "CLOSURE_RTOL"} == {"", "_reciprocal_closed"}


def test_one_critical_shift_and_no_qz_in_it():
    # the critical equation is shifted by the closed form of _critical_shift
    # alone: its null vectors come from one eigh of psi(-/+1), not from the
    # 2n-by-2n QZ of _critical_angles, and the scalar relocation {1, 1} ->
    # {r, 1/r} beside it would be a second tactic for the same equation
    called = [ast.unparse(node.func) for node in ast.walk(_function("shifting.py", "_critical_shift"))
              if isinstance(node, ast.Call)]
    assert [name for name in called if re.search(r"eigvals|qz|_critical_angles|detect_unimodular",
                                                 name)] == []
    assert called.count("np.linalg.eigh") == 1
    source = (SRC / "shifting.py").read_text()
    assert "SCALAR_SHIFT_R" not in source and "ScalarShiftStep" not in source
    assert "_critical_shift(" in ast.unparse(_function("shifting.py", "solve_scalar_shifted"))


def test_every_solver_yields_from_one_loop():
    # each steps() generator tests X_0 = Q by the route of its later iterates
    # and hands every X_k to _Run.drive from one yield of (X, res, step, aux,
    # stop); a start-up yield, or a start helper on _Run, forks the first
    # iterate's test again.  History's diagnostics are taken by _Run.drive from
    # the iterates it stores, so no loop reads record_history or calls an
    # eigensolver, and only SolverConfig and _Run read record_history
    tree = ast.parse((SRC / "solvers.py").read_text())
    generators = {solver.name: steps for solver in tree.body if isinstance(solver, ast.FunctionDef)
                  for steps in solver.body
                  if isinstance(steps, ast.FunctionDef) and steps.name == "steps"}
    yields = {name: [node for node in ast.walk(steps) if isinstance(node, ast.Yield)]
              for name, steps in generators.items()}
    assert {name: len(nodes) for name, nodes in yields.items()} == {
        "solve_fixed_point": 1, "solve_inversion_free": 1, "solve_newton": 1, "solve_sda": 1}
    assert all(isinstance(node.value, ast.Tuple) and len(node.value.elts) == 5
               for nodes in yields.values() for node in nodes)
    for steps in generators.values():
        named = {node.id for node in ast.walk(steps) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(steps) if isinstance(node, ast.Attribute)}
        assert named.isdisjoint({"record_history", "eigvals", "eigvalsh", "spectral_radius"})
    readers = {scope.split(".")[0] for scope, node in _scoped_nodes("solvers.py")
               if isinstance(node, ast.Attribute) and node.attr == "record_history"}
    assert readers and readers <= {"SolverConfig", "_Run"}
    run = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Run")
    assert "start_at_q" not in [node.name for node in run.body if isinstance(node, ast.FunctionDef)]


def test_run_is_its_report():
    # _Run fills the one SolveReport it returns; a copy of its history,
    # iterates or last accepted X and k beside it, or a gate flag that the
    # doubling generator writes and the driver reads, forks the run's record
    # again: doubling marks a gated Q_k by a None residual alone
    tree = ast.parse((SRC / "solvers.py").read_text())
    run = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Run")
    methods = {node.name: node for node in run.body if isinstance(node, ast.FunctionDef)}
    assert "capture" not in methods
    assigned = {node.attr for node in ast.walk(methods["__init__"])
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert assigned.isdisjoint({"gated", "accepted", "history", "iterates", "aux_iterates"})
    assert "every_step" not in ast.unparse(_function("solvers.py", "solve_sda"))


def test_one_residual_of_the_reported_x():
    # a report keeps the residual its run took of X: the CLI takes none of its
    # own, and only _Run writes a report's rel_residual
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    called = {ast.unparse(node.func).rsplit(".", 1)[-1] for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    assert "residual" not in imported | called
    writers = {scope for scope, node in _scoped_nodes("solvers.py")
               if isinstance(node, ast.Attribute) and node.attr == "rel_residual"
               and isinstance(node.ctx, ast.Store)}
    assert writers and all(scope.startswith("_Run.") for scope in writers)
