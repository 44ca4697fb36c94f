"""The public surface: each collinear concept has one public entry."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import magnetotrio
from magnetotrio import dynamics, errors, invariants, jacobi, model, solvers

SRC = Path(magnetotrio.__file__).parent

# three-charge copies of the collinear system, written-out oracles, a
# value every solution row carries and an error class whose refusals are
# now DomainError or uncertified rows, which left the API, each for its
# one remaining path; then the neutral pattern's closed forms, the raw
# residual vectors, the reduced Jacobi Hamiltonian and the generic
# bracket, which no runtime path calls and which the tests keep as
# oracles, the unread total mass, and the per-particle momenta that the
# one-pass invariant table computes in place, and the absolute collision
# threshold, which the watch now takes from the start state (CHANGES.md);
# then the single-quantity readers and their helper, whose quantities are
# read as the columns H, Lz, Casimir, I and k3x of ``invariant_table``
# (``invariant_columns`` names them), the per-pair rigidity record, whose
# worst deviation ``rigidity_report`` now returns as a float, and the
# Jacobi maps' weight-threading twins, whose work the public ``to_jacobi``,
# ``from_jacobi`` and ``rhs_jacobi`` now do themselves; then the eager
# finiteness check of a root's t = 0 line, which certification replaced
# by a NaN balance, and Configuration I's own row wrapper, whose rows are
# now the collinear ones and the third charge's circle; then the six-array
# Jacobi state and its flattener, since the maps take and return the flat
# vector the stepper integrates
REMOVED = ("residuals_config_II", "residuals_config_III", "closed_form_B_nbody",
           "evaluate_p6", "pseudomomentum_jacobi", "apply_symmetry",
           "closed_form_B_II", "closed_form_B_III", "newton_balance",
           "ValidityError", "helium_pattern", "helium_cubic_root",
           "helium_quartic_coefficients", "helium_closed_forms",
           "residuals_config_I", "residuals_nbody_II", "hamiltonian_jacobi",
           "poisson_bracket", "total_mass", "particle_pseudomomenta",
           "individual_angular_momenta", "collision_threshold", "hamiltonian",
           "angular_momentum", "casimir", "_column", "pair_virial",
           "third_pseudomomentum_x", "RigidityReport", "_to_jacobi",
           "_from_jacobi", "_rhs_jacobi", "solve_config_I_v3zero",
           "_config_I_v3zero_rows", "_pair_ratio", "copy", "_checked",
           "_config_I_terms", "JacobiState", "_flatten")


def test_solver_exports_resolve_and_removed_names_are_gone():
    # a stale __all__ entry would break ``from magnetotrio.solvers import *``
    assert [n for n in solvers.__all__ if not hasattr(solvers, n)] == []
    for module in (magnetotrio, errors, solvers, model, jacobi, invariants,
                   dynamics, model.SystemSpec, model.PhaseState,
                   dynamics.IntegratorSettings):
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__
    # the closed conserved forms and the involution check stay public
    for name in ("conserved_closed_forms", "involution_check"):
        assert hasattr(magnetotrio, name), name


def test_integrator_settings_are_pinned():
    # the collision watch scales with the start state, so no length is a
    # setting
    assert [f.name for f in dataclasses.fields(dynamics.IntegratorSettings)] == [
        "t_end", "rel_tol", "abs_tol", "sample_interval"]


def test_integrate_takes_no_frame():
    # the rotating frame is the kernel ``dynamics._rhs(spec, w)``, which the
    # solvers' rigidity gate runs on ``dynamics._solve`` itself
    assert list(inspect.signature(dynamics.integrate).parameters) == [
        "spec", "state", "settings"]


def _unused_imports(path):
    """The names ``path`` imports at any depth and never reads, except
    those its ``__all__`` lists."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


# every import of the package's __init__ is a re-export
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
