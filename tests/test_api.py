"""The public surface: each collinear concept has one public entry."""

import magnetotrio
from magnetotrio import errors, jacobi, model, solvers

# three-charge copies of the collinear system, written-out oracles, a
# value every solution row carries and an error class whose refusals are
# now DomainError or uncertified rows, which left the API, each for its
# one remaining path (CHANGES.md)
REMOVED = ("residuals_config_II", "residuals_config_III", "closed_form_B_nbody",
           "evaluate_p6", "pseudomomentum_jacobi", "apply_symmetry",
           "closed_form_B_II", "closed_form_B_III", "newton_balance",
           "ValidityError")


def test_solver_exports_resolve_and_removed_names_are_gone():
    # a stale __all__ entry would break ``from magnetotrio.solvers import *``
    assert [n for n in solvers.__all__ if not hasattr(solvers, n)] == []
    for module in (magnetotrio, errors, solvers, model, jacobi):
        assert [n for n in REMOVED if hasattr(module, n)] == [], module.__name__
