"""Closed-form fields of the three-charge collinear rotations, written out.

The solvers take the field of every collinear root from one n-charge form
(``solvers._collinear_field``: the second balance row solved for B, sign
flipped for Configuration III).  These two expressions are independent of
it and of each other, so the tests compare the sweep's fields and the sign
map B_III(v1, v2, v3) = -B_II(v1, v2, -v3) against them.
"""

from magnetotrio import DegenerateError


def closed_form_B_II(spec, v1, v2, v3):
    """Field strength that makes (v1, v2, v3) a Configuration-II root."""
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    num = ((v1 - v2)**2 * v2 * (v2 - v3)**2 * (m1*v1 + m2*v2 + m3*v3)
           * (e2*(m1*v1 + m3*v3) - m2*(e1*v1 + e3*v3)))
    den = (e2 * (e1*(v2 - v3)**2 - e3*(v1 - v2)**2)
           * (e1*v1 + e2*v2 + e3*v3)**2)
    if den == 0.0:
        raise DegenerateError("Configuration-II field denominator vanishes")
    return num / den


def closed_form_B_III(spec, v1, v2, v3):
    """Field strength that makes (v1, v2, v3) a Configuration-III root,
    written out independently of :func:`closed_form_B_II`."""
    e1, e2, e3 = spec.charges
    m1, m2, m3 = spec.masses
    num = ((v1 - v2)**2 * v2 * (v2 + v3)**2 * (m1*v1 + m2*v2 - m3*v3)
           * (e2*(m1*v1 - m3*v3) + m2*(e3*v3 - e1*v1)))
    den = (e2 * (e1*(v2 + v3)**2 - e3*(v1 - v2)**2)
           * (e1*v1 + e2*v2 - e3*v3)**2)
    if den == 0.0:
        raise DegenerateError("Configuration-III field denominator vanishes")
    return -num / den
