"""DOP853: the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince, with its 7th-order dense output (Hairer, Norsett and Wanner,
*Solving Ordinary Differential Equations I*, 2nd ed., 1993, sections II.5
and II.10).

The step control is that of ``scipy.integrate.solve_ivp(method="DOP853")``,
operation for operation: the initial-step choice, the RMS error norm that
blends the 5th- and 3rd-order estimators, the factors SAFETY, MIN_FACTOR and
MAX_FACTOR with the exponent -1/8, no growth on the step after a rejection,
and a minimum step of 10 ulp(t).  The stage sums are written as numpy dot
products in the same order, so a run takes the same steps, makes the same
number of right-hand-side calls and returns the same floats.  Stage
operands are sliced once per stepper; stage points share one buffer, which
``fun`` must not keep; its array or list goes straight into its row of ``K``;
``nfev`` is counted per batch of stages.  The coefficients are the published
ones, each written as the shortest decimal that rounds to the same double.
:func:`interpolate` evaluates the dense output of many steps in one batched
pass, to the bit of each step's own Horner scheme.
"""

import math
import warnings

import numpy as np

from .errors import StepUnderflow

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EXPONENT = -1 / 8   # -1 / (order of the error estimator + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

N_STAGES = 12            # stages of one step; stage 12 is f at the new point
N_STAGES_EXTENDED = 16   # with the three extra stages of the dense output

C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
              0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
              0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
              0.7777777777777778])


def _from_rows(shape, rows):
    """An array of ``shape`` with the entries ``{column: value}`` of each
    row in ``rows`` and zeros elsewhere."""
    out = np.zeros(shape)
    for r, row in enumerate(rows):
        for j, value in row.items():
            out[r, j] = value
    return out


A = _from_rows((N_STAGES_EXTENDED, N_STAGES_EXTENDED), [
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    # row 12 is the solution weight B
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    # rows 13-15: the extra stages of the dense output
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
])

B = A[N_STAGES, :N_STAGES]

# the 3rd-order estimator: B less the weights bhh of the embedded formula
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.2440944881889764
E3[8] -= 0.7338466882816118
E3[11] -= 0.022058823529411766

E5 = _from_rows((1, N_STAGES + 1), [
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
])[0]

# the last four of the seven dense-output coefficients, over all 16 stages
D = _from_rows((4, N_STAGES_EXTENDED), [
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class DOP853:
    """Adaptive DOP853 steps of ``y' = fun(t, y)`` from ``(t0, y0)`` up to
    ``t_bound > t0``.

    Each :meth:`step` takes one accepted step; ``t`` and ``y`` are then its
    end point and ``nfev`` counts every call of ``fun``.  ``rtol`` below
    100 eps is raised to 100 eps with a warning.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        if rtol < 100 * EPS:
            warnings.warn("At least one element of `rtol` is too small. "
                          f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                          stacklevel=4)
            rtol = np.maximum(rtol, 100 * EPS)
        # 0-d arrays: numpy converts a Python float at every use
        self.fun, self.rtol, self.atol = fun, np.array(rtol), np.array(atol)
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.t_old = self.y_old = self.h = None
        self.f = np.asarray(fun(t0, y0), float)
        self.h_abs = float(self._initial_step())   # steps run in floats
        self.nfev = 2   # f at t0 and the heuristic's trial point
        K = self.K = np.empty((N_STAGES_EXTENDED, y0.size))
        self._buf = np.empty(y0.size)
        plan = [(K[:s].T, A[s, :s], C[s].item(), K[s])
                for s in range(1, N_STAGES_EXTENDED)]
        self._step_plan, self._dense_plan = plan[:N_STAGES], plan[N_STAGES:]
        self._KE = K[:N_STAGES + 1].T

    def _initial_step(self):
        """Hairer's starting-step heuristic for an estimator of order 7."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _rms((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        return min(100 * h0, h1, interval)

    def _stages(self, plan, t, y, h):
        """Fill the stages of ``plan`` at ``(t, y)`` with step ``h``."""
        fun, buf, h_arr = self.fun, self._buf, np.array(h)
        for KT, a, c, row in plan:
            KT.dot(a, out=buf)
            buf *= h_arr
            buf += y
            row[:] = fun(t + c * h, buf)
        self.nfev += len(plan)

    def _error_norm(self, h, scale):
        err5 = self._KE.dot(E5) / scale
        err3 = self._KE.dot(E3) / scale
        # numpy scalars: a runaway overflows to inf, where floats would raise
        err5_norm_2 = np.sqrt(err5.dot(err5)) ** 2
        err3_norm_2 = np.sqrt(err3.dot(err3)) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return float(abs(h) * err5_norm_2 / np.sqrt(denom * len(scale)))

    def step(self):
        """Take one accepted step; raise :class:`StepUnderflow` when the step
        the error allows falls below 10 ulp(t)."""
        t, y, K = self.t, self.y, self.K
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        K[0] = self.f
        while True:
            # written so that a NaN step fails it too, where scipy would
            # retry the NaN step forever
            if not h_abs >= min_step:
                raise StepUnderflow(TOO_SMALL_STEP)
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)

            self._stages(self._step_plan, t, y, h)
            y_new = self._buf.copy()   # stage 12's point: A[12, :12] is B

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** EXPONENT)
            rejected = True

        self.h, self.h_abs = h, h_abs
        self.t_old, self.y_old = t, y
        self.t, self.y, self.f = t_new, y_new, K[N_STAGES].copy()

    def dense_step(self):
        """What :func:`interpolate` needs of the last step: ``(t_old, t, h,
        y_old, y, f_old, f, D K)``; its three extra stages call ``fun``."""
        K, h = self.K, self.h
        self._stages(self._dense_plan, self.t_old, self.y_old, h)
        return (self.t_old, self.t, h, self.y_old, self.y, K[0].copy(), self.f,
                D.dot(K))


def interpolate(t, steps, counts):
    """One solution row per time of the 1-D array ``t``, which holds
    ``counts[k]`` times of step ``k`` of ``steps`` (:meth:`DOP853.dense_step`
    tuples) in turn.  Every element takes the operations of its step's own
    Horner scheme, from a start at zero, with F built for all steps at once.
    """
    t_old, t_new, h, y_old, y, f_old, f, DK = map(np.array, zip(*steps))
    at = np.repeat(np.arange(len(steps)), counts)
    h = h[:, None]
    delta_y = y - y_old
    hDK = h[:, None] * DK
    F = [delta_y, h * f_old - delta_y, 2 * delta_y - h * (f + f_old),
         *(hDK[:, k] for k in range(4))]
    x = ((t - t_old[at]) / (t_new - t_old)[at])[:, None]
    factors = (x, 1 - x)
    out = np.zeros((len(at), y_old.shape[1]))
    for i, row in enumerate(reversed(F)):
        out += row[at]
        out *= factors[i % 2]
    out += y_old[at]
    return out
