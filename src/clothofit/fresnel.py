"""Fresnel integrals.

The pi/2-normalized convention is used throughout:

    C(t) = int_0^t cos(pi/2 u^2) du,      S(t) = int_0^t sin(pi/2 u^2) du.

With u = (pi/2) t^2 and w = u^2, C/t and S/(t u) are polynomials in w
for |t| <= 1.6, in two pieces, each summed by one unrolled Horner
expression per column of its table:

* |t| <= 0.6, where most of a sampled curve's calls land: degree 5,
  `_CS_SS_SMALL`, the Chebyshev interpolant at 6 first-kind nodes on
  w in [0, ((pi/2) 0.6^2)^2];
* 0.6 < |t| <= 1.6: degree 11, `_CS_SS`, the interpolant at 12 nodes
  on w in [0, ((pi/2) 1.6^2)^2].

Each interpolates the Maclaurin series, solved in 50-digit mpmath,
converted to monomials and rounded to doubles.  Against 30-digit mpmath
over t = 0.001..1.6 in steps of 0.001 both integrals stay within 3.8e-16
relative on the first piece and 8e-16 on the second (3.5e-16 of it on
0.6 < |t| <= 1); over the 201 doubles on each side of a switch and at
1e-6 and 1e-3 relative from it the worst is 3.8e-16 at 0.6 and 1.1e-15
at 1.6.  Beyond, the asymptotic form

    C(t) = 1/2 + f(t) sin u - g(t) cos u
    S(t) = 1/2 - f(t) cos u - g(t) sin u

takes f and g as rationals in 1/(pi t^2)^2 (Cephes fresnl coefficients),
whose four polynomials are unrolled the same way.  Both branches are
within 2e-15 relative of 30-digit mpmath on [1e-3, 10].  The kernel
`_fresnel_core(t, phase)` returns sin u and cos u beside C and S, the
phase carried in two doubles up to |t| = 1e150, and None for both past
it.  On the series branch it computes them only on request (`phase`
true) and returns None for both otherwise, with C and S the same bits
either way: only `gfresnel`'s large-|a| path at k >= 2 asks, reading
both ends of its completed square straight from the kernel to form its
orders 1 and 2 and turning the result by the square's phase and the
offset c at once.  A curve's square rows, every k = 1 evaluation and
`fresnel` itself read C and S alone.
"""

import math

from .errors import _finite_float

__all__ = ["fresnel"]

_SERIES_CUTOFF = 1.6
# The series sums _CS_SS_SMALL up to this |t| and _CS_SS above it, up to
# _SERIES_CUTOFF.
_SMALL_CUTOFF = 0.6
# The two-double phase (pi/2) t^2 overflows for |t| > ~1.16e150; past
# this both integrals are 1/2 within 1/(pi t) < 1e-150.
_PHASE_LIMIT = 1e150

# Veltkamp splitter and a two-double representation of pi/2, used to carry
# the phase (pi/2) t^2 beyond plain double precision.
_SPLIT = 134217729.0
_PIO2_HI = 1.5707963267948966
_PIO2_LO = 6.123233995736766e-17

# (C(t)/t, S(t)/(t u)) coefficient pairs in w, highest degree first, built
# for |t| <= 1.6 and summed for 0.6 < |t| <= 1.6.
_CS_SS = (
    (-1.681514647447558e-23, -7.088120135058062e-25),
    (9.902944020469536e-21, 4.504529953380202e-22),
    (-4.218465418838293e-18, -2.1067151925742584e-19),
    (1.4482813201355854e-15, 8.032559977164874e-17),
    (-3.955424928653273e-13, -2.4668252308167058e-14),
    (8.350702483656753e-11, 5.947793892791596e-12),
    (-1.3122532949868116e-08, -1.089222103174152e-09),
    (1.458916900053829e-06, 1.4503852222997018e-07),
    (-0.0001068376068375406, -1.3227513227510656e-05),
    (0.004629629629629572, 0.0007575757575757553),
    (-0.09999999999999998, -0.023809523809523808),
    (1.0, 0.3333333333333333),
)
# The same pairs for |t| <= 0.6, degree 5.
_CS_SS_SMALL = (
    (-1.304264964914303e-08, -1.0835303996288288e-09),
    (1.4588881887088392e-06, 1.450364763047991e-07),
    (-0.00010683760207904095, -1.322751288840735e-05),
    (0.004629629629273068, 0.0007575757575503476),
    (-0.09999999999999022, -0.023809523809523114),
    (1.0, 0.3333333333333333),
)

# Cephes rational fits for the auxiliary functions, highest degree first.
_FN = (
    4.21543555043677546506e-1, 1.43407919780758885261e-1,
    1.15220955073585758835e-2, 3.45017939782574027900e-4,
    4.63613749287867322088e-6, 3.05568983790257605827e-8,
    1.02304514164907233465e-10, 1.72010743268161828879e-13,
    1.34283276233062758925e-16, 3.76329711269987889006e-20,
)
_FD = (
    1.0,
    7.51586398353378947175e-1, 1.16888925859191382142e-1,
    6.44051526508858611005e-3, 1.55934409164153020873e-4,
    1.84627567348930545870e-6, 1.12699224763999035261e-8,
    3.60140029589371370404e-11, 5.88754533621578410010e-14,
    4.52001434074129701496e-17, 1.25443237090011264384e-20,
)
_GN = (
    5.04442073643383265887e-1, 1.97102833525523411709e-1,
    1.87648584092575249293e-2, 6.84079380915393090172e-4,
    1.15138826111884280931e-5, 9.82852443688422223854e-8,
    4.45344415861750144738e-10, 1.08268041139020870318e-12,
    1.37555460633261799868e-15, 8.36354435630677421531e-19,
    1.86958710162783235106e-22,
)
_GD = (
    1.0,
    1.47495759925128324529e0, 3.37748989120019970451e-1,
    2.53603741420338795122e-2, 8.14679107184306179049e-4,
    1.27545075667729118702e-5, 1.04314589657571990585e-7,
    4.60680728146520428211e-10, 1.10273215066240270757e-12,
    1.38796531259578871258e-15, 8.39158816283118707363e-19,
    1.86958710162783236342e-22,
)
# The tables unpacked by degree for the unrolled Horner sums in
# `_fresnel_core`.  The leading 1.0 of FD and GD is left out: 1.0 u == u
# exactly, so the sums start from u plus the next coefficient.
((_C11, _S11), (_C10, _S10), (_C9, _S9), (_C8, _S8), (_C7, _S7), (_C6, _S6),
 (_C5, _S5), (_C4, _S4), (_C3, _S3), (_C2, _S2), (_C1, _S1), (_C0, _S0)) = _CS_SS
((_SC5, _SS5), (_SC4, _SS4), (_SC3, _SS3),
 (_SC2, _SS2), (_SC1, _SS1), (_SC0, _SS0)) = _CS_SS_SMALL
_FN9, _FN8, _FN7, _FN6, _FN5, _FN4, _FN3, _FN2, _FN1, _FN0 = _FN
_FD9, _FD8, _FD7, _FD6, _FD5, _FD4, _FD3, _FD2, _FD1, _FD0 = _FD[1:]
_GN10, _GN9, _GN8, _GN7, _GN6, _GN5, _GN4, _GN3, _GN2, _GN1, _GN0 = _GN
_GD10, _GD9, _GD8, _GD7, _GD6, _GD5, _GD4, _GD3, _GD2, _GD1, _GD0 = _GD[1:]


def _two_prod(a, b):
    """a * b as a rounded product plus exact error term."""
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _phase_sincos(x):
    """sin and cos of (pi/2) x^2, phase carried in two doubles.

    A plain double product drops ~x^2 * eps radians of phase, which
    dominates the error of the asymptotic branch for large x.  Splitting
    the square and pi/2 and folding the residual in by angle addition
    keeps the phase of the exact input accurate to ~1e-32 relative.
    """
    sq, sq_err = _two_prod(x, x)
    ph, ph_err = _two_prod(_PIO2_HI, sq)
    tail = ph_err + _PIO2_LO * sq + _PIO2_HI * sq_err
    sh = math.sin(ph)
    ch = math.cos(ph)
    st = math.sin(tail)
    ct = math.cos(tail)
    return sh * ct + ch * st, ch * ct - sh * st


def _fresnel_core(t, phase=False):
    """C(t), S(t), sin u, cos u with u = (pi/2) t^2, for unchecked finite t.

    The series branch computes sin u and cos u only when `phase` is true
    and returns None for both otherwise; C and S are the same bits either
    way.  The asymptotic branch needs the pair for C and S and returns it
    regardless.  Past _PHASE_LIMIT, where the phase overflows, sin u and
    cos u are None."""
    x = abs(t)
    if x <= _SERIES_CUTOFF:
        u = 0.5 * math.pi * x * x
        w = u * u
        # S's last factor is (x * u): (...) * x * u rounds differently
        if x <= _SMALL_CUTOFF:
            cc = (_SC0 + w * (_SC1 + w * (_SC2 + w * (_SC3 + w * (_SC4 + w * _SC5))))) * x
            sv = (_SS0 + w * (_SS1 + w * (_SS2 + w * (_SS3 + w * (_SS4 + w * _SS5))))) * (x * u)
        else:
            cc = (_C0 + w * (_C1 + w * (_C2 + w * (_C3 + w * (_C4 + w * (_C5 + w * (
                _C6 + w * (_C7 + w * (_C8 + w * (_C9 + w * (_C10 + w * _C11))))))))))) * x
            sv = (_S0 + w * (_S1 + w * (_S2 + w * (_S3 + w * (_S4 + w * (_S5 + w * (
                _S6 + w * (_S7 + w * (_S8 + w * (_S9 + w * (_S10 + w * _S11))))))))))) * (x * u)
        s, c = (math.sin(u), math.cos(u)) if phase else (None, None)
    elif x > _PHASE_LIMIT:
        h = math.copysign(0.5, t)
        return h, h, None, None
    else:
        # past |t| ~ 1e77 pix2 * pix2 overflows to inf and u = 0.0, which
        # leaves the leading terms f = 1, g ~ 1/(pi t^2): still correct
        pix2 = math.pi * (x * x)
        u = 1.0 / (pix2 * pix2)
        fn = _FN0 + u * (_FN1 + u * (_FN2 + u * (_FN3 + u * (_FN4 + u * (
            _FN5 + u * (_FN6 + u * (_FN7 + u * (_FN8 + u * _FN9))))))))
        fd = _FD0 + u * (_FD1 + u * (_FD2 + u * (_FD3 + u * (_FD4 + u * (
            _FD5 + u * (_FD6 + u * (_FD7 + u * (_FD8 + u * (_FD9 + u)))))))))
        gn = _GN0 + u * (_GN1 + u * (_GN2 + u * (_GN3 + u * (_GN4 + u * (
            _GN5 + u * (_GN6 + u * (_GN7 + u * (_GN8 + u * (_GN9 + u * _GN10)))))))))
        gd = _GD0 + u * (_GD1 + u * (_GD2 + u * (_GD3 + u * (_GD4 + u * (
            _GD5 + u * (_GD6 + u * (_GD7 + u * (_GD8 + u * (_GD9 + u * (_GD10 + u))))))))))
        f = 1.0 - u * fn / fd
        g = gn / (gd * pix2)
        s, c = _phase_sincos(x)
        pix = math.pi * x
        cc = 0.5 + (f * s - g * c) / pix
        sv = 0.5 - (f * c + g * s) / pix
    if t < 0.0:
        return -cc, -sv, s, c
    return cc, sv, s, c


def fresnel(t: float):
    """Evaluate the Fresnel integrals.

    Parameters
    ----------
    t : float
        Finite argument, any sign (both integrals are odd): a float, int or
        Fraction, evaluated as its float.

    Returns
    -------
    (C, S) : pair of float
        Relative accuracy is ~1e-15 for |t| <= 10 and absolute ~1e-15
        beyond, where both values approach 1/2 with an oscillation of
        amplitude 1/(pi t).  The asymptotic form tracks it up to |t| =
        1e150; past that the phase overflows and 1/2 itself is returned,
        within 1e-150.

    Raises
    ------
    ValueError
        "fresnel: t must be finite" (an int or Fraction past the float
        range too) or "fresnel: t must be a float, int or Fraction" (a
        Decimal, or a numpy.float32 in which the kernel would run), by the
        rule of `HermiteData`'s fields.
    """
    return _fresnel_core(_finite_float(t, "fresnel", "t"))[:2]

