"""One exact model of the promotion game, the tests' reference; it imports nothing from riscreen.

The prior, the interior test, the kernel, the bonuses and the paper's
bonus curves f and g are plain arithmetic in r = exp(-1/lam) or in
gamma = 1/r: on Fractions they are exact, and on floats
and numpy arrays they are the closed form in r, an oracle that rounds apart
from the library's logit kernel. The rest read float arguments as exact
Decimals in the current context, which ``digits(n)`` sets: 60 digits for
every reference, 400 for the rule; :func:`within_backward_error` holds a
float to such a reference at a lam moved by a few ulps.
"""

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext


def digits(n):
    """A Decimal context of n significant digits and the widest exponent range."""
    return localcontext(Context(prec=n, Emax=MAX_EMAX, Emin=MIN_EMIN))


def prior(mu_m, mu_w):
    """(p(-1), p(0), p(1)) of the difference d of the two outcomes; p(0) has no cancellation."""
    return mu_w * (1 - mu_m), mu_m * mu_w + (1 - mu_m) * (1 - mu_w), mu_m * (1 - mu_w)


def interior(A, B, r):
    """Whether the optimal signal at outcome odds A : B is interior: r < A/B < 1/r."""
    return (A > r * B) & (B > r * A)


def kernel(A, B, r):
    """(pi(-1), pi_bar, pi(1)) of the interior optimal signal at odds A : B, r = exp(-1/lam)."""
    a, q = A - r * B, 1 - r * r
    return r * a / (q * B), a / ((1 - r) * (A + B)), a / (q * A)


def bonuses(A, B, r):
    """(X, Y) = (pi(1) - pi_bar, pi_bar - pi(-1)); in Fractions K/A and K/B, K = (A - rB)(B - rA)/((1 - r^2)(A + B))."""
    pi_minus, pi_bar, pi_plus = kernel(A, B, r)
    return pi_plus - pi_bar, pi_bar - pi_minus


def logit_rule(s, lam):
    """(pi(-1), pi(0), pi(1), X, Y) of the logit rule logit pi(d) = s + d/lam, X = pi(1) - pi(0) and
    Y = pi(0) - pi(-1) each taken as sinh(h)/(2 cosh(a/2) cosh(b/2)), h = 1/(2 lam), a - b = 2h,
    which does not cancel when the conditionals nearly tie."""
    s, lam = Decimal(s), Decimal(lam)
    root = [((s + d / lam) / 2).exp() for d in (-1, 0, 1)]  # e^(t/2) of each logit t
    cosh = [(x + 1 / x) / 2 for x in root]
    e_h = (1 / (2 * lam)).exp()
    sinh = (e_h - 1 / e_h) / 2
    return (*(x * x / (1 + x * x) for x in root), sinh / (2 * cosh[2] * cosh[1]), sinh / (2 * cosh[1] * cosh[0]))


def intercept(A, B, lam):
    """logit(pi_bar) = ln((A - rB)/(B - rA)), r = exp(-1/lam), of the optimal signal at odds A : B;
    None at a corner, where A <= rB or B <= rA."""
    A, B = Decimal(A), Decimal(B)
    r = (-1 / Decimal(lam)).exp()
    a, b = A - r * B, B - r * A
    return (a / b).ln() if a > 0 and b > 0 else None


def within_backward_error(value, model, lam, shift=0.0, rel=4, ulps=4):
    """Whether the float value lies within `ulps` of its own ulps of model(lam', d) for some lam'
    within rel ulps of lam and some intercept shift d in [-shift, shift]: model maps a Decimal lam
    and a Decimal shift to a Decimal and is taken as monotone in each over that box, so only the
    corners, edge midpoints and centre of the box are evaluated."""
    step, shifts = Decimal(rel * math.ulp(lam)), (-Decimal(shift), Decimal(0), Decimal(shift))
    ends = [model(Decimal(lam) + k * step, d) for k in (-1, 0, 1) for d in (shifts if shift else shifts[1:2])]
    slack = ulps * Decimal(math.ulp(value))
    return min(ends) - slack <= Decimal(value) <= max(ends) + slack


def valuation(mu_m, mu_w, signal, lam):
    """(V, I, V - lam I) of signal = (pi(-1), pi(0), pi(1)): V = mu_w + p(1) pi(1) - p(-1) pi(-1)
    and I = sum_d p(d) D(pi(d) || m) at the exact prior mean m of the conditionals."""
    p, q = prior(Decimal(mu_m), Decimal(mu_w)), [Decimal(x) for x in signal]
    mean, info = sum(w * a for w, a in zip(p, q)), Decimal(0)
    if 0 < mean < 1:
        for w, a in zip(p, q):
            if a > 0:
                info += w * a * (a / mean).ln()
            if a < 1:
                info += w * (1 - a) * ((1 - a) / (1 - mean)).ln()
    V = Decimal(mu_w) + p[2] * q[2] - p[0] * q[0]
    return V, info, V - Decimal(lam) * info


def lambda_star(c):
    """1/ln((1 + 2c)/(1 - 2c)), and 0 where c >= 1/2."""
    c = Decimal(c)
    return 1 / ((1 + 2 * c) / (1 - 2 * c)).ln() if 2 * c < 1 else Decimal(0)


def lambda_breve(mu_hi, mu_lo):
    """1/ln(A/B), A = mu_hi (1 - mu_lo) and B = mu_lo (1 - mu_hi)."""
    B, _, A = prior(Decimal(mu_hi), Decimal(mu_lo))
    return 1 / (A / B).ln()


def gamma_hat(mu_hi, mu_lo):
    """The root above A/B of (gamma - 1)^2 (A + B) s = 2 (gamma A - B)(gamma B - A), s = mu_hi (1 - mu_hi)."""
    hi = Decimal(mu_hi)
    B, _, A = prior(hi, Decimal(mu_lo))
    s = hi * (1 - hi)
    c0 = (A + B) * s - 2 * A * B  # coefficient of gamma^2 and of gamma^0
    c1 = 2 * (A * A + B * B) - 2 * (A + B) * s
    return (c1 + (c1 * c1 - 4 * c0 * c0).sqrt()) / (-2 * c0)


def g(gamma):
    """The paper's g: the impartial bonus X = Y at gamma = exp(1/lam), (gamma - 1)/(2(gamma + 1))."""
    return (gamma - 1) / (2 * (gamma + 1))


def f(A, B, gamma):
    """The paper's f: the (hi, lo) bonus X at gamma = exp(1/lam) >= A/B, (gamma A - B)(gamma B - A)
    / ((gamma^2 - 1)(A + B) A), taken in r = 1/gamma, so an infinite gamma gives the limit B/(A + B)."""
    r = 1 / gamma
    return (A - r * B) * (B - r * A) / ((1 - r * r) * (A + B) * A)


def f_inverse(A, B, x):
    """gamma > A/B at which the (hi, lo) bonus X is x: the plus root of
    (AB - k) gamma^2 - (A^2 + B^2) gamma + (AB + k) = 0, k = x (A + B) A."""
    A, B, x = Decimal(A), Decimal(B), Decimal(x)
    k = x * (A + B) * A
    disc = (A * A - B * B) ** 2 + 4 * k * k
    return ((A * A + B * B) + disc.sqrt()) / (2 * (A * B - k))


def newton(f, x, scale=0):
    """x refined by Newton's method on f(x) = (value, slope), in at most 50 steps,
    to a step within 10^(20 - prec) of max(|x|, scale)."""
    start, tol = x, Decimal(10) ** (20 - getcontext().prec)
    for _ in range(50):
        value, slope = f(x)
        step = value / slope
        x -= step
        if abs(step) <= max(abs(x), scale) * tol:
            return x
    raise AssertionError(f"no convergence from {start!r}")


def quota_multiplier(mu_m, mu_w, lam, start):
    """nu solving sum_d p(d) / (1 + exp((nu - d)/lam)) = 1/2, by Newton's method from start.

    Its terms are O(1) and its slope is O(1/lam), so rounding leaves nu about
    lam 10^-prec absolute: the steps are measured against lam where |nu| < lam.
    """
    p, lam = prior(Decimal(mu_m), Decimal(mu_w)), Decimal(lam)

    def f(nu):
        e = [((nu - d) / lam).exp() for d in (-1, 0, 1)]
        return (sum(w / (1 + x) for w, x in zip(p, e)) - Decimal(1) / 2,
                -sum(w * x / (lam * (1 + x) ** 2) for w, x in zip(p, e)))

    return newton(f, Decimal(start), lam)


def odds_root(r, k, w_x, w_y, rho):
    """The root near rho of the odds cubic P(x) = (x - r)(1 - r x)(w_x + w_y x) - k x (1 + x)."""
    r, k, w_x, w_y = (Decimal(v) for v in (r, k, w_x, w_y))

    def f(x):
        u, v, w = x - r, 1 - r * x, w_x + w_y * x
        return u * v * w - k * x * (1 + x), v * w - r * u * w + w_y * u * v - k * (1 + 2 * x)

    return newton(f, Decimal(rho))


def prior_invariant(p, q, lam):
    """(pi_bar_q, pi(-1), pi(1)) of the prior-invariant closed form up / (up + down), None
    when either is not positive: up = q(1)/(1 - e^-b) - q(-1)/(e^a - 1) and down, its mirror
    image, taken as written, a = p(1)/(q(1) lam) and b = p(-1)/(q(-1) lam)."""
    q_m, q_p, lam = Decimal(q[0]), Decimal(q[2]), Decimal(lam)
    a, b = Decimal(p[2]) / q_p / lam, Decimal(p[0]) / q_m / lam
    up = q_p / (1 - (-b).exp()) - q_m / (a.exp() - 1)
    down = q_m / (1 - (-a).exp()) - q_p / (b.exp() - 1)
    if up <= 0 or down <= 0:
        return None
    base = (up / down).ln()
    return up / (up + down), 1 / (1 + (b - base).exp()), 1 / (1 + (-base - a).exp())


def binary_ri_rule(weights, advantage, lam):
    """(conditionals, q_bar) in floats of an interior binary RI rule, q(s) = t e^z/(1 + t e^z), z = v(s)/lam.

    The odds t = q_bar/(1 - q_bar) are bisected geometrically on [exp(-max|z| - 200),
    exp(max|z| + 200)] until hi/lo < 1 + 1e-15, on the residual sum_s p(s) (q(s) - q_bar)
    over q_bar, sum_s p(s) (e^z - 1)/(1 + t e^z), which keeps its digits as q_bar nears 0 or 1.
    """
    lam = Decimal(lam)
    z = [Decimal(v) / lam for v in advantage]
    ez, p = [zs.exp() for zs in z], [Decimal(w) for w in weights]
    span = max(abs(zs) for zs in z) + 200
    lo, hi = (-span).exp(), span.exp()
    while hi / lo - 1 > Decimal("1e-15"):
        with digits(30):  # the midpoint need not be exact
            mid = +(lo * hi).sqrt()
        if sum(w * (e - 1) / (1 + mid * e) for w, e in zip(p, ez)) > 0:
            lo = mid
        else:
            hi = mid
    return [float(lo * e / (1 + lo * e)) for e in ez], float(lo / (1 + lo))
