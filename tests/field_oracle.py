"""Pure-Python arithmetic over GF(p^r), independent of drinfeldforms: no
numpy and no FieldCtx arithmetic, only the field's p, r and modulus.

An element is its code, the integer whose base-p digits are its
coordinates with respect to 1, w, ..., w^(r-1), w a root of the modulus.
"""


def digits(ctx, code):
    """The coordinates of a code, lowest power of w first."""
    return [int(code) // ctx.p ** i % ctx.p for i in range(ctx.r)]


def code_sum(ctx, a, b):
    return sum((x + y) % ctx.p * ctx.p ** i for i, (x, y)
               in enumerate(zip(digits(ctx, a), digits(ctx, b))))


def reduced_code(ctx, w):
    """The code of the polynomial in w with coefficients ``w``, lowest
    first, reduced mod the modulus: w^s = -(m_0 w^(s-r) + ... +
    m_(r-1) w^(s-1)) from the top power down."""
    p, r, m = ctx.p, ctx.r, ctx.modulus
    w = list(w)
    for s in range(len(w) - 1, r - 1, -1):
        for t in range(r):
            w[s - r + t] -= w[s] * m[t]
    return sum(w[i] % p * p ** i for i in range(r))


def element_product(ctx, a, b):
    """Schoolbook product of two polynomials over F_q given by lists of
    codes: the coordinates of each pair of terms multiply as polynomials
    in w, and each coefficient of the product is reduced mod the modulus
    once at the end."""
    out = [[0] * (2 * ctx.r - 1) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for s, c in enumerate(digits(ctx, x)):
                for t, d in enumerate(digits(ctx, y)):
                    out[i + j][s + t] += c * d
    return [reduced_code(ctx, w) for w in out]


def code_product(ctx, a, b):
    return element_product(ctx, [a], [b])[0]
