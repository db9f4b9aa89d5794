"""Exact coefficient fields: GF(p^e) and rational function fields over them.

Finite field elements are integers 0..q-1 read as base-p digit vectors, i.e.
polynomials in a generator w modulo the lexicographically least monic
irreducible of degree e, which makes element order and labels deterministic.
Arithmetic runs on exp/log/Zech tables of the least primitive element, built
once per field in O(q) polynomial products; for p = 2 addition is integer
XOR of the codes.  The table build, and the tests' reference arithmetic
``_raw_mul``, multiply digit vectors with the same ``poly_mul`` and
``poly_divmod`` that serve GF(q)(s), taken over the prime field GF(p).
Rational function field elements are reduced fractions of coefficient tuples
with monic denominator.  Both fields expose the same duck-typed surface
(add/mul/inv/pth_root/label), which is all the series layer needs.
"""

from __future__ import annotations

from .graphs import read_list, refuse_past

# A field is refused beyond this many elements, before any table is built:
# the build is O(q) polynomial products; no workload field is larger than
# GF(2^8), and the tests and the output replay build up to GF(2^12).
FIELD_SIZE_CAP = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(code: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of an element code, least significant first."""
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return tuple(out)


def _irreducible(prime: "FiniteField", e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over the prime
    field: the first monic candidate, in code order, that no monic
    polynomial of degree 1..e/2 divides."""
    p = prime.p
    divisors = [_digits(code, p, d) + (1,) for d in range(1, e // 2 + 1) for code in range(p**d)]
    candidates = (_digits(code, p, e) + (1,) for code in range(p**e))
    return next(f for f in candidates if all(poly_divmod(prime, f, g)[1] for g in divisors))


# Zech-table entry for 1 + g^i = 0, which has no logarithm
_NO_LOG = -1


class FiniteField:
    """GF(p^e) on integer-coded elements, with log-table arithmetic.

    The least primitive element g is found once, on construction, with the
    polynomial product ``_raw_mul``; its powers give ``_exp`` (g^i, doubled to
    length 2(q-1) so that a product of two units needs no modulo) and
    ``_log``.  The Zech table ``_zech[i] = log(1 + g^i)``, also doubled,
    makes addition a lookup (Lidl & Niederreiter, *Finite Fields*, ch. 9);
    it holds ``_NO_LOG`` where 1 + g^i = 0.  The build costs O(q) polynomial
    products.  For p = 2 the base-p digits are bits, so ``add`` and ``sub``
    are integer XOR and ``neg`` is the identity.
    """

    def __init__(self, p: int, e: int = 1):
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        # p < 2 is refused below; for p >= 2 a size past the cap is refused
        # before the primality test, which a huge p would stall
        if p > 1:
            self.q = refuse_past(f"the size of GF({p}^{e})", (p for _ in range(e)), FIELD_SIZE_CAP)
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p
        self.e = e
        self.char = p
        # the prime field GF(p), over which digit vectors are multiplied
        self.prime = FiniteField(p) if e > 1 else self
        self.modulus = _irreducible(self.prime, e)
        self.zero = 0
        self.one = 1
        self._build_tables()

    def elements(self) -> range:
        return range(self.q)

    # -- table construction (``_raw_mul`` is also the tests' reference) -----

    def _raw_mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        prime = self.prime
        prod = poly_mul(prime, _digits(a, p, e), _digits(b, p, e))
        x = 0
        for d in reversed(poly_divmod(prime, prod, self.modulus)[1]):
            x = x * p + d
        return x

    def _build_tables(self) -> None:
        units, walked = self.q - 1, set()
        for g in range(1, self.q):
            if g in walked:  # a power of a walked g: its order divides g's
                continue
            # powers of g up to its order; g is primitive when that is q - 1
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = self._raw_mul(g, x)  # g's zero digits are skipped
            if len(powers) == units:
                break
            walked.update(powers)
        log = [0] * self.q
        for i, x in enumerate(powers):
            log[x] = i
        p, zech = self.p, [_NO_LOG] * units
        for i, x in enumerate(powers):
            s = x - x % p + (x + 1) % p  # 1 + x: one more in the lowest digit
            if s:
                zech[i] = log[s]
        self._units = units
        self._half = units // 2
        self._exp = tuple(powers + powers)
        self._log = tuple(log)
        self._zech = tuple(zech + zech)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q - 1
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z == _NO_LOG else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        lb = self._log[b] + self._half  # a log of -b
        if not a:
            return self._exp[lb]
        la = self._log[a]
        z = self._zech[lb - la]
        return 0 if z == _NO_LOG else self._exp[la + z]

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[self._units - self._log[a]]

    def pow(self, a: int, n: int) -> int:
        if not a:
            if n < 0:
                raise ZeroDivisionError("inverse of 0")
            return 0 if n else 1
        return self._exp[self._log[a] * n % self._units]

    def pth_root(self, a: int) -> int:
        """The unique p-th root (Frobenius is bijective on a finite field)."""
        return self.pow(a, self.p ** (self.e - 1))

    def in_subfield(self, a: int, degree: int) -> bool:
        """Membership in the subfield GF(p^degree); degree must divide e."""
        if self.e % degree != 0:
            raise ValueError(f"GF({self.p}^{degree}) is not a subfield of GF({self.p}^{self.e})")
        return self.pow(a, self.p**degree) == a

    def label(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        digits = _digits(a, self.p, self.e)
        parts = []
        for i in range(self.e - 1, -1, -1):
            c = digits[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else str(c)
                parts.append(f"{head}w^{i}" if i > 1 else f"{head}w")
        return "+".join(parts) if parts else "0"

    def parse(self, text: str | int) -> int:
        """Accept an element index, or '0', '1', 'w' for convenience."""
        if isinstance(text, int) and not isinstance(text, bool):
            a = text
        elif not isinstance(text, str):
            raise ValueError(f"cannot parse field element {text!r}")
        elif text.strip().lstrip("-").isdigit():
            a = int(text)
        elif text.strip() == "w":
            a = self.p
        else:
            raise ValueError(f"cannot parse field element {text!r}")
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} out of range for GF({self.q})")
        return a

    def __eq__(self, other):
        return isinstance(other, FiniteField) and (self.p, self.e) == (other.p, other.e)

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


# -- polynomials over a FiniteField as little-endian tuples ------------------


def poly_strip(field, coeffs) -> tuple:
    if not coeffs or coeffs[-1] != field.zero:
        return tuple(coeffs)
    c = list(coeffs)
    while c and c[-1] == field.zero:
        c.pop()
    return tuple(c)


def poly_add(field, a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.add(x, y))
    return poly_strip(field, out)


def poly_mul(field, a, b, n: int | None = None) -> tuple:
    """The product a*b, or with ``n`` only its coefficients below x^n."""
    if not a or not b:
        return ()
    add, mul, zero = field.add, field.mul, field.zero
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size, a = n, a[:n]
    out = [zero] * size
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b if i + len(b) <= size else b[: size - i], i):
            if y != zero:
                out[j] = add(out[j], mul(x, y))
    return poly_strip(field, out)


def poly_divmod(field, a, b) -> tuple[tuple, tuple]:
    b = poly_strip(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul, zero = field.sub, field.mul, field.zero
    rem = list(a)
    q = [zero] * max(len(rem) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    while True:
        while rem and rem[-1] == zero:
            rem.pop()
        if len(rem) < len(b):
            return poly_strip(field, q), tuple(rem)
        factor = mul(rem[-1], inv_lead)
        k = len(rem) - len(b)
        q[k] = factor
        for i, c in enumerate(b, k):
            if c != zero:
                rem[i] = sub(rem[i], mul(factor, c))


def poly_gcd(field, a, b) -> tuple:
    a, b = poly_strip(field, a), poly_strip(field, b)
    while b:
        _, r = poly_divmod(field, a, b)
        a, b = b, r
    if a:
        lead_inv = field.inv(a[-1])
        a = tuple(field.mul(lead_inv, c) for c in a)
    return a


def factor_label(label: str) -> str:
    """A coefficient label written as one factor of a term: parenthesized
    only when a ``+`` or ``/`` stands outside its own parentheses."""
    depth = 0
    for ch in label:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+/":
            return f"({label})"
    return label


def poly_label(field, coeffs) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == field.zero:
            continue
        cl = field.label(c)
        if i == 0:
            parts.append(cl)
        else:
            head = "" if cl == "1" else f"{factor_label(cl)}*"
            parts.append(f"{head}s^{i}" if i > 1 else f"{head}s")
    return "+".join(parts)


class RationalFunctionField:
    """F_q(s): reduced fractions (num, den) with monic denominator."""

    def __init__(self, base: FiniteField):
        self.base = base
        self.char = base.p
        self.zero = ((), (base.one,))
        self.one = ((base.one,), (base.one,))

    def make(self, num, den=None):
        den = den if den is not None else (self.base.one,)
        num = poly_strip(self.base, num)
        den = poly_strip(self.base, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(self.base, num, den)
        if g and g != (self.base.one,):
            num, _ = poly_divmod(self.base, num, g)
            den, _ = poly_divmod(self.base, den, g)
        lead = den[-1]
        if lead != self.base.one:
            inv = self.base.inv(lead)
            num = tuple(self.base.mul(inv, c) for c in num)
            den = tuple(self.base.mul(inv, c) for c in den)
        return (num, den)

    def s(self):
        return ((self.base.zero, self.base.one), (self.base.one,))

    def constant(self, c):
        return self.make((c,))

    def add(self, a, b):
        (na, da), (nb, db) = a, b
        num = poly_add(
            self.base, poly_mul(self.base, na, db), poly_mul(self.base, nb, da)
        )
        return self.make(num, poly_mul(self.base, da, db))

    def neg(self, a):
        return (tuple(map(self.base.neg, a[0])), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return self.make(poly_mul(self.base, a[0], b[0]), poly_mul(self.base, a[1], b[1]))

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("inverse of 0")
        return self.make(a[1], a[0])

    def pth_root(self, a):
        """The p-th root if one exists, else None (the field is imperfect)."""
        num, den = a
        if not num:
            return self.zero
        root_parts = []
        for part in (num, den):
            root = [self.base.zero] * ((len(part) - 1) // self.char + 1)
            for i, c in enumerate(part):
                if c == self.base.zero:
                    continue
                if i % self.char != 0:
                    return None
                root[i // self.char] = self.base.pth_root(c)
            root_parts.append(poly_strip(self.base, root))
        return self.make(root_parts[0], root_parts[1])

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        acc = self.one
        for _ in range(n):
            acc = self.mul(acc, a)
        return acc

    def is_constant(self, a) -> bool:
        return len(a[0]) <= 1 and len(a[1]) <= 1

    def label(self, a) -> str:
        num, den = a
        ns = poly_label(self.base, num)
        if den == (self.base.one,):
            return ns
        return f"({ns})/({poly_label(self.base, den)})"

    def parse(self, spec):
        """Accept 's', an integer constant, or {'num': [...], 'den': [...]}."""
        if isinstance(spec, str) and spec.strip() == "s":
            return self.s()
        if isinstance(spec, int):
            return self.constant(self.base.parse(spec))
        if isinstance(spec, str) and spec.strip().isdigit():
            return self.constant(self.base.parse(spec))
        if isinstance(spec, dict):
            num = tuple(map(self.base.parse, read_list(spec.get("num", []), "num")))
            den = tuple(map(self.base.parse, read_list(spec.get("den", [self.base.one]), "den")))
            return self.make(num, den)
        raise ValueError(f"cannot parse rational function {spec!r}")

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and self.base == other.base
