"""Truncated Laurent series over exact coefficient fields.

A series knows its coefficients for every exponent up to its order; an order
of None means the series is exact (a Laurent polynomial: all higher
coefficients are zero).  Operations propagate the exactly attainable
precision and refuse comparisons beyond it, so a verdict can never silently
depend on unknown coefficients.
"""

from __future__ import annotations

from collections.abc import Mapping

from .fields import factor_label


class PrecisionError(ArithmeticError):
    """An operation or comparison exceeds the known precision."""


class LaurentSeries:
    """Coefficients known up to ``order`` (None = exact); ``coeffs`` runs
    from ``valuation`` to the last nonzero one."""

    __slots__ = ("field", "valuation", "coeffs", "order")

    def __init__(self, field, coeffs: Mapping[int, object] | None = None, order: int | None = None):
        self.field = field
        items = {int(k): v for k, v in (coeffs or {}).items() if v != field.zero}
        if order is not None:
            for k in items:
                if k > order:
                    raise ValueError(f"coefficient at exponent {k} beyond order {order}")
        if items:
            lo, hi = min(items), max(items)
            self.valuation = lo
            self.coeffs = tuple(items.get(k, field.zero) for k in range(lo, hi + 1))
        else:
            self.valuation = 0
            self.coeffs = ()
        self.order = order

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, field) -> "LaurentSeries":
        return cls(field, {0: field.one})

    # -- inspection --------------------------------------------------------

    def is_zero_to_order(self) -> bool:
        return not self.coeffs

    def _low_bound(self) -> int | None:
        """Least exponent at which the series might be nonzero; None for
        the exact zero."""
        if self.coeffs:
            return self.valuation
        return None if self.order is None else self.order + 1

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c != self.field.zero:
                yield (self.valuation + i, c)

    def _check_compatible(self, other: "LaurentSeries") -> None:
        if self.field != other.field:
            raise ValueError("coefficient fields differ")

    # -- ring operations -----------------------------------------------------

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_compatible(other)
        order = _min_order(self.order, other.order)
        items: dict[int, object] = {}
        for e, c in list(self.terms()) + list(other.terms()):
            if order is not None and e > order:
                continue
            items[e] = self.field.add(items.get(e, self.field.zero), c)
        return LaurentSeries(self.field, items, order=order)

    def neg(self) -> "LaurentSeries":
        items = {e: self.field.neg(c) for e, c in self.terms()}
        return LaurentSeries(self.field, items, order=self.order)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check_compatible(other)
        order = _min_order(_bound_sum(self.order, other._low_bound()),
                           _bound_sum(other.order, self._low_bound()))
        items: dict[int, object] = {}
        right = list(other.terms())
        for e1, c1 in self.terms():
            for e2, c2 in right:
                e = e1 + e2
                if order is not None and e > order:
                    break  # terms come in increasing exponent
                items[e] = self.field.add(
                    items.get(e, self.field.zero), self.field.mul(c1, c2)
                )
        return LaurentSeries(self.field, items, order=order)

    def pow(self, n: int) -> "LaurentSeries":
        if n < 0:
            raise ValueError(f"pow needs a nonnegative exponent, got {n}")
        acc = LaurentSeries.one(self.field)
        for _ in range(n):
            acc = acc.mul(self)
        return acc

    # -- comparisons -----------------------------------------------------

    def equals_exact(self, other: "LaurentSeries") -> bool:
        if self.order is not None or other.order is not None:
            raise PrecisionError("exact comparison needs exact operands")
        return dict(self.terms()) == dict(other.terms())

    def render(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e, c in self.terms():
                cl = self.field.label(c)
                if e == 0:
                    parts.append(cl)
                else:
                    head = "" if cl == "1" else f"{factor_label(cl)}*"
                    parts.append(f"{head}t^{e}" if e != 1 else f"{head}t")
            body = " + ".join(parts)
        if self.order is not None:
            body += f" + O(t^{self.order + 1})"
        return body


def _bound_sum(a: int | None, b: int | None) -> int | None:
    """a + b, where None is no bound."""
    return None if a is None or b is None else a + b


def _min_order(*orders: int | None) -> int | None:
    """The least of the orders, where None is no bound."""
    bounds = [o for o in orders if o is not None]
    return min(bounds) if bounds else None


# ---------------------------------------------------------------------------
# p-th power testing


def pth_power_test(a: LaurentSeries) -> tuple[LaurentSeries | None, str | None]:
    """Return ``(root, None)`` with the unique p-th root within precision, or
    ``(None, witness)`` with a refusal witness.

    A series is a p-th power iff its valuation and every exponent in its
    support are divisible by p and every coefficient is a p-th power in the
    coefficient field: the p-th power classes that mixed-characteristic
    descent is stated in (``test_pth_power_round_trip``).
    """
    p = a.field.char
    if a.is_zero_to_order():
        raise ValueError("p-th power test requires a nonzero series")
    if a.valuation % p != 0:
        return None, f"valuation {a.valuation} not divisible by {p}"
    root_items = {}
    for e, c in a.terms():
        if e % p != 0:
            return None, f"exponent {e} not divisible by {p}"
        r = a.field.pth_root(c)
        if r is None:
            return None, f"coefficient {a.field.label(c)} at exponent {e} is not a {p}-th power"
        root_items[e // p] = r
    order = None if a.order is None else a.order // p
    return LaurentSeries(a.field, root_items, order=order), None
