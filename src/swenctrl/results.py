"""Decision results and their machine-checkable certificates."""

from __future__ import annotations

from collections.abc import Iterable


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass lists its fields, in order, in _fields (usually also its
    __slots__).  The base __init__ takes one value per field, in that order,
    and raises TypeError on any other count; a subclass that converts or
    checks its values sets each field in its own __init__ with
    object.__setattr__.  The classes a check builds (Verdict, VerdictStats
    and the certificates) keep their own __init__ for speed: through the
    base's loop over the fields, a saturated Verdict with its Saturated and
    VerdictStats takes about 2 us more to build, a tenth of a check on a
    small pattern.  Equality holds between instances of the same class with
    equal fields; the hash, the keyword repr and the copy and pickle support
    (by calling the class with the fields) follow the fields as well.
    Assigning or deleting an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__}() takes {len(self._fields)} field "
                            f"values, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Unreachable(FrozenValue):
    """State nodes with no directed path from any control node."""

    __slots__ = _fields = ("nodes",)

    def __init__(self, nodes: Iterable[int]):
        object.__setattr__(self, "nodes", frozenset(nodes))


class ViolatingSubset(FrozenValue):
    """A state subset whose weighted in-neighbor count falls short:
    (k+1)*|beta_in| + (k+1)*q*|alpha_in| = lhs < rhs = q*|subset|."""

    __slots__ = _fields = ("subset", "lhs", "rhs", "k", "q")

    def __init__(self, subset: Iterable[int], lhs: int, rhs: int, k: int, q: int):
        object.__setattr__(self, "subset", frozenset(subset))
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "q", q)


class Saturated(FrozenValue):
    """Max-flow value meeting the target n*q exactly."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class EmptyAlphaIn(FrozenValue):
    """A nonempty state subset with no state in-neighbors at all."""

    __slots__ = _fields = ("subset",)

    def __init__(self, subset: Iterable[int]):
        object.__setattr__(self, "subset", frozenset(subset))


class ArgmaxSubset(FrozenValue):
    """A subset attaining the maximum of ceil(|V'| / |alpha_in(V')|) - 1."""

    __slots__ = _fields = ("subset",)

    def __init__(self, subset: Iterable[int]):
        object.__setattr__(self, "subset", frozenset(subset))


class VerdictStats(FrozenValue):
    __slots__ = _fields = ("theta", "target")

    def __init__(self, theta: int | None, target: int):
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "target", target)


class Verdict(FrozenValue):
    """Decision plus certificate.  False verdicts carry Unreachable or
    ViolatingSubset; true verdicts carry Saturated with value n*q."""

    __slots__ = _fields = ("decision", "certificate", "stats")

    def __init__(self, decision: bool, certificate: Unreachable | ViolatingSubset | Saturated,
                 stats: VerdictStats):
        if certificate is None:
            raise ValueError("a verdict must carry a certificate")
        if decision and not isinstance(certificate, Saturated):
            raise ValueError("a true verdict must carry a Saturated certificate")
        if not decision and isinstance(certificate, Saturated):
            raise ValueError("a false verdict cannot carry a Saturated certificate")
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "stats", stats)


class KStarResult(FrozenValue):
    """Minimal switch count making the pattern structurally controllable for
    every ensemble size; value None means no finite count exists."""

    __slots__ = _fields = ("value", "witness", "trace")

    def __init__(self, value: int | None, witness: Unreachable | EmptyAlphaIn | ArgmaxSubset | None,
                 trace: tuple[tuple[int, int, int], ...] = ()):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "trace", trace)

    @property
    def is_infinite(self) -> bool:
        return self.value is None


# The JSON type name of each certificate class; a certificate's JSON holds
# that name under "type", then its fields in order, each set sorted.
_CERTIFICATE_TYPES = {Unreachable: "unreachable", ViolatingSubset: "violating_subset",
                      Saturated: "saturated", EmptyAlphaIn: "empty_alpha_in",
                      ArgmaxSubset: "argmax_subset"}


def certificate_to_dict(cert) -> dict | None:
    if cert is None:
        return None
    if type(cert) not in _CERTIFICATE_TYPES:
        raise TypeError(f"unknown certificate type {type(cert).__name__}")
    d = {"type": _CERTIFICATE_TYPES[type(cert)]}
    for name in cert._fields:
        value = getattr(cert, name)
        d[name] = sorted(value) if isinstance(value, frozenset) else value
    return d


def certificate_from_dict(d: dict | None):
    if d is None:
        return None
    kind = d.get("type")
    for cls, name in _CERTIFICATE_TYPES.items():
        if kind == name:
            return cls(*(d[field] for field in cls._fields))
    raise ValueError(f"unknown certificate type {kind!r}")


def verdict_to_dict(verdict: Verdict) -> dict:
    """JSON view of a verdict."""
    return {
        "decision": verdict.decision,
        "theta": verdict.stats.theta,
        "target": verdict.stats.target,
        "certificate": certificate_to_dict(verdict.certificate),
    }


def kstar_to_dict(result: KStarResult) -> dict:
    return {
        "kstar": "infinite" if result.is_infinite else result.value,
        "witness": certificate_to_dict(result.witness),
        "trace": [{"k": k, "theta": theta, "target": target} for k, theta, target in result.trace],
    }
