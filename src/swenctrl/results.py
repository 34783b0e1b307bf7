"""Decision results and their machine-checkable certificates."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Unreachable:
    """State nodes with no directed path from any control node."""

    nodes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))


@dataclass(frozen=True)
class ViolatingSubset:
    """A state subset whose weighted in-neighbor count falls short:
    (k+1)*|beta_in| + (k+1)*q*|alpha_in| = lhs < rhs = q*|subset|."""

    subset: frozenset[int]
    lhs: int
    rhs: int
    k: int
    q: int

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))


@dataclass(frozen=True)
class Saturated:
    """Max-flow value meeting the target n*q exactly."""

    value: int


@dataclass(frozen=True)
class EmptyAlphaIn:
    """A nonempty state subset with no state in-neighbors at all."""

    subset: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))


@dataclass(frozen=True)
class ArgmaxSubset:
    """A subset attaining the maximum of ceil(|V'| / |alpha_in(V')|) - 1."""

    subset: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))


@dataclass(frozen=True)
class VerdictStats:
    theta: int | None
    target: int


@dataclass(frozen=True)
class Verdict:
    """Decision plus certificate.  False verdicts carry Unreachable or
    ViolatingSubset; true verdicts carry Saturated with value n*q."""

    decision: bool
    certificate: Unreachable | ViolatingSubset | Saturated
    stats: VerdictStats

    def __post_init__(self):
        cert = self.certificate
        if cert is None:
            raise ValueError("a verdict must carry a certificate")
        if self.decision and not isinstance(cert, Saturated):
            raise ValueError("a true verdict must carry a Saturated certificate")
        if not self.decision and isinstance(cert, Saturated):
            raise ValueError("a false verdict cannot carry a Saturated certificate")


@dataclass(frozen=True)
class KStarResult:
    """Minimal switch count making the pattern structurally controllable for
    every ensemble size; value None means no finite count exists."""

    value: int | None
    witness: Unreachable | EmptyAlphaIn | ArgmaxSubset | None
    trace: tuple[tuple[int, int, int], ...] = ()

    @property
    def is_infinite(self) -> bool:
        return self.value is None


def certificate_to_dict(cert) -> dict | None:
    if cert is None:
        return None
    if isinstance(cert, Unreachable):
        return {"type": "unreachable", "nodes": sorted(cert.nodes)}
    if isinstance(cert, ViolatingSubset):
        return {
            "type": "violating_subset",
            "subset": sorted(cert.subset),
            "lhs": cert.lhs,
            "rhs": cert.rhs,
            "k": cert.k,
            "q": cert.q,
        }
    if isinstance(cert, Saturated):
        return {"type": "saturated", "value": cert.value}
    if isinstance(cert, EmptyAlphaIn):
        return {"type": "empty_alpha_in", "subset": sorted(cert.subset)}
    if isinstance(cert, ArgmaxSubset):
        return {"type": "argmax_subset", "subset": sorted(cert.subset)}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def certificate_from_dict(d: dict | None):
    if d is None:
        return None
    kind = d.get("type")
    if kind == "unreachable":
        return Unreachable(frozenset(d["nodes"]))
    if kind == "violating_subset":
        return ViolatingSubset(frozenset(d["subset"]), d["lhs"], d["rhs"], d["k"], d["q"])
    if kind == "saturated":
        return Saturated(d["value"])
    if kind == "empty_alpha_in":
        return EmptyAlphaIn(frozenset(d["subset"]))
    if kind == "argmax_subset":
        return ArgmaxSubset(frozenset(d["subset"]))
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
