"""Per-metric-class tolerance policies and band construction.

Different metric classes drift differently, so one tolerance cannot
serve them all:

* **Error metrics** (``*_err``, ``gmae``, ``geomean``, utilization and
  share fractions) are small numbers near zero; relative tolerance on
  them is meaningless (a band around 0.001 would admit nothing), so
  they get **absolute** bands.
* **Simulated latencies** (``iteration_ms``, ``*_us``, ``*_ms``) scale
  with the modelled workload, so they get **relative** bands.
* **Counts and labels** (``points``, ``pruned``, ``reused``,
  bottleneck strings, booleans) are structural facts; any change is a
  schema change, so they get **exact** bands.

:func:`classify` applies the first matching named policy (matched
against the leaf's final path segment) and falls back on a value-shape
default: non-float scalars are exact, small-magnitude floats (|v| at
most :data:`SMALL_FLOAT_CUTOFF`, the error/fraction regime) get the
default absolute band, and everything else (times, byte counts, rates)
gets the default relative band.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from math import isfinite

from repro.regress.flatten import leaf_name

#: Band kind: absolute interval ``[value - atol, value + atol]``.
KIND_ABSOLUTE = "absolute"
#: Band kind: relative interval ``value -/+ |value| * rtol``.
KIND_RELATIVE = "relative"
#: Band kind: the leaf must equal the reference value exactly.
KIND_EXACT = "exact"
#: Recognised band kinds.
BAND_KINDS = (KIND_ABSOLUTE, KIND_RELATIVE, KIND_EXACT)

#: Absolute half-width for the error-metric fallback class.
DEFAULT_ABS_TOL = 0.05
#: Relative half-width for the general float fallback class.
DEFAULT_REL_TOL = 0.25
#: |value| at or below which a float defaults to an absolute band.
SMALL_FLOAT_CUTOFF = 1.5


@dataclass(frozen=True)
class Band:
    """One committed reference band for one metric leaf.

    Attributes:
        kind: One of :data:`BAND_KINDS`.
        lo: Inclusive lower bound (interval kinds; ``None`` for exact).
        hi: Inclusive upper bound (interval kinds; ``None`` for exact).
        value: Reference value (exact kind; ``None`` otherwise).
        policy: Name of the tolerance policy that produced the band.
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    value: object = None
    policy: str = ""

    def __post_init__(self) -> None:
        if self.kind not in BAND_KINDS:
            known = ", ".join(BAND_KINDS)
            raise ValueError(f"unknown band kind {self.kind!r}; known: {known}")
        if self.kind != KIND_EXACT and (self.lo is None or self.hi is None):
            raise ValueError(f"{self.kind!r} band needs both lo and hi")

    def admits(self, value: object) -> bool:
        """True when ``value`` sits inside this band."""
        if self.kind == KIND_EXACT:
            if isinstance(self.value, bool) or isinstance(value, bool):
                return value is self.value
            return value == self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        number = float(value)
        if not isfinite(number):
            return False
        return self.lo <= number <= self.hi

    def describe(self) -> str:
        """Short human-readable form, e.g. ``[0.95, 1.05] (relative)``."""
        if self.kind == KIND_EXACT:
            return f"== {self.value!r}"
        return f"[{self.lo:g}, {self.hi:g}] ({self.kind})"

    def to_dict(self) -> dict:
        """JSON representation stored in ``results/bands.json``."""
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "value": self.value,
            "policy": self.policy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Band":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kind=data["kind"],
            lo=data["lo"],
            hi=data["hi"],
            value=data["value"],
            policy=data["policy"],
        )


@dataclass(frozen=True)
class TolerancePolicy:
    """A named tolerance class applied to matching metric leaves.

    Attributes:
        name: Policy identifier recorded on every band it produces.
        kind: Band kind this policy emits (:data:`BAND_KINDS`).
        patterns: ``fnmatch`` patterns tested (case-sensitively)
            against the leaf's final path segment.
        atol: Absolute half-width (:data:`KIND_ABSOLUTE` only).
        rtol: Relative half-width (:data:`KIND_RELATIVE` only).
    """

    name: str
    kind: str
    patterns: tuple[str, ...]
    atol: float = 0.0
    rtol: float = 0.0

    def matches(self, path: str) -> bool:
        """True when this policy covers the leaf at ``path``."""
        name = leaf_name(path)
        return any(fnmatchcase(name, pattern) for pattern in self.patterns)

    def band_for(self, value: float) -> Band:
        """Build the reference band around one observed float value."""
        if self.kind == KIND_ABSOLUTE:
            return Band(
                kind=self.kind,
                lo=value - self.atol,
                hi=value + self.atol,
                policy=self.name,
            )
        if self.kind == KIND_RELATIVE:
            width = abs(value) * self.rtol
            return Band(
                kind=self.kind,
                lo=value - width,
                hi=value + width,
                policy=self.name,
            )
        return Band(kind=KIND_EXACT, value=value, policy=self.name)


#: Built-in tolerance classes, most specific first.
DEFAULT_POLICIES = (
    TolerancePolicy(
        name="latency",
        kind=KIND_RELATIVE,
        patterns=("iteration_ms", "*_us", "*_ms", "p99_us"),
        rtol=0.25,
    ),
    TolerancePolicy(
        name="error-metric",
        kind=KIND_ABSOLUTE,
        patterns=("*_err", "err", "gmae", "geomean", "*_fraction",
                  "hit_rate", "utilization"),
        atol=DEFAULT_ABS_TOL,
    ),
)

#: Fallback policy names recorded on bands built without a named match.
FALLBACK_SMALL_FLOAT = "small-float"
FALLBACK_FLOAT = "float-default"
FALLBACK_EXACT = "exact-value"


def classify(
    path: str,
    value: object,
    policies: tuple[TolerancePolicy, ...] = DEFAULT_POLICIES,
) -> Band:
    """Build the reference band for one ``(metric_path, value)`` leaf.

    Non-float scalars (strings, booleans, ``None`` and — counts — ints)
    are exact; non-finite floats are exact (drift through infinity is
    never tolerable); finite floats go through the named policies and
    then the magnitude-based fallback.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return Band(kind=KIND_EXACT, value=value, policy=FALLBACK_EXACT)
    if isinstance(value, int):
        return Band(kind=KIND_EXACT, value=value, policy=FALLBACK_EXACT)
    if not isfinite(value):
        return Band(kind=KIND_EXACT, value=value, policy=FALLBACK_EXACT)
    for policy in policies:
        if policy.matches(path):
            return policy.band_for(value)
    if abs(value) <= SMALL_FLOAT_CUTOFF:
        return Band(
            kind=KIND_ABSOLUTE,
            lo=value - DEFAULT_ABS_TOL,
            hi=value + DEFAULT_ABS_TOL,
            policy=FALLBACK_SMALL_FLOAT,
        )
    width = abs(value) * DEFAULT_REL_TOL
    return Band(
        kind=KIND_RELATIVE,
        lo=value - width,
        hi=value + width,
        policy=FALLBACK_FLOAT,
    )
