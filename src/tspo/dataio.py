"""Datasets: synthetic generation with known ground truth, CSV I/O, splits.

Synthetic data replaces the large external feature corpora: every parameter
is a (possibly nonlinear) function of a hidden projection of its feature
row, with noise and domain clamps matching the target problem family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError

MAPPINGS = ("linear", "relu-bump", "sine-mix")


@dataclass(frozen=True)
class Segment:
    """Clamp and scaling of one slice of the parameter vector.

    theta[start:stop] = clip(offset + scale * g(w . features), lo, hi),
    rounded when ``integer`` (demand-style parameters).
    """

    start: int
    stop: int
    lo: float
    hi: float
    scale: float = 1.0
    offset: float = 0.0
    integer: bool = False


@dataclass(frozen=True)
class SynthSpec:
    t: int
    m: int
    n: int
    mapping: str = "linear"
    noise_std: float = 0.0
    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        if self.mapping not in MAPPINGS:
            raise ValueError(f"mapping must be one of {MAPPINGS}")
        segs = self.segments or (Segment(0, self.t, -np.inf, np.inf),)
        for s in segs:
            if not (0 <= s.start < s.stop <= self.t):
                raise ValueError(f"segment [{s.start}, {s.stop}) out of range for t={self.t}")
        object.__setattr__(self, "segments", tuple(segs))


@dataclass(frozen=True)
class Dataset:
    instances: tuple[tuple[np.ndarray, np.ndarray], ...]
    t: int
    m: int
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.instances)

    def __getitem__(self, i):
        return self.instances[i]


def _apply_mapping(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "relu-bump":
        return np.maximum(z, 0.0) - np.maximum(z - 1.0, 0.0)
    if name == "sine-mix":
        return 0.25 * z + 0.75 * np.sin(2.0 * z)
    raise ValueError(name)


def generate(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministic synthetic dataset; same (spec, seed) gives identical bits."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=spec.m) / np.sqrt(spec.m)
    instances = []
    for _ in range(spec.n):
        F = rng.normal(size=(spec.t, spec.m))
        raw = _apply_mapping(spec.mapping, F @ w)
        if spec.noise_std > 0:
            raw = raw + rng.normal(scale=spec.noise_std, size=spec.t)
        theta = np.empty(spec.t)
        for seg in spec.segments:
            vals = seg.offset + seg.scale * raw[seg.start : seg.stop]
            vals = np.clip(vals, seg.lo, seg.hi)
            if seg.integer:
                vals = np.round(vals)
            theta[seg.start : seg.stop] = vals
        F.setflags(write=False)
        theta.setflags(write=False)
        instances.append((F, theta))
    return Dataset(tuple(instances), spec.t, spec.m, provenance=f"synthetic:{spec.mapping}:seed={seed}")


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then a disjoint covering train/test split."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    n = len(dataset)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(train_fraction * n + 0.5)
    pick = lambda idx, tag: Dataset(
        tuple(dataset.instances[i] for i in idx), dataset.t, dataset.m, f"{dataset.provenance}:{tag}"
    )
    return pick(order[:n_train], "train"), pick(order[n_train:], "test")


def save_csv(dataset: Dataset, path: str) -> None:
    """Text schema: header `t,m,n`, then per instance one `theta:` line and t `feat:` lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{dataset.t},{dataset.m},{len(dataset)}\n")
        for F, theta in dataset.instances:
            fh.write("theta: " + ",".join(f"{v:.17g}" for v in theta) + "\n")
            for row in F:
                fh.write("feat: " + ",".join(f"{v:.17g}" for v in row) + "\n")


def _parse_floats(body: str, n: int, line_no: int, what: str) -> np.ndarray:
    parts = body.split(",")
    if len(parts) != n:
        raise SchemaError(f"line {line_no}: expected {n} {what} values, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ParseError(f"bad {what} number: {exc}", line=line_no) from exc


def load_csv(path: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = lines[0].split(",")
    if len(header) != 3:
        raise ParseError("header must be `t,m,n`", line=1)
    try:
        t, m, n = (int(v) for v in header)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from exc
    expected = 1 + n * (1 + t)
    if len(lines) != expected:
        raise SchemaError(f"expected {expected} lines for t={t}, n={n}; file has {len(lines)}")
    instances = []
    ln = 1
    for _ in range(n):
        line = lines[ln]
        if not line.startswith("theta: "):
            raise ParseError("expected a `theta:` line", line=ln + 1)
        theta = _parse_floats(line[len("theta: ") :], t, ln + 1, "theta")
        ln += 1
        rows = []
        for _ in range(t):
            line = lines[ln]
            if not line.startswith("feat: "):
                raise ParseError("expected a `feat:` line", line=ln + 1)
            rows.append(_parse_floats(line[len("feat: ") :], m, ln + 1, "feature"))
            ln += 1
        F = np.array(rows)
        F.setflags(write=False)
        theta.setflags(write=False)
        instances.append((F, theta))
    return Dataset(tuple(instances), t, m, provenance=f"file:{path}")
