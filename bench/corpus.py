"""Seeded inputs for the benchmark workloads, and the checks of their outputs.

Every draw comes from Philox-4x64-10 keyed ``(seed << 16) | stream_id``, the
keying ``spinorlab.rng`` uses, with stream ids from 16 up so that no benchmark
draw coincides with a verify-suite stream (ids 0-7).  Each generated row
carries the kind it was built as; the checks compare every report row with
the class or error the generator intended.

The generator computes the quantities it needs (A, B and the coefficient
margins) with its own closed-form expressions in the chiral basis, so it does
not call the program it feeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9  # spinorlab's default classification tolerance
DECOMPOSE_TOL = 1e-8  # spinorlab.plane.DECOMPOSE_TOL
FPK_TOL = 1e-10  # constraint residual bound, relative to max(1, |psi|^4)
SEED_LIMIT = 1 << 112  # seed << 16 must fit the 128-bit Philox key

STREAMS = {
    "classify-mixed": 16,
    "decompose-plane": 17,
    "verify-acceptance": 18,
    "scalar-api": 19,
}

# Row kinds and their shares.  Boundary and error kinds are constructed on
# purpose so the classifier's masks and error paths do real work.
CLASSIFY_MIX = {
    "generic": 0.70,  # type 1 across scales 10^-3 .. 10^3
    "type2": 0.05,  # B = 0 exactly, A != 0
    "type3": 0.05,  # A = 0 exactly, B != 0
    "type5": 0.05,  # Elko-type: top block is a phase times i sigma2 conj(bottom)
    "type6": 0.05,  # one chiral block zero
    "near": 0.05,  # type 1 with |B| three thresholds from zero: flagged
    "tiny": 0.05,  # |psi|^2 below tol: AmbiguousScale
}
PLANE_MIX = {
    "generic": 0.70,  # coefficient type 1
    "type6": 0.05,  # one zero coordinate
    "type2": 0.05,  # on the surface A Im(z) = -B Re(z), z = r1 conj(r2)
    "type3": 0.05,  # on the surface A Re(z) = B Im(z)
    "near": 0.05,  # three tolerances off the type-2 surface: flagged
    "off": 0.10,  # not in the base's plane: NotInPlane
}
SCALAR_MIX = {"generic": 0.85, "type6": 0.05, "type2": 0.05, "type3": 0.05}

# What a correct program reports for each kind: a class (with the expected
# near-degenerate flag) or an error type.
EXPECTED = {
    "generic": (1, False),
    "type2": (2, False),
    "type3": (3, False),
    "type5": (5, False),
    "type6": (6, False),
    "near": (1, True),
    "tiny": "AmbiguousScale",
    "off": "NotInPlane",
}


def stream(seed: int, label: str) -> np.random.Generator:
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**112), got {seed}")
    return np.random.Generator(np.random.Philox(key=(seed << 16) | STREAMS[label]))


def suite_seed(seed: int) -> int:
    """The verify seed of a benchmark seed, drawn from its own stream."""
    return int(stream(seed, "verify-acceptance").integers(0, 2**31))


@dataclass
class Corpus:
    """Generated rows: spinors, their kinds, and for plane corpora the base
    and the coordinates each in-plane row was built from."""

    psis: np.ndarray
    kinds: list[str]
    base: np.ndarray | None = None
    r1: np.ndarray | None = None
    r2: np.ndarray | None = None

    def shares(self) -> dict[str, float]:
        n = len(self.kinds)
        return {k: self.kinds.count(k) / n for k in sorted(set(self.kinds))}


def _counts(mix: dict[str, float], n: int) -> dict[str, int]:
    counts = {k: int(round(share * n)) for k, share in mix.items() if k != "generic"}
    counts["generic"] = n - sum(counts.values())
    return counts


def _cnormal(gen: np.random.Generator, shape) -> np.ndarray:
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def _a1(psis: np.ndarray) -> np.ndarray:
    """Chiral overlap A1; A = 2 Re(A1) and B = 2 Im(A1) under the Dirac dual."""
    return np.conj(psis[:, 2]) * psis[:, 0] + np.conj(psis[:, 3]) * psis[:, 1]


def _scale(psis: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(psis) ** 2, axis=1)


def _log_scales(gen: np.random.Generator, n: int, decades: float) -> np.ndarray:
    return 10.0 ** gen.uniform(-decades, decades, n)


def _generic_spinors(gen: np.random.Generator, n: int) -> np.ndarray:
    """Type-1 spinors over six decades of scale with |A| and |B| at least a
    hundred thresholds from zero, so the class is unambiguous."""
    out = []
    have = 0
    while have < n:
        cand = _cnormal(gen, (n, 4)) * _log_scales(gen, n, 3.0)[:, None]
        a1 = _a1(cand)
        thr = TOL * np.maximum(1.0, _scale(cand))
        keep = (np.abs(2 * a1.real) > 100 * thr) & (np.abs(2 * a1.imag) > 100 * thr)
        out.append(cand[keep])
        have += int(keep.sum())
    return np.concatenate(out)[:n]


def _boundary_spinors(gen: np.random.Generator, n: int, imaginary: bool) -> np.ndarray:
    """A1 real (B = 0, type 2) or imaginary (A = 0, type 3), solved for psi4."""
    p = _cnormal(gen, (n, 4))
    small = np.abs(p[:, 1]) < 0.3
    p[small, 1] = 0.3 * np.exp(1j * np.angle(p[small, 1]))
    t = gen.uniform(0.5, 1.5, n) * np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0)
    target = 1j * t if imaginary else t + 0j
    p[:, 3] = np.conj((target - np.conj(p[:, 2]) * p[:, 0]) / p[:, 1])
    return p * _log_scales(gen, n, 1.0)[:, None]


def _elko_spinors(gen: np.random.Generator, n: int) -> np.ndarray:
    chi = _cnormal(gen, (n, 2))
    phase = np.exp(1j * gen.uniform(0.0, 2 * np.pi, n))
    top = phase[:, None] * np.stack([np.conj(chi[:, 1]), -np.conj(chi[:, 0])], axis=1)
    return np.concatenate([top, chi], axis=1) * _log_scales(gen, n, 1.0)[:, None]


def _weyl_spinors(gen: np.random.Generator, n: int) -> np.ndarray:
    out = np.zeros((n, 4), dtype=complex)
    chi = _cnormal(gen, (n, 2)) * _log_scales(gen, n, 1.0)[:, None]
    out[0::2, :2] = chi[0::2]
    out[1::2, 2:] = chi[1::2]
    return out


def _near_spinors(gen: np.random.Generator, n: int) -> np.ndarray:
    """Type-2 rows moved so B sits at three thresholds: class 1, flagged."""
    psis = _boundary_spinors(gen, n, imaginary=False)
    thr = TOL * np.maximum(1.0, _scale(psis))
    delta = 1.5 * thr  # B = 2 Im(A1) = 3 thr
    psis[:, 3] -= 1j * delta / np.conj(psis[:, 1])
    return psis


def _tiny_spinors(gen: np.random.Generator, n: int) -> np.ndarray:
    return _cnormal(gen, (n, 4)) * 1e-6


def classify_corpus(seed: int, n: int) -> Corpus:
    gen = stream(seed, "classify-mixed")
    makers = {
        "generic": _generic_spinors,
        "type2": lambda g, m: _boundary_spinors(g, m, imaginary=False),
        "type3": lambda g, m: _boundary_spinors(g, m, imaginary=True),
        "type5": _elko_spinors,
        "type6": _weyl_spinors,
        "near": _near_spinors,
        "tiny": _tiny_spinors,
    }
    parts, kinds = [], []
    for kind, count in _counts(CLASSIFY_MIX, n).items():
        parts.append(makers[kind](gen, count))
        kinds += [kind] * count
    order = gen.permutation(n)
    return Corpus(psis=np.concatenate(parts)[order], kinds=[kinds[i] for i in order])


def base_scalars(base: np.ndarray) -> tuple[float, float]:
    a1 = _a1(base.reshape(1, 4))[0]
    return 2 * a1.real, 2 * a1.imag


def _plane_base(gen: np.random.Generator) -> np.ndarray:
    """A regular base with |A|, |B| at least a fifth of its scale."""
    while True:
        base = _cnormal(gen, 4)
        A, B = base_scalars(base)
        s = float(np.sum(np.abs(base) ** 2))
        if min(abs(A), abs(B)) > 0.2 * s:
            return base


def _coefficient_margins(r1, r2, A, B):
    """Distances of z = r1 conj(r2) from the type-2 and type-3 surfaces,
    scaled as spinorlab.lounesto scales them."""
    z = r1 * np.conj(r2)
    s = max(abs(A), abs(B), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        m2 = np.abs(A + B * z.real / z.imag) / s
        m3 = np.abs(A - B * z.imag / z.real) / s
    return np.nan_to_num(m2, nan=np.inf), np.nan_to_num(m3, nan=np.inf)


def _in_plane(base: np.ndarray, r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    return np.concatenate([r1[:, None] * base[None, :2], r2[:, None] * base[None, 2:]], axis=1)


def _generic_coords(gen, n, base, A, B):
    """Coordinates whose class is type 1 on both routes, with every zero-test
    at least a hundred thresholds from its boundary."""
    r1s, r2s = [], []
    have = 0
    while have < n:
        r1 = _cnormal(gen, n) * _log_scales(gen, n, 1.0)
        r2 = _cnormal(gen, n) * _log_scales(gen, n, 1.0)
        m2, m3 = _coefficient_margins(r1, r2, A, B)
        psis = _in_plane(base, r1, r2)
        a1 = _a1(psis)
        thr = TOL * np.maximum(1.0, _scale(psis))
        keep = (
            (np.minimum(m2, m3) > 100 * TOL)
            & (np.abs(2 * a1.real) > 100 * thr)
            & (np.abs(2 * a1.imag) > 100 * thr)
        )
        r1s.append(r1[keep])
        r2s.append(r2[keep])
        have += int(keep.sum())
    return np.concatenate(r1s)[:n], np.concatenate(r2s)[:n]


def _surface_coords(gen, n, A, B, kind):
    """r1 random, r2 solved so z = r1 conj(r2) lies on (or next to) a surface."""
    r1 = _cnormal(gen, n) * _log_scales(gen, n, 1.0)
    s = gen.uniform(0.3, 3.0, n) * np.where(gen.uniform(size=n) < 0.5, -1.0, 1.0) / np.hypot(A, B)
    if kind == "type2":  # A y = -B x
        z = s * (-A + 1j * B)
    elif kind == "type3":  # A x = B y
        z = s * (B + 1j * A)
    else:  # near: A + B x / y = d, three tolerances from the type-2 surface
        d = 3 * TOL * max(abs(A), abs(B), 1.0)
        z = s * ((d - A) + 1j * B)
    return r1, np.conj(z / r1)


def _zero_coords(gen, n):
    r = _cnormal(gen, n) * _log_scales(gen, n, 1.0)
    r1 = np.where(np.arange(n) % 2 == 0, r, 0.0)
    r2 = np.where(np.arange(n) % 2 == 1, r, 0.0)
    return r1, r2


def plane_corpus(seed: int, n: int, label: str = "decompose-plane", mix=PLANE_MIX) -> Corpus:
    gen = stream(seed, label)
    base = _plane_base(gen)
    A, B = base_scalars(base)
    r1s, r2s, kinds, psis = [], [], [], []
    for kind, count in _counts(mix, n).items():
        if kind == "generic":
            r1, r2 = _generic_coords(gen, count, base, A, B)
        elif kind == "type6":
            r1, r2 = _zero_coords(gen, count)
        elif kind == "off":
            psis.append(_cnormal(gen, (count, 4)) * _log_scales(gen, count, 1.0)[:, None])
            r1s.append(np.full(count, np.nan + 0j))
            r2s.append(np.full(count, np.nan + 0j))
            kinds += [kind] * count
            continue
        else:
            r1, r2 = _surface_coords(gen, count, A, B, kind)
        psis.append(_in_plane(base, r1, r2))
        r1s.append(r1)
        r2s.append(r2)
        kinds += [kind] * count
    order = gen.permutation(n)
    return Corpus(
        psis=np.concatenate(psis)[order],
        kinds=[kinds[i] for i in order],
        base=base,
        r1=np.concatenate(r1s)[order],
        r2=np.concatenate(r2s)[order],
    )


def scalar_corpus(seed: int, n: int) -> Corpus:
    return plane_corpus(seed, n, label="scalar-api", mix=SCALAR_MIX)


# ---------------------------------------------------------------------------
# files


def write_csv(path: Path, psis: np.ndarray) -> None:
    cols = np.empty((psis.shape[0], 8))
    cols[:, 0::2] = psis.real
    cols[:, 1::2] = psis.imag
    np.savetxt(path, cols, delimiter=",", fmt="%.17g")


def write_spinor_json(path: Path, psi: np.ndarray) -> None:
    path.write_text(json.dumps({"re": [float(x) for x in psi.real], "im": [float(x) for x in psi.imag]}))


def write_corpus(directory: Path, corpus: Corpus) -> tuple[Path, Path | None]:
    """Write a corpus and, for plane corpora, its base next to it, in one
    step, so a run never pairs a corpus with a base it was not built for."""
    directory.mkdir(parents=True, exist_ok=True)
    csv = directory / "corpus.csv"
    write_csv(csv, corpus.psis)
    if corpus.base is None:
        return csv, None
    base = directory / "base.json"
    write_spinor_json(base, corpus.base)
    return csv, base


# ---------------------------------------------------------------------------
# checks


def _close(got: dict, want: complex, tol: float) -> bool:
    return abs(complex(got["re"], got["im"]) - want) <= tol * max(1.0, abs(want))


def _class_ok(row: dict, kind: str) -> bool:
    want = EXPECTED[kind]
    if isinstance(want, str):
        return row.get("error") == want
    cls, near = want
    return "error" not in row and row.get("lounesto_class") == cls and row.get("near_degenerate") is near


def check_classify(report: dict, corpus: Corpus) -> list[int]:
    """Ids of rows whose class, error, flag or FPK residuals are wrong."""
    rows = report.get("rows", [])
    if report.get("command") != "classify" or len(rows) != len(corpus.kinds):
        return list(range(len(corpus.kinds)))
    quartic = np.maximum(1.0, _scale(corpus.psis) ** 2)
    bad = []
    for i, (row, kind) in enumerate(zip(rows, corpus.kinds)):
        ok = row.get("id") == i and _class_ok(row, kind)
        if ok and "fpk_residuals" in row:
            ok = max(row["fpk_residuals"]) <= FPK_TOL * quartic[i]
        if not ok:
            bad.append(i)
    return bad


def check_decompose(report: dict, corpus: Corpus) -> list[int]:
    """Ids of rows whose coordinates, residuals, class, flag or error are
    wrong; every row is wrong when the report's base scalars are."""
    rows = report.get("rows", [])
    everything = list(range(len(corpus.kinds)))
    if report.get("command") != "decompose" or len(rows) != len(corpus.kinds):
        return everything
    A, B = base_scalars(corpus.base)
    base = report.get("base", {})
    if abs(base.get("A", np.nan) - A) > 1e-12 * abs(A) or abs(base.get("B", np.nan) - B) > 1e-12 * abs(B):
        return everything
    norms = np.linalg.norm(corpus.psis, axis=1)
    bad = []
    for i, (row, kind) in enumerate(zip(rows, corpus.kinds)):
        ok = row.get("id") == i and _class_ok(row, kind)
        if ok and kind != "off":
            ok = (
                "r1" in row
                and _close(row["r1"], corpus.r1[i], DECOMPOSE_TOL)
                and _close(row["r2"], corpus.r2[i], DECOMPOSE_TOL)
                and max(row["residuals"]) <= DECOMPOSE_TOL * max(1.0, norms[i])
            )
        if ok and kind == "off":
            ok = "r1" not in row
        if not ok:
            bad.append(i)
    return bad


def histogram(report: dict) -> dict[str, int]:
    """Observed classes and errors of a report, for the record."""
    out: dict[str, int] = {}
    for row in report.get("rows", []):
        key = row["error"] if "error" in row else f"type{row['lounesto_class']}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))
