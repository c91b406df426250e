"""Workload definitions, seeded initial data and the correctness gate.

Each workload is one chemhill CLI command on a fixed scenario. The seed only
shapes the initial datum, which the benchmark writes as a CSV field and hands
to the program through the CLI's ``csv`` initial preset; the program never
sees the seed.
"""

import csv
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 2003
NEWTON_TOL = 1e-10
# reference comparisons allow 100x the Newton tolerance: roundoff-level
# solver changes pass, a wrong result does not
REF_RTOL = 100 * NEWTON_TOL
CONSERVATION_TOL = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.json")

@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI command
    d: int
    n: int
    N: int
    T: float
    beta: str             # body of the [beta] section
    datum: str            # "modes" (random cosine modes) or "bump"
    amplitude: float
    source: str           # body of the [source] section
    snapshot_stride: int = 1
    study_levels: tuple = ()

    @property
    def artifacts(self):
        if self.command == "simulate":
            return ("trajectory.csv", "ledger.csv")
        return (f"study_{self.command.split('-', 1)[1]}.csv",)

    def config(self, datum_path):
        text = f"[grid]\nd = {self.d}\nn = {self.n}\n\n"
        text += f"[params]\neps = 0.1\nlambda = 0.01\nN = {self.N}\nT = {self.T}\neta = 0.5\nc3 = 0\n"
        text += f"\n[beta]\n{self.beta}\n\n[pi]\nfamily = zero\n"
        text += f"\n[initial]\npreset = csv\npath = {datum_path}\n"
        text += f"\n[source]\n{self.source}\n"
        text += f"\n[solver]\nnewton_tol = {NEWTON_TOL!r}\n"
        text += f"\n[output]\nsnapshot_stride = {self.snapshot_stride}\n"
        if self.study_levels:
            text += "\n[study]\nh_levels = " + ", ".join(str(x) for x in self.study_levels) + "\n"
        return text


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="march-2d-logit",
            command="simulate",
            d=2, n=64, N=16, T=0.01,
            beta="family = logit",
            datum="modes", amplitude=0.95,
            source="preset = zero",
            snapshot_stride=16,
        ),
        Workload(
            name="study-1d-abslogit",
            command="study-h",
            d=1, n=256, N=32, T=0.02,
            beta="family = abs_logit",
            datum="modes", amplitude=0.9,
            source="preset = cosine_g\nk = 2",
            study_levels=(32, 64, 128),
        ),
        Workload(
            name="snapshots-2d-power",
            command="simulate",
            d=2, n=48, N=48, T=0.03,
            beta="family = power\nm = 3",
            datum="bump", amplitude=1.0,
            source="preset = cosine_g\nk = 2\nramp = 1",
            snapshot_stride=1,
        ),
    )
}


def _axis(n):
    return (np.arange(n) + 0.5) * (1.0 / n)


def make_datum(w, seed):
    """Seeded initial datum on the workload's grid, as a flat C-order array.

    The seed moves a fixed shape only slightly (bump centre and width, or a
    5% admixture of low cosine modes), so that every seed gives other
    numbers but about the same solver work, and run-to-run spread measures
    the program rather than the draw.
    """
    rng = np.random.default_rng(seed)
    coords = np.meshgrid(*([_axis(w.n)] * w.d), indexing="ij")
    if w.datum == "bump":
        center = rng.uniform(0.48, 0.52, size=w.d)
        width = 0.02 * rng.uniform(0.95, 1.05)
        field = np.exp(-sum((c - x0) ** 2 for c, x0 in zip(coords, center)) / width)
    else:
        base = np.prod([np.cos(math.pi * c) for c in coords], axis=0)
        noise = np.zeros_like(base)
        for k in np.ndindex(*([5] * w.d)):
            if sum(k) > 0:
                mode = np.prod([np.cos(kk * math.pi * c) for kk, c in zip(k, coords)], axis=0)
                noise += rng.standard_normal() / (1.0 + sum(kk * kk for kk in k)) * mode
        field = base + 0.05 * noise / np.max(np.abs(noise))
    return w.amplitude * field.ravel() / np.max(np.abs(field))


def write_datum(w, seed, path):
    """Write the datum in the layout ``chemhill.grid.load_field_csv`` reads."""
    values = make_datum(w, seed)
    coords = [c.ravel() for c in np.meshgrid(*([_axis(w.n)] * w.d), indexing="ij")]
    header = ["x", "value"] if w.d == 1 else ["x", "y", "value"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*coords, values):
            writer.writerow([repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# correctness gate


def read_outputs(w, outdir):
    """The checked results of one run: ledger q-values per level and snapshot data.

    The trajectory is streamed, one snapshot at a time, so the benchmark's own
    memory high-water mark stays low: a child process inherits it in its
    peak-RSS accounting.
    """
    with open(outdir / w.artifacts[-1], newline="") as fh:
        out = {"q": [[float(r[f"q{i}"]) for i in range(1, 13)] for r in csv.DictReader(fh)]}
    if w.command == "simulate":
        h = w.T / w.N
        out["masses"], out["sizes"], u = [], [], ()
        with open(outdir / "trajectory.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for _, rows in itertools.groupby(reader, key=lambda row: row[0]):
                u, mu = zip(*[(float(r[2]), float(r[3])) for r in rows])
                out["masses"].append(math.fsum(a + h * b for a, b in zip(u, mu)) / len(u))
                out["sizes"].append(len(u))
        out["final_u"] = list(u)
    return out


def check_outputs(w, seed, outdir, reference=True):
    """Return a list of correctness violations (empty when the run is correct)."""
    bad = []
    try:
        out = read_outputs(w, outdir)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"]
    levels = len(w.study_levels) or 1
    if len(out["q"]) != levels or not all(math.isfinite(x) for row in out["q"] for x in row):
        bad.append(f"expected {levels} finite ledger rows, got {out['q']}")
    if w.command == "simulate":
        expected = len(range(0, w.N + 1, w.snapshot_stride)) + (w.N % w.snapshot_stride != 0)
        masses = out["masses"]
        drift = max((abs(m - masses[0]) for m in masses), default=0.0)
        if out["sizes"] != [w.n**w.d] * expected:
            bad.append(f"expected {expected} snapshots of {w.n ** w.d} nodes, got {out['sizes']}")
        elif not drift <= CONSERVATION_TOL * max(1.0, abs(masses[0])):
            bad.append(f"mean(u + h*mu) drifted by {drift:.3e} (limit {CONSERVATION_TOL:.0e})")
    if reference and seed == DEFAULT_SEED and not bad:
        bad.extend(_check_reference(w, out))
    return bad


def reference_entry(w, out):
    return {k: out[k] for k in ("q", "final_u") if k in out}


def _check_reference(w, out):
    ref = json.loads(REFERENCE_PATH.read_text()).get(w.name)
    if ref is None:
        return [f"no reference values stored for {w.name}"]
    bad = []
    for key in ("q", "final_u"):
        if key not in out:
            continue
        got, want = np.asarray(out[key], dtype=float), np.asarray(ref.get(key, []), dtype=float)
        if got.shape != want.shape:
            bad.append(f"{key}: shape {got.shape} differs from the reference {want.shape}")
            continue
        if key == "q":  # each ledger entry relative to itself
            err = float(np.max(np.abs(got - want) / np.abs(want)))
        else:  # the density field relative to its own size
            err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        if not err <= REF_RTOL:
            bad.append(f"{key}: relative difference {err:.3e} from the reference exceeds {REF_RTOL:.0e}")
    return bad


def artifact_digest(w, outdir):
    """Hash of the run's artifacts; repeated runs of one config must agree."""
    digest = hashlib.sha256()
    for name in w.artifacts:
        with open(outdir / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
    return digest.hexdigest()
