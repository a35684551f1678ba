"""nhsiegel benchmark: certification sessions at degree 1 and degree 2.

Usage, from the repository root:

    python3 bench/run.py --workload session-deg1 --seed 1 --seconds 30 --trace 0

Each workload is one closed-loop caller that repeats a pass of
  (a) a CLI certification session: ``bound`` (theorem, JSON), ``bound``
      (corollary, CSV), ``moderate`` and ``check`` for each form, then one
      negative control ``bound --constant 1e-6`` that must exit 1.  Every
      command runs in a fresh process, one at a time, as
      ``python -m nhsiegel.cli`` runs it for a user;
  (b) a stream of single adversarial points queried through the library:
      ``SiegelPoint``, ``reduce_to_fundamental``, then ``evaluate``, ``phi``
      and ``tail_bound`` at the reduced point.
Every command and query is checked against invariants outside the timed
region (see ``check_command`` and ``check_query``); repeated passes must
write byte-identical reports.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: medians over the timed passes, with
latency percentiles taken per pass over its 1000 queries.  With
``--trace 1`` a separate run
executes one pass untraced and the same pass traced, and reports per-layer
call counts, self times and derived counts from spans recorded around
nhsiegel's public functions (see ``tracer.py``).

Times are scaled to a reference machine speed (see ``speed.py``): the
shared 2-core machine the benchmark was defined on switches speed by up to
1.8 times, on each CPU on its own, which moved raw times between runs by
more than any useful bound.  Each CLI command runs under ``timed_cli.py``,
which probes the speed of its own CPU while the command runs, and its wall
time is multiplied by ``speed.REF_S`` over the mean probe time.  Set-up is
scaled by the probes of its ``sample`` commands.  Each query is timed
between two probes in the benchmark process and scaled by their mean.  Raw
medians are printed as comment lines beside the result.

The benchmark exits 2 without a result when ``src/nhsiegel`` is missing.
"""

from __future__ import annotations

import os

# Thread pools of BLAS and OpenMP stay at one thread in this process and in
# every child, so the numbers measure the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TOL = 1e-9  # the CLI's default --tol, which the sweeps run with
NEG_CONSTANT = "1e-6"  # far below every estimated constant: must give violations
SETUP_REPS = 5
MIN_PASSES = 3
QUERIES_FOR_P99 = 1000  # per pass, so that at least 10 queries lie beyond p99
COMMAND_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    forms: tuple[str, ...]  # bundled sample names; the first one is queried
    samples: int  # --samples of bound and moderate
    check_samples: int
    check_exit: int  # sym2 is not modular, so its check must report violations
    queries: int  # point queries per pass


WORKLOADS = {
    # bound and moderate run at the CLI's default of 1000 samples; check at
    # 100, as sized for the benchmark (a check sample also tries every gamma).
    "session-deg1": Workload(("e4", "e6", "e2star"), samples=1000, check_samples=100, check_exit=0, queries=1000),
    "session-deg2": Workload(("sym2",), samples=1000, check_samples=100, check_exit=1, queries=1000),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "bound_s": "s",
    "moderate_s": "s",
    "check_s": "s",
    "query_us_p50": "us",
    "query_us_p99": "us",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Command:
    kind: str  # bound, moderate, check or sample
    args: tuple[str, ...]
    expect: int
    fmt: str  # json or csv
    samples: int


def session_commands(wl: Workload, seed: int) -> list[Command]:
    out = []
    for form in wl.forms:
        common = ("--form", f"{form}.json", "--seed", str(seed))
        sweep = common + ("--samples", str(wl.samples))
        out += [
            Command("bound", ("bound", "--kind", "theorem") + sweep, 0, "json", wl.samples),
            Command("bound", ("bound", "--kind", "corollary", "--format", "csv") + sweep, 0, "csv", wl.samples),
            Command("moderate", ("moderate",) + sweep, 0, "json", wl.samples),
            Command("check", ("check",) + common + ("--samples", str(wl.check_samples)),
                    wl.check_exit, "json", wl.check_samples),
        ]
    neg = ("bound", "--constant", NEG_CONSTANT, "--form", f"{wl.forms[0]}.json",
           "--seed", str(seed), "--samples", str(wl.samples))
    out.append(Command("bound", neg, 1, "json", wl.samples))
    return out


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=cwd, env=_child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=COMMAND_TIMEOUT_S)


class Session:
    """State of one benchmark invocation: work directory, loaded forms,
    reference digests, and the failure count."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.commands = session_commands(wl, seed)
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, str] = {}
        self.nh = None
        self.packages: dict = {}
        self.reference = None
        self.trace: dict | None = None  # merged span summary while tracing
        self.startups: list[float] = []
        self.sweep_phi_calls = 0
        self.sweep_samples = 0

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAIL {what}: {error}", file=sys.stderr)

    # -- CLI commands ------------------------------------------------------

    def run_cli(self, args: tuple[str, ...]) -> tuple[subprocess.CompletedProcess | None, float, float, str | None]:
        """Run one CLI command; returns (process, wall seconds, mean speed
        probe seconds, error).  Traced commands are not probed and report a
        probe time of speed.REF_S."""
        summary_path = self.work / "span_summary.json"
        speed_path = self.work / "speed.json"
        if self.trace is not None:
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(summary_path), "--", *args]
        else:
            argv = [sys.executable, str(BENCH / "timed_cli.py"), str(speed_path), "--", *args]
        spawned = time.monotonic()
        t0 = time.perf_counter()
        try:
            proc = _spawn(argv, self.work)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, speed.REF_S, f"timed out after {COMMAND_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        if self.trace is None:
            if not speed_path.is_file():
                return proc, wall, speed.REF_S, "the command wrote no speed probes"
            probe_s = statistics.mean(json.loads(speed_path.read_text(encoding="utf-8")))
            speed_path.unlink()
            return proc, wall, probe_s, None
        if not summary_path.is_file():
            return proc, wall, speed.REF_S, "the traced command wrote no span summary"
        part = json.loads(summary_path.read_text(encoding="utf-8"))
        summary_path.unlink()
        self.startups.append(part["ready"] - spawned)
        tracer.merge(self.trace, part)
        if args[0] in ("bound", "moderate"):
            self.sweep_phi_calls += part["spans"].get("forms.phi", {}).get("calls", 0)
        return proc, wall, speed.REF_S, None

    def run_command(self, idx: int, cmd: Command, pass_idx: int) -> tuple[float, float]:
        """Run, check and delete one command's output; returns its wall
        seconds and mean speed probe seconds."""
        out = self.work / f"p{pass_idx}_c{idx}.{cmd.fmt}"
        proc, wall, probe_s, error = self.run_cli(cmd.args + ("--out", out.name))
        if error is None:
            error = check_command(cmd, proc, out)
        if error is None:
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            first = self.digests.setdefault(idx, digest)
            if digest != first:
                error = "output differs from the first pass with the same seed"
        if self.trace is not None and cmd.kind in ("bound", "moderate"):
            self.sweep_samples += cmd.samples
        out.unlink(missing_ok=True)
        self.record(" ".join(cmd.args), error)
        return wall, probe_s

    # -- set-up -------------------------------------------------------------

    def setup(self) -> tuple[float, float]:
        """Write every form with ``nhsiegel sample`` and load it; the first
        call also imports nhsiegel.  Returns wall seconds and the mean speed
        probe seconds of the ``sample`` commands."""
        probes = []
        t0 = time.perf_counter()
        for form in self.wl.forms:
            path = self.work / f"{form}.json"
            path.unlink(missing_ok=True)
            proc, _, probe_s, error = self.run_cli(("sample", "--name", form, "--out", path.name))
            if error is None and proc.returncode != 0:
                error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
            if error is None and not path.is_file():
                error = "no form file written"
            self.record(f"sample {form}", error)
            probes.append(probe_s)
        if self.nh is None:
            sys.path.insert(0, str(SRC))
            import nhsiegel

            self.nh = nhsiegel
        self.packages = {f: self.nh.load_form_package(self.work / f"{f}.json") for f in self.wl.forms}
        return time.perf_counter() - t0, statistics.mean(probes)

    # -- passes ---------------------------------------------------------------

    def run_pass(self, pass_idx: int) -> tuple[list[tuple[str, float, float]], list[float], list[float]]:
        """One pass: the CLI session, then the query stream.  Returns
        (kind, wall, probe) per command, and the latency and the probe of
        each query, in seconds."""
        commands = [(cmd.kind, *self.run_command(idx, cmd, pass_idx)) for idx, cmd in enumerate(self.commands)]
        return (commands, *self.run_queries(pass_idx))

    def run_queries(self, pass_idx: int) -> tuple[list[float], list[float]]:
        """Run and check the pass's queries; returns each query's latency and
        the mean of the speed probes just before and just after it."""
        nh = self.nh
        form = self.wl.forms[0]
        pkg = self.packages[form]
        if self.reference is None:
            self.reference = ReferencePhi(pkg, nh)
        latencies, probes = [], []
        results = []
        clock = time.perf_counter
        before = speed.kernel_s()
        for x, y in query_inputs(pkg.n, self.wl.queries, self.seed, pass_idx):
            t0 = clock()
            try:
                z = nh.SiegelPoint(x, y)
                gamma, z_red = nh.reduce_to_fundamental(z)
                nh.evaluate(pkg.expansion, z_red)
                value = nh.phi(pkg, z_red)
                tail = nh.tail_bound(pkg, z_red.Y)
                elapsed = clock() - t0
            except Exception:  # a query that raises is a failed operation
                self.record(f"query {form}", traceback.format_exc(limit=2))
                elapsed = None
            after = speed.kernel_s()
            if elapsed is not None:
                latencies.append(elapsed)
                probes.append((before + after) / 2.0)
                results.append((x, y, gamma, z_red, value, tail))
            before = after
        for x, y, gamma, z_red, value, tail in results:
            self.record(f"query {form}", check_query(self.reference, x, y, gamma, z_red, value, tail))
        return latencies, probes


def query_inputs(n: int, count: int, seed: int, pass_idx: int):
    """Adversarial points: Y eigenvalues log-uniform in [1e-2, 1e2] under a
    random rotation, X entries uniform in [-5, 5]; fresh points per pass."""
    rng = np.random.default_rng([seed, n, pass_idx])
    for _ in range(count):
        x = rng.uniform(-5.0, 5.0, (n, n))
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q = q * np.sign(np.diag(r))
        y = (q * 10.0 ** rng.uniform(-2.0, 2.0, n)) @ q.T
        yield (x + x.T) / 2.0, (y + y.T) / 2.0


class ReferencePhi:
    """phi = ||rho(Y^1/2) F(Z)|| summed from the stored expansion with
    numpy.linalg, independently of nhsiegel's own kernels, and a cap on the
    truncation error bound."""

    def __init__(self, package, nh):
        rep = package.rep
        self.n, self.j, self.k = package.n, rep.j, rep.k
        expansion = package.expansion
        self.terms = [(beta.powers, s, v) for beta, s, v in expansion.terms()]
        self.growth = (package.growth_a, package.growth_kappa)
        self.level, self.p = expansion.level, expansion.p
        self.first_omitted = math.floor(expansion.level * expansion.t_max + 1e-9) + 1
        # Squared norms of the monomial basis x0^(j-r) x1^r: r! (j-r)! / j!.
        self.weights = np.array([1.0 / math.comb(self.j, r) for r in range(self.j + 1)][: rep.dim])
        self.delta = nh.delta_for_degree(package.n)
        self.floor = nh.forms.FLOAT_FLOOR

    def rho(self, m: np.ndarray) -> np.ndarray:
        if self.n == 1:
            return np.array([[m[0, 0] ** (self.j + self.k)]], dtype=complex)
        # Column (j-c, c) is the coefficient list of (m00 + m10 t)^(j-c) (m01 + m11 t)^c.
        out = np.zeros((self.j + 1, self.j + 1), dtype=complex)
        for c in range(self.j + 1):
            poly = np.array([1.0 + 0j])
            for _ in range(self.j - c):
                poly = np.convolve(poly, [m[0, 0], m[1, 0]])
            for _ in range(c):
                poly = np.convolve(poly, [m[0, 1], m[1, 1]])
            out[:, c] = poly
        return out * np.linalg.det(m) ** self.k

    def __call__(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """phi at Z = X + iY, and the norm of rho(Y^1/2) in the invariant
        norm, by which a truncation error in F is scaled in phi."""
        zc = x + 1j * y
        y_inv = np.linalg.inv(y)
        total = np.zeros(len(self.weights), dtype=complex)
        for powers, s, v in self.terms:
            mono = math.prod(y_inv[i - 1, j - 1] ** b for i, j, b in powers)
            total += v * (np.exp(2j * math.pi * np.trace(s @ zc)) * mono)
        w, q = np.linalg.eigh(y)
        rho = self.rho((q * np.sqrt(w)) @ q.T)
        value = float(np.sqrt(np.sum(self.weights * np.abs(rho @ total) ** 2)))
        d = np.sqrt(self.weights)
        return value, float(np.linalg.norm(d[:, None] * rho / d[None, :], 2))

    def tail_cap(self, y: np.ndarray) -> float:
        """The majorant that ``tail_bound`` documents, summed term by term:
        over the omitted traces m = Tr(N S), (2m + 1)^r lattice matrices,
        each coefficient at most A (1 + m/N)^kappa, each exponential at
        most exp(-2 pi delta' m / N) with delta' the least eigenvalue of Y,
        times the number of Y^-1 monomials, each at most max(1, delta'^-p)."""
        a, kappa = self.growth
        if a == 0.0:
            return 0.0
        r = self.n * (self.n + 1) // 2
        delta = float(np.linalg.eigvalsh(y)[0])
        c = 2.0 * math.pi * delta / self.level
        total, m = 0.0, self.first_omitted
        while True:
            t = (2.0 * m + 1.0) ** r * a * (1.0 + m / self.level) ** kappa * math.exp(-c * m)
            total += t
            # Past the peak of the polynomial factor the terms fall at
            # least geometrically, so a term below 1e-18 of the sum ends it.
            if m * c > r + abs(kappa) and t <= 1e-18 * total:
                break
            m += 1
        return math.comb(r + self.p, self.p) * max(1.0, delta ** -self.p) * total


def check_query(ref: ReferencePhi, x, y, gamma, z_red, value: float, tail: float) -> str | None:
    n = len(x)
    lam = float(np.linalg.eigvalsh(z_red.Y)[0])
    if lam < ref.delta - 1e-12:
        return f"reduced point has least Im eigenvalue {lam!r} below {ref.delta!r}"
    g = np.asarray(gamma.mat)
    if not np.array_equal(g, np.round(g)):
        return "gamma is not integral"
    gi = np.round(g).astype(np.int64)
    j = np.zeros((2 * n, 2 * n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = -np.eye(n, dtype=np.int64)
    if not np.array_equal(gi.T @ j @ gi, j):
        return "gamma is not symplectic"
    zc = x + 1j * y
    w = np.linalg.solve((g[n:, :n] @ zc + g[n:, n:]).T, (g[:n, :n] @ zc + g[:n, n:]).T).T
    red = z_red.X + 1j * z_red.Y
    if float(np.max(np.abs(w - red))) > 1e-9 * max(1.0, float(np.max(np.abs(red)))):
        return "act(gamma, z) does not match the reduced point"
    # The allowance below is only as strict as the tail bound it trusts, so
    # the tail bound must be no looser than the majorant it documents (twice
    # that leaves room for another rule to close the series).
    cap = ref.tail_cap(np.asarray(z_red.Y))
    if not 0.0 <= tail <= 2.0 * cap:
        return f"tail_bound {tail!r} is not within [0, 2 * {cap!r}]"
    # The truncation error bound, carried through rho(Y^1/2), plus the
    # package's floating-point allowance relative to 1 + |phi|, as
    # check_invariance applies it: two summation orders differ by rounding
    # that grows with phi (1.6e-9 at phi = 3.8e5 on sym2).
    want, rho_norm = ref(np.asarray(z_red.X), np.asarray(z_red.Y))
    allowed = rho_norm * tail + ref.floor * (1.0 + want)
    if not abs(value - want) <= allowed:
        return f"phi {value!r} differs from the reference {want!r} by more than {allowed!r}"
    return None


def check_command(cmd: Command, proc: subprocess.CompletedProcess, out: Path) -> str | None:
    if proc.returncode != cmd.expect:
        return f"exit {proc.returncode}, expected {cmd.expect}: {proc.stderr.strip()[-300:]}"
    if not out.is_file():
        return "no output file"
    text = out.read_text(encoding="utf-8")
    if cmd.fmt == "csv":
        header, *rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != cmd.samples:
            return f"CSV has {len(rows)} rows for {cmd.samples} samples"
        if any(len(r) != len(header) for r in rows):
            return "CSV rows do not match the header"
        col = header.index("ratio")
        worst = max(float(r[col]) for r in rows)
        return None if worst <= 1 + TOL else f"CSV ratio {worst!r} above 1 + tol"
    report = json.loads(text)
    if report["samples"] != cmd.samples:
        return f"report has {report['samples']} samples, {cmd.samples} requested"
    if cmd.expect != 0:
        return None if report["violations"] > 0 else "expected violations, report has none"
    if report["violations"] != 0:
        return f"{report['violations']} violations"
    if cmd.kind != "check" and not report["worst_ratio"] <= 1 + TOL:
        return f"worst_ratio {report['worst_ratio']!r} above 1 + tol"
    return None


# -- runs ----------------------------------------------------------------------


def pass_metrics(commands, latencies, probes) -> tuple[dict[str, float], dict[str, float]]:
    """Scaled and raw end-to-end metrics of one pass.  Each command and each
    query is scaled by its own probes: one factor for the whole pass lets
    the work that ran in the machine's slow phases set the result."""
    scaled, raw = {}, {}
    for kind in ("bound", "moderate", "check"):
        scaled[f"{kind}_s"] = sum(w * speed.REF_S / c for k, w, c in commands if k == kind)
        raw[f"{kind}_s"] = sum(w for k, w, _ in commands if k == kind)
    us = np.array(latencies) * 1e6
    for out, values in ((scaled, us * speed.REF_S / np.array(probes)), (raw, us)):
        p50, p99 = np.percentile(values, [50, 99])
        out.update(query_us_p50=float(p50), query_us_p99=float(p99))
    return scaled, raw


def timed_run(s: Session, seconds: float) -> dict:
    if s.wl.queries < QUERIES_FOR_P99:
        raise ValueError(f"a timed run needs at least {QUERIES_FOR_P99} queries per pass")
    # The set-up repetitions also warm the byte-code and page caches; the
    # first timed pass fixes the reference outputs.
    setups = [s.setup() for _ in range(SETUP_REPS)]
    passes, raw = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        scaled, unscaled = pass_metrics(*s.run_pass(len(passes)))
        passes.append(scaled)
        raw.append(unscaled)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {"setup_s": statistics.median(w * speed.REF_S / c for w, c in setups), "peak_rss_mb": rss_kb / 1024.0}
    for name in passes[0]:
        values[name] = statistics.median(p[name] for p in passes)
    for name in raw[0]:
        print(f"# raw {name} {statistics.median(p[name] for p in raw):.6g}")
    print(f"# raw setup_s {statistics.median(w for w, _ in setups):.6g}")
    print(f"# {len(passes)} timed passes, medians over passes; "
          f"query percentiles per pass over {s.wl.queries} queries; setup repeated {SETUP_REPS} times")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def traced_run(s: Session) -> dict:
    s.setup()
    s.run_pass(0)  # warm-up; fixes the reference outputs
    t0 = time.perf_counter()
    s.setup()
    s.run_pass(0)
    untraced = time.perf_counter() - t0

    s.trace = tracer.empty_summary()
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    t0 = time.perf_counter()
    try:
        s.setup()
        s.run_pass(0)
    finally:
        uninstall()
    traced = time.perf_counter() - t0
    summary = tracer.merge(s.trace, tracer.finish(t))
    s.trace = None
    print(f"# traced pass {traced:.3f} s, untraced {untraced:.3f} s")
    return per_layer_metrics(summary, s, traced - untraced)


def per_layer_metrics(summary: dict, s: Session, overhead_s: float) -> dict:
    spans = summary["spans"]
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in tracer.span_names():
        rec = spans.get(name, {"calls": 0, "self_s": 0.0, "durations": []})
        put(f"{name}.calls", rec["calls"], "count")
        put(f"{name}.self_s", rec["self_s"], "s")
        if name in tracer.PER_CALL:
            durs = rec["durations"]
            put(f"{name}.us_p50", statistics.median(durs) * 1e6 if durs else 0.0, "us")
    phi_calls = spans.get("forms.phi", {}).get("calls", 0)
    reductions = spans.get("symplectic.reduce_to_fundamental", {}).get("calls", 0)
    put("linalg.eig_per_phi", summary["eigensolves"] / phi_calls if phi_calls else 0.0, "ratio")
    put("symplectic.reduce_to_fundamental.identity_frac",
        summary["identity_reductions"] / reductions if reductions else 0.0, "ratio")
    put("growth.phi_per_sample", s.sweep_phi_calls / s.sweep_samples if s.sweep_samples else 0.0, "ratio")
    put("cli.startup_s", statistics.median(s.startups) if s.startups else 0.0, "s")
    put("trace.overhead_s", overhead_s, "s")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, wl: Workload | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    wl = wl or WORKLOADS[workload]
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BENCH / "_work"))
    try:
        s = Session(wl, seed, work)
        metrics = traced_run(s) if trace else timed_run(s, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "nhsiegel" / "__init__.py").is_file():
        print(f"nhsiegel sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# fail_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
