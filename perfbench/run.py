#!/usr/bin/env python3
"""Closed-loop benchmark of the cni-prover command line path.

One client, one statement at a time, nothing in parallel. Each statement of
the chosen workload goes through ``cli_dsl.run_cli`` exactly as
``cni-prover prove - --format json --show-ideal`` would run it, with the
.cni text on standard input and the document captured in memory. Every exit
status and verdict is checked against manifest.json and every document
against the committed bytes under expected/.

The work of a pass is deterministic, but on a shared machine other
processes take turns on the CPU and the CPU itself slows down, by more than
a third at times. Times are therefore CPU time, and while statements run a
speed probe times a fixed reference computation ten times a second: every
time is reported in reference seconds, CPU time scaled by how much slower
than nominal the reference ran around it. Each time is the median over the
run's passes.

    python3 perfbench/run.py --workload classic-light --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes in which the public functions that cli_dsl and
prover call are wrapped in spans, prints the per-layer metrics and writes
the spans to perfbench/out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = HERE / "manifest.json"

# Budget per elimination, three times the CLI default: on a shared machine
# whose speed varies by up to 1.8x, the slowest elimination (under 10 s)
# must not turn into a t/o. decided_frac still drops for a statement that
# becomes several times slower or never finishes.
BUDGET_S = 60.0
# Fresh interpreters timed per run for setup_s; the first one, which writes
# the bytecode cache, is not counted.
SETUP_SPAWNS = 15
# The speed probe times one reference computation every REF_PERIOD_S. A
# reference second is the CPU time the work would take if the reference
# took REF_NOMINAL_S, a round figure near its median on a 2-vCPU x86_64
# host under CPython 3.11.
REF_PERIOD_S = 0.1
REF_NOMINAL_S = 0.0025
# Reference samples taken just before and just after each setup interpreter.
SETUP_REF_SAMPLES = 4

# Per-layer metric -> unit. Times and counts are per pass, summed over the
# statements, except ideal_coeff_bits, which is the largest.
LAYER_METRICS = {
    "cli_dsl.parse_s": "s",
    "cli_dsl.statements": "count",
    "geometry_model.substitute_s": "s",
    "geometry_model.build_s": "s",
    "geometry_model.fix_s": "s",
    "geometry_model.vars": "count",
    "geometry_model.eliminated_vars": "count",
    "geometry_model.input_polys": "count",
    "geometry_model.input_terms": "count",
    "groebner.first_elim_s": "s",
    "groebner.ideal_gens": "count",
    "groebner.ideal_terms": "count",
    "groebner.ideal_coeff_bits": "bits",
    "groebner.timeouts": "count",
    "groebner.warmup_s": "s",
    "groebner.warmup_gens": "count",
    "groebner.warmup_terms": "count",
    "groebner.second_elim_s": "s",
    "groebner.second_elims": "count",
    "groebner.second_ideal_gens": "count",
    "prover.self_s": "s",
    "proof_emitter.emit_s": "s",
    "proof_emitter.doc_bytes": "bytes",
}


class BenchError(Exception):
    """The benchmark cannot run here: no program, or a broken manifest."""


def import_program():
    """Import cni_prover from this checkout's src/ and nowhere else."""
    if not (SRC / "cni_prover" / "__init__.py").is_file():
        raise BenchError(f"no cni_prover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cni_prover
    from cni_prover import cli_dsl, geometry_model, groebner, proof_emitter, prover

    if Path(cni_prover.__file__).resolve().parent != SRC / "cni_prover":
        raise BenchError(f"cni_prover was imported from {cni_prover.__file__}")
    return cli_dsl, geometry_model, groebner, proof_emitter, prover


# ---------------------------------------------------------------------------
# Corpus and manifest.


@dataclass(frozen=True)
class Statement:
    name: str
    text: str
    exit: int
    verdict: str
    reason: str | None
    expected: bytes | None


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def corpus_text(name: str) -> str:
    return (HERE / "corpus" / f"{name}.cni").read_text(encoding="utf-8")


def expected_path(fix: str, name: str) -> Path:
    return HERE / "expected" / fix / f"{name}.json"


def load_workload(manifest: dict, workload: str) -> tuple[str, list[Statement]]:
    """The fix mode and the statements of one workload, in manifest order."""
    spec = manifest["workloads"].get(workload)
    if spec is None:
        raise BenchError(f"unknown workload {workload!r}")
    fix = spec["fix"]
    stmts = []
    for entry in manifest["statements"]:
        if workload not in entry["workloads"]:
            continue
        want = entry["expect"][fix]
        path = expected_path(fix, entry["name"])
        stmts.append(
            Statement(
                name=entry["name"],
                text=corpus_text(entry["name"]),
                exit=want["exit"],
                verdict=want["verdict"],
                reason=want["reason"],
                expected=path.read_bytes() if path.is_file() else None,
            )
        )
    if not stmts:
        raise BenchError(f"workload {workload!r} has no statements")
    return fix, stmts


# ---------------------------------------------------------------------------
# Running statements.


@dataclass
class Outcome:
    exit: int | None
    stdout: str
    error: str | None = None


def run_statement(cli_dsl, text: str, fix: str) -> Outcome:
    """One `cni-prover prove - --fix FIX --format json --show-ideal` call."""
    cfg = cli_dsl.CliConfig(
        input="-", fix_mode=fix, timeout=BUDGET_S, format="json", show_ideal=True
    )
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        code = cli_dsl.run_cli(cfg, out, err)
    except Exception as exc:  # an escaped exception is a failed operation
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    finally:
        sys.stdin = saved
    return Outcome(code, out.getvalue(), err.getvalue().strip() or None)


def check(stmt: Statement, got: Outcome) -> tuple[bool, str | None]:
    """(decided, problem). decided: the manifest verdict was reached;
    problem: why the operation failed, or None."""
    if got.exit is None:
        return False, got.error
    try:
        doc = json.loads(got.stdout)
        verdict, reason = doc["verdict"], doc["reason"]
    except (ValueError, KeyError, TypeError):
        return False, f"exit {got.exit}, output is not a JSON proof document"
    decided = (verdict, reason) == (stmt.verdict, stmt.reason)
    if not decided:
        return False, f"verdict {verdict} ({reason}), manifest says {stmt.verdict} ({stmt.reason})"
    if got.exit != stmt.exit:
        return True, f"exit status {got.exit}, manifest says {stmt.exit}"
    if stmt.expected is None:
        return True, "no expected document committed"
    if got.stdout.encode("utf-8") != stmt.expected:
        return True, "document differs from the expected bytes"
    return True, None


@dataclass(frozen=True)
class Interval:
    """When a statement ran, on the wall clock and on the process CPU clock."""

    wall0: float
    wall1: float
    cpu0: float
    cpu1: float


@dataclass
class PassResult:
    seconds: float
    rows: list[tuple[Statement, Interval, Outcome]]


def run_pass(cli_dsl, stmts: list[Statement], fix: str, tracer=None) -> PassResult:
    rows = []
    t_pass = time.perf_counter()
    for stmt in stmts:
        if tracer is not None:
            tracer.statement = stmt.name
        t0, c0 = time.perf_counter(), time.process_time()
        got = run_statement(cli_dsl, stmt.text, fix)
        rows.append((stmt, Interval(t0, time.perf_counter(), c0, time.process_time()), got))
    return PassResult(time.perf_counter() - t_pass, rows)


# ---------------------------------------------------------------------------
# Speed probe. The reference is integer-coefficient polynomial reduction on
# exponent tuples, the same kind of work as the prover's Groebner engine,
# written here with the standard library only, so that no change to the
# program changes the reference.


def _reference_poly(rng: random.Random) -> dict:
    return {tuple(rng.randrange(4) for _ in range(6)): rng.randrange(-99, 99) or 1
            for _ in range(24)}


_REF_RNG = random.Random(7)
_REF_F, _REF_G = _reference_poly(_REF_RNG), _reference_poly(_REF_RNG)


def _ref_key(m):
    return (sum(m), m)


def reference() -> dict:
    """A fixed computation of about REF_NOMINAL_S."""
    terms = dict(_REF_F)
    lm = max(_REF_G, key=_ref_key)
    lc = _REF_G[lm]
    for _ in range(16):
        m = max(terms, key=_ref_key)
        c = terms[m]
        d = gcd(c, lc)
        a, b = abs(lc // d), c // d
        for k in terms:
            terms[k] *= a
        for mg, cg in _REF_G.items():
            mm = tuple(x + y for x, y in zip(m, mg))
            nv = terms.get(mm, 0) - b * cg
            if nv:
                terms[mm] = nv
            else:
                terms.pop(mm, None)
    return terms


class SpeedProbe:
    """Context manager that times `reference` every REF_PERIOD_S from a
    SIGALRM handler, in the main thread between the program's bytecodes.

    Times are process CPU time, so that the moments another process holds
    the CPU do not count. A statement's time in reference seconds is its CPU
    time less the probe's own samples inside it, times the mean of
    REF_NOMINAL_S / sample over the samples within REF_PERIOD_S of it: on a
    CPU running at half speed the samples take twice as long and the time
    is halved."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # wall clock, to place each sample
        self.seconds: list[float] = []  # CPU time of each sample
        self._saved = None
        self._busy = False

    def _tick(self, *_) -> None:
        # A signal that arrives during a sample would start a nested one.
        if not self._busy:
            self._busy = True
            try:
                self.sample()
            finally:
                self._busy = False

    def sample(self) -> float:
        t0, c0 = time.perf_counter(), time.process_time()
        reference()
        dt = time.process_time() - c0
        self.starts.append(t0)
        self.seconds.append(dt)
        return dt

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def scale(self, samples: list[float]) -> float:
        return statistics.fmean(REF_NOMINAL_S / d for d in samples)

    def measure(self, span: Interval) -> float:
        """Reference seconds of the work done in `span`."""
        i = bisect.bisect_left(self.starts, span.wall0)
        j = bisect.bisect_left(self.starts, span.wall1)
        net = span.cpu1 - span.cpu0 - sum(self.seconds[i:j])
        lo = bisect.bisect_left(self.starts, span.wall0 - REF_PERIOD_S)
        hi = bisect.bisect_right(self.starts, span.wall1 + REF_PERIOD_S)
        return net * self.scale(self.seconds[lo:hi] or [self.seconds[max(lo - 1, 0)]])


# ---------------------------------------------------------------------------
# Tracing from outside the program: module attributes are swapped for
# wrappers that record a span per call, then restored.


@dataclass
class Span:
    id: int
    name: str
    statement: str | None
    parent: "Span | None"
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def row(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "statement": self.statement,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "error": self.error,
            "counts": self.counts,
        }


def _coeff_bits(p) -> int:
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return max((abs(c.numerator) * (den // c.denominator)).bit_length() for c in p.terms.values())


def _input_polys(system) -> list:
    """The polynomials `prove` hands to its first elimination."""
    polys = list(system.hypothesis_polys)
    if system.rabinowitsch_poly is not None:
        polys.append(system.rabinowitsch_poly)
    return polys


def _system_counts(args, system):
    if system is None:
        return {}
    polys = _input_polys(system)
    return {
        "vars": len(system.table),
        "eliminated_vars": len(system.eliminate_vars),
        "input_polys": len(polys),
        "input_terms": sum(len(p.terms) for p in polys),
    }


def _ideal_counts(args, result):
    if result is None:
        return {}
    gens = result.generators
    # Coefficient size of the integer-primitive generators the engine holds.
    return {
        "gens": len(gens),
        "terms": sum(len(g.terms) for g in gens),
        "coeff_bits": max((_coeff_bits(g) for g in gens), default=0),
    }


def _doc_counts(args, doc):
    return {} if doc is None else {"doc_bytes": len(doc.text().encode("utf-8"))}


class Tracer:
    """Context manager that wraps the layer entry points in spans."""

    def __init__(self, cli_dsl, prover):
        # (module, attribute, span name, counter(args, result or None))
        self.targets = [
            (cli_dsl, "parse", "cli_dsl.parse",
             lambda args, _: {"statements": len(args[0].statements())}),
            (cli_dsl, "substitute_declaratives", "geometry_model.substitute_declaratives", None),
            (cli_dsl, "build_system", "geometry_model.build_system", None),
            (cli_dsl, "fix_coordinates", "geometry_model.fix_coordinates", _system_counts),
            (cli_dsl, "prove", "prover.prove", None),
            (cli_dsl, "emit_trace", "proof_emitter.emit_trace", _doc_counts),
            (prover, "check_denominator", "prover.check_denominator", None),
            (prover, "eliminate", "groebner.eliminate", _ideal_counts),
        ]
        self.spans: list[Span] = []
        self.statement: str | None = None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, counter in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(next(self._ids), name, self.statement, parent, time.perf_counter())
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
                if counter is not None:
                    span.counts = counter(args, result)

        return wrapper


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (warm-up metrics excluded)."""
    m = {k: 0 for k in LAYER_METRICS if not k.startswith("groebner.warmup")}
    for s in spans:
        c = s.counts
        if s.name == "cli_dsl.parse":
            m["cli_dsl.parse_s"] += s.self_s
            m["cli_dsl.statements"] += c["statements"]
        elif s.name == "geometry_model.substitute_declaratives":
            m["geometry_model.substitute_s"] += s.self_s
        elif s.name == "geometry_model.build_system":
            m["geometry_model.build_s"] += s.self_s
        elif s.name == "geometry_model.fix_coordinates":
            m["geometry_model.fix_s"] += s.self_s
            for k in ("vars", "eliminated_vars", "input_polys", "input_terms"):
                m[f"geometry_model.{k}"] += c.get(k, 0)
        elif s.name in ("prover.prove", "prover.check_denominator"):
            m["prover.self_s"] += s.self_s
        elif s.name == "proof_emitter.emit_trace":
            m["proof_emitter.emit_s"] += s.self_s
            m["proof_emitter.doc_bytes"] += c.get("doc_bytes", 0)
        elif s.name == "groebner.eliminate":
            m["groebner.timeouts"] += s.error == "GroebnerTimeout"
            if s.parent is not None and s.parent.name == "prover.check_denominator":
                m["groebner.second_elim_s"] += s.self_s
                m["groebner.second_elims"] += 1
                m["groebner.second_ideal_gens"] += c.get("gens", 0)
            else:
                m["groebner.first_elim_s"] += s.self_s
                m["groebner.ideal_gens"] += c.get("gens", 0)
                m["groebner.ideal_terms"] += c.get("terms", 0)
                m["groebner.ideal_coeff_bits"] = max(
                    m["groebner.ideal_coeff_bits"], c.get("coeff_bits", 0)
                )
    return m


def warmup_probe(modules, stmts: list[Statement], fix: str) -> tuple[dict, list[dict]]:
    """Time the grevlex basis of each statement's input, the first step of
    `eliminate`, by a separate groebner_basis call outside any span."""
    cli_dsl, geometry_model, groebner, _, _ = modules
    from cni_prover.algebra_core import GrevLex

    total = {"groebner.warmup_s": 0.0, "groebner.warmup_gens": 0, "groebner.warmup_terms": 0}
    rows = []
    for stmt in stmts:
        try:
            c = geometry_model.substitute_declaratives(
                cli_dsl.parse(cli_dsl.SourceProgram(stmt.text, stmt.name))
            )
        except (cli_dsl.UnknownPredicateError, cli_dsl.PredicateArityError):
            continue
        system = geometry_model.fix_coordinates(geometry_model.build_system(c), c, fix)
        polys = _input_polys(system)
        order = GrevLex(tuple(range(len(system.table))))
        t0 = time.perf_counter()
        basis = groebner.groebner_basis(polys, order, groebner.GroebnerConfig(timeout=BUDGET_S))
        dt = time.perf_counter() - t0
        row = {
            "statement": stmt.name,
            "warmup_s": dt,
            "warmup_gens": len(basis.generators),
            "warmup_terms": sum(len(g.terms) for g in basis.generators),
        }
        rows.append(row)
        total["groebner.warmup_s"] += dt
        total["groebner.warmup_gens"] += row["warmup_gens"]
        total["groebner.warmup_terms"] += row["warmup_terms"]
    return total, rows


# ---------------------------------------------------------------------------
# Metrics.


class Tally:
    """Checks each pass as it ends and keeps when each statement ran, not
    its document, so the documents of hundreds of passes do not count in
    peak_rss_mb."""

    def __init__(self) -> None:
        self.attempted = self.decided = self.failed = 0
        self.problems: dict[str, str] = {}
        self.passes: list[list[tuple[str, Interval]]] = []

    def add(self, result: PassResult) -> None:
        self.passes.append([(stmt.name, span) for stmt, span, _ in result.rows])
        for stmt, _, got in result.rows:
            decided, problem = check(stmt, got)
            self.attempted += 1
            self.decided += decided
            if problem is not None:
                self.failed += 1
                self.problems.setdefault(stmt.name, problem)

    def times(self, probe: SpeedProbe | None = None):
        """Each pass's total and each statement's times over the passes: in
        reference seconds given the probe that ran with the passes, else in
        wall seconds."""
        pass_s, stmt_s = [], {}
        for rows in self.passes:
            total = 0.0
            for name, span in rows:
                dt = probe.measure(span) if probe is not None else span.wall1 - span.wall0
                stmt_s.setdefault(name, []).append(dt)
                total += dt
            pass_s.append(total)
        return pass_s, stmt_s

    def fastest(self) -> tuple[float, dict[str, float]]:
        """The fastest pass and each statement's fastest wall time."""
        pass_s, stmt_s = self.times()
        return min(pass_s), {k: min(v) for k, v in stmt_s.items()}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class SetupTimer:
    """Time of a fresh interpreter importing cni_prover, with the bytecode
    cache written, as after an install. The timed interpreters are spread
    over the run, between passes. Each one's CPU time, user and system, is
    converted to reference seconds by reference samples taken just before
    and just after it, while no interpreter runs."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.wall: list[float] = []
        self.times: list[float] = []
        self._spawn()  # writes the bytecode cache; not counted
        self.wall.clear()
        self.times.clear()

    def _spawn(self) -> None:
        ref = [self.probe.sample() for _ in range(SETUP_REF_SAMPLES)]
        t0, c0 = time.perf_counter(), _children_cpu()
        subprocess.run([sys.executable, "-c", "import cni_prover"], env=self.env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t1, c1 = time.perf_counter(), _children_cpu()
        ref += [self.probe.sample() for _ in range(SETUP_REF_SAMPLES)]
        self.wall.append(t1 - t0)
        self.times.append((c1 - c0) * self.probe.scale(ref))

    def catch_up(self, share: float) -> None:
        """Time interpreters until `share` of SETUP_SPAWNS are done."""
        while len(self.times) < min(share, 1.0) * SETUP_SPAWNS:
            self._spawn()

    def median(self) -> float:
        self.catch_up(1.0)
        print(f"setup: {len(self.wall)} interpreters, wall seconds median "
              f"{statistics.median(self.wall):.4f}")
        return statistics.median(self.times)


def end_to_end(tally: Tally, probe: SpeedProbe) -> dict[str, float]:
    pass_s, stmt_s = tally.times(probe)
    per_stmt = [statistics.median(v) for v in stmt_s.values()]
    return {
        "corpus_s": statistics.median(pass_s),
        "verdict_s.geomean": math.exp(statistics.fmean(math.log(t) for t in per_stmt)),
        "verdict_s.max": max(per_stmt),
        "decided_frac": tally.decided / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


E2E_UNITS = {
    "corpus_s": "s",
    "verdict_s.geomean": "s",
    "verdict_s.max": "s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment(workload: str, seed: int, fix: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cni_prover").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "fix": fix,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Driver.


@dataclass
class TracedPass:
    result: PassResult
    spans: list[Span]
    metrics: dict[str, float]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    modules = import_program()
    cli_dsl, _, _, _, prover = modules
    fix, stmts = load_workload(load_manifest(), workload)
    rng = random.Random(f"{workload}:{seed}")

    def order():
        return rng.sample(stmts, len(stmts))

    untraced, traced = Tally(), Tally()
    tracer = Tracer(cli_dsl, prover)
    fastest: TracedPass | None = None
    counts_differ = False
    rounds: list[float] = []
    probe = None if trace else SpeedProbe()
    setup = None if trace else SetupTimer(probe)
    start = time.perf_counter()
    # Rounds (a pass, or an untraced and a traced pass) repeat while the
    # next one is expected to end within `seconds`; there is always one.
    while True:
        t_round = time.perf_counter()
        if probe is None:
            untraced.add(run_pass(cli_dsl, order(), fix))
        else:
            with probe:
                untraced.add(run_pass(cli_dsl, order(), fix))
        if trace:
            with tracer:
                result = run_pass(cli_dsl, order(), fix, tracer)
            traced.add(result)
            spans = tracer.take()
            current = TracedPass(result, spans, layer_metrics(spans))
            if fastest is not None:
                counts_differ |= _counts(current.metrics) != _counts(fastest.metrics)
            if fastest is None or result.seconds < fastest.result.seconds:
                fastest = current
        rounds.append(time.perf_counter() - t_round)
        if setup is not None:
            setup.catch_up((time.perf_counter() - start) / seconds if seconds else 1.0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    failed = untraced.failed + traced.failed
    for name, problem in sorted({**traced.problems, **untraced.problems}.items()):
        print(f"FAILED {workload} {name}: {problem}")
    secs = untraced.times()[0]
    print(f"{workload} seed {seed}: {len(secs)} untraced passes, pass wall seconds "
          f"min {min(secs):.4f} median {statistics.median(secs):.4f} max {max(secs):.4f}")

    if not trace:
        ref = probe.seconds
        print(f"speed probe: {len(ref)} reference samples, seconds min {min(ref):.5f} "
              f"median {statistics.median(ref):.5f} max {max(ref):.5f} "
              f"(nominal {REF_NOMINAL_S})")
        metrics = end_to_end(untraced, probe)
        metrics["setup_s"] = setup.median()
        units = E2E_UNITS
    else:
        if counts_differ:
            failed += 1
            print(f"FAILED {workload}: per-layer counts differ between traced passes")
        warm, warm_rows = warmup_probe(modules, stmts, fix)
        metrics = {k: {**fastest.metrics, **warm}[k] for k in LAYER_METRICS}
        units = LAYER_METRICS
        write_trace(workload, seed, fix, untraced, traced, fastest, metrics, warm_rows)

    return {
        "correct": failed == 0,
        "attempted": untraced.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if LAYER_METRICS[k] != "s"}


def _layer_self(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + s.self_s
    return out


def write_trace(workload, seed, fix, untraced, traced, fastest, metrics, warm_rows) -> None:
    """Spans of the fastest traced pass, self time per layer, one row per
    statement and one per workload, and the tracing overhead."""
    u_corpus, u_times = untraced.fastest()
    t_corpus, t_times = fastest.result.seconds, traced.fastest()[1]
    warm = {r["statement"]: r for r in warm_rows}
    rows = []
    for stmt, _, got in sorted(fastest.result.rows, key=lambda row: row[0].name):
        try:
            doc = json.loads(got.stdout)
            verdict, reason = doc["verdict"], doc["reason"]
        except (ValueError, KeyError, TypeError):
            verdict = reason = None
        mine = [s for s in fastest.spans if s.statement == stmt.name]
        rows.append({
            "statement": stmt.name,
            "exit": got.exit,
            "verdict": verdict,
            "reason": reason,
            "error": got.error,
            "untraced_s": u_times[stmt.name],
            "traced_s": t_times[stmt.name],
            "layer_self_s": _layer_self(mine),
            "metrics": layer_metrics(mine),
            "warmup": warm.get(stmt.name),
        })
    report = {
        "environment": environment(workload, seed, fix),
        "workload": {
            "untraced_passes": len(untraced.passes),
            "traced_passes": len(traced.passes),
            "corpus_s_untraced": u_corpus,
            "corpus_s_traced": t_corpus,
            "trace_overhead_s": t_corpus - u_corpus,
            "layer_self_s": _layer_self(fastest.spans),
            "metrics": metrics,
        },
        "statements": rows,
        "spans": [s.row() for s in fastest.spans],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"trace written to {path.relative_to(ROOT)}")
    print(f"corpus_s untraced {u_corpus:.4f} traced {t_corpus:.4f} "
          f"overhead {t_corpus - u_corpus:+.4f} s")
    for layer, sec in sorted(report["workload"]["layer_self_s"].items()):
        print(f"  self {layer:<16} {sec:10.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
