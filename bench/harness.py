"""Drive powmap through its public functions and measure what comes out.

One caller, one process, closed loop: each operation starts only after the
previous one returned.  Every output is checked against the oracle in
``workloads``; expected values are computed before any timing starts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace

import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("modnum", "roots", "transform", "protocol", "groups", "errors")
# Set-ups per run.  They are spread evenly over the run, between stretches
# of the operation loop, because the host's speed drifts over seconds and
# minutes: set-ups made back to back at the start would all see one spell.
# The count is fixed, not timed, because every fresh import leaves the
# process a little larger.
SETUP_REPEATS = {"wide-keys": 3}
DEFAULT_SETUP_REPEATS = 25
WARMUP_OPS = 2000
RING = 1 << 17
WINDOW_NS = 10**9
WINDOW_MIN_OPS = 20
# A median of fewer windows is no steadier than the whole run, and it would
# leave out the operations after the last window: cli-oneshot makes about 37
# bursts in 25 s, so it closes only one window.
MIN_WINDOWS = 3
WINDOW_SAMPLES = 10_000  # evenly spaced latencies per window, so memory does not grow with speed
# Host speed.  On a shared host the speed of this process drifts by 20-40 %
# over minutes, so a whole run can fall in a slow spell, and no statistic
# taken inside the run removes that.  Timings in the contract are therefore
# scaled by how long a fixed pure-Python task took at about the same moment:
# value * REF_NOMINAL_NS / reference time.  powmap is pure Python too, so
# both slow down together: in 200 s on a two-core VM, the median decode
# time of 25 s stretches ranged from 38 to 51 us, while its ratio to a
# pure-Python loop timed alongside moved by 4 %.  A CLI launch is mostly
# process start-up, which such a task tracks less well, so cli-oneshot is
# scaled by a bare interpreter launch instead (10 % against 3 % there).
# One launch's time jitters by about 10 %, far more than the pure-Python
# task's, so a burst is scaled by the median of every launch timed so far
# in the run: a median of the last few would add that jitter to each burst.
# The nominal times are close to each reference's time on that VM under
# Python 3.11 in a quiet spell, so scaled figures read roughly as that VM's
# us and s.
REF_NOMINAL_NS = 700_000
LAUNCH_NOMINAL_NS = 50_000_000
REF_EVERY_NS = 250_000_000
REF_REPEATS = 3
REF_RECENT = 5  # reference times behind the scale of each operation


class CliFailed(Exception):
    """A CLI launch exited non-zero."""


def load_powmap(with_cli: bool) -> SimpleNamespace:
    """Import powmap from this checkout's src/ afresh, dropping earlier imports.

    A fresh import each time means no module-level cache survives from one
    setup to the next.
    """
    for name in [n for n in sys.modules if n == "powmap" or n.startswith("powmap.")]:
        del sys.modules[name]
    pkg = importlib.import_module("powmap")
    if Path(pkg.__file__).resolve().parent != SRC / "powmap":
        raise RuntimeError(f"imported powmap from {pkg.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"powmap.{name}") for name in MODULES}
    if with_cli:
        mods["cli"] = importlib.import_module("powmap.cli")
    return SimpleNamespace(**mods)


def setup_keys(mods, keys):
    """make_params and root_set for every key, in key order."""
    params = [mods.transform.make_params(*key) for key in keys]
    rsets = [mods.roots.root_set(*key) for key in keys]
    return params, rsets


def timed_setup(inputs):
    """Import powmap afresh and set up every key; return modules, state and seconds."""
    start = perf_counter_ns()
    mods = load_powmap(inputs.workload == "cli-oneshot")
    state = setup_keys(mods, inputs.keys)
    return mods, state, (perf_counter_ns() - start) / 1e9


def reference_task() -> int:
    """Fixed work for the host-speed reference: modular powers and integer arithmetic."""
    x = 1
    for i in range(300):
        x = pow(x * 7 + i, 65537, 4294967291) % 1000003 + i % 7
    return x


def time_reference() -> int:
    """Median time of the reference task over REF_REPEATS runs, in ns."""
    times = []
    for _ in range(REF_REPEATS):
        start = perf_counter_ns()
        reference_task()
        times.append(perf_counter_ns() - start)
    return sorted(times)[REF_REPEATS // 2]


def time_launch() -> int:
    """Time of one bare interpreter launch, in ns: the reference of CLI launches."""
    start = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True)
    return perf_counter_ns() - start


def scaled_setup(inputs):
    """timed_setup, with its seconds scaled by the reference timed on both sides."""
    before = time_reference()
    mods, state, seconds = timed_setup(inputs)
    return mods, state, seconds * 2 * REF_NOMINAL_NS / (before + time_reference())


def golden_failures(mods) -> list[str]:
    """The paper's packets, through powmap and through the oracle."""
    T, P = mods.transform, mods.protocol
    (key, m, line), (dkey, dline, dm) = W.GOLDEN_ENCODE, W.GOLDEN_DECODE
    bad = []
    got = P.serialize_packet(T.encode(m, T.make_params(*key), mods.roots.root_set(*key)))
    if got != line or W.oracle_line(5, 61, W.unity_roots(5, 61), m) != line:
        bad.append(f"encode t=5 p=61 m=28 gave {got!r}, want {line!r}")
    got = T.decode(P.parse_packet(dline), T.make_params(*dkey), mods.roots.root_set(*dkey))
    if got != dm or W.oracle_decode(5, 341, 87, 5) != dm:
        bad.append(f"decode t=5 n=341 c=87 rank=5 gave {got}, want {dm}")
    return bad


# -- operations -------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Phase:
    """One timed step of an operation and the check of its output."""

    name: str
    fn: object  # fn(item, previous_output) -> output
    check: object  # check(item, output) -> bool
    refusable: bool = False  # may fn raise NoSolution for items marked refusable?


def build_phases(workload: str, mods, state, cli_peaks_kb: list[int] | None = None) -> list[Phase]:
    """The operation of a workload, bound to freshly imported (maybe traced) modules.

    CLI commands run in fresh processes when ``cli_peaks_kb`` is given, which
    collects their peak memory, and in this process otherwise.
    """
    T, P = mods.transform, mods.protocol
    params, rsets = state
    encode, decode = T.encode, T.decode
    serialize, parse = P.serialize_packet, P.parse_packet

    def enc(it, _):
        return serialize(encode(it.m, params[it.k], rsets[it.k]))

    def dec(it, line):
        return decode(parse(line or it.line), params[it.k], rsets[it.k])

    def is_m(it, out):
        return out == it.m

    if workload == "desk-decode":
        return [Phase("decode", dec, is_m)]
    if workload == "desk-encode":
        return [Phase("encode", enc, lambda it, out: out == it.line)]
    if workload == "wide-keys":
        return [Phase("encode", enc, lambda it, out: out.startswith(it.prefix)),
                Phase("decode", dec, is_m, refusable=True)]
    if workload == "cli-oneshot":
        launch = cli_in_process(mods.cli) if cli_peaks_kb is None else cli_launcher(cli_peaks_kb)
        return [Phase("cli", lambda burst, _, j=j: launch(burst[j].argv),
                      lambda burst, out, j=j: out == burst[j].stdout) for j in range(W.CLI_BURST)]
    raise ValueError(workload)


def cli_in_process(cli):
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        if code != 0:
            raise CliFailed(f"exit {code}")
        return buf.getvalue()
    return run


# `python -m powmap ARGS`, which then writes its own peak resident memory
# (VmHWM) to stderr as it exits.  The child's ru_maxrss would not do: after
# fork or vfork it starts from the parent's peak, so it would mostly measure
# the benchmark process.
CLI_BOOT = """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as f:
        sys.stderr.write("\\n" + next(line for line in f if line.startswith("VmHWM:")))
atexit.register(peak)
sys.argv[0] = "powmap"
runpy.run_module("powmap", run_name="__main__", alter_sys=True)
"""


def cli_launcher(peaks_kb: list[int]):
    """Launch one CLI process per call; append each child's peak memory in kB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(argv):
        proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        peaks_kb.append(int(proc.stderr.rsplit("VmHWM:", 1)[1].split()[0]))
        return proc.stdout
    return run


def cli_expected(inputs, mods) -> tuple[W.Inputs, list[str]]:
    """Fill in each launch's expected stdout from an in-process run.

    Encode and decode output, and the packet a session sends, must also
    match the oracle; mismatches are returned as problems.  The items come
    back grouped into bursts of ``CLI_BURST`` launches, one per operation.
    """
    run = cli_in_process(mods.cli)
    items, bad = [], []
    for it in inputs.items:
        out = run(it.argv)
        cmd, json_mode = it.argv[0], "--format" in it.argv
        if cmd == "encode":
            ok = out == it.line
        elif cmd == "decode":
            ok = out == ('{"decoded":%d}\n' % it.m if json_mode else f"{it.m}\n")
        elif cmd == "session":
            packet = it.line.strip()
            ok = (packet + "\n" in out if json_mode else f"alice sends = {packet}\n" in out) and (
                '"match":true' in out if json_mode else "match = true\n" in out)
        else:
            ok = bool(out)
        if not ok:
            bad.append(f"cli {' '.join(it.argv)} printed {out!r}")
        items.append(dataclasses.replace(it, stdout=out))
    bursts = tuple(tuple(items[i:i + W.CLI_BURST]) for i in range(0, len(items), W.CLI_BURST))
    return dataclasses.replace(inputs, items=bursts), bad


# -- measurement ------------------------------------------------------------

class Stats:
    """Attempts, successes and busy time of one step; latencies of successes.

    Latencies go to a fixed-size ring, so memory does not grow with speed.
    ``close_window`` summarises the successes since the previous window.
    """

    def __init__(self):
        self.ring = array("q", bytes(8 * RING))
        self.attempted = self.ok = self.busy_ns = 0
        self.windows: list[tuple[float, float, float, float]] = []  # rate/s, p50, p90, p99 in ns
        self.mark = (0, 0)

    def add(self, ns: int, ok: bool) -> None:
        self.attempted += 1
        self.busy_ns += ns
        if ok:
            self.ring[self.ok % RING] = ns
            self.ok += 1

    def close_window(self) -> None:
        ok, busy = self.ok - self.mark[0], self.busy_ns - self.mark[1]
        recent = self._sample(self.mark[0])
        if recent:
            self.windows.append((ok / (busy / 1e9),
                                 *(percentile(recent, q) for q in (50, 90, 99))))
        self.mark = (self.ok, self.busy_ns)

    def _sample(self, since: int) -> list[int]:
        """Sorted latencies of successes since the ``since``-th, at most WINDOW_SAMPLES."""
        first = max(since, self.ok - RING)
        step = max(1, (self.ok - first) // WINDOW_SAMPLES)
        return sorted(self.ring[i % RING] for i in range(first, self.ok, step))

    def summary(self) -> tuple[float, float, float, float]:
        """Median successes per busy second, p50, p90 and p99 (ns) over windows.

        With fewer than MIN_WINDOWS windows, the same figures over the whole loop.
        """
        if len(self.windows) >= MIN_WINDOWS:
            return tuple(statistics.median(w[i] for w in self.windows) for i in range(4))
        lat = self._sample(0)
        rate = self.ok / (self.busy_ns / 1e9) if self.busy_ns else 0.0
        return (rate, *(percentile(lat, q) for q in (50, 90, 99)))

    def basis(self) -> str:
        """What ``summary`` is taken over, with the sample count."""
        over = (f"median of {len(self.windows)} windows" if len(self.windows) >= MIN_WINDOWS
                else "whole run")
        return f"{over}; {self.ok} verified of {self.attempted}"


class Recorder:
    """Statistics of whole operations and of each step, over windows.

    An operation either round-trips (``op.ok``), is refused as the oracle
    allows (``refused``: NoSolution where ``workloads.may_refuse`` says
    decode refuses today), or fails: a wrong output or any other error.

    A window lasts at least one wall-clock second and 20 verified
    operations.  The speed of a shared host drifts by tens of percent from
    second to second, so every figure is a median over windows: a slow or
    fast spell shorter than half the run does not move it.
    """

    def __init__(self, phases, reference=time_reference, nominal_ns=REF_NOMINAL_NS, recent=REF_RECENT):
        self.reference, self.nominal_ns, self.recent = reference, nominal_ns, recent
        self.op = Stats()
        self.phases = {ph.name: Stats() for ph in phases}
        self.wrong = self.refused = 0
        self.errors: Counter[str] = Counter()
        self.first_wrong = self.first_error = ""
        self.window_end = 0  # when the open window may close, in perf_counter_ns
        self.ref_due = 0  # when drive next times the reference task, if it does
        self.refs: list[int] = []  # every reference time, ns
        self.scale = 1.0  # nominal over the median of the last `recent` (None: all) reference times

    def sample_reference(self) -> None:
        self.refs.append(self.reference())
        recent = self.refs if self.recent is None else self.refs[-self.recent:]
        self.scale = self.nominal_ns / statistics.median(recent)
        self.ref_due = perf_counter_ns() + REF_EVERY_NS

    def host_speed(self) -> float:
        """Reference speed over this host's: above 1 when the host ran faster."""
        return self.nominal_ns / statistics.median(self.refs) if self.refs else 1.0

    @property
    def failed(self) -> int:
        return self.op.attempted - self.op.ok - self.refused

    def window_full(self) -> bool:
        return self.op.ok - self.op.mark[0] >= WINDOW_MIN_OPS

    def close_window(self) -> None:
        for st in (self.op, *self.phases.values()):
            st.close_window()


def percentile(sorted_values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def drive(phases, items, rec: Recorder, *, until_ns=None, first=0, tracer=None, collect=None,
          reference=False) -> int:
    """Run operations in a closed loop, from item ``first``; return where it stopped.

    With ``until_ns`` the stream is cycled until that time; without it each
    item runs once.  Outputs (or error names) go to ``collect`` if given.
    With ``reference`` the reference task is timed between operations every
    REF_EVERY_NS, and whole operations are recorded at the reference speed.
    """
    fns = [ph.fn for ph in phases]
    stats = [rec.phases[ph.name] for ph in phases]
    n, i, now = len(items), first, 0
    if not rec.window_end:
        rec.window_end = perf_counter_ns() + WINDOW_NS
    while True:
        if reference and now >= rec.ref_due:
            rec.sample_reference()
        item = items[i % n]
        i += 1
        outs, err, exc, x = [], None, None, None
        if tracer:
            sid, start = tracer.open()
        stamps = [perf_counter_ns()]
        try:
            for fn in fns:
                x = fn(item, x)
                stamps.append(perf_counter_ns())
                outs.append(x)
        except Exception as e:  # a failed operation is counted, not fatal
            stamps.append(perf_counter_ns())
            exc, err = e, type(e).__name__
        if tracer:
            tracer.close(sid, "bench.op", start, int(err is not None))
        oks = [ph.check(item, out) for ph, out in zip(phases, outs)]
        if not all(oks):
            rec.wrong += 1
            rec.first_wrong = rec.first_wrong or f"{item} gave {outs}"
        if err:
            if err == "NoSolution" and phases[len(outs)].refusable and item.refusable and all(oks):
                rec.refused += 1
            else:
                rec.errors[err] += 1
                rec.first_error = rec.first_error or f"{item} raised {err}: {exc}"
        for k, st in enumerate(stats[: len(stamps) - 1]):
            st.add(stamps[k + 1] - stamps[k], k < len(oks) and oks[k])
        rec.op.add(round((stamps[-1] - stamps[0]) * rec.scale), err is None and all(oks))
        if collect is not None:
            collect.append(err or tuple(outs))
        now = stamps[-1]
        if now >= rec.window_end and rec.window_full():
            rec.close_window()
            rec.window_end = now + WINDOW_NS
        if until_ns is None:
            if i >= first + n:
                return i
        elif now >= until_ns:
            return i


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def stamp() -> dict:
    """Commit, Python version, platform and CPU count of this run."""
    return {"commit": read_commit(), "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def read_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout.

    The ceiling keeps git from reporting a repository that merely encloses
    the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- runs -------------------------------------------------------------------

@dataclasses.dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # contract metrics: name -> (value, unit)
    report: list  # (name, value, unit, note) for the human-readable report
    problems: list
    tracer: Tracer | None = None


def run_plain(inputs, seconds: float) -> Result:
    """The untraced run: one set-up, then the closed loop for `seconds`.

    The loop is cut into equal stretches with a timed set-up before each
    but the first, so set-ups sample the whole run.
    """
    workload = inputs.workload
    repeats = SETUP_REPEATS.get(workload, DEFAULT_SETUP_REPEATS)
    mods, state, first_setup = scaled_setup(inputs)
    setups = [first_setup]
    problems = golden_failures(mods)
    cli_peaks_kb = [] if workload == "cli-oneshot" else None
    if cli_peaks_kb is not None:
        inputs, bad = cli_expected(inputs, mods)
        problems += bad
    phases = build_phases(workload, mods, state, cli_peaks_kb)
    warm = Recorder(phases)
    drive(phases, inputs.items[: 1 if workload == "cli-oneshot" else WARMUP_OPS], warm)
    rec = Recorder(phases) if cli_peaks_kb is None else Recorder(phases, time_launch, LAUNCH_NOMINAL_NS, None)
    start, span, i = perf_counter_ns(), int(seconds * 1e9), 0
    for k in range(repeats):
        if k:
            setups.append(scaled_setup(inputs)[2])
        # The harness's own objects stay alive all run; keep the collector off them.
        gc.collect()
        gc.freeze()
        i = drive(phases, inputs.items, rec, until_ns=start + span * (k + 1) // repeats, first=i,
                  reference=True)
    gc.unfreeze()
    if warm.wrong or rec.wrong:
        problems.append(f"wrong output: {warm.first_wrong or rec.first_wrong}")
    if warm.errors or rec.errors:
        problems.append(f"failed operation: {warm.first_error or rec.first_error}")

    _, p50, p90, _ = rec.op.summary()
    setup_s = statistics.median(setups)
    ok_ratio = rec.op.ok / rec.op.attempted
    if cli_peaks_kb is None:
        rss, rss_note = peak_rss_mb(), "this process"
    else:
        rss, rss_note = max(cli_peaks_kb) / 1024, f"largest of {len(cli_peaks_kb)} CLI processes"
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_us": (p50 / 1e3, "us"),
        "op_p90_us": (p90 / 1e3, "us"),
        "ok_ratio": (ok_ratio, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    windows = rec.op.basis()
    report = [("setup_s", setup_s, "s", f"median of {len(setups)}, at reference speed"),
              ("op_p50_us", p50 / 1e3, "us", f"whole operation at reference speed, {windows}"),
              ("op_p90_us", p90 / 1e3, "us", f"whole operation at reference speed, {windows}"),
              ("host_speed", rec.host_speed(), "ratio", "reference speed over this host's; figures below are raw")]
    for name, st in rec.phases.items():
        rate, s50, s90, s99 = st.summary()
        note = st.basis()
        if name == "cli":
            report.append(("cli_p50_ms", s50 / 1e6, "ms", note))
            report.append(("cli_p90_ms", s90 / 1e6, "ms", note))
            continue
        report.append((f"{name}_{'pps' if name == 'decode' else 'mps'}", rate, "1/s", note))
        report.append((f"{name}_p50_us", s50 / 1e3, "us", note))
        report.append((f"{name}_p99_us", s99 / 1e3, "us", note))
    failed = rec.failed
    errors = ", ".join(f"{k}={v}" for k, v in sorted(rec.errors.items()))
    report.append(("fail_ratio", 1 - ok_ratio, "ratio",
                   f"{rec.op.attempted - rec.op.ok} of {rec.op.attempted} did not round-trip: "
                   f"{rec.refused} refused as the oracle allows, {failed} failed"
                   + (f"; {errors}" if errors else "")))
    report.append(("ok_ratio", ok_ratio, "ratio", f"{rec.op.ok} round-tripped of {rec.op.attempted}"))
    report.append(("peak_rss_mb", rss, "MB", rss_note))
    return Result(not problems, rec.op.attempted, failed, metrics, report, problems)


def run_traced(inputs, seconds: float) -> Result:
    """Rounds of (untraced, traced) setup plus one pass over the stream.

    Per-layer metrics are per traced round; the overhead compares the two
    halves of every round, and their outputs must be equal.
    """
    workload = inputs.workload
    with_cli = workload == "cli-oneshot"
    mods = load_powmap(with_cli)
    problems = golden_failures(mods)
    if with_cli:
        inputs, bad = cli_expected(inputs, mods)
        problems += bad
    tracer = Tracer()
    attempted = failed = rounds = 0
    plain_ns = traced_ns = 0
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while rounds == 0 or perf_counter_ns() < deadline:
        outputs = []
        # Alternate which half goes first, so drift in machine speed cancels.
        for traced in (False, True) if rounds % 2 == 0 else (True, False):
            start = perf_counter_ns()
            mods = load_powmap(with_cli)
            if traced:
                tracer.install(mods)
                sid, setup_start = tracer.open()
            state = setup_keys(mods, inputs.keys)
            if traced:
                tracer.close(sid, "bench.setup", setup_start, 0)
            phases = build_phases(workload, mods, state)
            rec, out = Recorder(phases), []
            drive(phases, inputs.items, rec, tracer=tracer if traced else None, collect=out)
            elapsed = perf_counter_ns() - start
            if traced:
                traced_ns += elapsed
            else:
                plain_ns += elapsed
            outputs.append(out)
            attempted += rec.op.attempted
            failed += rec.failed
            if rec.wrong:
                problems.append(f"wrong output: {rec.first_wrong}")
            if rec.errors:
                problems.append(f"failed operation: {rec.first_error}")
        if outputs[0] != outputs[1]:
            problems.append("traced outputs differ from untraced outputs")
        rounds += 1
    metrics = {name: (value, unit_of(name)) for name, value in tracer.metrics(rounds).items()}
    metrics["trace.overhead"] = (traced_ns / plain_ns - 1, "ratio")
    report = [("rounds", rounds, "count", "untraced + traced, setup and one pass each"),
              ("trace.overhead", traced_ns / plain_ns - 1, "ratio", "traced / untraced time - 1")]
    if tracer.missing:
        report.append(("missing", len(tracer.missing), "count",
                       "not in powmap, so not reported: " + ", ".join(tracer.missing)))
    problems = list(dict.fromkeys(problems))
    return Result(not problems, attempted, failed, metrics, report, problems, tracer)


def unit_of(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith((".calls", ".errors")):
        return "count"
    return "ratio"
