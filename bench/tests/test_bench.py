"""Tests of the benchmark itself: inputs, oracle, arithmetic and tracing.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import workloads as W
from tracing import FUNCTIONS, RATIOS, Span, Tracer, fold, self_times

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# -- generator --------------------------------------------------------------

@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a, b = W.make_inputs(workload, 7), W.make_inputs(workload, 7)
    assert W.fingerprint(a) == W.fingerprint(b)
    assert W.fingerprint(a) != W.fingerprint(W.make_inputs(workload, 8))


def test_inputs_do_not_depend_on_the_process():
    code = ("import sys, hashlib; sys.path.insert(0, {!r}); import workloads as W; "
            "print(hashlib.sha256(W.fingerprint(W.make_inputs('wide-keys', 3))).hexdigest())").format(str(BENCH))
    digests = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed)).stdout.strip()
        for seed in ("1", "2")
    }
    assert digests == {hashlib.sha256(W.fingerprint(W.make_inputs("wide-keys", 3))).hexdigest()}


def test_desk_keys_span_every_class_and_t():
    assert {W.div_class(*k) for k in W.DESK_KEYS} == set(W.CLASSES)
    assert {k[0] for k in W.DESK_KEYS} == set(range(2, 13))
    assert all(W.modulus(k) < 10**5 for k in W.DESK_KEYS)


def test_wide_keys_are_distinct_and_inside_the_contract():
    keys = W.make_inputs("wide-keys", 5).keys
    assert len(set(keys)) == len(keys)
    for t, p, q in keys:
        assert 2 <= t <= 12 and W.is_prime(p) and (q is None or W.is_prime(q))
        assert W.modulus((t, p, q)) < 2**32
    assert {(k[2] is None, W.div_class(*k)) for k in keys} == {
        (prime, cls) for prime in (True, False) for cls in W.CLASSES}


# -- oracle -----------------------------------------------------------------

def test_oracle_reproduces_the_paper_packets():
    assert W.oracle_line(5, 61, W.unity_roots(5, 61), 28) == '{"t":5,"n":61,"c":11,"rank":3}\n'
    assert W.oracle_decode(5, 341, 87, 5) == 51


def corrupt_decode(load):
    """A load_powmap whose decode answers 2*m mod n instead of m."""
    def loader(with_cli):
        mods = load(with_cli)
        good = mods.transform.decode

        def bad(pkt, params, rs):
            return good(pkt, params, rs) * 2 % params.n
        mods.transform.decode = bad
        return mods
    return loader


def test_oracle_rejects_a_corrupted_decode(monkeypatch):
    monkeypatch.setattr(harness, "load_powmap", corrupt_decode(harness.load_powmap))
    result = harness.run_plain(W.make_inputs("desk-decode", 1), 0.2)
    assert not result.correct
    assert any("wrong output" in p for p in result.problems)
    assert any("decode t=5 n=341" in p for p in result.problems)


def test_a_decode_that_raises_on_a_desk_key_fails_the_run(monkeypatch):
    load = harness.load_powmap

    def loader(with_cli):
        mods = load(with_cli)
        good = mods.transform.decode

        def refuses_187(pkt, params, rs):
            if params.n == 187:
                raise mods.errors.NoSolution("refused")
            return good(pkt, params, rs)
        mods.transform.decode = refuses_187
        return mods

    monkeypatch.setattr(harness, "load_powmap", loader)
    result = harness.run_plain(W.make_inputs("desk-decode", 1), 0.2)
    assert not result.correct
    assert any(p.startswith("failed operation") and "NoSolution" in p for p in result.problems)
    assert 0 < result.metrics["ok_ratio"][0] < 1
    traced = harness.run_traced(W.make_inputs("desk-decode", 1), 0.0)
    assert not traced.correct


def test_drive_counts_wrong_outputs_and_errors():
    inputs = W.make_inputs("desk-decode", 2)
    mods = harness.load_powmap(False)
    state = harness.setup_keys(mods, inputs.keys)
    good = harness.build_phases("desk-decode", mods, state)
    items = inputs.items[:50]
    rec = harness.Recorder(good)
    harness.drive(good, items, rec)
    assert (rec.wrong, rec.op.attempted, rec.op.ok) == (0, 50, 50)

    def raises(it, _):
        raise mods.errors.NoSolution("refused")
    broken = [harness.Phase("decode", raises, good[0].check)]
    rec = harness.Recorder(broken)
    harness.drive(broken, items, rec)
    assert (rec.wrong, rec.op.ok, rec.errors["NoSolution"], rec.failed) == (0, 0, 50, 50)


def test_may_refuse_names_the_regimes_where_decode_refuses_today():
    assert all(W.may_refuse(*key) for key in ((5, 101, None), (5, 101, 11), (6, 13, None), (6, 11, None)))
    assert not any(W.may_refuse(*key) for key in W.DESK_KEYS)


def test_wide_keys_refusals_are_allowed_only_where_the_oracle_says():
    inputs = W.make_inputs("wide-keys", 4)
    mods = harness.load_powmap(False)
    state = harness.setup_keys(mods, inputs.keys[:40])
    phases = harness.build_phases("wide-keys", mods, state)
    items = [it for it in inputs.items if it.k < 40]
    refusable = sum(it.refusable for it in items)
    assert 0 < refusable < len(items)
    rec = harness.Recorder(phases)
    harness.drive(phases, items, rec)
    assert (rec.refused, rec.op.ok, rec.failed, rec.wrong) == (refusable, len(items) - refusable, 0, 0)

    # The same refusals count as failures once the oracle no longer allows them.
    strict = [phases[0], dataclasses.replace(phases[1], refusable=False)]
    rec = harness.Recorder(strict)
    harness.drive(strict, items, rec)
    assert (rec.refused, rec.failed, rec.errors["NoSolution"]) == (0, refusable, refusable)


# -- arithmetic -------------------------------------------------------------

def test_percentile_interpolates_between_ranks():
    assert harness.percentile([1, 2, 3, 4], 50) == 2.5
    assert harness.percentile(list(range(101)), 90) == 90
    assert harness.percentile([7], 99) == 7
    assert harness.percentile([], 50) == 0.0


def test_stats_report_medians_over_windows():
    st = harness.Stats()
    for window in ([10, 20, 30], [100, 200, 300, 400], [1, 2, 3]):
        for ns in window:
            st.add(ns, True)
        st.add(5, False)
        st.close_window()
    rate, p50, p90, p99 = st.summary()
    assert [w[1] for w in st.windows] == [20, 250, 2]
    assert (p50, st.attempted, st.ok) == (20, 13, 10)
    assert rate == statistics.median([3 / 65e-9, 4 / 1005e-9, 3 / 11e-9])


def test_stats_with_few_windows_report_the_whole_run():
    st = harness.Stats()
    for window in ([10, 20, 30], [100, 200]):
        for ns in window:
            st.add(ns, True)
        st.close_window()
    st.add(1000, True)
    assert st.summary()[1] == 65
    assert st.basis() == "whole run; 6 verified of 6"


def test_whole_operations_are_recorded_at_the_reference_speed():
    # The host runs at half the reference speed, so operations count half.
    phases = [harness.Phase("op", lambda it, _: sum(range(it)), lambda it, out: True)]
    rec = harness.Recorder(phases, lambda: 2000, 1000)
    harness.drive(phases, [1000] * 50, rec, reference=True)
    raw = rec.phases["op"].ring[:50]
    assert list(rec.op.ring[:50]) == [round(ns / 2) for ns in raw]
    assert rec.host_speed() == 0.5


def test_scale_follows_the_recent_or_every_reference_time():
    for recent, scale in ((harness.REF_RECENT, 1000 / 1000), (None, 1000 / 3000)):
        times = iter([3000] * 4 + [1000] * 3)
        rec = harness.Recorder([], lambda: next(times), 1000, recent)
        for _ in range(7):
            rec.sample_reference()
        assert rec.scale == scale


def synthetic_tree():
    # root [0, 100] has children a [10, 40] and b [30, 60] that overlap, and
    # c [90, 120] that runs past its parent; a has a child d [20, 25].
    return [
        Span(1, 0, 1, "root", 0, 100, 0),
        Span(2, 1, 1, "transform.decode", 10, 40, 0),
        Span(3, 1, 1, "b", 30, 60, 1),
        Span(4, 1, 1, "c", 90, 120, 0),
        Span(5, 2, 1, "modnum.CrtBasis.for_primes", 20, 25, 0),
        Span(6, 1, 1, "modnum.CrtBasis.for_primes", 60, 62, 0),
    ]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    selfs = self_times(synthetic_tree())
    assert selfs == {1: 100 - 50 - 2 - 10, 2: 25, 3: 30, 4: 30, 5: 5, 6: 2}


def test_fold_totals_calls_self_time_errors_and_crt_under_decode():
    totals = {}
    fold(synthetic_tree(), totals)
    fold(synthetic_tree(), totals)
    assert totals["b"] == [2, 60, 2]
    assert totals["modnum.CrtBasis.for_primes"] == [4, 14, 0]
    assert totals["modnum.CrtBasis.for_primes@decode"][0] == 2


def test_tracer_ratios_on_real_decodes():
    mods = harness.load_powmap(False)
    tracer = Tracer()
    tracer.install(mods)
    T, P = mods.transform, mods.protocol
    params, rs = T.make_params(5, 11, 31), mods.roots.root_set(5, 11, 31)
    assert T.decode(P.parse_packet('{"t":5,"n":341,"c":87,"rank":5}'), params, rs) == 51
    with pytest.raises(mods.errors.NoSolution):
        T.decode(T.encode(3, T.make_params(5, 101), mods.roots.root_set(5, 101)),
                 T.make_params(5, 101), mods.roots.root_set(5, 101))
    m = tracer.metrics(rounds=1)
    assert m["transform.decode.calls"] == 2 and m["transform.decode.errors"] == 1
    assert m["transform.decode.error_ratio"] == 0.5
    assert m["modnum.crt_basis_per_decode"] == 0.5
    assert m["roots.scan_yield"] == (5 + 5 + 5 + 5) / (10 + 30 + 100 + 100)
    assert m["protocol.parse_packet.calls"] == 1
    assert set(m) == {f"{f}.{k}" for f in FUNCTIONS for k in ("calls", "self_ms", "errors")} | set(RATIOS)


def test_a_missing_function_is_listed_and_left_out_not_reported_as_zero():
    mods = harness.load_powmap(False)
    del mods.transform.extract_root
    tracer = Tracer()
    tracer.install(mods)
    assert tracer.missing == ["transform.extract_root"]
    m = tracer.metrics(rounds=1)
    assert not any(k.startswith("transform.extract_root.") for k in m)
    assert "transform.decode.calls" in m


# -- tracing does not change outputs ------------------------------------------

def test_traced_outputs_equal_untraced_outputs():
    inputs = W.make_inputs("wide-keys", 4)
    outputs = []
    for traced in (False, True):
        mods = harness.load_powmap(False)
        tracer = Tracer()
        if traced:
            tracer.install(mods)
        state = harness.setup_keys(mods, inputs.keys[:40])
        phases = harness.build_phases("wide-keys", mods, state)
        items = [it for it in inputs.items if it.k < 40]
        out = []
        harness.drive(phases, items, harness.Recorder(phases), tracer=tracer if traced else None, collect=out)
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "NoSolution" in outputs[0]


def test_traced_run_is_correct_and_reports_every_per_layer_metric():
    result = harness.run_traced(W.make_inputs("cli-oneshot", 1), 0.0)
    assert result.correct, result.problems
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result.metrics) == {m["name"] for m in spec["per_layer"]}
    assert result.metrics["cli.main.calls"][0] == len(W.make_inputs("cli-oneshot", 1).items)


def test_plain_run_reports_every_end_to_end_metric():
    result = harness.run_plain(W.make_inputs("desk-encode", 1), 0.3)
    assert result.correct and result.failed == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: u for k, (_, u) in result.metrics.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in result.metrics.values())


def test_cli_launch_matches_in_process_output_and_reports_child_memory():
    mods = harness.load_powmap(True)
    argv = ("encode", "--t", "5", "--p", "61", "--m", "28")
    peaks = []
    out = harness.cli_launcher(peaks)(argv)
    assert out == harness.cli_in_process(mods.cli)(argv) == '{"t":5,"n":61,"c":11,"rank":3}\n'
    assert len(peaks) == 1 and 1000 < peaks[0] < harness.peak_rss_mb() * 1024


# -- command line -------------------------------------------------------------

def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-decode", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
