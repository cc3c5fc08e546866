"""Acceptance gate: every criterion below must pass at its stated tolerance.

Each test prints one PASS line (visible with -v / -s); a failing criterion
fails its test with the usual pytest diagnostics.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from netupdate import (
    DelayTrace,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    build_pert_counts,
    build_pert_timed_counts,
    compare_timed_untimed,
    knob_schedule,
    leaf_spine,
    load_topology,
    longest_path,
    measure_inconsistency,
    run_flows,
    run_timed,
    run_untimed,
    simultaneous_schedule,
    tail_ratio,
    timed_worst_duration,
    untimed_worst_duration,
    worst_case_schedule,
)
from netupdate.cli import main as cli_main
from netupdate.topology import (
    label_change_update,
    path_link_bound_ns,
    policy_initial_state,
    policy_update,
)

from conftest import DC_NS, DN_NS, DELTA_NS, DSCHED_NS, MS, line_flow_setup

REPO = Path(__file__).resolve().parents[1]

TABLE_PARAMS = SystemParameters(d_c=DC_NS, d_n=DN_NS, delta_msg=DELTA_NS,
                                delta_sched=DSCHED_NS)

FLOW_PATHS = {
    "netrail": {"f1": ["NYC", "CHI", "DEN", "LAX"], "f2": ["DCA", "ATL", "DFW"],
                "f3": ["ATL", "CHI"], "f4": ["CHI", "ATL", "DFW"],
                "f5": ["NYC", "DCA", "ATL"]},
    "sprint": {"f1": ["SEA", "SAC", "ANA"], "f2": ["NYC", "DC", "ATL"],
               "f3": ["CHI", "KC", "FTW"], "f4": ["SAC", "KC", "CHI"],
               "f5": ["ORL", "ATL", "DC"]},
    "compuserve": {"f1": ["CHI", "COL", "CLE", "PIT", "NYC"],
                   "f2": ["STL", "IND", "COL"], "f3": ["DET", "CLE", "PIT"],
                   "f4": ["CIN", "IND", "CHI"], "f5": ["NYC", "PIT", "DC"]},
}


def random_params(rng):
    return SystemParameters(d_c=rng.randint(0, 10_000_000),
                            d_n=rng.randint(0, 10_000_000),
                            delta_msg=rng.randint(0, 10_000_000),
                            delta_sched=rng.randint(0, 10_000_000))


def test_criterion_1_formula_oracle_equivalence():
    """Closed forms (single-phase, k-phase, gc tail, two-phase+gc, timed)
    equal PERT longest paths exactly on 1,000 random procedures in < 10 s."""
    rng = random.Random(20150617)
    started = time.monotonic()
    for _ in range(1000):
        k = rng.randint(1, 5)
        counts = [rng.randint(1, 10) for _ in range(k)]
        p = random_params(rng)

        assert (untimed_worst_duration([counts[0]], p)
                == longest_path(build_pert_counts([counts[0]], p)).worst_case)
        assert (untimed_worst_duration(counts, p)
                == longest_path(build_pert_counts(counts, p)).worst_case)
        ng = rng.randint(1, 10)
        assert (untimed_worst_duration([1, ng], p, {2})
                == longest_path(build_pert_counts([1, ng], p, gc_phases={2})).worst_case)
        n1, n2, ng1 = (rng.randint(1, 10) for _ in range(3))
        assert (untimed_worst_duration([n1, n2, ng1], p, {3})
                == longest_path(build_pert_counts([n1, n2, ng1], p,
                                                  gc_phases={3})).worst_case)
        assert (timed_worst_duration(counts, p)
                == longest_path(build_pert_timed_counts(counts, p)).worst_case)
        assert (timed_worst_duration([n1, n2, ng1], p, {3})
                == longest_path(build_pert_timed_counts([n1, n2, ng1], p,
                                                        gc_phases={3})).worst_case)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: 1000 procedures, formulas == PERT exactly "
          f"({elapsed:.1f}s)")


def test_criterion_2_timed_dominance():
    """delta_sched < d_c implies the timed variant wins, 1,000 procedures,
    zero counterexamples."""
    from test_planner import synth_proc

    rng = random.Random(99)
    for _ in range(1000):
        k = rng.randint(1, 5)
        counts = [rng.randint(1, 10) for _ in range(k)]
        gc = {j for j in range(2, k + 1) if rng.random() < 0.4}
        d_c = rng.randint(1, 10_000_000)
        p = SystemParameters(d_c=d_c, d_n=rng.randint(0, 10_000_000),
                             delta_msg=rng.randint(0, 10_000_000),
                             delta_sched=rng.randint(0, d_c - 1))
        out = compare_timed_untimed(synth_proc(counts, gc), p, gc)
        assert out.timed_wins, (counts, gc, p)
    print("ACCEPTANCE 2 PASS: timed wins in 1000/1000 procedures with "
          "delta_sched < d_c")


def test_criterion_3_simulation_bound_compliance():
    """500 seeds per mode on leaf-spine N=12 with the testbed parameters:
    every simulated duration <= the closed form; pinned runs hit it exactly."""
    net = leaf_spine(12)
    proc = policy_update(net)
    init = policy_initial_state(net)
    untimed_worst = untimed_worst_duration([12, 8, 12], TABLE_PARAMS, {3})
    assert untimed_worst == 167_305_000
    timed_worst = timed_worst_duration([12, 8, 12], TABLE_PARAMS, {3})
    assert timed_worst == 4_153_000
    sched = worst_case_schedule(proc, 1_000 * MS, TABLE_PARAMS)
    tproc = TimedUpdateProcedure(proc, sched)

    for seed in range(500):
        run = run_untimed(net, proc, TABLE_PARAMS, seed=seed, initial_state=init)
        assert run.update_duration_ns <= untimed_worst, f"untimed seed {seed}"
        trun = run_timed(net, tproc, TABLE_PARAMS, seed=seed, initial_state=init)
        assert trun.update_duration_ns <= timed_worst, f"timed seed {seed}"

    pinned_u = run_untimed(net, proc, TABLE_PARAMS, seed=0, initial_state=init,
                           pin_worst_case=True)
    assert pinned_u.update_duration_ns == untimed_worst
    pinned_t = run_timed(net, tproc, TABLE_PARAMS, seed=0, initial_state=init,
                         pin_worst_case=True)
    assert pinned_t.update_duration_ns == timed_worst
    print("ACCEPTANCE 3 PASS: 500+500 runs within bounds; pinned runs equal "
          "the closed forms exactly")


def test_criterion_4_consistency_theorem():
    """Worst-case-schedule timed runs: zero inconsistent packets for every
    flow across 200 seeds, constant and truncated-exponential link delays."""
    topo_path = REPO / "topologies" / "netrail.json"
    total_checked = 0
    for mode in ("constant", "exponential"):
        net = load_topology(topo_path, delay_mode=mode)
        pairs = [(TestFlow(fid, path[0], 0, 500.0), path)
                 for fid, path in sorted(FLOW_PATHS["netrail"].items())]
        initial, proc = label_change_update(net, pairs)
        d_n = max(path_link_bound_ns(net, path) for _, path in pairs)
        params = SystemParameters(d_c=DC_NS, d_n=d_n, delta_msg=DELTA_NS,
                                  delta_sched=DSCHED_NS)
        sched = worst_case_schedule(proc, 2_000 * MS, params)
        tproc = TimedUpdateProcedure(proc, sched)
        for seed in range(200):
            run = run_timed(net, tproc, params, seed=seed, initial_state=initial)
            assert not run.faults
            run_flows(net, run, [f for f, _ in pairs])
            for flow, _ in pairs:
                rep = measure_inconsistency(run, flow)
                assert rep.n_inconsistent == 0, (mode, seed, flow.flow_id)
                total_checked += 1
    print(f"ACCEPTANCE 4 PASS: n(f,U)=0 in {total_checked} flow measurements "
          "(200 seeds x 2 delay models x 5 flows)")


def test_criterion_5_simultaneous_inconsistency_equals_path_delay():
    """Simultaneous schedule, zero scheduling error, constant path delay D:
    measured I equals D within one inter-packet interval, R = 5000 pps."""
    for d_ms in (1, 5, 10):
        D = d_ms * MS
        net, flow, path, init, proc = line_flow_setup(D, rate_pps=5000.0)
        params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
        run = run_timed(net, TimedUpdateProcedure(proc, simultaneous_schedule(1_000 * MS)),
                        params, seed=1, initial_state=init)
        run_flows(net, run, [flow])
        rep = measure_inconsistency(run, flow)
        assert abs(rep.inconsistency_ns - D) <= flow.spacing_ns, d_ms
    print("ACCEPTANCE 5 PASS: simultaneous update I == D +/- 1/R for "
          "D in {1, 5, 10} ms at 5000 pps")


def test_criterion_6_knob_reproduction():
    """Knob schedule, zero scheduling error, constant D_n = 10 ms: measured
    I == max(D_n - d, 0) within 1/R on the grid, monotone non-increasing."""
    D = 10 * MS
    params = SystemParameters(d_c=1 * MS, d_n=D, delta_msg=1 * MS, delta_sched=0)
    measured = []
    for d_ms in (0, 2, 4, 6, 8, 10, 12):
        d = d_ms * MS
        net, flow, path, init, proc = line_flow_setup(D, rate_pps=5000.0)
        run = run_timed(net, TimedUpdateProcedure(proc, knob_schedule(1_000 * MS, d, params)),
                        params, seed=1, initial_state=init)
        run_flows(net, run, [flow])
        rep = measure_inconsistency(run, flow)
        assert abs(rep.inconsistency_ns - max(D - d, 0)) <= flow.spacing_ns, d_ms
        measured.append(rep.inconsistency_ns)
    assert all(b <= a for a, b in zip(measured, measured[1:]))
    print("ACCEPTANCE 6 PASS: knob I == max(Dn - d, 0) +/- 1/R on "
          "d in {0..12} ms, monotone non-increasing")


def test_criterion_7_duration_tradeoff_figures():
    """Leaf-spine N sweep: untimed worst case strictly increasing and linear
    in N (R^2 > 0.999), timed constant at d_n + 3 * delta_sched; with the
    scheduling error fixed at 100 ms, the timed/untimed crossover sits exactly
    where the closed-form inequality flips."""
    grid = [6, 12, 24, 36, 48]
    untimed = [untimed_worst_duration([n, 2 * n // 3, n], TABLE_PARAMS, {3})
               for n in grid]
    timed = [timed_worst_duration([n, 2 * n // 3, n], TABLE_PARAMS, {3}) for n in grid]
    assert all(b > a for a, b in zip(untimed, untimed[1:]))
    assert set(timed) == {4_153_000}
    slope, intercept = np.polyfit(grid, untimed, 1)
    fitted = np.polyval([slope, intercept], grid)
    ss_res = float(np.sum((np.array(untimed) - fitted) ** 2))
    ss_tot = float(np.sum((np.array(untimed) - np.mean(untimed)) ** 2))
    r_squared = 1 - ss_res / ss_tot
    assert r_squared > 0.999

    # crossover sweep: d_c varies, scheduling error fixed at 100 ms
    net = leaf_spine(12)
    proc = policy_update(net)
    flips = []
    for dc_ms in (1, 10, 25, 40, 49, 50, 60, 75, 100, 150):
        p = SystemParameters(d_c=dc_ms * MS, d_n=DN_NS, delta_msg=DELTA_NS,
                             delta_sched=100 * MS)
        lhs = p.d_n + 3 * p.delta_sched
        rhs = untimed_worst_duration([12, 8, 12], p, {3})
        out = compare_timed_untimed(proc, p)
        assert out.timed == lhs and out.untimed == rhs
        assert out.timed_wins == (lhs < rhs), dc_ms
        flips.append(out.timed_wins)
    assert flips[0] is False and flips[-1] is True  # the grid straddles the flip
    assert flips == sorted(flips)  # single crossover as d_c grows
    print(f"ACCEPTANCE 7 PASS: untimed linear in N (R^2={r_squared:.6f}), "
          "timed constant 4.153 ms; crossover matches the inequality exactly")


def test_criterion_8_topology_knob_and_tail_effects():
    """On the three shipped topologies: constant-delay knob runs reach I = 0
    exactly at a finite update duration for every flow, while exponential
    delays keep I > 0 at that same duration (50 seeds); nearest-rank tail
    ratios of synthetic exponential traces match analytic quantiles +/- 15%."""
    for name, paths in FLOW_PATHS.items():
        topo_path = REPO / "topologies" / f"{name}.json"
        pairs_of = {}
        for mode in ("constant", "exponential"):
            net = load_topology(topo_path, delay_mode=mode)
            pairs_of[mode] = (net, [(TestFlow(fid, p[0], 0, 5000.0), p)
                                    for fid, p in sorted(paths.items())])

        # the finite duration: the largest constant path delay
        net_c, pairs_c = pairs_of["constant"]
        d_star = max(path_link_bound_ns(net_c, p) for _, p in pairs_c)
        initial, proc = label_change_update(net_c, pairs_c)
        params = SystemParameters(d_c=DC_NS, d_n=d_star, delta_msg=DELTA_NS,
                                  delta_sched=DSCHED_NS)
        sched = knob_schedule(2_000 * MS, d_star, params)
        run = run_timed(net_c, TimedUpdateProcedure(proc, sched), params,
                        seed=0, initial_state=initial)
        run_flows(net_c, run, [f for f, _ in pairs_c])
        for flow, _ in pairs_c:
            assert measure_inconsistency(run, flow).n_inconsistent == 0, (name, flow.flow_id)

        net_e, pairs_e = pairs_of["exponential"]
        # denser probe so the long-tail drops are observed in every seed
        pairs_e = [(TestFlow(f.flow_id, f.ingress_switch, f.ingress_port, 20000.0), p)
                   for f, p in pairs_e]
        initial_e, proc_e = label_change_update(net_e, pairs_e)
        params_e = SystemParameters(
            d_c=DC_NS, d_n=max(path_link_bound_ns(net_e, p) for _, p in pairs_e),
            delta_msg=DELTA_NS, delta_sched=DSCHED_NS)
        sched_e = knob_schedule(2_000 * MS, d_star, params_e)
        tproc_e = TimedUpdateProcedure(proc_e, sched_e)
        spacing = pairs_e[0][0].spacing_ns
        # cover the whole at-risk band: tag flips at T2, packets up to one
        # constant-path-delay earlier can still be en route at gc time
        window = (sched_e.first_time() - d_star - 4 * spacing,
                  sched_e.last_time() + 2 * spacing)
        for seed in range(50):
            run = run_timed(net_e, tproc_e, params_e, seed=seed, initial_state=initial_e)
            run_flows(net_e, run, [f for f, _ in pairs_e], window=window)
            positive = [measure_inconsistency(run, f).n_inconsistent
                        for f, _ in pairs_e]
            assert any(n > 0 for n in positive), (name, seed)

    # substitute for non-reproducible dataset ratios: synthetic traces
    for p in (0.999, 0.9999, 0.99999):
        expect = -math.log(1 - p)
        rng = np.random.default_rng(5)
        samples = tuple(int(x) for x in rng.exponential(1 * MS, 1_000_000))
        assert tail_ratio(DelayTrace(samples), p) == pytest.approx(expect, rel=0.15)
    print("ACCEPTANCE 8 PASS: constant mode reaches I=0 for all flows at d*, "
          "exponential mode stays I>0 there in 50/50 seeds on all three "
          "topologies; synthetic tail ratios within 15% of analytic values")


def test_criterion_9_sweep_determinism(tmp_path):
    """A sweep rerun with identical config and seeds is byte-identical."""
    cfg = str(REPO / "configs" / "netrail_knob.json")
    args = ["sweep", "--config", cfg, "--grid", "0ms,4ms,8ms", "--seeds", "0,1"]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    names = ["sweep.csv", "inconsistency_sweep.csv"]
    for name in names:
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert a and a == b, name
    print("ACCEPTANCE 9 PASS: repeated sweep outputs byte-identical")
