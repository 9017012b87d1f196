"""Extension: do the paper's conclusions generalize beyond its six kernels?

Twenty deterministic synthetic workloads (random phase structures,
instruction mixes, and transfer sizes in the same vocabulary as Table III)
run through the Figure 5 and Figure 7 experiments; every paper conclusion
is re-checked on each.

A second sweep stresses the robustness extension: each case-study system
runs the paper's kernels under seeded communication faults at increasing
rates, producing a degradation curve per system and checking that the
zero-fault sweep is byte-identical to the unfaulted simulator path.
"""

from repro.config.presets import case_study
from repro.exec import ParallelRunner, RetryPolicy, SimJob
from repro.faults import FaultPlan
from repro.kernels.registry import all_kernels
from repro.kernels.synthetic import SyntheticKernel
from repro.perf.sweep import SweepPoint
from repro.sim.fast import FastSimulator
from repro.taxonomy import AddressSpaceKind, CommMechanism

NUM_WORKLOADS = 20
SYSTEM_ORDER = ("CPU+GPU", "LRB", "GMAC", "Fusion", "IDEAL-HETERO")
FAULT_RATES = (0.0, 0.05, 0.1, 0.2)


def regenerate():
    sim = FastSimulator()
    results = {}
    for seed in range(NUM_WORKLOADS):
        kernel = SyntheticKernel(seed)
        trace = kernel.trace()
        per_system = {
            name: sim.run(trace, SweepPoint(case=case_study(name))) for name in SYSTEM_ORDER
        }
        per_space = {
            space: sim.run(
                trace, SweepPoint(mechanism=CommMechanism.IDEAL, address_space=space)
            )
            for space in AddressSpaceKind
        }
        results[kernel.name] = (per_system, per_space)
    return results


def test_conclusions_hold_on_synthetic_workloads(benchmark, write_artifact):
    results = benchmark(regenerate)
    lines = []
    for name, (per_system, per_space) in results.items():
        # Figure 5/6 orderings.
        assert (
            per_system["CPU+GPU"].total_seconds
            >= per_system["Fusion"].total_seconds * 0.999
        ), name
        assert (
            per_system["Fusion"].total_seconds
            >= per_system["IDEAL-HETERO"].total_seconds * 0.999
        ), name
        assert (
            per_system["GMAC"].breakdown.communication
            <= per_system["CPU+GPU"].breakdown.communication + 1e-15
        ), name
        assert per_system["IDEAL-HETERO"].breakdown.communication == 0.0, name
        # Figure 7 flatness.
        totals = [r.total_seconds for r in per_space.values()]
        spread = (max(totals) - min(totals)) / min(totals)
        assert spread < 0.02, name
        comm_frac = per_system["CPU+GPU"].breakdown.communication_fraction
        lines.append(f"{name}: comm {comm_frac:.1%}, fig7 spread {spread:.3%}")
    write_artifact("extension_robustness", "\n".join(lines))
    assert len(results) == NUM_WORKLOADS


def _plan_for(rate):
    """The sweep's fault plan at ``rate`` (None is the unfaulted path)."""
    if rate == 0.0:
        return None
    return FaultPlan.parse(f"seed=0;*:fail={rate:g},degrade={rate:g}")


def fault_sweep():
    """Mean kernel time per (case-study system, fault rate).

    A zero-delay retry policy mirrors the CLI's ``--retries`` flag so runs
    where the channel exhausts its modeled attempts still complete.
    """
    runner = ParallelRunner(
        retry=RetryPolicy(retries=3, base_delay=0.0, max_delay=0.0, jitter=0.0)
    )
    kernels = all_kernels()
    curves = {}
    for name in SYSTEM_ORDER:
        case = case_study(name)
        per_rate = []
        for rate in FAULT_RATES:
            jobs = [
                SimJob(trace=kernel.trace(), case=case, fault_plan=_plan_for(rate))
                for kernel in kernels
            ]
            results = runner.run_jobs(jobs, stage="fault-sweep")
            per_rate.append((rate, results))
        curves[name] = per_rate
    return curves


def test_fault_degradation_curves(benchmark, write_artifact):
    curves = benchmark(fault_sweep)
    zero_plan = FaultPlan.parse("seed=0;*:fail=0,degrade=0")
    runner = ParallelRunner()
    lines = []
    for name, per_rate in curves.items():
        clean = per_rate[0][1]
        mean_clean = sum(r.total_seconds for r in clean) / len(clean)

        # A plan whose rates are all zero must not perturb the simulator:
        # wrapping every channel in an inactive FaultyChannel yields
        # byte-identical timings to the plain, undecorated path.
        zeroed = runner.run_jobs(
            [
                SimJob(trace=kernel.trace(), case=case_study(name), fault_plan=zero_plan)
                for kernel in all_kernels()
            ],
            stage="fault-sweep-zero",
        )
        for plain, faulted in zip(clean, zeroed):
            assert (plain.kernel, plain.system) == (faulted.kernel, faulted.system)
            assert plain.breakdown == faulted.breakdown, name
            assert plain.phases == faulted.phases, name
            assert not faulted.degraded

        cells = []
        for rate, results in per_rate[1:]:
            mean = sum(r.total_seconds for r in results) / len(results)
            # Faults only ever add time (wasted attempts, degraded windows,
            # lost overlap), so every faulted sweep is at least as slow.
            assert mean >= mean_clean * 0.999999, (name, rate)
            cells.append(f"@{rate:g} x{mean / mean_clean:.3f}")
        if case_study(name).comm is not CommMechanism.IDEAL:
            worst = sum(r.total_seconds for r in per_rate[-1][1]) / len(clean)
            assert worst > mean_clean, name
        lines.append(f"{name}: base {mean_clean * 1e6:.1f} us; " + "; ".join(cells))
    write_artifact("extension_fault_degradation", "\n".join(lines))
    assert set(curves) == set(SYSTEM_ORDER)
