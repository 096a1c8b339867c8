"""Experiment R6 — fault-aware and predictive autoscaling under chaos.

A11 priced elasticity on a *planned* profile: the controllers saw
exact hourly loads and the fleet never actually served anything.  R6
closes the loop.  The window-by-window autoscaling driver of
:mod:`repro.service.autoscaler` deploys each chosen fleet size as a real
:class:`~repro.service.cluster.ServiceCluster` sharing one
:class:`~repro.faults.FaultPlan`, fires the diurnal open-loop workload
at it, and lets the controller see only what operators see: last
window's shed rate, injected-failure rate, retry-storm pressure and
concurrent-down fraction.

Three strategies at one SLO target (shed rate <= 2% per window), each
under three fault regimes:

* **reactive** — the A11 closed-loop policy driven by observed offered
  load; completely fault-blind.
* **fault-aware** — the same load-following core, but it compensates the
  load target for the concurrent-down fraction, boosts on active
  shedding/pressure, and refuses to scale down while fault signals are
  hot (quiet windows instead drain immediately).
* **predictive** — a same-phase diurnal forecast one window ahead with a
  forecast-error guardrail; the best load-follower, but just as
  fault-blind as reactive.

Regimes: fault-free, independent crash/error faults (the R2 chaos
shape), and correlated-zone faults with overload coupling and retry
pressure (the R3 shape).  Findings that must hold:

1. **Fault-aware dominates reactive under correlated chaos** — strictly
   fewer SLO-violation windows at no more server-hours, with no more
   underprovisioned windows.  Scaling *into* a crash trough is the
   failure mode being fixed: reactive reads fault-induced queueing as
   organic load and thrashes, fault-aware holds and compensates.
2. **Reactive is provably fault-blind** — its server-hours are
   byte-identical across all three regimes (it never sees the chaos,
   only the offered schedule, which is fixed).
3. **Predictive wins the healthy economy** — fewest underprovisioned
   windows and fewest server-hours of the non-oracle policies in the
   fault-free regime (the A11 margins, re-measured in the live loop).
4. **Full recovery and exact reconciliation** — the chaos retry budget
   rides out every fault window (zero aborted transfers anywhere), and
   every run's telemetry reconciles exactly with its FaultStats ledger.
5. **Determinism** — running the correlated fault-aware arm twice gives
   byte-identical log digests and fleet trajectories (the cross-process
   variant lives in CI's autoscaler-smoke job).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults import FaultConfig, RetryPolicy, ZoneConfig
from ..service.autoscaler import (
    AutoscalerPolicy,
    AutoscaleRun,
    compare_strategies,
    diurnal_autoscale_workload,
    run_autoscaled_service,
)

from .base import ExperimentResult

#: Two simulated days of one-minute windows; peak 64 ops/window.
N_WINDOWS = 48
WINDOW_SECONDS = 60.0
PEAK_OPS = 64
#: Mean transfer size (bytes): with the autoscale client network this
#: makes a mean store occupy a front-end slot for ~10 s, so in-flight
#: capacity — and therefore the shed rate — responds to fleet size.
MEAN_SIZE = 3.0e6
WORKLOAD_SEED = 0
FAULT_SEED = 3
FRONTEND_CAPACITY = 3
SLO_SHED = 0.02

STRATEGIES = ("reactive", "fault-aware", "predictive")
REGIMES = ("fault-free", "independent", "correlated")

R6_POLICY = AutoscalerPolicy(
    capacity_per_server=4.0,
    headroom=1.15,
    scale_down_cooldown=3,
    min_servers=2,
    max_servers=32,
    boost_factor=1.25,
    down_alert=0.05,
    max_down_compensation=0.5,
)

#: Chaos-riding retry budget: cumulative backoff (~200 s) outlasts the
#: residual crash windows, so every operation eventually completes and
#: the strategies differ in *shedding*, not in who gave up.
R6_RETRY_POLICY = RetryPolicy(
    max_attempts=10,
    base_delay=0.5,
    max_delay=20.0,
    multiplier=2.0,
    request_timeout=240.0,
)


def build_workload():
    """The fixed diurnal open-loop workload every arm replays."""
    return diurnal_autoscale_workload(
        N_WINDOWS,
        window_seconds=WINDOW_SECONDS,
        peak_ops=PEAK_OPS,
        mean_size=MEAN_SIZE,
        seed=WORKLOAD_SEED,
    )


def build_faults(regime: str, horizon: float) -> FaultConfig | None:
    """The fault regime deployed under one arm (None = fault-free)."""
    if regime == "fault-free":
        return None
    if regime == "independent":
        return FaultConfig(
            error_rate=0.005,
            crash_rate=0.6,
            crash_mean_downtime=90.0,
            metadata_outage_rate=1.5,
            metadata_mean_downtime=45.0,
            horizon=horizon,
        )
    if regime == "correlated":
        return FaultConfig(
            error_rate=0.005,
            crash_rate=0.2,
            crash_mean_downtime=60.0,
            metadata_outage_rate=1.5,
            metadata_mean_downtime=45.0,
            horizon=horizon,
            zones=ZoneConfig(
                n_zones=2,
                zone_crash_rate=1.0,
                zone_mean_downtime=300.0,
                overload_factor=0.5,
                overload_recovery=60.0,
                pressure_per_failure=0.5,
                pressure_drain_rate=0.5,
                pressure_shed_scale=8.0,
            ),
        )
    raise ValueError(f"unknown regime {regime!r}")


@dataclass(frozen=True)
class ArmOutcome:
    """One (strategy, regime) run of the chaos-coupled loop."""

    strategy: str
    regime: str
    server_hours: int
    violation_windows: int
    underprovisioned_windows: int
    aborted: int
    reconciled: bool
    log_digest: str
    trajectory: tuple[int, ...]


def run_arm(workload, strategy: str, regime: str) -> tuple[ArmOutcome, AutoscaleRun]:
    """Run one strategy under one fault regime on the shared workload."""
    run = run_autoscaled_service(
        workload,
        R6_POLICY,
        strategy=strategy,
        faults=build_faults(regime, workload.horizon),
        fault_seed=FAULT_SEED,
        frontend_capacity=FRONTEND_CAPACITY,
        retry_policy=R6_RETRY_POLICY,
        slo_shed=SLO_SHED,
    )
    outcome = ArmOutcome(
        strategy=strategy,
        regime=regime,
        server_hours=run.server_hours,
        violation_windows=run.violation_windows,
        underprovisioned_windows=run.underprovisioned_windows,
        aborted=run.aborted,
        reconciled=run.reconciled,
        log_digest=run.log_digest,
        trajectory=run.trajectory(),
    )
    return outcome, run


def run(
    n_users: int | None = None, seed: int = WORKLOAD_SEED
) -> ExperimentResult:
    workload = build_workload()
    arms: dict[tuple[str, str], ArmOutcome] = {}
    for regime in REGIMES:
        for strategy in STRATEGIES:
            arms[(strategy, regime)], _ = run_arm(workload, strategy, regime)
    repeat, _ = run_arm(workload, "fault-aware", "correlated")

    # The A11 margins, re-checked by driving the same controllers over
    # this workload's planned loads with quiet signals (the profile path
    # of provision(); the live loop must not have broken the math).
    planned = compare_strategies(workload.loads, R6_POLICY)

    result = ExperimentResult(
        experiment="R6",
        title="Fault-aware autoscaling: policies vs chaos in the live loop",
    )
    result.add_row(
        f"  workload: {workload.n_windows} x {WINDOW_SECONDS:.0f}s windows, "
        f"peak {max(workload.loads):.0f} ops/window, "
        f"{sum(workload.loads):.0f} ops total; SLO shed <= {SLO_SHED:.0%}; "
        f"fault seed {FAULT_SEED}"
    )
    for regime in REGIMES:
        result.add_row(f"  [{regime}]")
        for strategy in STRATEGIES:
            arm = arms[(strategy, regime)]
            result.add_row(
                f"    {strategy:<11s} server-hours={arm.server_hours:4d} "
                f"violations={arm.violation_windows:2d}/{workload.n_windows} "
                f"underprovisioned={arm.underprovisioned_windows:2d} "
                f"aborted={arm.aborted}"
            )

    re_corr = arms[("reactive", "correlated")]
    fa_corr = arms[("fault-aware", "correlated")]
    re_ind = arms[("reactive", "independent")]
    fa_ind = arms[("fault-aware", "independent")]
    re_free = arms[("reactive", "fault-free")]
    pr_free = arms[("predictive", "fault-free")]

    result.add_check(
        "fault-aware beats reactive violations (correlated)",
        paper=float(re_corr.violation_windows),
        measured=float(fa_corr.violation_windows),
        kind="less",
    )
    result.add_check(
        "fault-aware server-hours <= reactive (correlated)",
        paper=float(re_corr.server_hours) + 0.5,
        measured=float(fa_corr.server_hours),
        kind="less",
    )
    result.add_check(
        "fault-aware underprovisions no more than reactive",
        paper=float(re_corr.underprovisioned_windows) + 0.5,
        measured=float(fa_corr.underprovisioned_windows),
        kind="less",
    )
    result.add_check(
        "fault-aware beats reactive violations (independent)",
        paper=float(re_ind.violation_windows),
        measured=float(fa_ind.violation_windows),
        kind="less",
    )
    result.add_check(
        "reactive is fault-blind (same spend in every regime)",
        paper=1.0,
        measured=float(
            re_free.server_hours
            == re_ind.server_hours
            == re_corr.server_hours
        ),
        tolerance=0.0,
    )
    result.add_check(
        "predictive underprovisions least when healthy",
        paper=float(re_free.underprovisioned_windows),
        measured=float(pr_free.underprovisioned_windows),
        kind="less",
    )
    result.add_check(
        "predictive spends less than reactive when healthy",
        paper=float(re_free.server_hours),
        measured=float(pr_free.server_hours),
        kind="less",
    )
    result.add_check(
        "zero aborted transfers across all nine arms",
        paper=0.0,
        measured=float(sum(a.aborted for a in arms.values())),
        tolerance=0.0,
    )
    result.add_check(
        "telemetry reconciles exactly with FaultStats (all arms)",
        paper=1.0,
        measured=float(all(a.reconciled for a in arms.values())),
        tolerance=0.0,
    )
    result.add_check(
        "double run byte-identical (digest + trajectory)",
        paper=1.0,
        measured=float(
            repeat.log_digest == fa_corr.log_digest
            and repeat.trajectory == fa_corr.trajectory
        ),
        tolerance=0.0,
    )
    result.add_check(
        "profile path: oracle bounds reactive on the planned profile",
        paper=float(planned["reactive"].server_hours) + 0.5,
        measured=float(planned["oracle"].server_hours),
        kind="less",
    )
    result.add_check(
        "profile path: static never underprovisions",
        paper=0.0,
        measured=float(planned["static"].underprovisioned_hours),
        tolerance=0.0,
    )
    result.add_check(
        "fault-aware p50 fleet size (correlated), servers",
        paper=0.0,
        measured=float(sorted(fa_corr.trajectory)[len(fa_corr.trajectory) // 2]),
        kind="info",
    )
    return result


if __name__ == "__main__":
    print(run().render())
