"""Metric definitions, shared by the runner, BENCHMARK.json and the tests.

Every workload has a light and a heavy operation, and prints the same
end-to-end metrics for them: `<kind>_best_s.gmean` and `.p90` are the
geometric mean and the 90th percentile, across the workload's inputs, of
each input's best latency over the run's repetitions (see `summarize`),
scaled with `setup_s` to the machine's nominal speed (see speed.py).

  workload      light operation              heavy operation
  design-sweep  one `delaysync design`       one `delaysync verify`
  sim-scale     one simulate() at N = 10     one simulate() at N = 400
  cli-export    one `delaysync simulate`     one `delaysync demo`

The runner also prints each workload's metrics under the names users know
them by (ALIASES), together with the error rate and the sample counts.
"""

import numpy as np

#: (name, unit, better, bound).  The timing bounds are the widest allowed:
#: even scaled to nominal speed, ten runs on a shared 2-vCPU machine spread
#: by up to a fifth between their quartiles.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("light_best_s.gmean", "s", "lower", 0.25),
    ("light_best_s.p90", "s", "lower", 0.25),
    ("heavy_best_s.gmean", "s", "lower", 0.25),
    ("heavy_best_s.p90", "s", "lower", 0.25),
]

#: workload -> [(alias, unit, what it is)]: the workload's metrics under
#: the names users know them by; printed for people, not gated
ALIASES = {
    "design-sweep": [
        ("design_s.p50", "s", "median of all design commands"),
        ("design_s.tail", "s", "design commands, tail percentile above"),
        ("verify_s.p50", "s", "median of all verify commands"),
        ("verify_s.tail", "s", "verify commands, tail percentile above")],
    "sim-scale": [
        ("sim_agent_steps_per_s.n10", "1/s",
         "agent-steps of the N = 10 calls over their total time"),
        ("sim_agent_steps_per_s.n400", "1/s",
         "agent-steps of the N = 400 calls over their total time")],
    "cli-export": [
        ("demo_all_s", "s", "sum of the six demos' median latencies"),
        ("simulate_cli_s", "s",
         "median of all simulate commands (1000 steps)")],
}

_SAME = "on design-sweep, and nothing on cli-export"

#: (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("riccati.solve_low_gain_dare.calls", "count", "lower",
     "design_s.*, verify_s.* " + _SAME),
    ("riccati.solve_low_gain_dare.self_pct", "%", "lower",
     "design_s.*, verify_s.* " + _SAME),
    ("riccati.solve_low_gain_dare.iterations", "count", "lower",
     "design_s.*, verify_s.* " + _SAME),
    ("riccati.solve_low_gain_dare.repeat_ratio", "ratio", "lower",
     "design_s.*, verify_s.* " + _SAME),
    ("riccati.is_stabilizable.calls", "count", "lower",
     "design_s.*, verify_s.* " + _SAME),
    ("design.choose_epsilon_star.self_pct", "%", "lower",
     "design_s.*, verify_s.* on design-sweep"),
    ("design.choose_epsilon_star.points", "count", "lower",
     "design_s.*, verify_s.* on design-sweep"),
    ("design.estimate_mu.self_pct", "%", "lower",
     "design_s.*, verify_s.* on design-sweep; demo_all_s on cli-export"),
    ("design.design_observer.self_pct", "%", "lower",
     "design_s.*, verify_s.* on design-sweep"),
    ("design.design_protocol.total_pct", "%", "lower",
     "design_s.*, verify_s.* on design-sweep"),
    ("spectral.eigenvalues.calls", "count", "lower",
     "design_s.* on design-sweep; sim_agent_steps_per_s.n400 on sim-scale"),
    ("spectral.eigenvalues.self_pct", "%", "lower",
     "design_s.* on design-sweep; sim_agent_steps_per_s.n400 on sim-scale"),
    ("network.network_matrices.calls", "count", "lower",
     "sim_agent_steps_per_s.n400 (strongly), .n10 on sim-scale; "
     "demo_all_s on cli-export"),
    ("network.network_matrices.self_pct", "%", "lower",
     "sim_agent_steps_per_s.n400 (strongly), .n10 on sim-scale; "
     "demo_all_s on cli-export"),
    ("network.is_rooted.self_pct", "%", "lower",
     "sim_agent_steps_per_s.n400 on sim-scale"),
    ("dynamics.simulate.self_pct", "%", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("dynamics.simulate.agent_steps", "count", "higher",
     "none: the work per round, the base of the other dynamics metrics"),
    ("dynamics.control_input.calls", "count", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("dynamics.InputHistory.read.self_pct", "%", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("dynamics.InputHistory.push.self_pct", "%", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("dynamics.network_measurement.self_pct", "%", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("dynamics.extra_exchange.self_pct", "%", "lower",
     "sim_agent_steps_per_s.* on sim-scale; demo_all_s on cli-export"),
    ("verify.frequency_sweep_certificate.self_pct", "%", "lower",
     "verify_s.* on design-sweep; demo_all_s slightly on cli-export"),
    ("verify.frequency_sweep_certificate.evaluations", "count", "lower",
     "verify_s.* on design-sweep; demo_all_s slightly on cli-export"),
    ("config.load_config.self_pct", "%", "lower",
     "setup_s on every workload; simulate_cli_s on cli-export"),
    ("config.write_config.self_pct", "%", "lower",
     "demo_all_s on cli-export"),
    ("cli.write_trajectory_csv.self_pct", "%", "lower",
     "demo_all_s, simulate_cli_s on cli-export; never called on sim-scale"),
    ("cli.write_trajectory_csv.mb_per_s", "MB/s", "higher",
     "demo_all_s, simulate_cli_s on cli-export; never called on sim-scale"),
    ("cli.write_plotdata_csv.self_pct", "%", "lower",
     "simulate_cli_s on cli-export; never called on sim-scale"),
    ("cli.write_plotdata_csv.mb_per_s", "MB/s", "higher",
     "simulate_cli_s on cli-export; never called on sim-scale"),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: traced round time over untraced round time"),
    ("trace.accounted_pct", "%", "higher",
     "none: share of the traced wall time inside some traced span"),
    ("trace.round_s", "s", "lower",
     "none: median traced round; self time = self_pct x round_s / 100"),
]


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None for fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, float(sorted(samples)[n - 11])


def pooled(by_input):
    return [t for times in by_input.values() for t in times]


def summarize(by_input):
    """Geometric mean and 90th percentile, across a workload's inputs, of
    each input's best latency.

    Latency differs between inputs far more than between repetitions of
    one input, so quantiles of the pooled samples sit on the edge between
    two inputs' clusters and jump with the noise there.  The repetitions
    of one input differ by noise alone, and on a shared machine that noise
    only ever adds time, in phases of seconds that can slow every call by
    a third or more; the median of such a mixture moves with the share of
    slow phases, the fastest repetition does not.  The geometric mean then
    weighs every input alike, however long it takes, and averages out the
    luck of each input's fastest repetition.
    """
    best = [min(times) for times in by_input.values()]
    return (float(np.exp(np.mean(np.log(best)))),
            float(np.percentile(best, 90)))


def per_layer_values(tracer, rounds, wall_s, round_s, overhead):
    """Per-layer metric values from a tracer that covered `rounds` rounds
    lasting `wall_s` seconds in total.  Counts are per round; metrics of a
    function the library no longer has are left out."""
    values = {}
    absent = set(tracer.absent)
    for name, _, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if span in absent:
            continue
        if span == "trace":
            values[name] = {"overhead_ratio": overhead,
                            "accounted_pct": 100.0 * sum(tracer.self_s)
                            / wall_s,
                            "round_s": round_s}[kind]
            continue
        nid = tracer.names.index(span)
        if kind == "calls":
            values[name] = tracer.calls[nid] / rounds
        elif kind == "self_pct":
            values[name] = 100.0 * tracer.self_s[nid] / wall_s
        elif kind == "total_pct":
            values[name] = 100.0 * tracer.total_s[nid] / wall_s
        elif kind == "repeat_ratio":
            calls = tracer.calls[nid]
            values[name] = (tracer.counts.get(span + ".repeats", 0) / calls
                            if calls else 0.0)
        elif kind == "points":
            values[name] = tracer.child_count(
                span, "riccati.solve_low_gain_dare") / rounds
        elif kind == "mb_per_s":
            busy = tracer.self_s[nid]
            values[name] = (tracer.counts.get(span + ".bytes", 0) / 1e6 / busy
                            if busy else 0.0)
        else:  # a count accumulated by a hook
            values[name] = tracer.counts.get(name, 0) / rounds
    return values
