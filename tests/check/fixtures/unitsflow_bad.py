"""Seeded violations for the unitsflow rule (never imported)."""


def assigns_across_scales(latency_ms):
    timeout_s = latency_ms       # ms value into an _s name
    return timeout_s


def flows_through_alias(latency_ms):
    x = latency_ms               # no suffix: the env carries the unit
    total_s = x                  # drift found through the flow, not the name
    return total_s


def mean_gap_s(gap_ms, count):
    return gap_ms                # _s-suffixed function returning ms


def helper(spin_up_s):
    return spin_up_s


def passes_wrong_unit(wake_ms):
    return helper(wake_ms)       # ms argument into an _s parameter


def adds_dimensions(idle_s, idle_j):
    return idle_s + idle_j       # time + energy


def adds_scales(idle_s, idle_ms):
    return idle_s + idle_ms      # s + ms without a conversion


def carries_around_loop(latency_s, r):
    lat = latency_s
    w = lat
    for v in r:
        w = max(w, lat)          # the loop keeps w in seconds
    total_ms = w                 # s value into an _ms name, via the loop
    return total_ms
