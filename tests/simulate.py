"""Synthetic data generators for the test suite.

simulate_log plays the token game on a workflow net, drawing each observable
duration inside its heuristic window, to produce labeled streams whose true
case ids are known. random_net builds small block-structured workflow nets
so the allocation engine can be compared against the brute-force oracle on
shapes nobody hand-picked.
"""

import string
from datetime import datetime, timedelta

from caseflow.model import Transition, WorkflowNet
from caseflow.streams import UncorrelatedEvent

BASE_TS = datetime(2021, 3, 1, 9, 0, 0)


def simulate_case(net, table, rng, case_id, start_ts, max_firings=200, weights=None,
                  paired=False):
    """One run of the token game; returns this case's observable events.

    weights biases the choice between simultaneously enabled transitions by
    label (default 1 each), e.g. to make loop exits likelier than repeats.
    A completions-only case emits one event per observable firing, at
    ready + U[min, max]. A paired case emits a started event there and its
    completion at start + U[min, max]; the completion releases the tokens.
    """
    weights = weights or {}
    marking = {p: [] for p in net.places}
    [source] = net.source_places()
    marking[source].append(start_ts)
    events = []
    for _ in range(max_firings):
        enabled = [
            t for t in net.transitions
            if all(marking[p] for p in net.preset(t.tid))
        ]
        if not enabled:
            break
        [t] = rng.choices(enabled, weights=[weights.get(t.label, 1) for t in enabled])
        consumed = []
        for p in net.preset(t.tid):
            marking[p].sort()
            consumed.append(marking[p].pop(0))
        ready = max(consumed) if consumed else start_ts
        if t.silent:
            done = ready
        else:
            mn, mx = table.window(t.label)
            done = ready + timedelta(seconds=rng.randint(mn, mx))
            if paired:
                events.append(UncorrelatedEvent(
                    timestamp=done, activity=t.label, lifecycle="started", case_id=case_id))
                done += timedelta(seconds=rng.randint(mn, mx))
            events.append(UncorrelatedEvent(
                timestamp=done, activity=t.label, lifecycle="completed" if paired else None,
                case_id=case_id))
        for p in net.postset(t.tid):
            marking[p].append(done)
    return events


def simulate_log(net, table, rng, n_cases, gap_range=(10, 30), start=BASE_TS, weights=None,
                 paired=False):
    """Interleaved labeled log of n_cases staggered by random gaps; paired
    cases emit started/completed pairs, as simulate_case says."""
    events = []
    t = start
    for case_id in range(1, n_cases + 1):
        events.extend(simulate_case(net, table, rng, case_id, t, weights=weights, paired=paired))
        t += timedelta(seconds=rng.randint(*gap_range))
    events.sort(key=lambda e: e.timestamp)
    return tuple(events)


def random_net(rng, max_nodes=15):
    """Small random block-structured workflow net, at most max_nodes nodes.

    The chain between source and sink mixes plain activities, exclusive
    choices (possibly with a silent branch), and a synchronized pair; a
    back arc may then turn part of the chain into a loop. Back transitions
    stay observable so silent transitions never depend on themselves.
    """
    labels = iter(string.ascii_uppercase)
    places = ["p_in", "p_out"]
    transitions = []
    arcs = []
    budget = max_nodes - 2

    def new_place():
        nonlocal budget
        pid = f"q{len(places)}"
        places.append(pid)
        budget -= 1
        return pid

    def new_transition(silent=False):
        nonlocal budget
        label = next(labels)
        tid = f"t{label.lower()}"
        transitions.append(Transition(tid, "tau" if silent else label, silent))
        budget -= 1
        return tid

    def atom(u, v, silent=False):
        tid = new_transition(silent=silent)
        arcs.append((u, tid))
        arcs.append((tid, v))

    def xor(u, v, allow_silent):
        atom(u, v)
        atom(u, v, silent=allow_silent and rng.random() < 0.5)

    def synchronized(u, v):
        split = new_transition(silent=True)
        join = new_transition(silent=True)
        arcs.append((u, split))
        for _ in range(2):
            a, b = new_place(), new_place()
            arcs.append((split, a))
            atom(a, b)
            arcs.append((b, join))
        arcs.append((join, v))

    # segment costs: atom 1, xor 2, synchronized 8; each non-final segment
    # also needs its joining place, and later segments need an atom each
    chain = ["p_in"]
    current = "p_in"
    n_segments = rng.randint(1, 3)
    for i in range(n_segments):
        last = i == n_segments - 1
        nxt = "p_out" if last else None
        remaining = n_segments - 1 - i
        reserve = (0 if last else 1) + remaining + max(remaining - 1, 0)
        affordable = ["atom"]
        if budget >= 2 + reserve:
            affordable.append("xor")
        if budget >= 8 + reserve and i > 0:
            affordable.append("synchronized")
        kind = rng.choice(affordable)
        if nxt is None:
            nxt = new_place()
        if kind == "atom":
            atom(current, nxt)
        elif kind == "xor":
            # a silent branch straight out of the source would have nothing
            # to substitute, so only allow it deeper in the chain
            xor(current, nxt, allow_silent=i > 0)
        else:
            synchronized(current, nxt)
        current = nxt
        chain.append(current)

    inner = chain[1:-1]
    if inner and budget >= 1 and rng.random() < 0.6:
        src = rng.choice(inner)
        dst = rng.choice([p for p in inner if chain.index(p) <= chain.index(src)])
        atom(src, dst)

    return WorkflowNet(places, transitions, arcs)


def random_stream(rng, activities, max_events=30, paired=False, unknown_rate=0.05):
    """Random event stream over the given activities, timestamps ascending."""
    pool = sorted(activities)
    t = BASE_TS
    events = []
    n = rng.randint(1, max_events)
    for i in range(n):
        t = t + timedelta(seconds=rng.randint(0, 4))
        activity = "zz-unmodeled" if rng.random() < unknown_rate else rng.choice(pool)
        if paired:
            lifecycle = "started" if i == 0 or rng.random() < 0.5 else "completed"
        else:
            lifecycle = None
        events.append(UncorrelatedEvent(timestamp=t, activity=activity, lifecycle=lifecycle))
    return events
