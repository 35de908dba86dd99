"""Workflow-net process models: construction, parsing, structural validation.

A workflow net is a Petri net with one source place, one sink place, and
every node on a path between them. Node identity is an opaque id; the
activity names used by the rest of the package are the labels of the
non-silent transitions. The model file alone says which transitions are
silent; each parser's docstring gives its format's rule.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import NamedTuple

from .errors import CaseflowError

_TAU = "tau"  # the label of a silent transition that carries one


class NetError(CaseflowError, ValueError):
    """A model file or net structure that cannot be accepted."""


class Transition(NamedTuple):
    tid: str
    label: str | None
    silent: bool = False


class Diagnostic(NamedTuple):
    code: str
    node: str | None
    message: str


class NetDiagnostics(NamedTuple):
    errors: list[Diagnostic]

    def ok(self) -> bool:
        return not self.errors


class WorkflowNet:
    """Immutable net over places, transitions and a bipartite flow relation.

    Arcs must connect a place with a transition; ids must be unique across
    both node kinds; observable transitions must carry a label. These are
    construction errors. Workflow structure (unique source and sink,
    connectedness, label uniqueness) is checked separately by validate()
    so that diagnostics can be reported in bulk.
    """

    def __init__(self, places, transitions, flows):
        places = sorted(places)
        self.places = frozenset(places)
        self.transitions = tuple(transitions)

        nodes: set[str] = set()
        for node, t in [(p, None) for p in places] + [(t.tid, t) for t in self.transitions]:
            if node in nodes:
                raise NetError("DUPLICATE_ID", f"node id {node!r} declared twice")
            if t is not None and not t.silent and not t.label:
                raise NetError("UNLABELED", f"observable transition {node!r} has no label")
            nodes.add(node)

        pre: dict[str, set[str]] = {n: set() for n in nodes}
        post: dict[str, set[str]] = {n: set() for n in nodes}
        # in the order given, so a net with several bad arcs names its first
        for src, dst in flows:
            for end in (src, dst):
                if end not in nodes:
                    raise NetError("UNKNOWN_NODE", f"arc {src!r} -> {dst!r} references undeclared node {end!r}")
            if (src in self.places) == (dst in self.places):
                kind = "places" if src in self.places else "transitions"
                raise NetError("BIPARTITE", f"arc {src!r} -> {dst!r} connects two {kind}")
            post[src].add(dst)
            pre[dst].add(src)
        self._pre = {n: frozenset(s) for n, s in pre.items()}
        self._post = {n: frozenset(s) for n, s in post.items()}

    def preset(self, node: str) -> frozenset[str]:
        if node not in self._pre:
            raise NetError("UNKNOWN_NODE", f"no node with id {node!r}")
        return self._pre[node]

    def postset(self, node: str) -> frozenset[str]:
        if node not in self._pre:
            raise NetError("UNKNOWN_NODE", f"no node with id {node!r}")
        return self._post[node]

    def observable_labels(self) -> frozenset[str]:
        return frozenset(t.label for t in self.transitions if not t.silent)

    def source_places(self) -> list[str]:
        return sorted(p for p in self.places if not self._pre[p])

    def sink_places(self) -> list[str]:
        return sorted(p for p in self.places if not self._post[p])


def validate(net: WorkflowNet) -> NetDiagnostics:
    """Check workflow-net structure, returning diagnostics instead of raising.

    Only structural preconditions are checked: exactly one source and one
    sink place, all nodes on a source-to-sink path, unique labels among
    observable transitions. Behavioral soundness (freedom from deadlock and
    livelock) is not verified; an unsound net can yield faulty correlations
    downstream.
    """
    errors: list[Diagnostic] = []

    sources = net.source_places()
    sinks = net.sink_places()
    for end, places in (("source", sources), ("sink", sinks)):
        if len(places) != 1:
            errors.append(Diagnostic(
                f"UNIQUE_{end.upper()}", None, f"expected one {end} place, found {len(places)}: {places}"))

    forward = _reachable(sources, net._post.__getitem__)
    backward = _reachable(sinks, net._pre.__getitem__)
    for node in sorted(net._pre):
        if node not in forward or node not in backward:
            errors.append(
                Diagnostic("CONNECTIVITY", node, f"node {node!r} is not on a path from source to sink")
            )

    seen: dict[str, str] = {}
    for t in net.transitions:
        if t.silent:
            continue
        if t.label in seen:
            errors.append(
                Diagnostic("DUPLICATE_LABEL", t.tid, f"label {t.label!r} also used by transition {seen[t.label]!r}")
            )
        else:
            seen[t.label] = t.tid

    return NetDiagnostics(errors)


def _reachable(starts, step):
    seen = set(starts)
    frontier = list(starts)
    while frontier:
        node = frontier.pop()
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def parse_pnml(text: str) -> WorkflowNet:
    """Parse the PNML subset: net, place, transition (with name/text), arc.

    A transition is silent when its label is absent, empty or "tau", or when
    a toolspecific element marks it invisible (activity="$invisible$" or an
    <invisible>true</invisible> child).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise NetError("MALFORMED_XML", str(exc)) from exc

    local = _LocalNames()
    nets = [root] if local[root.tag] == "net" else [el for el in root.iter() if local[el.tag] == "net"]
    if not nets:
        raise NetError("NO_NET", "document contains no <net> element")
    if len(nets) > 1:
        raise NetError("MULTIPLE_NETS", f"expected one <net>, found {len(nets)}")
    net_el = nets[0]

    places, transitions, flows = [], [], []
    for el in net_el.iter():
        tag = local[el.tag]
        if tag == "place":
            places.append(_require_id(el, "place"))
        elif tag == "transition":
            tid = _require_id(el, "transition")
            label, invisible = _pnml_transition(el, local)
            silent = not label or label == _TAU or invisible
            transitions.append(Transition(tid, label or None, silent))
        elif tag == "arc":
            src, dst = el.get("source"), el.get("target")
            if not src or not dst:
                raise NetError("MALFORMED_XML", "arc without source/target attributes")
            flows.append((src, dst))
    return WorkflowNet(places, transitions, flows)


class _LocalNames(dict):
    """Tag -> its name without the namespace, each distinct tag split once."""

    def __missing__(self, tag):
        self[tag] = name = tag.rsplit("}", 1)[-1]
        return name


def _require_id(el, kind):
    node_id = el.get("id")
    if not node_id:
        raise NetError("MALFORMED_XML", f"{kind} element without id")
    return node_id


def _pnml_transition(el, local):
    """In one walk of a transition's subtree: the first <text> of its first <name> child
    that holds one ("" if none does), and whether a toolspecific element marks it invisible."""
    label, invisible = None, False
    for child in el:
        named = local[child.tag] == "name"
        for sub in child.iter():
            tag = local[sub.tag]
            if named and label is None and tag == "text":
                label = (sub.text or "").strip()
            elif (tag == "toolspecific" and sub.get("activity") == "$invisible$"
                  or tag == "invisible" and (sub.text or "").strip().lower() == "true"):
                invisible = True
    return label or "", invisible


def parse_simple_net(text: str) -> WorkflowNet:
    """Parse the line-oriented net format, meant for hand-written fixtures.

    Directives, one per line ('#' starts a comment):
        place <id>
        transition <id> [label] [silent]
        arc <from> <to>

    A transition's label defaults to its id; "-" stands for no label. The
    trailing keyword "silent", no label, or the label "tau" marks the
    transition silent.
    """
    places, transitions, flows = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "place":
            if len(args) != 1:
                raise NetError("UNKNOWN_DIRECTIVE", f"line {lineno}: place takes one id")
            places.append(args[0])
        elif directive == "transition":
            if not args:
                raise NetError("UNKNOWN_DIRECTIVE", f"line {lineno}: transition needs an id")
            silent_flag = args[-1] == "silent"
            body = args[:-1] if silent_flag else args
            if len(body) == 0 or len(body) > 2:
                raise NetError("UNKNOWN_DIRECTIVE", f"line {lineno}: bad transition declaration")
            tid = body[0]
            label = None if body[-1] == "-" else body[-1]  # the label, else the id
            silent = silent_flag or not label or label == _TAU
            transitions.append(Transition(tid, label, silent))
        elif directive == "arc":
            if len(args) != 2:
                raise NetError("UNKNOWN_DIRECTIVE", f"line {lineno}: arc takes two node ids")
            flows.append((args[0], args[1]))
        else:
            raise NetError("UNKNOWN_DIRECTIVE", f"line {lineno}: unknown directive {directive!r}")
    if not places and not transitions:
        raise NetError("NO_NET", "no net: input declares no places or transitions")
    return WorkflowNet(places, transitions, flows)
