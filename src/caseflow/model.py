"""Workflow-net process models: construction, parsing, structural validation.

A workflow net is a Petri net with one source place, one sink place, and
every node on a path between them. Node identity is an opaque id; the
activity names used by the rest of the package are the labels of the
non-silent transitions.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

DEFAULT_SILENT_LABELS = frozenset({"tau"})


class NetError(ValueError):
    """A model file or net structure that cannot be accepted."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None
    silent: bool = False


@dataclass(frozen=True)
class Diagnostic:
    code: str
    node: str | None
    message: str


@dataclass
class NetDiagnostics:
    errors: list[Diagnostic] = field(default_factory=list)

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
        self.places = frozenset(places)
        self.transitions = tuple(transitions)
        self.flows = frozenset(flows)

        self._nodes: dict[str, Transition | None] = {}
        for p in sorted(self.places):
            self._nodes[p] = None
        for t in self.transitions:
            if t.tid in self._nodes:
                raise NetError("DUPLICATE_ID", f"node id {t.tid!r} declared twice")
            if not t.silent and not t.label:
                raise NetError("UNLABELED", f"observable transition {t.tid!r} has no label")
            self._nodes[t.tid] = t
        if len(self.places) + len(self.transitions) != len(self._nodes):
            dupes = sorted(p for p in self.places if self._nodes[p] is not None) or "place ids"
            raise NetError("DUPLICATE_ID", f"duplicate node ids: {dupes}")

        self._pre: dict[str, set[str]] = {n: set() for n in self._nodes}
        self._post: dict[str, set[str]] = {n: set() for n in self._nodes}
        for src, dst in self.flows:
            for end in (src, dst):
                if end not in self._nodes:
                    raise NetError(
                        "UNKNOWN_NODE",
                        f"arc {src!r} -> {dst!r} references undeclared node {end!r}",
                    )
            if self.is_place(src) == self.is_place(dst):
                kind = "places" if self.is_place(src) else "transitions"
                raise NetError("BIPARTITE", f"arc {src!r} -> {dst!r} connects two {kind}")
            self._post[src].add(dst)
            self._pre[dst].add(src)

    def is_place(self, node: str) -> bool:
        return node in self.places

    def transition(self, tid: str) -> Transition:
        t = self._nodes.get(tid)
        if t is None:
            raise NetError("UNKNOWN_NODE", f"no transition with id {tid!r}")
        return t

    def preset(self, node: str) -> frozenset[str]:
        if node not in self._nodes:
            raise NetError("UNKNOWN_NODE", f"no node with id {node!r}")
        return frozenset(self._pre[node])

    def postset(self, node: str) -> frozenset[str]:
        if node not in self._nodes:
            raise NetError("UNKNOWN_NODE", f"no node with id {node!r}")
        return frozenset(self._post[node])

    def label_of(self, tid: str) -> str | None:
        return self.transition(tid).label

    def is_silent(self, tid: str) -> bool:
        return self.transition(tid).silent

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
    diags = NetDiagnostics()

    sources = net.source_places()
    sinks = net.sink_places()
    if len(sources) != 1:
        diags.errors.append(
            Diagnostic("UNIQUE_SOURCE", None, f"expected one source place, found {len(sources)}: {sources}")
        )
    if len(sinks) != 1:
        diags.errors.append(
            Diagnostic("UNIQUE_SINK", None, f"expected one sink place, found {len(sinks)}: {sinks}")
        )

    forward = _reachable(sources, net.postset)
    backward = _reachable(sinks, net.preset)
    for node in sorted(net._nodes):
        if node not in forward or node not in backward:
            diags.errors.append(
                Diagnostic("CONNECTIVITY", node, f"node {node!r} is not on a path from source to sink")
            )

    seen: dict[str, str] = {}
    for t in net.transitions:
        if t.silent:
            continue
        if t.label in seen:
            diags.errors.append(
                Diagnostic("DUPLICATE_LABEL", t.tid, f"label {t.label!r} also used by transition {seen[t.label]!r}")
            )
        else:
            seen[t.label] = t.tid

    return diags


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


def parse_pnml(text: str, silent_labels=DEFAULT_SILENT_LABELS) -> WorkflowNet:
    """Parse the PNML subset: net, place, transition (with name/text), arc.

    A transition is silent when its label is absent or empty, when the label
    belongs to silent_labels, or when a toolspecific element marks it
    invisible (activity="$invisible$" or an <invisible>true</invisible> child).
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise NetError("MALFORMED_XML", str(exc)) from exc

    nets = [el for el in root.iter() if _local(el.tag) == "net"]
    if _local(root.tag) == "net":
        nets = [root]
    if not nets:
        raise NetError("NO_NET", "document contains no <net> element")
    if len(nets) > 1:
        raise NetError("MULTIPLE_NETS", f"expected one <net>, found {len(nets)}")
    net_el = nets[0]

    places = []
    transitions = []
    flows = []
    for el in net_el.iter():
        tag = _local(el.tag)
        if tag == "place":
            places.append(_require_id(el, "place"))
        elif tag == "transition":
            tid = _require_id(el, "transition")
            label = _pnml_label(el)
            silent = not label or label in silent_labels or _pnml_invisible(el)
            transitions.append(Transition(tid, label or None, silent))
        elif tag == "arc":
            src = el.get("source")
            dst = el.get("target")
            if not src or not dst:
                raise NetError("MALFORMED_XML", "arc without source/target attributes")
            flows.append((src, dst))
    return WorkflowNet(places, transitions, flows)


def _local(tag):
    return tag.rsplit("}", 1)[-1]


def _require_id(el, kind):
    node_id = el.get("id")
    if not node_id:
        raise NetError("MALFORMED_XML", f"{kind} element without id")
    return node_id


def _pnml_label(el):
    for child in el:
        if _local(child.tag) == "name":
            for text_el in child.iter():
                if _local(text_el.tag) == "text":
                    return (text_el.text or "").strip()
    return ""


def _pnml_invisible(el):
    for child in el.iter():
        tag = _local(child.tag)
        if tag == "toolspecific" and child.get("activity") == "$invisible$":
            return True
        if tag == "invisible" and (child.text or "").strip().lower() == "true":
            return True
    return False


def parse_simple_net(text: str, silent_labels=DEFAULT_SILENT_LABELS) -> WorkflowNet:
    """Parse the line-oriented net format, meant for hand-written fixtures.

    Directives, one per line ('#' starts a comment):
        place <id>
        transition <id> [label] [silent]
        arc <from> <to>

    A transition's label defaults to its id; "-" stands for no label. The
    trailing keyword "silent", a missing label, or a label in silent_labels
    all mark the transition silent.
    """
    places = []
    transitions = []
    flows = []
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
            label = body[1] if len(body) == 2 else tid
            if label == "-":
                label = None
            silent = silent_flag or not label or label in silent_labels
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
