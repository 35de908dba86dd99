"""Net construction, the two parsers, and structural validation."""

from itertools import permutations

import pytest

from caseflow import NetError, parse_pnml
from caseflow.model import Transition, WorkflowNet, parse_simple_net, validate
from simulate import arcs

SMALL = """
place p0
place p1
place p2
transition ta A
transition tb B
arc p0 ta
arc ta p1
arc p1 tb
arc tb p2
"""


def small_net():
    return parse_simple_net(SMALL)


def transition(net, tid):
    return next(t for t in net.transitions if t.tid == tid)


def test_simple_net_round_trip_structure():
    net = small_net()
    assert net.places == {"p0", "p1", "p2"}
    assert [t.tid for t in net.transitions] == ["ta", "tb"]
    assert net.preset("tb") == {"p1"}
    assert net.postset("ta") == {"p1"}
    assert net.source_places() == ["p0"]
    assert net.sink_places() == ["p2"]
    assert net.observable_labels() == {"A", "B"}
    assert validate(net).ok()


def test_label_defaults_to_id_and_dash_means_silent():
    net = parse_simple_net(
        """
        place p0
        place p1
        transition X
        transition skip -
        arc p0 X
        arc X p1
        arc p1 skip
        arc skip p0
        """
    )
    assert transition(net, "X").label == "X"
    assert not transition(net, "X").silent
    assert transition(net, "skip").silent
    assert transition(net, "skip").label is None


def test_silent_keyword_and_tau_label():
    net = parse_simple_net(
        """
        place p0
        place p1
        transition a keep silent
        transition b tau
        arc p0 a
        arc a p1
        arc p0 b
        arc b p1
        """
    )
    assert transition(net, "a").silent
    assert transition(net, "a").label == "keep"
    assert transition(net, "b").silent


@pytest.mark.parametrize(
    "text,code",
    [
        ("placex p0", "UNKNOWN_DIRECTIVE"),
        ("place p0 p1", "UNKNOWN_DIRECTIVE"),
        ("transition", "UNKNOWN_DIRECTIVE"),
        ("transition t1 A extra", "UNKNOWN_DIRECTIVE"),
        ("arc p0", "UNKNOWN_DIRECTIVE"),
        ("# only a comment\n", "NO_NET"),
        ("", "NO_NET"),
    ],
)
def test_simple_net_rejects_bad_input(text, code):
    with pytest.raises(NetError) as err:
        parse_simple_net(text)
    assert err.value.code == code


def test_directive_errors_carry_line_numbers():
    with pytest.raises(NetError, match="line 3"):
        parse_simple_net("place p0\nplace p1\nbogus x\n")


def test_constructor_rejects_duplicate_ids():
    with pytest.raises(NetError) as err:
        WorkflowNet({"n"}, [Transition("n", "A")], [])
    assert err.value.code == "DUPLICATE_ID"
    with pytest.raises(NetError) as err:
        WorkflowNet({"p"}, [Transition("t", "A"), Transition("t", "B")], [])
    assert err.value.code == "DUPLICATE_ID"


def test_parsers_reject_a_place_declared_twice():
    with pytest.raises(NetError, match="'p0' declared twice") as err:
        parse_simple_net(SMALL + "place p0\n")
    assert err.value.code == "DUPLICATE_ID"
    pnml = "<pnml><net id='n'><place id='p0'/><place id='p1'/><place id='p0'/></net></pnml>"
    with pytest.raises(NetError, match="'p0' declared twice") as err:
        parse_pnml(pnml)
    assert err.value.code == "DUPLICATE_ID"


def test_constructor_rejects_unlabeled_observable():
    with pytest.raises(NetError) as err:
        WorkflowNet({"p"}, [Transition("t", None)], [])
    assert err.value.code == "UNLABELED"
    # silent transitions may be unlabeled
    WorkflowNet({"p"}, [Transition("t", None, silent=True)], [])


def test_constructor_rejects_dangling_and_nonbipartite_arcs():
    with pytest.raises(NetError) as err:
        WorkflowNet({"p"}, [Transition("t", "A")], [("p", "q")])
    assert err.value.code == "UNKNOWN_NODE"
    with pytest.raises(NetError) as err:
        WorkflowNet({"p", "q"}, [Transition("t", "A")], [("p", "q")])
    assert err.value.code == "BIPARTITE"


def test_the_first_bad_arc_in_the_given_order_is_the_error():
    bad = {
        ("p", "q"): "BIPARTITE: arc 'p' -> 'q' connects two places",
        ("t", "x"): "UNKNOWN_NODE: arc 't' -> 'x' references undeclared node 'x'",
    }
    for flows in permutations([("p", "t"), ("t", "q"), *bad]):
        with pytest.raises(NetError) as err:
            WorkflowNet({"p", "q"}, [Transition("t", "A")], flows)
        assert str(err.value) == bad[next(arc for arc in flows if arc in bad)], flows


def test_preset_of_unknown_node_raises():
    net = small_net()
    with pytest.raises(NetError) as err:
        net.preset("nope")
    assert err.value.code == "UNKNOWN_NODE"
    with pytest.raises(NetError) as err:
        net.postset("nope")
    assert err.value.code == "UNKNOWN_NODE"


def test_validate_flags_multiple_sources_and_sinks():
    net = parse_simple_net(
        """
        place p0
        place p0b
        place p1
        place p2
        place p2b
        transition ta A
        arc p0 ta
        arc p0b ta
        arc ta p1
        arc ta p2
        arc ta p2b
        """
    )
    diags = validate(net)
    codes = {d.code for d in diags.errors}
    assert "UNIQUE_SOURCE" in codes
    assert "UNIQUE_SINK" in codes


def test_validate_flags_isolated_place_as_extra_source_and_sink():
    net = parse_simple_net(SMALL + "place stray\n")
    diags = validate(net)
    codes = {d.code for d in diags.errors}
    assert "UNIQUE_SOURCE" in codes and "UNIQUE_SINK" in codes


def test_validate_flags_disconnected_nodes():
    # a detached cycle has no arcless node to trip the uniqueness checks,
    # so only path coverage can reject it
    extra = "place q\ntransition tz Z\narc q tz\narc tz q\n"
    net = parse_simple_net(SMALL + extra)
    diags = validate(net)
    flagged = {d.node for d in diags.errors if d.code == "CONNECTIVITY"}
    assert flagged == {"q", "tz"}


def test_validate_flags_duplicate_labels():
    net = parse_simple_net(
        """
        place p0
        place p1
        place p2
        transition ta A
        transition tb A
        arc p0 ta
        arc ta p1
        arc p1 tb
        arc tb p2
        """
    )
    diags = validate(net)
    assert any(d.code == "DUPLICATE_LABEL" and d.node == "tb" for d in diags.errors)


def test_each_validate_call_returns_a_list_of_its_own():
    # the diagnostics of one call share no mutable default with another's
    first, second = validate(parse_simple_net(SMALL)), validate(parse_simple_net(SMALL))
    assert first.ok() and second.ok()
    assert first.errors is not second.errors
    first.errors.append(validate(parse_simple_net(SMALL + "place stray\n")).errors[0])
    assert second.errors == [] and second.ok()


def test_parse_pnml_clinic(clinic_net):
    assert len(clinic_net.places) == 13
    assert len(clinic_net.transitions) == 14
    assert transition(clinic_net, "t_tau").silent
    assert clinic_net.observable_labels() == set("ABCDEFGHIJLMN")
    assert validate(clinic_net).ok()


def test_pnml_and_simple_fixtures_agree(clinic_net, data_dir):
    other = parse_simple_net((data_dir / "clinic.net").read_text())
    assert other.places == clinic_net.places
    assert set(other.transitions) == set(clinic_net.transitions)
    assert arcs(other) == arcs(clinic_net)


def test_parse_pnml_invisible_markers():
    text = """
    <pnml><net id="n1"><page id="pg">
      <place id="p0"/><place id="p1"/><place id="p2"/>
      <transition id="t1"><name><text>A</text></name></transition>
      <transition id="t2"><name><text>skip</text></name>
        <toolspecific tool="ProM" version="6.4" activity="$invisible$"/>
      </transition>
      <transition id="t3"><name><text>also skipped</text></name>
        <toolspecific tool="other" version="1"><invisible>true</invisible></toolspecific>
      </transition>
      <transition id="t4"/>
      <arc id="a1" source="p0" target="t1"/>
      <arc id="a2" source="t1" target="p1"/>
      <arc id="a3" source="p1" target="t2"/>
      <arc id="a4" source="p1" target="t3"/>
      <arc id="a5" source="p1" target="t4"/>
      <arc id="a6" source="t2" target="p2"/>
      <arc id="a7" source="t3" target="p2"/>
      <arc id="a8" source="t4" target="p2"/>
    </page></net></pnml>
    """
    net = parse_pnml(text)
    assert not transition(net, "t1").silent
    assert transition(net, "t2").silent
    assert transition(net, "t3").silent
    assert transition(net, "t4").silent  # no label at all
    assert net.observable_labels() == {"A"}


@pytest.mark.parametrize(
    "text,code",
    [
        ("<pnml>", "MALFORMED_XML"),
        ("<pnml></pnml>", "NO_NET"),
        ("<pnml><net id='a'/><net id='b'/></pnml>", "MULTIPLE_NETS"),
        ("<net id='a'><arc source='x'/></net>", "MALFORMED_XML"),
        ("<net id='a'><place/></net>", "MALFORMED_XML"),
    ],
)
def test_parse_pnml_rejects_bad_documents(text, code):
    with pytest.raises(NetError) as err:
        parse_pnml(text)
    assert err.value.code == code
